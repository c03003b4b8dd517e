"""Per-layer time of the product pass behind `verify`'s idempotency check.

For verification.check_idempotency at n = 2 and n = 3 with 2e5 samples (the
CLI default) and a bank of h <= 6, prints the best-of-N seconds of each
layer of its one product pass:

- draw: making the sample pieces (sphere_sample_chunks);
- invariants: pair_invariants_matrix, one call (four GEMMs) per piece;
- walks: the Chebyshev and Jacobi ladder walks (zonal_kernel._kernel_row);
- merge: the moment merge (verification._merge_moments);
- pass: the whole of verification._product_moments, and `rest`, what the
  four layers leave of it.

Each layer is timed by wrapping the function the pass reaches it through in
verification's namespace, so the library is measured as it is.  Each
layer's best is taken over the N checks separately.  Run from the root of
a checkout; the library is imported from src/ and BLAS runs on one thread:

    python3 tools/product_pass_costs.py --repeats 15 --seed 1
"""

import argparse
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quatsphere import calibrate_bank, verification  # noqa: E402

SAMPLES = 200_000
H_MAX = 6
# the layer each name of verification's namespace is timed as
WRAPPED = {
    "pair_invariants_matrix": "invariants",
    "_kernel_row": "walks",
    "_merge_moments": "merge",
    "_product_moments": "pass",
}
LAYERS = ("draw", "invariants", "walks", "merge", "rest", "pass")


def timed(fn, layer, spent):
    def wrapper(*args, **kw):
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            spent[layer] += time.perf_counter() - start

    return wrapper


def timed_draw(chunks, spent):
    def draw(*args, **kw):
        pieces = chunks(*args, **kw)
        while True:
            start = time.perf_counter()
            piece = next(pieces, None)
            spent["draw"] += time.perf_counter() - start
            if piece is None:
                return
            yield piece

    return draw


def layer_costs(n, repeats, seed):
    """{layer: best seconds over `repeats` idempotency checks at this n}."""
    bank = calibrate_bank(n, H_MAX)
    spent = dict.fromkeys(LAYERS, 0.0)
    originals = {name: getattr(verification, name) for name in [*WRAPPED, "sphere_sample_chunks"]}
    for name, layer in WRAPPED.items():
        setattr(verification, name, timed(originals[name], layer, spent))
    verification.sphere_sample_chunks = timed_draw(originals["sphere_sample_chunks"], spent)
    best = dict.fromkeys(LAYERS, float("inf"))
    try:
        # one untimed check first, so that every timed one finds the process warm
        for trial in range(repeats + 1):
            spent.update(dict.fromkeys(LAYERS, 0.0))
            result = verification.check_idempotency(bank, n, H_MAX, SAMPLES, seed)
            if not result.passed:
                raise SystemExit(f"n = {n}: the idempotency check failed: {result.detail}")
            spent["rest"] = spent["pass"] - sum(spent[k] for k in ("draw", "invariants", "walks", "merge"))
            if trial:
                best = {k: min(best[k], spent[k]) for k in LAYERS}
    finally:
        for name, fn in originals.items():
            setattr(verification, name, fn)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed checks per n (default 15)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the check (default 1)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"best of {args.repeats}, ms, {SAMPLES} samples, seed {args.seed}")
    print("n  " + "".join(f"{k:>11}" for k in LAYERS))
    for n in (2, 3):
        best = layer_costs(n, args.repeats, args.seed)
        print(f"{n}  " + "".join(f"{1e3 * best[k]:11.2f}" for k in LAYERS))


if __name__ == "__main__":
    main()
