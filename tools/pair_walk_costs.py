"""Work and per-layer time of the pair walk behind `dimension`'s correlation dimension.

For the criterion 7 fixtures as the benchmark's dimension workload draws them
(uniform S^7, the Sp(1) orbit and the S^3 subsphere, n = 2, 10 000 atoms),
prints, for one dimension_lab.correlation_dimension call each:

- walked and probed: the Gram values computed by the pair walk (_pair_counts)
  and by the two probes, counted from the tiles dimension_lab._gram_tiles yields;
- kept: the pairs whose Gram value passes the walk's threshold (the hits
  _tile_hits returns), the only ones that get a squared distance and a bin;
- the best-of-N ms of each layer:
  - gemm: the walk's Gram tiles (the time spent in _gram_tiles inside _pair_counts);
  - select: the threshold selection (_tile_hits);
  - bin: the binning (_tile_hist);
  - walk: the whole of _pair_counts;
  - diameter and nearest: the two probes (_max_sq_distance, _nearest_sq_distances);
  - total: the whole call.

Each layer is timed by wrapping the function that reaches it in dimension_lab's
namespace, so the library is measured as it is; a layer whose function the
library does not have prints "-".  Each layer's best is taken over the N calls
separately.  Run from the root of a checkout; the library is imported from
src/ and BLAS runs on one thread:

    python3 tools/pair_walk_costs.py --repeats 15 --seed 1
"""

import argparse
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quatsphere import dimension_lab  # noqa: E402
from quatsphere.quat_core import sphere_samples, unit_point  # noqa: E402

ATOMS = 10_000
# the layer each name of dimension_lab's namespace is timed as
WRAPPED = {
    "_tile_hits": "select",
    "_tile_hist": "bin",
    "_pair_counts": "walk",
    "_max_sq_distance": "diameter",
    "_nearest_sq_distances": "nearest",
}
LAYERS = ("gemm", "select", "bin", "walk", "diameter", "nearest", "total")
COUNTS = ("walked", "probed", "kept")


def fixtures(seed):
    x0 = unit_point(sphere_samples(2, 1, [seed, 71])[0])
    return {
        "uniform": dimension_lab.gen_uniform(2, ATOMS, seed),
        "sp1-orbit": dimension_lab.gen_sp1_orbit(x0, ATOMS, seed),
        "subsphere:1": dimension_lab.gen_subsphere(2, 1, ATOMS, seed),
    }


class Ledger:
    """Seconds per layer and counts of one call; `walking` is set inside _pair_counts."""

    def __init__(self):
        self.walking = False
        self.reset()

    def reset(self):
        self.spent = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def timed(self, fn, layer):
        def wrapper(*args, **kw):
            if layer == "walk":
                self.walking = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                self.spent[layer] += time.perf_counter() - start
                if layer == "walk":
                    self.walking = False
            if layer == "select":
                self.counts["kept"] += len(result)
            return result

        return wrapper

    def tiles(self, gram_tiles):
        def walk(*args, **kw):
            tiles = gram_tiles(*args, **kw)
            while True:
                start = time.perf_counter()
                tile = next(tiles, None)
                if self.walking:
                    self.spent["gemm"] += time.perf_counter() - start
                if tile is None:
                    return
                self.counts["walked" if self.walking else "probed"] += tile[2].size
                yield tile

        return walk


def layer_costs(mu, repeats, seed):
    """({layer: best seconds over `repeats` calls}, {count: value of the last call}) for one measure."""
    ledger = Ledger()
    names = [name for name in [*WRAPPED, "_gram_tiles"] if hasattr(dimension_lab, name)]
    originals = {name: getattr(dimension_lab, name) for name in names}
    for name, layer in WRAPPED.items():
        if name in originals:
            setattr(dimension_lab, name, ledger.timed(originals[name], layer))
    dimension_lab._gram_tiles = ledger.tiles(originals["_gram_tiles"])
    best = dict.fromkeys(LAYERS, float("inf"))
    try:
        # one untimed call first, so that every timed one finds the process warm
        for trial in range(repeats + 1):
            ledger.reset()
            start = time.perf_counter()
            dimension_lab.correlation_dimension(mu, seed=seed)
            ledger.spent["total"] = time.perf_counter() - start
            if trial:
                best = {k: min(best[k], ledger.spent[k]) for k in LAYERS}
    finally:
        for name, fn in originals.items():
            setattr(dimension_lab, name, fn)
    timed = {"gemm", "total", *(layer for name, layer in WRAPPED.items() if name in originals)}
    counts = {k: v if k != "kept" or "select" in timed else "-" for k, v in ledger.counts.items()}
    return {k: best[k] if k in timed else None for k in LAYERS}, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed calls per fixture (default 15)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the fixtures and the call (default 1)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"best of {args.repeats}, ms, {ATOMS} atoms, seed {args.seed}")
    print(f"{'fixture':<12}" + "".join(f"{k:>11}" for k in (*COUNTS, *LAYERS)))
    for name, mu in fixtures(args.seed).items():
        best, counts = layer_costs(mu, args.repeats, args.seed)
        times = ["-" if best[k] is None else f"{1e3 * best[k]:.2f}" for k in LAYERS]
        print(f"{name:<12}" + "".join(f"{counts[k]:>11}" for k in COUNTS) + "".join(f"{v:>11}" for v in times))


if __name__ == "__main__":
    main()
