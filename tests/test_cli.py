import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from quatsphere import DiscreteMeasure, calibrate_bank, cli, gen_subsphere, gen_uniform, verification
from quatsphere.cli import (
    RunConfig,
    UsageError,
    load_config_file,
    load_measure,
    main,
    resolve_measure,
)
from quatsphere.diffops import DegenerateProbesError
from quatsphere.zonal_kernel import index_range, raw_kernel_values

DATA = Path(__file__).parent / "data"
FAST = ["--n", "2", "--h-max", "3", "--seed", "5"]
VERIFY_FAST = [*FAST, "--mc-samples", "20000"]

# every command's options, as its --help lists them (--help and --config aside)
OPTIONS = {
    "verify": ["--n", "--h-max", "--epsilon", "--mc-samples", "--seed", "--fd-step", "--out"],
    "spectrum": ["--n", "--h-max", "--epsilon", "--probes", "--seed", "--atoms", "--out"],
    "multiplier": ["--n", "--h-max", "--epsilon", "--probes", "--seed", "--atoms", "--out"],
    "dimension": ["--n", "--seed", "--atoms", "--out"],
    "report": ["--n", "--h-max", "--epsilon", "--probes", "--seed", "--atoms", "--out"],
}
ALL_OPTIONS = ["--n", "--h-max", "--epsilon", "--mc-samples", "--probes", "--seed", "--fd-step", "--atoms", "--out"]
UNREAD = [(cmd, flag) for cmd, flags in OPTIONS.items() for flag in ALL_OPTIONS if flag not in flags]


def save_measure(measure, path):
    """Write a measure in the file format load_measure reads: a "# n=<n>" header, then one atom per line."""
    with open(path, "w") as fh:
        fh.write(f"# n={measure.n}\n")
        for row, w in zip(measure.points, measure.weights):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(w)!r}\n")


def command_argv(command: str) -> list[str]:
    return [command] if command == "verify" else [command, "point"]


def passing_verify_summary(n: int) -> dict:
    """The whole summary `verify --n <n> --h-max 6 --seed 3` writes, every detail string included."""
    return {
        "all_passed": True,
        "checks": [
            {"detail": "max deviation 0.000e+00 over h<=100, n<=5", "name": "l1_l2_identity", "passed": True},
            {"detail": "cutoff value/support/homogeneity/smoothness ok", "name": "psi_properties", "passed": True},
            {"detail": "converges to 1/2 inside the cutoff plateau", "name": "cone_gap_convergence", "passed": True},
            {"detail": "all eigenvalues within tolerance", "name": "eigencheck", "passed": True},
            {"detail": "Gram matrix of the 16 kernels with h <= 6 is diag(dim) by an exact Gauss rule",
             "name": "orthogonality", "passed": True},
            {"detail": "10 equal-index products reproduce K within 4 stderr", "name": "idempotency", "passed": True},
        ],
        "params": {"epsilon": 0.1, "fd_step": 0.01, "h_max": 6, "mc_samples": 200000, "n": n, "seed": 3},
    }


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.n == 2 and 0 < cfg.epsilon < 0.5

    def test_validation(self):
        with pytest.raises(UsageError):
            RunConfig(n=1)
        with pytest.raises(UsageError):
            RunConfig(epsilon=0.5)
        for field, value, message in (
            ("h_max", -1, "h_max must be non-negative, got -1"),
            ("seed", -1, "seed must be non-negative, got -1"),
            ("mc_samples", 1, "mc_samples must be at least 2, got 1"),
            ("atoms", 0, "atoms must be positive, got 0"),
            ("n", 1, "n must be at least 2, got 1"),
        ):
            with pytest.raises(UsageError, match=f"^{message}$"):
                RunConfig(**{field: value})
        assert RunConfig(h_max=0, seed=0).h_max == 0
        for probes in (0, -3):
            with pytest.raises(UsageError, match=f"probes must be positive, got {probes}"):
                RunConfig(probes=probes)

    def test_config_file_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nn=3\nepsilon=0.2\noutput_path=other.json\n")
        cfg = load_config_file(str(p), "verify")
        assert cfg == {"n": 3, "epsilon": 0.2, "output_path": "other.json"}

    def test_config_file_errors(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("nonsense\n")
        with pytest.raises(UsageError):
            load_config_file(str(p), "verify")
        p.write_text("unknown_key=3\n")
        with pytest.raises(UsageError):
            load_config_file(str(p), "verify")
        p.write_text("cache_path=c.json\n")
        with pytest.raises(UsageError, match="unknown key 'cache_path'"):
            load_config_file(str(p), "verify")


class TestMeasureFiles:
    def test_roundtrip(self, tmp_path):
        mu = gen_uniform(2, 17, seed=3)
        path = tmp_path / "mu.txt"
        save_measure(mu, path)
        back = load_measure(path)
        assert back.natoms == 17
        assert np.allclose(back.points, mu.points)
        assert np.allclose(back.weights, mu.weights)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1,0,0,0,0,0,0,0,1.0\n")
        with pytest.raises(UsageError, match=":1"):
            load_measure(p)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_header_n_below_2_reports_line_1(self, tmp_path, n):
        p = tmp_path / "m.txt"
        p.write_text(f"# n={n}\n1,0,0,0,1.0\n")
        with pytest.raises(UsageError, match=f"^{re.escape(str(p))}:1: n must be at least 2, got {n}$"):
            load_measure(p)

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# n=2\n1,0,0,0,0,0,0,0,1.0\n1,0,oops,0,0,0,0,0,1.0\n")
        with pytest.raises(UsageError, match=":3"):
            load_measure(p)

    def test_wrong_width_reports_number(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# n=2\n1,0,0,0,1.0\n")
        with pytest.raises(UsageError, match=":2"):
            load_measure(p)

    def test_renormalization_warning(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("# n=2\n1.001,0,0,0,0,0,0,0,1.0\n")
        mu = load_measure(p)
        assert abs(np.linalg.norm(mu.points[0]) - 1.0) <= 1e-12
        assert "renormalized" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_number(self, tmp_path, capsys, bad):
        p = tmp_path / "m.txt"
        p.write_text(f"# n=2\n1,0,0,0,0,0,0,0,1.0\n2,0,0,0,0,0,0,0,1.0\n1,0,{bad},0,0,0,0,0,1.0\n")
        with pytest.raises(UsageError, match=f"^{re.escape(str(p))}:4: values must be finite$"):
            load_measure(p)
        p.write_text(f"# n=2\n1,0,0,0,0,0,0,0,{bad}\n")
        with pytest.raises(UsageError, match=f"^{re.escape(str(p))}:2: values must be finite$"):
            load_measure(p)
        assert capsys.readouterr().err == ""

    def test_zero_atom_reports_number(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text("# n=2\n2,0,0,0,0,0,0,0,1.0\n0,0,0,0,0,-0.0,0,0,1.0\n")
        with pytest.raises(UsageError, match=f"^{re.escape(str(p))}:3: atom is the zero vector$"):
            load_measure(p)
        assert capsys.readouterr().err == ""


class TestFixtures:
    def test_names(self):
        cfg = RunConfig(atoms=200, seed=1)
        assert resolve_measure("uniform", cfg).natoms == 200
        assert resolve_measure("point", cfg).natoms == 1
        assert resolve_measure("sp1-orbit", cfg).natoms == 200
        assert resolve_measure("subsphere:1", cfg).name == "subsphere:1"
        with pytest.raises(UsageError):
            resolve_measure("subsphere:x", cfg)
        with pytest.raises(UsageError):
            resolve_measure("no-such-thing", cfg)


class TestCommands:
    def test_verify_ok_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(["verify", *VERIFY_FAST, "--out", str(out1)]) == 0
        assert main(["verify", *VERIFY_FAST, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(out1.read_text())
        assert summary["all_passed"]
        assert {c["name"] for c in summary["checks"]} == {
            "l1_l2_identity",
            "psi_properties",
            "cone_gap_convergence",
            "eigencheck",
            "orthogonality",
            "idempotency",
        }

    @pytest.mark.parametrize("n", [2, 3])
    def test_verify_summary_is_pinned(self, tmp_path, n):
        # byte for byte: any change to the passing output of verify fails here
        out = tmp_path / "v.json"
        args = ["--n", str(n), "--h-max", "6", "--seed", "3"]
        assert main(["verify", *args, "--out", str(out)]) == 0
        assert out.read_text() == json.dumps(passing_verify_summary(n), sort_keys=True, indent=2) + "\n"

    def test_verify_writes_only_its_out_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", *VERIFY_FAST, "--out", "v.json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["v.json"]

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["spectrum", "uniform", "--n", "2", "--h-max", "6", "--atoms", "2000", "--seed", "1"],
             ["spectrum_uniform.csv", "spectrum_uniform.json"]),
            (["multiplier", "point", "--n", "2", "--h-max", "8", "--seed", "1"], ["multiplier_point.json"]),
            (["report", "subsphere:1", "--n", "2", "--h-max", "6", "--atoms", "4000", "--seed", "1"],
             ["report_subsphere.json"]),
        ],
    )
    def test_outputs_are_pinned(self, tmp_path, argv, files):
        # byte for byte: any change to these seeded outputs fails here
        out = tmp_path / files[0].rsplit(".", 1)[0]
        assert main([*argv, "--out", str(out)]) == 0
        for name in files:
            assert (tmp_path / name).read_bytes() == (DATA / f"cli_{name}").read_bytes(), name

    def test_spectrum_runs_in_an_empty_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "uniform", *FAST, "--atoms", "500"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv", "spectrum.json"]

    def test_corrupted_constant_fails_idempotency(self, tmp_path, capsys, monkeypatch):
        def corrupted(n, h_max):
            bank = calibrate_bank(n, h_max)
            bank[(2, 1)] = dataclasses.replace(bank[(2, 1)], c=1.5 * bank[(2, 1)].c)
            return bank

        monkeypatch.setattr(cli, "calibrate_bank", corrupted)
        rc = main(["verify", *VERIFY_FAST, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert "idempotency" in capsys.readouterr().err

    def test_out_of_domain_step_is_rejected(self, tmp_path, capsys):
        # steps beyond the FD domain cannot silently degrade the eigencheck
        rc = main(["verify", *VERIFY_FAST, "--fd-step", "0.5", "--out", str(tmp_path / "v.json")])
        assert rc == 2
        assert "fd_step" in capsys.readouterr().err

    def test_verify_checks_orthogonality_up_to_h_max(self, tmp_path, capsys, monkeypatch):
        # all 36 indices with h <= 10 at n = 6, so a constant scaled at (10,5) fails
        out = tmp_path / "v.json"
        argv = ["verify", "--n", "6", "--h-max", "10", "--mc-samples", "2000", "--seed", "1", "--out", str(out)]

        def orthogonality():
            return next(c["detail"] for c in json.loads(out.read_text())["checks"] if c["name"] == "orthogonality")

        assert main(argv) == 0
        assert orthogonality() == "Gram matrix of the 36 kernels with h <= 10 is diag(dim) by an exact Gauss rule"

        def corrupted(n, h_max):
            bank = calibrate_bank(n, h_max)
            bank[(10, 5)] = dataclasses.replace(bank[(10, 5)], c=1.5 * bank[(10, 5)].c)
            return bank

        monkeypatch.setattr(cli, "calibrate_bank", corrupted)
        assert main(argv) == 1
        assert capsys.readouterr().err == "FAILED checks: orthogonality\n"
        [dim] = [idx.dimension for idx in index_range(6, 10) if (idx.h, idx.m) == (10, 5)]
        assert orthogonality() == f"(10,5): norm {2.25 * dim:.6g} vs dimension {dim}"

    def test_verify_at_h_max_0_names_the_cause(self, tmp_path, capsys):
        # (0, 0) is the only index, so no distinct pair can be drawn
        rc = main(["verify", "--n", "2", "--h-max", "0", "--seed", "1", "--out", str(tmp_path / "v.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: orthogonality needs two distinct indices, but h_max 0 gives only (0,0)\n"
        assert not (tmp_path / "v.json").exists()

    def test_spectrum_uniform(self, tmp_path):
        out = tmp_path / "scan"
        rc = main(["spectrum", "uniform", *FAST, "--atoms", "5000", "--out", str(out)])
        assert rc == 0
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "h,m,in_cone,norm_sq,mc_stderr,flagged_nonzero"
        flagged = [r for r in rows[1:] if r.endswith(",1")]
        assert len(flagged) == 1 and flagged[0].startswith("0,0,")
        blob = json.loads((tmp_path / "scan.json").read_text())
        assert len(blob["entries"]) == 6

    def test_spectrum_on_measure_file(self, tmp_path):
        mu = gen_subsphere(2, 1, 4000, seed=6)
        mfile = tmp_path / "sub.txt"
        save_measure(mu, mfile)
        rc = main(["spectrum", str(mfile), *FAST, "--out", str(tmp_path / "s2")])
        assert rc == 0
        blob = json.loads((tmp_path / "s2.json").read_text())
        flagged = [(e["h"], e["m"]) for e in blob["entries"] if e["flagged_nonzero"]]
        assert (2, 1) in flagged

    @pytest.mark.parametrize("command", ["spectrum", "multiplier", "report", "dimension"])
    def test_measure_file_of_another_n_is_usage_error(self, tmp_path, capsys, command):
        mfile = tmp_path / "m2.txt"
        save_measure(gen_uniform(2, 50, seed=3), mfile)
        rc = main([command, str(mfile), "--n", "3", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: measure has n=2 but config says n=3\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m2.txt"]

    def test_dimension_fixture(self, tmp_path):
        out = tmp_path / "dim"
        rc = main(["dimension", "sp1-orbit", "--n", "2", "--seed", "5",
                   "--atoms", "30000", "--out", str(out)])
        assert rc == 0
        est = json.loads((tmp_path / "dim.json").read_text())
        assert abs(est["s_hat"] - 3.0) <= 0.4
        fit_rows = (tmp_path / "dim.csv").read_text().splitlines()
        assert fit_rows[0] == "r,C"
        assert len(fit_rows) > 3

    @pytest.mark.parametrize("command", ["dimension", "report"])
    def test_measure_file_of_duplicated_atoms(self, tmp_path, command):
        # every atom twice: the median nearest-neighbour distance is 0, and the fit window
        # starts at r_hi / 16
        pts = gen_uniform(2, 300, seed=3).points
        mfile = tmp_path / "twice.txt"
        save_measure(DiscreteMeasure(np.concatenate([pts, pts]), np.full(600, 1.0 / 600)), mfile)
        argv = ["--n", "2", "--seed", "5"] if command == "dimension" else FAST
        rc = main([command, str(mfile), *argv, "--out", str(tmp_path / "out")])
        assert rc == 0
        blob = json.loads((tmp_path / "out.json").read_text())
        est = blob if command == "dimension" else blob["dim_estimate"]
        assert not est["degenerate"]
        assert est["r_min"] == est["r_max"] / 16.0 > 0.0

    def test_report_point_mass(self, tmp_path):
        base = ["--n", "2", "--h-max", "6", "--seed", "5"]
        rc = main(["report", "point", *base, "--out", str(tmp_path / "rep")])
        assert rc == 0
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["cone_condition_plausible"] is False
        assert blob["consistent"] is True

    @pytest.mark.parametrize("command", ["dimension", "report"])
    def test_degenerate_estimate(self, tmp_path, capsys, command):
        # 50 uniform atoms leave too few nonzero bins to fit: no estimate is printed, and
        # the report stays consistent
        argv = ["--n", "2"] if command == "dimension" else ["--n", "2", "--h-max", "8"]
        rc = main([command, "uniform", *argv, "--atoms", "50", "--out", str(tmp_path / "out")])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        blob = json.loads((tmp_path / "out.json").read_text())
        if command == "dimension":
            assert blob["degenerate"]
            assert line == "dimension estimate degenerate (residual 0.000)"
        else:
            assert blob["dim_estimate"]["degenerate"] and blob["cone_condition_plausible"]
            assert blob["consistent"] is True
            assert line == "cone condition plausible: True; dim estimate degenerate vs bound 4.0; consistent: True"

    def test_multiplier_outputs(self, tmp_path):
        rc = main(["multiplier", "point", *FAST, "--out", str(tmp_path / "mult")])
        assert rc == 0
        blob = json.loads((tmp_path / "mult.json").read_text())
        assert "last_shell_magnitude" in blob and len(blob["values"]) == 64

    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # one Monte Carlo sample has no variance, and the run says so before any check starts
        monkeypatch.setattr(verification, "check_l1_l2", lambda: pytest.fail("a check ran"))
        rc = main(["verify", "--n", "2", "--h-max", "1", "--mc-samples", "1", "--out", str(tmp_path / "v.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: mc_samples must be at least 2, got 1\n"
        assert not (tmp_path / "v.json").exists()

    def test_calibrate_gives_exact_dimensions(self):
        # the Monte Carlo fit this replaced could not fit (6, 0) at 1e4 samples
        bank = calibrate_bank(2, 12)
        assert len(bank) == len(index_range(2, 12))
        for idx in index_range(2, 12):
            diag = bank[(idx.h, idx.m)].c * float(raw_kernel_values(idx, 1.0, 1.0))
            assert diag == pytest.approx(idx.dimension, rel=1e-12), idx

    def test_degenerate_probes_are_check_failure(self, tmp_path, capsys, monkeypatch):
        def degenerate(ck, *args, **kwargs):
            raise DegenerateProbesError(f"no probe with |f| above 0.1*max for {ck.index}")

        monkeypatch.setattr(verification, "eigencheck", degenerate)
        rc = main(["verify", *VERIFY_FAST, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert "error: no probe with |f| above 0.1*max for KernelIndex(h=0, m=0, n=2)" in capsys.readouterr().err

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the fixture generator raises as np.empty does for --atoms 1000000000000, so nothing is allocated
        message = "Unable to allocate 29.8 TiB for an array with shape (1000000000000, 8) and data type float64"

        def too_large(n, count, seed):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "gen_uniform", too_large)
        rc = main(["spectrum", "uniform", "--n", "2", "--atoms", "1000000000000", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: not enough memory: {message}\n"

    def test_bad_subsphere_k_is_usage_error(self, tmp_path):
        rc = main(["dimension", "subsphere:7", "--n", "2", "--atoms", "500",
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["spectrum", "dimension"])
    def test_overflowing_atom_norm_is_an_error(self, tmp_path, capsys, command):
        # each value is finite, but the atom's norm overflows: it must not be renormalized to the origin
        mfile = tmp_path / "m.txt"
        mfile.write_text("# n=2\n1,0,0,0,0,0,0,0,1\n1e308,1e308,0,0,0,0,0,0,1\n")
        with warnings.catch_warnings():
            # numpy's overflow warning would be a second line on stderr
            warnings.simplefilter("error")
            rc = main([command, str(mfile), "--n", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: the norm of atom 1 overflows to inf\n"

    def test_missing_measure_is_usage_error(self, tmp_path):
        rc = main(["spectrum", str(tmp_path / "absent.txt"), *FAST])
        assert rc == 2

    def test_removed_options_are_rejected(self):
        for argv in (["calibrate", "--n", "2"], ["verify", "--cache", "c.json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_config_file_plumbs_through(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\nh_max=2\nseed=5\natoms=300\n")
        rc = main(["spectrum", "uniform", "--config", str(cfgfile), "--out", str(tmp_path / "s")])
        assert rc == 0
        assert len(json.loads((tmp_path / "s.json").read_text())["entries"]) == 4


class TestCommandTable:
    def test_table_names_every_command(self):
        assert list(cli.COMMANDS) == list(OPTIONS)

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_is_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command_argv(command), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_config_key_is_rejected(self, tmp_path, command, flag, capsys):
        key = flag[2:].replace("-", "_")  # never --out, whose key is output_path: every command reads it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# unread below\n{key}=1\n")
        rc = main([*command_argv(command), "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfgfile}:2: {command} does not read key {key!r}\n"
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_exactly_the_options(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, flags=re.MULTILINE)
        assert listed == ["--help", "--config", *OPTIONS[command]]
