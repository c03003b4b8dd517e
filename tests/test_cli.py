import json

import numpy as np
import pytest

from quatsphere import gen_subsphere, gen_uniform
from quatsphere.cli import (
    RunConfig,
    UsageError,
    load_config_file,
    load_measure,
    main,
    resolve_measure,
    save_measure,
)

FAST = ["--n", "2", "--h-max", "3", "--mc-samples", "20000", "--seed", "5"]


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.n == 2 and 0 < cfg.epsilon < 0.5

    def test_validation(self):
        with pytest.raises(UsageError):
            RunConfig(n=1)
        with pytest.raises(UsageError):
            RunConfig(epsilon=0.5)

    def test_config_file_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nn=3\nepsilon=0.2\ncache_path=other.json\n")
        cfg = load_config_file(str(p))
        assert cfg == {"n": 3, "epsilon": 0.2, "cache_path": "other.json"}

    def test_config_file_errors(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("nonsense\n")
        with pytest.raises(UsageError):
            load_config_file(str(p))
        p.write_text("unknown_key=3\n")
        with pytest.raises(UsageError):
            load_config_file(str(p))


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
    def test_calibrate_cache_byte_identical(self, tmp_path):
        cache = tmp_path / "cache.json"
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        first = cache.read_bytes()
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        assert cache.read_bytes() == first
        # 2m <= h <= 3 has 6 indices
        assert len(json.loads(first)) == 6

    def test_verify_ok_and_deterministic(self, tmp_path):
        cache = tmp_path / "cache.json"
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main(["verify", *FAST, "--cache", str(cache), "--out", str(out1)]) == 0
        assert main(["verify", *FAST, "--cache", str(cache), "--out", str(out2)]) == 0
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

    def test_corrupted_cache_fails_idempotency(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        blob = json.loads(cache.read_text())
        blob["2/2/1"]["c"] *= 1.5
        cache.write_text(json.dumps(blob))
        rc = main(["verify", *FAST, "--cache", str(cache), "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert "idempotency" in capsys.readouterr().err

    def test_out_of_domain_step_is_rejected(self, tmp_path, capsys):
        # steps beyond the FD domain cannot silently degrade the eigencheck
        cache = tmp_path / "cache.json"
        rc = main(["verify", *FAST, "--cache", str(cache), "--fd-step", "0.5",
                   "--out", str(tmp_path / "v.json")])
        assert rc == 2
        assert "fd_step" in capsys.readouterr().err

    def test_spectrum_uniform(self, tmp_path):
        cache = tmp_path / "cache.json"
        out = tmp_path / "scan"
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        rc = main(["spectrum", "uniform", *FAST, "--atoms", "5000",
                   "--cache", str(cache), "--out", str(out)])
        assert rc == 0
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "h,m,in_cone,norm_sq,mc_stderr,flagged_nonzero"
        flagged = [r for r in rows[1:] if r.endswith(",1")]
        assert len(flagged) == 1 and flagged[0].startswith("0,0,")
        blob = json.loads((tmp_path / "scan.json").read_text())
        assert len(blob["entries"]) == 6

    def test_spectrum_on_measure_file(self, tmp_path):
        cache = tmp_path / "cache.json"
        mu = gen_subsphere(2, 1, 4000, seed=6)
        mfile = tmp_path / "sub.txt"
        save_measure(mu, mfile)
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        rc = main(["spectrum", str(mfile), *FAST, "--cache", str(cache),
                   "--out", str(tmp_path / "s2")])
        assert rc == 0
        blob = json.loads((tmp_path / "s2.json").read_text())
        flagged = [(e["h"], e["m"]) for e in blob["entries"] if e["flagged_nonzero"]]
        assert (2, 1) in flagged

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

    def test_report_point_mass(self, tmp_path):
        cache = tmp_path / "cache.json"
        base = ["--n", "2", "--h-max", "6", "--mc-samples", "50000", "--seed", "5"]
        assert main(["calibrate", *base, "--cache", str(cache)]) == 0
        rc = main(["report", "point", *base,
                   "--cache", str(cache), "--out", str(tmp_path / "rep")])
        assert rc == 0
        blob = json.loads((tmp_path / "rep.json").read_text())
        assert blob["cone_condition_plausible"] is False
        assert blob["consistent"] is True

    def test_multiplier_outputs(self, tmp_path):
        cache = tmp_path / "cache.json"
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        rc = main(["multiplier", "point", *FAST, "--cache", str(cache),
                   "--out", str(tmp_path / "mult")])
        assert rc == 0
        blob = json.loads((tmp_path / "mult.json").read_text())
        assert "last_shell_magnitude" in blob and len(blob["values"]) == 64

    def test_missing_cache_instructs_calibrate(self, tmp_path, capsys):
        rc = main(["spectrum", "uniform", *FAST, "--atoms", "500",
                   "--cache", str(tmp_path / "none.json"), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "calibrate" in capsys.readouterr().err

    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys):
        # calibrate() rejects fewer than 1e4 samples with a ValueError
        rc = main(["calibrate", "--n", "2", "--h-max", "1", "--mc-samples", "100",
                   "--cache", str(tmp_path / "c.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: calibration needs")

    def test_failed_calibration_is_check_failure(self, tmp_path, capsys):
        # at 1e4 samples and seed 1 the (6, 0) kernel finds too few probe pairs
        rc = main(["calibrate", "--n", "2", "--h-max", "6", "--mc-samples", "10000", "--seed", "1",
                   "--cache", str(tmp_path / "c.json")])
        assert rc == 1
        assert "error: KernelIndex(h=6, m=0, n=2)" in capsys.readouterr().err

    def test_unusable_kernel_is_check_failure(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        assert main(["calibrate", *FAST, "--cache", str(cache)]) == 0
        blob = json.loads(cache.read_text())
        blob["2/2/1"]["spread"] = 0.5
        cache.write_text(json.dumps(blob))
        rc = main(["spectrum", "uniform", *FAST, "--atoms", "500",
                   "--cache", str(cache), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "error: kernel KernelIndex(h=2, m=1, n=2) flagged unusable" in capsys.readouterr().err

    def test_bad_subsphere_k_is_usage_error(self, tmp_path):
        rc = main(["dimension", "subsphere:7", "--n", "2", "--atoms", "500",
                   "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_missing_measure_is_usage_error(self, tmp_path):
        rc = main(["spectrum", str(tmp_path / "absent.txt"), *FAST,
                   "--cache", str(tmp_path / "c.json")])
        assert rc == 2

    def test_config_file_plumbs_through(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=2\nh_max=2\nmc_samples=20000\nseed=5\n")
        cache = tmp_path / "cache.json"
        rc = main(["calibrate", "--config", str(cfgfile), "--cache", str(cache)])
        assert rc == 0
        assert len(json.loads(cache.read_text())) == 4
