import json
import os
from pathlib import Path

import numpy as np
import pytest

from masbound import config as cfg
from masbound import exact_t_star_forced
from masbound.cli import main
from masbound.montecarlo import random_stable_system, system_seed


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(
        json.dumps(
            {
                "A": [[0.5]],
                "B": [[1.0]],
                "C": [[1.0]],
                "y_lower": [1.0],
                "y_upper": [1.0],
            }
        )
    )
    return str(path)


@pytest.fixture
def asym_file(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(
        json.dumps(
            {"A": [[-0.9]], "C": [[1.0]], "y_lower": [0.1], "y_upper": [1.0]}
        )
    )
    return str(path)


DATA = Path(__file__).parent / "data"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBound:
    def test_both_methods_scalar(self, capsys, scalar_file):
        code, report = run_json(capsys, ["bound", scalar_file, "--method", "both"])
        assert code == 0
        assert report["m1"] == 0 and report["m2"] == 0
        assert report["regime"] == "unforced"
        assert "sigma" in report and "r1" in report and "r2" in report

    def test_power_series_only(self, capsys, scalar_file):
        code, report = run_json(capsys, ["bound", scalar_file, "--method", "power-series"])
        assert code == 0
        assert "m1" in report and "m2" not in report

    def test_forced_requires_epsilon(self, scalar_file, capsys):
        assert main(["bound", scalar_file, "--forced"]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_forced_with_epsilon(self, capsys, scalar_file):
        code, report = run_json(
            capsys, ["bound", scalar_file, "--forced", "--epsilon", "0.1"]
        )
        assert code == 0
        assert report["m1"] == 4  # frozen from the power-series unit suite
        assert report["epsilon"] == 0.1

    def test_epsilon_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "A": [[0.5]],
                    "B": [[1.0]],
                    "C": [[1.0]],
                    "y_lower": [1.0],
                    "y_upper": [1.0],
                    "epsilon": 0.1,
                }
            )
        )
        code, report = run_json(capsys, ["bound", str(path), "--forced"])
        assert code == 0 and report["m1"] == 4

    def test_missing_file(self, capsys):
        assert main(["bound", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "boolean"])
    def test_non_number_entry_exits_one(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"A": [[bad]], "C": [[1.0]], "y_lower": [1.0], "y_upper": [1.0]})
        )
        assert main(["bound", str(path)]) == 1
        assert "key 'A': entries must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["A", "y_upper", "epsilon"])
    def test_integer_too_large_for_a_float_exits_one(self, capsys, tmp_path, key):
        obj = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "y_lower": [1.0], "y_upper": [1.0], "epsilon": 0.1}
        obj[key] = 10**400 if key == "epsilon" else [[10**400]] if key == "A" else [10**400]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        assert main(["bound", str(path), "--forced"]) == 1
        assert f"key '{key}'" in capsys.readouterr().err

    def test_epsilon_underflow_is_numerical_failure(self, capsys, scalar_file):
        argv = ["bound", scalar_file, "--method", "lyapunov", "--forced", "--epsilon", "1e-200"]
        assert main(argv) == 2
        assert "inscribed level 0.0 is not positive" in capsys.readouterr().err

    def test_invalid_json_names_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[0.5]], "C": [[1.0]], "y_lower": [1.0]}))
        assert main(["bound", str(path)]) == 1
        assert "y_upper" in capsys.readouterr().err


class TestExact:
    def test_scalar(self, capsys, scalar_file):
        code, report = run_json(capsys, ["exact", scalar_file])
        assert code == 0 and report["t_star"] == 0

    def test_asymmetric(self, capsys, asym_file):
        code, report = run_json(capsys, ["exact", asym_file])
        assert code == 0 and report["t_star"] == 1

    def test_polytope_roundtrip(self, capsys, asym_file, tmp_path):
        out = tmp_path / "mas.csv"
        code, report = run_json(capsys, ["exact", asym_file, "--emit-polytope", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")]
        G = np.array([[float(v) for v in r[:-1]] for r in rows])
        h = np.array([float(r[-1]) for r in rows])
        assert G.shape[0] == report["rows"]
        from masbound.geometry import Polytope, is_redundant

        for i in range(G.shape[0]):
            others = [j for j in range(G.shape[0]) if j != i]
            assert not is_redundant(G[i], h[i], Polytope(G[others], h[others]))

    @pytest.mark.parametrize(
        "flags, fixture",
        [([], "sym_box_polytope.csv"), (["--forced", "--epsilon", "0.1"], "sym_box_polytope_forced.csv")],
    )
    def test_symmetric_box_polytope_fixture(self, capsys, tmp_path, flags, fixture):
        # Recorded with one LP per row (no mirrored verdicts); the bytes must not move.
        out = tmp_path / "mas.csv"
        code, _ = run_json(capsys, ["exact", str(DATA / "sym_box.json"), *flags, "--emit-polytope", str(out)])
        assert code == 0
        assert out.read_bytes() == (DATA / fixture).read_bytes()

    def test_forced(self, capsys, scalar_file):
        code, report = run_json(
            capsys, ["exact", scalar_file, "--forced", "--epsilon", "0.5"]
        )
        assert code == 0
        assert report["regime"] == "forced" and report["epsilon"] == 0.5

    def test_unstable_rejected(self, capsys, tmp_path):
        path = tmp_path / "unstable.json"
        path.write_text(
            json.dumps({"A": [[1.5]], "C": [[1.0]], "y_lower": [1.0], "y_upper": [1.0]})
        )
        assert main(["exact", str(path)]) == 1


class TestMonteCarlo:
    def test_deterministic_outputs(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, summary_a = run_json(
            capsys, ["montecarlo", "--count", "2", "--seed", "7", "--out", str(out_a)]
        )
        assert code == 0
        code, summary_b = run_json(
            capsys, ["montecarlo", "--count", "2", "--seed", "7", "--out", str(out_b)]
        )
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert summary_a == summary_b

    def test_count_zero_usage_error(self, capsys, tmp_path):
        assert main(["montecarlo", "--count", "0", "--out", str(tmp_path / "x.csv")]) == 1

    def test_jobs_below_one_usage_error(self, capsys, tmp_path):
        for jobs in ("0", "-2"):
            out = tmp_path / "x.csv"
            assert main(["montecarlo", "--count", "1", "--jobs", jobs, "--out", str(out)]) == 1
            assert "--jobs must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_summary_is_json_with_contract_keys(self, capsys, tmp_path):
        code, summary = run_json(
            capsys,
            ["montecarlo", "--count", "1", "--seed", "3", "--out", str(tmp_path / "s.csv")],
        )
        assert code == 0
        assert "median_m1_gap" in summary and "count_capped" in summary


class TestSweep:
    def test_custom_system_and_grid(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"A": [[-0.8]], "C": [[1.0]], "y_lower": [1.0], "y_upper": [1.0]})
        )
        out = tmp_path / "sweep.csv"
        code, report = run_json(
            capsys,
            ["sweep-asymmetry", "--input", str(path), "--grid", "0.5:1.5:0.5", "--out", str(out)],
        )
        assert code == 0 and report["points"] == 3
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "y_l,t_star,m1,m2"
        assert len(lines) == 4
        for line in lines[1:]:
            y_l, t_star, m1, m2 = line.split(",")
            assert int(t_star) <= int(m1) <= int(m2)

    def test_bad_grid(self, capsys, tmp_path):
        assert main(["sweep-asymmetry", "--grid", "nope", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize(
        "grid", ["0.1:inf:0.1", "-inf:1:0.1", "0.1:1e300:1e-300", "0.1:1:inf", "nan:1:0.1", "0.1:1:nan"]
    )
    def test_non_finite_grid_exits_one(self, capsys, tmp_path, grid):
        out = tmp_path / "x.csv"
        assert main(["sweep-asymmetry", f"--grid={grid}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --grid needs a finite start, stop, step and point count, got {grid!r}\n"
        assert not out.exists()

    def test_grid_endpoint_inclusive(self, capsys, tmp_path):
        from masbound.cli import _parse_grid

        assert _parse_grid("0.1:2.0:0.1") == pytest.approx(
            [0.1 + 0.1 * i for i in range(20)]
        )
        assert _parse_grid("1.0:1.0:0.5") == [1.0]


class TestEnvTolerance:
    def test_env_override_applied(self, monkeypatch):
        monkeypatch.setenv(cfg.ENV_TOL_VAR, "1e-6")
        assert cfg.from_env() == 1e-6

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv(cfg.ENV_TOL_VAR, "banana")
        with pytest.raises(ValueError):
            cfg.from_env()

    def test_env_reaches_cli(self, monkeypatch, capsys, scalar_file):
        monkeypatch.setenv(cfg.ENV_TOL_VAR, "-1.0")
        assert main(["exact", scalar_file]) == 1

    @pytest.mark.parametrize("raw", ["0.2", "1e-5", "1e-13"])
    def test_env_out_of_range_rejected(self, monkeypatch, capsys, scalar_file, raw):
        # Above the range the forced exact index can drop (1e-5, 1e-4) or
        # fail with non-definitive LP statuses; below it HiGHS refuses the
        # tolerance.
        monkeypatch.setenv(cfg.ENV_TOL_VAR, raw)
        assert main(["exact", scalar_file]) == 1
        assert "[1e-10, 1e-06]" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e-10", "1e-6"])
    def test_env_range_ends_accepted(self, monkeypatch, capsys, scalar_file, raw):
        monkeypatch.setenv(cfg.ENV_TOL_VAR, raw)
        assert cfg.from_env() == float(raw)
        code, out = run_json(capsys, ["exact", scalar_file])
        assert code == 0 and out["t_star"] == 0

    @pytest.mark.parametrize("system_id, t_star", [(19, 41), (110, 17)])
    def test_range_top_keeps_forced_t_star(self, system_id, t_star):
        # At 1e-5 and 1e-4 these study systems lose one step of forced t*.
        sys, box = random_stable_system(system_seed(2026, system_id))
        for lp_tol in (cfg.LP_TOL, cfg.LP_TOL_RANGE[1]):
            assert exact_t_star_forced(sys, box, 0.01, lp_tol=lp_tol).t_star == t_star

    def test_montecarlo_uses_default_tolerances(self, monkeypatch, capsys, tmp_path):
        argv = ["montecarlo", "--count", "5", "--seed", "3", "--out"]
        monkeypatch.delenv(cfg.ENV_TOL_VAR, raising=False)
        code, default_summary = run_json(capsys, argv + [str(tmp_path / "default.csv")])
        assert code == 0
        monkeypatch.setenv(cfg.ENV_TOL_VAR, "0.2")
        code, summary = run_json(capsys, argv + [str(tmp_path / "env.csv")])
        assert code == 0
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
        assert summary == default_summary

    def test_unset_returns_defaults(self, monkeypatch):
        monkeypatch.delenv(cfg.ENV_TOL_VAR, raising=False)
        assert cfg.from_env() == cfg.LP_TOL


class TestUsage:
    def test_unknown_subcommand_exit_one(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-asymmetry", "--grid=--"],
            ["sweep-asymmetry", "--input=--"],
            ["sweep-asymmetry", "--out=--"],
            ["sweep-asymmetry", "--sigma-mode=--"],
            ["bound", "SCALAR", "--epsilon=--", "--forced"],
            ["bound", "SCALAR", "--method=--"],
            ["bound", "SCALAR", "--sigma-mode=--"],
            ["exact", "SCALAR", "--epsilon=--", "--forced"],
            ["exact", "SCALAR", "--emit-polytope=--"],
            ["montecarlo", "--count=--"],
            ["montecarlo", "--seed=--"],
            ["montecarlo", "--epsilon=--"],
            ["montecarlo", "--out=--"],
            ["montecarlo", "--jobs=--"],
        ],
    )
    def test_option_given_as_double_dash_exits_one(self, capsys, monkeypatch, tmp_path, scalar_file, argv):
        # Python 3.11's argparse reads `--option=--` as an empty list.
        monkeypatch.chdir(tmp_path)
        assert main([scalar_file if arg == "SCALAR" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert list(tmp_path.iterdir()) == [Path(scalar_file)]
