import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rislab
from rislab import to_csv
from rislab.cli import main
from rislab.experiments import counterexample2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_builtin_tuple_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "ce1", "--n", "4", "--concept", "pbv")
        assert code == 0
        assert "overall: PASS" in out

    def test_limit_tuple_fails_pbv_passes_relaxed(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "ce1_limit", "--concept", "pbv")
        assert code == 1
        assert "load_compatibility" in out
        code, out, _ = run(capsys, "check", "--problem", "ce1_limit", "--concept", "relaxed")
        assert code == 0

    def test_limit_state_fails_local(self, capsys):
        code, out, _ = run(capsys, "check", "--problem", "ce2_limit", "--concept", "local")
        assert code == 1
        assert "energy_inequality" in out

    def test_report_written(self, capsys, tmp_path):
        out_dir = str(tmp_path / "rep")
        code, _, _ = run(
            capsys, "check", "--problem", "ce2", "--n", "4", "--concept", "local",
            "--out", out_dir,
        )
        assert code == 0
        data = json.loads(open(os.path.join(out_dir, "report.json")).read())
        assert data["overall"] == "pass"

    def test_solution_csv_roundtrip(self, capsys, tmp_path):
        _, _, z_n = counterexample2(4)
        sol = tmp_path / "z.csv"
        to_csv(z_n, str(sol))
        code, out, _ = run(
            capsys, "check", "--problem", "ce2", "--n", "4",
            "--concept", "differential", "--solution", str(sol),
        )
        assert code == 0
        assert "inclusion" in out

    def test_zero_load_shortcut(self, capsys):
        code, out, _ = run(
            capsys, "check", "--load", "zero", "--concept", "local", "--solution", "zero"
        )
        assert code == 0

    def test_missing_inputs_give_config_error(self, capsys):
        code, _, err = run(capsys, "check", "--concept", "pbv")
        assert code == 2
        assert "error:" in err

    def test_tuple_dir_missing(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check", "--problem", "ce1", "--concept", "pbv",
            "--tuple-dir", str(tmp_path / "nope"),
        )
        assert code == 2


class TestSolve:
    def test_writes_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "solve")
        code, out, _ = run(
            capsys, "solve", "--problem", "ce1", "--n", "2",
            "--epsilon", "1e-2", "--step", "1e-3", "--out", out_dir,
        )
        assert code == 0
        for name in ("t_hat.csv", "z_hat.csv", "ell_hat.csv", "trajectory.csv", "report.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        assert "S = " in out

    def test_requires_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--problem", "ce1", "--epsilon", "1e-2"])


class TestConstruct:
    def test_builtin_state(self, capsys, tmp_path):
        out_dir = str(tmp_path / "cons")
        code, out, _ = run(
            capsys, "construct", "--problem", "ce2", "--n", "4", "--out", out_dir,
        )
        assert code == 0
        assert "S = 2.5" in out
        assert os.path.exists(os.path.join(out_dir, "t_hat.csv"))

    def test_rejects_non_local_state(self, capsys):
        code, _, err = run(capsys, "construct", "--problem", "ce2_limit")
        assert code == 2
        assert "error:" in err


class TestConfig:
    def test_json_problem(self, capsys, tmp_path):
        cfg = {
            "energy": {"A": [[1.0]], "f": {"kind": "linear", "b": [-1.0]}},
            "dissipation": {"kind": "scaled_norm", "alpha": 1.0},
            "load": "step",
            "z0": [0.0],
            "ell0": [0.0],
            "T": 2.0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "check", "--config", str(path), "--concept", "local",
            "--solution", "zero",
        )
        # the zero state under the step load is stable but not a local solution
        assert code in (0, 1)
        assert "local_stability" in out

    def test_bad_config_reports_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--config", str(path), "--concept", "pbv")
        assert code == 2
        assert "parse error" in err

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {"A": [[1.0]]}}))
        code, _, err = run(capsys, "check", "--config", str(path), "--concept", "pbv")
        assert code == 2
        assert "missing required field" in err


def ramp_config(**overrides) -> dict:
    cfg = {
        "energy": {"A": [[1.0]], "f": {"kind": "linear", "b": [-1.0]}},
        "dissipation": {"kind": "scaled_norm", "alpha": 1.0},
        "load": {"breakpoints": [0.0, 2.0], "values": [[0.0], [1.0]]},
        "z0": [0.0],
        "ell0": [0.0],
        "T": 2.0,
    }
    cfg.update(overrides)
    return cfg


class TestBadInput:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    def assert_one_line_error(self, code, err):
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_path_csv_without_rows(self, capsys, tmp_path):
        sol = tmp_path / "z.csv"
        sol.write_text("t,left_1,value_1,right_1\n")
        code, _, err = run(
            capsys, "check", "--problem", "ce2", "--concept", "local", "--solution", str(sol)
        )
        self.assert_one_line_error(code, err)
        assert "no data rows" in err

    def test_unsorted_breakpoints(self, capsys, tmp_path):
        sol = tmp_path / "z.csv"
        sol.write_text("t,left_1,value_1,right_1\n0,0,0,0\n2,1,1,1\n1,0,0,0\n")
        code, _, err = run(
            capsys, "check", "--problem", "ce2", "--concept", "local", "--solution", str(sol)
        )
        self.assert_one_line_error(code, err)
        assert "strictly increasing" in err

    @pytest.mark.parametrize("field", ["values", "z0"])
    def test_ragged_json_arrays(self, capsys, tmp_path, field):
        ragged = [[0.0], [1.0, 2.0]]
        if field == "values":
            cfg = ramp_config(load={"breakpoints": [0.0, 2.0], "values": ragged})
        else:
            cfg = ramp_config(z0=ragged)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(
            capsys, "check", "--config", str(path), "--concept", "local", "--solution", "zero"
        )
        self.assert_one_line_error(code, err)
        assert "rectangular array" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--epsilons", "abc"],
            ["sweep", "--epsilons", "nan"],
            ["sweep", "--epsilons", ","],
            ["sweep", "--step", "nan"],
            ["solve", "--problem", "ce1", "--epsilon", "1e-2", "--step", "nan"],
            ["solve", "--problem", "ce1", "--epsilon", "nan"],
            ["check", "--problem", "ce1", "--concept", "pbv", "--tol", "nan"],
        ],
        ids=["epsilons-abc", "epsilons-nan", "epsilons-empty", "sweep-step-nan",
             "solve-step-nan", "solve-epsilon-nan", "check-tol-nan"],
    )
    def test_bad_numeric_option(self, capsys, tmp_path, argv):
        if argv[0] == "solve":
            argv = [*argv, "--out", str(tmp_path / "solve")]
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, err)
        assert "finite and > 0" in err
        assert out == ""


class TestFamilies:
    def test_counterexample1_summary(self, capsys, tmp_path):
        out_dir = str(tmp_path / "ce1")
        code, out, _ = run(
            capsys, "counterexample1", "--ns", "2,4,8,16", "--out", out_dir
        )
        assert code == 0
        assert "load_compatibility" in out
        assert os.path.exists(os.path.join(out_dir, "counterexample1.csv"))

    def test_counterexample2_summary(self, capsys):
        code, out, _ = run(capsys, "counterexample2", "--ns", "2,4,8,16")
        assert code == 0
        assert "energy_inequality" in out

    def test_builtin_run_is_silent_on_stderr(self):
        # a fresh interpreter, so that no earlier test has already emitted a
        # one-time message
        src = os.path.dirname(os.path.dirname(rislab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "rislab.cli", "counterexample1", "--ns", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "n=" in proc.stdout
        assert proc.stderr == ""

    def test_bad_ns(self, capsys):
        code, _, err = run(capsys, "counterexample1", "--ns", "2,x")
        assert code == 2


class TestSweep:
    def test_sweep_csv(self, capsys, tmp_path):
        out_dir = str(tmp_path / "sweep")
        code, out, _ = run(
            capsys, "sweep", "--n", "2", "--epsilons", "1e-2,5e-3", "--out", out_dir,
        )
        assert code == 0
        assert out.count("eps=") == 2
        assert os.path.exists(os.path.join(out_dir, "sweep.csv"))
