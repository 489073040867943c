import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qsamp
from qsamp import UnknownCase, save_generator
from qsamp.cli import REPRODUCE_CASES, main, reproduce


@pytest.fixture
def golden_file(tmp_path, golden):
    path = tmp_path / "golden.json"
    save_generator(golden, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid(self, capsys, golden_file):
        code, out, _ = run(capsys, "validate", "--input", golden_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["n_states"] == 2
        assert payload["birth_death"] is True

    def test_row_sums_without_dense_matrix(self, capsys, tmp_path, monkeypatch):
        gen = qsamp.build_rho_chain(200, 0.9)
        path = tmp_path / "rho.json"
        save_generator(gen, path)

        def forbidden(self):
            raise AssertionError("k_matrix called")

        monkeypatch.setattr(qsamp.AbsorbingGenerator, "k_matrix", forbidden)
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_states"] == 200 and payload["birth_death"] is True
        assert payload["max_abs_row_sum"] <= 4 * np.finfo(float).eps * gen.max_rate

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n_states": 2,
            "transitions": [{"from": 1, "to": 2, "rate": 1.0}],
            "absorption": [{"state": 1, "rate": 1.0}],
        }))
        code, _, err = run(capsys, "validate", "--input", str(bad))
        assert code == 2
        assert "NonIrreducible" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", "--input", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert err.startswith("INVALID: InvalidParameter:") and "missing.json" in err

    @pytest.mark.parametrize("text, field", [
        (json.dumps({"n_states": 2, "transitions": [[1, 2, 1.0], [2, 1, 1.0]],
                     "absorption": [{"state": 1, "rate": 1.0}]}), "transitions"),
        (json.dumps({"transitions": [{"from": 1, "to": 2, "rate": 1.0},
                                     {"from": 2, "to": 1, "rate": 1.0}],
                     "absorption": [{"state": 1, "rate": 1.0}]}), "n_states"),
        (json.dumps([{"from": 1, "to": 2, "rate": 1.0}]), "object"),
        (json.dumps({"n_states": 2, "transitions": [{"from": 1, "to": 2, "rate": "1.0"},
                                                    {"from": 2, "to": 1, "rate": 1.0}],
                     "absorption": [{"state": 1, "rate": 1.0}]}), "'1.0'"),
        ('{"n_states": 2,', "not valid JSON"),
        (json.dumps({"n_states": 2, "transitions": [{"from": 1.5, "to": 2, "rate": 1.0},
                                                    {"from": 2, "to": 1, "rate": 1.0}],
                     "absorption": [{"state": 1, "rate": 1.0}]}), "1.5"),
        (json.dumps({"n_states": 2, "transitions": [{"from": 1, "to": 2, "rate": 1.0},
                                                    {"from": 2, "to": "a", "rate": 1.0}],
                     "absorption": [{"state": 1, "rate": 1.0}]}), "'a'"),
        (json.dumps({"n_states": 2, "transitions": [{"from": 1, "to": 2, "rate": 1.0},
                                                    {"from": 2, "to": 1, "rate": 1.0}],
                     "absorption": [{"state": 1.0, "rate": 1.0}]}), "1.0"),
    ], ids=["list-transition", "no-n-states", "top-level-array", "string-rate", "truncated",
            "float-label", "string-label", "float-absorption-label"])
    def test_malformed_file(self, capsys, tmp_path, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, "validate", "--input", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("INVALID: InvalidParameter:") and field in err


class TestSpectrum:
    def test_fields(self, capsys, golden_file):
        code, out, _ = run(capsys, "spectrum", "--input", golden_file, "--full", "--minors")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda0"] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
        assert payload["amplitude"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert payload["lambda0_prime"] == pytest.approx(1.0)
        assert len(payload["phi"]) == 2 and len(payload["nu"]) == 2
        assert len(payload["eigenvalues"]) == 2
        assert payload["minor_spectra"]["1"] == pytest.approx([1.0])

    def test_missing_input_is_an_invalid_parameter(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--input", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter:") and "Traceback" not in err

    def test_non_reversible_input(self, capsys, tmp_path):
        # lambda0, phi and nu exist for any chain; full spectra and the
        # spectral bound are for reversible chains only
        path = tmp_path / "cycle.json"
        save_generator(qsamp.build_general(3, [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
                                               (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)], {1: 0.5}),
                       path)
        code, out, _ = run(capsys, "spectrum", "--input", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda0"] > 0 and len(payload["phi"]) == 3 and len(payload["nu"]) == 3
        for argv in (["spectrum", "--full"], ["spectrum", "--minors"],
                     ["bounds", "--method", "spectral"]):
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: NotReversible:") and "Traceback" not in err

    def test_replay_determinism(self, capsys, golden_file):
        _, out1, _ = run(capsys, "spectrum", "--input", golden_file, "--full")
        _, out2, _ = run(capsys, "spectrum", "--input", golden_file, "--full")
        assert out1 == out2


class TestBounds:
    @pytest.mark.parametrize("method", ["path", "spectral", "graph", "exact-bd"])
    def test_methods(self, capsys, golden_file, method):
        code, out, _ = run(capsys, "bounds", "--input", golden_file, "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] >= payload["amplitude"] - 1e-9

    def test_geodesic_paths(self, capsys, golden_file):
        code, out, _ = run(capsys, "bounds", "--input", golden_file,
                           "--method", "path", "--paths", "geodesic")
        assert code == 0
        assert json.loads(out)["paths"]["1->2"] == [1, 2]

    def test_spectral_bound_with_eigh_lambda0_below_zero_exits_2(self, capsys, tmp_path):
        # eigh's lambda0 of this chain is -8.8e-16: the command printed a
        # bound of 0.0015 for an amplitude of 2 and exited 0
        base = qsamp.build_rho_chain(60, 2.0)
        path = tmp_path / "chord.json"
        save_generator(qsamp.build_general(60, [*base.transitions, (20, 22, 1.0), (22, 20, 0.25)],
                                           base.absorption), path)
        code, out, err = run(capsys, "bounds", "--input", str(path), "--method", "spectral")
        assert code == 2 and out == ""
        assert err.startswith("error: DegenerateGap:") and "Traceback" not in err


class TestSimulate:
    def test_estimate(self, capsys, golden_file):
        code, out, _ = run(capsys, "--seed", "9", "simulate", "--input", golden_file,
                           "--from", "2", "--to", "1", "--samples", "20000")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["deviation_sigmas"]) <= 4.0
        assert payload["n_samples"] == 20000

    @pytest.mark.parametrize("states", [("2", "5"), ("0", "1")])
    def test_state_out_of_range_is_an_invalid_parameter(self, capsys, golden_file, states):
        code, out, err = run(capsys, "simulate", "--input", golden_file,
                             "--from", states[0], "--to", states[1], "--samples", "100")
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter:") and "out of range" in err

    def test_seed_changes_result(self, capsys, golden_file):
        _, out1, _ = run(capsys, "--seed", "1", "simulate", "--input", golden_file,
                         "--from", "2", "--to", "1", "--samples", "5000")
        _, out2, _ = run(capsys, "--seed", "2", "simulate", "--input", golden_file,
                         "--from", "2", "--to", "1", "--samples", "5000")
        assert json.loads(out1)["mean"] != json.loads(out2)["mean"]


class TestSandwich:
    def test_csv_is_default(self, capsys, golden_file):
        code, out, _ = run(capsys, "sandwich", "--input", golden_file,
                           "--mu0", "delta:2", "--times", "0.1,1,5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,dist_conditioned,dist_doob,lower,upper"
        assert len(lines) == 4
        for line in lines[1:]:
            t, cond, doob, lo, hi = (float(v) for v in line.split(","))
            assert lo - 1e-9 <= cond <= hi + 1e-9

    def test_json_rows(self, capsys, golden_file):
        code, out, _ = run(capsys, "--format", "json", "sandwich", "--input", golden_file,
                           "--mu0", "uniform", "--times", "1.0")
        payload = json.loads(out)
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize("mu0", ["delta:0", "delta:-1", "delta:5", "abc", "0,0", "1,-1"])
    def test_bad_mu0_is_an_invalid_parameter(self, capsys, golden_file, mu0):
        # delta:0 and delta:-1 would index from the end, and 0,0 and 1,-1
        # have a zero sum to divide by
        code, out, err = run(capsys, "sandwich", "--input", golden_file,
                             "--mu0", mu0, "--times", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter:") and mu0 in err

    @pytest.mark.parametrize("times", ["1,2000", "nan", "inf"])
    def test_times_without_a_law_are_an_invalid_parameter(self, capsys, golden_file, times):
        # the survival mass is 0 at t = 2000, so there is no law to condition
        code, out, err = run(capsys, "sandwich", "--input", golden_file,
                             "--mu0", "delta:2", "--times", times)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter:")


class TestBd:
    def test_entrance(self, capsys):
        code, out, _ = run(capsys, "bd", "entrance", "--rates", "poisson",
                           "--cutoff", "2000")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_series_converges"] == "no"
        assert payload["entrance_boundary"] is False

    def test_converge(self, capsys):
        code, out, _ = run(capsys, "bd", "converge", "--rates", "poisson-accelerated",
                           "--nmax", "2", "--tol", "1e-8", "--max-log2", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["monotone"] is True
        assert len(payload["ns"]) == 4

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bd", "bound", "--rates", "poisson-accelerated",
                           "--nmax", "3", "--tol", "1e-8", "--max-log2", "9",
                           "--tail-estimate-at", "512")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] > max(payload["truncation_amplitudes"])
        assert payload["tail_certified"] is False

    @pytest.mark.parametrize("tail", ["nan", "inf", "-1"])
    def test_bound_rejects_a_tail_bound_that_is_not_finite_and_nonnegative(self, capsys, tail):
        code, out, err = run(capsys, "bd", "bound", "--rates", "poisson-accelerated",
                             "--nmax", "3", "--tol", "1e-8", "--max-log2", "8",
                             "--tail-bound", tail)
        assert code == 2
        assert out == ""
        assert "InvalidParameter" in err

    @pytest.mark.parametrize("command", ["entrance", "converge"])
    def test_family_with_an_infinite_rate_exits_2(self, capsys, tmp_path, command):
        # b_1 = 1/0: once NaN partial sums on entrance, a raw ValueError on converge
        spec = tmp_path / "rates.json"
        spec.write_text(json.dumps({"b": "1/(n-1)", "d": "n"}))
        code, out, err = run(capsys, "bd", command, "--rates", str(spec))
        assert code == 2
        assert out == ""
        assert f"InvalidParameter: family '{spec}' produced a NaN or infinite rate" in err


    @pytest.mark.parametrize("rates", ["missing.json", "rho:abc"])
    def test_unreadable_rates_exit_2(self, capsys, tmp_path, rates):
        spec = str(tmp_path / rates) if rates.endswith(".json") else rates
        code, out, err = run(capsys, "bd", "entrance", "--rates", spec)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidParameter:") and "Traceback" not in err

    def test_nan_tolerance_is_an_invalid_parameter(self, capsys):
        # a NaN tol once ran the whole schedule and reported NotConverged
        code, out, err = run(capsys, "bd", "converge", "--rates", "poisson", "--tol", "nan")
        assert code == 2 and out == ""
        assert err == "error: InvalidParameter: tol nan is not a finite number\n"


class TestReproduce:
    def test_golden_case_cli(self, capsys):
        code, out, _ = run(capsys, "reproduce", "golden-ratio")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            reproduce("not-a-case")

    def test_unknown_case_cli_usage_error(self, capsys):
        code = main(["reproduce", "not-a-case"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("case", REPRODUCE_CASES)
    def test_fast_cases(self, case):
        result = reproduce(case)
        assert result["all_pass"], result


def test_out_file(tmp_path, capsys, golden_file):
    target = tmp_path / "report.json"
    code = main(["spectrum", "--input", golden_file, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["lambda0"] > 0


def test_out_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, "--out", str(target), "reproduce", "golden-ratio")
    assert code == 2
    assert out == ""
    assert err == (f"error: InvalidParameter: --out {target} cannot be written: "
                   "No such file or directory\n")


def test_module_entry_point_starts_without_warnings():
    # importing the package must not import qsamp.cli ahead of runpy
    src = os.path.dirname(os.path.dirname(qsamp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "qsamp.cli", "--help"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_exact_amplitude_runs_without_mpmath():
    # the oracle's multi-precision arithmetic is the standard decimal module
    src = os.path.dirname(os.path.dirname(qsamp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, qsamp; "
            "qsamp.exact_bd_amplitude(qsamp.build_rho_chain(20, 1.0)); "
            "print('mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_special_out():
    # the Monte Carlo log-sum-exps are numpy; scipy.special costs import time
    src = os.path.dirname(os.path.dirname(qsamp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qsamp; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
