"""Command line dispatcher: wire formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from invspan import cli
from invspan.errors import DegenerateInputError
from invspan.monte_carlo_stats import load_sample_matrix

SCHEMA = json.loads(
    resources.files("invspan").joinpath("schemas/reports.schema.json").read_text()
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_verify_span_report(capsys):
    code, payload = run_json(capsys, ["verify-span", "--ell", "2"])
    assert code == 0
    assert payload["command"] == "verify-span"
    assert payload["n"] == 5
    assert payload["w_dim"] == 10
    assert payload["full"] is True
    assert payload["hypothesis_satisfied"] is True


def test_verify_span_rejects_trivial_weight(capsys):
    code, out = run_cli(capsys, ["verify-span", "--ell", "0"])
    assert code == 2
    assert out == ""


def test_decompose_report(capsys):
    code, payload = run_json(capsys, ["decompose", "--n", "5"])
    assert code == 0
    assert payload["standard_dim"] == 4
    assert payload["stabilizer_dim"] == 6


def test_character_report(capsys):
    code, payload = run_json(capsys, ["character", "--n", "4"])
    assert code == 0
    assert payload["v1"] == pytest.approx(1.0, abs=1e-12)
    assert payload["v2"] == pytest.approx(-1.0, abs=1e-12)


def test_block_check_report(capsys):
    code, payload = run_json(capsys, ["block-check", "--n", "4"])
    assert code == 0
    assert payload["passed"] is True


def test_simulate_field_report(capsys, tmp_path):
    out_path = str(tmp_path / "field.json")
    code, out = run_cli(
        capsys,
        ["simulate-field", "--lmax", "2", "--n", "50", "--seed", "5", "--out", out_path],
    )
    assert code == 0
    assert out == ""
    with open(out_path, "r", encoding="utf-8") as fh:
        written = json.load(fh)
    jsonschema.validate(written, SCHEMA)
    assert written["command"] == "simulate-field"
    assert len(written["spectrum"]) == 3
    assert written["coefficients_path"] == out_path + ".coefficients.csv"
    coeffs = load_sample_matrix(written["coefficients_path"])
    assert coeffs.rows.shape == (50, 9)


def test_simulate_field_stdout_matches_file(capsys, tmp_path):
    code, out = run_cli(capsys, ["simulate-field", "--lmax", "1", "--n", "20"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["coefficients_path"] is None


def test_simulate_field_csv(capsys, tmp_path):
    out_path = str(tmp_path / "rows.csv")
    code, out = run_cli(
        capsys,
        ["simulate-field", "--lmax", "1", "--n", "10", "--format", "csv", "--out", out_path],
    )
    assert code == 0
    assert out == ""
    assert load_sample_matrix(out_path).rows.shape == (10, 4)


def test_spectrum_estimate_report(capsys, tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("# input\n0 1.0\n1 0.5\n2 2.0\n")
    code, payload = run_json(
        capsys,
        ["spectrum-estimate", "--spectrum", str(spec_path), "--n", "400", "--seed", "6"],
    )
    assert code == 0
    assert payload["input_spectrum"] == [1.0, 0.5, 2.0]
    assert len(payload["estimated_spectrum"]) == 3
    assert len(payload["within_3se"]) == 3
    assert payload["max_offdiagonal_moment"] >= 0.0


def test_theorem2_pipeline(capsys):
    code, payload = run_json(
        capsys,
        ["test-theorem2", "--ell", "1", "--n", "300", "--permutations", "199", "--seed", "7"],
    )
    assert code == 0
    assert payload["all_passed"] is True
    assert set(payload["reports"]) == {
        "exchangeability",
        "rotational_invariance",
        "radial_angular_independence",
    }
    for report in payload["reports"].values():
        assert report["reject"] is False


def test_bernstein_pipeline(capsys):
    code, payload = run_json(
        capsys,
        ["test-bernstein", "--n", "800", "--d", "4", "--permutations", "199", "--seed", "3"],
    )
    assert code == 0
    assert payload["all_as_expected"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "chi_radial_marginal_gaussian",
        "lognormal_radial_marginal_nongaussian",
        "centered_exponential_not_invariant",
    ]
    assert [c["report"]["reject"] for c in payload["checks"]] == [False, True, True]


def test_orbit_walk_report(capsys):
    code, payload = run_json(capsys, ["orbit-walk", "--ell", "1", "--n", "500", "--seed", "2"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["include_odd_permutation"] is False


def test_orbit_walk_csv(capsys, tmp_path):
    out_path = str(tmp_path / "states.csv")
    code, out = run_cli(
        capsys,
        ["orbit-walk", "--ell", "1", "--n", "40", "--seed", "2", "--format", "csv", "--out", out_path],
    )
    assert code == 0
    assert load_sample_matrix(out_path).rows.shape == (40, 3)


def test_calibrate_small_run(capsys):
    code, out = run_cli(capsys, ["calibrate", "--n", "3", "--seed", "5"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert code in (0, 1)
    assert payload["alpha"] == 0.05
    assert len(payload["tests"]) == 6


def test_reports_are_byte_identical(capsys, tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["verify-span", "--ell", "1", "--out", p1]) == 0
    assert cli.main(["verify-span", "--ell", "1", "--out", p2]) == 0
    capsys.readouterr()
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    _, out_a = run_cli(capsys, ["simulate-field", "--lmax", "1", "--n", "15"])
    _, out_b = run_cli(capsys, ["simulate-field", "--lmax", "1", "--n", "15"])
    assert out_a == out_b


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["decompose"]) == 2
    assert cli.main(["decompose", "--n", "3"]) == 2
    assert cli.main(["test-theorem2", "--ell", "1", "--alpha", "1.5"]) == 2
    assert cli.main(["test-theorem2", "--ell", "1", "--permutations", "50"]) == 2
    assert cli.main(["verify-span", "--ell", "1", "--format", "csv", "--out", "x"]) == 2
    assert cli.main(["orbit-walk", "--ell", "1", "--format", "csv"]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify-span" in out


def test_missing_spectrum_file_is_usage_error(capsys):
    code = cli.main(["spectrum-estimate", "--spectrum", "/nonexistent/spec.txt"])
    assert code == 2
    capsys.readouterr()


def test_degenerate_input_maps_to_exit_3(capsys, monkeypatch):
    def raiser(cfg):
        raise DegenerateInputError("forced degenerate case")

    monkeypatch.setitem(cli._HANDLERS, "verify-span", raiser)
    assert cli.main(["verify-span", "--ell", "1"]) == 3
    capsys.readouterr()


def test_console_script_and_thread_cap():
    # the child process runs the same package this test imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, INVSPAN_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "invspan.cli", "verify-span", "--ell", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["full"] is True

    env["INVSPAN_THREADS"] = "not-a-number"
    proc = subprocess.run(
        [sys.executable, "-m", "invspan.cli", "verify-span", "--ell", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr
