"""Command line dispatcher: wire formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest

from invspan import cli, invariance_engine, monte_carlo_stats
from invspan.errors import DegenerateInputError
from invspan.monte_carlo_stats import load_sample_matrix
from invspan.sphere_harmonics import MAX_LMAX, RADIAL_LAWS

GOLDEN = Path(__file__).resolve().parent / "golden"
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


def test_theorem2_accepts_the_constant_law(capsys):
    # radii equal up to rounding must not read as dependent on direction
    code, payload = run_json(
        capsys,
        ["test-theorem2", "--ell", "2", "--n", "1000", "--radial", "constant", "--permutations", "199"],
    )
    assert code == 0
    assert payload["all_passed"] is True
    assert payload["reports"]["radial_angular_independence"]["statistic"] == 0.0
    assert payload["reports"]["radial_angular_independence"]["p_value"] == 1.0


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-span", "--ell", "1"],
        ["decompose", "--n", "4"],
        ["character", "--n", "4"],
        ["block-check", "--n", "4"],
        ["spectrum-estimate", "--lmax", "1", "--n", "5"],
        ["test-theorem2", "--ell", "1", "--n", "20", "--permutations", "99"],
        ["test-bernstein", "--n", "20", "--permutations", "99"],
        ["calibrate", "--n", "1"],
    ],
)
def test_format_only_where_a_table_exists(capsys, argv):
    # a command that writes no data table has no --format option
    assert cli.main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --format json\n")


@pytest.mark.parametrize(
    "argv",
    [["simulate-field", "--lmax", "1", "--n", "5"], ["orbit-walk", "--ell", "1", "--n", "20"]],
)
def test_table_commands_accept_format_json(capsys, argv):
    code, payload = run_json(capsys, argv + ["--format", "json"])
    assert code == 0
    assert payload["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [["verify-span", "--ell", "1"], ["decompose", "--n", "4"], ["character", "--n", "4"], ["block-check", "--n", "4"]],
)
def test_deterministic_commands_take_no_seed(capsys, argv):
    # these commands draw no random numbers, so a seed would change nothing
    assert cli.main(argv + ["--seed", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --seed 99\n")
    assert cli.main([argv[0], "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out


class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


_SMALL_RUNS = {
    "verify-span": ["--ell", "1"],
    "decompose": ["--n", "4"],
    "character": ["--n", "4"],
    "block-check": ["--n", "4"],
    "simulate-field": ["--lmax", "1", "--n", "5"],
    "spectrum-estimate": ["--lmax", "1", "--n", "5"],
    "test-theorem2": ["--ell", "1", "--n", "100", "--permutations", "99"],
    "test-bernstein": ["--n", "100", "--d", "3", "--permutations", "99"],
    "orbit-walk": ["--ell", "1", "--n", "20"],
    "calibrate": ["--n", "1", "--permutations", "99"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_declared_option_is_read(command):
    # an option the handler never reads is parsed and ignored; --out and
    # --format are read by main and _tables
    args = _ReadRecorder()
    object.__setattr__(args, "_read", set())
    cli._build_parser().parse_args([command, *_SMALL_RUNS[command]], namespace=args)
    object.__setattr__(args, "_read", set())
    cli._HANDLERS[command](args)
    declared = set(cli._COMMANDS[command][2]) - {"out", "format"}
    assert declared - object.__getattribute__(args, "_read") == set()


def test_one_sample_is_within_3se(capsys):
    # one sample has no standard error, and both commands apply one rule to it
    _, field = run_json(capsys, ["simulate-field", "--lmax", "2", "--n", "1"])
    _, spectrum = run_json(capsys, ["spectrum-estimate", "--lmax", "2", "--n", "1"])
    assert (field["standard_error"], field["within_3se"]) == (0.0, True)
    assert spectrum["standard_errors"] == [0.0] * 3
    assert spectrum["within_3se"] == [True] * 3 and spectrum["all_within_3se"] is True


@pytest.mark.parametrize("command", ["simulate-field", "spectrum-estimate"])
def test_lmax_and_spectrum_are_exclusive(capsys, tmp_path, command):
    # the file fixes lmax, so a --lmax beside it would be ignored
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("0 1.0\n1 0.5\n")
    assert cli.main([command, "--spectrum", str(spec_path), "--lmax", "8", "--n", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--lmax" in captured.err and "--spectrum" in captured.err


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify-span" in out


def test_radial_choices_are_the_library_laws():
    # the parser keeps its own copy so that building it loads no numeric module
    assert cli._RADIAL_CHOICES == RADIAL_LAWS


def test_lmax_ceiling_is_the_library_ceiling():
    # a copy for the same reason as _RADIAL_CHOICES
    assert cli._MAX_LMAX == MAX_LMAX


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate-field", "--lmax", "65"], "--lmax must be <= 64, got 65"),
        (["spectrum-estimate", "--lmax", "65"], "--lmax must be <= 64, got 65"),
        (["test-theorem2", "--ell", "1", "--n", "3"], "--n must be >= 100, got 3"),
        (["test-bernstein", "--n", "3"], "--n must be >= 100, got 3"),
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv, message):
    # refused by the parser, before any pipeline runs, with the option named
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


_RANGED = [
    (command, option)
    for command, (_, _, options) in cli._COMMANDS.items()
    for option in options
    if "range" in cli._option_spec(command, option)
]


def _with_option(command, option, value):
    """The command's small run with --option set to value."""
    argv = [command, *_SMALL_RUNS[command]]
    flag = f"--{option}"
    if flag in argv:
        argv[argv.index(flag) + 1] = str(value)
    else:
        argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("command, option", _RANGED)
def test_every_range_refuses_its_neighbours(capsys, monkeypatch, command, option):
    # one case per ranged option of the table: lowest - 1 and highest + 1
    # exit 2 before the handler runs, and both ends pass _validate
    lowest, highest = cli._option_spec(command, option)["range"]
    monkeypatch.setitem(cli._HANDLERS, command, lambda args: pytest.fail("the handler ran"))
    refused = [(lowest - 1, f"--{option} must be >= {lowest}, got {lowest - 1}")]
    if highest is not None:
        refused.append((highest + 1, f"--{option} must be <= {highest}, got {highest + 1}"))
    for value, message in refused:
        assert cli.main(_with_option(command, option, value)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")
    parser = cli._build_parser()
    for value in (lowest, highest if highest is not None else lowest + 1):
        cli._validate(parser.parse_args(_with_option(command, option, value)), parser)


def test_every_size_option_has_a_range():
    # a command's integer size options are all refused out of range
    sized = {"ell", "lmax", "n", "d", "permutations"}
    declared = {(c, o) for c, (_, _, options) in cli._COMMANDS.items() for o in options if o in sized}
    assert declared == set(_RANGED)


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


def test_memory_error_maps_to_exit_2(capsys, monkeypatch):
    # an oversized --n ends in a usage error naming the command and --n,
    # not in a traceback
    def raiser(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli._HANDLERS, "test-theorem2", raiser)
    assert cli.main(["test-theorem2", "--ell", "1", "--n", "10000000"]) == 2
    err = capsys.readouterr().err
    assert "test-theorem2" in err and "--n 10000000" in err

    # a command without --n names only itself
    monkeypatch.setitem(cli._HANDLERS, "verify-span", raiser)
    assert cli.main(["verify-span", "--ell", "1"]) == 2
    assert capsys.readouterr().err == "error: verify-span ran out of memory\n"


def test_failed_split_check_maps_to_exit_1(capsys):
    # InvarianceViolationError is a ValueError, but a failed check is not a usage error
    with mock.patch.object(invariance_engine, "_split_residual", return_value=1.0):
        code = cli.main(["decompose", "--n", "5"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: so(5) split is not invariant under relabeling")


def test_arithmetic_check_maps_to_exit_1(capsys):
    drift = ArithmeticError("norm drift 1.000e-03 exceeds 1e-8")
    with mock.patch.object(monte_carlo_stats, "orbit_walk_samples", side_effect=drift):
        code = cli.main(["orbit-walk", "--ell", "1", "--n", "100"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: norm drift 1.000e-03 exceeds 1e-8\n"


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
    assert "INVSPAN_THREADS" in proc.stderr


def test_empty_thread_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("INVSPAN_THREADS", "")
    assert cli.main(["verify-span", "--ell", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: INVSPAN_THREADS must be an integer >= 0, got ''\n"


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    # a missing directory is a usage error (2), not a failed check (1)
    out_path = str(tmp_path / "missing" / "x.json")
    assert cli.main(["verify-span", "--ell", "1", "--out", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {out_path}: ")
    assert not os.path.exists(out_path)


@pytest.mark.parametrize(
    "argv, suffix",
    [
        (["simulate-field", "--lmax", "1", "--n", "5"], ".coefficients.csv"),
        (["orbit-walk", "--ell", "1", "--n", "50"], ".states.csv"),
    ],
)
def test_unwritable_report_leaves_no_table(capsys, tmp_path, argv, suffix):
    # --out names an existing directory: exit 2, and no table beside it
    out_path = str(tmp_path / "report")
    os.mkdir(out_path)
    assert cli.main(argv + ["--out", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {out_path}: ")
    assert not os.path.exists(out_path + suffix)


def test_unwritable_table_removes_its_report(capsys, tmp_path):
    # the report names its table, so it goes when the table cannot be written
    out_path = str(tmp_path / "walk.json")
    os.mkdir(out_path + ".states.csv")
    assert cli.main(["orbit-walk", "--ell", "1", "--n", "50", "--out", out_path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out_path}.states.csv: ")
    assert not os.path.exists(out_path)


def _captured_call(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_gives_identical_calls(capsys, monkeypatch):
    # every subcommand's golden argv, interleaved with a usage error and
    # --help, twice in one process: the parser is built once and shared
    cases = json.loads((GOLDEN / "cases.json").read_text())
    calls = []
    for argv in cases.values():
        calls += [argv, ["decompose", "--n", "3"], ["--help"], [argv[0], "--help"]]
    first = [_captured_call(capsys, argv) for argv in calls]
    second = [_captured_call(capsys, argv) for argv in calls]
    assert second == first
    assert cli._build_parser() is cli._build_parser()

    outcomes = {}
    for argv, outcome in zip(calls, first):
        outcomes.setdefault(tuple(argv), set()).add(outcome)
    assert all(len(seen) == 1 for seen in outcomes.values())
    [(code, out, err)] = outcomes[("decompose", "--n", "3")]
    assert (code, out) == (2, "") and "--n must be >= 4, got 3" in err
    [(code, out, err)] = outcomes[("--help",)]
    assert (code, err) == (0, "") and "verify-span" in out
    for name, argv in cases.items():
        [(code, out, err)] = outcomes[tuple(argv)]
        assert code in (0, 1) and json.loads(out)["command"] == argv[0], name
        [(code, out, err)] = outcomes[(argv[0], "--help")]
        assert code == 0 and out.startswith(f"usage: invspan {argv[0]} "), name

    # the thread cap is still read on every call
    monkeypatch.setenv("INVSPAN_THREADS", "-1")
    code, out, err = _captured_call(capsys, ["verify-span", "--ell", "1"])
    assert (code, out) == (2, "")
    assert "INVSPAN_THREADS" in err
