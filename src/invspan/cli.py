"""Command-line front end.

Each subcommand runs one verification or simulation pipeline and emits a
JSON report that is byte-identical for identical arguments, seed and
INVSPAN_THREADS: a different BLAS thread count can move a statistic's last
bits.  One table, _COMMANDS, declares every subcommand's handler, help and
options, with each integer option's (lowest, highest) range, which _validate
checks before any handler runs; main writes the command's name into its
report.  Only the commands that draw random numbers take --seed, and only
the two raw-data commands take --format, whose csv writes just their table
to --out.
Exit codes: 0 all checks passed, 1 a mathematical check failed (also an
internal invariance or arithmetic check, which prints its message and no
report), 2 usage error (also running out of memory), 3 degenerate input.

The INVSPAN_THREADS environment variable caps the linear-algebra thread
pools (0 means automatic).  It is read on every call and applied before
the numeric modules are imported, which is why every handler imports its
dependencies lazily.  A report that cannot be written to --out is a usage
error (exit 2), like any other unwritable or unreadable file.

The argument parser is built once per process and shared by every call
of main, so in-process callers (scripts, tests, benchmarks) pay for it
once; a one-shot CLI process builds it once as before.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

__all__ = ["main"]

DEFAULT_SEED = 1729
# the largest degree of the flat spectrum used without --spectrum or --lmax
DEFAULT_LMAX = 4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

# equal to sphere_harmonics.RADIAL_LAWS and MAX_LMAX (checked in
# tests/test_cli.py); importing that module here would load numpy while the
# parser is built, before the thread cap applies and for every command
_RADIAL_CHOICES = ("chi", "lognormal", "constant")
_MAX_LMAX = 64


def _apply_thread_cap() -> None:
    raw = os.environ.get("INVSPAN_THREADS")
    if raw is None:
        return
    message = f"INVSPAN_THREADS must be an integer >= 0, got {raw!r}"
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if count < 0:
        raise ValueError(message)
    if count == 0:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(count))


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, payload or None, *tables), see _tables; main adds "command"


def _run_verify_span(args: argparse.Namespace):
    from .invariance_engine import verify_span

    report = verify_span(args.ell)
    payload = {"ell": int(args.ell), **report.to_dict()}
    # the report schema still names the span dimension w_dim
    payload["w_dim"] = payload.pop("span_dim")
    return (EXIT_OK if report.full else EXIT_CHECK_FAILED), payload


def _run_decompose(args: argparse.Namespace):
    from .invariance_engine import decompose_so_n

    report, _, _ = decompose_so_n(args.n)
    return EXIT_OK, report.to_dict()


def _run_character(args: argparse.Namespace):
    from .invariance_engine import decompose_so_n

    report, _, _ = decompose_so_n(args.n)
    payload = {
        "n": int(args.n),
        "v1": float(report.standard_char_transposition),
        "v2": float(report.stabilizer_char_transposition),
    }
    return EXIT_OK, payload


def _run_block_check(args: argparse.Namespace):
    from .invariance_engine import block_form_check

    report = block_form_check(args.n)
    return (EXIT_OK if report.passed else EXIT_CHECK_FAILED), report.to_dict()


def _resolve_spectrum(args: argparse.Namespace):
    from .sphere_harmonics import PowerSpectrum, read_power_spectrum

    if args.spectrum is not None:
        return read_power_spectrum(args.spectrum)
    lmax = args.lmax if args.lmax is not None else DEFAULT_LMAX
    return PowerSpectrum.constant(lmax, 1.0)


def _within_3se(estimate: float, target: float, per_sample) -> tuple[float, bool]:
    """Standard error of per_sample's mean, and whether estimate is within 3 of them of target (one sample is)."""
    se = float(per_sample.std(ddof=1) / math.sqrt(per_sample.size)) if per_sample.size > 1 else 0.0
    return se, per_sample.size < 2 or bool(abs(estimate - target) <= 3.0 * se)


def _tables(args: argparse.Namespace, samples, suffix: str) -> list:
    """The (path, samples) files to write: --out itself under --format csv, else --out + suffix.

    main writes them after the JSON report, so a report that fails leaves none behind.
    """
    if args.format == "csv":
        return [(args.out, samples)]
    return [] if args.out is None else [(args.out + suffix, samples)]


def _run_simulate_field(args: argparse.Namespace):
    import numpy as np

    from .monte_carlo_stats import SampleMatrix
    from .sphere_harmonics import (
        empirical_power_spectrum,
        gauss_legendre_grid,
        grid_mean_square,
        sample_coefficient_arrays,
        synthesize_batch,
    )

    spectrum = _resolve_spectrum(args)
    rows = sample_coefficient_arrays(spectrum, args.radial, args.n, args.seed)
    tables = _tables(args, SampleMatrix(rows), ".coefficients.csv")
    if args.format == "csv":
        return (EXIT_OK, None, *tables)
    estimated, _ = empirical_power_spectrum(rows)
    grid = gauss_legendre_grid(spectrum.lmax)
    fields = synthesize_batch(rows, spectrum.lmax, grid)
    per_sample = np.array([grid_mean_square(f, grid) for f in fields])
    identity_value = float(
        sum((2 * ell + 1) * c for ell, c in enumerate(spectrum.values)) / (4.0 * math.pi)
    )
    mean_square = float(per_sample.mean())
    stderr, within = _within_3se(mean_square, identity_value, per_sample)
    payload = {
        "lmax": int(spectrum.lmax),
        "n": int(args.n),
        "radial": args.radial,
        "seed": int(args.seed),
        "spectrum": [float(v) for v in spectrum.values],
        "empirical_spectrum": [float(v) for v in estimated.values],
        "variance_identity": identity_value,
        "grid_mean_square": mean_square,
        "standard_error": stderr,
        "within_3se": within,
        "coefficients_path": tables[0][0] if tables else None,
    }
    return (EXIT_OK, payload, *tables)


def _run_spectrum_estimate(args: argparse.Namespace):
    import numpy as np

    from .sphere_harmonics import empirical_power_spectrum, sample_coefficient_arrays

    spectrum = _resolve_spectrum(args)
    rows = sample_coefficient_arrays(spectrum, args.radial, args.n, args.seed)
    estimated, moments = empirical_power_spectrum(rows)
    stderrs = []
    within = []
    for ell in range(spectrum.lmax + 1):
        block = rows[:, ell * ell : (ell + 1) ** 2]
        per_sample = np.einsum("ij,ij->i", block, block) / (2 * ell + 1)
        se, ok = _within_3se(float(estimated.values[ell]), float(spectrum.values[ell]), per_sample)
        stderrs.append(se)
        within.append(ok)
    off_max = max(float(np.abs(m - np.diag(np.diag(m))).max()) for m in moments)
    payload = {
        "lmax": int(spectrum.lmax),
        "n": int(args.n),
        "radial": args.radial,
        "seed": int(args.seed),
        "input_spectrum": [float(v) for v in spectrum.values],
        "estimated_spectrum": [float(v) for v in estimated.values],
        "standard_errors": stderrs,
        "within_3se": within,
        "all_within_3se": bool(all(within)),
        "max_offdiagonal_moment": off_max,
    }
    return EXIT_OK, payload


def _child_seeds(seed: int, count: int) -> list[int]:
    """One integer seed from each of the first count children of SeedSequence(seed)."""
    import numpy as np

    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _run_test_theorem2(args: argparse.Namespace):
    from .monte_carlo_stats import (
        test_exchangeability,
        test_radial_angular_independence,
        test_rotational_invariance,
    )
    from .sphere_harmonics import sample_degree_block

    seeds = _child_seeds(args.seed, 4)
    block = sample_degree_block(args.ell, 1.0, args.radial, args.n, seeds[0])
    reports = {
        "exchangeability": test_exchangeability(block, args.permutations, seeds[1], args.alpha),
        "rotational_invariance": test_rotational_invariance(
            block, 1, args.permutations, seeds[2], args.alpha
        ),
        "radial_angular_independence": test_radial_angular_independence(
            block, args.permutations, seeds[3], args.alpha
        ),
    }
    all_passed = not any(r.reject for r in reports.values())
    payload = {
        "ell": int(args.ell),
        "n": int(args.n),
        "radial": args.radial,
        "seed": int(args.seed),
        "alpha": float(args.alpha),
        "n_permutations": int(args.permutations),
        "reports": {k: r.to_dict() for k, r in reports.items()},
        "all_passed": bool(all_passed),
    }
    return (EXIT_OK if all_passed else EXIT_CHECK_FAILED), payload


def _run_test_bernstein(args: argparse.Namespace):
    import numpy as np

    from .monte_carlo_stats import test_gaussianity_1d, test_rotational_invariance
    from .sphere_harmonics import sample_degree_block

    seeds = _child_seeds(args.seed, 6)
    checks = []

    chi_block = sample_degree_block(2, 1.0, "chi", args.n, seeds[0])
    rep = test_gaussianity_1d(chi_block[:, 0], seeds[1], args.alpha)
    checks.append(("chi_radial_marginal_gaussian", False, rep))

    log_block = sample_degree_block(2, 1.0, "lognormal", args.n, seeds[2])
    rep = test_gaussianity_1d(log_block[:, 0], seeds[3], args.alpha)
    checks.append(("lognormal_radial_marginal_nongaussian", True, rep))

    data_rng = np.random.default_rng(seeds[4])
    expo = data_rng.exponential(1.0, (args.n, args.d)) - 1.0
    rep = test_rotational_invariance(expo, 1, args.permutations, seeds[5], args.alpha)
    checks.append(("centered_exponential_not_invariant", True, rep))

    entries = [
        {"name": name, "expected_reject": expected, "as_expected": rep.reject == expected, "report": rep.to_dict()}
        for name, expected, rep in checks
    ]
    all_ok = all(entry["as_expected"] for entry in entries)
    payload = {
        "n": int(args.n),
        "d": int(args.d),
        "seed": int(args.seed),
        "alpha": float(args.alpha),
        "n_permutations": int(args.permutations),
        "checks": entries,
        "all_as_expected": bool(all_ok),
    }
    return (EXIT_OK if all_ok else EXIT_CHECK_FAILED), payload


def _run_orbit_walk(args: argparse.Namespace):
    from .monte_carlo_stats import orbit_walk_samples, test_uniform_on_sphere

    seeds = _child_seeds(args.seed, 2)
    states = orbit_walk_samples(args.ell, args.n, args.odd, seeds[0])
    tables = _tables(args, states, ".states.csv")
    if args.format == "csv":
        return (EXIT_OK, None, *tables)
    rep = test_uniform_on_sphere(states, seeds[1], args.alpha)
    payload = {
        "ell": int(args.ell),
        "n": int(args.n),
        "include_odd_permutation": bool(args.odd),
        "seed": int(args.seed),
        "alpha": float(args.alpha),
        "uniformity": rep.to_dict(),
        "passed": bool(not rep.reject),
        "states_path": tables[0][0] if tables else None,
    }
    return (EXIT_OK if not rep.reject else EXIT_CHECK_FAILED, payload, *tables)


def _run_calibrate(args: argparse.Namespace):
    from .monte_carlo_stats import calibration_suite

    result = calibration_suite(args.seed, args.n, args.alpha, args.permutations)
    return (EXIT_OK if result["all_within_band"] else EXIT_CHECK_FAILED), result


# ---------------------------------------------------------------------------
# The command table: _build_parser, _HANDLERS and _validate all read it

# each option's argparse keywords shared by every command that takes it; an
# integer option's "range" is its (lowest, highest) value, None for no ceiling
_OPTIONS = {
    "ell": {"type": int, "range": (1, None), "help": "weight of the irreducible rotation representation"},
    "lmax": {"type": int, "range": (0, _MAX_LMAX), "help": "largest harmonic degree"},
    "n": {"type": int, "range": (1, None), "help": "sample count"},
    "d": {"type": int, "range": (2, None), "help": "vector dimension"},
    "radial": {"choices": _RADIAL_CHOICES, "help": "radial law for coefficient draws"},
    "spectrum": {"help": "power spectrum file ('ell value' lines)"},
    "alpha": {"type": float, "help": "test level in (0, 1)"},
    "permutations": {"type": int, "range": (99, None), "help": "permutation draws of the energy, paired and distance-covariance tests"},
    "odd": {"action": "store_true", "help": "interleave a fixed odd coordinate swap into the walk"},
    "seed": {"type": int, "help": "master seed"},
    "out": {"help": "write the report here instead of stdout"},
    "format": {"choices": ("json", "csv"), "help": "report format (csv writes only the data table, to --out)"},
}

_SEED_OUT = {"seed": DEFAULT_SEED, "out": None}
# the Monte Carlo tests need 100 rows or values
_MC_N = (100, None)


# --n is the matrix side, >= 4 for so(n), listed after --out in the help
_SO_N = {"out": None, "n": {"required": True, "range": (4, 125), "help": "matrix side"}}


# name -> (handler, help, options); each option maps to its default, or to a
# dict that updates its _OPTIONS entry; the order is the help's.  A size
# ceiling is the largest size whose fitted peak RSS stays within 2 GiB (the
# models are in tests/test_invariance_engine.py)
_COMMANDS = {
    "verify-span": (_run_verify_span, "certify that conjugated generators span the full antisymmetric algebra", {"ell": {"required": True, "range": (1, 1364)}, "out": None}),
    "decompose": (_run_decompose, "split so(n) into the standard-part and stabilizer-part components", _SO_N),
    "character": (_run_character, "transposition characters of the two components", _SO_N),
    "block-check": (_run_block_check, "verify the basis change splitting the permutation action", _SO_N),
    "simulate-field": (_run_simulate_field, "draw random harmonic coefficients and check the variance identity", {"lmax": None, "n": 1000, "radial": "chi", "spectrum": None, **_SEED_OUT, "format": "json"}),
    "spectrum-estimate": (_run_spectrum_estimate, "estimate the power spectrum from fresh coefficient draws", {"lmax": None, "n": 2000, "radial": "chi", "spectrum": None, **_SEED_OUT}),
    "test-theorem2": (_run_test_theorem2, "exchangeability, rotation-invariance and radius/direction tests on one degree block", {"ell": {"required": True}, "n": {"default": 1000, "range": _MC_N}, "radial": "chi", "alpha": 0.01, "permutations": 999, **_SEED_OUT}),
    "test-bernstein": (_run_test_bernstein, "Gaussian-characterization demonstrations", {"n": {"default": 2000, "range": _MC_N}, "d": 5, "alpha": 0.01, "permutations": 999, **_SEED_OUT}),
    "orbit-walk": (_run_orbit_walk, "random walk under conjugated rotations plus a uniformity test", {"ell": {"required": True, "range": (1, 915)}, "n": 2000, "alpha": 0.01, "odd": False, **_SEED_OUT, "format": "json"}),
    "calibrate": (_run_calibrate, "null rejection rates for every test", {"n": {"default": 200, "help": "repetitions per test"}, "alpha": 0.05, "permutations": 199, **_SEED_OUT}),
}

_HANDLERS = {name: handler for name, (handler, _, _) in _COMMANDS.items()}


def _option_spec(command: str, option: str) -> dict:
    """option's argparse keywords and range in command: its _OPTIONS entry updated by the command's."""
    given = _COMMANDS[command][2][option]
    return {**_OPTIONS[option], **(given if isinstance(given, dict) else {"default": given})}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state in the parser, and it
    # looks up sys.stdout and sys.stderr only when it prints
    parser = argparse.ArgumentParser(
        prog="invspan",
        description=(
            "Numerical certificates for permutation-plus-rotation invariance: "
            "Lie-algebra span checks, harmonic field simulation, and seeded "
            "Monte Carlo symmetry tests."
        ),
        epilog=(
            f"The default seed is {DEFAULT_SEED}; identical invocations with the same "
            "INVSPAN_THREADS produce byte-identical reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (_, help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for option in options:
            keywords = _option_spec(name, option)
            lowest, highest = keywords.pop("range", (None, None))
            if lowest is not None:
                keywords["help"] += f" (>= {lowest})" if highest is None else f" ({lowest} to {highest})"
            cmd.add_argument(f"--{option}", **keywords)
    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    # every ranged option the command declares, in its help's order
    for option in _COMMANDS[args.command][2]:
        lowest, highest = _option_spec(args.command, option).get("range", (None, None))
        value = getattr(args, option)
        if lowest is not None and value is not None and value < lowest:
            parser.error(f"--{option} must be >= {lowest}, got {value}")
        if highest is not None and value is not None and value > highest:
            parser.error(f"--{option} must be <= {highest}, got {value}")
    if getattr(args, "alpha", None) is not None and not (0.0 < args.alpha < 1.0):
        parser.error(f"--alpha must lie in (0, 1), got {args.alpha}")
    if getattr(args, "format", None) == "csv" and args.out is None:
        parser.error("--format csv requires --out")
    if getattr(args, "lmax", None) is not None and getattr(args, "spectrum", None) is not None:
        parser.error("--lmax and --spectrum are exclusive: the spectrum file sets its own lmax")


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    from .errors import DegenerateInputError, InvarianceViolationError

    handler = _HANDLERS[args.command]
    try:
        code, payload, *tables = handler(args)
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvarianceViolationError, ArithmeticError) as exc:
        # a failed internal check; InvarianceViolationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        size = f" at --n {args.n}; try a smaller --n" if getattr(args, "n", None) is not None else ""
        print(f"error: {args.command} ran out of memory{size}", file=sys.stderr)
        return EXIT_USAGE
    if payload is not None:
        try:
            _emit({"command": args.command, **payload}, args.out)
        except OSError as exc:
            print(f"error: cannot write report to {args.out or 'stdout'}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    for path, samples in tables:
        from .monte_carlo_stats import dump_sample_matrix

        try:
            dump_sample_matrix(samples, path)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            if payload is not None:
                # the report names this file; remove it rather than leave it pointing nowhere
                os.remove(args.out)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
