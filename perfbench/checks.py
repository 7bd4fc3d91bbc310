"""Correctness checks for the reports the benchmark collects.

Every checker returns a Verdict: the problems found (each one makes the
operation count as failed) and the random events seen.  A null rejection,
a calibration-band miss or a missed rejection under the alternative is a
random event of a correct program, so it is counted with its base and never
treated as a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from jsonschema import Draft202012Validator

THEOREM2_TESTS = ("exchangeability", "rotational_invariance", "radial_angular_independence")
CALIBRATED_TESTS = (
    "energy_two_sample",
    "exchangeability",
    "rotational_invariance",
    "radial_angular_independence",
    "uniform_on_sphere",
    "gaussianity_1d",
)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    # event name -> (count, base)
    events: dict[str, tuple[int, int]] = field(default_factory=dict)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


class Schema:
    """Validators for whole CLI reports and for single test reports."""

    def __init__(self, path: Path):
        schema = json.loads(Path(path).read_text(encoding="utf-8"))
        self._report = Draft202012Validator(schema)
        self._test_report = Draft202012Validator(
            {"$defs": schema["$defs"], "$ref": "#/$defs/test_report"}
        )

    def report_problems(self, payload) -> list[str]:
        return [f"schema: {e.message}" for e in self._report.iter_errors(payload)]

    def test_report_problems(self, report) -> list[str]:
        return [f"schema: {e.message}" for e in self._test_report.iter_errors(report)]


def _close(value, expected: float, rel: float = 1e-8) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= rel * max(1.0, abs(expected))


def _exit_matches(verdict: Verdict, code: int, ok: bool) -> None:
    expected = 0 if ok else 1
    verdict.expect(code == expected, f"exit code {code}, expected {expected}")


def so_dim(n: int) -> int:
    return n * (n - 1) // 2


def transposition_characters(n: int) -> tuple[int, int]:
    """Characters of a transposition on the standard and stabilizer parts of so(n)."""
    return n - 3, ((n - 3) ** 2 - (n - 1)) // 2


def verify_span(payload: dict, code: int, ell: int) -> Verdict:
    v = Verdict()
    n = 2 * ell + 1
    span_dim = payload.get("span_dim", payload.get("w_dim"))
    v.expect(payload.get("n") == n, f"n {payload.get('n')}, expected {n}")
    v.expect(span_dim == so_dim(n), f"span_dim {span_dim}, expected {so_dim(n)}")
    v.expect(payload.get("generator_dim") == 3, f"generator_dim {payload.get('generator_dim')}, expected 3")
    v.expect(payload.get("full") is True, "span not full")
    v.expect(payload.get("hypothesis_satisfied") is True, "no-fixed-vector hypothesis not satisfied")
    v.expect(code == 0, f"exit code {code}, expected 0")
    return v


def decompose(payload: dict, code: int, n: int) -> Verdict:
    v = Verdict()
    std_char, stab_char = transposition_characters(n)
    v.expect(payload.get("standard_dim") == n - 1, f"standard_dim {payload.get('standard_dim')}, expected {n - 1}")
    v.expect(
        payload.get("stabilizer_dim") == (n - 1) * (n - 2) // 2,
        f"stabilizer_dim {payload.get('stabilizer_dim')}, expected {(n - 1) * (n - 2) // 2}",
    )
    v.expect(_close(payload.get("standard_char_transposition"), std_char), f"standard character, expected {std_char}")
    v.expect(_close(payload.get("stabilizer_char_transposition"), stab_char), f"stabilizer character, expected {stab_char}")
    v.expect(code == 0, f"exit code {code}, expected 0")
    return v


def character(payload: dict, code: int, n: int) -> Verdict:
    v = Verdict()
    std_char, stab_char = transposition_characters(n)
    v.expect(_close(payload.get("v1"), std_char), f"v1 {payload.get('v1')}, expected {std_char}")
    v.expect(_close(payload.get("v2"), stab_char), f"v2 {payload.get('v2')}, expected {stab_char}")
    v.expect(code == 0, f"exit code {code}, expected 0")
    return v


def block_check(payload: dict, code: int, n: int) -> Verdict:
    v = Verdict()
    v.expect(payload.get("n") == n, f"n {payload.get('n')}, expected {n}")
    v.expect(payload.get("passed") is True, "block form check did not pass")
    v.expect(code == 0, f"exit code {code}, expected 0")
    return v


def monte_carlo_report(report: dict, permutations: int | None = None, alpha: float | None = None) -> list[str]:
    """Internal consistency of one Monte Carlo test report.

    p(B+1) must be an integer, p must lie in [1/(B+1), 1] and reject must
    equal (p < alpha), where B is the report's own draw count.
    """
    v = Verdict()
    name = report.get("name", "?")
    b = report.get("n_permutations")
    p = report.get("p_value")
    if not isinstance(b, int) or b < 1 or not isinstance(p, (int, float)):
        return [f"{name}: malformed n_permutations {b!r} or p_value {p!r}"]
    scaled = p * (b + 1)
    v.expect(abs(scaled - round(scaled)) <= 1e-9 * (b + 1), f"{name}: p = {p!r} is not a multiple of 1/{b + 1}")
    v.expect(1.0 / (b + 1) - 1e-12 <= p <= 1.0, f"{name}: p {p} outside [1/{b + 1}, 1]")
    v.expect(report.get("reject") == (p < report.get("alpha", math.nan)), f"{name}: reject flag differs from p < alpha")
    if permutations is not None:
        v.expect(b == permutations, f"{name}: n_permutations {b}, expected {permutations}")
    if alpha is not None:
        v.expect(report.get("alpha") == alpha, f"{name}: alpha {report.get('alpha')}, expected {alpha}")
    return v.problems


def theorem2(payload: dict, code: int, *, ell: int, n: int, permutations: int, alpha: float) -> Verdict:
    v = Verdict()
    for key, expected in (("ell", ell), ("n", n), ("n_permutations", permutations), ("alpha", alpha)):
        v.expect(payload.get(key) == expected, f"{key} {payload.get(key)}, expected {expected}")
    reports = payload.get("reports", {})
    v.expect(sorted(reports) == sorted(THEOREM2_TESTS), f"tests {sorted(reports)}")
    for report in reports.values():
        v.problems += monte_carlo_report(report, permutations, alpha)
    rejections = sum(bool(r.get("reject")) for r in reports.values())
    v.expect(payload.get("all_passed") == (rejections == 0), "all_passed differs from the test verdicts")
    _exit_matches(v, code, payload.get("all_passed") is True)
    v.events["null_rejections"] = (rejections, len(THEOREM2_TESTS))
    return v


def alternative_reports(reports: dict, schema: Schema, *, permutations: int, alpha: float) -> Verdict:
    v = Verdict()
    v.expect(sorted(reports) == sorted(THEOREM2_TESTS), f"tests {sorted(reports)}")
    for report in reports.values():
        v.problems += schema.test_report_problems(report)
        v.problems += monte_carlo_report(report, permutations, alpha)
    misses = sum(not r.get("reject") for r in reports.values())
    v.events["alternative_non_rejections"] = (misses, len(THEOREM2_TESTS))
    return v


def calibrate(payload: dict, code: int, repetitions: int) -> Verdict:
    v = Verdict()
    v.expect(payload.get("repetitions") == repetitions, f"repetitions {payload.get('repetitions')}, expected {repetitions}")
    alpha = payload.get("alpha", math.nan)
    band = payload.get("band", [])
    v.expect(band == [alpha / 2.0, 2.0 * alpha], f"band {band}, expected [alpha/2, 2 alpha]")
    tests = payload.get("tests", {})
    v.expect(sorted(tests) == sorted(CALIBRATED_TESTS), f"tests {sorted(tests)}")
    misses = 0
    for name, entry in tests.items():
        k = entry.get("rejections")
        v.expect(isinstance(k, int) and 0 <= k <= repetitions, f"{name}: rejections {k}")
        if not isinstance(k, int):
            continue
        rate = k / repetitions
        v.expect(entry.get("rate") == rate, f"{name}: rate {entry.get('rate')}, expected {rate}")
        in_band = len(band) == 2 and band[0] <= rate <= band[1]
        v.expect(entry.get("within_band") == in_band, f"{name}: within_band flag differs from the band")
        misses += not in_band
    v.expect(payload.get("all_within_band") == (misses == 0), "all_within_band differs from the per-test flags")
    _exit_matches(v, code, payload.get("all_within_band") is True)
    v.events["calibration_band_misses"] = (misses, len(CALIBRATED_TESTS))
    return v


def orbit_walk(payload: dict, code: int, *, ell: int, odd: bool) -> Verdict:
    v = Verdict()
    v.expect(payload.get("ell") == ell, f"ell {payload.get('ell')}, expected {ell}")
    v.expect(payload.get("include_odd_permutation") == odd, "include_odd_permutation differs from --odd")
    report = payload.get("uniformity", {})
    v.problems += monte_carlo_report(report, alpha=payload.get("alpha"))
    v.expect(payload.get("passed") == (not report.get("reject")), "passed differs from the uniformity verdict")
    _exit_matches(v, code, payload.get("passed") is True)
    v.events["uniformity_rejections"] = (int(bool(report.get("reject"))), 1)
    return v
