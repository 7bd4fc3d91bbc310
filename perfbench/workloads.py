"""The benchmark workloads, each a fixed list of checked operations.

certify         verify-span for ell in {8, 10}, plus decompose, character and
                block-check for n = 4..16.  The algebra side: invariance_engine and
                lie_core do nearly all the work and no Monte Carlo runs.
theorem2_null   test-theorem2 --ell 4 --n 3000 --radial chi through the CLI, on
                null data.  6000 pooled rows are above the 2048-row float32
                cutover, and the 144 MB distance matrix exceeds a 105 MiB L3.
theorem2_alt    the same three tests at the same n and B through the library, on
                the degree-4 block scaled by diag(linspace(1, 3, 9)).  Every test
                rejects at p = 1/(B+1), so every draw is needed.
calibrate_walk  calibrate --n 50 (300 tests of 150-200 rows, below the cutover)
                plus orbit-walk for ell in {1, 2}, with and without --odd.  Per-call
                overhead and Python loops dominate; the only workload running the
                so3_irreps rotation batches.

The workload seed becomes the CLI --seed (theorem2_null, calibrate_walk) or
the library seeds (theorem2_alt); certify has no random input.

The sizes keep one pass of every workload near 5 s on a 2-core machine, so a
run repeats each operation at least three times and takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from perfbench import checks

SPAN_WEIGHTS = (8, 10)
DECOMPOSE_SIZES = tuple(range(4, 17))
THEOREM2_ELL = 4
THEOREM2_N = 3000
# One B for both theorem2 workloads: the CLI default of 999 makes one pass
# take about 20 s, and at 199 the smallest p-value 1/200 is still below alpha.
THEOREM2_PERMUTATIONS = 199
THEOREM2_ALPHA = 0.01
ALT_SCALE = (1.0, 3.0)
CALIBRATE_REPETITIONS = 50
WALK_WEIGHTS = (1, 2)


@dataclass(frozen=True)
class Outcome:
    text: str  # the operation's output: a CLI report, or the library reports as JSON
    exit_code: int | None  # None for library calls


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], checks.Verdict]


def _cli_operation(argv: list[str], checker, schema: checks.Schema) -> Operation:
    from invspan import cli

    def run() -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return Outcome(buf.getvalue(), code)

    def check(outcome: Outcome) -> checks.Verdict:
        try:
            payload = json.loads(outcome.text)
        except ValueError:
            return checks.Verdict(problems=[f"exit code {outcome.exit_code}: output is not JSON"])
        verdict = checker(payload, outcome.exit_code)
        verdict.problems[:0] = schema.report_problems(payload)
        return verdict

    return Operation(" ".join(argv), run, check)


def certify(seed: int, schema: checks.Schema, weights=SPAN_WEIGHTS, sizes=DECOMPOSE_SIZES) -> list[Operation]:
    ops = []
    for ell in weights:
        ops.append(_cli_operation(
            ["verify-span", "--ell", str(ell)], lambda p, c, ell=ell: checks.verify_span(p, c, ell), schema
        ))
    for n in sizes:
        for command, checker in (
            ("decompose", checks.decompose),
            ("character", checks.character),
            ("block-check", checks.block_check),
        ):
            ops.append(_cli_operation(
                [command, "--n", str(n)], lambda p, c, n=n, f=checker: f(p, c, n), schema
            ))
    return ops


def theorem2_null(seed: int, schema: checks.Schema) -> list[Operation]:
    argv = [
        "test-theorem2", "--ell", str(THEOREM2_ELL), "--n", str(THEOREM2_N), "--radial", "chi",
        "--permutations", str(THEOREM2_PERMUTATIONS), "--alpha", str(THEOREM2_ALPHA), "--seed", str(seed),
    ]

    def checker(payload, code):
        return checks.theorem2(
            payload, code, ell=THEOREM2_ELL, n=THEOREM2_N,
            permutations=THEOREM2_PERMUTATIONS, alpha=THEOREM2_ALPHA,
        )

    return [_cli_operation(argv, checker, schema)]


def theorem2_alt(seed: int, schema: checks.Schema, n: int = THEOREM2_N) -> list[Operation]:
    import numpy as np

    from invspan import monte_carlo_stats as mc
    from invspan import sphere_harmonics

    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(4)]
    scale = np.linspace(*ALT_SCALE, 2 * THEOREM2_ELL + 1)
    b, alpha = THEOREM2_PERMUTATIONS, THEOREM2_ALPHA

    def run() -> Outcome:
        block = sphere_harmonics.sample_degree_block(THEOREM2_ELL, 1.0, "chi", n, seeds[0]) * scale
        reports = {
            "exchangeability": mc.test_exchangeability(block, b, seeds[1], alpha),
            "rotational_invariance": mc.test_rotational_invariance(block, 1, b, seeds[2], alpha),
            "radial_angular_independence": mc.test_radial_angular_independence(block, b, seeds[3], alpha),
        }
        text = json.dumps({k: r.to_dict() for k, r in reports.items()}, indent=2, sort_keys=True) + "\n"
        return Outcome(text, None)

    def check(outcome: Outcome) -> checks.Verdict:
        return checks.alternative_reports(json.loads(outcome.text), schema, permutations=b, alpha=alpha)

    return [Operation(f"library theorem2 tests, scaled ell={THEOREM2_ELL} n={n} B={b}", run, check)]


def calibrate_walk(seed: int, schema: checks.Schema) -> list[Operation]:
    ops = [_cli_operation(
        ["calibrate", "--n", str(CALIBRATE_REPETITIONS), "--seed", str(seed)],
        lambda p, c: checks.calibrate(p, c, CALIBRATE_REPETITIONS),
        schema,
    )]
    for ell in WALK_WEIGHTS:
        for odd in (False, True):
            argv = ["orbit-walk", "--ell", str(ell), "--seed", str(seed)] + (["--odd"] if odd else [])
            ops.append(_cli_operation(
                argv, lambda p, c, ell=ell, odd=odd: checks.orbit_walk(p, c, ell=ell, odd=odd), schema
            ))
    return ops


OPERATIONS = {
    "certify": certify,
    "theorem2_null": theorem2_null,
    "theorem2_alt": theorem2_alt,
    "calibrate_walk": calibrate_walk,
}


def working_set_bytes(name: str) -> int:
    """Largest single array the workload's kernels hold, computed from its sizes."""
    if name == "certify":
        # span accumulation stacks the basis and n - 1 conjugated copies of it
        n = 2 * max(SPAN_WEIGHTS) + 1
        return n * checks.so_dim(n) ** 2 * 8
    if name in ("theorem2_null", "theorem2_alt"):
        rows = 2 * THEOREM2_N
        return rows * rows * 4
    # calibrate: the exchangeability case pools 2 x 200 rows in float64
    return (2 * 200) ** 2 * 8
