"""The tracer sees the expected calls, links spans and leaves no wrapper behind."""

import json
from pathlib import Path

import pytest

from invspan import invariance_engine, lie_core
from perfbench import checks, run, tracing, workloads

SCHEMA = checks.Schema(run.SCHEMA)
ROOT = Path(run.__file__).resolve().parent.parent


def _traced_pass(ops):
    tracer = tracing.Tracer()
    result = run._run_pass(ops, tracer)
    assert all(not problems for problems in result.problems), result.problems
    return tracer, result.layer_metrics


def test_certify_call_counts_and_span_links():
    original = invariance_engine.verify_span
    ops = workloads.certify(1, SCHEMA, weights=(2, 3), sizes=(4, 5))
    tracer, m = _traced_pass(ops)

    assert m["cli.main.calls"] == len(ops) == 8
    assert m["invariance_engine.verify_span.calls"] == 2  # one per ell
    assert m["invariance_engine.accumulate_span.calls"] == 2
    # decompose, character and block-check each decompose once per n
    assert m["invariance_engine.decompose_so_n.calls"] == 6
    assert m["invariance_engine.character_on_subspace.calls"] == 12
    assert m["invariance_engine.block_form_check.calls"] == 2
    assert m["lie_core.numerical_rank.calls"] > 0 and m["lie_core.numerical_rank.rows"] > 0
    assert m["lie_core.conjugate_by_permutation.calls"] == m["lie_core.flatten_antisym.calls"] - 6
    assert m["invariance_engine.accumulate_span.rounds"] >= 2
    assert m["cli.report_bytes"] > 0
    assert m["monte_carlo_stats.draws"] == 0
    assert all(m[f"{layer}.exceptions"] == 0 for layer in tracing.LAYERS)

    spans = {s[0]: s for s in tracer.spans}
    for span_id, parent, op, name, start, end, own, calls, _ in tracer.spans:
        assert parent is None or parent in spans
        assert 0 <= own <= end - start + 1e-9 or calls > 1
        if name == "cli.main":
            assert parent is None
        if name == "invariance_engine.verify_span":
            assert spans[parent][3] == "cli.main" and spans[parent][2] == op
    assert sum(s[7] for s in tracer.spans) == m["trace.spans"]
    assert invariance_engine.verify_span is original
    assert invariance_engine.numerical_rank is lie_core.numerical_rank


def test_library_tests_count_draws_and_distance_bytes():
    ops = workloads.theorem2_alt(7, SCHEMA, n=300)
    _, m = _traced_pass(ops)
    b = workloads.THEOREM2_PERMUTATIONS
    for name in ("test_exchangeability", "test_rotational_invariance", "test_radial_angular_independence"):
        assert m[f"monte_carlo_stats.{name}.calls"] == 1
    assert m["sphere_harmonics.sample_degree_block.calls"] == 1
    assert m["monte_carlo_stats.draws"] == 3 * b
    # two 600-row energy matrices and one 300-row dCov matrix, all float64 below the cutover
    assert m["monte_carlo_stats.distance_bytes_computed"] == (2 * 600**2 + 300**2) * 8
    assert m["cli.main.calls"] == 0


def test_exceptions_are_counted_once_per_layer():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with pytest.raises(Exception):
            invariance_engine.block_form_check(2)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    m = tracer.metrics()
    assert m["invariance_engine.exceptions"] == 1
    assert m["lie_core.exceptions"] == 0


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.OPERATIONS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
