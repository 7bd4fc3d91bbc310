"""The output checkers accept real reports and reject corrupted ones."""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from invspan import cli
from perfbench import checks, run, workloads

SCHEMA = checks.Schema(run.SCHEMA)


def _report(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    payload = json.loads(buf.getvalue())
    assert not SCHEMA.report_problems(payload)
    return payload, code


def test_verify_span_check_rejects_short_span():
    payload, code = _report("verify-span", "--ell", "2")
    assert checks.verify_span(payload, code, 2).problems == []
    short = dict(payload, w_dim=payload["w_dim"] - 1)
    assert any("span_dim" in p for p in checks.verify_span(short, code, 2).problems)
    assert checks.verify_span(dict(payload, generator_dim=2), code, 2).problems
    assert checks.verify_span(dict(payload, full=False), code, 2).problems


@pytest.mark.parametrize("n", [4, 5, 9])
def test_algebra_checks_accept_real_reports_and_reject_wrong_characters(n):
    payload, code = _report("decompose", "--n", str(n))
    assert checks.decompose(payload, code, n).problems == []
    wrong = dict(payload, stabilizer_dim=payload["stabilizer_dim"] + 1)
    assert checks.decompose(wrong, code, n).problems

    payload, code = _report("character", "--n", str(n))
    assert checks.character(payload, code, n).problems == []
    assert checks.character(dict(payload, v2=payload["v2"] + 1.0), code, n).problems

    payload, code = _report("block-check", "--n", str(n))
    assert checks.block_check(payload, code, n).problems == []
    assert checks.block_check(dict(payload, passed=False), code, n).problems


def test_theorem2_check_rejects_flipped_reject_and_bad_p_value():
    payload, code = _report("test-theorem2", "--ell", "2", "--n", "200", "--permutations", "99", "--seed", "3")
    kwargs = dict(ell=2, n=200, permutations=99, alpha=0.01)
    verdict = checks.theorem2(payload, code, **kwargs)
    assert verdict.problems == []
    count, base = verdict.events["null_rejections"]
    assert base == 3 and count == sum(r["reject"] for r in payload["reports"].values())

    flipped = copy.deepcopy(payload)
    report = flipped["reports"]["exchangeability"]
    report["reject"] = not report["reject"]
    assert any("reject flag" in p for p in checks.theorem2(flipped, code, **kwargs).problems)

    off_grid = copy.deepcopy(payload)
    off_grid["reports"]["rotational_invariance"]["p_value"] = 0.5 / 100
    assert any("not a multiple" in p for p in checks.theorem2(off_grid, code, **kwargs).problems)


def test_null_rejection_is_an_event_not_a_failure():
    report = {"name": "exchangeability", "statistic": 1.0, "p_value": 0.005, "n_permutations": 199,
              "alpha": 0.01, "reject": True, "seed": 1}
    payload = {"command": "test-theorem2", "ell": 4, "n": 3000, "n_permutations": 199, "alpha": 0.01,
               "reports": {name: dict(report, name=name) for name in checks.THEOREM2_TESTS},
               "all_passed": False}
    verdict = checks.theorem2(payload, 1, ell=4, n=3000, permutations=199, alpha=0.01)
    assert verdict.problems == []
    assert verdict.events["null_rejections"] == (3, 3)
    assert checks.theorem2(payload, 0, ell=4, n=3000, permutations=199, alpha=0.01).problems


def test_calibrate_and_orbit_walk_checks():
    payload, code = _report("calibrate", "--n", "2", "--seed", "5")
    assert checks.calibrate(payload, code, 2).problems == []
    lying = copy.deepcopy(payload)
    entry = lying["tests"]["gaussianity_1d"]
    entry["within_band"] = not entry["within_band"]
    assert checks.calibrate(lying, code, 2).problems

    payload, code = _report("orbit-walk", "--ell", "1", "--n", "300", "--seed", "5")
    assert checks.orbit_walk(payload, code, ell=1, odd=False).problems == []
    assert checks.orbit_walk(dict(payload, passed=not payload["passed"]), code, ell=1, odd=False).problems


def test_schema_rejects_unknown_field():
    payload, _ = _report("character", "--n", "4")
    assert SCHEMA.report_problems(dict(payload, extra=1))


@pytest.mark.parametrize("n_ops", [1, 5, 45])
def test_setup_probes_run_between_the_operations_of_every_pass(n_ops):
    log = []

    def operation(index):
        def run_op():
            log.append(("op", index))
            return workloads.Outcome("{}", None)

        return workloads.Operation(str(index), run_op, lambda outcome: checks.Verdict())

    def probe():
        log.append(("probe", len(log)))
        return 0.5

    result = run._run_pass([operation(i) for i in range(n_ops)], None, probe)
    assert result.setup_s == [0.5] * run.SETUP_PROBES_PER_PASS
    assert [entry for entry in log if entry[0] == "op"] == [("op", i) for i in range(n_ops)]
    if n_ops > run.SETUP_PROBES_PER_PASS:
        # one probe after each fifth of the operations, never two in a row
        kinds = [kind for kind, _ in log]
        assert all(not (a == b == "probe") for a, b in zip(kinds, kinds[1:]))


def test_run_refuses_a_directory_without_the_source(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
