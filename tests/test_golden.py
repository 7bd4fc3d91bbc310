"""Golden CLI reports: every subcommand's JSON report, byte for byte.

The reports are rendered in a fresh process pinned to one BLAS thread, so
the comparison does not depend on the thread count of the test run.
"""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("make_goldens", GOLDEN / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)


def test_reports_match_goldens():
    # regenerate with tests/golden/make_goldens.py when a report is meant to move
    cases = make_goldens.cases()
    assert {argv[0] for argv in cases.values()} == set(make_goldens.cli._HANDLERS)
    reports = make_goldens.reports()
    assert reports.keys() == cases.keys()
    changed = [
        name
        for name, text in reports.items()
        if text != (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    ]
    assert changed == []
