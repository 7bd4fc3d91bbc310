"""Regenerate the golden CLI reports in this directory.

Run by hand from the repository root after a change that is meant to move
a report:

    PYTHONPATH=src python tests/golden/make_goldens.py

Each entry of cases.json maps a report name to the argument list of one
CLI invocation; its JSON report is written to <name>.json.
tests/test_golden.py compares every report byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

from invspan import cli

HERE = Path(__file__).resolve().parent


def cases() -> dict:
    return json.loads((HERE / "cases.json").read_text())


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def main() -> None:
    for name, argv in cases().items():
        (HERE / f"{name}.json").write_text(render(argv), encoding="utf-8")


if __name__ == "__main__":
    main()
