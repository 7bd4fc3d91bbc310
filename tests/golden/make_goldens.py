"""Regenerate the golden CLI reports in this directory.

Run by hand from the repository root after a change that is meant to move
a report:

    PYTHONPATH=src python tests/golden/make_goldens.py

Each entry of cases.json maps a report name to the argument list of one
CLI invocation; its JSON report is written to <name>.json.
tests/test_golden.py compares every report byte for byte.

Some statistics move in their last digits with the BLAS thread count, so
every report is rendered in a fresh process pinned to one thread: the
child gets INVSPAN_THREADS=1 and none of the BLAS thread variables, which
the CLI's cap would otherwise leave as they are.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from invspan import cli

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cases() -> dict:
    return json.loads((HERE / "cases.json").read_text())


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def reports() -> dict:
    """Every case's report, name -> text, rendered in a one-thread child process."""
    # the child runs the same package this module imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {var: value for var, value in os.environ.items() if var not in BLAS_THREAD_VARS}
    env["INVSPAN_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--print"], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def main() -> None:
    if sys.argv[1:] == ["--print"]:
        json.dump({name: render(argv) for name, argv in cases().items()}, sys.stdout)
        return
    for name, text in reports().items():
        (HERE / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
