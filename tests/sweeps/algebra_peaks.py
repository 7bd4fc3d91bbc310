"""Fit the memory models behind the CLI's size ceilings, one fresh process per size.

Each command with a size ceiling (verify-span and orbit-walk --ell;
decompose, character and block-check --n) runs through `cli.main` in a
fresh interpreter with one BLAS thread (INVSPAN_THREADS=1 and no BLAS
thread variable), its report discarded.  Peak RSS above the interpreter
is the run's `ru_maxrss` minus that of the same command at its smallest
size (ell = 1, n = 4), and the script divides it by the model's unit:
8 m^2 bytes for decompose, character and block-check (m = n(n - 1)/2)
and 8 d^2 for verify-span and for orbit-walk at its default --n
(d = 2 ell + 1).  verify-span's certificate holds only 3 x m flattened
rows, so its peak is the generators' and the d x d factorizations'; its
time grows as d^3.  orbit-walk runs at sizes where the walk's d^2 terms
(a piece's step matrices, the generators and `z_to_y`) outweigh the
uniformity test's fixed buffers; its time still grows as 20000 d^3,
since each step matrix is built from dense products.  The models,
c x unit, are `_MEMORY_MODELS` in tests/test_invariance_engine.py,
which also derives each ceiling from its model.

    PYTHONPATH=src python tests/sweeps/algebra_peaks.py [--commands block-check,orbit-walk]

It prints one line per size: the peak above the interpreter in MiB, the
ratio to the unit and the model's c.  It exits 1 if any ratio exceeds
its c.  The default sizes take about 75 s and stay below 400 MB;
never run a size near the machine's memory.  pytest does not collect
this file; tests/test_invariance_engine.py holds each model under
tracemalloc at one small size.
"""

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from invspan import cli

SIZES = {
    "verify-span": (64, 128, 256),
    "decompose": (48, 64, 80),
    "character": (48, 64, 80),
    "block-check": (48, 64, 80),
    "orbit-walk": (48, 64, 80),
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def peak_kib(argv) -> int:
    """ru_maxrss of a fresh interpreter that runs cli.main(argv), in KiB."""
    env = {var: value for var, value in os.environ.items() if var not in BLAS_THREAD_VARS}
    env["INVSPAN_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--run", *argv], env=env, capture_output=True, text=True, check=True
    )
    return int(proc.stdout)


def ceilinged_option(command: str) -> str:
    """The option of command that has a ceiling in the CLI table."""
    options = cli._COMMANDS[command][2]
    (option,) = [o for o in options if cli._option_spec(command, o).get("range", (None, None))[1] is not None]
    return option


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", default=",".join(SIZES), help="comma-separated commands")
    args = parser.parse_args()
    start = time.perf_counter()
    # every child is started before this process loads numpy: a child's
    # ru_maxrss starts at the RSS of the process that forked it
    above = {}
    for command in args.commands.split(","):
        option = ceilinged_option(command)
        lowest, _ = cli._option_spec(command, option)["range"]
        base = peak_kib([command, f"--{option}", str(lowest)])
        for size in SIZES[command]:
            above[command, option, size] = 1024 * (peak_kib([command, f"--{option}", str(size)]) - base)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from test_invariance_engine import _MEMORY_MODELS

    over = 0
    for (command, option, size), peak in above.items():
        _, _, c, unit = _MEMORY_MODELS[command]
        ratio = peak / unit(size)
        over += ratio > c
        print(
            f"{command} --{option} {size}: {peak / 2**20:.1f} MiB above the interpreter, "
            f"{ratio:.2f} x unit (c = {c}){'  OVER' if ratio > c else ''}"
        )
    print(f"{over} sizes over their model, {time.perf_counter() - start:.1f} s")
    return 1 if over else 0


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run(sys.argv[2:])
    else:
        sys.exit(main())
