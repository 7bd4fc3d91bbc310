"""Measure one fresh-process set-up of invspan and print it in seconds.

Set-up is what every CLI call pays before its handler runs: importing the
package and its numeric modules (numpy, scipy), building the seeded input
generator and building the argument parser.  Run by run.py with the source
directory on PYTHONPATH and the BLAS thread count already pinned.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    seed = int(sys.argv[1])
    import numpy as np

    from invspan import cli, invariance_engine, monte_carlo_stats, sphere_harmonics  # noqa: F401

    np.random.default_rng(np.random.SeedSequence(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--help"])
    elapsed = time.perf_counter() - START
    if code != 0:
        sys.exit(f"invspan --help exited with {code}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
