"""Time one barylp CLI op at the BLAS thread count the environment gives.

    python3 perfbench/blas_probe.py solve --formulation reduced --out OUT INSTANCE

Runs the op once to warm up, then three times, and prints the median
seconds per call.  ``run.py`` starts it with the thread count barylp would
get by default and compares it with the same op's time at one thread.
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from barylp import cli  # noqa: E402


def timed_call(argv: list[str]) -> float:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        sys.exit(f"blas_probe: barylp {' '.join(argv)} exited {code}")
    return seconds


if __name__ == "__main__":
    argv = sys.argv[1:]
    timed_call(argv)
    print(statistics.median(timed_call(argv) for _ in range(3)))
