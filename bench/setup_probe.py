"""Set-up of one workload: import `sfcomp`, parse its YAML models, build its inputs.

`timed_setup` is the set-up the benchmark itself runs. Run as a script, this
file times that set-up once in a fresh interpreter and prints the seconds, so
that `setup_s` can be a median over cold starts:

    python3 bench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# One thread per native pool: set before numpy is first imported, and
# inherited by the set-up probes.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def timed_setup(workload: str, seed: int):
    """(prepared inputs, spec, seconds); inputs are generated before the clock starts."""
    os.environ.update(dict.fromkeys(SINGLE_THREAD_ENV, "1"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import inputs

    spec = inputs.make(workload, seed)
    t0 = time.perf_counter()
    import workloads  # numpy and sfcomp are first imported here, inside the timing

    prep = workloads.BUILD[workload](spec)
    return prep, spec, time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(timed_setup(sys.argv[1], int(sys.argv[2]))[2]))
