"""One set-up sample for the benchmark: time from interpreter start of this
script to a warmed-up program with the workload's inputs built.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  ``run.py`` runs it in fresh interpreters, with
the BLAS thread count already pinned in the environment.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spherequant.cli  # noqa: E402,F401  the whole package, as a user loads it
import workloads  # noqa: E402

workloads.warm_up()
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - START)
