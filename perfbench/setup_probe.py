"""Time one benchmark set-up in a fresh process: import expcompare, build the inputs.

Usage: python3 setup_probe.py WORKLOAD SEED WORKDIR (with ``src/`` on
PYTHONPATH).  Prints the seconds taken; ``run.py`` reports the median
over several such processes as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
import expcompare  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - start)
