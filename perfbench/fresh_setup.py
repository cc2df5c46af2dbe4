"""One benchmark set-up in a fresh interpreter, timed by run.py.

    python3 perfbench/fresh_setup.py WORKLOAD INSTANCE_SEED WORKDIR

Imports mwmatch, pays the first-call costs and builds the first instance
of WORKLOAD, then exits. The parent times the whole process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]]
workloads.warm_up(w, sys.argv[3])
workloads.prepare(w, int(sys.argv[2]), sys.argv[3])
