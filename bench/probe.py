"""Set-up probe: import koblab and build one workload in a fresh process.

    python3 bench/probe.py WORKLOAD SEED WORKDIR

prints the system-wide monotonic clock once the workload is built, so the
caller (``run.py``) can take the time from process start to the first
operation ready.  It loads koblab and what building the workload needs,
nothing of the benchmark's timing, tracing or reference code.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_koblab():
    """Import koblab from the checkout's ``src/``, never from elsewhere."""
    src = os.path.realpath(os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    import koblab
    where = os.path.realpath(koblab.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"koblab was imported from {where}, not from {src}")


def main(argv) -> int:
    workload, seed, workdir = argv
    import_koblab()
    import workloads
    workloads.build(workload, int(seed), workdir)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
