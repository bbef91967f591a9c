"""Hash the benchmark's op records, to show that a change keeps them.

    python tools/op_records.py --seed 1 [--workload model-solves ...]

Run from anywhere; koblab is imported from the checkout's ``src/`` and the
workloads from its ``bench/``.  Each workload is built as the benchmark
builds it and every operation runs once, untimed, in build order.  An op
that raises is recorded as the name of its exception.  The script prints
one line per workload: its name, its op count and the SHA-256 of the
records' ``repr``, one per line.  Two checkouts that print the same hash
for a workload and seed give the benchmark the same outputs, so the same
quality metrics.  Files the CLI writes go to a temporary directory, made
the working directory so the paths in the written JSON are the same on
every run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from probe import import_koblab  # noqa: E402

import_koblab()
import workloads  # noqa: E402


def records_digest(name: str, seed: int) -> tuple:
    """(op count, SHA-256 hex digest of the records) of one workload."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="op-records-") as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            ops = workloads.build(name, seed, ".").ops
            for op in ops:
                try:
                    rec = op.collect(op.run())
                except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                    rec = type(exc).__name__
                digest.update(repr(rec).encode() + b"\n")
        finally:
            os.chdir(here)
    return len(ops), digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append",
                   choices=workloads.WORKLOADS,
                   help="a workload to run (repeatable; default all)")
    args = p.parse_args(argv)
    for name in args.workload or workloads.WORKLOADS:
        n, hexdigest = records_digest(name, args.seed)
        print(f"{name} seed={args.seed} ops={n} sha256={hexdigest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
