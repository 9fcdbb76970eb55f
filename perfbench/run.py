"""Benchmark entry point: runs one workload in a child process and prints
its result.

    python3 perfbench/run.py --workload desk-roundtrip --seed 1 --seconds 20 --trace 0

Workloads: desk-roundtrip, scale-k, gadget-clear (see README.md).  With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 a
separate traced run reports the per-layer metrics.  The command exits with
a non-zero code, printing no result, when the program cannot be found or
the child fails.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("desk-roundtrip", "scale-k", "gadget-clear")
# A run must end within this many seconds, set-up included.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in ("src/circuitmarket/__init__.py", "tests/oracle.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2

    child = [sys.executable, str(Path(__file__).with_name("workload.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(child, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: {args.workload} exited with {done.returncode}", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
