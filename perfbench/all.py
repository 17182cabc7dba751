"""Run every workload, each in a fresh process, and print their reports.

Run from the root of a checkout:

    python3 perfbench/all.py --seed 1 [--seconds 12] [--trace 1]

Prints each workload's report (metrics with their units, ``fail_ratio`` and,
on sched-*, ``mean_queue_total``) with the workload name in front, and exits
1 if any output was wrong or any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name} FAILED (exit {done.returncode})\n{done.stderr}")
            ok = False
            continue
        *report, last = done.stdout.strip().splitlines()
        for line in report:
            print(f"{name:12s} {line}")
        ok &= json.loads(last)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
