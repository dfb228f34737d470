#!/usr/bin/env python3
"""Record the reference final accuracy and attack rate of every run of every
workload, for a range of seeds, into reference.tsv.

The correctness gate in run.py compares each run against these values when
the benchmark's seed is recorded here. Re-record only when a change is
meant to alter simulation results (or a workload's run length changes),
and say so in the change.

    python3 perfbench/record_reference.py [--seeds 0-99]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99")
    args = parser.parse_args()
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)

    lines = ["workload\trounds\tseed\trun\tfinal_accuracy\tattack_rate"]
    problems = 0
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in run.WORKLOADS.items():
            for seed in parse_seeds(args.seeds):
                bench = run.Bench(name, seed)
                bench.reference = None
                op = bench.run_op()
                for problem in op.problems:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                    problems += 1
                lines += [f"{name}\t{wl.rounds}\t{seed}\t{key}\t{acc}\t{atk}"
                          for key, (acc, atk) in sorted(op.values.items())]
            print(f"{name}: done", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    if problems:
        print("not written: some runs failed the gate", file=sys.stderr)
        return 1
    run.REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
