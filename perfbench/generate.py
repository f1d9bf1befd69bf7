"""Write one workload's seeded inputs into a directory.

    python3 perfbench/generate.py --workload desk-train --seed 0 --out DIR

``run.py`` calls this in a child process before it measures anything, so
generating the corpus costs neither the measured time nor the peak RSS
of the measured process.
"""

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
