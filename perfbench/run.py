"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The seeded inputs are written to a
temporary directory under ``.perfbench_work/`` by a child process, then
the workload runs in this process, so peak RSS is the workload's own.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
and the tracing overhead instead. The exit code is 1 when any output
check fails. ``--workload all`` runs every workload, each in its own
process, one after another.
"""

import bootstrap  # pins BLAS threads before numpy loads

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GENERATE_TIMEOUT_S = 170
WORKLOAD_TIMEOUT_S = 900


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description="linecontrast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's l_total trajectory as the reference "
                             "(training workloads, default seed, --trace 0)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": bootstrap.BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def record_reference(name: str, trajectory: list[float]) -> None:
    import workloads

    path = workloads.REFERENCE_PATH
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[name] = {"seed": workloads.DEFAULT_SEED, "rel_tol": workloads.TRAJECTORY_RTOL,
                    "blas_threads": bootstrap.BLAS_THREADS, "l_total": trajectory}
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(trajectory)} reference steps for {name} in {path.name}")


def run_one(args) -> int:
    import workloads

    if args.record_reference and (args.seed != workloads.DEFAULT_SEED or args.trace
                                  or not isinstance(workloads.WORKLOADS[args.workload],
                                                    workloads.TrainWorkload)):
        sys.exit("--record-reference needs a training workload, the default seed and --trace 0")
    work_root = bootstrap.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload", args.workload,
                            "--seed", str(args.seed), "--out", tmp],
                           check=True, timeout=GENERATE_TIMEOUT_S)
            result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   Path(tmp))
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    missing = sorted(set(units) - set(result.metrics))
    correct = result.failed == 0 and not missing
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for note in result.notes:
        print(note)
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if missing:
        print("CHECK FAILED: no value for " + ", ".join(missing))
    for name, value in result.metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {result.failed / max(result.attempted, 1)!r} "
          f"({result.failed} of {result.attempted})")
    if args.trace and not missing:
        m = result.metrics
        print(f"tracing overhead: {m['trace.overhead_frac']:.1%} "
              f"(untraced {m['trace.untraced_graphs_per_s']:.1f} vs traced "
              f"{m['trace.traced_graphs_per_s']:.1f} graphs/s, over step time)")
    if args.record_reference and correct:
        record_reference(args.workload, result.trajectory)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in result.metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
