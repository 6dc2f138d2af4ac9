"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/collect.py --workload all --seeds 1..10 --out perfbench/out/summary.json

For every workload, runs ``run.py --trace 0`` once per seed, with
``--seconds`` set to run_seconds from BENCHMARK.json, and reports each
end-to-end metric's median, quartiles and spread (q3 - q1) / median, the
measure the benchmark's bounds are judged by.  It then makes two traced
runs on the first seed and keeps their per-layer metrics, tracing
overhead included.  ``--out`` writes all of it as JSON, with the commit
and the machine it ran on; perfbench/BASELINE.json and
perfbench/BASELINE_REPEAT.json are two such files, written one after the
other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("staircase", "generic", "sampler", "census")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def commit() -> str | None:
    """HEAD, marked when src/ differs from it; None outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + (" with local changes to src/" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seeds", default="1..10", help="lo..hi")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    summary = {
        "commit": commit(),
        "how": " ".join(["python3", "perfbench/collect.py", *sys.argv[1:]]),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": [seeds[0], seeds[-1]],
        "workloads": {},
    }
    for workload in workloads:
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        traced = [run(workload, seeds[0], seconds, 1) for _ in range(2)]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]
            },
            "traced_correct": [r["correct"] for r in traced],
            "traced": {
                name: [r["metrics"][name]["value"] for r in traced] for name in traced[0]["metrics"]
            },
        }
        summary["workloads"][workload] = entry
        for name, stats in entry["metrics"].items():
            print(f"{workload:<10} {name:<12} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}", flush=True)
        print(f"{workload:<10} correct {entry['correct']}  failed {entry['failed']} of {entry['attempted']}  "
              f"tracing overhead {entry['traced']['trace.overhead_frac']}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
