"""Benchmark worker, started by run.py in a fresh interpreter with src/ on
the path.

It imports ``punctual.cli`` and prints ``ready``.  Then it reads one JSON
job from stdin, calls ``punctual.cli.main(argv)`` once per op, pass after
pass over the op list until the time budget is spent, and prints one JSON
result line.  The first pass's outputs go back for the oracle; every later
pass must reproduce them exactly.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def reference_seconds() -> float:
    """Time one fixed piece of plain-Python work that shares no code with
    punctual, with the collector off so the program's heap cannot slow it.
    run.py divides every timing by the nearby reference times, which
    cancels the machine's own speed swings."""
    gc.disable()
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(2500):
        acc = (acc * 31 + i) % 1000003
        table[i & 15] = [acc, i]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_job(cli, job: dict, tracer) -> dict:
    ops, budget = job["ops"], job["seconds"]
    first: list = []
    latencies = [[] for _ in ops]
    references = [[] for _ in ops]
    pass_s, layers, mismatched = [], [], []
    begin = time.perf_counter()
    # Start another pass only if it should end within the budget.
    while not pass_s or time.perf_counter() - begin + pass_s[-1] <= budget:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op_id = i
            references[i].append(reference_seconds())
            seconds, code, out, err = run_op(cli, op["argv"])
            latencies[i].append(seconds)
            if not pass_s:
                first.append([code, out, err[-2000:]])
            elif [code, out] != first[i][:2]:
                mismatched.append(i)
        pass_s.append(time.perf_counter() - pass_start)
        if tracer:
            layers.append(tracer.take())
    if tracer and job.get("spans"):
        tracer.write_spans(Path(job["spans"]))
    return {
        "pass_s": pass_s,
        "latencies": latencies,
        "references": references,
        "first": first,
        "mismatched": mismatched,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "absent": tracer.absent if tracer else [],
    }


def main() -> None:
    import punctual.cli as cli

    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps(run_job(cli, job, tracer)), flush=True)


if __name__ == "__main__":
    main()
