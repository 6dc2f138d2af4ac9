"""The punctual benchmark: closed loop, one client, one fresh worker process.

    python3 perfbench/run.py --workload all --seconds 34
    python3 perfbench/run.py --workload staircase --seed 1 --seconds 34 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  The inputs come from gen.py (seeded, never importing
punctual) and every output is checked by oracle.py.  A run measures for
``--seconds`` (34 in BENCHMARK.json) per workload.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a traced run, the tracing overhead against an
untraced worker, and checks that two traced workers count the same work.
End-to-end timings are normalized for machine speed by reference work
timed before each op (see README.md).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Metric names and units come from BENCHMARK.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("staircase", "generic", "sampler", "census")
DEFAULT_SEED = 1
SETUP_PROBES = 30
# Timings are reported at the machine speed at which worker.reference_seconds()
# takes REFERENCE_S, estimated from the reference runs nearest each op.
REFERENCE_S = 0.0004
SPEED_WINDOW = 10
WORKER_TIMEOUT_S = 150
COUNT_SUFFIXES = (".calls", ".dense_mults", ".cells", ".yielded", ".colength_sum", "components_found")


class BenchError(Exception):
    pass


def _spawn(script: str, *extra, stdin=None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(HERE / script), *extra],
        stdin=stdin, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )


def _await_ready(proc: subprocess.Popen) -> None:
    if proc.stdout.readline().strip() != "ready":
        raise BenchError("worker could not import punctual.cli")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds, reference seconds) for several fresh interpreters, each
    timed from just before the spawn until punctual.cli is imported.  The
    first probe only warms the bytecode cache and is not counted."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        proc = _spawn("probe.py", repr(time.perf_counter()))
        try:
            word, ready, reference = (proc.stdout.readline().split() + ["", "", ""])[:3]
            if word != "ready":
                raise BenchError("worker could not import punctual.cli")
            probes.append((float(ready), float(reference)))
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            _stop(proc)
    return probes[1:]


def run_worker(ops: list, seconds: float, trace: bool, spans: Path | None = None) -> dict:
    proc = _spawn("worker.py", stdin=subprocess.PIPE)
    try:
        _await_ready(proc)
        job = {"ops": ops, "seconds": seconds, "trace": trace, "spans": str(spans) if spans else None}
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def grade(ops: list, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one worker's executions.

    An op whose first output fails the oracle fails on every pass; a later
    pass that does not reproduce the first output byte for byte also fails.
    """
    passes = len(result["pass_s"])
    bad, reasons = set(), []
    for i, (op, (code, out, err)) in enumerate(zip(ops, result["first"])):
        try:
            reason = oracle.check(op, code, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"malformed output ({exc!r})"
        if reason:
            bad.add(i)
            reasons.append(f"{' '.join(op['argv'])}: {reason} {err.strip()[-300:]}")
    if result["mismatched"]:
        reasons.append(f"{len(result['mismatched'])} later executions did not reproduce the first output")
    failed = len(bad) * passes + sum(1 for i in result["mismatched"] if i not in bad)
    return passes * len(ops), failed, reasons


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def normalized_latencies(result: dict) -> list[list[float]]:
    """Each op latency scaled by REFERENCE_S over the median reference time
    of the SPEED_WINDOW executions on either side of it, in run order."""
    ops, passes = len(result["references"]), len(result["pass_s"])
    order = [result["references"][i][p] for p in range(passes) for i in range(ops)]
    out = [[0.0] * passes for _ in range(ops)]
    for k in range(len(order)):
        p, i = divmod(k, ops)
        local = statistics.median(order[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1])
        out[i][p] = result["latencies"][i][p] * REFERENCE_S / local
    return out


def pass_seconds(latencies: list[list[float]]) -> list[float]:
    return [sum(column) for column in zip(*latencies)]


def _timings(latencies: list[list[float]]) -> tuple[float, float, float]:
    """wall_s, op_p50_ms and op_tail_ms from per-op, per-pass latencies."""
    per_op = sorted(statistics.median(samples) for samples in latencies)
    tail_at = max(len(per_op) - 11, 0)  # the value with 10 ops above it
    return (
        statistics.median(pass_seconds(latencies)),
        1000 * statistics.median(per_op),
        1000 * per_op[tail_at],
    )


def end_to_end(result: dict, probes: list) -> tuple[dict, dict, list[str]]:
    """Normalized metrics, the same metrics unnormalized, and notes."""
    normalized = normalized_latencies(result)
    setups = [ready for ready, _ in probes]
    rss = result["peak_rss_kb"] / 1024
    names = ("wall_s", "op_p50_ms", "op_tail_ms")
    values = dict(zip(names, _timings(normalized)))
    values["setup_s"] = statistics.median(ready * REFERENCE_S / ref for ready, ref in probes)
    values["peak_rss_mb"] = rss
    raw = dict(zip(names, _timings(result["latencies"])), setup_s=statistics.median(setups))
    n, passes = len(normalized), len(result["pass_s"])
    references = [r for samples in result["references"] for r in samples]
    notes = [
        f"wall_s: median of {passes} passes, quartiles {_quartiles(pass_seconds(normalized))}",
        f"op_tail_ms: p{100 * (n - 10) / n:.2f} of {n} ops (10 ops above it); op_p50_ms: median over {n} ops",
        f"setup_s: median of {len(setups)} fresh interpreters importing punctual.cli",
        f"reference work: median {1000 * statistics.median(references):.4f} ms in the worker "
        f"(normalized timings assume {1000 * REFERENCE_S:.4f} ms)",
    ]
    return values, raw, notes


def _is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def per_layer(names: list[str], plain: dict, traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced workers, notes, and the count
    metrics that differ between any two traced passes."""
    passes = [layers for result in traced for layers in result["layers"]]
    reference = passes[0]
    diffs = sorted(
        {k for layers in passes for k in layers.keys() | reference.keys()
         if _is_count(k) and layers.get(k) != reference.get(k)}
    )
    traced_wall = statistics.median(t for result in traced for t in pass_seconds(normalized_latencies(result)))
    plain_wall = statistics.median(pass_seconds(normalized_latencies(plain)))
    values = {}
    for name in names:
        if name == "trace.overhead_frac":
            values[name] = traced_wall / plain_wall - 1
        elif _is_count(name):
            values[name] = reference.get(name, 0)
        else:
            values[name] = statistics.median(layers.get(name, 0.0) for layers in passes)
    notes = [f"traced passes: {len(passes)} in {len(traced)} workers; untraced passes: {len(plain['pass_s'])}"]
    absent = sorted(set(traced[0]["absent"]))
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    notes.append("count self-check: " + ("identical in every traced pass" if not diffs else "DIFFERS: " + ", ".join(diffs)))
    return values, notes, diffs


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ops = gen.make_ops(workload, seed, ROOT / "tests" / "golden")
    print(f"workload: {workload}   seed: {seed}   seconds: {seconds}   trace: {int(trace)}   ops per pass: {len(ops)}")
    raw = {}
    if trace:
        share = seconds / 3
        spans = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
        results = [run_worker(ops, share, False), run_worker(ops, share, True, spans), run_worker(ops, share, True)]
        names = [m["name"] for m in spec["per_layer"]]
        values, notes, count_diffs = per_layer(names, results[0], results[1:])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        notes.append(f"spans: {spans.relative_to(ROOT)}")
    else:
        # The set-up probes count against the run's seconds.
        start = time.perf_counter()
        probes = setup_seconds()
        results = [run_worker(ops, seconds - (time.perf_counter() - start), False)]
        values, raw, notes = end_to_end(results[0], probes)
        count_diffs = []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = failed = 0
    reasons = []
    for result in results:
        a, f, r = grade(ops, result)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
    for name, value in values.items():
        unnormalized = f"   (unnormalized {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{unnormalized}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio ({failed} of {attempted} op executions)")
    for line in notes + reasons[:20]:
        print(f"    {line}")
    return {
        "correct": failed == 0 and not count_diffs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="how long one workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "punctual" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} holds no punctual checkout (src/punctual, tests/golden)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcome = {}
    try:
        for workload in workloads:
            outcome[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(outcome))
    else:
        print(json.dumps(outcome[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
