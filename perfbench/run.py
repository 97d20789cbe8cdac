"""End-to-end and per-layer benchmark of the csjack command line.

Usage:
    python3 perfbench/run.py --workload {jack-sym,jack-beta,verify} --seed N
                             --seconds S --trace {0,1}

A closed loop with one client: each request runs in a fresh interpreter
(`python3 -m csjack.cli ...`) with the tree's src/ on PYTHONPATH, so
interpreter start, imports and cold caches are inside every timing, as for
a user of the command line.  A run makes whole rounds of requests (see
workloads.py) until it has made the workload's minimum number of rounds and
S seconds have passed.  Every request's stdout SHA-256 must match the
committed table in digests.json; a nonzero exit, a traceback or a digest
mismatch counts the request as failed.

Timings are scaled to a reference host speed.  Before every REF_EVERY-th
request the run times a fixed stdlib-only child (REFERENCE_CODE, which
never imports csjack), and each request's wall time is multiplied by
REFERENCE_S over the mean of the REF_WINDOW reference times taken
nearest to it.  On a shared host the speed drifts by up to a factor of
two within minutes and moves every raw timing together; the scaled values
follow csjack alone.  Raw wall times stay in the details file.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every request
twice, untraced and then through tracer.py, and reports the per-layer
metrics (per-request means over the traced run) plus the tracing overhead.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Details of the run,
and its spans under --trace 1, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 7
REQUEST_TIMEOUT_S = 120
DEADLINE_S = 150  # start no new request after this long, to exit within 180 s

REF_EVERY = 2
REF_WINDOW = 5
# Wall time of the reference child on an idle 2-vCPU Xeon VM, Python 3.11.
REFERENCE_S = 0.1
REFERENCE_CODE = """
import argparse, dataclasses, itertools, json, random
from fractions import Fraction
acc = 0
for k in range(1, 8000):
    x = Fraction(k % 7, 1 + k % 11) * Fraction(k % 5 + 1, k % 5 + 2) + Fraction(k % 13, 3)
    acc += x.numerator
"""

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, aggregate, key).  Aggregates over the traced requests:
# "self" sums span time minus child span time, "incl" sums the time of the
# outermost spans of a name, "calls" counts spans, "count" sums a counter.
# Each value is divided by the number of traced requests.
LAYER_METRICS = (
    ("cli.self_s", "s", "self", "cli.main"),
    ("cli.specialize_calls", "count", "count", "cli.specialize"),
    ("rodrigues.raw_s", "s", "incl", "rodrigues.raw"),
    ("rodrigues.B_plus_calls", "count", "calls", "operators.B_plus"),
    ("rodrigues.raw_terms", "count", "count", "rodrigues.raw_terms"),
    ("rodrigues.normalize_s", "s", "self", "rodrigues.jack"),
    ("rodrigues.c_coefficient_s", "s", "incl", "rodrigues.c_coefficient"),
    ("operators.B_plus_s", "s", "incl", "operators.B_plus"),
    ("operators.D_string_calls", "count", "calls", "operators.D_string"),
    ("operators.D_string_s", "s", "incl", "operators.D_string"),
    ("operators.dunkl_calls", "count", "calls", "operators.dunkl"),
    ("operators.dunkl_s", "s", "incl", "operators.dunkl"),
    ("operators.H_s", "s", "incl", "operators.H"),
    ("operators.hatD_s", "s", "incl", "operators.hatD"),
    ("operators.N_s", "s", "incl", "operators.N"),
    ("polyring.vardiff_calls", "count", "calls", "polyring.vardiff"),
    ("polyring.vardiff_s", "s", "incl", "polyring.vardiff"),
    ("polyring.vardiff_terms_in", "count", "count", "polyring.vardiff_terms_in"),
    ("fieldring.add_calls", "count", "count", "fieldring.add"),
    ("fieldring.mul_calls", "count", "count", "fieldring.mul"),
    ("fieldring.inverse_calls", "count", "count", "fieldring.inverse"),
    ("fieldring.gcd_calls", "count", "count", "fieldring.gcd"),
    ("oracle.system_s", "s", "incl", "oracle.system"),
    ("oracle.triangular_s", "s", "incl", "oracle.triangular"),
    ("oracle.gram_schmidt_s", "s", "incl", "oracle.gram_schmidt"),
    ("symbases.expand_s", "s", "incl", "symbases.expand"),
    ("symbases.scalar_product_s", "s", "incl", "symbases.scalar_product"),
    ("symbases.circle_inner_s", "s", "incl", "symbases.circle_inner"),
) + tuple(
    (f"suites.{suite.replace('-', '_')}_s", "s", "incl", f"suites.{suite}")
    for suite in workloads.SUITES
)
# Ratios of whole-run totals, reported after LAYER_METRICS.
RATIO_METRICS = (
    ("fieldring.gcd_reducing_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

_VERIFY_TALLY = re.compile(rb"^(\d+)/(\d+) checks passed$")


def request_key(argv) -> str:
    return " ".join(argv)


class Outcome(NamedTuple):
    wall_s: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(command: list[str]) -> Outcome:
    """Run one child to completion; wall time covers process start to reap,
    peak RSS comes from wait4."""
    out_path, err_path = OUT / f"child-{os.getpid()}.stdout", OUT / f"child-{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        child = subprocess.Popen(command, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Outcome(wall, usage.ru_maxrss, child.returncode, stdout, stderr)


def untraced(argv) -> Outcome:
    return spawn([sys.executable, "-m", "csjack.cli", *argv])


def traced(argv, trace_file: Path, request_id: int) -> Outcome:
    return spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_file), str(request_id), *argv])


def reference() -> float:
    """Wall time of the reference child, a gauge of the host's speed."""
    outcome = spawn([sys.executable, "-c", REFERENCE_CODE])
    if outcome.code != 0:
        raise RuntimeError(f"reference child failed:\n{outcome.stderr}")
    return outcome.wall_s


def scale_to_reference(walls: list[float], refs: list[tuple[int, float]]) -> list[float]:
    """Each wall time times REFERENCE_S over the mean of the REF_WINDOW
    reference times taken nearest to it; refs holds (index of the wall time
    that followed, reference time)."""
    scaled = []
    for index, wall in enumerate(walls):
        near = sorted(refs, key=lambda ref: abs(ref[0] - index))[:REF_WINDOW]
        scaled.append(wall * REFERENCE_S / statistics.fmean(t for _, t in near))
    return scaled


def failure(argv, outcome: Outcome, expected: dict) -> str:
    """Why a request failed, or "" when its output is correct."""
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    if "Traceback" in outcome.stderr:
        return "traceback on stderr"
    want = expected.get(request_key(argv))
    if want is None:
        return "request missing from the digest table"
    if hashlib.sha256(outcome.stdout).hexdigest() != want:
        return "stdout digest mismatch"
    if argv[0] == "verify":
        tally = _VERIFY_TALLY.match(outcome.stdout.rstrip(b"\n").rsplit(b"\n", 1)[-1])
        if not tally or tally.group(1) != tally.group(2):
            return "verify reported failing checks"
    return ""


def tail(values) -> float:
    """Harrell-Davis estimate of the highest percentile with TAIL_BEYOND
    samples beyond it, q = 1 - TAIL_BEYOND / n.

    It weights every order statistic by the Beta((n+1)q, (n+1)(1-q))
    mass on ((i-1)/n, i/n] rather than picking one, so a gap between the
    costs of neighbouring requests cannot make it jump from run to run.
    With no more than TAIL_BEYOND samples it is their maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = workloads.TAIL_BEYOND
    if n <= beyond:
        return ordered[-1]
    a, b = (n + 1) * (n - beyond) / n, (n + 1) * beyond / n
    steps = 64  # trapezoid steps per 1/n
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) if 0 < x < 1 else 0.0

    grid = [density(t / (n * steps)) for t in range(n * steps + 1)]
    mass = [sum(grid[i * steps : (i + 1) * steps + 1]) - (grid[i * steps] + grid[(i + 1) * steps]) / 2 for i in range(n)]
    return sum(m * x for m, x in zip(mass, ordered)) / sum(mass)


def summarize_spans(spans) -> dict:
    """Per span name: calls, self time, and time of outermost spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self": 0.0, "incl": 0.0})
        entry["calls"] += 1
        entry["self"] += end - start - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["incl"] += end - start
    return out


def layer_metrics(traces: list[dict], overhead_ratio: float) -> dict:
    totals: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for trace in traces:
        for name, entry in summarize_spans(trace["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "self": 0.0, "incl": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    requests = max(len(traces), 1)
    metrics = {}
    for name, unit, aggregate, key in LAYER_METRICS:
        if aggregate == "count":
            total = counts.get(key, 0)
        else:
            total = totals.get(key, {}).get(aggregate, 0)
        metrics[name] = {"value": total / requests, "unit": unit}
    gcds = counts.get("fieldring.gcd", 0)
    ratios = {
        "fieldring.gcd_reducing_ratio": counts.get("fieldring.gcd_reducing", 0) / gcds if gcds else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, unit in RATIO_METRICS:
        metrics[name] = {"value": ratios[name], "unit": unit}
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata() -> dict:
    """Context recorded with every result; none of it is a gated metric."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def measure_setup(expected: dict) -> tuple[list[float], list[tuple[int, float]]]:
    """Wall times of the trivial request, each after a reference run; a
    first untimed request warms the bytecode cache.  Raises RuntimeError
    when the program cannot serve it."""
    walls, refs = [], []
    for attempt in range(SETUP_REPEATS + 1):
        if attempt:
            refs.append((len(walls), reference()))
        outcome = untraced(workloads.SETUP_ARGV)
        reason = failure(workloads.SETUP_ARGV, outcome, expected)
        if reason:
            raise RuntimeError(f"set-up request failed: {reason}\n{outcome.stderr}")
        if attempt:
            walls.append(outcome.wall_s)
    return walls, refs


def execute(argv, request_id: int, trace: bool, expected: dict, traces: list) -> dict:
    """One request: untraced, and under trace then traced as well."""
    outcome = untraced(argv)
    record = {
        "request": request_id,
        "argv": list(argv),
        "wall_s": outcome.wall_s,
        "rss_kb": outcome.rss_kb,
        "failure": failure(argv, outcome, expected),
    }
    if trace:
        trace_file = OUT / f"request-{os.getpid()}.trace.json"
        traced_outcome = traced(argv, trace_file, request_id)
        record["traced_wall_s"] = traced_outcome.wall_s
        if traced_outcome.stdout != outcome.stdout:
            record["failure"] = record["failure"] or "traced stdout differs from untraced"
        record["failure"] = record["failure"] or failure(argv, traced_outcome, expected)
        if trace_file.is_file():
            traces.append(json.loads(trace_file.read_text()))
            trace_file.unlink()
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, expected: dict, stream=None) -> dict:
    """One benchmark run; returns its details and writes them to OUT.
    stream overrides the workload's rounds (the self-test uses tiny ones)."""
    OUT.mkdir(exist_ok=True)
    started = perf_counter()
    setup_walls, setup_refs = measure_setup(expected)
    records: list[dict] = []
    traces: list[dict] = []
    refs: list[tuple[int, float]] = []
    stream = stream or workloads.rounds(workload, seed)
    made = 0
    cut = False
    loop_start = perf_counter()
    while not cut and (made < workloads.MIN_ROUNDS[workload] or perf_counter() - loop_start < seconds):
        for argv in next(stream):
            if perf_counter() - started > DEADLINE_S:
                cut = True
                break
            if len(records) % REF_EVERY == 0:
                refs.append((len(records), reference()))
            records.append(execute(argv, len(records), trace, expected, traces))
        made += 1
    elapsed = perf_counter() - loop_start
    if not records:
        raise RuntimeError("no request finished before the deadline")

    attempted = len(records)
    failed = sum(1 for r in records if r["failure"])
    walls = [r["wall_s"] for r in records]
    latencies = scale_to_reference(walls, refs)
    setup = scale_to_reference(setup_walls, setup_refs)
    if trace:
        overhead = statistics.median(r["traced_wall_s"] for r in records) / statistics.median(walls)
        metrics = layer_metrics(traces, overhead)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail(latencies),
            "throughput_rps": (attempted - failed) / sum(latencies),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": made,
        "cut_at_deadline": cut,
        "meta": metadata(),
        "fail_ratio": failed / attempted,
        "raw": {
            "setup_s": statistics.median(setup_walls),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": tail(walls),
            "throughput_rps": (attempted - failed) / elapsed,
            "reference_s": statistics.median(t for _, t in refs),
        },
        "result": result,
        "setup_walls_s": setup_walls,
        "setup_refs": setup_refs,
        "refs": refs,
        "requests": records,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        spans = [[t["request"], *span] for t in traces for span in t["spans"]]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    return detail


def report(detail: dict):
    """Human-readable lines, then the result object as the last line."""
    result = detail["result"]
    print(f"# workload={detail['workload']} seed={detail['seed']} rounds={detail['rounds']}")
    print(f"# meta {json.dumps(detail['meta'], sort_keys=True)}")
    print(f"# raw wall times {json.dumps(detail['raw'], sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':32s} {detail['fail_ratio']:.6g} ratio ({result['failed']}/{result['attempted']})")
    by_request: dict[str, list[float]] = {}
    for record in detail["requests"]:
        if record["failure"]:
            print(f"# FAILED {request_key(record['argv'])}: {record['failure']}")
        by_request.setdefault(request_key(record["argv"]), []).append(record["wall_s"])
    if detail["workload"] != workloads.VERIFY:
        for key in map(request_key, workloads.pinned(detail["workload"])):
            times = by_request.get(key)
            if times:
                print(f"# pinned {key}: median wall {statistics.median(times):.4f} s over {len(times)}")
    if detail["cut_at_deadline"]:
        print("# run stopped at the deadline before its rounds were complete")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "csjack" / "cli.py").is_file():
        print(f"error: no csjack sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(DIGESTS.read_text())
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
