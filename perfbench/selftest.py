"""Self-test of the csjack benchmark.

Usage:
    python3 perfbench/selftest.py          # quick, about a minute
    python3 perfbench/selftest.py --full   # every digest against the oracles

Quick mode checks that BENCHMARK.json, layer_map.json and the code agree,
that every request a seed can draw has a digest, that a sample of the jack
digests matches the oracle routes, that the harness runs each workload
(traced too) with every digest matching, that a corrupted expected digest
is counted in fail_ratio instead of crashing the run, and that the
benchmark refuses to run without the csjack sources.

The oracle route builds each polynomial with oracle.jack_by_triangular_H
(and checks it against jack_by_gram_schmidt where |lambda| <= N), derives
the raw and Stanley normalizations from c_coefficient, and lets the CLI
render it, so a digest that encodes a wrong creation product fails here.
Full mode does this for every jack digest and reruns every verify request.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys

import run
import workloads
from make_digests import cli_stdout

sys.path.insert(0, str(run.SRC))

from csjack import oracle, rodrigues, suites  # noqa: E402
from csjack.partitions import Partition  # noqa: E402

QUICK_SAMPLE = 24


def check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def check_manifest():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((run.BENCH / "layer_map.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload list")
    check(set(layer_map["workloads"]) == set(workloads.WORKLOADS), "layer_map workloads")
    check(set(workloads.SUITES) == set(suites.SUITES), "registered suites differ from workloads.SUITES")
    check(
        [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
        "end_to_end metrics differ from run.END_TO_END",
    )
    layer = [(name, unit) for name, unit, _, _ in run.LAYER_METRICS] + list(run.RATIO_METRICS)
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == layer, "per_layer metrics differ from run.py")
    check(list(layer_map["layers"]) == [name for name, _ in layer], "layer_map layers differ from per_layer")
    e2e = {m["name"] for m in bench["end_to_end"]}
    for name, entry in layer_map["layers"].items():
        check(set(entry["moves"]) <= e2e and set(entry["on"]) <= set(workloads.WORKLOADS), f"layer_map {name}")


def check_request_space(expected: dict):
    space = [run.request_key(argv) for argv in workloads.request_space()]
    check(sorted(space) == sorted(expected), "digests.json keys differ from the request space")
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            stream = workloads.rounds(workload, seed)
            for _ in range(workloads.MIN_ROUNDS[workload]):
                batch = next(stream)
                check(len(batch) * workloads.MIN_ROUNDS[workload] >= 50, f"{workload}: fewer than 50 requests")
                check(all(run.request_key(argv) in expected for argv in batch), f"{workload} draws outside the table")
                if workload != workloads.VERIFY:
                    check(batch[:5] == workloads.pinned(workload), f"{workload} lost its pinned cases")
    check(next(workloads.rounds("jack-sym", 7)) == next(workloads.rounds("jack-sym", 7)), "seeding")


def oracle_stdout(argv, cache: dict) -> bytes:
    """stdout of a jack request with the polynomial built by the oracles."""
    nvars = int(argv[argv.index("--nvars") + 1])

    def oracle_jack(lam, ctx, normalization="monic"):
        lam = Partition(lam)
        key = (tuple(lam), nvars)
        if key not in cache:
            monic = oracle.jack_by_triangular_H(lam, ctx)
            if lam.weight <= nvars:
                check(monic == oracle.jack_by_gram_schmidt(lam, ctx), f"oracles disagree on {key}")
            cache[key] = monic
        shift = lam[-1] if len(lam) == nvars else 0
        c = rodrigues.c_coefficient(Partition(x - shift for x in lam), ctx)
        monic = cache[key]
        return rodrigues.JackResult(lam, ctx, normalization, monic.scale(c), c, monic, shift)

    return _cli_stdout(argv, oracle_jack)


def _cli_stdout(argv, jack=None) -> bytes:
    """stdout of a request run in this process, optionally with
    rodrigues.jack replaced where the CLI looks it up."""
    original = rodrigues.jack
    rodrigues.jack = jack or original
    try:
        return cli_stdout(argv)
    finally:
        rodrigues.jack = original


def check_digests_against_oracles(expected: dict, full: bool):
    space = workloads.request_space()
    jack_requests = [argv for argv in space if argv[0] == "jack"]
    if not full:
        fixed = [workloads.SETUP_ARGV] + workloads.pinned(workloads.JACK_SYM) + workloads.pinned(workloads.JACK_BETA)
        jack_requests = fixed + random.Random(0).sample(jack_requests, QUICK_SAMPLE)
    cache: dict = {}
    for argv in jack_requests:
        digest = hashlib.sha256(oracle_stdout(argv, cache)).hexdigest()
        check(digest == expected[run.request_key(argv)], f"oracle route disagrees: {run.request_key(argv)}")
    checked = len(jack_requests)
    if full:
        for argv in (a for a in space if a[0] == "verify"):
            reason = run.failure(argv, run.Outcome(0.0, 0, 0, _cli_stdout(argv), ""), expected)
            check(not reason, f"{run.request_key(argv)}: {reason}")
            checked += 1
    print(f"ok   {checked} digests match the independent routes")


def _small_stream(workload: str):
    if workload == workloads.VERIFY:
        batch = [workloads.verify_argv("spectrum-consistency", 4, 3), workloads.verify_argv("commutators", 4, 3)]
    else:
        batch = workloads.pinned(workload)[:2]
    return itertools.repeat(batch)


def check_harness(expected: dict):
    names = [name for name, _ in run.END_TO_END]
    for workload in workloads.WORKLOADS:
        detail = run.run(workload, 0, 0, False, expected, _small_stream(workload))
        result = detail["result"]
        check(result["correct"] and result["failed"] == 0, f"{workload}: {detail['requests']}")
        check(list(result["metrics"]) == names, f"{workload}: metric names")
        check(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: a metric is not positive")
    print("ok   every workload runs and its digests match")

    corrupted = dict(expected)
    victim = run.request_key(workloads.pinned(workloads.JACK_SYM)[1])
    corrupted[victim] = "0" * 64
    detail = run.run(workloads.JACK_SYM, 0, 0, False, corrupted, _small_stream(workloads.JACK_SYM))
    result = detail["result"]
    check(not result["correct"] and result["failed"] == 1 and result["attempted"] == 2, f"corrupted: {result}")
    check(detail["fail_ratio"] == 0.5, f"fail_ratio {detail['fail_ratio']}")
    print("ok   a corrupted digest counts in fail_ratio")

    layer = [name for name, *_ in run.LAYER_METRICS] + [name for name, _ in run.RATIO_METRICS]
    for workload in workloads.WORKLOADS:
        detail = run.run(workload, 0, 0, True, expected, _small_stream(workload))
        result = detail["result"]
        check(result["correct"], f"traced {workload}: {detail['requests']}")
        check(list(result["metrics"]) == layer, f"traced {workload}: metric names")
        busy = "rodrigues.raw_s" if workload != workloads.VERIFY else "suites.commutators_s"
        check(result["metrics"][busy]["value"] > 0, f"traced {workload}: {busy} is 0")
    print("ok   traced runs report every per-layer metric with matching stdout")


def check_refuses_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "jack-sym", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the csjack sources")
    print("ok   refuses to run without the csjack sources")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="check every digest against the oracles")
    args = parser.parse_args(argv)
    expected = json.loads(run.DIGESTS.read_text())
    check_manifest()
    print("ok   BENCHMARK.json, layer_map.json and run.py agree")
    check_request_space(expected)
    print(f"ok   all {len(expected)} drawable requests have digests")
    check_digests_against_oracles(expected, args.full)
    check_harness(expected)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
