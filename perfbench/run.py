"""Benchmark of the operahedra engine, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, a closed loop with one client: each operation
starts when the previous one returns.  A run generates its inputs from the
seed, then repeats rounds until the timed phases add up to --seconds and at
least MIN_ROUNDS rounds have run.  A round clears the skeleton cache, times
the engine's set-up, and times every operation of the workload once,
checking each output outside the timed phase (see run_round).  Workloads
and their checks are in workloads.py.

Every round runs the same inputs from the same cold state, so each operation
is timed once per round and its latency is the least of those times: other
tenants of a shared machine slow the processor by up to 1.7 times for
spells of a few seconds, and the least of repetitions spread over the whole
run filters that out.  That takes many rounds, so every operation of a
workload is kept well under a second.  Latency percentiles are taken over
these per-operation latencies, and ops_per_s is their count over their sum.  setup_s is the median time of the rounds'
set-ups; a set-up shorter than MIN_SETUP_S is repeated within its round.

With --trace 0 the last line reports the end-to-end metrics.  With --trace 1
the rounds alternate between untraced and traced; the traced ones record a
span around every public engine call (see tracing.py).  Per-layer metrics
come from the fastest traced round, i.e. one set-up plus one pass over the
inputs, and the tracing overhead from comparing it with the fastest
untraced round.  Spans are written to .bench_trace/ in the checkout.
"""

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
TRACED_MIN_ROUNDS = 4
MIN_SETUP_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def use_engine():
    """Put the checkout's engine first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "operahedra" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def _no_span(name, op_id):
    return nullcontext()


def judge(w, state, k, item, out, passed):
    """What is wrong with output `out` of item k, or None if it is right.

    `passed[k]` holds the pickled answer of item k once an output has passed
    the full check; an equal answer in a later round needs no second check.
    Pickled answers are bytes, which the collector does not walk."""
    if isinstance(out, Exception):
        return f"raised {out!r}"
    try:
        answer = pickle.dumps(w.answer(out))
        if answer == passed[k]:
            return None
        problem = w.check(state, item, out)
    except Exception as exc:  # a crashing check is a failed operation
        return f"check raised {exc!r}"
    if not problem:
        passed[k] = answer
    return problem


def run_round(w, round_no, passed, tracer=None):
    """Set up once, then run every input of `w` once.  Each output is
    checked and dropped as soon as its operation has been timed, so the
    heap does not grow with the outputs of earlier operations.

    The operations of an isolated workload are independent of each other:
    each one also starts from a cold skeleton cache and a collected heap.
    So the order of the inputs, which the seed shuffles, changes neither
    what an operation does nor what the collector walks during it.  The
    other workloads run their inputs as one stream on warm state, as a
    batch client would."""
    from operahedra.skeleton import build_skeleton

    build_skeleton.cache_clear()
    gc.collect()
    counters = Counter()
    first_span = len(tracer.spans) if tracer else 0
    span = tracer.span if tracer else _no_span
    setups = []
    with tracer.installed(counters) if tracer else nullcontext():
        # An untraced round repeats a set-up shorter than MIN_SETUP_S, so
        # that setup_s has enough samples to be steady; a traced round sets
        # up once, so that its per-layer figures are per set-up.
        while not setups or (tracer is None and sum(setups) < MIN_SETUP_S):
            build_skeleton.cache_clear()  # also zeroes its hit and miss counts
            start = time.perf_counter()
            with span("bench.setup", f"{round_no}.setup"):
                state = w.setup()
            setups.append(time.perf_counter() - start)
        info = build_skeleton.cache_info()
        hits, misses = info.hits, info.misses
        latencies, failures = [], []
        for k, item in enumerate(w.items):
            if w.isolated:
                build_skeleton.cache_clear()
                gc.collect()
            before = build_skeleton.cache_info()
            t0 = time.perf_counter()
            try:
                with span("bench.op", f"{round_no}.{k}"):
                    out = w.run(state, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            latencies.append(time.perf_counter() - t0)
            after = build_skeleton.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            failures.append(judge(w, state, k, item, out, passed))
            out = None
    counters["skeleton.cache_hits"] = hits
    counters["skeleton.cache_misses"] = misses
    return {
        "setups": setups,
        "setup_s": setups[-1],
        "ops_time": sum(latencies),
        "latencies": latencies,
        "failures": [f for f in failures if f],
        "counters": counters,
        "self_ns": tracer.self_times_ns(first_span) if tracer else None,
    }


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_latencies(rounds):
    """Each operation's least latency over the rounds."""
    return [min(times) for times in zip(*(r["latencies"] for r in rounds))]


def end_to_end(w, rounds):
    best = best_latencies(rounds)
    return {
        "setup_s": statistics.median(s for r in rounds for s in r["setups"]),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_tail_ms": percentile(best, w.tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _wall_ms(r):
    return (r["setup_s"] + r["ops_time"]) * 1e3


def per_layer(plain, traced):
    """Per-layer metrics of the fastest traced round, and the cost of tracing
    against the fastest untraced round of the same run."""
    from tracing import LAYER_NAMES

    fastest = min(traced, key=_wall_ms)
    plain_ms = min(_wall_ms(r) for r in plain)
    ms = {name: fastest["self_ns"].get(name, 0) / 1e6 for name in LAYER_NAMES}
    c = fastest["counters"]

    def us_per(layers, count):
        return _ratio(sum(ms[name] for name in layers) * 1e3, c[count])

    metrics = {f"{name}.ms": (value, "ms") for name, value in ms.items()}
    metrics.update({
        "trees.nestings": (c["trees.nestings"], "count"),
        "skeleton.cells": (c["skeleton.cells"], "count"),
        "skeleton.us_per_cell": (us_per(["skeleton.Skeleton"], "skeleton.cells"), "us/cell"),
        "skeleton.cache_hits": (c["skeleton.cache_hits"], "count"),
        "skeleton.cache_misses": (c["skeleton.cache_misses"], "count"),
        "complexes.morse_us_per_cell": (
            us_per(["complexes.morse_certificate"], "complexes.morse_cells"), "us/cell"),
        "complexes.link_max": (c["complexes.link_max"], "count"),
        "complexes.link_mean": (
            _ratio(c["complexes.link_total"], c["complexes.link_vertices"]),
            "count"),
        "complexes.homology_us_per_cell": (
            us_per(["complexes.homology"], "complexes.homology_cells"), "us/cell"),
        "complexes.dense_entries": (c["complexes.dense_entries"], "count"),
        "coherence.parse_us_per_move": (
            us_per(["trees.parse_expression", "coherence.maclane_parse",
                    "coherence.parse_word_text"], "coherence.parsed_moves"), "us/move"),
        "coherence.replay_us_per_move": (
            us_per(["coherence.word_to_path"], "coherence.replayed_moves"), "us/move"),
        "homotopy.cert_moves": (c["homotopy.cert_moves"], "count"),
        "homotopy.generate_us_per_move": (
            us_per(["homotopy.general"], "homotopy.cert_moves"), "us/move"),
        "homotopy.face_share": (
            _ratio(c["homotopy.face_moves"], c["homotopy.cert_moves"]),
            "ratio"),
        "homotopy.verify_us_per_move": (
            us_per(["homotopy.verify_certificate"], "homotopy.verified_moves"), "us/move"),
        "gc.collections": (c["gc.collections"], "count"),
        "gc.pause_ms": (c["gc.pause_ns"] / 1e6, "ms"),
        "trace.overhead_frac": (_wall_ms(fastest) / plain_ms - 1, "ratio"),
        "trace.accounted_frac": (sum(ms.values()) / plain_ms, "ratio"),
    })
    return metrics


def benchmark(w, seed, seconds, trace):
    """Run workload `w`, print the run context and metrics, and return the
    result object that run.py prints as its last line."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    rounds = []
    passed = [None] * len(w.items)
    min_rounds = TRACED_MIN_ROUNDS if trace else MIN_ROUNDS
    while (
        len(rounds) < min_rounds
        or sum(r["ops_time"] for r in rounds) < seconds
        or (trace and len(rounds) % 2)
    ):
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(w, len(rounds), passed, tracer if traced else None))

    plain = [r for r in rounds if r["self_ns"] is None]
    best = best_latencies(plain)
    beyond = sum(x > percentile(best, w.tail) for x in best)
    attempted = sum(len(r["latencies"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    print(f"workload: {w.name} -- {why}")
    print(
        f"context: seed={seed} python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} rounds={len(rounds)} trace={int(trace)} "
        f"samples={len(best)} (each the least of {len(plain)} untraced rounds) "
        f"tail=p{w.tail} ({beyond} samples beyond it)"
    )
    if trace:
        metrics = per_layer(plain, [r for r in rounds if r["self_ns"] is not None])
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{w.name}-seed{seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(w, plain)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for problem in failures[:5]:
        print(f"failure: {problem}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_engine():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed)
    result = benchmark(w, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
