"""Self-test of the benchmark itself, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that each
prints every metric BENCHMARK.json names, with its unit, and nothing else,
and that every operation passes its checks.  Then it corrupts one
certificate of the queries workload (one move's position shifted) and
checks that the run completes and counts exactly that operation as failed.
Exits 0 when every check holds.
"""

import contextlib
import io
import json
import sys

import run

SEED = 7


def _run_quiet(workload, trace):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.benchmark(workload, SEED, 0, trace)
    return result, printed.getvalue().splitlines()


def _shift_one_move(decide):
    """decide_coherence, except that the first certificate with moves comes
    back with its middle move's position shifted by one."""
    done = []

    def corrupting(w1, w2):
        verdict = decide(w1, w2)
        moves = list(verdict.certificate.moves)
        if done or not moves:
            return verdict
        done.append(True)
        k = len(moves) // 2
        moves[k] = moves[k]._replace(position=moves[k].position + 1)
        cert = verdict.certificate._replace(moves=tuple(moves))
        return verdict._replace(certificate=cert)

    return corrupting


def main():
    if not run.use_engine():
        print("error: no engine sources next to the benchmark", file=sys.stderr)
        return 2
    from operahedra import coherence
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json names {names}, the benchmark has {sorted(WORKLOADS)}")

    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = _run_quiet(WORKLOADS[name](SEED, tiny=True), trace)
            label = f"{name} trace={int(trace)}"
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{label}: metrics {got} differ from {wanted}")
            for metric, unit in wanted.items():
                if not any(
                    line.startswith(f"  {metric} = ") and line.endswith(f" {unit}")
                    for line in lines
                ):
                    problems.append(f"{label}: {metric} is not printed with unit {unit}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} operations failed")
            print(f"{label}: {len(got)} metrics, {result['attempted']} operations")

    decide = coherence.decide_coherence
    coherence.decide_coherence = _shift_one_move(decide)
    try:
        result, _ = _run_quiet(WORKLOADS["queries"](SEED, tiny=True), False)
    finally:
        coherence.decide_coherence = decide
    if result["correct"] or result["failed"] != 1:
        problems.append(
            f"corrupted certificate: correct={result['correct']}, "
            f"failed={result['failed']} (expected 1)"
        )
    print(f"corrupted certificate: {result['failed']} of {result['attempted']} failed")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
