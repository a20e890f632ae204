"""The repository benchmark: seeded ``repro serve`` workloads, end to end.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run launches the real server on an
ephemeral port, drives the workload's seeded JSON-lines stream over one
closed-loop TCP connection, checks every answer against an independent
oracle and the workload guards against the ``stats`` op, stops the
server's whole process group, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
stream once untraced and once with the layer functions wrapped, and
reports the per-layer ledger.  Extra modes for checking the benchmark
itself: ``--corrupt-reference`` falsifies one oracle reference (the run
must fail) and ``--determinism`` compares two traced runs of one seed.
See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".servebench"

#: Slices of the window, each run on the next CPU (see ``session.py``).
#: A ``--trace 0`` run also times one extra server launch before each
#: slice, so set-up is the median of ``ROUNDS + 1`` launches spread over
#: the run.
ROUNDS = 10

UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "rss_mb": "MB",
}


class RunFailed(Exception):
    """A guard or an answer check failed; the run reports no numbers."""

    def __init__(self, message: str, failed: int = 0):
        super().__init__(message)
        self.failed = failed


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def p50(latencies_ns: list[int]) -> float:
    """Median latency in ms."""
    return percentile(sorted(latencies_ns), 0.5) / 1e6


def _stats(raw: bytes) -> dict:
    response = json.loads(raw)
    if not response.get("ok"):
        raise RunFailed(f"stats op failed: {response}")
    return response["stats"]


def check_guards(plan, before: dict, after: dict) -> None:
    """The workload guards, read from the ``stats`` op around the window."""
    problems = []
    if after["errors"] or after["rejected"]:
        problems.append(f"errors={after['errors']} rejected={after['rejected']}")
    cb, ca = before["cache"], after["cache"]
    if plan.workload in ("warm_translate", "cluster_warm") and ca["misses"] != cb["misses"]:
        problems.append(f"{ca['misses'] - cb['misses']} cache misses in a warm window")
    if plan.workload == "cold_translate":
        if ca["hits"] != cb["hits"]:
            problems.append(f"{ca['hits'] - cb['hits']} cache hits in a cold window")
        if cb["size"] != cb["maxsize"] or cb["evictions"] <= 0:
            problems.append(f"cache not full before the window: {cb}")
    if plan.workload == "mediate_reload":
        expected = sum(1 for r in plan.window if r.op == "reload")
        if after["reloads"] - before["reloads"] != expected:
            problems.append(
                f"{after['reloads'] - before['reloads']} reloads, expected {expected}"
            )
    if problems:
        raise RunFailed("workload guard violated: " + "; ".join(problems))


def run_session(
    plan, oracle, cpus: list[int], *, trace_dir: Path | None = None, between=None
) -> dict:
    """Launch, probe, warm up, time the window, tear down, check answers.
    ``between(r)`` runs before window round ``r``, outside the clock."""
    from session import Session, peak_rss_mb

    session = Session(plan.processes, cpus, trace_dir)
    launched = session.start()
    try:
        session.connect()
        probe = session.call(plan.lines[0])
        ready = time.perf_counter()
        start = plan.window_start
        warm, _, _ = session.drive(plan.lines[1 : start - 1])
        before = session.call(plan.lines[start - 1])
        window, latencies, elapsed = session.drive(plan.lines[start:-1], ROUNDS, between)
        after = session.call(plan.lines[-1])
        rss = peak_rss_mb(session.members())
    finally:
        session.stop()
    responses = [probe, *warm, before, *window, after]
    problems = oracle.check(plan, responses)
    if problems:
        shown = "\n  ".join(message for _, message in problems[:10])
        in_window = sum(1 for index, _ in problems if index >= plan.window_start)
        raise RunFailed(
            f"{len(problems)} answers failed the oracle:\n  {shown}", failed=in_window
        )
    stats_before, stats_after = _stats(before), _stats(after)
    check_guards(plan, stats_before, stats_after)
    return {
        "setup_s": ready - launched,
        "responses": responses,
        "window": window,
        "latencies": latencies,
        "elapsed_ns": elapsed,
        "stats": (stats_before, stats_after),
        "rss_mb": rss,
    }


def time_setup(plan, oracle, cpus: list[int]) -> float:
    """Launch to first correct response, for a server that is then stopped."""
    from session import Session

    session = Session(plan.processes, cpus)
    launched = session.start()
    try:
        session.connect()
        probe = session.call(plan.lines[0])
        ready = time.perf_counter()
    finally:
        session.stop()
    problem = oracle.check_one(plan.requests[0], probe, 1)
    if problem is not None:
        raise RunFailed(f"set-up probe: {problem}")
    return ready - launched


def end_to_end(plan, oracle, cpus: list[int]) -> dict[str, float]:
    setups: list[float] = []

    def launch(r: int) -> None:
        # On the CPU the coming round runs on, while the measured server idles.
        setups.append(time_setup(plan, oracle, [cpus[r % len(cpus)]]))

    result = run_session(plan, oracle, cpus, between=launch)
    setups.append(result["setup_s"])
    latencies_ms = sorted(ns / 1e6 for ns in result["latencies"])
    n = len(latencies_ms)
    print(
        f"{plan.workload} seed {plan.seed}: {n} window requests in "
        f"{result['elapsed_ns'] / 1e9:.2f}s; {n - math.ceil(0.99 * n)} samples beyond p99; "
        f"set-up samples {[round(s, 3) for s in setups]}",
        file=sys.stderr,
    )
    return {
        "throughput_rps": n / (result["elapsed_ns"] / 1e9),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p99_ms": percentile(latencies_ms, 0.99),
        "setup_s": statistics.median(setups),
        "rss_mb": result["rss_mb"],
    }


def traced(plan, oracle, cpus: list[int]) -> tuple[dict[str, float], dict]:
    """The per-layer ledger, plus the digests the determinism check compares."""
    import ledger

    untraced = run_session(plan, oracle, cpus)
    single_process_p50_ms = None
    if plan.processes:
        # The same stream through the single-process server: the base of
        # the cluster's proxy overhead.
        base = dataclasses.replace(plan, workload="warm_translate", processes=0)
        single_process_p50_ms = p50(run_session(base, oracle, cpus)["latencies"])
    trace_dir = WORK / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    result = run_session(plan, oracle, cpus, trace_dir=trace_dir)

    first = plan.window_start
    reports = [
        json.loads(raw)["reload"][0]
        for raw, request in zip(result["window"], plan.window)
        if request.op == "reload"
    ]
    try:
        metrics = ledger.build(
            trace_dir,
            first=first,
            last=first + len(plan.window),
            lines=len(plan.lines),
            latencies_ns=result["latencies"],
            stats_before=result["stats"][0],
            stats_after=result["stats"][1],
            reload_reports=reports,
            traced_p50_ms=p50(result["latencies"]),
            untraced_p50_ms=p50(untraced["latencies"]),
            single_process_p50_ms=single_process_p50_ms,
        )
    except ValueError as exc:
        raise RunFailed(f"trace does not match the stream: {exc}") from None
    shutil.rmtree(trace_dir, ignore_errors=True)
    stats_lines = {first - 1, len(plan.lines) - 1}
    digests = {
        "requests": hashlib.sha256(b"".join(plan.lines)).hexdigest(),
        "responses": hashlib.sha256(
            b"".join(r for i, r in enumerate(result["responses"]) if i not in stats_lines)
        ).hexdigest(),
        "counters": {name: metrics[name] for name in ledger.EXACT},
    }
    return metrics, digests


def determinism(workload: str, seed: int, seconds: int, cpus: list[int]) -> int:
    """Two traced runs of one seed must agree on request bytes, response
    bytes and exact counters; another seed must give another stream."""
    from oracle import Oracle
    from workloads import build_plan

    plan = build_plan(workload, seed, seconds)
    first = traced(plan, Oracle(), cpus)[1]
    second = traced(plan, Oracle(), cpus)[1]
    other = build_plan(workload, seed + 1, seconds)
    report = {
        "workload": workload,
        "seed": seed,
        "identical_requests": first["requests"] == second["requests"],
        "identical_responses": first["responses"] == second["responses"],
        "identical_counters": first["counters"] == second["counters"],
        "other_seed_differs": other.lines != plan.lines,
        "counters": first["counters"],
    }
    print(json.dumps(report, sort_keys=True))
    keys = ("identical_requests", "identical_responses", "identical_counters", "other_seed_differs")
    return 0 if all(report[key] for key in keys) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro serve benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="falsify one oracle reference; the run must then fail",
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="compare two traced runs of the seed instead of measuring",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"servebench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    cpus = sorted(os.sched_getaffinity(0))

    from oracle import Oracle
    from session import SessionError
    from workloads import WORKLOADS, build_plan

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.determinism:
        return determinism(args.workload, args.seed, args.seconds, cpus)

    plan = build_plan(args.workload, args.seed, args.seconds)
    oracle = Oracle(corrupt=args.corrupt_reference)
    attempted = len(plan.window)
    try:
        if args.trace:
            import ledger

            values, _ = traced(plan, oracle, cpus)
            units = ledger.UNITS
        else:
            values = end_to_end(plan, oracle, cpus)
            units = UNITS
    except (RunFailed, SessionError) as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        failed = exc.failed if isinstance(exc, RunFailed) else 0
        result = {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        print(json.dumps(result))
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
