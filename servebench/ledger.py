"""Per-layer ledger of a traced session, from the spans its processes wrote.

Each process numbers its top-level spans (one per request line it
handled) in arrival order.  A process that sees every client line — the
single-process server, the cluster front-end, and the one cluster worker,
to which the front-end forwards every ``translate`` and fans out every
``stats`` — therefore has the window at the same root indices as the
client, and only those spans enter the ledger.

Times are means per window request in microseconds (``reload.swap_ms``
is per reload), built from span self times, so the stages of one request
add up to its server-side time; ``server.wire_us`` is the rest of the
client's latency.  ``ledger.unattributed_us`` is the client latency minus
the sum of every reported stage: the glue of the root spans, close to
zero unless a stage is missed or counted twice.  ``cluster.proxy_overhead``
is the cluster's untraced p50 over the single-process server's on the
same stream.  Layers idle on a workload report 0.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from pathlib import Path

#: Per-layer metric -> unit, in report order.
UNITS = {
    "protocol.decode_us": "us",
    "protocol.render_us": "us",
    "protocol.encode_us": "us",
    "server.wire_us": "us",
    "service.self_us": "us",
    "parser.parse_us": "us",
    "parser.calls_per_req": "count",
    "intern.intern_us": "us",
    "normalize.normalize_us": "us",
    "fingerprint.fingerprint_us": "us",
    "cache.self_us": "us",
    "cache.hit_ratio": "ratio",
    "cache.evictions_per_req": "count",
    "tdqm.self_us": "us",
    "tdqm.disjunctivize_per_req": "count",
    "psafe.self_us": "us",
    "psafe.calls_per_req": "count",
    "ednf.self_us": "us",
    "scm.self_us": "us",
    "scm.calls_per_req": "count",
    "matching.self_us": "us",
    "matching.matchings_per_req": "count",
    "matching.prematch_hit_ratio": "ratio",
    "filters.build_us": "us",
    "engine.select_us": "us",
    "mediator.source_rows_per_req": "count",
    "mediator.self_us": "us",
    "mediator.survivor_ratio": "ratio",
    "reload.swap_ms": "ms",
    "reload.invalidated_per_reload": "count",
    "cluster.route_us": "us",
    "cluster.frontend_us": "us",
    "cluster.hop_us": "us",
    "worker.handle_us": "us",
    "cluster.proxy_overhead": "ratio",
    "ledger.unattributed_us": "us",
    "ledger.trace_overhead": "ratio",
}

#: Counters that must repeat exactly across runs of one seed.
EXACT = tuple(
    name for name in UNITS if name.endswith(("_per_req", "_ratio", "_per_reload"))
)

#: Stage self-time metric -> the span names it sums.
_STAGES = {
    "protocol.decode_us": ("protocol.decode",),
    "protocol.render_us": ("protocol.render",),
    "protocol.encode_us": ("protocol.encode",),
    "service.self_us": ("service",),
    "parser.parse_us": ("parser",),
    "intern.intern_us": ("intern",),
    "normalize.normalize_us": ("normalize",),
    "fingerprint.fingerprint_us": ("fingerprint",),
    "cache.self_us": ("cache",),
    "tdqm.self_us": ("tdqm", "tdqm.disjunctivize"),
    "psafe.self_us": ("psafe",),
    "ednf.self_us": ("ednf",),
    "scm.self_us": ("scm",),
    "matching.self_us": ("matching.potential", "matching.matchings", "matching.prematch"),
    "filters.build_us": ("filters",),
    "engine.select_us": ("engine",),
    "mediator.self_us": ("mediator",),
    "cluster.route_us": ("cluster.route",),
    "cluster.frontend_us": ("cluster.answer", "cluster.handle"),
}

class _Totals:
    """Window sums per span name, over every traced process."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.duration_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.value: dict[str, int] = defaultdict(int)

    def add_process(self, stem: Path, first: int, last: int) -> int:
        """Fold one process's window spans in; returns its root count."""
        header = json.loads(stem.with_suffix(".json").read_text())
        names, fields = header["names"], header["fields"]
        spans = array("q")
        with open(stem.with_suffix(".spans"), "rb") as handle:
            spans.frombytes(handle.read())
        roots = 0
        for i in range(0, len(spans), fields):
            name_id, root, _, parent, start, end, self_ns, value = spans[i : i + fields]
            if parent < 0:
                roots += 1
            if not first <= root < last:
                continue
            name = names[name_id]
            self.self_ns[name] += self_ns
            self.duration_ns[name] += end - start
            self.calls[name] += 1
            self.value[name] += value
        return roots


def build(
    trace_dir: Path,
    *,
    first: int,
    last: int,
    lines: int,
    latencies_ns: list[int],
    stats_before: dict,
    stats_after: dict,
    reload_reports: list[dict],
    traced_p50_ms: float,
    untraced_p50_ms: float,
    single_process_p50_ms: float | None = None,
) -> dict[str, float]:
    """The per-layer metrics of one traced session (window roots
    ``first <= root < last``; ``lines`` roots expected per process).
    ``single_process_p50_ms`` is the untraced p50 of the same stream
    without the cluster, the base of ``cluster.proxy_overhead``."""
    totals = _Totals()
    for meta in sorted(trace_dir.glob("*.json")):
        roots = totals.add_process(meta.with_suffix(""), first, last)
        if roots != lines:
            raise ValueError(
                f"process {meta.stem} handled {roots} request lines, expected {lines}"
            )
    n = last - first
    us = 1e-3 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for metric, names in _STAGES.items():
        metrics[metric] = sum(totals.self_ns[name] for name in names) * us
    client_us = sum(latencies_ns) * us
    root = "cluster.answer" if totals.calls["cluster.answer"] else "protocol.handle_line"
    metrics["server.wire_us"] = client_us - totals.duration_ns[root] * us
    worker_us = totals.duration_ns["worker.handle"] * us
    metrics["worker.handle_us"] = worker_us
    metrics["cluster.hop_us"] = (
        totals.duration_ns["cluster.hop"] * us - worker_us if worker_us else 0.0
    )

    before, after = stats_before["cache"], stats_after["cache"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics["parser.calls_per_req"] = totals.calls["parser"] / n
    metrics["cache.hit_ratio"] = ratio(hits, hits + misses)
    metrics["cache.evictions_per_req"] = (after["evictions"] - before["evictions"]) / n
    metrics["tdqm.disjunctivize_per_req"] = totals.calls["tdqm.disjunctivize"] / n
    metrics["psafe.calls_per_req"] = totals.calls["psafe"] / n
    metrics["scm.calls_per_req"] = totals.calls["scm"] / n
    metrics["matching.matchings_per_req"] = totals.value["matching.matchings"] / n
    metrics["matching.prematch_hit_ratio"] = ratio(
        totals.value["matching.prematch"], totals.calls["matching.prematch"]
    )
    metrics["mediator.source_rows_per_req"] = totals.value["engine"] / n
    metrics["mediator.survivor_ratio"] = ratio(
        totals.value["mediator.filter_survivors"], totals.value["mediator.filter_candidates"]
    )
    reloads = totals.calls["reload"]
    metrics["reload.swap_ms"] = ratio(totals.duration_ns["reload"] * 1e-6, reloads)
    metrics["reload.invalidated_per_reload"] = ratio(
        sum(report["invalidated"] for report in reload_reports), len(reload_reports)
    )
    reload_us = totals.self_ns["reload"] * us
    attributed = (
        sum(metrics[metric] for metric in _STAGES)
        + metrics["server.wire_us"]
        + metrics["cluster.hop_us"]
        + reload_us
    )
    metrics["ledger.unattributed_us"] = client_us - attributed
    metrics["ledger.trace_overhead"] = traced_p50_ms / untraced_p50_ms
    metrics["cluster.proxy_overhead"] = (
        untraced_p50_ms / single_process_p50_ms if single_process_p50_ms else 0.0
    )
    return {name: metrics[name] for name in UNITS}
