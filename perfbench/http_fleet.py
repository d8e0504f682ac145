"""``http_fleet``: the remote path, HTTP clients against an engine fleet.

A closed loop of ``nproc`` ``RevisionHTTPClient``s, each with at most one
request in flight, calls ``RevisionHTTPFrontend`` over an ``EngineFleet``
at ``FleetConfig`` defaults with plain ``/revise`` plus a share of
``/score``.  With so few requests in flight each worker decodes at batch
about 1, so per-step overhead and IPC set the latency, not GEMM time.

Engine numbers live in the forked workers, out of the tracer's reach:
they come from the fleet's own ``metrics_snapshot()`` and
``worker_stats()``, and HTTP overhead from the client-seen latency minus
the server-reported ``latency_s``.
"""

from __future__ import annotations

import os
import threading
import time

from repro.config import FleetConfig
from repro.errors import ServingError
from repro.serving.fleet import EngineFleet
from repro.serving.http import RevisionHTTPFrontend
from repro.serving.httpclient import RevisionHTTPClient
from repro.serving.metrics import ServingMetrics
from repro.serving.requests import SOURCE_DEDUP, SOURCE_ENGINE

from . import inputs
from .coach import load_coach
from .common import (
    GATED,
    RunContext,
    WorkloadResult,
    hq_share,
    peak_rss_mb,
    pooled_timings,
    reference,
    same_text,
    timed_setups,
    window_bounds,
)
from .layers import LayerProbe, tail_or_zero
from .stats import share

#: Share of ``/score`` calls: an unmeasured choice, the same as
#: ``online_mixed`` so that both serving workloads carry one mix.
SCORE_SHARE = 0.2
#: Fewer set-ups than the in-process workloads: stopping a fleet takes
#: about 0.5 s.
SETUP_REPEATS = 11
WARMUP_REQUESTS = 8     #: per client
#: Requests generated per second of budget: far above what the fleet serves.
MAX_RATE_PER_S = 150
SAMPLE = 24
#: Service-level limit on a reply (a refused or failed request misses).
SLO_LATENCY_MS = 100.0
CLIENT_TIMEOUT_S = 30.0


class Record:
    __slots__ = ("request", "pair", "sent", "done", "result", "error")

    def __init__(self, request: inputs.Request, pair):
        self.request, self.pair = request, pair
        self.sent = self.done = self.result = self.error = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


def _serve(ctx: RunContext) -> RevisionHTTPFrontend:
    coach = load_coach(ctx.root)
    return RevisionHTTPFrontend(EngineFleet(coach, FleetConfig())).start()


def drive(frontend, pool, schedule, seconds: float, seed: int, metrics):
    """Closed loop for ``seconds``; returns (records sent, start, end)."""
    clients = [
        RevisionHTTPClient(
            frontend.address, timeout_s=CLIENT_TIMEOUT_S, metrics=metrics,
            seed=seed * 1000 + c,
        )
        for c in range(os.cpu_count() or 1)
    ]
    records: list[Record] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def loop(client: RevisionHTTPClient) -> None:
        while True:
            with lock:
                if time.perf_counter() >= stop_at or len(records) >= len(schedule):
                    return
                req = schedule[len(records)]
                rec = Record(req, pool[req.pair])
                records.append(rec)
            rec.sent = time.perf_counter()
            try:
                if req.kind == inputs.KIND_SCORE:
                    rec.result = client.score_pair(rec.pair)
                else:
                    rec.result = client.revise_pair(rec.pair)
            except ServingError as error:
                rec.error = error
            rec.done = time.perf_counter()

    threads = [
        threading.Thread(target=loop, args=(c,), name=f"bench-client-{i}")
        for i, c in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * CLIENT_TIMEOUT_S)
    end = max((r.done for r in records if r.done is not None), default=start)
    return records, start, end


def run(ctx: RunContext) -> WorkloadResult:
    setup_s, frontend = timed_setups(
        lambda: _serve(ctx), lambda f: f.stop(), SETUP_REPEATS
    )
    fleet: EngineFleet = frontend.service
    coach = fleet.coach
    client_metrics = ServingMetrics()
    phases = []
    try:
        warm_pool, warm = inputs.closed_loop(
            ctx.seed, "fleet-warmup",
            WARMUP_REQUESTS * (os.cpu_count() or 1), SCORE_SHARE,
        )
        drive(frontend, warm_pool, warm, 60.0, ctx.seed, client_metrics)
        for traced, budget in ctx.phases():
            label = f"fleet-{'traced' if traced else 'plain'}"
            pool, schedule = inputs.closed_loop(
                ctx.seed, label, int(MAX_RATE_PER_S * budget) + 1, SCORE_SHARE
            )
            refs = _references(coach, ctx.seed, label, pool, schedule)
            probe = LayerProbe(coach)
            if traced:
                probe.install_fleet_front()
            before = fleet.metrics_snapshot()
            retries = (client_metrics.retries, client_metrics.gave_up)
            try:
                records, start, end = drive(
                    frontend, pool, schedule, budget, ctx.seed, client_metrics
                )
            finally:
                probe.restore()
            after = fleet.metrics_snapshot()
            fleet_layers = _fleet_layers(
                fleet, before, after, end - start, client_metrics, retries
            )
            phases.append((records, start, end, refs, probe, fleet_layers))
    finally:
        frontend.stop()

    result = WorkloadResult(attempted=0, failed=0)
    for records, _start, _end, refs, _probe, _layers in phases:
        _check(records, refs, result)
    if not ctx.trace:
        records, start, end, _refs, _probe, _layers = phases[0]
        result.metrics = {
            "setup_s": setup_s,
            **_end_to_end(records, start, ctx.seconds),
            "hq_share": hq_share(
                [r.result.pair for r in records
                 if r.ok and r.request.kind == inputs.KIND_REVISE],
                ctx.seed,
            ),
            "success_share": 1.0 - share(result.failed, result.attempted),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        return result
    plain, (records, start, end, _refs, probe, fleet_layers) = phases
    probe.tracer.dump(ctx.out / f"trace-http_fleet-{ctx.seed}.jsonl")
    overhead = [
        r.latency_ms - r.result.latency_s * 1e3 for r in records if r.ok
    ]
    revisions = [
        r.result for r in records if r.ok and r.request.kind == inputs.KIND_REVISE
    ]
    gated = sum(res.outcome in GATED for res in revisions)
    result.metrics = {
        **probe.metrics(end - start),
        **fleet_layers,
        "coachlm.revised_share": share(
            sum(res.outcome == "revised" for res in revisions), len(revisions) - gated
        ),
        "coachlm.gated_share": share(gated, len(revisions)),
        "cache.dedup_share": share(
            sum(r.ok and r.result.source == SOURCE_DEDUP for r in records),
            len(records),
        ),
        "http.overhead_ms_p50": tail_or_zero(overhead, 50, "HTTP overhead"),
        "http.overhead_ms_p95": tail_or_zero(overhead, 95, "HTTP overhead"),
        "trace.overhead_share": 1.0 - (
            _rate(records, start, end) / _rate(plain[0], plain[1], plain[2])
        ),
    }
    return result


def _references(coach, seed, label, pool, schedule) -> dict:
    """Sequential references for a seeded sample of the first requests."""
    first = list(range(min(len(schedule), 200)))
    return {
        i: reference(
            coach, pool[schedule[i].pair], schedule[i].kind == inputs.KIND_SCORE
        )
        for i in inputs.sample(seed, f"{label}:sample", first, SAMPLE)
    }


def _check(records: list[Record], refs: dict, result: WorkloadResult) -> None:
    for i, rec in enumerate(records):
        result.attempted += 1
        if not rec.ok:
            result.count_failure(rec)
            continue
        if i not in refs:
            continue
        res = rec.result
        if rec.request.kind == inputs.KIND_REVISE:
            ref_pair, ref_outcome = refs[i]
            good = same_text(res.pair, ref_pair) and res.outcome == ref_outcome.value
        else:
            good = res.score == refs[i]
        if not good:
            result.failed += 1
            result.mismatches.append(
                f"request {i} ({rec.request.kind}) differs from its reference"
            )


def _rate(records: list[Record], start: float, end: float) -> float:
    return share(sum(r.ok for r in records), end - start)


def _end_to_end(records: list[Record], start: float, budget: float) -> dict:
    """Rates and timings over the whole phase, each window's figures
    printed as well."""
    edges = window_bounds(start, budget)
    per_window, done_all, tokens = [], 0, 0
    for lo, hi in zip(edges, edges[1:]):
        sent = [r for r in records if lo <= r.sent < hi]
        done = [r for r in sent if r.ok]
        revisions = [r for r in done if r.request.kind == inputs.KIND_REVISE]
        # As on online_mixed: latency of what the engines served, not of
        # cache hits and gated pairs answered by the supervisor.
        served = [
            r for r in done
            if r.result.source == SOURCE_ENGINE and r.result.outcome not in GATED
        ]
        done_all += len(done)
        tokens += sum(r.result.generated_tokens for r in revisions)
        per_window.append({
            "ttft": [r.latency_ms for r in revisions if r.result.generated_tokens],
            "tpot": [
                r.latency_ms / r.result.generated_tokens
                for r in revisions if r.result.generated_tokens
            ],
            "latency": [r.latency_ms for r in served],
        })
    return {
        "pairs_per_s": done_all / budget,
        "tokens_per_s": tokens / budget,
        **pooled_timings(per_window),
        "slo_attainment": share(
            sum(r.ok and r.latency_ms <= SLO_LATENCY_MS for r in records),
            len(records),
        ),
    }


def _fleet_layers(fleet, before, after, wall_s, client_metrics, retries) -> dict:
    """Per-layer numbers the fleet reports about its forked workers."""
    def delta(key: str) -> float:
        return after[key] - before[key]

    engine_before, engine_after = before["engine"], after["engine"]
    prefix_b = engine_before.get("prefix_cache", {})
    prefix_a = engine_after.get("prefix_cache", {})
    peaks = [
        (w["kv"] or {}).get("peak_pages_in_use", 0) for w in fleet.worker_stats()
    ]
    return {
        "engine.decode_tokens": delta("engine_tokens"),
        "engine.kv_pages_in_use_peak": max(peaks, default=0),
        "engine.preemptions": (
            engine_after.get("preemption", {}).get("preemptions", 0)
            - engine_before.get("preemption", {}).get("preemptions", 0)
        ),
        "engine.prefix_hit_rate": share(
            prefix_a.get("hits", 0) - prefix_b.get("hits", 0),
            prefix_a.get("lookups", 0) - prefix_b.get("lookups", 0),
        ),
        "fleet.engine_busy_share": share(
            delta("engine_busy_s"), wall_s * fleet.config.fleet_workers
        ),
        "fleet.requeued": delta("requeued"),
        "fleet.worker_lost": delta("worker_lost"),
        "fleet.duplicate_results": delta("duplicate_results"),
        "httpclient.retries": client_metrics.retries - retries[0],
        "httpclient.gave_up": client_metrics.gave_up - retries[1],
    }
