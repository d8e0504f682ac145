"""Per-layer metrics from traced calls into each module's public functions.

:class:`LayerProbe` installs :class:`~perfbench.tracer.Tracer` wrappers
at the layer boundaries and keeps the counts those wrappers see (rows
per forward, attention shapes, queue waits, cache hits, KV pool samples).
:meth:`LayerProbe.metrics` turns spans and counts into the per-layer
metrics ``BENCHMARK.json`` lists.  Numbers that live inside forked
fleet workers cannot be traced from here; the fleet workload reads them
from the fleet's own ``metrics_snapshot()``/``worker_stats()`` instead.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from repro.core.coachlm import CoachLM
from repro.errors import AdmissionError
from repro.nn.decoding import BatchedEngine, InductionCopyBias
from repro.nn.transformer import MLP, Block, SelfAttention
from repro.serving.cache import RevisionLRUCache
from repro.serving.fleet import EngineFleet
from repro.serving.httpclient import RevisionHTTPClient
from repro.serving.journal import RunJournal
from repro.serving.queueing import BoundedPriorityQueue
from repro.serving.scheduler import StreamingScheduler
from repro.serving.server import RevisionServer

from .stats import TooFewSamplesError, percentile, share
from .tracer import Tracer, by_name, self_times

_ATTN_ARGS = (
    "x", "cache", "key_mask", "causal_mask", "pad_lens", "key_lens", "pack_spans",
)


def _pair_id(args) -> str | None:
    return getattr(args[1], "pair_id", None)


class _KVProbe:
    """Stands in for an engine KV adapter to see what attention reads."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner):
        self.inner = inner
        self.seen = None

    def update(self, k, v):
        self.seen = self.inner.update(k, v)
        return self.seen


def attention_cost(x, call: dict, seen, n_heads: int) -> tuple[int, int]:
    """(flops, bytes) of one ``SelfAttention.forward_numpy`` call.

    Computed from tensor shapes, not measured: the QKV and output
    projections, the score and value matmuls over the keys the call
    attends to, and the bytes of weights, activations and K/V read.
    ``seen`` is what the KV adapter returned (``None`` for a cache-free
    forward, whose keys are its own tokens).
    """
    b, t, d = x.shape
    head_dim = d // n_heads
    flops = 8 * b * t * d * d
    nbytes = 16 * d * d + 2 * x.nbytes
    spans, pad_lens, key_lens = call["pack_spans"], call["pad_lens"], call["key_lens"]
    cache = call["cache"]
    if spans is not None:
        ones_k, ones_v, keys, vals = seen
        ones = 0 if ones_k is None else ones_k.shape[0]
        if ones:
            flops += 4 * ones * n_heads * ones_k.shape[2] * head_dim
            nbytes += ones_k.nbytes + ones_v.nbytes
        for j, row in enumerate(range(ones, len(spans) - 1)):
            valid = int(spans[row + 1]) - int(spans[row])
            flops += 4 * n_heads * valid * keys[j].shape[1] * head_dim
            nbytes += keys[j].nbytes + vals[j].nbytes
        return flops, nbytes
    if isinstance(cache, dict):
        k, v = cache["k"], cache["v"]
    elif seen is not None:
        k, v = seen
    else:
        flops += 4 * b * n_heads * t * t * head_dim
        return flops, nbytes + 2 * x.nbytes
    nbytes += k.nbytes + v.nbytes
    if pad_lens is None:
        return flops + 4 * b * n_heads * t * k.shape[2] * head_dim, nbytes
    for row in range(b):
        valid = t - int(pad_lens[row])
        t_k = valid if key_lens is None else int(key_lens[row])
        flops += 4 * n_heads * valid * t_k * head_dim
    return flops, nbytes


class LayerProbe:
    """Tracer wrappers plus the counts the per-layer metrics need."""

    def __init__(self, coach: CoachLM):
        self.tracer = Tracer()
        self.first_block = coach.model.blocks[0]
        self.n_heads = coach.model.config.n_heads
        self.counts: Counter = Counter()
        self.queue_waits: list[float] = []
        self._put_at: dict[int, float] = {}
        self.routed: Counter = Counter()
        self.engines: dict[int, tuple[BatchedEngine, dict]] = {}
        self.kv_samples: list[tuple[int, int]] = []

    # -- installation ------------------------------------------------------------
    def install_in_process(self) -> None:
        """Wrap every boundary that runs in this process."""
        wrap = self.tracer.wrap
        wrap(CoachLM, "revise_dataset", "coachlm.revise_dataset",
             around=self._revise_dataset)
        wrap(CoachLM, "prepare_revision", "coachlm.prepare_revision", _pair_id)
        wrap(CoachLM, "finalize_revision", "coachlm.finalize_revision", _pair_id)
        for attr in ("submit", "submit_score", "submit_stream"):
            wrap(RevisionServer, attr, "server.submit", _pair_id)
        wrap(StreamingScheduler, "pump", "scheduler.pump")
        wrap(BatchedEngine, "step", "engine.step",
             around=self._engine_step, after=self._sample_kv)
        wrap(BatchedEngine, "submit", "engine.submit")
        wrap(BatchedEngine, "submit_score", "engine.submit_score")
        wrap(BatchedEngine, "collect", "engine.collect")
        wrap(BatchedEngine, "kv_stats", "engine.kv_stats")
        wrap(InductionCopyBias, "__call__", "engine.copy_bias")
        wrap(Block, "forward_numpy", "transformer.block", around=self._block)
        wrap(SelfAttention, "forward_numpy", "transformer.attention",
             around=self._attention)
        wrap(MLP, "forward_numpy", "transformer.mlp")
        wrap(RunJournal, "record_done", "journal.record_done")
        self._install_queue_and_cache()

    def install_fleet_front(self) -> None:
        """Wrap the boundaries the fleet runs in the supervisor process."""
        wrap = self.tracer.wrap
        wrap(RevisionHTTPClient, "revise_pair", "httpclient.revise_pair", _pair_id)
        wrap(RevisionHTTPClient, "score_pair", "httpclient.score_pair", _pair_id)
        # The one private boundary: where the supervisor places a request.
        wrap(EngineFleet, "_route", "fleet.route", around=self._route)
        self._install_queue_and_cache()

    def _install_queue_and_cache(self) -> None:
        wrap = self.tracer.wrap
        wrap(BoundedPriorityQueue, "put", "queue.put", around=self._queue_put)
        wrap(BoundedPriorityQueue, "put_or_displace", "queue.put",
             around=self._queue_put)
        wrap(BoundedPriorityQueue, "get", "queue.get", around=self._queue_get)
        wrap(RevisionLRUCache, "get", "cache.get", around=self._cache_get)

    def restore(self) -> None:
        self.tracer.restore()

    # -- wrappers ----------------------------------------------------------------
    def _revise_dataset(self, fn, args, kwargs):
        self.counts["coach_pairs"] += len(args[1])
        return fn(*args, **kwargs)

    def _engine_step(self, fn, args, kwargs):
        engine = args[0]
        if id(engine) not in self.engines:
            self.engines[id(engine)] = (engine, self._engine_counters(engine))
        return fn(*args, **kwargs)

    def _sample_kv(self, args, _finished) -> None:
        stats = args[0].kv_stats()
        if stats.get("paged"):
            self.kv_samples.append((stats["pages_in_use"], stats["reserved_pages"]))

    @staticmethod
    def _engine_counters(engine: BatchedEngine) -> dict:
        stats = engine.kv_stats()
        prefix = stats.get("prefix_cache") or {}
        return {
            "decode": engine.total_generated_tokens,
            "prefill": engine.total_prompt_tokens_prefilled,
            "preemptions": stats["preemption"]["preemptions"],
            "lookups": prefix.get("lookups", 0),
            "hits": prefix.get("hits", 0),
        }

    def _block(self, fn, args, kwargs):
        call = dict(zip(_ATTN_ARGS, args[1:]), **kwargs)
        spans = call.get("pack_spans")
        rows = len(spans) - 1 if spans is not None else call["x"].shape[0]
        self.counts["block_calls"] += 1
        self.counts["block_rows"] += rows
        if args[0] is self.first_block:
            self.counts["step_rows"] += rows
        return fn(*args, **kwargs)

    def _attention(self, fn, args, kwargs):
        call = dict.fromkeys(_ATTN_ARGS)
        call.update(zip(_ATTN_ARGS, args[1:]), **kwargs)
        cache = call["cache"]
        probe = None
        if cache is not None and not isinstance(cache, dict):
            probe = _KVProbe(cache)
            call["cache"] = probe
        out = fn(args[0], **call)
        call["cache"] = cache
        flops, nbytes = attention_cost(
            call["x"], call, probe.seen if probe is not None else None,
            self.n_heads,
        )
        self.counts["attention_flops"] += flops
        self.counts["attention_bytes"] += nbytes
        return out

    def _queue_put(self, fn, args, kwargs):
        # Stamp before the put: the worker may pop the item before put()
        # returns, and a stamp written afterwards would miss that wait.
        key = id(args[1])
        self._put_at[key] = time.perf_counter()
        try:
            displaced = fn(*args, **kwargs)
        except Exception as error:
            self._put_at.pop(key, None)
            if isinstance(error, AdmissionError):
                self.counts["queue_rejected"] += 1
            raise
        if displaced is not None:
            self._put_at.pop(id(displaced), None)
        self.counts["queue_depth_max"] = max(
            self.counts["queue_depth_max"], args[0].depth
        )
        return displaced

    def _queue_get(self, fn, args, kwargs):
        item = fn(*args, **kwargs)
        if item is not None:
            put_at = self._put_at.pop(id(item), None)
            if put_at is not None:
                self.queue_waits.append(time.perf_counter() - put_at)
        return item

    def _cache_get(self, fn, args, kwargs):
        entry = fn(*args, **kwargs)
        self.counts["cache_lookups"] += 1
        self.counts["cache_hits"] += entry is not None
        return entry

    def _route(self, fn, args, kwargs):
        worker = fn(*args, **kwargs)
        if worker is not None:
            self.routed[worker.slot] += 1
        return worker

    # -- metrics -----------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Span- and count-derived per-layer metrics of the traced phase."""
        spans = self.tracer.spans
        groups = by_name(spans)
        selfs = self_times(spans)
        counts = self.counts

        def total(name: str) -> float:
            return sum(end - start for _, _, start, end, _, _ in groups.get(name, ()))

        def self_total(name: str) -> float:
            return sum(selfs[span[0]] for span in groups.get(name, ()))

        def mean(value: float, n: float) -> float:
            return value / n if n else 0.0

        steps = groups.get("engine.step", [])
        n_steps = len(steps)
        step_ms = [(end - start) * 1e3 for _, _, start, end, _, _ in steps]
        coach_self = sum(
            self_total(name)
            for name in (
                "coachlm.revise_dataset", "coachlm.prepare_revision",
                "coachlm.finalize_revision",
            )
        )
        coach_pairs = counts["coach_pairs"] + len(
            groups.get("coachlm.prepare_revision", ())
        )
        deltas = Counter()
        for engine, base in self.engines.values():
            now = self._engine_counters(engine)
            deltas.update({key: now[key] - base[key] for key in base})
        in_use = sum(used for used, _ in self.kv_samples)
        reserved = sum(res for _, res in self.kv_samples)
        pumps = groups.get("scheduler.pump", [])
        submits = groups.get("server.submit", [])
        records = groups.get("journal.record_done", [])
        out = {
            "coachlm.self_ms_per_pair": mean(coach_self * 1e3, coach_pairs),
            "engine.steps": n_steps,
            "engine.step_ms_p50": percentile(step_ms, 50) if step_ms else 0.0,
            "engine.step_self_ms": mean(self_total("engine.step") * 1e3, n_steps),
            "engine.copy_bias_ms": mean(total("engine.copy_bias") * 1e3, n_steps),
            "engine.rows_per_step": mean(counts["step_rows"], n_steps),
            "engine.decode_tokens": deltas["decode"],
            "engine.prefill_tokens": deltas["prefill"],
            "engine.score_jobs": len(groups.get("engine.submit_score", ())),
            "engine.busy_share": share(total("engine.step"), wall_s),
            "engine.kv_pages_in_use_peak": max(
                (used for used, _ in self.kv_samples), default=0
            ),
            "engine.kv_reserved_pages_peak": max(
                (res for _, res in self.kv_samples), default=0
            ),
            "engine.kv_reserved_over_used": share(reserved, in_use),
            "engine.preemptions": deltas["preemptions"],
            "engine.prefix_hit_rate": share(deltas["hits"], deltas["lookups"]),
            "transformer.attention_ms": mean(
                total("transformer.attention") * 1e3, n_steps
            ),
            "transformer.mlp_ms": mean(total("transformer.mlp") * 1e3, n_steps),
            "transformer.block_self_ms": mean(
                self_total("transformer.block") * 1e3, n_steps
            ),
            "transformer.rows_per_call": mean(
                counts["block_rows"], counts["block_calls"]
            ),
            "transformer.attention_flops": mean(counts["attention_flops"], n_steps),
            "transformer.attention_bytes": mean(counts["attention_bytes"], n_steps),
            "scheduler.pump_self_ms": mean(
                self_total("scheduler.pump") * 1e3, len(pumps)
            ),
            "server.submit_us": mean(total("server.submit") * 1e6, len(submits)),
            "queue.depth_max": counts["queue_depth_max"],
            "queue.rejected": counts["queue_rejected"],
            "cache.hit_rate": share(counts["cache_hits"], counts["cache_lookups"]),
            "journal.records": len(records),
            "journal.append_ms": mean(total("journal.record_done") * 1e3, len(records)),
        }
        waits_ms = [w * 1e3 for w in self.queue_waits]
        for p in (50, 95):
            out[f"queue.wait_p{p}_ms"] = tail_or_zero(waits_ms, p, "queue waits")
        if self.routed:
            slots = self.routed.values()
            out["fleet.dispatch_skew"] = max(slots) / max(min(slots), 1)
        return out


def tail_or_zero(values: list[float], p: float, what: str) -> float:
    """A per-layer percentile, 0 when the layer saw too few samples."""
    if not values:
        return 0.0
    try:
        return percentile(values, p, what)
    except TooFewSamplesError as error:
        print(f"note: {error}; reported as 0", file=sys.stderr)
        return 0.0

