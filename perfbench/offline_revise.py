"""``offline_revise``: the paper's own job, revising a whole dataset.

A closed batch job: ``CoachLM.revise_dataset`` over a seeded 1200-pair
ALPACA simulacrum with the Workbench production call (bench-scale batch,
chunking and KV settings, a ``RunJournal`` in a scratch directory),
repeated back to back for the timed phase.  It bypasses the serving
queue, result cache, HTTP, fleet and KV paging.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.config import get_scale
from repro.data.dataset import InstructionDataset
from repro.nn.decoding import BatchedEngine
from repro.serving.journal import RunJournal

from . import inputs
from .coach import load_coach
from .common import (
    GATED,
    RunContext,
    WorkloadResult,
    hq_share,
    median_of_windows,
    peak_rss_mb,
    same_text,
    timed_setups,
    timing_metrics,
)
from .layers import LayerProbe
from .stats import median, share
from .tracer import Tracer

DATASET_PAIRS = 1200
WARMUP_PAIRS = 300
SAMPLE = 24
#: Set-ups in one process settle only after about ten repeats (the first
#: nine read 6-8 ms, later ones 5-6 ms), so ``setup_s`` is the median of many.
SETUP_REPEATS = 41
#: The job's service level: a pair's revision is due this long after the
#: job starts (a pass takes about 6.5 s on a 2-core x86 box).
JOB_DEADLINE_S = 10.0


class StepClock:
    """Times every ``BatchedEngine.step`` of one untraced pass.

    A one-boundary :class:`~perfbench.tracer.Tracer` records each step as a
    span; after each step the clock notes how many sequences have finished
    and how many have produced their first token (finished + active), which
    gives each decoded pair's completion and first-token time within the job.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.finished: list[int] = []
        self.started: list[int] = []
        self.engine: BatchedEngine | None = None

    def __enter__(self) -> "StepClock":
        self.tracer.wrap(BatchedEngine, "step", "engine.step", after=self._note)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer.restore()

    def _note(self, args, n_finished: int) -> None:
        self.engine = args[0]
        total = (self.finished[-1] if self.finished else 0) + n_finished
        self.finished.append(total)
        self.started.append(total + self.engine.n_active)

    def samples(self, start: float) -> tuple[list[float], list[float], list[float]]:
        """(latency, ttft, tpot) samples in ms for the pass begun at ``start``."""
        latency, ttft, tpot = [], [], []
        done = began = 0
        prev = None
        ends = [span[3] for span in self.tracer.spans]
        for end, fin, sta in zip(ends, self.finished, self.started):
            latency += [(end - start) * 1e3] * (fin - done)
            ttft += [(end - start) * 1e3] * (sta - began)
            if prev is not None:
                tpot.append((end - prev) * 1e3)
            done, began, prev = fin, max(began, sta), end
        return latency, ttft, tpot


def run(ctx: RunContext) -> WorkloadResult:
    scale = get_scale("bench")
    setup_s, coach = timed_setups(
        lambda: load_coach(ctx.root), lambda _: None, SETUP_REPEATS
    )
    dataset = InstructionDataset(
        inputs.pairs(ctx.seed, "offline", DATASET_PAIRS), name="alpaca52k-sim"
    )
    sample = inputs.sample(ctx.seed, "offline", list(range(DATASET_PAIRS)), SAMPLE)
    refs = {i: coach.revise_pair(dataset[i]) for i in sample}
    job = 0

    def revise(data: InstructionDataset):
        nonlocal job
        job += 1
        path = ctx.tmp / f"journal-{job}.jsonl"
        with RunJournal(path) as journal:
            result = coach.revise_dataset(
                data,
                batch_size=scale.gen_batch_size,
                prefill_chunk_tokens=scale.prefill_chunk_tokens,
                prefill_concurrency=scale.prefill_concurrency,
                kv_page_tokens=scale.kv_page_tokens,
                journal=journal,
            )
        path.unlink()
        return result

    # Warm-up: the first pass in a process runs markedly slower.
    revise(InstructionDataset(
        inputs.pairs(ctx.seed, "offline-warmup", WARMUP_PAIRS), name="alpaca52k-sim"
    ))

    result = WorkloadResult(attempted=0, failed=0)
    rates: dict[bool, list[float]] = {False: [], True: []}
    per_pass: list[dict[str, float]] = []
    slo_met = slo_sent = 0
    first_output = last_output = None
    outcomes: dict[str, int] = {}
    probe = LayerProbe(coach)
    traced_wall = 0.0
    for traced, budget in ctx.phases():
        if traced:
            probe.install_in_process()
        phase_start = time.perf_counter()
        while True:
            # Traced passes feed the per-layer metrics only; the clock stays
            # off them so that it does not stack on the probe's step wrapper.
            with (nullcontext() if traced else StepClock()) as clock:
                start = time.perf_counter()
                output, stats = revise(dataset)
                wall = time.perf_counter() - start
            rates[traced].append(DATASET_PAIRS / wall)
            result.attempted += DATASET_PAIRS
            for key, n in stats.outcomes.items():
                outcomes[key] = outcomes.get(key, 0) + n
            if traced:
                traced_wall += wall
            else:
                lat, tt, tp = clock.samples(start)
                per_pass.append({
                    "pairs_per_s": DATASET_PAIRS / wall,
                    "tokens_per_s": clock.engine.total_generated_tokens / wall,
                    **timing_metrics("ttft", tt),
                    **timing_metrics("tpot", tp),
                    **timing_metrics("latency", lat),
                })
                slo_sent += DATASET_PAIRS
                decoded_in_time = sum(v <= JOB_DEADLINE_S * 1e3 for v in lat)
                gated = sum(stats.outcomes.get(key, 0) for key in GATED)
                slo_met += decoded_in_time + gated
            pairs = list(output)
            if first_output is None:
                first_output = pairs
            drift = sum(not same_text(a, b) for a, b in zip(pairs, first_output))
            if drift:
                result.mismatches.append(f"{drift} pairs differ between passes")
                result.failed += drift
            for i, (ref_pair, _outcome) in refs.items():
                if not same_text(pairs[i], ref_pair):
                    result.mismatches.append(f"pair {i} differs from revise_pair")
                    result.failed += 1
            last_output = pairs
            if time.perf_counter() - phase_start >= budget:
                break
        if traced:
            probe.restore()

    total = sum(outcomes.values())
    gated = sum(outcomes.get(key, 0) for key in GATED)
    if not ctx.trace:
        result.metrics = {
            "setup_s": setup_s,
            **median_of_windows(per_pass),
            "slo_attainment": share(slo_met, slo_sent),
            "hq_share": hq_share(last_output, ctx.seed),
            "success_share": 1.0 - share(result.failed, result.attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
        return result
    probe.tracer.dump(ctx.out / f"trace-offline_revise-{ctx.seed}.jsonl")
    result.metrics = {
        **probe.metrics(traced_wall),
        "coachlm.revised_share": share(outcomes.get("revised", 0), total - gated),
        "coachlm.gated_share": share(gated, total),
        "trace.overhead_share": 1.0 - median(rates[True]) / median(rates[False]),
    }
    return result
