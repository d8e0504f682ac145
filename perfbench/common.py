"""Helpers shared by the three workloads."""

from __future__ import annotations

import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.coachlm import RevisionOutcome
from repro.errors import GenerationError
from repro.judges import ChatGPTJudge
from repro.scoring.ifd import score_pair_ifd

from . import inputs
from .stats import median, min_samples, percentile


#: Outcomes of pairs the coach resolves without decoding them.
GATED = (
    RevisionOutcome.LEAKAGE_SKIPPED.value,
    RevisionOutcome.PROMPT_TOO_LONG.value,
)

#: Length of the windows a serving run prints its per-window percentiles for,
#: to show how the machine's speed drifted within the run.
WINDOW_S = 10.0


@dataclass
class RunContext:
    """One invocation: where the checkout is and what to run."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    tmp: Path       #: scratch directory inside the checkout, removed after
    out: Path       #: where the traced run writes its spans

    def phases(self) -> list[tuple[bool, float]]:
        """(traced, seconds) per timed phase: a traced run measures an
        untraced half first, so the trace overhead is measured too."""
        if not self.trace:
            return [(False, self.seconds)]
        return [(False, self.seconds / 2.0), (True, self.seconds / 2.0)]


@dataclass
class WorkloadResult:
    attempted: int
    failed: int
    mismatches: list[str] = field(default_factory=list)
    #: Why requests failed (error type, or terminal outcome) → count.
    failures: Counter = field(default_factory=Counter)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches

    def count_failure(self, rec) -> None:
        """One request that got no usable answer (refused, errored,
        expired or never resolved)."""
        self.failed += 1
        if rec.error is not None:
            reason = type(rec.error).__name__
        elif rec.result is not None:
            reason = f"outcome {rec.result.outcome}"
        else:
            reason = "unresolved"
        self.failures[reason] += 1


def timed_setups(build, teardown, repeats: int):
    """Run ``build`` ``repeats`` times; return (median seconds, last value).

    Every value but the last is torn down straight away, so repeats start
    from the same state.
    """
    times, value = [], None
    for i in range(repeats):
        start = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - start)
        if i + 1 < repeats:
            teardown(value)
    return median(times, "set-up times"), value


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus its largest reaped child if asked."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


#: Ratings per output: averages out the judge's own noise, leaving the
#: variation of the outputs themselves.
JUDGE_DRAWS = 8


def hq_share(pairs, seed: int) -> float:
    """The paper's quality quantity over ``pairs``, seeded judge noise."""
    judge = ChatGPTJudge()
    gen = inputs.rng(seed, "judge")
    return judge.high_quality_fraction(
        [judge.rate(p, gen).score for p in pairs for _ in range(JUDGE_DRAWS)]
    )


def timing_metrics(prefix: str, samples_ms: list[float]) -> dict[str, float]:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` under the sample rule."""
    return {
        f"{prefix}_p50_ms": percentile(samples_ms, 50, prefix),
        f"{prefix}_p95_ms": percentile(samples_ms, 95, prefix),
    }


def window_bounds(start: float, seconds: float) -> list[float]:
    """Edges of the equal windows a timed phase is cut into."""
    n = max(1, int(seconds // WINDOW_S))
    return [start + seconds * i / n for i in range(n + 1)]


def pooled_timings(windows: list[dict[str, list[float]]]) -> dict[str, float]:
    """``<key>_p50_ms`` and ``<key>_p95_ms`` over every sample of every
    window: each percentile rests on the whole timed phase, so a slow
    spell or a stall moves it by the share of the run it lasted.  Each
    window's own percentiles are printed too (p95 where it has the
    samples)."""
    for i, window in enumerate(windows):
        print(f"window {i}: " + json.dumps({
            f"{key}_p{p}_ms": percentile(values, p, key)
            for key, values in window.items() for p in (50, 95)
            if len(values) >= min_samples(p)
        }))
    return {
        name: value
        for key in windows[0]
        for name, value in timing_metrics(
            key, [v for window in windows for v in window[key]]
        ).items()
    }


def median_of_windows(per_window: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over windows (passes): a stall or a slow spell
    of the machine moves one window, not the run's figure.  Every window's
    own figures are printed too."""
    for i, window in enumerate(per_window):
        print(f"window {i}: " + json.dumps(window))
    return {
        key: median([w[key] for w in per_window], key) for key in per_window[0]
    }


def reference(coach, pair, scoring: bool):
    """The sequential answer to one request: ``CoachLM.revise_pair``'s
    (pair, outcome), or ``score_pair_ifd``'s payload (``None`` when the
    pair is unscoreable)."""
    if not scoring:
        return coach.revise_pair(pair)
    try:
        return score_pair_ifd(coach.model, coach.tokenizer, pair).as_dict()
    except GenerationError:
        return None


def same_text(a, b) -> bool:
    return a.instruction == b.instruction and a.response == b.response
