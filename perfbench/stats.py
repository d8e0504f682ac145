"""Percentiles under the benchmark's sample-count rule.

A tail percentile is only reported when at least ten samples lie beyond
it, so p95 needs 200 samples.  Too few samples is a defect of the run,
not a number: :func:`percentile` raises instead of reporting.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


class TooFewSamplesError(RuntimeError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(p: float) -> int:
    """Fewest samples for which ``TAIL_SAMPLES`` lie beyond percentile ``p``."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {p}")
    if p <= 50.0:
        return 1
    return math.ceil(round(TAIL_SAMPLES * 100.0 / (100.0 - p), 9))


def percentile(values, p: float, what: str = "samples") -> float:
    """Linear-interpolated ``p``-th percentile of ``values``.

    Raises :class:`TooFewSamplesError` when ``values`` is too short for
    ``p`` under the sample-count rule.
    """
    data = sorted(float(v) for v in values)
    need = min_samples(p)
    if len(data) < need:
        raise TooFewSamplesError(
            f"p{p:g} of {what} needs >= {need} samples, got {len(data)}"
        )
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values, what: str = "samples") -> float:
    return percentile(values, 50.0, what)


def share(part: float, whole: float) -> float:
    """``part / whole``, 0 when there is no whole."""
    return part / whole if whole else 0.0
