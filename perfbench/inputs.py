"""Seeded inputs: ALPACA-simulacrum pairs and request schedules.

Everything here is a pure function of ``(seed, label)``; the program
under test only ever sees the pairs these functions return.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.data.alpaca_generator import ALPACA_PROFILE, generate_dataset
from repro.data.instruction_pair import InstructionPair

KIND_STREAM = "stream"   #: streamed revision (``submit_stream``)
KIND_REVISE = "revise"   #: plain revision (``/revise``)
KIND_SCORE = "score"     #: IFD scoring (``submit_score`` / ``/score``)


def rng(seed: int, label: str) -> np.random.Generator:
    """A generator unique to ``(seed, label)``, independent of call order."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return np.random.default_rng(np.frombuffer(digest[:16], dtype=np.uint64))


def pairs(seed: int, label: str, size: int) -> list[InstructionPair]:
    """``size`` ALPACA-simulacrum pairs (ids ``alpaca52k-sim-<index>``)."""
    return list(generate_dataset(rng(seed, label), size, ALPACA_PROFILE))


@dataclass(frozen=True)
class Request:
    """One scheduled request: what to send, and when (open loop only)."""

    kind: str
    pair: int          #: index into the workload's pair pool
    due: float = 0.0   #: seconds after the start of the timed phase
    repeat: bool = False   #: exact repeat of an earlier request


def open_loop(
    seed: int,
    label: str,
    rate: float,
    seconds: float,
    score_share: float,
    repeat_share: float,
) -> tuple[list[InstructionPair], list[Request]]:
    """Poisson arrivals at ``rate``/s for ``seconds``: fresh streamed
    revisions, fresh scores, and exact repeats of earlier requests.

    The process is conditioned on its count — exactly ``rate * seconds``
    arrivals, uniformly placed — so every seed offers the same load and
    differs only in burst pattern and content.
    """
    gen = rng(seed, f"{label}:arrivals")
    dues = np.sort(gen.uniform(0.0, seconds, round(rate * seconds)))
    schedule: list[Request] = []
    fresh: list[Request] = []
    for due in dues.tolist():
        draw = float(gen.random())
        if fresh and draw < repeat_share:
            earlier = fresh[int(gen.integers(len(fresh)))]
            schedule.append(Request(earlier.kind, earlier.pair, due, True))
        else:
            kind = (
                KIND_SCORE if draw < repeat_share + score_share else KIND_STREAM
            )
            request = Request(kind, len(fresh), due)
            fresh.append(request)
            schedule.append(request)
    return pairs(seed, f"{label}:pairs", max(len(fresh), 1)), schedule


def closed_loop(
    seed: int, label: str, n: int, score_share: float
) -> tuple[list[InstructionPair], list[Request]]:
    """``n`` requests over distinct pool entries, a ``score_share`` of them
    scores and the rest plain revisions, in send order."""
    gen = rng(seed, f"{label}:kinds")
    kinds = gen.random(n) < score_share
    schedule = [
        Request(KIND_SCORE if is_score else KIND_REVISE, i)
        for i, is_score in enumerate(kinds)
    ]
    return pairs(seed, f"{label}:pairs", n), schedule


def sample(seed: int, label: str, population: list[int], k: int) -> list[int]:
    """A seeded sample of ``k`` items (all of them if fewer), in order."""
    if len(population) <= k:
        return list(population)
    picked = rng(seed, f"{label}:sample").choice(len(population), k, replace=False)
    return [population[i] for i in sorted(picked.tolist())]
