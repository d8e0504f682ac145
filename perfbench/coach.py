"""Read-only loading of the committed trained coach.

The benchmark drives the real coach the Workbench trained at the bench
scale (ALPACA simulacrum seed 20240311, backbone ``chatglm2-sim``,
α = 0.3) and committed under ``.artifacts/bench-20240311``.  It never
trains and never writes there: a missing artifact is an error.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.config import get_scale
from repro.core.coachlm import CoachLM
from repro.llm.tokenizer import build_tokenizer
from repro.nn.transformer import TransformerConfig, TransformerLM

ARTIFACTS = Path(".artifacts") / "bench-20240311"
#: Workbench cache key of the coach at α = 0.3 from ``chatglm2-sim``.
COACH_KEY = "7e2153cc5ce5"


class MissingArtifactError(RuntimeError):
    """A committed artifact the benchmark needs is not there."""


def artifact_paths(root: Path) -> tuple[Path, Path]:
    base = root / ARTIFACTS
    return base / f"coach-{COACH_KEY}.npz", base / f"coach-meta-{COACH_KEY}.json"


def check_artifacts(root: Path) -> None:
    for path in artifact_paths(root):
        if not path.is_file():
            raise MissingArtifactError(
                f"missing committed coach artifact {path}; the benchmark "
                "loads it read-only and never trains"
            )


def load_coach(root: Path) -> CoachLM:
    """The trained coach, exactly as ``Workbench.coach()`` would load it."""
    check_artifacts(root)
    weights_path, meta_path = artifact_paths(root)
    tokenizer = build_tokenizer()
    dims = get_scale("bench").base_model
    model = TransformerLM(
        TransformerConfig(
            vocab_size=tokenizer.vocab_size,
            d_model=dims.d_model,
            n_layers=dims.n_layers,
            n_heads=dims.n_heads,
            max_seq_len=dims.max_seq_len,
        ),
        np.random.default_rng(0),
    )
    with np.load(weights_path) as blob:
        model.load_state_dict({name: blob[name].copy() for name in blob.files})
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return CoachLM(
        model, tokenizer, trained_instructions=frozenset(meta["trained_ids"])
    )
