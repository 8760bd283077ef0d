"""Watermarked generation loop over an abstract next-token-distribution
source.

Each step derives a watermark code from the secret key and the preceding
n-gram.  A code that was already spent in this session, or a step without
enough context, samples from the model's original distribution; otherwise
the step is watermarked and the code is recorded so no code ever biases
sampling twice.

Each strategy's entry in ``reweight.STRATEGIES`` fixes its context
convention and its watermark step.  The cluster-aligned strategy builds its
code from the *cluster indices* of the context tokens, which is what makes
detection invariant to same-cluster substitutions anywhere in the sequence.
The baseline strategies hash raw token ids, matching their original forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .clustering import ClusterMap
from .core import WatermarkCode, code_fingerprint
from .reweight import STRATEGIES, ReweightConfig, _sample_plain

__all__ = [
    "LanguageModel",
    "GenerationSession",
    "generate",
    "generate_unwatermarked",
    "make_code",
]


@runtime_checkable
class LanguageModel(Protocol):
    """Next-token-distribution source.

    ``next_dist`` must be deterministic in the context; all sampling
    randomness lives in the generation loop.
    """

    vocab_size: int

    def next_dist(self, context: Sequence[int]) -> np.ndarray: ...


@dataclass
class GenerationSession:
    """One watermarked generation run: key, strategy, and code history.

    The history (a set of code fingerprints) starts empty per session; pass
    ``history`` explicitly to share spent codes across sequences.
    ``cluster_map`` is read only by cluster-context strategies.
    """

    key: bytes
    config: ReweightConfig
    ngram_n: int = 1
    cluster_map: ClusterMap | None = None
    rng_seed: int = 0
    history: set[int] = field(default_factory=set)
    watermarked_mask: list[bool] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.key:
            raise ValueError("watermark key must be non-empty")
        if self.ngram_n < 1:
            raise ValueError("ngram_n must be >= 1")
        if STRATEGIES[self.config.strategy].context == "cluster":
            if self.cluster_map is None:
                raise ValueError(f"{self.config.strategy} requires a cluster map")
            if self.cluster_map.h != self.config.h:
                raise ValueError(
                    f"config h={self.config.h} != cluster map h={self.cluster_map.h}"
                )


def make_code(
    key: bytes,
    context_tokens: Sequence[int],
    ngram_n: int,
    strategy: str,
    cluster_map: ClusterMap | None = None,
) -> WatermarkCode | None:
    """Watermark code for a step, or None if the context is too short.

    The strategy's context convention decides what is hashed: the cluster
    indices of the context tokens, or their raw ids.
    """
    if len(context_tokens) < ngram_n:
        return None
    gram = tuple(int(t) for t in context_tokens[-ngram_n:])
    if STRATEGIES[strategy].context == "cluster":
        gram = tuple(int(cluster_map.assignment[t]) for t in gram)
    return WatermarkCode(key=key, context=gram, ngram_n=ngram_n)


def generate(
    model: LanguageModel,
    prompt: Sequence[int],
    length: int,
    session: GenerationSession,
) -> list[int]:
    """Generate ``length`` tokens, watermarking each step whose code is
    fresh.  Returns only the generated tokens (prompt excluded)."""
    if length < 1:
        raise ValueError("generation length must be >= 1")
    strategy = STRATEGIES[session.config.strategy]
    rng = np.random.default_rng(session.rng_seed)
    context = [int(t) for t in prompt]
    out: list[int] = []
    session.watermarked_mask = []

    for _ in range(length):
        dist = np.asarray(model.next_dist(tuple(context)), dtype=np.float64)
        if strategy.context is None:
            # a key-only code is context-free and intentionally reused, so
            # the history rule does not apply
            code, fresh = None, True
        else:
            code = make_code(session.key, context, session.ngram_n,
                             session.config.strategy, session.cluster_map)
            fingerprint = code_fingerprint(code) if code is not None else None
            fresh = code is not None and fingerprint not in session.history
            if fresh:
                session.history.add(fingerprint)
        token = strategy.step(dist, code, session, rng) if fresh else _sample_plain(dist, rng)
        session.watermarked_mask.append(fresh)
        context.append(token)
        out.append(token)
    return out


def generate_unwatermarked(
    model: LanguageModel,
    prompt: Sequence[int],
    length: int,
    seed: int = 0,
) -> list[int]:
    """Plain ancestral sampling; the null-hypothesis corpus generator."""
    if length < 1:
        raise ValueError("generation length must be >= 1")
    rng = np.random.default_rng(seed)
    context = [int(t) for t in prompt]
    out: list[int] = []
    for _ in range(length):
        dist = np.asarray(model.next_dist(tuple(context)), dtype=np.float64)
        token = _sample_plain(dist, rng)
        context.append(token)
        out.append(token)
    return out
