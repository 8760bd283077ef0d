"""Desk-scale stand-ins for the audio stack: a synthetic autoregressive
token model with clustered embeddings, a decode-then-encode perturbation
channel calibrated to measured mismatch rates, and token-level attack
operators.

The channel replaces each position independently: with probability
p_tok * q_same by one of the token's nearest same-cluster neighbors, with
probability p_tok * (1 - q_same) by a uniform token from another cluster.
Its marginals therefore hit a target (token_rate, cluster_rate) pair with
p_tok = token_rate and q_same = 1 - cluster_rate / token_rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterMap
from .core import _validate_tokens

__all__ = [
    "SyntheticModelConfig",
    "SyntheticModel",
    "build_synthetic_model",
    "ChannelConfig",
    "CHANNEL_PRESETS",
    "channel_preset",
    "apply_channel",
    "same_cluster_neighbors",
    "attack_substitute",
    "attack_crop",
    "attack_insert_delete",
]


@dataclass(frozen=True)
class SyntheticModelConfig:
    """Synthetic vocabulary + model: a Gaussian-mixture embedding table and
    keyed Dirichlet next-token distributions.

    ``separation`` is the pairwise centroid distance in units of the
    per-component standard deviation (components sit on a scaled simplex, so
    all pairs are equally far apart); ``dirichlet_beta`` is the
    concentration of each context's next-token distribution (smaller means
    peakier).
    """

    n_vocab: int = 500
    dim: int = 24
    true_clusters: int = 20
    separation: float = 12.0
    dirichlet_beta: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.true_clusters < 1 or self.n_vocab < self.true_clusters:
            raise ValueError("need n_vocab >= true_clusters >= 1")
        if self.dim < self.true_clusters:
            raise ValueError(
                "simplex centroid construction needs dim >= true_clusters"
            )
        if self.separation <= 0:
            raise ValueError("separation must be > 0")
        if self.dirichlet_beta <= 0:
            raise ValueError("dirichlet_beta must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class SyntheticModel:
    """Deterministic context -> Dirichlet(beta) next-token distribution.

    The draw for a context is seeded by SHA-256(seed || context), so the
    same context always yields the same distribution, across calls and
    across processes.
    """

    def __init__(self, cfg: SyntheticModelConfig):
        self.cfg = cfg
        self.vocab_size = cfg.n_vocab
        self.component_labels: np.ndarray | None = None
        self._alpha = np.full(cfg.n_vocab, cfg.dirichlet_beta)
        self._seed_prefix = cfg.seed.to_bytes(8, "big")

    def next_dist(self, context) -> np.ndarray:
        msg = self._seed_prefix + np.asarray(context, dtype=">u4").tobytes()
        digest = hashlib.sha256(msg).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return rng.dirichlet(self._alpha)


def build_synthetic_model(
    cfg: SyntheticModelConfig,
) -> tuple[SyntheticModel, np.ndarray]:
    """Model plus its (n_vocab, dim) embedding table.

    Token i belongs to mixture component i mod true_clusters (balanced by
    construction); the model exposes the labels as ``component_labels``.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.true_clusters
    # basis-vector simplex: all pairwise centroid distances equal separation
    centroids = np.zeros((k, cfg.dim))
    centroids[np.arange(k), np.arange(k)] = cfg.separation / np.sqrt(2.0)
    labels = np.arange(cfg.n_vocab) % k
    embeddings = centroids[labels] + rng.normal(size=(cfg.n_vocab, cfg.dim))
    model = SyntheticModel(cfg)
    model.component_labels = labels
    return model, embeddings


# Measured decode-then-encode (token_rate, cluster_rate) pairs used to
# calibrate channel presets.
CHANNEL_PRESETS: dict[str, tuple[float, float]] = {
    "mmw_book_report": (0.3749, 0.2117),
    "mmw_story": (0.3652, 0.2174),
    "mmw_fake_news": (0.4295, 0.2300),
    "dolly_cw": (0.3634, 0.2134),
    "longform_qa": (0.3757, 0.2109),
    "finance_qa": (0.3587, 0.2133),
}


@dataclass(frozen=True)
class ChannelConfig:
    """Retokenization-channel parameters.

    Expected token mismatch is p_tok; expected cluster mismatch is
    p_tok * (1 - q_same).  ``same_cluster_pool`` is how many nearest
    same-cluster neighbors a cluster-preserving replacement draws from.
    """

    p_tok: float
    q_same: float
    seed: int = 0
    same_cluster_pool: int = 5

    def __post_init__(self):
        if not 0.0 <= self.p_tok <= 1.0:
            raise ValueError("p_tok must be in [0, 1]")
        if not 0.0 <= self.q_same <= 1.0:
            raise ValueError("q_same must be in [0, 1]")
        if self.same_cluster_pool < 1:
            raise ValueError("same_cluster_pool must be >= 1")


def channel_preset(name: str, seed: int = 0, same_cluster_pool: int = 5) -> ChannelConfig:
    """ChannelConfig hitting a preset's measured mismatch pair."""
    if name not in CHANNEL_PRESETS:
        raise ValueError(
            f"unknown channel preset {name!r}; choose from {sorted(CHANNEL_PRESETS)}"
        )
    token_rate, cluster_rate = CHANNEL_PRESETS[name]
    return ChannelConfig(
        p_tok=token_rate,
        q_same=1.0 - cluster_rate / token_rate,
        seed=seed,
        same_cluster_pool=same_cluster_pool,
    )


def same_cluster_neighbors(
    map_: ClusterMap, embeddings: np.ndarray, k: int = 5
) -> list[np.ndarray]:
    """Per token, its k nearest same-cluster neighbors (self excluded).

    Tokens in singleton clusters get an empty pool; the channel keeps them
    unchanged when a same-cluster replacement is requested.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    pools: list[np.ndarray | None] = [None] * map_.n_tokens
    for members in map_.cluster_members:
        if members.size == 1:
            pools[int(members[0])] = np.empty(0, dtype=np.int64)
            continue
        pts = emb[members]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        take = min(k, members.size - 1)
        nearest = np.argsort(d2, axis=1)[:, :take]
        for row, tok in enumerate(members):
            pools[int(tok)] = members[nearest[row]]
    return pools


def apply_channel(
    tokens,
    map_: ClusterMap,
    embeddings: np.ndarray,
    cfg: ChannelConfig,
    neighbors: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Simulated decode-then-encode perturbation of a token sequence.

    Pass a precomputed ``neighbors`` table (from
    :func:`same_cluster_neighbors`) when calling repeatedly with one map.
    """
    arr = _validate_tokens(tokens, map_.n_tokens)
    n = arr.size
    if neighbors is None:
        neighbors = same_cluster_neighbors(map_, embeddings, cfg.same_cluster_pool)

    rng = np.random.default_rng(cfg.seed)
    u_replace = rng.random(n)
    u_same = rng.random(n)
    raw_draws = rng.integers(0, 2**63, size=n)

    replace = u_replace < cfg.p_tok
    same = replace & (u_same < cfg.q_same)
    cross = replace & ~same

    # complement token lists per cluster, for uniform cross-cluster draws
    all_tokens = np.arange(map_.n_tokens)
    complements = [
        all_tokens[map_.assignment != c] for c in range(map_.h)
    ]

    out = arr.copy()
    for pos in np.flatnonzero(same):
        pool = neighbors[arr[pos]]
        if pool.size:
            out[pos] = pool[raw_draws[pos] % pool.size]
    for pos in np.flatnonzero(cross):
        comp = complements[map_.cluster_of(arr[pos])]
        out[pos] = comp[raw_draws[pos] % comp.size]
    return out


def attack_substitute(tokens, rate: float, n_vocab: int, seed: int = 0) -> np.ndarray:
    """Replace each position independently with probability ``rate`` by a
    uniform random token (possibly itself)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    arr = _validate_tokens(tokens, n_vocab).copy()
    rng = np.random.default_rng(seed)
    hit = rng.random(arr.size) < rate
    arr[hit] = rng.integers(0, n_vocab, size=int(hit.sum()))
    return arr


def attack_crop(tokens, drop_front: int, drop_back: int, n_vocab: int) -> np.ndarray:
    """Remove prefix/suffix tokens (whole-token cropping / time shift)."""
    arr = _validate_tokens(tokens, n_vocab)
    if drop_front < 0 or drop_back < 0:
        raise ValueError("crop amounts must be non-negative")
    if arr.size - drop_front - drop_back < 2:
        raise ValueError("crop must leave at least 2 tokens")
    return arr[drop_front : arr.size - drop_back].copy()


def attack_insert_delete(
    tokens, p_ins: float, p_del: float, n_vocab: int, seed: int = 0
) -> np.ndarray:
    """Per position: delete with p_del, then insert a uniform random token
    after it with p_ins.  Desynchronizes n-gram contexts."""
    if not 0.0 <= p_ins <= 1.0 or not 0.0 <= p_del <= 1.0:
        raise ValueError("rates must be in [0, 1]")
    arr = _validate_tokens(tokens, n_vocab)
    rng = np.random.default_rng(seed)
    drop = rng.random(arr.size) < p_del
    ins = rng.random(arr.size) < p_ins
    fresh = rng.integers(0, n_vocab, size=arr.size)
    out: list[int] = []
    for i, tok in enumerate(arr):
        if not drop[i]:
            out.append(int(tok))
        if ins[i]:
            out.append(int(fresh[i]))
    if not out:
        raise ValueError("attack removed every token; sequence too short")
    return np.asarray(out, dtype=np.int64)
