"""Reweight strategies: cluster-aligned inverse sampling plus the standard
comparison watermarks (KGW, Unigram, DiPmark / gamma-reweight, and a
position-score inverse-transform sampler), and the strategy table that
tells generation, detection and the harness how the strategies differ.

Aligned inverse sampling tiles [0, 1) so that cluster i owns the start of
the fixed bin [(i-1)/h, i/h); mass a cluster holds beyond 1/h fills other
bins' deficits.  Sampling at a keyed point r then lands in cluster i's own
bin with probability min(Pr(c_i), 1/h), which is exactly what the detector
scores, while the marginal token law stays untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clustering import ClusterMap
from .core import (
    WatermarkCode,
    _prf_permutation_raw,
    prf_r,
    validate_prob_vector,
)

__all__ = [
    "STRATEGIES",
    "Strategy",
    "ReweightConfig",
    "SegmentTable",
    "cluster_probs",
    "build_segment_table",
    "aligned_sample",
    "aligned_score",
    "aligned_marginal",
    "kgw_reweight",
    "unigram_reweight",
    "dipmark_reweight",
    "its_sample",
    "its_score",
    "its_marginal",
]


@dataclass(frozen=True)
class ReweightConfig:
    """Strategy name plus the parameters that strategy actually uses.

    gamma_reweight is DiPmark at alpha = 0.5 (their reweight formulas
    coincide there), so it carries no parameters of its own.
    """

    strategy: str
    h: int | None = None            # aligned_is
    delta: float | None = None      # kgw, unigram
    gamma: float | None = None      # kgw, unigram
    alpha: float | None = None      # dipmark

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        used = STRATEGIES[self.strategy].params
        for name, (valid, requirement) in _PARAM_RULES.items():
            value = getattr(self, name)
            if name in used and (value is None or not valid(value)):
                raise ValueError(f"{self.strategy} requires {requirement}")
            if name not in used and value is not None:
                raise ValueError(
                    f"parameter {name!r} is not used by strategy {self.strategy!r}"
                )

    def label(self) -> str:
        params = STRATEGIES[self.strategy].params
        if not params:
            return self.strategy
        return f"{self.strategy}({','.join(f'{p}={getattr(self, p)}' for p in params)})"


# parameter -> (validity test, requirement named in the error)
_PARAM_RULES = {
    "h": (lambda v: v >= 1, "cluster count h >= 1"),
    "delta": (lambda v: v >= 0, "delta >= 0"),
    "gamma": (lambda v: 0 < v < 1, "gamma in (0, 1)"),
    "alpha": (lambda v: 0 <= v <= 0.5, "alpha in [0, 0.5]"),
}


class SegmentTable:
    """Exact tiling of [0, 1) by (cluster, start, end) segments.

    Bin i = [i/h, (i+1)/h) (0-indexed clusters).  Each bin starts with its
    own cluster's mass min(Pr(c_i), 1/h); remaining bin space is filled from
    the overflow of clusters holding more than 1/h, donors consumed in
    descending-overflow order (ties by ascending cluster index).  Zero-width
    segments are never stored.
    """

    __slots__ = ("h", "clusters", "starts", "ends", "own_mass_total")

    def __init__(self, h: int, clusters: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, own_mass_total: float):
        self.h = h
        self.clusters = clusters
        self.starts = starts
        self.ends = ends
        self.own_mass_total = own_mass_total

    def __len__(self) -> int:
        return len(self.clusters)

    def segments(self) -> list[tuple[int, float, float]]:
        return [
            (int(c), float(a), float(b))
            for c, a, b in zip(self.clusters, self.starts, self.ends)
        ]

    def locate(self, r: float) -> int:
        """Cluster owning the segment containing r."""
        if not 0.0 <= r < 1.0:
            raise ValueError(f"r={r} outside [0, 1)")
        idx = int(np.searchsorted(self.ends, r, side="right"))
        if idx >= len(self.clusters):
            idx = len(self.clusters) - 1
        return int(self.clusters[idx])

    def cluster_lengths(self) -> np.ndarray:
        """Total interval length owned by each cluster."""
        lengths = np.zeros(self.h, dtype=np.float64)
        np.add.at(lengths, self.clusters, self.ends - self.starts)
        return lengths


def cluster_probs(dist: np.ndarray, map_: ClusterMap) -> np.ndarray:
    """Per-cluster probability mass under ``dist``."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape[0] != map_.n_tokens:
        raise ValueError(
            f"distribution has {dist.shape[0]} entries, map covers "
            f"{map_.n_tokens} tokens"
        )
    return np.bincount(map_.assignment, weights=dist, minlength=map_.h)


def build_segment_table(probs: np.ndarray) -> SegmentTable:
    """Aligned tiling of [0, 1) from cluster masses summing to 1."""
    probs = np.asarray(probs, dtype=np.float64)
    validate_prob_vector(probs)
    h = probs.shape[0]
    width = 1.0 / h

    own = np.minimum(probs, width)
    overflow = probs - own

    # donors: descending overflow, ties by ascending cluster index
    donor_ids = [int(c) for c in np.flatnonzero(overflow > 0)]
    donor_ids.sort(key=lambda c: (-overflow[c], c))
    donor_left = {c: float(overflow[c]) for c in donor_ids}
    di = 0

    clusters: list[int] = []
    starts: list[float] = []
    ends: list[float] = []

    for i in range(h):
        pos = i * width
        bin_end = (i + 1) * width if i < h - 1 else 1.0
        if own[i] > 0.0:
            clusters.append(i)
            starts.append(pos)
            pos += own[i]
            ends.append(pos)
        deficit = bin_end - pos
        # sub-epsilon residues are float round-off from the donor ledger;
        # they are left to be absorbed at the next bin boundary
        while deficit > 1e-15 and di < len(donor_ids):
            donor = donor_ids[di]
            take = min(deficit, donor_left[donor])
            if take > 1e-15:
                clusters.append(donor)
                starts.append(pos)
                pos += take
                ends.append(pos)
                deficit -= take
            donor_left[donor] -= take
            if donor_left[donor] <= 1e-15:
                di += 1
    # absorb float round-off from the donor bookkeeping into the last segment
    ends[-1] = 1.0

    return SegmentTable(
        h=h,
        clusters=np.asarray(clusters, dtype=np.int64),
        starts=np.asarray(starts, dtype=np.float64),
        ends=np.asarray(ends, dtype=np.float64),
        own_mass_total=float(own.sum()),
    )


def aligned_sample(
    table: SegmentTable,
    dist: np.ndarray,
    map_: ClusterMap,
    r: float,
    rng: np.random.Generator,
) -> int:
    """Token draw: locate r's segment, then sample within that cluster
    proportionally to the original distribution."""
    cluster = table.locate(r)
    members = map_.cluster_members[cluster]
    weights = np.asarray(dist, dtype=np.float64)[members]
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0.0:
        # zero-width segments are never emitted, so this is unreachable for
        # tables built from the same distribution; guard for foreign tables
        raise ValueError(f"cluster {cluster} has zero mass under dist")
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return int(members[min(idx, members.size - 1)])


def aligned_score(r: float, token: int, map_: ClusterMap) -> int:
    """1 iff r falls in the bin of the token's cluster (Bernoulli evidence)."""
    return 1 if int(r * map_.h) == map_.cluster_of(token) else 0


def aligned_marginal(dist: np.ndarray, map_: ClusterMap) -> np.ndarray:
    """Exact marginal token law of aligned sampling integrated over r.

    Each segment of cluster c and length L contributes L * dist[x] / Pr(c)
    to every token x in c.  Used by distortion-freeness audits.
    """
    dist = np.asarray(dist, dtype=np.float64)
    probs = cluster_probs(dist, map_)
    table = build_segment_table(probs)
    lengths = table.cluster_lengths()
    out = np.zeros_like(dist)
    for c in range(map_.h):
        if probs[c] > 0:
            members = map_.cluster_members[c]
            out[members] = lengths[c] * dist[members] / probs[c]
    return out


def _boost_green(dist: np.ndarray, green_mask: np.ndarray, delta: float) -> np.ndarray:
    # multiplying green mass by e^delta == adding delta to log-probabilities
    dist = np.asarray(dist, dtype=np.float64)
    boosted = np.where(green_mask, dist * math.exp(delta), dist)
    return boosted / boosted.sum()


def kgw_reweight(
    dist: np.ndarray, code: WatermarkCode, delta: float, gamma: float
) -> np.ndarray:
    """Greenlist boost: first ceil(gamma*N) entries of the keyed permutation
    get +delta in log space."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    n = np.asarray(dist).shape[0]
    perm = _prf_permutation_raw(code.key, code.ngram_n, code.context, n).perm
    green_mask = np.zeros(n, dtype=bool)
    green_mask[perm[: math.ceil(gamma * n)]] = True
    return _boost_green(dist, green_mask, delta)


def unigram_reweight(
    dist: np.ndarray, key: bytes, delta: float, gamma: float
) -> np.ndarray:
    """KGW with a global greenlist seeded by the key alone."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    n = np.asarray(dist).shape[0]
    perm = _prf_permutation_raw(key, 0, (), n).perm
    green_mask = np.zeros(n, dtype=bool)
    green_mask[perm[: math.ceil(gamma * n)]] = True
    return _boost_green(dist, green_mask, delta)


def _dipmark_permuted(p_perm: np.ndarray, alpha: float) -> np.ndarray:
    cdf = np.cumsum(p_perm)
    lo = np.maximum(cdf - alpha, 0.0)
    hi = np.maximum(cdf - (1.0 - alpha), 0.0)
    out = np.empty_like(p_perm)
    out[0] = lo[0] + hi[0]
    out[1:] = (lo[1:] - lo[:-1]) + (hi[1:] - hi[:-1])
    return np.maximum(out, 0.0)


def dipmark_reweight(dist: np.ndarray, code: WatermarkCode, alpha: float) -> np.ndarray:
    """Permuted-CDF reweight: mass below the alpha quantile of the keyed
    order is moved onto the (1-alpha) tail; unbiased on average over keys."""
    if not 0 <= alpha <= 0.5:
        raise ValueError("alpha must be in [0, 0.5]")
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    perm = _prf_permutation_raw(code.key, code.ngram_n, code.context, n).perm
    new_perm = _dipmark_permuted(dist[perm], alpha)
    out = np.empty_like(dist)
    out[perm] = new_perm
    return out


def its_sample(dist: np.ndarray, code: WatermarkCode) -> int:
    """Inverse-transform draw over the keyed permutation at quantile
    r = prf_r(code); fully deterministic given the code."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    perm = _prf_permutation_raw(code.key, code.ngram_n, code.context, n).perm
    r = prf_r(code)
    cdf = np.cumsum(dist[perm])
    idx = int(np.searchsorted(cdf, r, side="right"))
    if idx >= n:
        idx = n - 1
    while idx > 0 and dist[perm[idx]] <= 0.0:
        idx -= 1
    return int(perm[idx])


def its_score(r: float, token: int, code: WatermarkCode, n_vocab: int) -> float:
    """Closeness of r to the token's keyed rank position, in [0, 1]."""
    rank = _prf_permutation_raw(code.key, code.ngram_n, code.context, n_vocab).rank(token)
    u = (rank + 0.5) / n_vocab
    return 1.0 - abs(r - u)


def its_marginal(dist: np.ndarray, code: WatermarkCode) -> np.ndarray:
    """Exact marginal of its_sample integrated over r (CDF segment widths)."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    perm = _prf_permutation_raw(code.key, code.ngram_n, code.context, n).perm
    p_perm = dist[perm]
    cdf = np.cumsum(p_perm)
    widths = np.empty_like(p_perm)
    widths[0] = cdf[0]
    widths[1:] = cdf[1:] - cdf[:-1]
    out = np.empty_like(dist)
    out[perm] = widths
    return out


def _sample_plain(dist: np.ndarray, rng: np.random.Generator) -> int:
    # inverse-CDF draw; cheaper than rng.choice for per-step calls
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, dist.shape[0] - 1)


@dataclass(frozen=True)
class Strategy:
    """Everything that differs between watermark strategies.

    ``params`` are the :class:`ReweightConfig` fields the strategy uses.
    ``context`` is what a step's watermark code hashes (``make_code``):
    the "cluster" indices of the preceding n-gram, its raw "token" ids, or
    nothing (None) for a key-only code, which watermarks every step and
    keeps no code history.  ``step(dist, code, session, rng)`` draws one
    watermarked token.  ``detector`` names the function in
    :mod:`clustermark.detect` that sums the strategy's per-step score and
    judges the sum against its null law; ``detector_args(config, ngram_n,
    map_, n_vocab, null_sims=, sim_seed=)`` gives that function's
    parameters.  Steps and detectors call functions by their module-global
    names at call time, so wrappers installed on module attributes (as a
    tracer does) see every call.
    """

    params: tuple[str, ...]
    context: str | None
    step: Callable[..., int]
    detector: str
    detector_args: Callable[..., dict]


def _aligned_step(dist, code, session, rng) -> int:
    probs = cluster_probs(dist, session.cluster_map)
    table = build_segment_table(probs / probs.sum())
    return aligned_sample(table, dist, session.cluster_map, prf_r(code), rng)


def _dipmark(params: tuple[str, ...], alpha: Callable[[ReweightConfig], float]) -> Strategy:
    """DiPmark entry whose alpha is ``alpha(config)``."""
    return Strategy(
        params, "token",
        lambda dist, code, session, rng: _sample_plain(
            dipmark_reweight(dist, code, alpha(session.config)), rng),
        "detect_dipmark",
        lambda config, ngram_n, map_, n_vocab, **_: dict(
            n_vocab=n_vocab, alpha_detect=alpha(config), ngram_n=ngram_n),
    )


STRATEGIES: dict[str, Strategy] = {
    "aligned_is": Strategy(
        ("h",), "cluster", _aligned_step,
        "detect_aligned",
        lambda config, ngram_n, map_, n_vocab, **_: dict(map_=map_, ngram_n=ngram_n),
    ),
    "its": Strategy(
        (), "token",
        lambda dist, code, session, rng: its_sample(dist, code),
        "detect_its",
        lambda config, ngram_n, map_, n_vocab, **sims: dict(
            n_vocab=n_vocab, ngram_n=ngram_n, **sims),
    ),
    "kgw": Strategy(
        ("delta", "gamma"), "token",
        lambda dist, code, session, rng: _sample_plain(kgw_reweight(
            dist, code, session.config.delta, session.config.gamma), rng),
        "detect_kgw",
        lambda config, ngram_n, map_, n_vocab, **_: dict(
            n_vocab=n_vocab, gamma=config.gamma, ngram_n=ngram_n),
    ),
    "unigram": Strategy(
        ("delta", "gamma"), None,
        lambda dist, code, session, rng: _sample_plain(unigram_reweight(
            dist, session.key, session.config.delta, session.config.gamma), rng),
        "detect_unigram",
        lambda config, ngram_n, map_, n_vocab, **_: dict(n_vocab=n_vocab, gamma=config.gamma),
    ),
    "dipmark": _dipmark(("alpha",), lambda config: config.alpha),
    # gamma-reweight (arXiv:2310.10669) is DiPmark (arXiv:2310.07710) at alpha 0.5
    "gamma_reweight": _dipmark((), lambda config: 0.5),
}
