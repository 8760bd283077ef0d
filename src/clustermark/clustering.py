"""Vocabulary clustering: k-means over token embeddings, persistence, and
mismatch-rate measurement.

A fitted :class:`ClusterMap` is the shared artifact between watermark
generation and detection; it is computed once per embedding table and then
loaded read-only everywhere else.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import _validate_tokens

__all__ = [
    "ClusterMap",
    "MismatchReport",
    "ClusterMapFormatError",
    "kmeans_fit",
    "inertia",
    "mismatch_rates",
    "save_cluster_map",
    "load_cluster_map",
    "load_embeddings",
    "save_embeddings_binary",
]

_EMBEDDING_MAGIC = b"AQEM"


class ClusterMapFormatError(ValueError):
    """Raised when a persisted cluster map fails to parse or validate."""


@dataclass
class ClusterMap:
    """Token -> cluster assignment with centroids.

    ``assignment[token]`` is the cluster index in [0, h); ``centroids`` is
    (h, d).  Every cluster must own at least one token.
    """

    h: int
    assignment: np.ndarray
    centroids: np.ndarray
    seed: int = 0
    metric: str = "euclidean"
    cluster_members: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.h < 1:
            raise ValueError("cluster count must be >= 1")
        if self.assignment.ndim != 1:
            raise ValueError("assignment must be 1-d")
        if self.centroids.ndim != 2 or self.centroids.shape[0] != self.h:
            raise ValueError("centroids must have shape (h, d)")
        if self.metric != "euclidean":
            raise ValueError(f"unsupported metric {self.metric!r}")
        if np.any(self.assignment < 0) or np.any(self.assignment >= self.h):
            raise ValueError("assignment contains cluster index outside [0, h)")
        sizes = np.bincount(self.assignment, minlength=self.h)
        if np.any(sizes == 0):
            empty = int(np.flatnonzero(sizes == 0)[0])
            raise ValueError(f"cluster {empty} has no members")
        self.cluster_members = [
            np.flatnonzero(self.assignment == c) for c in range(self.h)
        ]

    @property
    def n_tokens(self) -> int:
        return int(self.assignment.size)

    def cluster_of(self, token: int) -> int:
        return int(self.assignment[token])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterMap):
            return NotImplemented
        return (
            self.h == other.h
            and self.seed == other.seed
            and self.metric == other.metric
            and np.array_equal(self.assignment, other.assignment)
            and np.array_equal(self.centroids, other.centroids)
        )


@dataclass
class MismatchReport:
    """Position-wise token and cluster disagreement between two sequences.

    ``reduction`` is the fractional drop (token_rate - cluster_rate) /
    token_rate, defined as 0 when no tokens mismatch.
    """

    token_rate: float
    cluster_rate: float
    reduction: float
    positions: int
    truncated: bool = False


def _validate_embeddings(embeddings: np.ndarray) -> np.ndarray:
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] == 0 or emb.shape[1] == 0:
        raise ValueError("embeddings must be a non-empty (N, d) matrix")
    if not np.all(np.isfinite(emb)):
        raise ValueError("embeddings contain non-finite values")
    return emb


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (N, h) squared Euclidean distances without forming (N, h, d).
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centroids.T, 0.0)


def inertia(embeddings: np.ndarray, map_: ClusterMap) -> float:
    """Within-cluster sum of squared distances to assigned centroids."""
    emb = np.asarray(embeddings, dtype=np.float64)
    diffs = emb - map_.centroids[map_.assignment]
    return float(np.einsum("ij,ij->", diffs, diffs))


def _kmeanspp_init(emb: np.ndarray, h: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: D^2-weighted candidates per step, keeping the one
    that most reduces the potential."""
    n = emb.shape[0]
    n_candidates = 2 + int(np.log(h + 1))
    centroids = np.empty((h, emb.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = emb[first]
    closest = _sq_distances(emb, centroids[:1]).ravel()
    for c in range(1, h):
        total = closest.sum()
        if total <= 0:
            # all remaining points coincide with chosen centroids
            centroids[c] = emb[int(rng.integers(n))]
        else:
            cand = rng.choice(n, size=n_candidates, p=closest / total)
            best_idx, best_closest, best_total = -1, None, np.inf
            for idx in cand:
                trial = np.minimum(
                    closest, _sq_distances(emb, emb[idx : idx + 1]).ravel()
                )
                trial_total = trial.sum()
                if trial_total < best_total:
                    best_idx, best_closest, best_total = int(idx), trial, trial_total
            centroids[c] = emb[best_idx]
            closest = best_closest
            continue
        closest = np.minimum(closest, _sq_distances(emb, centroids[c : c + 1]).ravel())
    return centroids


def _lloyd_iterations(emb, h, seed, max_iters, tol):
    """Yield (labels, centroids) after each assignment sweep.

    Labels in every snapshot are nearest-centroid assignments under the
    snapshot's centroids, so within-cluster sum of squares recomputed from a
    snapshot is the true Lloyd objective at that iteration.
    """
    n = emb.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(emb, h, rng)
    for _ in range(max_iters):
        dists = _sq_distances(emb, centroids)
        labels = np.argmin(dists, axis=1)  # ties -> lowest index
        yield labels, centroids
        point_d = dists[np.arange(n), labels]

        # means first, then repair, so reseeding cannot skew another mean
        new_centroids = np.empty_like(centroids)
        empty = []
        for c in range(h):
            members = labels == c
            if members.any():
                new_centroids[c] = emb[members].mean(axis=0)
            else:
                empty.append(c)
        for c in empty:
            far = int(np.argmax(point_d))
            new_centroids[c] = emb[far]
            point_d[far] = 0.0

        move = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if move < tol:
            dists = _sq_distances(emb, centroids)
            yield np.argmin(dists, axis=1), centroids
            return


_KMEANS_RESTARTS = 16


def kmeans_fit(
    embeddings: np.ndarray,
    h: int,
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> ClusterMap:
    """Lloyd's algorithm with k-means++ initialization, best of 16 seeded
    restarts by within-cluster sum of squares.

    Each restart stops when the largest centroid movement drops below
    ``tol`` or after ``max_iters`` sweeps.  Empty clusters are repaired by
    reseeding to the point currently farthest from its assigned centroid.
    """
    emb = _validate_embeddings(embeddings)
    n = emb.shape[0]
    if h < 1:
        raise ValueError("cluster count must be >= 1")
    if n < h:
        raise ValueError(f"need at least h={h} points, got {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")

    labels = centroids = None
    best = np.inf
    for restart in range(_KMEANS_RESTARTS):
        sub_seed = int(np.random.SeedSequence(seed, spawn_key=(restart,)).generate_state(1)[0])
        run_labels = run_centroids = None
        for run_labels, run_centroids in _lloyd_iterations(
            emb, h, sub_seed, max_iters, tol
        ):
            pass
        diffs = emb - run_centroids[run_labels]
        wcss = float(np.einsum("ij,ij->", diffs, diffs))
        if wcss < best:
            best = wcss
            labels, centroids = run_labels, run_centroids
    centroids = centroids.copy()

    # a centroid can end up unused in the last snapshot; claim the farthest
    # point so every cluster stays non-empty
    sizes = np.bincount(labels, minlength=h)
    while np.any(sizes == 0):
        c = int(np.flatnonzero(sizes == 0)[0])
        dists = _sq_distances(emb, centroids)
        point_d = dists[np.arange(n), labels]
        movable = np.flatnonzero(sizes[labels] > 1)
        far = int(movable[np.argmax(point_d[movable])])
        centroids[c] = emb[far]
        labels[far] = c
        sizes = np.bincount(labels, minlength=h)

    return ClusterMap(h=h, assignment=labels, centroids=centroids, seed=seed)


def mismatch_rates(
    original, retokenized, map_: ClusterMap
) -> MismatchReport:
    """Fraction of positions where tokens (resp. their clusters) disagree.

    Sequences of unequal length are compared position-wise after truncating
    to the shorter one; the report records that truncation happened.
    """
    a = np.asarray(original, dtype=np.int64)
    b = np.asarray(retokenized, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        raise ValueError("mismatch_rates requires non-empty sequences")
    a = _validate_tokens(a, map_.n_tokens)
    b = _validate_tokens(b, map_.n_tokens)
    truncated = a.size != b.size
    m = min(a.size, b.size)
    a, b = a[:m], b[:m]
    token_rate = float(np.mean(a != b))
    cluster_rate = float(np.mean(map_.assignment[a] != map_.assignment[b]))
    reduction = (token_rate - cluster_rate) / token_rate if token_rate > 0 else 0.0
    return MismatchReport(
        token_rate=token_rate,
        cluster_rate=cluster_rate,
        reduction=reduction,
        positions=m,
        truncated=truncated,
    )


def save_cluster_map(map_: ClusterMap, path) -> None:
    payload = {
        "h": map_.h,
        "n_tokens": map_.n_tokens,
        "assignment": map_.assignment.tolist(),
        "centroids": map_.centroids.tolist(),
        "metric": map_.metric,
        "seed": map_.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_cluster_map(path) -> ClusterMap:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ClusterMapFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ClusterMapFormatError(f"{path}: expected a JSON object at top level")
    for key in ("h", "n_tokens", "assignment", "centroids", "metric", "seed"):
        if key not in payload:
            raise ClusterMapFormatError(f"{path}: missing field {key!r}")
    try:
        map_ = ClusterMap(
            h=int(payload["h"]),
            assignment=np.asarray(payload["assignment"], dtype=np.int64),
            centroids=np.asarray(payload["centroids"], dtype=np.float64),
            seed=int(payload["seed"]),
            metric=str(payload["metric"]),
        )
    except (ValueError, TypeError) as exc:
        raise ClusterMapFormatError(f"{path}: {exc}") from exc
    if map_.n_tokens != int(payload["n_tokens"]):
        raise ClusterMapFormatError(
            f"{path}: n_tokens={payload['n_tokens']} but assignment has "
            f"{map_.n_tokens} entries"
        )
    return map_


def save_embeddings_binary(embeddings: np.ndarray, path) -> None:
    """16-byte header (magic 'AQEM', u32 N, u32 d, u32 reserved=0, all
    little-endian) followed by N*d little-endian float32 values."""
    emb = _validate_embeddings(embeddings)
    n, d = emb.shape
    with open(path, "wb") as fh:
        fh.write(_EMBEDDING_MAGIC + struct.pack("<III", n, d, 0))
        fh.write(emb.astype("<f4").tobytes())


def load_embeddings(path) -> np.ndarray:
    """Embedding matrix from the binary format or CSV (one row per token)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _EMBEDDING_MAGIC:
            n, d, _reserved = struct.unpack("<III", fh.read(12))
            data = np.frombuffer(fh.read(n * d * 4), dtype="<f4")
            if data.size != n * d:
                raise ValueError(f"{path}: truncated embedding payload")
            return data.reshape(n, d).astype(np.float64)
    emb = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return _validate_embeddings(emb)
