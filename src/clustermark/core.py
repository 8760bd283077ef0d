"""Keyed pseudo-random primitives and shared value types.

Everything downstream (reweighting, generation, detection) derives its
per-step randomness from a watermark code: the secret key plus the n-gram
of context values preceding the current position.  The derivations here are
fixed to SHA-256 with explicit domain separation so that two independent
processes recover bit-identical values from the same key and context.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "WatermarkCode",
    "code_fingerprint",
    "prf_r",
    "prf_permutation",
    "validate_prob_vector",
]

# Domain-separation bytes: fingerprints, unit-interval draws, permutation
# streams must never collide even for identical (key, context) inputs.
_DOMAIN_FINGERPRINT = b"\x00"
_DOMAIN_UNIT = b"\x01"
_DOMAIN_PERMUTATION = b"\x02"

_MAX_TOKEN = 2**32  # context values are encoded as 4-byte big-endian
_TWO64 = 2**64


@dataclass(frozen=True)
class WatermarkCode:
    """Per-step watermark code: (secret key, preceding n-gram).

    ``context`` holds the n context values as plain ints.  Values must fit
    in 4 bytes; vocabularies (or cluster counts) beyond 2^32 are unsupported.
    """

    key: bytes
    context: tuple[int, ...]
    ngram_n: int

    def __post_init__(self):
        if not self.key:
            raise ValueError("watermark key must be non-empty")
        if self.ngram_n < 1:
            raise ValueError("ngram_n must be >= 1")
        if len(self.context) != self.ngram_n:
            raise ValueError(
                f"context length {len(self.context)} != ngram_n {self.ngram_n}"
            )
        for v in self.context:
            if not 0 <= v < _MAX_TOKEN:
                raise ValueError(f"context value {v} out of 4-byte range")


def _encode(key: bytes, domain: bytes, ngram_n: int, context: tuple[int, ...]) -> bytes:
    parts = [key, domain, ngram_n.to_bytes(4, "big")]
    parts.extend(v.to_bytes(4, "big") for v in context)
    return b"".join(parts)


def code_fingerprint(code: WatermarkCode) -> int:
    """64-bit identity of a code, for history membership.

    First 8 bytes (big-endian) of SHA-256 over
    key || 0x00 || ngram_n || context, all integers 4-byte big-endian.
    """
    digest = hashlib.sha256(
        _encode(code.key, _DOMAIN_FINGERPRINT, code.ngram_n, code.context)
    ).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=1 << 17)
def _prf_r_raw(key: bytes, ngram_n: int, context: tuple[int, ...]) -> float:
    digest = hashlib.sha256(_encode(key, _DOMAIN_UNIT, ngram_n, context)).digest()
    r = int.from_bytes(digest[:8], "big") / _TWO64
    # 64-bit values within 2^11 of 2^64 round to 1.0 in float64; clamp so the
    # half-open range holds
    return r if r < 1.0 else math.nextafter(1.0, 0.0)


def prf_r(code: WatermarkCode) -> float:
    """Keyed pseudo-random draw in [0, 1), deterministic in the code."""
    return _prf_r_raw(code.key, code.ngram_n, code.context)


@lru_cache(maxsize=1 << 15)
def _prf_permutation_raw(
    key: bytes, ngram_n: int, context: tuple[int, ...], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(permutation, inverse permutation) of [0, n), both read-only arrays."""
    if n < 1:
        raise ValueError("permutation size must be >= 1")
    prefix = _encode(key, _DOMAIN_PERMUTATION, ngram_n, context)

    # Counter-mode SHA-256 stream, consumed as unsigned 64-bit words.
    words: list[int] = []
    block = 0

    def refill():
        nonlocal block
        digest = hashlib.sha256(prefix + block.to_bytes(4, "big")).digest()
        block += 1
        words.extend(int.from_bytes(digest[k : k + 8], "big") for k in range(0, 32, 8))

    out = np.arange(n, dtype=np.int64)
    wi = 0
    for i in range(n - 1, 0, -1):
        m = i + 1
        limit = _TWO64 - (_TWO64 % m)  # rejection bound for bias-free draws
        while True:
            if wi >= len(words):
                refill()
            u = words[wi]
            wi += 1
            if u < limit:
                break
        j = u % m
        out[i], out[j] = out[j], out[i]

    inverse = np.empty_like(out)
    inverse[out] = np.arange(n, dtype=np.int64)
    out.setflags(write=False)
    inverse.setflags(write=False)
    return out, inverse


def prf_permutation(code: WatermarkCode, n: int) -> np.ndarray:
    """Deterministic keyed permutation of [0, n) via Fisher-Yates."""
    return _prf_permutation_raw(code.key, code.ngram_n, code.context, n)[0]


def clear_prf_caches() -> None:
    """Drop memoized PRF values (tests, long multi-key runs)."""
    _prf_r_raw.cache_clear()
    _prf_permutation_raw.cache_clear()


def validate_prob_vector(probs: np.ndarray, *, atol: float = 1e-9) -> None:
    """Raise ValueError unless ``probs`` is a distribution within ``atol``."""
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probability vector must be a non-empty 1-d array")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probability vector contains non-finite entries")
    if np.any(probs < 0):
        raise ValueError("probability vector contains negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"probability vector sums to {total}, not 1 within {atol}")
