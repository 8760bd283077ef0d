"""Keyed pseudo-random primitives and shared value types.

Everything downstream (reweighting, generation, detection) derives its
per-step randomness from a watermark code: the secret key plus the n-gram
of context values preceding the current position.  The derivations here are
fixed to SHA-256 with explicit domain separation so that two independent
processes recover bit-identical values from the same key and context.

Keyed permutations are bit-stable across versions, so content watermarked
by an earlier version still detects.  The permutation of [0, n) for a code
is drawn from this stream:

- prefix = key || 0x02 || ngram_n || context, with ngram_n and each context
  value 4-byte big-endian (the key-only unigram code has ngram_n 0 and an
  empty context);
- block b = 0, 1, ... is SHA-256(prefix || b), b 4-byte big-endian;
- each digest is four words, bytes 0-7, 8-15, 16-23 and 24-31, each a
  big-endian uint64; the stream is block 0's words, then block 1's, ...;
- Fisher-Yates from the identity, for i = n-1 down to 1 with m = i + 1:
  take the next word u; if u >= 2^64 - (2^64 mod m) it is rejected and
  consumed, and the next word serves the same i (a power-of-two m rejects
  nothing); otherwise swap positions i and u mod m.

A code's cached order stores the swap targets j_i = u mod m, not the
permutation.  A detector that needs only inverse[token] follows the token
through them: the element at position p ends at the first later step i > p
(going down) with j_i = p; if there is none, step p moves it to j_p, and
from there the same rule applies to the steps below p, until j_p = p or
p = 0 leaves it in place.  The permutation and its inverse are built from
the same targets when first read, so both paths give the same bits.
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


def _sha256_words(prefix: bytes, n_words: int):
    """Counter-mode SHA-256 stream as batches of big-endian uint64 words.

    Block ``b`` is SHA-256(prefix || b as 4-byte big-endian), read as four
    words.  The first batch holds the ``ceil(n_words / 4)`` blocks that
    suffice without rejections; each later batch is one more block.
    """
    base = hashlib.sha256(prefix)
    block, n_blocks = 0, -(-n_words // 4)
    while True:
        digests = []
        for b in range(block, block + n_blocks):
            h = base.copy()
            h.update(b.to_bytes(4, "big"))
            digests.append(h.digest())
        block += n_blocks
        n_blocks = 1
        yield np.frombuffer(b"".join(digests), ">u8").astype(np.uint64)


def _draw_targets(n: int, batches) -> np.ndarray:
    """Fisher-Yates swap targets j_i for i = n-1 down to 1, drawn from the
    uint64 word arrays ``batches``, in the narrowest unsigned dtype.

    The rejection tests and modulos run as array operations over each
    batch up to its first rejected word.  Rules as in the module docstring.
    """
    m = np.arange(n, 1, -1, dtype=np.uint64)
    highest_ok = ~((~m + np.uint64(1)) % m)  # 2^64 - 1 - (2^64 mod m)
    targets = np.empty(m.size, dtype=np.min_scalar_type(n - 1))
    done, words = 0, np.empty(0, dtype=np.uint64)
    while done < m.size:
        if words.size == 0:
            words = next(batches)
        k = min(words.size, m.size - done)
        u = words[:k]
        rejected = np.flatnonzero(u > highest_ok[done : done + k])
        take = int(rejected[0]) if rejected.size else k
        targets[done : done + take] = u[:take] % m[done : done + take]
        done += take
        words = words[take + 1 if rejected.size else take :]
    return targets


def _fisher_yates(n: int, batches) -> list[int]:
    """Permutation of [0, n) shuffled by the uint64 word arrays ``batches``.

    Taking the batches as an argument lets a test feed rejected words,
    which SHA-256 output almost never is.
    """
    return _KeyedOrder(n, _draw_targets(n, batches)).perm.tolist()


class _KeyedOrder:
    """One code's keyed permutation of [0, n), materialised on demand.

    It holds the Fisher-Yates swap targets until ``perm`` or ``inverse`` is
    first read, which builds both as read-only int64 arrays and drops the
    targets.  ``rank`` reads one entry of the inverse without building it.
    """

    __slots__ = ("n", "_targets", "_perm", "_inverse")

    def __init__(self, n: int, targets: np.ndarray):
        self.n = n
        self._targets = targets
        self._perm = self._inverse = None

    def _build(self) -> None:
        targets = self._targets
        if targets is None:
            return
        out = list(range(self.n))
        for i, j in zip(range(self.n - 1, 0, -1), targets.tolist()):
            out[i], out[j] = out[j], out[i]
        perm = np.array(out, dtype=np.int64)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.n, dtype=np.int64)
        perm.setflags(write=False)
        inverse.setflags(write=False)
        # publish the arrays before dropping the targets: rank() checks the
        # targets first
        self._perm, self._inverse = perm, inverse
        self._targets = None

    @property
    def perm(self) -> np.ndarray:
        if self._perm is None:
            self._build()
        return self._perm

    @property
    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            self._build()
        return self._inverse

    def rank(self, token: int) -> int:
        """Position of ``token`` in the permutation: ``inverse[token]``."""
        targets = self._targets
        if targets is None:
            return int(self._inverse[token])
        # step i is targets[n-1-i]; the element at position p is last moved
        # by the first later step (i > p) with j_i == p, which puts it at i,
        # or else by step p itself, which moves it down to j_p
        last = self.n - 1
        pos, k = int(token), 0  # targets[k:] are the steps not yet applied
        while True:
            hit = targets[k : last - pos] == pos
            # a boolean argmax stops at the first True
            if hit.size and hit[first := int(hit.argmax())]:
                return last - k - first
            if pos == 0:
                return 0
            j = int(targets[last - pos])
            if j == pos:
                return pos
            k, pos = last - pos + 1, j


@lru_cache(maxsize=1 << 15)
def _prf_permutation_raw(
    key: bytes, ngram_n: int, context: tuple[int, ...], n: int
) -> _KeyedOrder:
    """The keyed order of [0, n) for one code, its swap targets drawn."""
    if n < 1:
        raise ValueError("permutation size must be >= 1")
    prefix = _encode(key, _DOMAIN_PERMUTATION, ngram_n, context)
    return _KeyedOrder(n, _draw_targets(n, _sha256_words(prefix, n - 1)))


def prf_permutation(code: WatermarkCode, n: int) -> np.ndarray:
    """Deterministic keyed permutation of [0, n) via Fisher-Yates.

    The words are SHA-256(key || 0x02 || ngram_n || context || block),
    integers 4-byte big-endian and block = 0, 1, ..., each digest split into
    four big-endian uint64.  For i = n-1 .. 1 and m = i + 1, a word
    u >= 2^64 - (2^64 mod m) is rejected and consumed; otherwise positions i
    and u mod m swap.  The stream is fixed across versions.

    Detectors that need one token's rank read it from the swap targets
    without performing the swaps (``_KeyedOrder.rank``); the ranks are the
    ones this permutation gives.
    """
    return _prf_permutation_raw(code.key, code.ngram_n, code.context, n).perm


def clear_prf_caches() -> None:
    """Drop memoized PRF values (tests, long multi-key runs)."""
    _prf_r_raw.cache_clear()
    _prf_permutation_raw.cache_clear()


def _validate_tokens(tokens, n_vocab: int, min_len: int = 1) -> np.ndarray:
    """``tokens`` as a 1-d int64 array; ValueError unless it holds at least
    ``min_len`` ids, all in [0, n_vocab).

    numpy indexing would wrap a negative id onto a real token, so every
    entry point that indexes by token id checks here first.
    """
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("token sequence must be 1-d")
    if arr.size < min_len:
        raise ValueError(
            f"token sequence has {arr.size} tokens; at least {min_len} needed"
        )
    outside = (arr < 0) | (arr >= n_vocab)
    if outside.any():
        raise ValueError(
            f"token id {arr[outside][0]} outside the vocabulary [0, {n_vocab})"
        )
    return arr


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
