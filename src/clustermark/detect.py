"""Model-agnostic watermark detectors with guaranteed-FPR thresholds.

Every detector consumes only the observed token sequence, the secret key,
and (for the cluster-aligned method) the stored cluster map.  It sums a
per-step score and judges the sum against the strategy's null law: exact
binomial, its normal approximation, or, for the position-score sampler, the
score's key-resampling law.  That law is a sum of independent per-context
blocks; each block's law depends only on the vocabulary size and the
counts of the distinct tokens that follow the context, so it is computed
once per process, and a sequence's law is the inverse transform of the
product of its blocks' characteristic functions (:class:`ItsNull`).  Each
law gives a tight and a Hoeffding threshold at any false-positive rate, and
the report carries its law, so one detection serves a whole grid of rates.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr, ndtri
from scipy.stats import binom

from .clustering import ClusterMap
from .core import _prf_permutation_raw, _validate_tokens, code_fingerprint, prf_r
from .generate import make_code
from .reweight import STRATEGIES, ReweightConfig, aligned_score, its_score

__all__ = [
    "DetectionReport",
    "hoeffding_pvalue",
    "hoeffding_threshold",
    "exact_binomial_pvalue",
    "detect_aligned",
    "detect_kgw",
    "detect_unigram",
    "detect_dipmark",
    "detect_its",
    "detect_method",
]


@dataclass
class DetectionReport:
    """Detection outcome: score, threshold at the requested FPR, p-values.

    ``p_hoeffding`` is the guaranteed (conservative) tail bound;
    ``p_exact`` the exact binomial tail where the null is binomial, or the
    key-resampling law's tail for the position-score detector.  ``trace`` holds
    per-step (r, token, score); r is NaN for detectors that use no keyed
    draw.  ``null`` is the score's null law, which gives thresholds at
    other false-positive rates.
    """

    strategy: str
    score: float
    steps_scored: int
    threshold: float
    p_hoeffding: float
    p_exact: float
    verdict: bool
    fpr: float
    trace: list[tuple[float, int, float]] = field(repr=False, default_factory=list)
    extra: dict = field(default_factory=dict)
    null: BinomialNull | ItsNull | None = field(
        repr=False, compare=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "score": self.score,
            "t": self.steps_scored,
            "threshold": self.threshold,
            "p_hoeffding": self.p_hoeffding,
            "p_exact": self.p_exact,
            "verdict": self.verdict,
            "strategy": self.strategy,
            "fpr": self.fpr,
            **self.extra,
        }


def hoeffding_pvalue(score: float, t: int, null_rate: float) -> float:
    """exp(-2 t (score/t - null_rate)^2) above the null mean, else 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    gap = score / t - null_rate
    if gap <= 0:
        return 1.0
    return math.exp(-2.0 * t * gap * gap)


def hoeffding_threshold(t: int, null_rate: float, fpr: float) -> float:
    """Score threshold z with guaranteed false-positive rate ``fpr``:
    z = t * null_rate + sqrt(t * ln(1/fpr) / 2)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 < fpr < 1:
        raise ValueError("fpr must be in (0, 1)")
    return t * null_rate + math.sqrt(t * math.log(1.0 / fpr) / 2.0)


def exact_binomial_pvalue(score: int, t: int, p: float) -> float:
    """Upper tail Pr(Bin(t, p) >= score), summed in log space."""
    if not 0 <= score <= t:
        raise ValueError(f"score {score} outside [0, {t}]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if score == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    k = np.arange(score, t + 1)
    log_terms = (
        gammaln(t + 1)
        - gammaln(k + 1)
        - gammaln(t - k + 1)
        + k * math.log(p)
        + (t - k) * math.log1p(-p)
    )
    return float(min(1.0, math.exp(logsumexp(log_terms))))


class BinomialNull:
    """Null law of a sum of ``t`` independent Bernoulli(``rate``) scores.

    ``tight`` is the exact binomial upper quantile and ``hoeffding`` the
    closed-form bound; a report's own verdict uses the guaranteed
    Hoeffding threshold.
    """

    def __init__(self, t: int, rate: float):
        self.t = t
        self.rate = rate

    def tight(self, fpr: float) -> float:
        return binom.isf(fpr, self.t, self.rate)

    def hoeffding(self, fpr: float) -> float:
        return hoeffding_threshold(self.t, self.rate, fpr)

    threshold = hoeffding

    def p_values(self, score: float) -> tuple[float, float]:
        """(Hoeffding bound, exact binomial tail) at ``score``."""
        return (hoeffding_pvalue(score, self.t, self.rate),
                exact_binomial_pvalue(int(score), self.t, self.rate))

    def extra(self, score: float) -> dict:
        return {}


class NormalNull(BinomialNull):
    """Binomial null judged by its normal approximation, the customary
    greenlist test: threshold rate*t + z_(1-fpr) * sd, also in the report."""

    def __init__(self, t: int, rate: float):
        super().__init__(t, rate)
        self.sd = math.sqrt(rate * (1.0 - rate) * t)

    def tight(self, fpr: float) -> float:
        return self.rate * self.t + ndtri(1.0 - fpr) * self.sd

    threshold = tight

    def extra(self, score: float) -> dict:
        zstat = (score - self.rate * self.t) / self.sd
        return {"zstat": zstat, "p_normal": float(ndtr(-zstat))}


def _scan(arr: np.ndarray, key: bytes, strategy: str, ngram_n: int, score,
          map_: ClusterMap | None = None, dedup: bool = False):
    """(sum, trace) of ``score(code, token) -> (r, s)`` over the steps with a
    full context; ``dedup=True`` skips steps whose code already appeared."""
    seen: set[int] = set()
    trace: list[tuple[float, int, float]] = []
    total = 0.0
    for i in range(ngram_n, arr.size):
        code = make_code(key, arr[:i], ngram_n, strategy, map_)
        if dedup:
            fp = code_fingerprint(code)
            if fp in seen:
                continue
            seen.add(fp)
        token = int(arr[i])
        r, s = score(code, token)
        total += s
        trace.append((r, token, s))
    return total, trace


def _report(strategy: str, score: float, trace, null, fpr: float) -> DetectionReport:
    threshold = float(null.threshold(fpr))
    p_hoeffding, p_exact = null.p_values(score)
    return DetectionReport(
        strategy=strategy,
        score=float(score),
        steps_scored=null.t,
        threshold=threshold,
        p_hoeffding=p_hoeffding,
        p_exact=p_exact,
        verdict=bool(score > threshold),
        fpr=fpr,
        trace=trace,
        extra=null.extra(score),
        null=null,
    )


def detect_aligned(
    tokens,
    key: bytes,
    map_: ClusterMap,
    ngram_n: int = 1,
    fpr: float = 0.01,
    dedup: bool = False,
) -> DetectionReport:
    """Cluster-aligned detector: per step, score 1 iff the keyed draw for
    the context lands in the bin of the observed token's cluster.

    Null rate is 1/h.  ``dedup=True`` skips steps whose code already
    appeared, mirroring the generator's history rule; default scores every
    full-context step.
    """
    arr = _validate_tokens(tokens, map_.n_tokens, ngram_n + 1)

    def score(code, token):
        r = prf_r(code)
        return r, float(aligned_score(r, token, map_))

    total, trace = _scan(arr, key, "aligned_is", ngram_n, score, map_, dedup)
    return _report("aligned_is", total, trace, BinomialNull(len(trace), 1.0 / map_.h), fpr)


def detect_kgw(
    tokens,
    key: bytes,
    n_vocab: int,
    gamma: float = 0.5,
    ngram_n: int = 1,
    fpr: float = 0.01,
) -> DetectionReport:
    """Greenlist counter with a normal-approximation threshold.

    Verdict uses the z-statistic (g - gamma*t)/sqrt(gamma(1-gamma)t) against
    the upper-fpr normal quantile; binomial and Hoeffding p-values are
    reported alongside.
    """
    arr = _validate_tokens(tokens, n_vocab, ngram_n + 1)
    green_size = math.ceil(gamma * n_vocab)

    def score(code, token):
        order = _prf_permutation_raw(code.key, code.ngram_n, code.context, n_vocab)
        return math.nan, 1.0 if order.rank(token) < green_size else 0.0

    total, trace = _scan(arr, key, "kgw", ngram_n, score)
    return _report("kgw", total, trace, NormalNull(len(trace), gamma), fpr)


def detect_unigram(
    tokens,
    key: bytes,
    n_vocab: int,
    gamma: float = 0.5,
    fpr: float = 0.01,
) -> DetectionReport:
    """KGW detector against the global key-only greenlist; every position
    is scored since no context is needed."""
    arr = _validate_tokens(tokens, n_vocab)
    green_size = math.ceil(gamma * n_vocab)
    inverse = _prf_permutation_raw(key, 0, (), n_vocab).inverse
    flags = inverse[arr] < green_size
    trace = [(math.nan, int(x), float(s)) for x, s in zip(arr, flags)]
    return _report("unigram", int(flags.sum()), trace, NormalNull(arr.size, gamma), fpr)


def detect_dipmark(
    tokens,
    key: bytes,
    n_vocab: int,
    alpha_detect: float = 0.5,
    ngram_n: int = 1,
    fpr: float = 0.01,
) -> DetectionReport:
    """Quantile counter: score 1 iff the observed token sits in the top
    (1 - alpha_detect) of the keyed order.  Null rate is the exact green
    fraction, which equals 1 - alpha_detect whenever alpha*N is integral."""
    arr = _validate_tokens(tokens, n_vocab, ngram_n + 1)
    cut = math.ceil(alpha_detect * n_vocab)

    def score(code, token):
        order = _prf_permutation_raw(code.key, code.ngram_n, code.context, n_vocab)
        return math.nan, 1.0 if order.rank(token) >= cut else 0.0

    total, trace = _scan(arr, key, "dipmark", ngram_n, score)
    null = BinomialNull(len(trace), (n_vocab - cut) / n_vocab)
    return _report("dipmark", total, trace, null, fpr)


# elements per working chunk of the ITS law's draws and of its per-step means
# (~1 MB of float64 each)
_CHUNK_ELEMENTS = 1 << 17
# lattice step of a sampled block law; a block of n > 4 steps uses the step
# times the power of two at or above n/4, so no law exceeds 4097 cells
_LATTICE = 2.0 ** -10
# seeded draws per sampled block law
_BLOCK_DRAWS = 1 << 16
# cells of the sequence law's window
_CELLS = 1 << 14
# null mass the window may leave outside it, by the block Hoeffding bound
_ALIAS = 1e-20
# spectrum modulus treated as zero when truncating the spectrum
_SPECTRUM_TOL = 1e-15
# resolution of the inverted tail, and so the floor of p_exact
_P_FLOOR = 1e-13
# SeedSequence domain of the block-law draws ("ITSB")
_DOMAIN_BLOCK = 0x49545342


@dataclass(frozen=True, eq=False)
class ItsNull:
    """Key-resampling null law of the position score.

    Under a fresh key, steps that share a context share one draw r and one
    keyed order, and distinct contexts are independent, so the score is a
    sum of independent per-context blocks F = sum_j m_j (1 - |r - u_j|),
    with r uniform and u_j the grid positions (rank + 0.5)/N of the context's
    distinct next tokens, m_j their counts.  ``tails[k]`` is the law's mass
    above ``lo + k * step``: cells of width ``step`` over a window that
    leaves out at most 1e-20 of the mass.  Each draw of a sampled block law
    is rounded up onto its lattice and spread over the lattice cell above,
    so the law lies stochastically above the score's and ``tight`` and
    ``p_exact`` err on the conservative side, by at most two lattice steps a
    sampled block.

    ``hoeffding`` is guaranteed: given the keyed draws r, the blocks are
    independent, each in [0, n_c] with n_c the steps scored in context c, and
    their means sum to ``null_mean``; so P(S - null_mean >= x) <=
    exp(-2 x^2 / sum_sq) with sum_sq = sum_c n_c^2, on any repetition.
    """

    lo: float
    step: float
    tails: np.ndarray = field(repr=False)
    sum_sq: int
    t: int
    null_mean: float = math.nan

    def tight(self, fpr: float) -> float:
        """The lowest cell edge with at most ``fpr`` of the law above it."""
        return self.lo + self.step * int(np.searchsorted(-self.tails, -fpr))

    threshold = tight

    def hoeffding(self, fpr: float) -> float:
        return self.null_mean + math.sqrt(self.sum_sq * math.log(1.0 / fpr) / 2.0)

    def p_values(self, score: float) -> tuple[float, float]:
        """(block Hoeffding bound, the law's tail from the cell holding
        ``score``, floored at the inversion's resolution)."""
        gap = score - self.null_mean
        p_hoeffding = math.exp(-2.0 * gap * gap / self.sum_sq) if gap > 0 else 1.0
        k = math.ceil((score - self.lo) / self.step) - 1
        tail = 1.0 if k < 0 else float(self.tails[k]) if k < self.tails.size else 0.0
        return p_hoeffding, min(1.0, max(tail, _P_FLOOR))

    def extra(self, score: float) -> dict:
        return {"null_mean": self.null_mean}


def _its_null_structure(arr: np.ndarray, ngram_n: int):
    """Factorized (context id, token id) pairs for the scored steps."""
    contexts = np.lib.stride_tricks.sliding_window_view(arr[:-1], ngram_n)
    _, ctx_idx = np.unique(contexts, axis=0, return_inverse=True)
    _, tok_idx = np.unique(arr[ngram_n:], return_inverse=True)
    return ctx_idx.ravel(), tok_idx


def _its_signatures(ctx_idx: np.ndarray, tok_idx: np.ndarray) -> Counter:
    """{signature: contexts}, a signature being the descending counts of the
    distinct tokens that follow one context."""
    pairs, counts = np.unique(ctx_idx * (int(tok_idx.max()) + 1) + tok_idx,
                              return_counts=True)
    ctx = pairs // (int(tok_idx.max()) + 1)
    order = np.lexsort((-counts, ctx))
    counts, ctx = counts[order], ctx[order]
    cuts = np.flatnonzero(np.diff(ctx)) + 1
    return Counter(tuple(c.tolist()) for c in np.split(counts, cuts))


def _its_unit_moments(n_vocab: int) -> tuple[float, float]:
    """Mean and variance of 1 - |r - u|: E|r - u| = (u^2 + (1-u)^2)/2 and
    E(r - u)^2 = (u^3 + (1-u)^3)/3, averaged over the rank grid."""
    u = (np.arange(n_vocab) + 0.5) / n_vocab
    d1 = float(np.mean(u * u + (1 - u) ** 2)) / 2
    d2 = float(np.mean(u ** 3 + (1 - u) ** 3)) / 3
    return 1.0 - d1, d2 - d1 * d1


def _its_unit_cf(n_vocab: int, omega: np.ndarray) -> np.ndarray:
    """E exp(-i w F) of F = 1 - |r - u|, closed form.

    For one u the integral over r is (e^{-iw(1-u)} + e^{-iwu} - 2e^{-iw})/(iw);
    the rank grid is symmetric, and its mean of e^{-iwu} is e^{-iw/2} D with
    D = sin(w/2)/(N sin(w/2N)), evaluated through w/2N = n pi + e as
    (-1)^(n(N+1)) sin(Ne)/(N sin e) so it stays exact near its poles.
    """
    x = omega / (2 * n_vocab)
    n = np.rint(x / np.pi)
    e = x - n * np.pi
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(e == 0, 1.0, np.sin(n_vocab * e) / (n_vocab * np.sin(e)))
        d = np.where(np.fmod(n * (n_vocab + 1), 2) == 1, -d, d)
        h = omega / 2
        cf = np.exp(-1j * h) * (np.sin(h) / h - 1j * (d - np.cos(h)) / h)
    return np.where(omega == 0, 1.0, cf)


def _distinct_ranks(draws: np.ndarray, n_vocab: int) -> np.ndarray:
    """Rows of distinct ranks, uniform over ordered tuples, one rank per
    uniform in ``draws``: the j-th is the x-th of the N - j ranks not yet
    taken, x = floor(draw * (N - j)), found by stepping over the taken
    ranks in ascending order (O(k^2) vector steps for k ranks a row)."""
    rows, k = draws.shape
    out = np.empty((k, rows), dtype=np.int64)
    taken = np.empty((k, rows), dtype=np.int64)  # each row's ranks, ascending
    for j, u in enumerate(draws.T):
        x = np.minimum((u * (n_vocab - j)).astype(np.int64), n_vocab - j - 1)
        for i in range(j):
            x += x >= taken[i]
        out[j] = taken[j] = x
        for i in range(j, 0, -1):  # one insertion-sort pass
            low = np.minimum(taken[i - 1], taken[i])
            np.maximum(taken[i - 1], taken[i], out=taken[i])
            taken[i - 1] = low
    return out.T


@functools.lru_cache(maxsize=256)
def _its_block_law(n_vocab: int, sig: tuple[int, ...]):
    """(step, pmf, mean, variance) of a block of signature ``sig`` (two or
    more distinct tokens), from 2^16 seeded draws: ``pmf[k]`` is the share
    of draws in ((k-1) step, k step], spread uniformly over the cell
    (k step, (k+1) step] above, so the law has a density and lies
    stochastically above the block's.  A law of atoms would keep its
    spectrum from decaying, and its inversion rings on streams of few
    blocks.

    The draws are seeded from (N, signature) alone and taken as one row of
    uniforms per block (r, then one per rank), so the law does not depend
    on the ~128 K-element chunks they are drawn in.
    """
    m = np.asarray(sig, dtype=np.float64)
    size = int(m.sum())
    step = _LATTICE * 2.0 ** max(0, math.ceil(math.log2(size / 4)))
    rows = max(1, _CHUNK_ELEMENTS // (m.size + 1))
    rng = np.random.default_rng(np.random.SeedSequence([_DOMAIN_BLOCK, n_vocab, *sig]))
    counts = np.zeros(round(size / step) + 1, dtype=np.int64)
    for lo in range(0, _BLOCK_DRAWS, rows):
        draws = rng.random((min(rows, _BLOCK_DRAWS - lo), m.size + 1))
        r = draws[:, 0]
        ranks = _distinct_ranks(draws[:, 1:], n_vocab)
        f = np.zeros(r.size)
        for j in range(m.size):
            f += m[j] * (1.0 - np.abs(r - (ranks[:, j] + 0.5) / n_vocab))
        counts += np.bincount(np.ceil(f / step).astype(np.int64), minlength=counts.size)
    pmf = counts / _BLOCK_DRAWS
    pmf.flags.writeable = False  # cached and shared
    x = (np.arange(pmf.size) + 0.5) * step
    mean = float(pmf @ x)
    return step, pmf, mean, float(pmf @ (x - mean) ** 2) + step * step / 12


def _zoom_dft(x: np.ndarray, bins: int, period: int) -> np.ndarray:
    """sum_n x_n exp(-2 pi i j n / period) for j < bins, by Bluestein's
    chirp convolution: jn = (j^2 + n^2 - (j - n)^2) / 2 turns the sum into a
    convolution of FFT length ~(x.size + bins), however long the period."""
    k = np.arange(max(x.size, bins))
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * period)) / period)
    size = 1 << (x.size + bins - 2).bit_length()
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:bins] = chirp[:bins].conj()
    kernel[size - x.size + 1 :] = chirp[1 : x.size][::-1].conj()
    conv = np.fft.ifft(np.fft.fft(x * chirp[: x.size], size) * np.fft.fft(kernel))
    return conv[:bins] * chirp[:bins]


@functools.lru_cache(maxsize=1024)
def _its_block_cf(n_vocab: int, sig: tuple[int, ...], width: float, bins: int) -> np.ndarray:
    """A block's characteristic function E exp(-i w F) at w = 2 pi j / width,
    j < bins: closed form for one distinct token, else the transform of the
    lattice law times that of its cells, uniform on (0, step)."""
    omega = 2 * np.pi / width * np.arange(bins)
    if len(sig) == 1:
        cf = _its_unit_cf(n_vocab, sig[0] * omega)
    else:
        step, pmf, _, _ = _its_block_law(n_vocab, sig)
        with np.errstate(invalid="ignore", divide="ignore"):
            cell = np.where(omega == 0, 1.0, -np.expm1(-1j * omega * step) / (1j * omega * step))
        cf = _zoom_dft(pmf, bins, round(width / step)) * cell
    cf.flags.writeable = False  # cached and shared
    return cf


def _its_null_samples(arr: np.ndarray, ngram_n: int, n_vocab: int,
                      null_mean: float = math.nan) -> ItsNull:
    """The key-resampling null law of the position score on ``arr``.

    Keeps the name under which the null has always been timed.  The
    sequence's blocks are grouped by signature; each signature's law is
    built once per process and cached.  The sequence law is the inverse
    transform of exp(sum_s c_s log phi_s), phi_s being signature s's
    characteristic function and c_s its count, on a window of 2^14 cells:
    the window spans the block Hoeffding bound at 1e-20 (or the whole
    support, if narrower), and only the low-frequency bins where the
    spectrum's modulus exceeds 1e-15 are kept.  No simulation runs per
    call, and memory is bounded by the window, not by the sequence length.
    """
    ctx_idx, tok_idx = _its_null_structure(arr, ngram_n)
    blocks = _its_signatures(ctx_idx, tok_idx)
    mean = var = top = spread = 0.0
    unit_mean, unit_var = _its_unit_moments(n_vocab)
    for sig, c in blocks.items():
        if len(sig) == 1:  # closed form, no lattice
            step, mu, v = 0.0, sig[0] * unit_mean, sig[0] ** 2 * unit_var
        else:
            step, _, mu, v = _its_block_law(n_vocab, sig)
        mean += c * mu
        var += c * v
        top += c * (sum(sig) + 2 * step)
        spread += c * (sum(sig) + 2 * step) ** 2
    half = math.sqrt(spread * math.log(2.0 / _ALIAS) / 2.0)
    width = 2.0 ** math.ceil(math.log2(min(2.0 * half, top)))
    lo = 0.0 if top <= 2.0 * half else max(0.0, mean - width / 2.0)
    # the spectrum falls like exp(-var w^2 / 2): start where that is ~e^-72
    bins = 16
    while bins < _CELLS // 2 and bins < 12 * width / (2 * np.pi * math.sqrt(var)):
        bins *= 2
    while True:
        with np.errstate(divide="ignore"):
            log_cf = sum(c * np.log(_its_block_cf(n_vocab, sig, width, bins))
                         for sig, c in blocks.items())
        cf = np.exp(log_cf)
        if bins >= _CELLS // 2 or np.abs(cf[bins // 2 :]).max() <= _SPECTRUM_TOL:
            break
        bins *= 2
    step = width / _CELLS
    omega = 2 * np.pi / width * np.arange(bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        box = np.where(omega == 0, 1.0, np.expm1(1j * omega * step) / (1j * omega * step))
    # cell k is (lo + k step, lo + (k+1) step]
    cells = np.fft.irfft(cf * np.exp(1j * omega * lo) * box, n=_CELLS)
    np.maximum(cells, 0.0, out=cells)
    tails = np.cumsum(cells[::-1])[::-1]
    return ItsNull(lo, step, tails, int((np.bincount(ctx_idx) ** 2).sum()),
                   ctx_idx.size, null_mean)


def _its_score_trace(tokens, key: bytes, n_vocab: int, ngram_n: int):
    """(score, trace, keyed draws) for the position-score detector."""
    arr = _validate_tokens(tokens, n_vocab, ngram_n + 1)

    def score(code, token):
        r = prf_r(code)
        return r, its_score(r, token, code, n_vocab)

    total, trace = _scan(arr, key, "its", ngram_n, score)
    return total, trace, np.asarray([r for r, _, _ in trace])


def detect_its(
    tokens,
    key: bytes,
    n_vocab: int,
    ngram_n: int = 1,
    fpr: float = 0.01,
    null_sims: int = 10_000,
    sim_seed: int = 0,
) -> DetectionReport:
    """Position-score detector: sum of 1 - |r - u(token)|.

    The threshold and ``p_exact`` come from the score's key-resampling null
    law (:class:`ItsNull`), deterministic and built without simulation per
    call; ``p_hoeffding`` and ``null.hoeffding`` are the guaranteed block
    Hoeffding bound.  ``null_sims`` and ``sim_seed`` are accepted and not
    read: they sized and seeded the Monte-Carlo null this law replaced.
    """
    score, trace, rs = _its_score_trace(tokens, key, n_vocab, ngram_n)
    arr = np.asarray(tokens, dtype=np.int64)
    # per-step null means given the keyed draws, over the exact rank grid
    u_grid = (np.arange(n_vocab) + 0.5) / n_vocab
    rows = max(1, _CHUNK_ELEMENTS // n_vocab)
    step_means = [
        1.0 - np.abs(rs[a : a + rows, None] - u_grid[None, :]).mean(axis=1)
        for a in range(0, rs.size, rows)
    ]
    null_mean = float(np.sum(np.concatenate(step_means)))
    return _report("its", score, trace, _its_null_samples(arr, ngram_n, n_vocab, null_mean), fpr)


def detect_method(
    config: ReweightConfig,
    ngram_n: int,
    tokens,
    key: bytes,
    map_: ClusterMap | None,
    n_vocab: int,
    fpr: float = 0.01,
) -> DetectionReport:
    """The detector of ``config``'s strategy, from the strategy table.

    ``map_`` is read only by cluster-context strategies.
    """
    entry = STRATEGIES[config.strategy]
    detector = globals()[entry.detector]  # looked up per call, see Strategy
    return detector(tokens, key, fpr=fpr,
                    **entry.detector_args(config, ngram_n, map_, n_vocab))
