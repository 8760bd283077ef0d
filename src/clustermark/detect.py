"""Model-agnostic watermark detectors with guaranteed-FPR thresholds.

Every detector consumes only the observed token sequence, the secret key,
and (for the cluster-aligned method) the stored cluster map.  It sums a
per-step score and judges the sum against the strategy's null law: exact
binomial, its normal approximation, or a key-resampling simulation for the
position-score sampler.  Each law gives a tight and a Hoeffding threshold
at any false-positive rate, and the report carries its law, so one
detection serves a whole grid of rates.
"""

from __future__ import annotations

import math
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
    ``p_exact`` the exact binomial tail where the null is binomial, or a
    Monte-Carlo estimate for the position-score detector.  ``trace`` holds
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
    null: BinomialNull | SimulatedNull | None = field(
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


class SimulatedNull:
    """Monte-Carlo null of the position score from key-resampled
    ``samples``.  No closed-form bound gives its thresholds, so ``tight``
    and ``hoeffding`` are both the simulated quantile; the Hoeffding
    p-value uses the per-step null means summed in ``null_mean``."""

    def __init__(self, samples: np.ndarray, null_mean: float, t: int):
        self.samples = samples
        self.null_mean = null_mean
        self.t = t

    def tight(self, fpr: float) -> float:
        return float(np.quantile(self.samples, 1.0 - fpr))

    hoeffding = threshold = tight

    def p_values(self, score: float) -> tuple[float, float]:
        """(Hoeffding bound, Monte-Carlo tail) at ``score``."""
        gap = score - self.null_mean
        p_hoeffding = math.exp(-2.0 * gap * gap / self.t) if gap > 0 else 1.0
        p_mc = (1.0 + float(np.sum(self.samples >= score))) / (1.0 + self.samples.size)
        return p_hoeffding, p_mc

    def extra(self, score: float) -> dict:
        return {"null_mean": self.null_mean}


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


# elements per row sub-block of the ITS null and of its per-step means: each
# temporary (~0.5 MB of float32, 1 MB of float64) stays in cache
_NULL_GATHER_ELEMENTS = 131_072


def _its_null_structure(arr: np.ndarray, ngram_n: int):
    """Factorized (context id, token id) pairs for the scored steps.

    Repeated contexts share one keyed draw and repeated tokens one rank, so
    the null simulation must resample them consistently, not per step.
    """
    contexts = np.lib.stride_tricks.sliding_window_view(arr[:-1], ngram_n)
    _, ctx_idx = np.unique(contexts, axis=0, return_inverse=True)
    _, tok_idx = np.unique(arr[ngram_n:], return_inverse=True)
    return ctx_idx.ravel(), tok_idx


def _its_null_samples(
    arr: np.ndarray, ngram_n: int, n_vocab: int, n_sims: int, seed: int
) -> np.ndarray:
    """Key-resampling null scores for the observed token sequence.

    Each simulation redraws one unit-interval value per distinct context and
    one rank per distinct token value, mimicking a fresh key while keeping
    the sequence's repetition structure.  Simulations run in blocks of about
    4 000 000 elements; the block size fixes how the draws interleave in the
    RNG stream, so changing it changes every simulated null.  A block first
    draws all its context values (one float32 array of at most 16 MB), then
    walks row sub-blocks of about ``_NULL_GATHER_ELEMENTS`` elements: it
    draws their ranks, gathers, differences and sums them (a working set of
    about 0.5 MB).  Drawing the ranks per sub-block, in row order, consumes
    the stream exactly as one whole-block draw would, and int32 ranks take
    numpy's 32-bit bounded path just as int64 ones do below 2^32, so both
    give the same ranks; each row's float64 sum keeps its bits."""
    ctx_idx, tok_idx = _its_null_structure(arr, ngram_n)
    n_ctx = int(ctx_idx.max()) + 1
    n_tok = int(tok_idx.max()) + 1
    t = ctx_idx.size
    rng = np.random.default_rng(seed)
    out = np.empty(n_sims)
    # float32 internals: worst-case 1e-5 absolute error in a 500-term sum,
    # orders of magnitude below the score resolution that matters
    u_of_rank = (np.arange(n_vocab).astype(np.float32) + 0.5) / n_vocab
    block = max(1, min(n_sims, 4_000_000 // max(1, t)))
    rows = max(1, _NULL_GATHER_ELEMENTS // max(1, t))
    for lo in range(0, n_sims, block):
        hi = min(lo + block, n_sims)
        r_draws = rng.random((hi - lo, n_ctx), dtype=np.float32)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            ranks = rng.integers(0, n_vocab, size=(b - a, n_tok), dtype=np.int32)
            diff = r_draws[a - lo : b - lo, ctx_idx]
            # take() casts the int32 ranks faster than fancy indexing does
            diff -= u_of_rank.take(ranks)[:, tok_idx]
            np.abs(diff, out=diff)
            out[a:b] = t - diff.sum(axis=1, dtype=np.float64)
    return out


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

    The null depends on the realized keyed draws, so both p-value and
    threshold are Monte-Carlo estimates (seeded) rather than guarantees.
    """
    score, trace, rs = _its_score_trace(tokens, key, n_vocab, ngram_n)
    arr = np.asarray(tokens, dtype=np.int64)
    samples = _its_null_samples(arr, ngram_n, n_vocab, null_sims, sim_seed)
    # per-step null means over the exact rank grid, so a valid Hoeffding
    # bound for sums of independent [0,1] terms is still available
    u_grid = (np.arange(n_vocab) + 0.5) / n_vocab
    rows = max(1, _NULL_GATHER_ELEMENTS // n_vocab)
    step_means = [
        1.0 - np.abs(rs[a : a + rows, None] - u_grid[None, :]).mean(axis=1)
        for a in range(0, rs.size, rows)
    ]
    null_mean = float(np.sum(np.concatenate(step_means)))
    return _report("its", score, trace, SimulatedNull(samples, null_mean, len(trace)), fpr)


def detect_method(
    config: ReweightConfig,
    ngram_n: int,
    tokens,
    key: bytes,
    map_: ClusterMap | None,
    n_vocab: int,
    fpr: float = 0.01,
    null_sims: int = 10_000,
    sim_seed: int = 0,
) -> DetectionReport:
    """The detector of ``config``'s strategy, from the strategy table.

    ``map_`` is read only by cluster-context strategies; ``null_sims`` and
    ``sim_seed`` only by the simulated null.
    """
    entry = STRATEGIES[config.strategy]
    detector = globals()[entry.detector]  # looked up per call, see Strategy
    return detector(tokens, key, fpr=fpr, **entry.detector_args(
        config, ngram_n, map_, n_vocab, null_sims=null_sims, sim_seed=sim_seed))
