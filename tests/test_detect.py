import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from clustermark import detect
from clustermark.detect import (
    _BLOCK_DRAWS,
    _P_FLOOR,
    _its_block_cf,
    _its_block_law,
    _its_null_samples,
    _its_null_structure,
    _its_score_trace,
    _its_signatures,
    _its_unit_cf,
    detect_aligned,
    detect_dipmark,
    detect_its,
    detect_kgw,
    detect_unigram,
    exact_binomial_pvalue,
    hoeffding_pvalue,
    hoeffding_threshold,
)
from clustermark.core import WatermarkCode, _prf_permutation_raw, clear_prf_caches, prf_r
from clustermark.generate import GenerationSession, generate, generate_unwatermarked
from clustermark.reweight import ReweightConfig
from clustermark.simenv import SyntheticModelConfig, build_synthetic_model

from conftest import ConstantModel, balanced_cluster_map

KEY = b"detect-tests"
MOTIF = np.resize(np.array([3, 47, 91, 3, 47, 91, 3, 200]), 501)


def _clear_its_laws():
    for cached in (_its_block_law, _its_block_cf):
        cached.cache_clear()


def _law_cells(null):
    """(upper cell edges, cell masses) of an ITS null law."""
    mass = -np.diff(np.append(null.tails, 0.0))
    return null.lo + null.step * np.arange(1, mass.size + 1), mass


def _law_sd(null) -> float:
    x, mass = _law_cells(null)
    mean = float(mass @ x)
    return math.sqrt(float(mass @ (x - mean) ** 2))


def _whole_support_tails(arr, n_vocab, null):
    """The law's tails recomputed over a window that holds the whole
    support, with every spectral bin up to the cells' Nyquist kept, on the
    same cell edges as ``null``: the reference for the windowed,
    truncated inversion."""
    blocks = _its_signatures(*_its_null_structure(arr, 1))
    step = null.step
    shift = math.ceil(null.lo / step)
    lo = null.lo - shift * step  # in (-step, 0]
    top = max(null.t + 2.0, null.lo + step * null.tails.size)
    width = 2.0 ** math.ceil(math.log2(top - lo))
    cells = round(width / step)
    bins = cells // 2
    cf = np.ones(bins, dtype=np.complex128)
    for sig, c in blocks.items():
        cf *= _its_block_cf.__wrapped__(n_vocab, sig, width, bins) ** c
    omega = 2 * np.pi / width * np.arange(bins)
    box = np.ones(bins, dtype=np.complex128)
    box[1:] = np.expm1(1j * omega[1:] * step) / (1j * omega[1:] * step)
    mass = np.fft.irfft(cf * np.exp(1j * omega * lo) * box, n=cells).clip(0.0)
    tails = np.cumsum(mass[::-1])[::-1]
    return tails[shift : shift + null.tails.size]


def _peak_traced_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestHoeffding:
    def test_worked_example(self):
        # exp(-2 * 500 * (80/500 - 0.05)^2) = exp(-12.1)
        assert hoeffding_pvalue(80, 500, 0.05) == pytest.approx(
            math.exp(-12.1), rel=1e-12
        )

    def test_at_null_mean_is_one(self):
        assert hoeffding_pvalue(25.0, 500, 0.05) == 1.0

    def test_below_null_mean_is_one(self):
        assert hoeffding_pvalue(10.0, 500, 0.05) == 1.0

    def test_threshold_closed_form(self):
        z = hoeffding_threshold(500, 0.05, 0.01)
        assert z == pytest.approx(25 + math.sqrt(500 * math.log(100) / 2), rel=1e-12)
        assert z == pytest.approx(58.93, abs=0.01)

    def test_threshold_fpr_limit(self):
        assert hoeffding_threshold(100, 0.1, 1 - 1e-12) == pytest.approx(
            10.0, abs=1e-4
        )

    def test_round_trip(self):
        for t, rate, fpr in [(500, 0.05, 0.01), (200, 0.6, 0.001),
                             (50, 0.5, 0.05), (100_000, 0.05, 0.0001)]:
            z = hoeffding_threshold(t, rate, fpr)
            assert hoeffding_pvalue(z, t, rate) == pytest.approx(fpr, rel=1e-12)


class TestExactBinomial:
    def test_zero_score(self):
        assert exact_binomial_pvalue(0, 10, 0.3) == 1.0

    def test_hand_arithmetic(self):
        assert exact_binomial_pvalue(2, 2, 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_against_arbitrary_precision_oracle(self):
        # oracle: arbitrary-precision term-by-term summation
        mpmath.mp.dps = 50
        cases = []
        gen = np.random.default_rng(77)
        for t in (10, 37, 120, 500, 2000):
            for _ in range(9):
                p = float(gen.uniform(0.02, 0.9))
                s = int(gen.integers(1, t + 1))
                cases.append((s, t, p))
        cases += [(99_930, 100_000, 0.95), (10_450, 100_000, 0.1),
                  (5_100, 100_000, 0.05), (59, 500, 0.05), (500, 500, 0.05)]
        assert len(cases) >= 50
        for s, t, p in cases:
            oracle = mpmath.mpf(0)
            mp_p = mpmath.mpf(p)
            for k in range(s, t + 1):
                oracle += mpmath.binomial(t, k) * mp_p**k * (1 - mp_p) ** (t - k)
            got = exact_binomial_pvalue(s, t, p)
            assert got == pytest.approx(float(oracle), rel=1e-9), (s, t, p)

    def test_no_overflow_at_large_t(self):
        v = exact_binomial_pvalue(5500, 100_000, 0.05)
        assert 0.0 < v < 1.0

    def test_hoeffding_dominates_exact_tail(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            t = int(gen.integers(10, 2000))
            p = float(gen.uniform(0.02, 0.7))
            s = int(gen.integers(math.ceil(t * p) + 1, t + 1))
            assert exact_binomial_pvalue(s, t, p) <= hoeffding_pvalue(s, t, p) + 1e-15

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            exact_binomial_pvalue(11, 10, 0.5)


def watermarked_sequence(map_, length=400, seed=0, ngram_n=2):
    model = ConstantModel(np.full(map_.n_tokens, 1.0 / map_.n_tokens))
    ses = GenerationSession(
        key=KEY, config=ReweightConfig("aligned_is", h=map_.h),
        ngram_n=ngram_n, cluster_map=map_, rng_seed=seed,
    )
    prompt = np.random.default_rng(seed).integers(0, map_.n_tokens, 4)
    return generate(model, prompt, length, ses)


class TestDetectAligned:
    def test_round_trip_detection(self):
        m = balanced_cluster_map(200, 10)
        hits = 0
        for seed in range(20):
            seq = watermarked_sequence(m, 400, seed)
            rep = detect_aligned(seq, KEY, m, ngram_n=2, fpr=0.01)
            hits += rep.verdict
        assert hits >= 19

    def test_null_fpr_bounded(self, rng):
        m = balanced_cluster_map(200, 10)
        false_hits = 0
        trials = 300
        for _ in range(trials):
            seq = rng.integers(0, 200, 400)
            rep = detect_aligned(seq, KEY, m, ngram_n=2, fpr=0.01)
            false_hits += rep.verdict
        assert false_hits / trials <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / trials)

    def test_all_zero_scores_give_p_one(self):
        # constant sequence: one context, one r; pick a token whose cluster
        # misses that r's bin
        m = balanced_cluster_map(40, 20)
        for v in range(40):
            code = WatermarkCode(key=KEY, context=(m.cluster_of(v),), ngram_n=1)
            if int(prf_r(code) * 20) != m.cluster_of(v):
                seq = [v] * 50
                rep = detect_aligned(seq, KEY, m, ngram_n=1, fpr=0.01)
                assert rep.score == 0
                assert rep.p_hoeffding == 1.0
                assert not rep.verdict
                return
        pytest.fail("no all-miss token found")

    def test_too_short_rejected(self):
        m = balanced_cluster_map(10, 2)
        with pytest.raises(ValueError, match="at least"):
            detect_aligned([1, 2], KEY, m, ngram_n=2, fpr=0.01)

    def test_scored_steps_counted_not_length(self):
        m = balanced_cluster_map(10, 2)
        rep = detect_aligned([1, 2, 3, 4, 5], KEY, m, ngram_n=2, fpr=0.01)
        assert rep.steps_scored == 3

    def test_dedup_flag_skips_repeats(self):
        m = balanced_cluster_map(10, 2)
        seq = [0, 2, 4, 6, 8, 0, 2]  # all even: single cluster context
        rep = detect_aligned(seq, KEY, m, ngram_n=1, fpr=0.01, dedup=True)
        assert rep.steps_scored == 1

    def test_json_schema_keys(self):
        m = balanced_cluster_map(10, 2)
        rep = detect_aligned([1, 2, 3, 4], KEY, m, ngram_n=1, fpr=0.01)
        d = rep.to_json_dict()
        assert set(d) >= {"score", "t", "threshold", "p_hoeffding", "p_exact",
                          "verdict", "strategy", "fpr"}
        json.dumps(d)


class TestDetectKgwUnigram:
    def test_green_count_matches_brute_force(self, rng):
        n_vocab = 50
        seq = rng.integers(0, n_vocab, 60)
        rep = detect_kgw(seq, KEY, n_vocab, gamma=0.5, ngram_n=1, fpr=0.01)
        g = 0
        for i in range(1, len(seq)):
            perm = _prf_permutation_raw(KEY, 1, (int(seq[i - 1]),), n_vocab).perm
            green = set(perm[:25].tolist())
            g += int(seq[i]) in green
        assert rep.score == g

    def test_z_statistic_examples(self):
        # g = gamma*t -> p_normal = 0.5; g = t with gamma 0.5, t=100 -> z=10
        n_vocab = 10
        inverse = _prf_permutation_raw(KEY, 0, (), n_vocab).inverse
        greens = [t for t in range(n_vocab) if inverse[t] < 5]
        reds = [t for t in range(n_vocab) if inverse[t] >= 5]
        seq = (greens[:1] + reds[:1]) * 50
        rep = detect_unigram(seq, KEY, n_vocab, gamma=0.5, fpr=0.01)
        assert rep.extra["p_normal"] == pytest.approx(0.5)
        seq = greens[:1] * 100
        rep = detect_unigram(seq, KEY, n_vocab, gamma=0.5, fpr=0.01)
        assert rep.extra["zstat"] == pytest.approx(10.0)
        assert rep.verdict

    def test_null_fpr_bounded(self, rng):
        trials, n_vocab = 400, 60
        hits = 0
        for _ in range(trials):
            seq = rng.integers(0, n_vocab, 200)
            hits += detect_kgw(seq, KEY, n_vocab, 0.5, 1, 0.01).verdict
        assert hits / trials <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / trials)


class TestDetectDipmark:
    def test_quantile_scoring_matches_brute_force(self, rng):
        n_vocab = 40
        seq = rng.integers(0, n_vocab, 50)
        alpha = 0.4
        rep = detect_dipmark(seq, KEY, n_vocab, alpha, ngram_n=1, fpr=0.01)
        cut = math.ceil(alpha * n_vocab)
        s = 0
        for i in range(1, len(seq)):
            perm = _prf_permutation_raw(KEY, 1, (int(seq[i - 1]),), n_vocab).perm
            rank = int(np.flatnonzero(perm == seq[i])[0])
            s += rank >= cut
        assert rep.score == s

    def test_null_fpr_bounded(self, rng):
        trials, n_vocab = 400, 60
        hits = 0
        for _ in range(trials):
            seq = rng.integers(0, n_vocab, 200)
            hits += detect_dipmark(seq, KEY, n_vocab, 0.4, 1, 0.01).verdict
        assert hits / trials <= 0.01 + 3 * math.sqrt(0.01 * 0.99 / trials)


class TestDetectIts:
    def test_null_mean_matches_integration_oracle(self, rng):
        # E[1 - |r - u|] for independent uniforms is 2/3 by integration
        # (double integral of |r - u| over the unit square is 1/3)
        n_vocab = 100
        grid = 400
        rs = (np.arange(grid) + 0.5) / grid
        us = (np.arange(n_vocab) + 0.5) / n_vocab
        oracle = float(np.mean(1.0 - np.abs(rs[:, None] - us[None, :])))
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-3)

        seq = rng.integers(0, n_vocab, 4000)
        score, trace, _ = _its_score_trace(seq, KEY, n_vocab, 1)
        assert score / len(trace) == pytest.approx(oracle, abs=0.02)

    def test_watermarked_scores_higher_than_null(self, rng):
        n_vocab = 60
        model = ConstantModel(np.full(n_vocab, 1.0 / n_vocab))
        wm_means, null_means = [], []
        for seed in range(10):
            ses = GenerationSession(key=KEY, config=ReweightConfig("its"),
                                    ngram_n=1, rng_seed=seed)
            wm = generate(model, [0], 300, ses)
            s, tr, _ = _its_score_trace(wm, KEY, n_vocab, 1)
            wm_means.append(s / len(tr))
            null = rng.integers(0, n_vocab, 300)
            s, tr, _ = _its_score_trace(null, KEY, n_vocab, 1)
            null_means.append(s / len(tr))
        assert np.mean(wm_means) > np.mean(null_means) + 0.05

    def test_detection_round_trip(self):
        n_vocab = 60
        model = ConstantModel(np.full(n_vocab, 1.0 / n_vocab))
        ses = GenerationSession(key=KEY, config=ReweightConfig("its"),
                                ngram_n=1, rng_seed=3)
        wm = generate(model, [0], 300, ses)
        rep = detect_its(wm, KEY, n_vocab, 1, 0.01, null_sims=2000)
        assert rep.verdict and rep.p_exact < 0.01

    def test_null_resampling_preserves_repetition_structure(self):
        # a maximally repetitive sequence must yield a high-variance null
        n_vocab = 50
        rep_seq = np.array([7, 9] * 100)
        div_seq = np.arange(200) % 50
        null_rep = _its_null_samples(rep_seq, 1, n_vocab)
        null_div = _its_null_samples(div_seq, 1, n_vocab)
        assert _law_sd(null_rep) > 3 * _law_sd(null_div)

    @pytest.mark.parametrize("t, chunk_rows", [(400, 10_000), (9000, 700)])
    def test_null_sub_blocks_match_whole_block_sums(self, rng, monkeypatch, t, chunk_rows):
        # every block law drawn in chunks of rows equals the one drawn as
        # one whole block of 2^16 rows
        arr = rng.integers(0, 1024, t + 1)
        sigs = [s for s in _its_signatures(*_its_null_structure(arr, 1)) if len(s) > 1]
        assert sigs
        for sig in sigs:
            laws = []
            for rows in (chunk_rows, _BLOCK_DRAWS):
                monkeypatch.setattr(detect, "_CHUNK_ELEMENTS", rows * (len(sig) + 1))
                laws.append(_its_block_law.__wrapped__(1024, sig))
            (chunked, whole) = laws
            assert chunked[1].tobytes() == whole[1].tobytes(), sig
            assert chunked[0::2] == whole[0::2]

    @pytest.mark.parametrize("n_vocab", [500, 1024, 4096])
    @pytest.mark.parametrize("t", [49, 499, "motif"])
    def test_null_matches_whole_block_stream(self, rng, n_vocab, t):
        # the windowed law, with its spectrum cut where the modulus is
        # negligible, matches the law over the whole support with every bin
        arr = MOTIF if t == "motif" else rng.integers(0, n_vocab, t + 1)
        null = _its_null_samples(arr, 1, n_vocab)
        ref = _whole_support_tails(arr, n_vocab, null)
        assert np.abs(null.tails - ref).max() < 1e-9

    def test_null_mean_matches_whole_matrix(self, rng):
        n_vocab = 4096
        seq = rng.integers(0, n_vocab, 501)
        rep = detect_its(seq, KEY, n_vocab, 1, 0.01)
        _, trace, rs = _its_score_trace(seq, KEY, n_vocab, 1)
        u_grid = (np.arange(n_vocab) + 0.5) / n_vocab
        ref = float(np.sum(1.0 - np.abs(rs[:, None] - u_grid[None, :]).mean(axis=1)))
        # the block Hoeffding bound divides by the sum of squared steps per context
        sum_sq = int((np.unique(seq[:-1], return_counts=True)[1] ** 2).sum())
        assert sum_sq > len(trace)  # some contexts repeat
        gap = rep.score - ref
        p_ref = math.exp(-2.0 * gap * gap / sum_sq) if gap > 0 else 1.0
        assert rep.extra["null_mean"].hex() == ref.hex()
        assert rep.p_hoeffding.hex() == p_ref.hex()
        assert rep.null.hoeffding(0.01) == ref + math.sqrt(sum_sq * math.log(100) / 2)

    def test_null_memory_bounded_at_codec_vocabulary(self, rng):
        # the Monte-Carlo null this law replaced held ~58 MB here before it
        # streamed its draws, and ~20 MB after
        n_vocab = 4096
        seq = rng.integers(0, n_vocab, 501)
        _clear_its_laws()
        assert _peak_traced_mb(lambda: _its_null_samples(seq, 1, n_vocab)) < 24
        # the keyed permutations detection fills belong to the PRF cache,
        # not to the null: fill it before measuring
        clear_prf_caches()
        _its_score_trace(seq, KEY, n_vocab, 1)
        _clear_its_laws()
        assert _peak_traced_mb(
            lambda: detect_its(seq, KEY, n_vocab, 1, 0.01, null_sims=10_000)) < 24
        clear_prf_caches()

    def test_cold_detection_memory_bounded_at_codec_vocabulary(self, rng):
        # each fresh context used to cache a whole int64 permutation and its
        # inverse (~30 MB here) to read one rank
        n_vocab = 4096
        seq = rng.integers(0, n_vocab, 501)
        clear_prf_caches()
        assert _peak_traced_mb(
            lambda: detect_its(seq, KEY, n_vocab, 1, 0.01, null_sims=10_000)) < 32
        clear_prf_caches()

    def test_p_value_floor(self, rng):
        n_vocab = 30
        seq = rng.integers(0, n_vocab, 100)
        rep = detect_its(seq, KEY, n_vocab, 1, 0.01, null_sims=500)
        assert rep.p_exact >= 1.0 / 501


def _model_null_sequence(n_vocab: int, length: int) -> np.ndarray:
    model, _ = build_synthetic_model(SyntheticModelConfig(
        n_vocab=n_vocab, dim=24, true_clusters=20, dirichlet_beta=0.005, seed=101))
    return np.asarray(generate_unwatermarked(model, [1, 2, 3], length, seed=4))


# (sequence, vocabulary size); the motif holds id 200, so its vocabulary is 201
GATE_SEQUENCES = {
    "model_null": (lambda: _model_null_sequence(200, 500), 200),
    "uniform": (lambda: np.random.default_rng(8).integers(0, 80, 500), 80),
    "motif": (lambda: MOTIF, 201),
    "run": (lambda: np.full(200, 17), 80),
}


class TestItsKeyResampling:
    """The ITS null law against the real detector under 1000 fresh keys."""

    KEYS = 1000

    @pytest.fixture(scope="class", params=sorted(GATE_SEQUENCES))
    def resampled(self, request):
        make, n_vocab = GATE_SEQUENCES[request.param]
        seq = make()
        reports = [detect_its(seq, b"gate-%d" % i, n_vocab) for i in range(self.KEYS)]
        return reports

    def test_quantiles_agree_with_law(self, resampled):
        scores = np.array([rep.score for rep in resampled])
        null = resampled[0].null
        assert all(np.array_equal(rep.null.tails, null.tails) for rep in resampled[1:])
        for q in (0.5, 0.95, 0.99):
            share = float(np.mean(scores <= null.tight(1 - q)))
            assert abs(share - q) <= 4 * math.sqrt(q * (1 - q) / self.KEYS), (q, share)

    @pytest.mark.parametrize("f", [0.01, 0.05])
    def test_flagged_share_within_fpr(self, resampled, f):
        bound = f + 3 * math.sqrt(f * (1 - f) / self.KEYS)
        tight = np.mean([rep.score > rep.null.tight(f) for rep in resampled])
        hoeffding = np.mean([rep.score > rep.null.hoeffding(f) for rep in resampled])
        assert tight <= bound and hoeffding <= bound, (tight, hoeffding, bound)


class TestItsLaw:
    def test_unit_cf_matches_integral(self):
        # E exp(-i w (1 - |r - u|)) by the midpoint rule over r, at
        # frequencies that include the poles of the rank-grid sum
        for n_vocab in (7, 80):
            u = (np.arange(n_vocab) + 0.5) / n_vocab
            r = (np.arange(200_000) + 0.5) / 200_000
            w = np.array([0.0, 0.3, 5.0, 2 * np.pi * n_vocab, 6 * np.pi * n_vocab + 1e-7])
            f = 1.0 - np.abs(r[:, None] - u[None, :])
            ref = [np.mean(np.exp(-1j * x * f)) for x in w]
            assert np.abs(_its_unit_cf(n_vocab, w) - ref).max() < 1e-6

    def test_p_exact_floored_not_zero(self):
        n_vocab = 1000
        model = ConstantModel(np.full(n_vocab, 1.0 / n_vocab))
        ses = GenerationSession(key=KEY, config=ReweightConfig("its"), ngram_n=1, rng_seed=3)
        rep = detect_its(generate(model, [0], 400, ses), KEY, n_vocab)
        assert rep.p_exact == _P_FLOOR > 0
        assert rep.null.p_values(1e9)[1] == _P_FLOOR

    def test_few_sampled_blocks_match_direct_resampling(self):
        # two contexts, each followed by both tokens: the law is the sum of
        # two sampled blocks, whose spectrum never falls below the cut, so
        # the inversion must hold unit mass and match direct resampling
        n_vocab, keys = 80, 20_000
        seq = np.random.default_rng(1).integers(0, 2, 301) + 5
        null = _its_null_samples(seq, 1, n_vocab)
        assert abs(null.tails[0] - 1.0) < 1e-6 and null.tails.max() < 1.0 + 1e-6
        ctx_idx, tok_idx = _its_null_structure(seq, 1)
        draws = np.random.default_rng(0)
        r = draws.random((keys, 2))
        ranks = np.argsort(draws.random((keys, 2, n_vocab)), axis=2)[:, :, :2]
        u = (ranks + 0.5) / n_vocab
        scores = (1.0 - np.abs(r[:, ctx_idx] - u[:, ctx_idx, tok_idx])).sum(axis=1)
        for f in (0.5, 0.05, 0.01):
            share = float(np.mean(scores > null.tight(f)))
            assert abs(share - f) <= 4 * math.sqrt(f * (1 - f) / keys), (f, share)

    def test_law_memory_bounded_on_long_stream(self):
        seq = np.random.default_rng(2).integers(0, 4096, 50_001)
        _its_null_samples(seq[:600], 1, 4096)  # numpy's FFT plan cache, not the law
        _clear_its_laws()
        assert _peak_traced_mb(lambda: _its_null_samples(seq, 1, 4096)) < 16

    def test_reports_identical_across_processes(self, tmp_path):
        script = (
            "import json, numpy as np\n"
            "from clustermark.detect import detect_its\n"
            "seqs = [np.random.default_rng(5).integers(0, 300, 400), np.resize([3, 47, 91, 3, 200], 301)]\n"
            "reps = [detect_its(s, b'det', 301) for s in seqs]\n"
            "print(json.dumps([[r.to_json_dict(), r.null.tails.tolist()] for r in reps]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True).stdout)
        assert outs[0] == outs[1] and len(outs[0]) > 1000


class TestRankCache:
    @pytest.mark.parametrize("detect, ngram_n", [
        (lambda seq: detect_kgw(seq, KEY, 300, ngram_n=2), 2),
        (lambda seq: detect_dipmark(seq, KEY, 300), 1),
        (lambda seq: detect_its(seq, KEY, 300, null_sims=200), 1),
    ], ids=["kgw", "dipmark", "its"])
    def test_cold_and_built_orders_give_equal_reports(self, rng, detect, ngram_n):
        seq = rng.integers(0, 300, 200)
        clear_prf_caches()
        cold = detect(seq)
        clear_prf_caches()
        for i in range(ngram_n, seq.size):
            context = tuple(int(v) for v in seq[i - ngram_n : i])
            _prf_permutation_raw(KEY, ngram_n, context, 300).perm
        built = detect(seq)
        clear_prf_caches()
        assert built.to_json_dict() == cold.to_json_dict()
        assert built.trace == cold.trace


class TestTokenValidation:
    @pytest.mark.parametrize("bad", [-3, 80])
    @pytest.mark.parametrize("detect", [
        lambda toks: detect_aligned(toks, KEY, balanced_cluster_map(80, 8), 1),
        lambda toks: detect_kgw(toks, KEY, 80),
        lambda toks: detect_unigram(toks, KEY, 80),
        lambda toks: detect_dipmark(toks, KEY, 80),
        lambda toks: detect_its(toks, KEY, 80, null_sims=10),
    ], ids=["aligned", "kgw", "unigram", "dipmark", "its"])
    def test_rejects_ids_outside_vocabulary(self, detect, bad):
        # numpy indexing would wrap a negative id onto a real token
        with pytest.raises(ValueError, match="outside the vocabulary"):
            detect([1, 2, 3, bad, 5, 6])


class TestModelAgnosticism:
    def test_detectors_take_no_model(self):
        import inspect

        for fn in (detect_aligned, detect_kgw, detect_unigram, detect_dipmark,
                   detect_its):
            assert "model" not in inspect.signature(fn).parameters
