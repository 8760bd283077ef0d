import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from clustermark.detect import (
    _its_null_samples,
    _its_null_structure,
    _its_score_trace,
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
from clustermark.generate import GenerationSession, generate
from clustermark.reweight import ReweightConfig

from conftest import ConstantModel, balanced_cluster_map

KEY = b"detect-tests"
MOTIF = np.resize(np.array([3, 47, 91, 3, 47, 91, 3, 200]), 501)


def _whole_block_null(arr, ngram_n, n_vocab, sims, seed):
    """Reference ITS null: each 4 000 000-element block's ranks drawn as one
    int64 array and its whole gather summed at once."""
    ctx_idx, tok_idx = _its_null_structure(arr, ngram_n)
    t = ctx_idx.size
    draws = np.random.default_rng(seed)
    block = min(sims, 4_000_000 // t)
    ref = []
    for lo in range(0, sims, block):
        n = min(block, sims - lo)
        r = draws.random((n, ctx_idx.max() + 1), dtype=np.float32)
        u = (draws.integers(0, n_vocab, size=(n, tok_idx.max() + 1))
             .astype(np.float32) + 0.5) / n_vocab
        ref.append(t - np.abs(r[:, ctx_idx] - u[:, tok_idx]).sum(axis=1, dtype=np.float64))
    return np.concatenate(ref)


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
        null_rep = _its_null_samples(rep_seq, 1, n_vocab, 2000, 5)
        null_div = _its_null_samples(div_seq, 1, n_vocab, 2000, 5)
        assert null_rep.std() > 3 * null_div.std()

    @pytest.mark.parametrize("t, sims", [(400, 10_000), (9000, 700)])
    def test_null_sub_blocks_match_whole_block_sums(self, rng, t, sims):
        # reference: the whole draw block gathered and summed at once
        arr = rng.integers(0, 1024, t + 1)
        ctx_idx, tok_idx = _its_null_structure(arr, 1)
        draws = np.random.default_rng(5)
        block = min(sims, 4_000_000 // t)
        ref = []
        for lo in range(0, sims, block):
            n = min(block, sims - lo)
            r = draws.random((n, ctx_idx.max() + 1), dtype=np.float32)
            u = (draws.integers(0, 1024, size=(n, tok_idx.max() + 1))
                 .astype(np.float32) + 0.5) / 1024
            ref.append(t - np.abs(r[:, ctx_idx] - u[:, tok_idx]).sum(axis=1, dtype=np.float64))
        null = _its_null_samples(arr, 1, 1024, sims, 5)
        assert null.tobytes() == np.concatenate(ref).tobytes()

    @pytest.mark.parametrize("n_vocab", [500, 1024, 4096])
    @pytest.mark.parametrize("t", [49, 499, "motif"])
    def test_null_matches_whole_block_stream(self, rng, n_vocab, t):
        # int32 rank draws per row sub-block must consume the RNG stream
        # exactly as one int64 draw per block did
        arr = MOTIF if t == "motif" else rng.integers(0, n_vocab, t + 1)
        null = _its_null_samples(arr, 1, n_vocab, 10_000, 5)
        assert null.tobytes() == _whole_block_null(arr, 1, n_vocab, 10_000, 5).tobytes()

    def test_null_mean_matches_whole_matrix(self, rng):
        n_vocab = 4096
        seq = rng.integers(0, n_vocab, 501)
        rep = detect_its(seq, KEY, n_vocab, 1, 0.01, null_sims=100)
        _, trace, rs = _its_score_trace(seq, KEY, n_vocab, 1)
        u_grid = (np.arange(n_vocab) + 0.5) / n_vocab
        ref = float(np.sum(1.0 - np.abs(rs[:, None] - u_grid[None, :]).mean(axis=1)))
        gap = rep.score - ref
        p_ref = math.exp(-2.0 * gap * gap / len(trace)) if gap > 0 else 1.0
        assert rep.extra["null_mean"].hex() == ref.hex()
        assert rep.p_hoeffding.hex() == p_ref.hex()

    def test_null_memory_bounded_at_codec_vocabulary(self, rng):
        # the whole-block null held ~58 MB here: int64 ranks, their float32
        # copy and whole-block gathers besides the 16 MB float32 draw block
        n_vocab = 4096
        seq = rng.integers(0, n_vocab, 501)
        assert _peak_traced_mb(
            lambda: _its_null_samples(seq, 1, n_vocab, 10_000, 0)) < 24
        # the keyed permutations detection fills belong to the PRF cache,
        # not to the null: fill it before measuring
        clear_prf_caches()
        _its_score_trace(seq, KEY, n_vocab, 1)
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
