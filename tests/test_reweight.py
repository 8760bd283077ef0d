import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustermark.core import WatermarkCode, _prf_permutation_raw, prf_r
from clustermark.detect import detect_method
from clustermark.generate import GenerationSession, generate
from clustermark.reweight import (
    ReweightConfig,
    aligned_marginal,
    aligned_sample,
    aligned_score,
    build_segment_table,
    cluster_probs,
    dipmark_reweight,
    its_marginal,
    its_sample,
    its_score,
    kgw_reweight,
    unigram_reweight,
)

from conftest import ConstantModel, balanced_cluster_map, random_cluster_map

KEY = b"reweight-tests"


def code(context=(0,)):
    return WatermarkCode(key=KEY, context=tuple(context), ngram_n=len(context))


def tv(a, b):
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


class TestClusterProbs:
    def test_uniform_equal_clusters(self):
        m = balanced_cluster_map(40, 8)
        probs = cluster_probs(np.full(40, 1 / 40), m)
        assert np.allclose(probs, 1 / 8)

    def test_point_mass(self):
        m = balanced_cluster_map(40, 8)
        dist = np.zeros(40)
        dist[13] = 1.0
        probs = cluster_probs(dist, m)
        assert probs[m.cluster_of(13)] == 1.0
        assert probs.sum() == 1.0

    def test_matches_brute_force(self, rng):
        m = random_cluster_map(rng, 60, 7)
        dist = rng.dirichlet(np.ones(60))
        brute = np.zeros(7)
        for tok in range(60):
            brute[m.cluster_of(tok)] += dist[tok]
        assert np.allclose(cluster_probs(dist, m), brute, atol=1e-12)

    def test_size_mismatch(self, rng):
        m = balanced_cluster_map(10, 2)
        with pytest.raises(ValueError, match="entries"):
            cluster_probs(np.full(9, 1 / 9), m)


class TestSegmentTable:
    def test_hand_example(self):
        table = build_segment_table(np.array([0.7, 0.3]))
        assert table.segments() == [(0, 0.0, 0.5), (1, 0.5, 0.8), (0, 0.8, 1.0)]

    def test_aligned_scenario_no_fillers(self):
        table = build_segment_table(np.full(4, 0.25))
        assert table.segments() == [
            (0, 0.0, 0.25), (1, 0.25, 0.5), (2, 0.5, 0.75), (3, 0.75, 1.0)
        ]

    def test_single_cluster_owns_everything(self):
        table = build_segment_table(np.array([1.0, 0.0, 0.0]))
        assert all(c == 0 for c, _, _ in table.segments())
        assert np.isclose(table.cluster_lengths()[0], 1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            build_segment_table(np.array([0.7, 0.7]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), h=st.integers(1, 24))
    def test_tiling_invariants(self, seed, h):
        probs = np.random.default_rng(seed).dirichlet(np.full(h, 0.4))
        table = build_segment_table(probs)
        starts, ends = table.starts, table.ends
        # contiguity and exact cover of [0, 1)
        assert starts[0] == 0.0 and ends[-1] == 1.0
        assert np.all(np.abs(starts[1:] - ends[:-1]) < 1e-12)
        assert abs((ends - starts).sum() - 1.0) < 1e-12
        # per-cluster length equals the cluster's probability
        assert np.all(np.abs(table.cluster_lengths() - probs) < 1e-12)
        # each cluster's own mass sits at the start of its own bin
        width = 1.0 / h
        for c in range(h):
            own = min(probs[c], width)
            if own > 0:
                idx = np.flatnonzero(
                    (table.clusters == c) & (np.abs(starts - c * width) < 1e-12)
                )
                assert idx.size == 1
                seg = int(idx[0])
                assert abs((ends[seg] - starts[seg]) - own) < 1e-9

    def test_locate_half_open(self):
        table = build_segment_table(np.array([0.7, 0.3]))
        assert table.locate(0.0) == 0
        assert table.locate(0.5) == 1
        assert table.locate(0.8 - 1e-12) == 1
        assert table.locate(0.8) == 0
        with pytest.raises(ValueError):
            table.locate(1.0)


class TestAlignedSample:
    def test_h1_samples_full_distribution(self, rng):
        m = balanced_cluster_map(20, 1)
        dist = rng.dirichlet(np.ones(20))
        assert tv(aligned_marginal(dist, m), dist) < 1e-12

    def test_segment_lookup_hand_example(self, rng):
        # two clusters (evens, odds) with masses 0.7 / 0.3: r = 0.9 falls in
        # the overflow segment owned by cluster 0
        m = balanced_cluster_map(4, 2)
        dist = np.array([0.4, 0.2, 0.3, 0.1])
        table = build_segment_table(cluster_probs(dist, m))
        counts = np.zeros(4)
        n = 100_000
        gen = np.random.default_rng(9)
        for _ in range(n):
            counts[aligned_sample(table, dist, m, 0.9, gen)] += 1
        # conditional law within cluster 0: (0.4, 0.3)/0.7
        assert counts[1] == 0 and counts[3] == 0
        assert abs(counts[0] / n - 4 / 7) < 0.01
        assert abs(counts[2] / n - 3 / 7) < 0.01

    def test_marginal_equals_dist_exactly(self, rng):
        # exact integration over r: for token x in cluster c the marginal is
        # (total segment length of c) * dist[x] / Pr(c) = dist[x]
        for _ in range(25):
            m = random_cluster_map(rng, 200, 10)
            dist = rng.dirichlet(np.full(200, 0.2))
            assert tv(aligned_marginal(dist, m), dist) < 1e-12

    def test_sampler_follows_marginal(self, rng):
        # statistical check that the sampler realizes the integrated law
        m = balanced_cluster_map(10, 3)
        dist = rng.dirichlet(np.ones(10))
        gen = np.random.default_rng(4)
        n = 60_000
        counts = np.zeros(10)
        for _ in range(n):
            r = gen.random()
            table = build_segment_table(cluster_probs(dist, m))
            counts[aligned_sample(table, dist, m, r, gen)] += 1
        assert tv(counts / n, dist) < 0.01

    def test_rejects_r_out_of_range(self, rng):
        m = balanced_cluster_map(10, 2)
        dist = np.full(10, 0.1)
        table = build_segment_table(cluster_probs(dist, m))
        with pytest.raises(ValueError):
            aligned_sample(table, dist, m, 1.0, np.random.default_rng(0))


class TestAlignedScore:
    def test_direct_examples(self):
        m = balanced_cluster_map(40, 20)
        token_in_c4 = 4  # cluster index 4 == 1-indexed cluster 5
        assert m.cluster_of(token_in_c4) == 4
        assert aligned_score(0.21, token_in_c4, m) == 1  # 0.21 in [0.20, 0.25)
        assert aligned_score(0.25, token_in_c4, m) == 0  # half-open boundary

    def test_matches_brute_force_interval_check(self, rng):
        m = random_cluster_map(rng, 60, 12)
        for _ in range(300):
            r = rng.random()
            token = int(rng.integers(60))
            c = m.cluster_of(token)
            brute = 1 if (c / 12) <= r < ((c + 1) / 12) else 0
            assert aligned_score(r, token, m) == brute

    def test_null_rate_is_exactly_one_over_h(self):
        # for a fixed token the favorable r-interval has width exactly 1/h
        m = balanced_cluster_map(40, 20)
        grid = (np.arange(200_000) + 0.5) / 200_000
        token = 7
        c = m.cluster_of(token)
        hits = np.sum((grid >= c / 20) & (grid < (c + 1) / 20))
        assert hits / grid.size == pytest.approx(1 / 20, abs=1e-9)

    def test_power_formula_monte_carlo(self, rng):
        # E_r[score(r, sample(r))] equals the own-mass total of the table
        m = random_cluster_map(rng, 100, 8)
        dist = rng.dirichlet(np.full(100, 0.3))
        table = build_segment_table(cluster_probs(dist, m))
        exact = table.own_mass_total
        gen = np.random.default_rng(17)
        n = 40_000
        hits = 0
        for _ in range(n):
            r = gen.random()
            tok = aligned_sample(table, dist, m, r, gen)
            hits += aligned_score(r, tok, m)
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(hits / n - exact) < 3 * se


class TestKgw:
    def test_delta_zero_identity(self, rng):
        dist = rng.dirichlet(np.ones(30))
        out = kgw_reweight(dist, code(), delta=0.0, gamma=0.5)
        assert np.allclose(out, dist, atol=1e-12)

    def test_two_token_hand_example(self):
        dist = np.array([0.5, 0.5])
        c = code(context=(5,))
        out = kgw_reweight(dist, c, delta=math.log(3.0), gamma=0.5)
        perm = _prf_permutation_raw(KEY, 1, (5,), 2).perm
        expected = np.empty(2)
        expected[perm[0]] = 0.75  # boosted: 3*0.5 / (3*0.5 + 0.5)
        expected[perm[1]] = 0.25
        assert np.allclose(out, expected, atol=1e-12)

    def test_output_is_distribution(self, rng):
        dist = rng.dirichlet(np.ones(100))
        out = kgw_reweight(dist, code(), delta=2.0, gamma=0.5)
        assert np.all(out >= 0) and abs(out.sum() - 1.0) < 1e-9

    def test_gamma_validated(self, rng):
        with pytest.raises(ValueError):
            kgw_reweight(rng.dirichlet(np.ones(4)), code(), 1.0, 0.0)


class TestUnigram:
    def test_delta_zero_identity(self, rng):
        dist = rng.dirichlet(np.ones(30))
        assert np.allclose(unigram_reweight(dist, KEY, 0.0, 0.5), dist, atol=1e-12)

    def test_key_only_no_context_dependence(self, rng):
        dist = rng.dirichlet(np.ones(30))
        a = unigram_reweight(dist, KEY, 1.5, 0.5)
        b = unigram_reweight(dist, KEY, 1.5, 0.5)
        assert np.array_equal(a, b)

    def test_boost_magnitude(self):
        dist = np.array([0.5, 0.5])
        out = unigram_reweight(dist, KEY, math.log(3.0), 0.5)
        assert sorted(np.round(out, 12).tolist()) == [0.25, 0.75]


class TestDipmark:
    def test_alpha_zero_identity(self, rng):
        dist = rng.dirichlet(np.ones(40))
        assert np.allclose(dipmark_reweight(dist, code(), 0.0), dist, atol=1e-12)

    def test_alpha_half_two_tokens(self):
        c = code(context=(3,))
        out = dipmark_reweight(np.array([0.5, 0.5]), c, 0.5)
        perm = _prf_permutation_raw(KEY, 1, (3,), 2).perm
        # all mass moves to the later token of the permuted order
        assert out[perm[1]] == pytest.approx(1.0, abs=1e-12)
        assert out[perm[0]] == pytest.approx(0.0, abs=1e-12)

    def test_permutation_average_is_unbiased(self, rng):
        # oracle: enumerate all 3! orderings with an independent evaluation
        # of the clamped-CDF definition
        dist = rng.dirichlet(np.ones(3))
        alpha = 0.35

        def reference(p_perm):
            cdf = np.cumsum(p_perm)
            lo = np.maximum(cdf - alpha, 0.0)
            hi = np.maximum(cdf - (1 - alpha), 0.0)
            out = np.empty(3)
            out[0] = lo[0] + hi[0]
            out[1:] = np.diff(lo) + np.diff(hi)
            return out

        acc = np.zeros(3)
        for perm in permutations(range(3)):
            perm = list(perm)
            new = reference(dist[perm])
            unpermuted = np.empty(3)
            unpermuted[perm] = new
            acc += unpermuted
        assert tv(acc / 6.0, dist) < 1e-12

    def test_matches_reference_on_actual_permutation(self, rng):
        dist = rng.dirichlet(np.ones(20))
        alpha = 0.3
        c = code(context=(9,))
        perm = _prf_permutation_raw(KEY, 1, (9,), 20).perm
        cdf = np.cumsum(dist[perm])
        lo = np.maximum(cdf - alpha, 0.0)
        hi = np.maximum(cdf - (1 - alpha), 0.0)
        ref_perm = np.empty(20)
        ref_perm[0] = lo[0] + hi[0]
        ref_perm[1:] = np.diff(lo) + np.diff(hi)
        ref = np.empty(20)
        ref[perm] = ref_perm
        assert np.allclose(dipmark_reweight(dist, c, alpha), ref, atol=1e-12)

    def test_output_is_distribution(self, rng):
        dist = rng.dirichlet(np.full(64, 0.15))
        out = dipmark_reweight(dist, code(), 0.4)
        assert np.all(out >= 0) and abs(out.sum() - 1.0) < 1e-9

    def test_gamma_reweight_is_alpha_half(self, rng):
        # gamma_reweight is the strategy table's alias of dipmark at 0.5
        model = ConstantModel(rng.dirichlet(np.ones(16)))
        gamma_cfg = ReweightConfig("gamma_reweight")
        dipmark_cfg = ReweightConfig("dipmark", alpha=0.5)
        tokens = [generate(model, [3], 40, GenerationSession(KEY, cfg, rng_seed=1))
                  for cfg in (gamma_cfg, dipmark_cfg)]
        assert tokens[0] == tokens[1]
        reports = [detect_method(cfg, 1, tokens[0], KEY, None, 16)
                   for cfg in (gamma_cfg, dipmark_cfg)]
        assert reports[0].to_json_dict() == reports[1].to_json_dict()


class TestIts:
    def test_r_zero_selects_first_nonzero_of_permuted_order(self):
        # craft a code whose r is tiny by searching a few contexts
        n = 6
        best = min(range(500), key=lambda i: prf_r(code(context=(i,))))
        c = code(context=(best,))
        assert prf_r(c) < 0.02
        perm = _prf_permutation_raw(KEY, 1, (best,), n).perm
        dist = np.zeros(n)
        dist[perm[0]] = 0.0  # force skipping a zero-mass head is separate
        dist[perm[1]] = 0.5
        dist[perm[2]] = 0.5
        tok = its_sample(dist, c)
        assert tok == perm[1]

    def test_single_token_vocab(self):
        c = code(context=(1,))
        assert its_sample(np.array([1.0]), c) == 0
        r = prf_r(c)
        assert its_score(r, 0, c, 1) == pytest.approx(1.0 - abs(r - 0.5))

    def test_sample_matches_inverse_cdf_oracle(self, rng):
        for i in range(40):
            c = code(context=(i, 7))
            dist = rng.dirichlet(np.full(30, 0.4))
            perm = _prf_permutation_raw(KEY, 2, (i, 7), 30).perm
            r = prf_r(c)
            acc = 0.0
            expected = None
            for t in perm:
                acc += dist[t]
                if r < acc:
                    expected = t
                    break
            assert its_sample(dist, c) == expected

    def test_marginal_over_r_is_exact(self, rng):
        for i in range(25):
            dist = rng.dirichlet(np.full(50, 0.3))
            assert tv(its_marginal(dist, code(context=(i,))), dist) < 1e-12

    def test_score_uses_rank_position(self, rng):
        c = code(context=(11,))
        perm = _prf_permutation_raw(KEY, 1, (11,), 10).perm
        for token in range(10):
            rank = int(np.flatnonzero(perm == token)[0])
            u = (rank + 0.5) / 10
            assert its_score(0.3, token, c, 10) == pytest.approx(1 - abs(0.3 - u))

    def test_score_range(self, rng):
        c = code(context=(2,))
        for token in range(20):
            s = its_score(rng.random(), token, c, 20)
            assert 0.0 <= s <= 1.0


class TestReweightConfig:
    def test_strategies_validated(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ReweightConfig("nope")

    def test_required_parameters(self):
        with pytest.raises(ValueError):
            ReweightConfig("aligned_is")
        with pytest.raises(ValueError):
            ReweightConfig("kgw", delta=1.0)
        with pytest.raises(ValueError):
            ReweightConfig("dipmark", alpha=0.7)

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ValueError, match="not used"):
            ReweightConfig("its", h=5)

    def test_labels(self):
        assert ReweightConfig("aligned_is", h=20).label() == "aligned_is(h=20)"
        assert "alpha" in ReweightConfig("dipmark", alpha=0.4).label()
