import numpy as np
import pytest
from scipy.stats import chisquare

from clustermark.core import code_fingerprint
from clustermark.generate import (
    GenerationSession,
    generate,
    generate_unwatermarked,
    make_code,
)
from clustermark.reweight import (
    ReweightConfig,
    aligned_sample,
    build_segment_table,
    cluster_probs,
)

from conftest import ConstantModel, balanced_cluster_map

KEY = b"generate-tests"


def session(strategy="its", ngram_n=1, cluster_map=None, seed=0, **params):
    return GenerationSession(
        key=KEY,
        config=ReweightConfig(strategy, **params),
        ngram_n=ngram_n,
        cluster_map=cluster_map,
        rng_seed=seed,
    )


class TestGenerateUnwatermarked:
    def test_deterministic_model_repeats_token(self):
        dist = np.zeros(5)
        dist[3] = 1.0
        out = generate_unwatermarked(ConstantModel(dist), [], 10, seed=1)
        assert out == [3] * 10

    def test_fixed_seed_reproducible(self, rng):
        model = ConstantModel(rng.dirichlet(np.ones(20)))
        a = generate_unwatermarked(model, [1, 2], 50, seed=7)
        b = generate_unwatermarked(model, [1, 2], 50, seed=7)
        assert a == b

    def test_frequencies_match_model(self, rng):
        dist = rng.dirichlet(np.full(8, 5.0))
        model = ConstantModel(dist)
        out = generate_unwatermarked(model, [], 40_000, seed=3)
        counts = np.bincount(out, minlength=8)
        assert chisquare(counts, dist * 40_000).pvalue > 0.01

    def test_length_validated(self):
        with pytest.raises(ValueError):
            generate_unwatermarked(ConstantModel(np.ones(2) / 2), [], 0)


class TestHistorySemantics:
    def test_first_context_occurrence_watermarked(self, rng):
        # a step takes the watermarked path iff its code is fresh
        model = ConstantModel(rng.dirichlet(np.ones(30)))
        ses = session("its", ngram_n=1, seed=5)
        out = generate(model, [4], 60, ses)
        contexts = [4] + out[:-1]
        seen, expected_mask = set(), []
        for ctx in contexts:
            expected_mask.append(ctx not in seen)
            seen.add(ctx)
        assert ses.watermarked_mask == expected_mask

    def test_watermarked_steps_have_distinct_fingerprints(self, rng):
        model = ConstantModel(rng.dirichlet(np.ones(25)))
        ses = session("kgw", ngram_n=1, seed=2, delta=1.0, gamma=0.5)
        out = generate(model, [0, 1], 80, ses)
        contexts = [0, 1] + out
        fps = [
            code_fingerprint(make_code(KEY, contexts[: 2 + i], 1, "kgw"))
            for i, flag in enumerate(ses.watermarked_mask)
            if flag
        ]
        assert len(fps) == len(set(fps))
        assert len(ses.history) == len(fps)

    def test_insufficient_context_falls_back(self, rng):
        model = ConstantModel(rng.dirichlet(np.ones(10)))
        ses = session("its", ngram_n=3, seed=1)
        out = generate(model, [], 20, ses)
        # first three steps cannot form a 3-gram
        assert ses.watermarked_mask[:3] == [False, False, False]
        assert any(ses.watermarked_mask[3:])
        assert len(out) == 20

    def test_unigram_watermarks_every_step(self, rng):
        model = ConstantModel(rng.dirichlet(np.ones(10)))
        ses = session("unigram", ngram_n=1, seed=1, delta=2.0, gamma=0.5)
        generate(model, [], 25, ses)
        assert all(ses.watermarked_mask)


class TestDistortion:
    def test_first_step_law_matches_model_over_keys(self, rng):
        # Monte-Carlo form of the unbiasedness definition: averaging the
        # watermarked first-step law over independent keys recovers the
        # model's distribution
        m = balanced_cluster_map(12, 4)
        dist = rng.dirichlet(np.full(12, 3.0))
        model = ConstantModel(dist)
        counts = np.zeros(12)
        n_keys = 8_000
        for k in range(n_keys):
            ses = GenerationSession(
                key=b"k%d" % k,
                config=ReweightConfig("aligned_is", h=4),
                ngram_n=1,
                cluster_map=m,
                rng_seed=k,
            )
            counts[generate(model, [3], 1, ses)[0]] += 1
        assert chisquare(counts, dist * n_keys).pvalue > 0.01

    def test_h1_equals_plain_sampling_law(self, rng):
        # with one cluster the segment table is all of [0, 1), so every r
        # leads to a plain draw from the model's distribution
        m = balanced_cluster_map(10, 1)
        dist = rng.dirichlet(np.full(10, 2.0))
        table = build_segment_table(cluster_probs(dist, m))
        gen = np.random.default_rng(0)
        n = 30_000
        out = [aligned_sample(table, dist, m, gen.random(), gen) for _ in range(n)]
        counts = np.bincount(out, minlength=10)
        assert chisquare(counts, dist * n).pvalue > 0.01

    def test_kgw_bias_is_detectable(self, rng):
        # sanity that the bias test has power: averaged over codes the
        # boosted greenlist plateaus at a positive total-variation gap while
        # an unbiased reweight decays at the Monte-Carlo rate.  The gap only
        # exists at non-uniform distributions, so use a peaky one.
        from clustermark.core import WatermarkCode
        from clustermark.reweight import dipmark_reweight, kgw_reweight

        dist = rng.dirichlet(np.full(200, 0.02))
        m = 4000
        acc_kgw = np.zeros(200)
        acc_dip = np.zeros(200)
        for k in range(m):
            c = WatermarkCode(key=KEY, context=(k,), ngram_n=1)
            acc_kgw += kgw_reweight(dist, c, 2.0, 0.5)
            acc_dip += dipmark_reweight(dist, c, 0.4)
        tv_kgw = 0.5 * np.abs(acc_kgw / m - dist).sum()
        tv_dip = 0.5 * np.abs(acc_dip / m - dist).sum()
        assert tv_kgw > 8 * tv_dip


class TestSessionValidation:
    def test_aligned_requires_map(self):
        with pytest.raises(ValueError, match="cluster map"):
            session("aligned_is", h=4)

    def test_h_mismatch_rejected(self):
        m = balanced_cluster_map(12, 4)
        with pytest.raises(ValueError, match="h="):
            session("aligned_is", h=5, cluster_map=m)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            GenerationSession(key=b"", config=ReweightConfig("its"))

    def test_length_validated(self, rng):
        model = ConstantModel(rng.dirichlet(np.ones(5)))
        with pytest.raises(ValueError):
            generate(model, [], 0, session("its"))


class TestMakeCode:
    def test_short_context_returns_none(self):
        assert make_code(KEY, [1], 2, "its") is None

    def test_aligned_uses_cluster_indices(self):
        m = balanced_cluster_map(10, 2)
        a = make_code(KEY, [4], 1, "aligned_is", m)
        b = make_code(KEY, [6], 1, "aligned_is", m)  # same cluster (even)
        c = make_code(KEY, [5], 1, "aligned_is", m)  # other cluster
        assert a == b
        assert a != c
        assert a.context == (0,)

    def test_baselines_use_raw_tokens(self):
        a = make_code(KEY, [4], 1, "its")
        b = make_code(KEY, [6], 1, "its")
        assert a != b
        assert a.context == (4,)
