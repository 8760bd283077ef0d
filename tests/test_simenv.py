import math

import numpy as np
import pytest

from clustermark.clustering import ClusterMap, kmeans_fit, mismatch_rates
from clustermark.detect import detect_aligned
from clustermark.generate import GenerationSession, generate
from clustermark.reweight import ReweightConfig
from clustermark.simenv import (
    CHANNEL_PRESETS,
    ChannelConfig,
    SyntheticModelConfig,
    apply_channel,
    attack_crop,
    attack_insert_delete,
    attack_substitute,
    build_synthetic_model,
    channel_preset,
    same_cluster_neighbors,
)
from conftest import balanced_cluster_map

KEY = b"simenv-tests"


@pytest.fixture(scope="module")
def env():
    cfg = SyntheticModelConfig(n_vocab=200, dim=12, true_clusters=10,
                               separation=14.0, dirichlet_beta=0.3, seed=42)
    model, emb = build_synthetic_model(cfg)
    map_ = kmeans_fit(emb, 10, seed=3)
    return cfg, model, emb, map_


class TestSyntheticModel:
    def test_deterministic_rebuild(self):
        cfg = SyntheticModelConfig(n_vocab=50, dim=8, true_clusters=5, seed=9)
        m1, e1 = build_synthetic_model(cfg)
        m2, e2 = build_synthetic_model(cfg)
        assert np.array_equal(e1, e2)
        for ctx in ((), (1, 2), (40,)):
            assert np.array_equal(m1.next_dist(ctx), m2.next_dist(ctx))

    def test_next_dist_is_distribution(self, env):
        _, model, _, _ = env
        d = model.next_dist((3, 14, 15))
        assert np.all(d >= 0) and abs(d.sum() - 1.0) < 1e-9

    def test_context_sensitivity(self, env):
        _, model, _, _ = env
        assert not np.array_equal(model.next_dist((1,)), model.next_dist((2,)))

    def test_large_beta_approaches_uniform(self):
        cfg = SyntheticModelConfig(n_vocab=100, dim=8, true_clusters=5,
                                   dirichlet_beta=1e5, seed=1)
        model, _ = build_synthetic_model(cfg)
        d = model.next_dist((0,))
        assert d.max() - d.min() < 1e-2

    def test_centroid_separation_exact(self):
        cfg = SyntheticModelConfig(n_vocab=60, dim=10, true_clusters=6,
                                   separation=20.0, seed=2)
        model, emb = build_synthetic_model(cfg)
        means = np.stack([
            emb[model.component_labels == c].mean(axis=0) for c in range(6)
        ])
        for i in range(6):
            for j in range(i + 1, 6):
                d = float(np.linalg.norm(means[i] - means[j]))
                assert d == pytest.approx(20.0, rel=0.25)

    def test_separation_recovery(self):
        cfg = SyntheticModelConfig(n_vocab=200, dim=12, true_clusters=10,
                                   separation=20.0, seed=4)
        model, emb = build_synthetic_model(cfg)
        m = kmeans_fit(emb, 10, seed=0)
        for c in range(10):
            assert len(set(model.component_labels[m.cluster_members[c]])) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticModelConfig(n_vocab=5, true_clusters=10)
        with pytest.raises(ValueError):
            SyntheticModelConfig(dim=4, true_clusters=10)
        with pytest.raises(ValueError):
            SyntheticModelConfig(separation=0.0)
        with pytest.raises(ValueError):
            SyntheticModelConfig(dirichlet_beta=0.0)


class TestChannel:
    def test_identity_at_zero(self, env, rng):
        _, _, emb, map_ = env
        seq = rng.integers(0, 200, 500)
        out = apply_channel(seq, map_, emb, ChannelConfig(0.0, 0.5, seed=1))
        assert np.array_equal(out, seq)

    def test_full_same_cluster_replacement(self, env, rng):
        _, _, emb, map_ = env
        seq = rng.integers(0, 200, 2000)
        out = apply_channel(seq, map_, emb, ChannelConfig(1.0, 1.0, seed=2))
        rep = mismatch_rates(seq, out, map_)
        assert rep.token_rate == 1.0
        assert rep.cluster_rate == 0.0

    def test_length_preserved_and_rates_ordered(self, env, rng):
        _, _, emb, map_ = env
        seq = rng.integers(0, 200, 3000)
        out = apply_channel(seq, map_, emb, ChannelConfig(0.5, 0.3, seed=3))
        assert out.size == seq.size
        rep = mismatch_rates(seq, out, map_)
        assert rep.cluster_rate <= rep.token_rate

    def test_preset_calibration_longform(self, env, rng):
        _, _, emb, map_ = env
        n = 100_000
        seq = rng.integers(0, 200, n)
        ch = channel_preset("longform_qa", seed=5)
        out = apply_channel(seq, map_, emb, ch)
        rep = mismatch_rates(seq, out, map_)
        tok, clu = CHANNEL_PRESETS["longform_qa"]
        se_tok = math.sqrt(tok * (1 - tok) / n)
        se_clu = math.sqrt(clu * (1 - clu) / n)
        assert abs(rep.token_rate - tok) < 3 * se_tok
        assert abs(rep.cluster_rate - clu) < 3 * se_clu

    def test_singleton_cluster_fallback(self, rng):
        # token 0 is alone in its cluster; same-cluster replacement keeps it
        assignment = np.zeros(10, dtype=int)
        assignment[0] = 1
        emb = rng.normal(size=(10, 2))
        m = ClusterMap(h=2, assignment=assignment, centroids=np.zeros((2, 2)))
        seq = np.zeros(50, dtype=int)
        out = apply_channel(seq, m, emb, ChannelConfig(1.0, 1.0, seed=1))
        assert np.array_equal(out, seq)

    def test_neighbor_pools_same_cluster_and_no_self(self, env):
        _, _, emb, map_ = env
        pools = same_cluster_neighbors(map_, emb, 5)
        for tok in range(0, 200, 17):
            pool = pools[tok]
            assert tok not in pool
            assert len(pool) == 5
            assert all(map_.cluster_of(int(p)) == map_.cluster_of(tok)
                       for p in pool)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown channel preset"):
            channel_preset("bogus")

    def test_deterministic_given_seed(self, env, rng):
        _, _, emb, map_ = env
        seq = rng.integers(0, 200, 400)
        ch = ChannelConfig(0.4, 0.5, seed=11)
        assert np.array_equal(apply_channel(seq, map_, emb, ch),
                              apply_channel(seq, map_, emb, ch))


class TestChannelDetectInteraction:
    def test_same_cluster_channel_leaves_scores_unchanged(self, env):
        _, model, emb, map_ = env
        ses = GenerationSession(
            key=KEY, config=ReweightConfig("aligned_is", h=10), ngram_n=2,
            cluster_map=map_, rng_seed=8,
        )
        seq = generate(model, [5, 6], 300, ses)
        out = apply_channel(seq, map_, emb, ChannelConfig(1.0, 1.0, seed=9))
        rep_a = detect_aligned(seq, KEY, map_, 2, 0.01)
        rep_b = detect_aligned(out, KEY, map_, 2, 0.01)
        assert rep_a.score == rep_b.score
        assert [s for _, _, s in rep_a.trace] == [s for _, _, s in rep_b.trace]

    def test_expected_score_composition(self, env):
        # per-step mean under the channel decomposes by context/target
        # survival; the derived form, unlike a context-free shortcut, matches
        _, model, emb, map_ = env
        ch = channel_preset("longform_qa", seed=3)
        c = ch.p_tok * (1 - ch.q_same)  # cluster mismatch rate
        ngram = 2

        clean_scores = []
        chan_scores = []
        own_masses = []
        for trial in range(30):
            ses = GenerationSession(
                key=KEY, config=ReweightConfig("aligned_is", h=10),
                ngram_n=ngram, cluster_map=map_, rng_seed=100 + trial,
            )
            seq = generate(model, [1, 2], 200, ses)
            out = apply_channel(seq, map_, emb,
                                ChannelConfig(ch.p_tok, ch.q_same, seed=trial))
            clean = detect_aligned(seq, KEY, map_, ngram, 0.01)
            chan = detect_aligned(out, KEY, map_, ngram, 0.01)
            clean_scores.append(clean.score / clean.steps_scored)
            chan_scores.append(chan.score / chan.steps_scored)

        s_clean = float(np.mean(clean_scores))
        s_chan = float(np.mean(chan_scores))
        ctx_survive = (1 - c) ** ngram
        predicted = ctx_survive * ((1 - c) * s_clean + c * 0.1) + (
            1 - ctx_survive
        ) * 0.1
        assert s_chan == pytest.approx(predicted, abs=0.03)


class TestAttacks:
    def test_substitute_identity_and_full(self, rng):
        seq = rng.integers(0, 100, 4000)
        assert np.array_equal(attack_substitute(seq, 0.0, 100, seed=1), seq)
        out = attack_substitute(seq, 1.0, 100, seed=1)
        mismatch = float(np.mean(out != seq))
        assert mismatch == pytest.approx(1 - 1 / 100, abs=0.02)

    def test_crop(self, rng):
        seq = rng.integers(0, 10, 20)
        assert np.array_equal(attack_crop(seq, 0, 0, 10), seq)
        out = attack_crop(seq, 3, 4, 10)
        assert np.array_equal(out, seq[3:16])
        with pytest.raises(ValueError, match="at least 2"):
            attack_crop(seq, 10, 9, 10)

    def test_insert_delete(self, rng):
        seq = rng.integers(0, 10, 50)
        assert np.array_equal(attack_insert_delete(seq, 0.0, 0.0, 10, seed=2), seq)
        with pytest.raises(ValueError, match="every token"):
            attack_insert_delete(seq, 0.0, 1.0, 10, seed=2)
        out = attack_insert_delete(seq, 0.5, 0.0, 10, seed=2)
        assert out.size > seq.size

    def test_rate_validation(self, rng):
        seq = rng.integers(0, 10, 5)
        with pytest.raises(ValueError):
            attack_substitute(seq, 1.5, 10)
        with pytest.raises(ValueError):
            attack_insert_delete(seq, -0.1, 0.0, 10)


class TestTokenValidation:
    @pytest.mark.parametrize("bad", [-3, 700])
    @pytest.mark.parametrize("op", [
        lambda toks, m, emb: apply_channel(toks, m, emb, channel_preset("longform_qa")),
        lambda toks, m, emb: attack_substitute(toks, 0.3, 500, seed=1),
        lambda toks, m, emb: attack_insert_delete(toks, 0.05, 0.05, 500, seed=1),
    ], ids=["channel", "substitute", "insert_delete"])
    def test_rejects_ids_outside_vocabulary(self, op, bad):
        # before validation, -3 and 700 passed through unchanged, and 700
        # made the channel raise a bare IndexError
        emb = np.zeros((500, 2))
        with pytest.raises(ValueError, match="outside the vocabulary"):
            op([1, 2, bad, 4, 5] * 20, balanced_cluster_map(500, 20), emb)

    @pytest.mark.parametrize("bad", [-3, 500])
    def test_crop_rejects_ids_outside_vocabulary(self, bad):
        # crop used to return both ids unchanged, for the detector to reject
        with pytest.raises(ValueError, match="outside the vocabulary"):
            attack_crop([1, 2, bad, 4, 5] * 20, 1, 1, 500)
