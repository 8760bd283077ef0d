"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the full module takes several minutes because criteria 5 and 10 run the
production-sized Monte-Carlo sweeps.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

from clustermark.clustering import ClusterMap, mismatch_rates
from clustermark.detect import (
    detect_aligned,
    detect_dipmark,
    detect_its,
    exact_binomial_pvalue,
    hoeffding_pvalue,
    hoeffding_threshold,
)
from clustermark.experiments import (
    _derive_seed,
    _pooled_chisquare,
    default_config,
    fit_environment,
    run_ablation_h,
    run_detectability,
    run_robustness,
    MethodSpec,
)
from clustermark.generate import GenerationSession, generate
from clustermark.reweight import (
    ReweightConfig,
    aligned_marginal,
    aligned_sample,
    aligned_score,
    build_segment_table,
    cluster_probs,
)
from clustermark.simenv import (
    CHANNEL_PRESETS,
    ChannelConfig,
    apply_channel,
    channel_preset,
    same_cluster_neighbors,
)

KEY = b"acceptance-suite-key"


@pytest.fixture(scope="module")
def env():
    cfg = default_config(trials=1, key=KEY)
    model, emb, map_ = fit_environment(cfg)
    return cfg, model, emb, map_


def _report(num, desc, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} PASS - {desc}{suffix}")


def test_criterion_01_distortion_freeness():
    """Exact integration of aligned sampling over r reproduces the model
    distribution to TV < 1e-12 on 100 random (distribution, map) pairs."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(1001)
    n_vocab, h = 500, 20
    worst = 0.0
    for trial in range(100):
        assignment = gen.integers(0, h, n_vocab)
        assignment[:h] = np.arange(h)
        map_ = ClusterMap(h=h, assignment=assignment,
                          centroids=np.zeros((h, 2)))
        beta = float(gen.uniform(0.02, 1.0))
        dist = gen.dirichlet(np.full(n_vocab, beta))
        tv = 0.5 * float(np.abs(aligned_marginal(dist, map_) - dist).sum())
        worst = max(worst, tv)
        assert tv < 1e-12, f"pair {trial}: TV={tv}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"distortion-freeness: worst TV {worst:.2e} < 1e-12 on 100 pairs",
            elapsed)


def test_criterion_02_null_calibration(env):
    """Null scores over 10^4 unwatermarked sequences follow
    Binomial(500, 1/20) (chi-square at 1%), and the empirical FPR at the
    Hoeffding threshold stays within its guarantee."""
    t0 = time.perf_counter()
    _, _, _, map_ = env
    sizes = np.bincount(map_.assignment, minlength=20)
    assert np.all(sizes == 25)  # balanced clusters -> exactly binomial null

    z = hoeffding_threshold(500, 0.05, 0.01)
    assert z == pytest.approx(58.93, abs=0.01)

    gen = np.random.default_rng(1002)
    n_seqs, t = 10_000, 500
    scores = np.empty(n_seqs, dtype=np.int64)
    for i in range(n_seqs):
        seq = gen.integers(0, 500, t + 1)
        rep = detect_aligned(seq, KEY, map_, ngram_n=1, fpr=0.01)
        assert rep.steps_scored == t
        scores[i] = int(rep.score)

    counts = np.bincount(scores, minlength=t + 1).astype(float)
    expected = binom.pmf(np.arange(t + 1), t, 0.05) * n_seqs
    stat, dof, p = _pooled_chisquare(counts, expected)
    assert p > 0.01, f"chi-square GOF p={p}"

    fpr = float(np.mean(scores > z))
    bound = 0.01 + 3 * math.sqrt(0.01 * 0.99 / n_seqs)
    assert fpr <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"null calibration: GOF p={p:.3f}, FPR@z={fpr:.4f} <= {bound:.4f}",
            elapsed)


def test_criterion_03_power_formula(env):
    """Monte-Carlo mean per-step score of watermarked sampling matches
    sum_i min(Pr(c_i), 1/h) within 3 standard errors on 20 distributions."""
    t0 = time.perf_counter()
    _, _, _, map_ = env
    gen = np.random.default_rng(1003)
    draws = 5_000
    for trial in range(20):
        beta = float(gen.uniform(0.01, 0.5))
        dist = gen.dirichlet(np.full(500, beta))
        table = build_segment_table(cluster_probs(dist, map_))
        exact = table.own_mass_total
        hits = 0
        for _ in range(draws):
            r = gen.random()
            tok = aligned_sample(table, dist, map_, r, gen)
            hits += aligned_score(r, tok, map_)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / draws)
        assert abs(hits / draws - exact) <= 3 * se, (
            f"dist {trial}: mc={hits / draws:.4f} exact={exact:.4f} se={se:.4f}"
        )
    _report(3, "per-step power formula matches MC within 3 SE on 20 dists",
            time.perf_counter() - t0)


def test_criterion_04_mismatch_calibration(env):
    """Channel presets hit the measured mismatch-rate pairs; clustering cuts
    the rate by at least 35% on every preset."""
    t0 = time.perf_counter()
    _, _, emb, map_ = env
    gen = np.random.default_rng(1004)
    n = 100_000
    seq = gen.integers(0, 500, n)
    neighbors = same_cluster_neighbors(map_, emb, 5)
    for preset, (tok_target, clu_target) in CHANNEL_PRESETS.items():
        ch = channel_preset(preset, seed=17)
        out = apply_channel(seq, map_, emb, ch, neighbors)
        rep = mismatch_rates(seq, out, map_)
        if preset == "longform_qa":
            se_tok = math.sqrt(tok_target * (1 - tok_target) / n)
            se_clu = math.sqrt(clu_target * (1 - clu_target) / n)
            assert abs(rep.token_rate - tok_target) < 3 * se_tok
            assert abs(rep.cluster_rate - clu_target) < 3 * se_clu
        assert rep.reduction >= 0.35, f"{preset}: reduction {rep.reduction:.3f}"
    _report(4, "all six channel presets calibrated; reduction >= 35% each",
            time.perf_counter() - t0)


def test_criterion_05_method_ordering(env):
    """Under each calibrated channel preset (t=500, h=20, 500 trials) the
    cluster-aligned watermark's TPR@1%FPR strictly exceeds the simplified
    position-score sampler and DiPmark(0.4)."""
    t0 = time.perf_counter()
    cfg, model, emb, map_ = env
    trials, seq_len, n_vocab, fpr = 500, 500, 500, 0.01
    neighbors = same_cluster_neighbors(map_, emb, 5)
    methods = {
        "aligned": MethodSpec(ReweightConfig("aligned_is", h=20), ngram_n=3),
        "its": MethodSpec(ReweightConfig("its"), ngram_n=1),
        "dipmark": MethodSpec(ReweightConfig("dipmark", alpha=0.4), ngram_n=1),
    }

    # generation is channel-independent: one corpus per method, reused
    # across all six presets
    corpora = {}
    for mi, (name, m) in enumerate(methods.items()):
        seqs = []
        for trial in range(trials):
            prng = np.random.default_rng(_derive_seed(9001, 0, mi, trial))
            prompt = prng.integers(0, n_vocab, 5)
            ses = GenerationSession(
                key=KEY, config=m.config, ngram_n=m.ngram_n,
                cluster_map=map_ if name == "aligned" else None,
                rng_seed=_derive_seed(9001, 1, mi, trial),
            )
            seqs.append(np.asarray(generate(model, prompt, seq_len, ses)))
        corpora[name] = seqs

    summary = []
    for preset in CHANNEL_PRESETS:
        tpr = {}
        for mi, (name, m) in enumerate(methods.items()):
            hits = 0
            for trial in range(trials):
                ch = channel_preset(preset,
                                    seed=_derive_seed(9001, 2, mi, trial))
                seq = apply_channel(corpora[name][trial], map_, emb, ch,
                                    neighbors)
                if name == "aligned":
                    rep = detect_aligned(seq, KEY, map_, m.ngram_n, fpr)
                    hits += rep.score > binom.isf(fpr, rep.steps_scored, 0.05)
                elif name == "dipmark":
                    rep = detect_dipmark(seq, KEY, n_vocab, 0.4, m.ngram_n, fpr)
                    hits += rep.score > binom.isf(fpr, rep.steps_scored, 0.6)
                else:
                    rep = detect_its(seq, KEY, n_vocab, m.ngram_n, fpr)
                    hits += rep.score > rep.null.tight(fpr)
            tpr[name] = hits / trials
        assert tpr["aligned"] > tpr["its"], (preset, tpr)
        assert tpr["aligned"] > tpr["dipmark"], (preset, tpr)
        summary.append(
            f"{preset}: aligned={tpr['aligned']:.3f} > its={tpr['its']:.3f}"
            f", dipmark={tpr['dipmark']:.3f}"
        )
    _report(5, "method ordering on all presets | " + " | ".join(summary),
            time.perf_counter() - t0)


def test_criterion_06_same_cluster_invariance(env):
    """Replacing every token with a random same-cluster token leaves the
    detection score bit-identical, over 100 trials."""
    t0 = time.perf_counter()
    _, model, emb, map_ = env
    for trial in range(100):
        ses = GenerationSession(
            key=KEY + trial.to_bytes(2, "big"),
            config=ReweightConfig("aligned_is", h=20), ngram_n=3,
            cluster_map=map_, rng_seed=trial,
        )
        prompt = np.random.default_rng(trial).integers(0, 500, 5)
        seq = generate(model, prompt, 300, ses)
        mutated = apply_channel(seq, map_, emb,
                                ChannelConfig(1.0, 1.0, seed=trial))
        assert np.all(np.asarray(seq) != mutated)  # every position replaced
        a = detect_aligned(seq, ses.key, map_, 3, 0.01)
        b = detect_aligned(mutated, ses.key, map_, 3, 0.01)
        assert a.score == b.score
        assert [s for _, _, s in a.trace] == [s for _, _, s in b.trace]
    _report(6, "same-cluster substitution leaves scores bit-identical (100 trials)",
            time.perf_counter() - t0)


def test_criterion_07_tail_arithmetic():
    """Hoeffding arithmetic and the exact binomial tail against an
    arbitrary-precision oracle."""
    t0 = time.perf_counter()
    assert hoeffding_pvalue(80, 500, 0.05) == pytest.approx(
        math.exp(-12.1), rel=1e-12
    )
    for t, rate, fpr in [(500, 0.05, 0.01), (500, 0.05, 0.001),
                         (200, 0.6, 0.01), (1000, 0.05, 0.0001),
                         (50, 0.5, 0.05)]:
        z = hoeffding_threshold(t, rate, fpr)
        assert hoeffding_pvalue(z, t, rate) == pytest.approx(fpr, rel=1e-12)

    mpmath.mp.dps = 50
    gen = np.random.default_rng(1007)
    cases = []
    for t in (10, 40, 160, 500, 1500):
        for _ in range(9):
            p = float(gen.uniform(0.02, 0.9))
            s = int(gen.integers(1, t + 1))
            cases.append((s, t, p))
    cases += [(99_930, 100_000, 0.95), (10_450, 100_000, 0.1),
              (5_100, 100_000, 0.05), (59, 500, 0.05), (500, 500, 0.05)]
    assert len(cases) == 50
    for s, t, p in cases:
        mp_p = mpmath.mpf(p)
        oracle = sum(
            mpmath.binomial(t, k) * mp_p**k * (1 - mp_p) ** (t - k)
            for k in range(s, t + 1)
        )
        assert exact_binomial_pvalue(s, t, p) == pytest.approx(
            float(oracle), rel=1e-9
        ), (s, t, p)
    _report(7, "Hoeffding arithmetic exact; binomial tail matches "
               "50-point arbitrary-precision oracle at rel 1e-9",
            time.perf_counter() - t0)


def test_criterion_08_cluster_count_ablation():
    """TPR@1% under the closed-form (Hoeffding) threshold rises from h=5 and
    falls again by the largest h: the cluster count sweep is not monotone."""
    t0 = time.perf_counter()
    cfg = default_config(
        key=KEY, channel=channel_preset("longform_qa"), trials=200,
        seq_len=500, h_grid=(5, 10, 20, 40, 80), seed=9008,
    )
    table = run_ablation_h(cfg, threads=2)
    rows = sorted(table.rows, key=lambda r: r["h"])
    curve = [r["tpr_hoeffding_at_fpr"]["0.01"] for r in rows]
    hs = [r["h"] for r in rows]
    peak = max(curve)
    assert curve[0] <= peak - 0.1, (hs, curve)     # rises from h=5
    assert curve[-1] <= peak - 0.1, (hs, curve)    # falls by the largest h
    rises = any(b > a for a, b in zip(curve, curve[1:]))
    falls = any(b < a for a, b in zip(curve, curve[1:]))
    assert rises and falls                          # not monotone
    _report(8, "cluster-count sweep " +
            ", ".join(f"h={h}:{v:.2f}" for h, v in zip(hs, curve)),
            time.perf_counter() - t0)


def test_criterion_09_crop_monotonicity():
    """TPR@1% is monotone non-decreasing in the retained token count."""
    t0 = time.perf_counter()
    cfg = default_config(
        key=KEY, channel=channel_preset("longform_qa"), trials=400,
        seq_len=500, seed=9009,
        methods=[MethodSpec(ReweightConfig("aligned_is", h=20), ngram_n=3)],
        substitution_rates=(), insert_delete_rates=(),
        crop_lengths=(50, 100, 200, 300, 400, 500),
    )
    table = run_robustness(cfg, threads=2)
    crop_rows = sorted(
        (r for r in table.rows if r["attack"] == "crop"),
        key=lambda r: r["param"],
    )
    lengths = [r["param"] for r in crop_rows]
    curve = [r["tpr_at_fpr"]["0.01"] for r in crop_rows]
    assert lengths == [50, 100, 200, 300, 400, 500]
    for a, b in zip(curve, curve[1:]):
        assert b >= a, (lengths, curve)
    assert curve[-1] > curve[0]
    _report(9, "crop study " +
            ", ".join(f"L={l}:{v:.2f}" for l, v in zip(lengths, curve)),
            time.perf_counter() - t0)


def test_criterion_10_performance(env):
    """The full six-method detectability sweep (500 trials, t=500) finishes
    within five minutes, and the per-step aligned-sampling overhead scales
    like O(N + h log h)."""
    cfg = default_config(key=KEY, channel=channel_preset("longform_qa"),
                         trials=500, seq_len=500, seed=9010)
    assert len(cfg.methods) == 6
    t0 = time.perf_counter()
    table = run_detectability(cfg, threads=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s"
    assert len(table.rows) == 6

    def overhead(n_vocab, h, steps=600):
        gen = np.random.default_rng(0)
        assignment = np.arange(n_vocab) % h
        map_ = ClusterMap(h=h, assignment=assignment,
                          centroids=np.zeros((h, 2)))
        dists = [gen.dirichlet(np.full(n_vocab, 0.2)) for _ in range(20)]
        start = time.perf_counter()
        for i in range(steps):
            dist = dists[i % 20]
            table = build_segment_table(cluster_probs(dist, map_))
            aligned_sample(table, dist, map_, gen.random(), gen)
        return (time.perf_counter() - start) / steps

    base = overhead(500, 20)
    big_n = overhead(4000, 20)   # 8x tokens
    big_h = overhead(500, 320)   # 16x clusters
    assert big_n / base < 16.0, (base, big_n)
    assert big_h / base < 16.0, (base, big_h)
    _report(10, f"6-method sweep in {elapsed:.0f}s < 300s; per-step overhead "
                f"{base * 1e6:.0f}us -> N x8: {big_n / base:.1f}x, "
                f"h x16: {big_h / base:.1f}x", elapsed)
