import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from clustermark.experiments import (
    ExperimentConfig,
    MethodSpec,
    _derive_seed,
    _pooled_chisquare,
    attack_grid,
    default_config,
    default_methods,
    fit_environment,
    read_tokens,
    run_ablation_h,
    run_detectability,
    run_distortion_audit,
    run_robustness,
    write_tokens,
)
from clustermark.reweight import ReweightConfig
from clustermark.simenv import SyntheticModelConfig, channel_preset


def tiny_config(**overrides):
    base = dict(
        model=SyntheticModelConfig(n_vocab=80, dim=10, true_clusters=8,
                                   separation=12.0, dirichlet_beta=0.4, seed=5),
        cluster_h=8,
        methods=[
            MethodSpec(ReweightConfig("aligned_is", h=8), ngram_n=2),
            MethodSpec(ReweightConfig("kgw", delta=2.0, gamma=0.5), ngram_n=1),
        ],
        channel=channel_preset("dolly_cw"),
        trials=3,
        seq_len=60,
        fpr_grid=(0.01, 0.001),
        seed=99,
        its_null_sims=500,
        h_grid=(2, 4, 8),
        substitution_rates=(0.5,),
        crop_lengths=(30, 60),
        insert_delete_rates=(0.1,),
        audit_contexts=10,
        audit_keys=1500,
        audit_reweight_codes=1500,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def load_schema():
    ref = resources.files("clustermark") / "schemas" / "result_table.schema.json"
    return json.loads(ref.read_text())


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_from_dict_channel_forms(self):
        cfg = ExperimentConfig.from_dict({"channel": "longform_qa"})
        assert cfg.channel.p_tok == pytest.approx(0.3757)
        cfg = ExperimentConfig.from_dict(
            {"channel": {"preset": "mmw_story", "seed": 4}}
        )
        assert cfg.channel.seed == 4
        cfg = ExperimentConfig.from_dict(
            {"channel": {"p_tok": 0.2, "q_same": 0.5}}
        )
        assert cfg.channel.q_same == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(trials=0)
        with pytest.raises(ValueError):
            tiny_config(seq_len=1)
        with pytest.raises(ValueError):
            tiny_config(fpr_grid=(0.0,))
        with pytest.raises(ValueError):
            tiny_config(key=b"")

    def test_default_methods_cover_six_strategies(self):
        labels = {m.config.strategy for m in default_methods()}
        assert labels == {"aligned_is", "its", "dipmark", "gamma_reweight",
                          "kgw", "unigram"}

    def test_derive_seed_deterministic_and_distinct(self):
        a = _derive_seed(7, 1, 2, 3)
        assert a == _derive_seed(7, 1, 2, 3)
        assert a != _derive_seed(7, 1, 2, 4)
        assert a != _derive_seed(8, 1, 2, 3)


class TestDetectability:
    def test_rows_and_reproducibility(self):
        cfg = tiny_config()
        t1 = run_detectability(cfg)
        t2 = run_detectability(cfg)
        assert t1.to_json_dict() == t2.to_json_dict()
        assert len(t1.rows) == 2
        for row in t1.rows:
            assert set(row["tpr_at_fpr"]) == {"0.01", "0.001"}
            assert 0.0 <= row["median_p"] <= 1.0

    def test_threads_match_serial(self):
        cfg = tiny_config()
        serial = run_detectability(cfg, threads=1)
        parallel = run_detectability(cfg, threads=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    @pytest.mark.parametrize("run", [run_robustness, run_ablation_h],
                             ids=["robustness", "ablation_h"])
    def test_other_sweeps_threads_match_serial(self, run):
        cfg = tiny_config()
        serial = run(cfg, threads=1)
        parallel = run(cfg, threads=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_json_validates_against_shipped_schema(self, tmp_path):
        cfg = tiny_config()
        table = run_detectability(cfg)
        path = tmp_path / "det.json"
        table.write_json(path)
        jsonschema.validate(json.loads(path.read_text()), load_schema())

    def test_csv_columns_stable(self, tmp_path):
        cfg = tiny_config()
        table = run_detectability(cfg)
        path = tmp_path / "det.csv"
        table.write_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["method", "params"]
        assert "tpr_at_fpr_0.01" in header
        assert "tpr_hoeffding_at_fpr_0.01" in header
        assert "fpr_measured_0.01" in header


class TestRobustness:
    def test_identity_attack_equals_detectability(self):
        cfg = tiny_config()
        det = run_detectability(cfg)
        rob = run_robustness(cfg)
        det_by_method = {r["method"]: r for r in det.rows}
        for row in rob.rows:
            if row["attack"] == "none":
                assert row["tpr_at_fpr"] == det_by_method[row["method"]]["tpr_at_fpr"]

    def test_attack_grid_contents(self):
        cfg = tiny_config()
        grid = attack_grid(cfg)
        assert ("none", "") in grid
        assert ("substitute", 0.5) in grid
        assert ("crop", 30) in grid
        assert ("insert_delete", 0.1) in grid

    def test_schema(self, tmp_path):
        cfg = tiny_config()
        table = run_robustness(cfg)
        path = tmp_path / "rob.json"
        table.write_json(path)
        jsonschema.validate(json.loads(path.read_text()), load_schema())


class TestAblation:
    def test_rows_per_h(self, tmp_path):
        cfg = tiny_config()
        table = run_ablation_h(cfg)
        assert [r["h"] for r in sorted(table.rows, key=lambda r: r["h"])] == [2, 4, 8]
        jsonschema.validate(table.to_json_dict(), load_schema())


class TestDistortionAudit:
    def test_audit_passes_on_defaults(self):
        cfg = tiny_config()
        report = run_distortion_audit(cfg)
        assert report["aligned_max_tv"] < 1e-12
        assert report["its_max_tv"] < 1e-12
        assert report["dipmark_exact_avg_tv"] < 1e-12
        assert report["generator_chisq_p"] > 0.01
        assert report["kgw_flagged_biased"]
        assert report["unigram_flagged_biased"]
        assert report["audit_pass"]


class TestPooledChisquare:
    def test_uniform_counts_pass(self, rng):
        expected = np.full(20, 500.0)
        counts = rng.multinomial(10_000, np.full(20, 0.05)).astype(float)
        _, _, p = _pooled_chisquare(counts, expected)
        assert p > 0.001

    def test_skewed_counts_fail(self):
        expected = np.full(10, 100.0)
        counts = np.array([500, 500] + [0] * 8, dtype=float)
        _, _, p = _pooled_chisquare(counts, expected)
        assert p < 1e-10

    def test_small_expectations_pooled(self):
        expected = np.array([0.5] * 10 + [100.0] * 3)
        counts = np.array([1] * 10 + [98, 102, 100], dtype=float)
        stat, dof, p = _pooled_chisquare(counts, expected)
        assert dof <= 4
        assert p > 0.01


class TestTokensIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "toks.txt"
        write_tokens([5, 0, 19], path)
        assert read_tokens(path).tolist() == [5, 0, 19]

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nxyz\n")
        with pytest.raises(ValueError, match="one integer per line"):
            read_tokens(path)


class TestEnvironment:
    def test_default_environment_recovers_balanced_clusters(self):
        cfg = default_config(trials=1)
        model, emb, map_ = fit_environment(cfg)
        sizes = np.bincount(map_.assignment, minlength=map_.h)
        assert np.all(sizes == cfg.model.n_vocab // cfg.cluster_h)
        for c in range(map_.h):
            members = map_.cluster_members[c]
            assert len(set(model.component_labels[members])) == 1

    def test_embedding_file_input(self, tmp_path, rng):
        from clustermark.clustering import save_embeddings_binary

        cfg = tiny_config()
        emb = rng.normal(size=(80, 10))
        path = tmp_path / "emb.bin"
        save_embeddings_binary(emb, path)
        cfg2 = tiny_config(embedding_file=str(path))
        _, loaded, _ = fit_environment(cfg2)
        assert np.allclose(loaded, emb.astype(np.float32), atol=1e-6)
