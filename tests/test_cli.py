import json

import numpy as np
import pytest

from clustermark.cli import main
from clustermark.experiments import read_tokens


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = {
        "model": {"n_vocab": 80, "dim": 10, "true_clusters": 8,
                  "separation": 12.0, "dirichlet_beta": 0.4, "seed": 5},
        "cluster": {"h": 8, "seed": 3},
        "key": "cli-test-key",
        "methods": [{"strategy": "aligned_is", "h": 8, "ngram_n": 2}],
        "channel": None,
        "trials": 3,
        "seq_len": 60,
        "fpr_grid": [0.01],
        "seed": 7,
        "its_null_sims": 400,
        "h_grid": [4, 8],
        "audit_contexts": 10,
        "audit_keys": 1500,
        "audit_reweight_codes": 1500,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestClusterCommand:
    def test_writes_map_and_reruns_identically(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(tiny_config_path),
                     "--out", str(out)]) == 0
        first = (out / "cluster_map.json").read_bytes()
        assert main(["cluster", "--config", str(tiny_config_path),
                     "--out", str(out)]) == 0
        assert (out / "cluster_map.json").read_bytes() == first
        text = capsys.readouterr().out
        assert "inertia" in text and "cluster sizes" in text

    def test_h_above_vocab_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cluster": {"h": 9999}}))
        assert main(["cluster", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["cluster", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 3

    def test_invalid_json_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["cluster", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("cfg, named", [
        ({"methods": [{"strategy": "kgw", "delta": 2.0, "gamma": 0.5, "foo": 1}]}, "'foo'"),
        ({"model": {"n_vocab": 80, "vocab": 3}}, "'vocab'"),
        ({"channel": {"p_tok": 0.2, "q": 0.5}}, "'q'"),
        ({"fpr_grid": 0.01}, "fpr_grid"),
        ([], "JSON object"),
        ({"trails": 3}, "'trails'"),
        ({"cluster": {"hh": 4}}, "'hh'"),
        ({"key": None}, "key must be a string"),
    ])
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["cluster", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "cluster_map.json").exists()


class TestGenerateDetect:
    def test_round_trip_verdict(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        toks = tmp_path / "toks.txt"
        assert main(["cluster", "--config", str(tiny_config_path),
                     "--out", str(out)]) == 0
        assert main(["generate", "--config", str(tiny_config_path),
                     "--out", str(out), "--length", "400",
                     "--tokens-out", str(toks)]) == 0
        assert read_tokens(toks).size == 400
        capsys.readouterr()
        assert main(["detect", "--config", str(tiny_config_path),
                     "--tokens", str(toks),
                     "--map", str(out / "cluster_map.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True
        assert report["strategy"] == "aligned_is"
        assert report["p_exact"] < 1e-4

    def test_detect_random_tokens_negative(self, tiny_config_path, tmp_path, capsys):
        toks = tmp_path / "rand.txt"
        rng = np.random.default_rng(0)
        toks.write_text("\n".join(str(t) for t in rng.integers(0, 80, 400)))
        assert main(["detect", "--config", str(tiny_config_path),
                     "--tokens", str(toks)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False

    def test_empty_key_flag_is_usage_error(self, tiny_config_path, tmp_path):
        assert main(["generate", "--config", str(tiny_config_path),
                     "--out", str(tmp_path), "--key", ""]) == 2

    def test_out_of_vocab_token_is_usage_error(self, tiny_config_path, tmp_path, capsys):
        toks = tmp_path / "bad.txt"
        toks.write_text("1\n2\n3\n700\n5\n")
        assert main(["detect", "--config", str(tiny_config_path),
                     "--tokens", str(toks)]) == 2
        assert "outside the vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value, tokens", [
        ("model", "n_vocab", 120, [3, 100, 110, 115, 7, 9]),
        ("cluster", "h", 6, [3, 10, 11, 15, 7, 9]),
    ], ids=["n_vocab", "h"])
    def test_map_mismatching_config_is_usage_error(self, tiny_config_path, tmp_path,
                                                   capsys, section, field, value, tokens):
        # a map fitted for another vocabulary scores ids the config's model
        # never emits; one with another h judges against the wrong null rate
        other = json.loads(tiny_config_path.read_text())
        other[section][field] = value
        if field == "h":
            other["methods"][0]["h"] = value
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        out = tmp_path / "other"
        assert main(["cluster", "--config", str(other_path), "--out", str(out)]) == 0
        toks = tmp_path / "toks.txt"
        toks.write_text("\n".join(map(str, tokens)))
        capsys.readouterr()
        assert main(["detect", "--config", str(tiny_config_path), "--tokens", str(toks),
                     "--map", str(out / "cluster_map.json")]) == 2
        assert "cluster map has" in capsys.readouterr().err

    def test_missing_tokens_file_is_io_error(self, tiny_config_path, tmp_path):
        assert main(["detect", "--config", str(tiny_config_path),
                     "--tokens", str(tmp_path / "nope.txt")]) == 3


class TestSweepCommands:
    def test_detectability_writes_both_formats(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run-detectability", "--config", str(tiny_config_path),
                     "--out", str(out)]) == 0
        assert (out / "detectability.json").exists()
        assert (out / "detectability.csv").exists()
        payload = json.loads((out / "detectability.json").read_text())
        assert payload["command"] == "run-detectability"
        assert len(payload["rows"]) == 1

    def test_format_flag_restricts_outputs(self, tiny_config_path, tmp_path):
        out = tmp_path / "csv_only"
        assert main(["run-detectability", "--config", str(tiny_config_path),
                     "--out", str(out), "--format", "csv"]) == 0
        assert (out / "detectability.csv").exists()
        assert not (out / "detectability.json").exists()

    def test_rerun_is_bit_identical(self, tiny_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run-detectability", "--config", str(tiny_config_path),
              "--out", str(out1), "--format", "csv"])
        main(["run-detectability", "--config", str(tiny_config_path),
              "--out", str(out2), "--format", "csv"])
        assert (out1 / "detectability.csv").read_bytes() == \
            (out2 / "detectability.csv").read_bytes()

    def test_seed_override_changes_results(self, tiny_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run-detectability", "--config", str(tiny_config_path),
              "--out", str(out1), "--format", "json"])
        main(["run-detectability", "--config", str(tiny_config_path),
              "--out", str(out2), "--format", "json", "--seed", "123456"])
        a = json.loads((out1 / "detectability.json").read_text())
        b = json.loads((out2 / "detectability.json").read_text())
        assert a["config"]["seed"] != b["config"]["seed"]

    def test_robustness_and_ablation_run(self, tiny_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run-robustness", "--config", str(tiny_config_path),
                     "--out", str(out), "--format", "json"]) == 0
        assert main(["ablate-h", "--config", str(tiny_config_path),
                     "--out", str(out), "--format", "json"]) == 0
        rob = json.loads((out / "robustness.json").read_text())
        abl = json.loads((out / "ablation_h.json").read_text())
        assert any(r["attack"] == "crop" for r in rob["rows"])
        assert sorted(r["h"] for r in abl["rows"]) == [4, 8]

    def test_audit_distortion(self, tiny_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["audit-distortion", "--config", str(tiny_config_path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "distortion_audit.json").read_text())
        assert report["audit_pass"] is True
