import json

import numpy as np
import pytest

from clustermark.clustering import (
    ClusterMap,
    ClusterMapFormatError,
    _lloyd_iterations,
    inertia,
    kmeans_fit,
    load_cluster_map,
    load_embeddings,
    mismatch_rates,
    save_cluster_map,
    save_embeddings_binary,
)
from clustermark.simenv import SyntheticModelConfig, build_synthetic_model

from conftest import balanced_cluster_map


def blobs(rng, centers, per_blob=40, spread=0.05):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(np.asarray(c) + rng.normal(0, spread, (per_blob, len(c))))
        labels += [i] * per_blob
    return np.vstack(pts), np.asarray(labels)


class TestKmeansFit:
    def test_two_separated_blobs_recovered_exactly(self, rng):
        emb, truth = blobs(rng, [(0.0, 0.0), (10.0, 10.0)])
        m = kmeans_fit(emb, 2, seed=1)
        # same partition up to label swap
        groups = [set(np.flatnonzero(m.assignment == c)) for c in range(2)]
        expected = [set(np.flatnonzero(truth == i)) for i in range(2)]
        assert groups in (expected, expected[::-1])

    def test_h1_centroid_is_mean(self, rng):
        emb = rng.normal(size=(30, 3))
        m = kmeans_fit(emb, 1, seed=0)
        assert np.all(m.assignment == 0)
        assert np.allclose(m.centroids[0], emb.mean(axis=0))

    def test_inertia_non_increasing(self, rng):
        # oracle: independent sum-of-squares recomputation per snapshot
        emb = rng.normal(size=(200, 5))
        values = []
        for labels, centroids in _lloyd_iterations(emb, 7, seed=3,
                                                   max_iters=50, tol=1e-9):
            diffs = emb - centroids[labels]
            values.append(float((diffs * diffs).sum()))
        assert len(values) > 2
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_deterministic_for_fixed_seed(self, rng):
        emb = rng.normal(size=(80, 4))
        a = kmeans_fit(emb, 5, seed=11)
        b = kmeans_fit(emb, 5, seed=11)
        assert a == b

    def test_rejects_h_above_n(self, rng):
        with pytest.raises(ValueError, match="at least"):
            kmeans_fit(rng.normal(size=(4, 2)), 5)

    def test_rejects_non_finite(self):
        emb = np.array([[0.0, np.inf], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            kmeans_fit(emb, 1)

    def test_rejects_bad_tol_and_iters(self, rng):
        emb = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            kmeans_fit(emb, 2, tol=0.0)
        with pytest.raises(ValueError):
            kmeans_fit(emb, 2, max_iters=0)

    def test_no_empty_clusters_even_with_duplicates(self):
        emb = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0]]), 10, axis=0)
        m = kmeans_fit(emb, 3, seed=0)
        assert all(len(members) > 0 for members in m.cluster_members)

    def test_mixture_recovery_at_high_separation(self):
        # separation >= 10x component spread recovers the partition exactly
        cfg = SyntheticModelConfig(n_vocab=300, dim=16, true_clusters=12,
                                   separation=15.0, seed=5)
        model, emb = build_synthetic_model(cfg)
        m = kmeans_fit(emb, 12, seed=2)
        for c in range(12):
            members = m.cluster_members[c]
            assert len(set(model.component_labels[members])) == 1


class TestMismatchRates:
    def test_identical_sequences(self):
        m = balanced_cluster_map(10, 2)
        rep = mismatch_rates([1, 2, 3], [1, 2, 3], m)
        assert rep.token_rate == 0.0 and rep.cluster_rate == 0.0
        assert rep.reduction == 0.0

    def test_same_cluster_every_position(self):
        m = balanced_cluster_map(10, 2)  # clusters: evens vs odds
        rep = mismatch_rates([0, 2, 4], [2, 4, 6], m)
        assert rep.token_rate == 1.0 and rep.cluster_rate == 0.0
        assert rep.reduction == 1.0

    def test_cluster_rate_never_exceeds_token_rate(self, rng):
        m = balanced_cluster_map(40, 8)
        for _ in range(25):
            a = rng.integers(0, 40, 100)
            b = rng.integers(0, 40, 100)
            rep = mismatch_rates(a, b, m)
            assert rep.cluster_rate <= rep.token_rate

    def test_truncation_flagged(self):
        m = balanced_cluster_map(10, 2)
        rep = mismatch_rates([1, 2, 3, 4], [1, 2], m)
        assert rep.truncated and rep.positions == 2

    def test_empty_rejected(self):
        m = balanced_cluster_map(10, 2)
        with pytest.raises(ValueError, match="non-empty"):
            mismatch_rates([], [1], m)


    @pytest.mark.parametrize("bad", [-3, 10])
    @pytest.mark.parametrize("side", ["original", "retokenized"])
    def test_rejects_ids_outside_vocabulary(self, side, bad):
        # a negative id would read another token's cluster
        m = balanced_cluster_map(10, 2)
        seqs = {"original": [1, 2, 3, 4], "retokenized": [1, 2, 3, 4]}
        seqs[side][2] = bad
        with pytest.raises(ValueError, match="outside the vocabulary"):
            mismatch_rates(seqs["original"], seqs["retokenized"], m)

class TestPersistence:
    def test_round_trip_identity(self, rng, tmp_path):
        emb = rng.normal(size=(64, 6))
        m = kmeans_fit(emb, 5, seed=13)
        path = tmp_path / "map.json"
        save_cluster_map(m, path)
        assert load_cluster_map(path) == m

    def test_schema_fields(self, rng, tmp_path):
        m = kmeans_fit(rng.normal(size=(12, 2)), 3, seed=0)
        path = tmp_path / "map.json"
        save_cluster_map(m, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"h", "n_tokens", "assignment", "centroids",
                                "metric", "seed"}
        assert payload["metric"] == "euclidean"

    def test_assignment_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "h": 2, "n_tokens": 3, "assignment": [0, 1, 2],
            "centroids": [[0.0], [1.0]], "metric": "euclidean", "seed": 0,
        }))
        with pytest.raises(ClusterMapFormatError, match="outside"):
            load_cluster_map(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "h": 2, "n_tokens": 2, "assignment": [0, 1],
            "metric": "euclidean", "seed": 0,
        }))
        with pytest.raises(ClusterMapFormatError, match="centroids"):
            load_cluster_map(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ClusterMapFormatError, match="invalid JSON"):
            load_cluster_map(path)


class TestEmbeddingIO:
    def test_binary_round_trip(self, rng, tmp_path):
        emb = rng.normal(size=(20, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "emb.bin"
        save_embeddings_binary(emb, path)
        assert np.allclose(load_embeddings(path), emb)
        assert path.read_bytes()[:4] == b"AQEM"
        assert len(path.read_bytes()) == 16 + 20 * 3 * 4

    def test_csv_load(self, rng, tmp_path):
        emb = rng.normal(size=(5, 4))
        path = tmp_path / "emb.csv"
        np.savetxt(path, emb, delimiter=",")
        assert np.allclose(load_embeddings(path), emb)


class TestInertia:
    def test_matches_definition(self, rng):
        emb = rng.normal(size=(40, 3))
        m = kmeans_fit(emb, 4, seed=1)
        manual = sum(
            float(((emb[t] - m.centroids[m.assignment[t]]) ** 2).sum())
            for t in range(40)
        )
        assert np.isclose(inertia(emb, m), manual)
