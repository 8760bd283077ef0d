import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from clustermark.core import (
    WatermarkCode,
    code_fingerprint,
    prf_permutation,
    prf_r,
    validate_prob_vector,
)

KEY = b"secret"


def code(key=KEY, context=(42,), n=None):
    return WatermarkCode(key=key, context=tuple(context),
                         ngram_n=len(context) if n is None else n)


class TestWatermarkCode:
    def test_rejects_empty_key(self):
        with pytest.raises(ValueError, match="non-empty"):
            WatermarkCode(key=b"", context=(1,), ngram_n=1)

    def test_rejects_context_length_mismatch(self):
        with pytest.raises(ValueError, match="context length"):
            WatermarkCode(key=KEY, context=(1, 2), ngram_n=1)

    def test_rejects_ngram_below_one(self):
        with pytest.raises(ValueError, match="ngram_n"):
            WatermarkCode(key=KEY, context=(), ngram_n=0)

    def test_rejects_oversized_token(self):
        with pytest.raises(ValueError, match="4-byte"):
            WatermarkCode(key=KEY, context=(2**32,), ngram_n=1)


class TestFingerprint:
    def test_deterministic(self):
        assert code_fingerprint(code()) == code_fingerprint(code())

    def test_matches_independent_sha256(self):
        # digest = first 8 bytes of SHA-256(key || 0x00 || n_be4 || ctx_be4...)
        msg = KEY + b"\x00" + (1).to_bytes(4, "big") + (42).to_bytes(4, "big")
        expected = int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")
        assert code_fingerprint(code()) == expected

    def test_context_changes_digest(self):
        assert code_fingerprint(code(context=(1,))) != code_fingerprint(
            code(context=(2,))
        )

    def test_key_changes_digest(self):
        assert code_fingerprint(code(key=b"k")) != code_fingerprint(code(key=b"k2"))


class TestPrfR:
    def test_golden_value(self):
        # frozen from the independent derivation below
        assert prf_r(code()) == 0.4986808967836492

    def test_matches_independent_sha256(self):
        msg = KEY + b"\x01" + (1).to_bytes(4, "big") + (42).to_bytes(4, "big")
        u = int.from_bytes(hashlib.sha256(msg).digest()[:8], "big")
        assert prf_r(code()) == u / 2**64

    def test_deterministic(self):
        assert prf_r(code(context=(7, 9))) == prf_r(code(context=(7, 9)))

    def test_half_open_range_and_uniformity(self):
        rs = np.array([prf_r(code(context=(i,))) for i in range(100_000)])
        assert np.all(rs >= 0.0) and np.all(rs < 1.0)
        assert abs(rs.mean() - 0.5) < 0.01
        stat = kstest(rs, "uniform")
        assert stat.pvalue > 0.01

    def test_distinct_from_fingerprint_domain(self):
        c = code()
        assert prf_r(c) != code_fingerprint(c) / 2**64


class TestPrfPermutation:
    def test_n1_is_identity(self):
        assert prf_permutation(code(), 1).tolist() == [0]

    def test_deterministic(self):
        a = prf_permutation(code(context=(3,)), 500)
        b = prf_permutation(code(context=(3,)), 500)
        assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=300),
           ctx=st.integers(min_value=0, max_value=10_000))
    def test_always_bijection(self, n, ctx):
        perm = prf_permutation(code(context=(ctx,)), n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_varies_with_context(self):
        a = prf_permutation(code(context=(1,)), 64)
        b = prf_permutation(code(context=(2,)), 64)
        assert not np.array_equal(a, b)


def _validate(values):
    validate_prob_vector(np.asarray(values, dtype=np.float64))


class TestProbVector:
    def test_accepts_valid(self):
        _validate([0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            _validate([1.1, -0.1])

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(ValueError, match="sums to"):
            _validate([0.5, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            _validate([np.nan, 1.0])

    @pytest.mark.parametrize("values", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
    def test_rejects_malformed(self, values):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            _validate(values)
