import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from clustermark.core import (
    WatermarkCode,
    _draw_targets,
    _fisher_yates,
    _KeyedOrder,
    _prf_permutation_raw,
    clear_prf_caches,
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


def _reference_words(key, ngram_n, context):
    """The permutation word stream, one SHA-256 block at a time."""
    prefix = b"".join([key, b"\x02", ngram_n.to_bytes(4, "big"),
                       *(v.to_bytes(4, "big") for v in context)])
    for block in itertools.count():
        digest = hashlib.sha256(prefix + block.to_bytes(4, "big")).digest()
        for k in range(0, 32, 8):
            yield int.from_bytes(digest[k : k + 8], "big")


def _reference_shuffle(n, words):
    """The scalar Fisher-Yates loop that drew every permutation before the
    batched version: one rejection test, modulo and swap per index."""
    out = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        m = i + 1
        limit = 2**64 - (2**64 % m)
        while True:
            u = next(words)
            if u < limit:
                break
        j = u % m
        out[i], out[j] = out[j], out[i]
    return out


def _bound(m):
    """Smallest word rejected for modulus m."""
    return 2**64 - 2**64 % m


def _hand_batches():
    """n = 7 draws with m = 7, 6, 5, 4, 3, 2; the batches play hashed blocks."""
    return [
        [_bound(7), 2**64 - 1, 123, _bound(6)],  # two in a row; last word
        [_bound(6) + 2, 999, 2**64 - 1, 77],     # 2^64 mod 5 = 1
        [2**64 - 1, _bound(3) - 1, 2**64 - 1],   # powers of two reject nothing
        [0],                                     # never needed
    ]


def _dense_batches(seed):
    """(n, batches) of words near 2^64, rejected about half the time; batch
    sizes from 1 to 5 put rejections at every position of a batch."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    stream = np.uint64(2**64 - 1) - rng.integers(0, 2 * n, size=20 * n, dtype=np.uint64)
    cuts = np.cumsum(rng.integers(1, 6, size=stream.size))
    return n, [b for b in np.split(stream, cuts) if b.size]


def _assert_ranks(order, ref):
    """Every rank of ``order`` is the reference permutation's inverse, both
    from the swap targets and once the permutation is built."""
    expected = np.argsort(ref).tolist()
    assert [order.rank(x) for x in range(ref.size)] == expected
    assert order.perm.tolist() == ref.tolist()
    assert [order.rank(x) for x in range(ref.size)] == expected


PERM_CODES = [(KEY, 1, (42,)), (KEY, 1, (0,)), (KEY, 1, (2**32 - 1,)),
              (b"other", 3, (1, 2, 3)), (KEY, 3, (500, 0, 7)), (KEY, 0, ())]


class TestPrfPermutation:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500, 1024, 4096])
    def test_matches_scalar_reference(self, n):
        for key, ngram_n, context in PERM_CODES:
            order = _prf_permutation_raw(key, ngram_n, context, n)
            perm, inverse = order.perm, order.inverse
            ref = _reference_shuffle(n, _reference_words(key, ngram_n, context))
            assert perm.tolist() == ref.tolist()
            assert inverse.tolist() == np.argsort(ref).tolist()

    def test_frozen_digest_n4096(self):
        # computed by the scalar loop; content watermarked with it must
        # keep detecting
        perm = prf_permutation(code(), 4096)
        assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == (
            "b28d15144ae37958798b1c4603f5ce4c2d0ac6937c658193034db3bb58bd7c6d")

    def test_rejected_words_are_consumed(self):
        batches = _hand_batches()
        assert 2**64 - 1 >= _bound(5)
        stream = iter([np.array(b, dtype=np.uint64) for b in batches])
        perm = _fisher_yates(7, stream)
        assert next(stream).tolist() == [0]
        ref = _reference_shuffle(7, itertools.chain.from_iterable(batches))
        assert perm == ref.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_rejections_match_scalar_reference(self, seed):
        n, batches = _dense_batches(seed)
        words = np.concatenate(batches).tolist()
        rest = iter(words)
        ref = _reference_shuffle(n, rest)
        assert _fisher_yates(n, iter(batches)) == ref.tolist()
        assert len(words) - len(list(rest)) > n - 1  # some word was rejected

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 500, 1024])
    def test_rank_matches_scalar_reference(self, n):
        clear_prf_caches()
        for key, ngram_n, context in PERM_CODES:
            ref = _reference_shuffle(n, _reference_words(key, ngram_n, context))
            _assert_ranks(_prf_permutation_raw(key, ngram_n, context, n), ref)
        clear_prf_caches()

    def test_rank_from_rejected_words(self):
        batches = _hand_batches()
        order = _KeyedOrder(7, _draw_targets(7, iter(np.array(b, dtype=np.uint64)
                                                     for b in batches)))
        _assert_ranks(order, _reference_shuffle(7, itertools.chain.from_iterable(batches)))

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_from_dense_rejections(self, seed):
        n, batches = _dense_batches(seed)
        order = _KeyedOrder(n, _draw_targets(n, iter(batches)))
        _assert_ranks(order, _reference_shuffle(n, iter(np.concatenate(batches).tolist())))

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
