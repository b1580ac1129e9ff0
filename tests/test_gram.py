import numpy as np
import pytest

from _oracle import naive_gram_oracle
from conftest import random_embedding, random_orthogonal
from rpd import (
    AlignedPair,
    DimensionError,
    EmbeddingMatrix,
    PreconditionError,
    decompose_per_word,
    standardize,
)
from rpd.gram import gram_side
from rpd.metric import rpd_from_sides


def gram_norm(emb):
    """||Ẽ Ẽᵀ||_F of the standardized Ẽ from the core: a side's norm over its divisor."""
    side = gram_side(emb.matrix)
    return side.norm / side.divisor


def cross_inner(a, b):
    """||Ẽ₁ᵀẼ₂||_F² of the standardized inputs: the cosine term times both Gram norms."""
    left, right = gram_side(a.matrix), gram_side(b.matrix)
    cosine = rpd_from_sides(left, right).cosine_term
    return cosine * (left.norm / left.divisor) * (right.norm / right.divisor)


def standardized_oracle(a, b):
    return naive_gram_oracle(standardize(a), standardize(b))


class TestGramFrobeniusNorm:
    def test_identity_matrix(self):
        # Standardizing I₂ (mean square entry ½) gives √2·I₂, whose Gram matrix is 2·I₂.
        emb = EmbeddingMatrix(("a", "b"), np.eye(2))
        assert gram_norm(emb) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    def test_matches_naive_on_random_pairs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 201))
            d = int(rng.integers(1, 31))
            emb = random_embedding(rng, n, d)
            oracle = standardized_oracle(emb, emb)
            fast = gram_norm(emb)
            assert fast == pytest.approx(oracle.norm_a, rel=1e-10)

    def test_gaussian_asymptotics(self):
        n, d = 5000, 100
        emb = random_embedding(np.random.default_rng(42), n, d)
        predicted = n * np.sqrt(d) * np.sqrt(1.0 + (d + 1) / n)
        assert gram_norm(emb) == pytest.approx(predicted, rel=0.02)


class TestCrossGramInner:
    def test_self_inner_is_norm_squared(self, rng):
        emb = random_embedding(rng, 50, 8)
        norm = gram_norm(emb)
        assert cross_inner(emb, emb) == pytest.approx(norm**2, rel=1e-12)

    def test_matches_naive_on_random_pairs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 201))
            a = random_embedding(rng, n, int(rng.integers(1, 31)))
            b = random_embedding(rng, n, int(rng.integers(1, 31)))
            oracle = standardized_oracle(a, b)
            assert cross_inner(a, b) == pytest.approx(oracle.inner, rel=1e-10)

    def test_disjoint_row_support(self, rng):
        # a is nonzero only on even rows, b only on odd rows, so every
        # column of a is orthogonal to every column of b and the Gram
        # inner product vanishes exactly.
        n = 6
        a = np.zeros((n, 3))
        b = np.zeros((n, 4))
        a[0::2] = rng.standard_normal((3, 3))
        b[1::2] = rng.standard_normal((3, 4))
        ea = EmbeddingMatrix(tuple(f"w{i}" for i in range(n)), a)
        eb = EmbeddingMatrix(tuple(f"w{i}" for i in range(n)), b)
        assert cross_inner(ea, eb) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(20):
            a = random_embedding(rng, 30, 4)
            b = random_embedding(rng, 30, 6)
            assert cross_inner(a, b) >= 0.0


class TestNaiveOracle:
    def test_one_by_one(self):
        a = EmbeddingMatrix(("w",), [[2.0]])
        b = EmbeddingMatrix(("w",), [[3.0]])
        oracle = naive_gram_oracle(a, b)
        assert oracle.norm_a == 4.0
        assert oracle.norm_b == 9.0
        assert oracle.inner == 36.0

    def test_self_consistency(self, rng):
        a = random_embedding(rng, 40, 5)
        oracle = naive_gram_oracle(a, a)
        assert oracle.inner == pytest.approx(oracle.norm_a**2, rel=1e-12)

    def test_row_count_mismatch(self, rng):
        a = random_embedding(rng, 5, 3)
        b = random_embedding(rng, 6, 3)
        with pytest.raises(DimensionError):
            naive_gram_oracle(a, b)

    def test_guard_limit(self):
        big = EmbeddingMatrix(tuple(f"w{i}" for i in range(2001)),
                              np.ones((2001, 1)))
        with pytest.raises(PreconditionError):
            naive_gram_oracle(big, big)


class TestPerWordStats:
    def naive_rows(self, a, b):
        """Cosines and weights from the materialized n-by-n Gram rows (both scale-free)."""
        ga = a.matrix @ a.matrix.T
        gb = b.matrix @ b.matrix.T
        na, nb = np.linalg.norm(ga, axis=1), np.linalg.norm(gb, axis=1)
        cos = np.sum(ga * gb, axis=1) / (na * nb)
        return cos, na * nb / (np.linalg.norm(ga) * np.linalg.norm(gb))

    def decomposed(self, a, b):
        """(cos_theta_i, w_i) arrays in vocabulary order."""
        pair = AlignedPair(a, b, a.vocab)
        entries = {e.word: e for e in decompose_per_word(pair).per_word}
        return (np.array([entries[w].cos_theta_i for w in a.vocab]),
                np.array([entries[w].w_i for w in a.vocab]))

    def test_self_pair(self, rng):
        emb = random_embedding(rng, 30, 6)
        cos, weights = self.decomposed(emb, emb)
        naive_cos, naive_weights = self.naive_rows(emb, emb)
        np.testing.assert_allclose(cos, naive_cos, rtol=1e-12)
        np.testing.assert_allclose(weights, naive_weights, rtol=1e-12)

    def test_matches_row_oracle(self, rng):
        a = random_embedding(rng, 100, 10)
        b = random_embedding(rng, 100, 10)
        cos, weights = self.decomposed(a, b)
        naive_cos, naive_weights = self.naive_rows(a, b)
        np.testing.assert_allclose(cos, naive_cos, rtol=1e-10)
        np.testing.assert_allclose(weights, naive_weights, rtol=1e-10)

    def test_single_word(self, rng):
        a = EmbeddingMatrix(("w",), rng.standard_normal((1, 4)))
        b = EmbeddingMatrix(("w",), rng.standard_normal((1, 7)))
        cos, weights = self.decomposed(a, b)
        naive_cos, naive_weights = self.naive_rows(a, b)
        assert np.isfinite(cos[0]) and np.isfinite(weights[0])
        assert cos[0] == pytest.approx(naive_cos[0], rel=1e-12)
        assert weights[0] == pytest.approx(naive_weights[0], rel=1e-12)


class TestInvariants:
    def test_rotation_invariance(self, rng):
        a = random_embedding(rng, 80, 9)
        q = random_orthogonal(rng, 9)
        rotated = EmbeddingMatrix(a.vocab, a.matrix @ q)
        assert gram_norm(rotated) == pytest.approx(
            gram_norm(a), rel=1e-10
        )
        b = random_embedding(rng, 80, 5)
        assert cross_inner(rotated, b) == pytest.approx(
            cross_inner(a, b), rel=1e-10
        )
        qb = random_orthogonal(rng, 5)
        rotated_b = EmbeddingMatrix(b.vocab, b.matrix @ qb)
        assert cross_inner(a, rotated_b) == pytest.approx(
            cross_inner(a, b), rel=1e-10
        )

    def test_row_permutation_equivariance(self, rng):
        n = 60
        a = random_embedding(rng, n, 7)
        b = random_embedding(rng, n, 4)
        perm = rng.permutation(n)
        pa = EmbeddingMatrix(a.vocab, a.matrix[perm])
        pb = EmbeddingMatrix(b.vocab, b.matrix[perm])
        assert gram_norm(pa) == pytest.approx(
            gram_norm(a), rel=1e-12
        )
        assert cross_inner(pa, pb) == pytest.approx(
            cross_inner(a, b), rel=1e-12
        )

    def test_cauchy_schwarz(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 120))
            a = random_embedding(rng, n, int(rng.integers(1, 12)))
            b = random_embedding(rng, n, int(rng.integers(1, 12)))
            inner = cross_inner(a, b)
            bound = gram_norm(a) * gram_norm(b)
            assert inner <= bound + 1e-9
