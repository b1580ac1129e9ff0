"""Property tests of the Gram-statistics core behind every distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracle import naive_gram_oracle
from conftest import random_orthogonal
from rpd import (
    AlignedPair,
    EmbeddingMatrix,
    decompose_per_word,
    rpd,
    rpd_pairwise_matrix,
    standardize,
)
from rpd.gram import gram_side

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
rows = st.integers(2, 200)
dims = st.integers(1, 12)
decades = st.floats(-150.0, 150.0)


def pair_of(a, b):
    vocab = tuple(f"w{i}" for i in range(a.shape[0]))
    return AlignedPair(EmbeddingMatrix(vocab, a), EmbeddingMatrix(vocab, b), vocab)


def draw(seed, n, d1, d2):
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((n, d1)), rng.standard_normal((n, d2))


def oracle_rpd(a, b):
    """The distance from materialized n-by-n Gram matrices of standardized copies."""
    pair = pair_of(a, b)
    o = naive_gram_oracle(standardize(pair.left), standardize(pair.right))
    return 0.5 * (o.norm_a / o.norm_b + o.norm_b / o.norm_a) - o.inner / (o.norm_a * o.norm_b)


@PROPERTY
@given(seeds, rows, dims, dims)
def test_matches_naive_oracle(seed, n, d1, d2):
    _, a, b = draw(seed, n, d1, d2)
    assert rpd(pair_of(a, b)).rpd == pytest.approx(oracle_rpd(a, b), rel=1e-10, abs=1e-12)


@PROPERTY
@given(seeds, rows, dims, dims)
def test_symmetry(seed, n, d1, d2):
    _, a, b = draw(seed, n, d1, d2)
    assert rpd(pair_of(a, b)).rpd == pytest.approx(rpd(pair_of(b, a)).rpd, abs=1e-12)


@PROPERTY
@given(seeds, rows, dims, dims)
def test_rotation_and_row_permutation(seed, n, d1, d2):
    rng, a, b = draw(seed, n, d1, d2)
    base = rpd(pair_of(a, b)).rpd
    qa, qb = random_orthogonal(rng, d1), random_orthogonal(rng, d2)
    assert rpd(pair_of(a @ qa, b @ qb)).rpd == pytest.approx(base, abs=1e-10)
    perm = rng.permutation(n)
    assert rpd(pair_of(a[perm], b[perm])).rpd == pytest.approx(base, abs=1e-12)


@PROPERTY
@given(seeds, rows, dims)
def test_rotated_copy_is_zero(seed, n, d):
    rng, a, _ = draw(seed, n, d, 1)
    assert rpd(pair_of(a, a @ random_orthogonal(rng, d))).rpd <= 1e-10


@PROPERTY
@given(seeds, rows, dims, dims, decades, decades)
def test_scale_free_over_the_float_range(seed, n, d1, d2, left_decade, right_decade):
    _, a, b = draw(seed, n, d1, d2)
    scaled = pair_of(a * 10.0**left_decade, b * 10.0**right_decade)
    assert rpd(scaled).rpd == pytest.approx(rpd(pair_of(a, b)).rpd, rel=1e-12, abs=1e-13)


@PROPERTY
@given(seeds, rows, dims, dims, decades, decades)
def test_standardized_inputs_give_the_same_rpd(seed, n, d1, d2, left_decade, right_decade):
    # Over 3000 such pairs the two differed by at most 8.9e-16 (7.3e-15 relative).
    _, a, b = draw(seed, n, d1, d2)
    pair = pair_of(a * 10.0**left_decade, b * 10.0**right_decade)
    prestandardized = AlignedPair(standardize(pair.left), standardize(pair.right),
                                  pair.shared_vocab)
    assert rpd(prestandardized).rpd == pytest.approx(rpd(pair).rpd, rel=1e-14, abs=4e-15)


@PROPERTY
@given(seeds, rows, dims, dims, st.integers(-400, 400), st.integers(-400, 400))
def test_power_of_two_scaling_is_exact(seed, n, d1, d2, exponent, right_exponent):
    _, a, b = draw(seed, n, d1, d2)
    base = gram_side(a)
    scaled = gram_side(np.ldexp(a, exponent))
    np.testing.assert_array_equal(scaled.gram, base.gram)
    assert scaled.divisor == base.divisor
    assert rpd(pair_of(np.ldexp(a, exponent), b)) == rpd(pair_of(a, b))
    scaled_pair = pair_of(np.ldexp(a, exponent), np.ldexp(b, right_exponent))
    # Word, cosine, weight and order of every entry, bit for bit.
    assert decompose_per_word(scaled_pair).per_word == decompose_per_word(pair_of(a, b)).per_word


@PROPERTY
@given(seeds, rows, dims)
def test_divisor_standardizes_the_block(seed, n, d):
    _, a, _ = draw(seed, n, d, 1)
    side = gram_side(a)
    s = standardize(EmbeddingMatrix(tuple(f"w{i}" for i in range(n)), a)).matrix
    np.testing.assert_allclose(side.gram / side.divisor, s.T @ s, rtol=1e-12, atol=1e-12 * n)


def assert_same_entries(per_word, expected):
    """Same words in the same order; cosines and weights equal up to roundoff."""
    assert [e.word for e in per_word] == [e.word for e in expected]
    assert [e.cos_theta_i for e in per_word] == pytest.approx(
        [e.cos_theta_i for e in expected], rel=1e-12, abs=1e-12)
    assert [e.w_i for e in per_word] == pytest.approx(
        [e.w_i for e in expected], rel=1e-12)


@pytest.mark.parametrize("factor", [1e155, 1e-160])
def test_extreme_magnitudes_return_unscaled_rpd(factor):
    _, a, b = draw(7, 300, 20, 30)
    base = pair_of(a, b)
    expected = rpd(base)
    expected_entries = decompose_per_word(base).per_word
    for pair in (pair_of(factor * a, b), pair_of(a, factor * b), pair_of(factor * a, factor * b)):
        report = rpd(pair)
        assert report.rpd == pytest.approx(expected.rpd, rel=1e-12)
        assert report.ratio_term == pytest.approx(expected.ratio_term, rel=1e-12)
        decomposed = decompose_per_word(pair)
        assert decomposed.rpd == pytest.approx(expected.rpd, rel=1e-12)
        assert_same_entries(decomposed.per_word, expected_entries)
    embs = [("a", base.left), ("b", EmbeddingMatrix(base.shared_vocab, factor * b))]
    cell = rpd_pairwise_matrix(embs, common_vocab=True).values[0, 1]
    assert cell == pytest.approx(expected.rpd, rel=1e-12)
