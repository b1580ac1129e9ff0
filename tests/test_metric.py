import json

import numpy as np
import pytest

from _oracle import naive_gram_oracle
from conftest import random_embedding, random_orthogonal
from rpd import (
    AlignedPair,
    AlignmentError,
    DegenerateInputError,
    EmbeddingMatrix,
    PreconditionError,
    align_vocabularies,
    decompose_per_word,
    random_gaussian_embedding,
    rpd,
    rpd_pairwise_matrix,
    standardize,
)


def self_pair(emb):
    return AlignedPair(emb, emb, emb.vocab)


def pair_of(a_matrix, b_matrix, rng=None):
    n = a_matrix.shape[0]
    vocab = tuple(f"w{i}" for i in range(n))
    return AlignedPair(
        EmbeddingMatrix(vocab, a_matrix), EmbeddingMatrix(vocab, b_matrix), vocab
    )


def oracle_rpd(pair):
    """Reference value from materialized n-by-n Gram matrices."""
    left = standardize(pair.left)
    right = standardize(pair.right)
    o = naive_gram_oracle(left, right)
    return 0.5 * (o.norm_a / o.norm_b + o.norm_b / o.norm_a) - o.inner / (
        o.norm_a * o.norm_b
    )


class TestRpdBasics:
    def test_identity_is_zero(self, rng):
        emb = random_embedding(rng, 100, 8)
        assert rpd(self_pair(emb)).rpd <= 1e-12

    def test_rotation_is_zero(self, rng):
        emb = random_embedding(rng, 120, 10)
        q = random_orthogonal(rng, 10)
        pair = pair_of(emb.matrix, emb.matrix @ q)
        assert rpd(pair).rpd <= 1e-10

    def test_independent_gaussians_concentrate(self):
        n, d = 2000, 50
        a = random_gaussian_embedding(n, d, seed=21)
        b = random_gaussian_embedding(n, d, seed=22)
        value = rpd(AlignedPair(a, b, a.vocab)).rpd
        assert value == pytest.approx(1.0 - d / n, abs=0.01)

    def test_matches_naive_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 201))
            pair = pair_of(
                rng.standard_normal((n, int(rng.integers(1, 31)))),
                rng.standard_normal((n, int(rng.integers(1, 31)))),
            )
            fast = rpd(pair).rpd
            ref = oracle_rpd(pair)
            assert fast == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_report_consistency(self, rng):
        pair = pair_of(rng.standard_normal((60, 5)), rng.standard_normal((60, 9)))
        report = rpd(pair)
        assert report.rpd == pytest.approx(report.ratio_term - report.cosine_term,
                                           abs=1e-10)
        assert report.ratio_term >= 1.0 - 1e-12
        assert 0.0 <= report.cosine_term <= report.ratio_term + 1e-12
        assert report.n == 60 and report.d_left == 5 and report.d_right == 9

    def test_degenerate_constant_matrix(self):
        pair = pair_of(np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(DegenerateInputError):
            rpd(pair)

    @pytest.mark.parametrize("compare", [rpd, decompose_per_word])
    def test_constant_side_named(self, rng, compare):
        # An all-zero side is constant too, though its rows are words.
        varied = rng.standard_normal((4, 2))
        for flat in (np.ones((4, 2)), np.zeros((4, 2))):
            for pair, side in ((pair_of(flat, varied), "left"),
                               (pair_of(varied, flat), "right")):
                with pytest.raises(DegenerateInputError, match=f"^{side}: matrix is constant"):
                    compare(pair)

    def test_shared_zero_rows_leave_rpd_unchanged(self, rng):
        # A zero row adds nothing to a Gram block and standardization's n
        # cancels in the ratio term. Over 2000 random pairs (n 5-80, d 1-7,
        # scales 1e±3, half of them dependent) with 1-3 zero rows inserted,
        # the largest change was 9.4e-16 of the ratio term; the bound is
        # twice that.
        for _ in range(40):
            n, d1, d2 = rng.integers(5, 80), rng.integers(1, 8), rng.integers(1, 8)
            a = rng.standard_normal((n, d1))
            b = rng.standard_normal((n, d2))
            if rng.random() < 0.5:
                b = a @ rng.standard_normal((d1, d2)) + 0.1 * b
            base = rpd(pair_of(a, b))
            k = rng.integers(1, 4)
            keep = np.sort(rng.choice(n + k, size=n, replace=False))
            padded_a, padded_b = np.zeros((n + k, d1)), np.zeros((n + k, d2))
            padded_a[keep], padded_b[keep] = a, b
            padded = rpd(pair_of(padded_a, padded_b))
            assert padded.n == n + k
            assert abs(padded.rpd - base.rpd) <= 8 * np.finfo(float).eps * base.ratio_term


class TestRpdInvariances:
    def test_symmetry(self, rng):
        a = random_embedding(rng, 70, 6)
        b = random_embedding(rng, 70, 11)
        ab = AlignedPair(a, b, a.vocab)
        ba = AlignedPair(b, a, a.vocab)
        assert rpd(ab).rpd == pytest.approx(rpd(ba).rpd, abs=1e-12)

    def test_unitary_invariance_both_sides(self, rng):
        a = rng.standard_normal((60, 8))
        b = rng.standard_normal((60, 5))
        base = rpd(pair_of(a, b)).rpd
        qa = random_orthogonal(rng, 8)
        qb = random_orthogonal(rng, 5)
        rotated = rpd(pair_of(a @ qa, b @ qb)).rpd
        assert rotated == pytest.approx(base, abs=1e-10)

    def test_scale_invariance(self, rng):
        a = rng.standard_normal((50, 6))
        b = rng.standard_normal((50, 6))
        base = rpd(pair_of(a, b)).rpd
        for c in (-3.0, 0.01, 7.0):
            assert rpd(pair_of(c * a, b)).rpd == pytest.approx(base, abs=1e-12)

    def test_row_permutation_invariance(self, rng):
        a = rng.standard_normal((50, 6))
        b = rng.standard_normal((50, 9))
        base = rpd(pair_of(a, b)).rpd
        perm = rng.permutation(50)
        assert rpd(pair_of(a[perm], b[perm])).rpd == pytest.approx(base, abs=1e-12)


class TestPairwiseMatrix:
    def test_identical_embeddings(self, rng):
        e = random_embedding(rng, 40, 5)
        result = rpd_pairwise_matrix([("x", e), ("y", e), ("z", e)])
        np.testing.assert_allclose(result.values, np.zeros((3, 3)), atol=1e-12)

    def test_rotated_and_independent(self, rng):
        n, d = 1000, 25
        e = random_gaussian_embedding(n, d, seed=5)
        q = random_orthogonal(rng, d)
        rotated = EmbeddingMatrix(e.vocab, e.matrix @ q)
        indep = random_gaussian_embedding(n, d, seed=6)
        result = rpd_pairwise_matrix([("a", e), ("b", rotated), ("c", indep)])
        assert result.values[0, 1] == pytest.approx(0.0, abs=1e-10)
        expected = 1.0 - d / n
        assert result.values[0, 2] == pytest.approx(expected, abs=0.02)
        assert result.values[1, 2] == pytest.approx(expected, abs=0.02)
        np.testing.assert_allclose(result.values, result.values.T, atol=0)
        assert np.all(np.diag(result.values) == 0.0)

    def test_permuted_input_permutes_output(self, rng):
        embs = [(f"e{i}", random_embedding(rng, 30, 4)) for i in range(4)]
        base = rpd_pairwise_matrix(embs)
        perm = [2, 0, 3, 1]
        permuted = rpd_pairwise_matrix([embs[i] for i in perm])
        np.testing.assert_allclose(
            permuted.values, base.values[np.ix_(perm, perm)], atol=1e-12
        )

    def test_alignment_error_names_pair(self, rng):
        a = EmbeddingMatrix(("a", "b"), rng.standard_normal((2, 3)))
        c = EmbeddingMatrix(("c", "d"), rng.standard_normal((2, 3)))
        with pytest.raises(AlignmentError) as exc:
            rpd_pairwise_matrix([("first", a), ("second", c)])
        assert "first" in str(exc.value) and "second" in str(exc.value)

    def test_common_vocab(self, rng):
        a = EmbeddingMatrix(("a", "b", "c"), rng.standard_normal((3, 4)))
        b = EmbeddingMatrix(("b", "c", "d"), rng.standard_normal((3, 4)))
        c = EmbeddingMatrix(("b", "c", "e"), rng.standard_normal((3, 4)))
        result = rpd_pairwise_matrix([("a", a), ("b", b), ("c", c)], common_vocab=True)
        assert result.values.shape == (3, 3)

    def test_common_vocab_cells_match_global_alignment(self, rng):
        words = [f"w{i}" for i in range(60)]
        embs = []
        for k, (lo, hi, d) in enumerate(((0, 50, 4), (5, 60, 6), (10, 55, 5), (0, 45, 3))):
            order = rng.permutation(hi - lo)
            vocab = tuple(words[lo + i] for i in order)
            embs.append((f"e{k}", EmbeddingMatrix(vocab, rng.standard_normal((hi - lo, d)))))
        shared = tuple(sorted(set.intersection(*(set(e.vocab) for _, e in embs))))

        def restricted(e):
            return EmbeddingMatrix(shared, e.matrix[[e.index[w] for w in shared]])

        result = rpd_pairwise_matrix(embs, common_vocab=True)
        for i, (_, a) in enumerate(embs):
            for j, (_, b) in enumerate(embs):
                if i == j:
                    continue
                pair = align_vocabularies(restricted(a), restricted(b))
                assert abs(result.values[i, j] - rpd(pair).rpd) <= 1e-12

    def test_common_vocab_keeps_zero_rows(self, rng):
        vocab = ("a", "b", "c", "d")
        first = EmbeddingMatrix(vocab, rng.standard_normal((4, 3)))
        third = EmbeddingMatrix(vocab[:3], rng.standard_normal((3, 3)))
        m = rng.standard_normal((4, 3))
        m[1] = 0.0
        embs = [("first", first), ("zeroed", EmbeddingMatrix(vocab, m)), ("third", third)]
        result = rpd_pairwise_matrix(embs, common_vocab=True)
        # The zero row of "b" is in the common vocabulary and is compared.
        restricted = [EmbeddingMatrix(vocab[:3], e.matrix[:3]) for _, e in embs]
        for i, j in ((0, 1), (1, 2)):
            pair = align_vocabularies(restricted[i], restricted[j])
            assert abs(result.values[i, j] - rpd(pair).rpd) <= 1e-12
        # A zero row outside the common vocabulary is never compared.
        m[1], m[3] = 1.0, 0.0
        embs[1] = ("zeroed", EmbeddingMatrix(vocab, m))
        assert rpd_pairwise_matrix(embs, common_vocab=True).values.shape == (3, 3)

    @pytest.mark.parametrize("common_vocab, offender", [(True, "flat: "),
                                                        (False, "first vs flat: ")])
    def test_constant_embedding_named(self, rng, common_vocab, offender):
        vocab = ("a", "b", "c")
        embs = [("first", EmbeddingMatrix(vocab, rng.standard_normal((3, 2)))),
                ("flat", EmbeddingMatrix(vocab, np.full((3, 2), 0.5))),
                ("third", EmbeddingMatrix(vocab, rng.standard_normal((3, 2))))]
        with pytest.raises(DegenerateInputError) as exc:
            rpd_pairwise_matrix(embs, common_vocab=common_vocab)
        assert str(exc.value) == offender + "matrix is constant: zero standard deviation"

    def test_needs_two(self, rng):
        with pytest.raises(PreconditionError):
            rpd_pairwise_matrix([("only", random_embedding(rng, 5, 2))])

    def test_tsv_round_shape(self, rng):
        embs = [(f"e{i}", random_embedding(rng, 20, 3)) for i in range(3)]
        text = rpd_pairwise_matrix(embs).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "name\te0\te1\te2"
        assert len(lines) == 4


class TestDecomposePerWord:
    def test_identity_cosines_are_one(self, rng):
        emb = random_embedding(rng, 50, 6)
        report = decompose_per_word(self_pair(emb))
        cosines = np.array([p.cos_theta_i for p in report.per_word])
        np.testing.assert_allclose(cosines, 1.0, atol=1e-12)
        weights = np.array([p.w_i for p in report.per_word])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_mean_cosine_approximation(self):
        n, d = 2000, 50
        a = random_gaussian_embedding(n, d, seed=31)
        b = random_gaussian_embedding(n, d, seed=32)
        report = decompose_per_word(AlignedPair(a, b, a.vocab))
        mean_cos = np.mean([p.cos_theta_i for p in report.per_word])
        assert abs(report.rpd - (1.0 - mean_cos)) < 0.02

    def test_weighted_identity(self, rng):
        pair = pair_of(rng.standard_normal((100, 7)), rng.standard_normal((100, 9)))
        report = decompose_per_word(pair)
        weighted = sum(p.w_i * p.cos_theta_i for p in report.per_word)
        assert weighted == pytest.approx(report.cosine_term, abs=1e-9)

    def test_weights_sum_at_most_one(self, rng):
        # Cauchy-Schwarz: the exact weights sum to 1 only when the two
        # sides have proportional Gram-row norms (e.g. identical inputs).
        pair = pair_of(rng.standard_normal((80, 5)), rng.standard_normal((80, 5)))
        report = decompose_per_word(pair)
        total = sum(p.w_i for p in report.per_word)
        assert 0.0 < total <= 1.0 + 1e-12

    def test_sorted_ascending_cosine(self, rng):
        pair = pair_of(rng.standard_normal((40, 4)), rng.standard_normal((40, 4)))
        report = decompose_per_word(pair)
        cosines = [p.cos_theta_i for p in report.per_word]
        assert cosines == sorted(cosines)

    def test_order_breaks_ties_by_word(self, rng):
        # Undefined entries tie at the back and repeated rows tie on their
        # cosine; each tie is broken by Python string order, in which "a"
        # sorts before "a\x00" (numpy's fixed-width strings drop the NUL).
        a, b = rng.standard_normal((12, 3)), rng.standard_normal((12, 5))
        a[[0, 2, 3]] = 0.0
        a[[5, 6, 7]], b[[5, 6, 7]] = a[4], b[4]
        vocab = ("a\x00", "q", "a", "\x00", "m", "b\x00", "b", "B", "z", "y", "x", "c")
        pair = AlignedPair(EmbeddingMatrix(vocab, a), EmbeddingMatrix(vocab, b), vocab)
        entries = decompose_per_word(pair).per_word
        assert [e.word for e in entries[-3:]] == ["\x00", "a", "a\x00"]
        assert entries == tuple(sorted(entries, key=lambda e: (
            np.inf if e.cos_theta_i is None else e.cos_theta_i, e.word)))

    def test_zero_gram_row_marked_undefined(self):
        a = EmbeddingMatrix(("u", "v"), [[0.0, 0.0], [1.0, 2.0]])
        b = EmbeddingMatrix(("u", "v"), [[1.0, 1.0], [2.0, 1.0]])
        report = decompose_per_word(align_vocabularies(a, b))
        by_word = {p.word: p for p in report.per_word}
        assert by_word["u"].cos_theta_i is None
        assert by_word["u"].w_i == 0.0
        assert by_word["v"].cos_theta_i is not None

    def test_json_serialization(self, rng):
        pair = pair_of(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
        payload = json.loads(json.dumps(decompose_per_word(pair).to_dict()))
        assert set(payload) == {
            "rpd", "ratio_term", "cosine_term", "n", "d_left", "d_right", "per_word",
        }
        assert set(payload["per_word"][0]) == {"word", "cos_theta_i", "w_i"}


class TestUpperBound:
    def test_equal_norm_pair(self, rng):
        m = rng.standard_normal((30, 5))
        perm = rng.permutation(30)
        report = rpd(pair_of(m, m[perm]))
        assert report.ratio_term == pytest.approx(1.0, rel=1e-12)
        assert report.rpd <= report.ratio_term + 1e-12

    def test_random_pairs_bounded(self, rng):
        for _ in range(20):
            pair = pair_of(rng.standard_normal((40, 6)), rng.standard_normal((40, 3)))
            report = rpd(pair)
            assert report.rpd <= report.ratio_term + 1e-12
