import numpy as np
import pytest

from _oracle import standardize
from rpd import (
    AlignedPair,
    AlignmentError,
    DegenerateInputError,
    DimensionError,
    DuplicateWordError,
    EmbeddingMatrix,
    FormatError,
    LayoutMap,
    PairwiseRpd,
    ParseError,
    PreconditionError,
    StudyEntry,
    StudyResult,
    align_vocabularies,
    load_embeddings,
    random_gaussian_embedding,
    save_embeddings,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestEmbeddingMatrix:
    def test_basic_construction(self):
        emb = EmbeddingMatrix(("a", "b"), [[1.0, 2.0], [3.0, 4.0]])
        assert emb.n == 2 and emb.dim == 2
        assert emb.index == {"a": 0, "b": 1}

    def test_matrix_is_read_only(self):
        emb = EmbeddingMatrix(("a",), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            emb.matrix[0, 0] = 5.0

    def test_vocab_matrix_mismatch(self):
        with pytest.raises(DimensionError):
            EmbeddingMatrix(("a", "b"), [[1.0, 2.0]])

    def test_duplicate_vocab(self):
        with pytest.raises(DuplicateWordError):
            EmbeddingMatrix(("a", "a"), [[1.0], [2.0]])

    def test_whitespace_word_rejected(self):
        with pytest.raises(PreconditionError) as exc:
            EmbeddingMatrix(("a b",), [[1.0]])
        assert str(exc.value) == "vocabulary entry must be a word without whitespace, got 'a b'"

    @pytest.mark.parametrize("word", ["", "\t", 7, None])
    def test_non_word_entry_rejected(self, word):
        with pytest.raises(PreconditionError) as exc:
            EmbeddingMatrix((word,), [[1.0]])
        assert str(exc.value) == f"vocabulary entry must be a word without whitespace, got {word!r}"

    @pytest.mark.parametrize("matrix, error, message", [
        (np.zeros(3), DimensionError, "matrix must be 2-D, got shape (3,)"),
        (np.zeros((0, 3)), PreconditionError, "matrix must be at least 1x1, got 0x3"),
    ])
    def test_matrix_shape_rejected(self, matrix, error, message):
        with pytest.raises(error) as exc:
            EmbeddingMatrix(("a", "b", "c")[:len(matrix)], matrix)
        assert str(exc.value) == message

    def test_aligned_pair_needs_a_shared_word(self):
        emb = EmbeddingMatrix(("a",), [[1.0]])
        with pytest.raises(AlignmentError, match="^shared vocabulary is empty$"):
            AlignedPair(emb, emb, ())

    def test_non_finite_rejected(self):
        with pytest.raises(PreconditionError):
            EmbeddingMatrix(("a",), [[np.nan]])


class TestLoadSave:
    def test_glove_three_lines(self, tmp_path):
        path = write(tmp_path / "e.txt", "ant 1.0 2.0\nbee 3.0 4.0\ncat 5.0 6.0\n")
        emb = load_embeddings(path)
        assert emb.n == 3 and emb.dim == 2
        assert emb.vocab == ("ant", "bee", "cat")

    def test_word2vec_header_mismatch(self, tmp_path):
        path = write(tmp_path / "e.txt", "2 4\na 1 2 3 4\nb 1 2 3 4\nc 1 2 3 4\n")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_duplicate_word(self, tmp_path):
        path = write(tmp_path / "e.txt", "king 1.0\nqueen 2.0\nking 3.0\n")
        with pytest.raises(DuplicateWordError) as exc:
            load_embeddings(path)
        assert "king" in str(exc.value)

    def test_non_numeric_value_has_line_number(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1.0\nb oops\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path)
        assert ":2:" in str(exc.value)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path / "e.txt", "a 1.0 2.0\nb 3.0\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_word2vec_round_trip(self, tmp_path, rng):
        emb = EmbeddingMatrix(
            ("alpha", "beta", "gamma"), rng.standard_normal((3, 5)) * 100
        )
        path = tmp_path / "rt.txt"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.vocab == emb.vocab
        np.testing.assert_allclose(back.matrix, emb.matrix, rtol=1e-8, atol=1e-8)

    def test_cross_format_round_trip(self, tmp_path, rng):
        emb = EmbeddingMatrix(("x", "y"), rng.standard_normal((2, 3)))
        p1 = write(tmp_path / "a.txt", "".join(
            word + " " + " ".join(repr(v) for v in row) + "\n"
            for word, row in zip(emb.vocab, emb.matrix.tolist())))
        mid = load_embeddings(p1)
        np.testing.assert_array_equal(mid.matrix, emb.matrix)
        p2 = tmp_path / "b.txt"
        save_embeddings(mid, p2)
        back = load_embeddings(p2)
        assert back.vocab == emb.vocab
        np.testing.assert_allclose(back.matrix, emb.matrix, rtol=1e-8, atol=1e-8)

    def test_headerless_one_dim_file_of_integers_reads_as_header(self, tmp_path):
        # The one ambiguous input: "2019 1" is both a header and a 1-dim row.
        path = write(tmp_path / "e.txt", "2019 1\n2020 2\n")
        with pytest.raises(FormatError, match="declares 2019 rows but file has 1"):
            load_embeddings(path)
        emb = load_embeddings(write(tmp_path / "h.txt", "2 1\n2019 1\n2020 2\n"))
        assert emb.vocab == ("2019", "2020")

    def test_unwritable_directory(self, tmp_path):
        emb = EmbeddingMatrix(("a",), [[1.0]])
        with pytest.raises(OSError):
            save_embeddings(emb, tmp_path / "missing" / "e.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_embeddings(tmp_path / "nope.txt")


class TestStandardize:
    def test_already_unit_std(self):
        emb = EmbeddingMatrix(("a", "b"), [[1.0, -1.0], [1.0, -1.0]])
        out = standardize(emb)
        np.testing.assert_array_equal(out.matrix, emb.matrix)

    def test_scalar_rescale(self):
        emb = EmbeddingMatrix(("a", "b"), [[2.0, -2.0], [2.0, -2.0]])
        out = standardize(emb)
        np.testing.assert_allclose(out.matrix, [[1.0, -1.0], [1.0, -1.0]])

    def test_all_zeros_degenerate(self):
        emb = EmbeddingMatrix(("a", "b"), [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            standardize(emb)

    def test_constant_nonzero_degenerate(self):
        emb = EmbeddingMatrix(("a", "b"), [[3.0, 3.0], [3.0, 3.0]])
        with pytest.raises(DegenerateInputError):
            standardize(emb)

    def test_idempotent(self, rng):
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(20)),
                              rng.standard_normal((20, 7)) * 3.7)
        once = standardize(emb)
        twice = standardize(once)
        np.testing.assert_allclose(twice.matrix, once.matrix, rtol=0, atol=1e-12)

    def test_scale_invariant(self, rng):
        matrix = rng.standard_normal((10, 4))
        vocab = tuple(f"w{i}" for i in range(10))
        ref = standardize(EmbeddingMatrix(vocab, matrix))
        for c in (3.0, 0.001, 250.0):
            scaled = standardize(EmbeddingMatrix(vocab, c * matrix))
            np.testing.assert_allclose(scaled.matrix, ref.matrix, rtol=0, atol=1e-12)
        negated = standardize(EmbeddingMatrix(vocab, -2.0 * matrix))
        np.testing.assert_allclose(negated.matrix, -ref.matrix, rtol=0, atol=1e-12)


class TestAlign:
    def make(self, words, matrix):
        return EmbeddingMatrix(tuple(words), matrix)

    def test_intersection(self, rng):
        a = self.make(["a", "b", "c"], rng.standard_normal((3, 4)))
        b = self.make(["b", "c", "d"], rng.standard_normal((3, 4)))
        pair = align_vocabularies(a, b)
        assert pair.shared_vocab == ("b", "c")
        assert pair.left.n == pair.right.n == 2
        assert pair.coverage_left == pytest.approx(2 / 3)
        np.testing.assert_array_equal(pair.left.matrix, a.matrix[[1, 2]])

    def test_order_independent(self, rng):
        m = rng.standard_normal((3, 2))
        a = self.make(["c", "a", "b"], m)
        b = self.make(["b", "c", "a"], rng.standard_normal((3, 2)))
        p1 = align_vocabularies(a, b)
        p2 = align_vocabularies(b, a)
        assert p1.shared_vocab == p2.shared_vocab == ("a", "b", "c")
        np.testing.assert_array_equal(p1.left.matrix, p2.right.matrix)

    def test_disjoint(self, rng):
        a = self.make(["a"], rng.standard_normal((1, 2)))
        b = self.make(["b"], rng.standard_normal((1, 2)))
        with pytest.raises(AlignmentError):
            align_vocabularies(a, b)

    def test_zero_row_kept(self, rng):
        a = self.make(["a", "b"], [[0.0, 0.0], [1.0, 2.0]])
        b = self.make(["a", "b"], rng.standard_normal((2, 2)))
        pair = align_vocabularies(a, b)
        assert pair.shared_vocab == ("a", "b")
        np.testing.assert_array_equal(pair.left.matrix, a.matrix)
        np.testing.assert_array_equal(pair.right.matrix, b.matrix)

    def test_mixed_dimensions_allowed(self, rng):
        a = self.make(["a", "b"], rng.standard_normal((2, 3)))
        b = self.make(["a", "b"], rng.standard_normal((2, 7)))
        pair = align_vocabularies(a, b)
        assert pair.left.dim == 3 and pair.right.dim == 7

    def test_aligned_pair_validates(self, rng):
        a = self.make(["a", "b"], rng.standard_normal((2, 2)))
        b = self.make(["b", "a"], rng.standard_normal((2, 2)))
        with pytest.raises(AlignmentError):
            AlignedPair(a, b, ("a", "b"))


class TestRandomGaussian:
    def test_deterministic(self):
        e1 = random_gaussian_embedding(4, 3, seed=7)
        e2 = random_gaussian_embedding(4, 3, seed=7)
        np.testing.assert_array_equal(e1.matrix, e2.matrix)
        assert e1.vocab == e2.vocab == ("w0", "w1", "w2", "w3")

    def test_different_seeds_differ(self):
        e1 = random_gaussian_embedding(4, 3, seed=7)
        e2 = random_gaussian_embedding(4, 3, seed=8)
        assert not np.array_equal(e1.matrix, e2.matrix)

    def test_standard_normal_moments(self):
        emb = random_gaussian_embedding(10000, 100, seed=1)
        assert abs(emb.matrix.mean()) < 0.02
        assert abs(emb.matrix.std() - 1.0) < 0.02

    def test_invalid_sizes(self):
        with pytest.raises(PreconditionError):
            random_gaussian_embedding(0, 3, seed=1)
        with pytest.raises(PreconditionError):
            random_gaussian_embedding(3, 0, seed=1)


class TestStandardizeExtremeMagnitudes:
    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_matches_unscaled(self, rng, scale):
        matrix = rng.standard_normal((50, 10))
        vocab = tuple(f"w{i}" for i in range(50))
        ref = standardize(EmbeddingMatrix(vocab, matrix))
        out = standardize(EmbeddingMatrix(vocab, matrix * scale))
        np.testing.assert_allclose(out.matrix, ref.matrix, rtol=0, atol=1e-12)


@pytest.mark.parametrize("table, text", [
    (PairwiseRpd(("a", "b"), np.array([[0.0, 1 / 3], [1 / 3, 0.0]])),
     "name\ta\tb\na\t0\t0.333333333333\nb\t0.333333333333\t0\n"),
    (LayoutMap(("a", "b"), np.array([[0.0, 0.0], [2 / 3, -1e-20]]), 1e-17),
     "name\tx\ty\na\t0\t0\nb\t0.666666666667\t-1e-20\n# stress\t1e-17\n"),
    (StudyResult((StudyEntry("b", 1 / 3, 2.0),
                  StudyEntry("c", None, None, error="vocabularies have empty intersection")),
                 None),
     "name\trpd\tdelta_perf\nb\t0.333333333333\t2\n"
     "c\tERROR\tvocabularies have empty intersection\n# rank_correlation\tNA\n"),
    (StudyResult((StudyEntry("b", 1e300, 12345678901234.0),), 1.0),
     "name\trpd\tdelta_perf\nb\t1e+300\t1.23456789012e+13\n# rank_correlation\t1\n"),
], ids=["matrix", "map", "study_with_error", "study"])
def test_tables_print_twelve_significant_digits(table, text):
    assert table.to_tsv() == text
