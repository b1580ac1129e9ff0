import math
import re

import numpy as np
import pytest

import rpd.evaluation
from conftest import random_embedding
from rpd import (
    AnalogyDataset,
    AnalogyQuestion,
    DegenerateInputError,
    EmbeddingMatrix,
    ParseError,
    PreconditionError,
    SimilarityDataset,
    eval_analogy_3cosadd,
    eval_similarity,
    evaluate,
    load_analogy_dataset,
    load_similarity_dataset,
    perf_vs_rpd_study,
    spearman,
)
from rpd.evaluation import _average_ranks


def brute_force_spearman(x, y):
    """Average-rank Pearson computed from first principles."""

    def ranks(values):
        values = list(values)
        out = [0.0] * len(values)
        for i, v in enumerate(values):
            smaller = sum(1 for u in values if u < v)
            equal = sum(1 for u in values if u == v)
            out[i] = smaller + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = np.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_ties_match_brute_force(self):
        x = [1.0, 2.0, 2.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert spearman(x, y) == pytest.approx(brute_force_spearman(x, y), abs=1e-12)

    def test_random_with_ties_match_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert spearman(x, y) == pytest.approx(
                brute_force_spearman(x, y), abs=1e-12
            )

    def test_symmetry(self, rng):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)

    def test_constant_input(self):
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSimilarity:
    def test_perfect_ordering(self, rng):
        # Cosines against the first basis vector increase with the angle
        # parameter, and the human scores share that ordering.
        angles = np.linspace(0.1, 1.4, 6)
        matrix = np.stack([np.array([np.cos(t), np.sin(t)]) for t in angles])
        matrix = np.vstack([[1.0, 0.0], matrix])
        vocab = ("probe",) + tuple(f"v{i}" for i in range(6))
        emb = EmbeddingMatrix(vocab, matrix)
        pairs = tuple(("probe", f"v{i}", float(-i)) for i in range(6))
        result = eval_similarity(emb, SimilarityDataset(pairs))
        assert result.similarity_spearman == pytest.approx(1.0, abs=1e-12)
        assert result.similarity_coverage == 1.0

    def test_hand_computed_dataset(self, rng):
        matrix = np.array([
            [1.0, 0.0, 0.0],
            [0.8, 0.6, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.6, 0.0, 0.8],
        ])
        vocab = ("a", "b", "c", "d", "e")
        emb = EmbeddingMatrix(vocab, matrix)
        pairs = (
            ("a", "b", 5.0),
            ("a", "c", 1.0),
            ("a", "d", 0.5),
            ("a", "e", 4.0),
            ("b", "c", 3.0),
        )
        result = eval_similarity(emb, SimilarityDataset(pairs))
        cosines = [0.8, 0.0, 0.0, 0.6, 0.6]
        expected = brute_force_spearman(cosines, [5.0, 1.0, 0.5, 4.0, 3.0])
        assert result.similarity_spearman == pytest.approx(expected, abs=1e-12)

    def test_oov_pairs_reduce_coverage(self, rng):
        emb = random_embedding(rng, 4, 3)
        pairs = (
            ("w0", "w1", 1.0),
            ("w0", "missing", 2.0),
            ("w2", "w3", 3.0),
            ("w1", "w3", 0.5),
        )
        result = eval_similarity(emb, SimilarityDataset(pairs))
        assert result.similarity_coverage == pytest.approx(0.75)

    def test_fully_oov(self, rng):
        emb = random_embedding(rng, 3, 2)
        pairs = (("x", "y", 1.0), ("p", "q", 2.0))
        result = eval_similarity(emb, SimilarityDataset(pairs))
        assert result.similarity_coverage == 0.0
        assert result.similarity_spearman is None

    def test_zero_vector_pairs_reduce_coverage(self, rng):
        matrix = rng.standard_normal((4, 3))
        matrix[1] = 0.0
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(4)), matrix)
        pairs = (("w0", "w2", 1.0), ("w0", "w1", 2.0), ("w2", "w3", 3.0), ("w3", "w0", 0.5))
        result = eval_similarity(emb, SimilarityDataset(pairs))
        assert result.similarity_coverage == 0.75
        covered = eval_similarity(emb, SimilarityDataset(pairs[:1] + pairs[2:]))
        assert result.similarity_spearman == covered.similarity_spearman

    @pytest.mark.parametrize("exponent", [530, -565, 1000, -1050])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        # 2**530 ≈ 3.5e159 and 2**-565 ≈ 1.4e-170: squaring such entries
        # overflows or underflows unless the rows are prescaled first.
        emb = random_embedding(rng, 30, 5)
        ds = SimilarityDataset(tuple((f"w{i}", f"w{i + 1}", float(rng.standard_normal()))
                                     for i in range(29)))
        scaled = EmbeddingMatrix(emb.vocab, np.ldexp(emb.matrix, exponent))
        assert eval_similarity(scaled, ds) == eval_similarity(emb, ds)

    @pytest.mark.parametrize("pairs, coverage", [
        ((("w0", "w1", 1.0), ("w0", "missing", 2.0)), 0.5),
        ((("w0", "w1", 2.0), ("w1", "w2", 2.0), ("w2", "w3", 2.0)), 1.0),
    ], ids=["one_covered_pair", "equal_human_scores"])
    def test_undefined_correlation(self, rng, pairs, coverage):
        emb = random_embedding(rng, 4, 3)
        result = eval_similarity(emb, SimilarityDataset(pairs))
        assert result.similarity_coverage == coverage
        assert result.similarity_spearman is None


class TestAnalogy:
    def test_exact_construction(self):
        # v_b - v_a + v_c lands exactly on the target; other candidates
        # are orthogonal to it.
        matrix = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        emb = EmbeddingMatrix(("a", "b", "c", "target"), matrix)
        ds = AnalogyDataset((AnalogyQuestion("a", "b", "c", "target"),))
        result = eval_analogy_3cosadd(emb, ds)
        assert result.analogy_accuracy == 1.0
        assert result.analogy_coverage == 1.0

    def test_expected_oov_excluded(self, rng):
        emb = random_embedding(rng, 4, 3)
        ds = AnalogyDataset((
            AnalogyQuestion("w0", "w1", "w2", "w3"),
            AnalogyQuestion("w0", "w1", "w2", "absent"),
        ))
        result = eval_analogy_3cosadd(emb, ds)
        assert result.analogy_coverage == pytest.approx(0.5)

    def test_matches_exhaustive_scan(self, rng):
        self.check_exhaustive_scan(rng)

    def test_partial_blocks_match_exhaustive_scan(self, rng, monkeypatch):
        # 50 questions over 30 words, 3 per block: 16 full blocks, then one of 2.
        monkeypatch.setattr(rpd.evaluation, "_BLOCK_SCORES", 3 * 30)
        self.check_exhaustive_scan(rng)

    @staticmethod
    def check_exhaustive_scan(rng):
        # Every other question expects the scan's answer, so a question scored
        # wrongly or skipped changes the accuracy.
        n, d = 30, 8
        emb = random_embedding(rng, n, d)
        unit = emb.matrix / np.linalg.norm(emb.matrix, axis=1, keepdims=True)
        words = emb.vocab
        correct_ref = 0
        questions = []
        for k in range(50):
            ia, ib, ic, expected = rng.choice(n, size=4, replace=False)
            target = unit[ib] - unit[ia] + unit[ic]
            best_score = -np.inf
            best_word = None
            for j in range(n):
                if j in (ia, ib, ic):
                    continue
                score = float(unit[j] @ target)
                if score > best_score or (
                    score == best_score and words[j] < best_word
                ):
                    best_score = score
                    best_word = words[j]
            if k % 2 == 0:
                expected = words.index(best_word)
            questions.append(
                AnalogyQuestion(words[ia], words[ib], words[ic], words[expected])
            )
            if best_word == words[expected]:
                correct_ref += 1
        result = eval_analogy_3cosadd(emb, AnalogyDataset(tuple(questions)))
        assert result.analogy_accuracy == pytest.approx(correct_ref / 50, abs=0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_ties_go_to_the_python_smallest_word(self, reverse):
        # Every row but p and q lies on the first axis, so each target below
        # is that axis and its scores tie exactly. Python orders the tied
        # words "\x00" < "A" < "a" < "a\x00"; numpy's fixed-width strings
        # drop trailing NULs and would tie "a" with "a\x00" (and "\x00" with "").
        rows = {"a\x00": 1.0, "a": 2.0, "\x00": 0.5, "A": 4.0, "v": 8.0, "p": 0.0, "q": 0.0}
        vocab = list(rows)[::-1] if reverse else list(rows)
        matrix = np.zeros((len(vocab), 3))
        for i, word in enumerate(vocab):
            matrix[i, 0] = rows[word]
        matrix[vocab.index("p"), 1] = matrix[vocab.index("q"), 2] = 1.0
        emb = EmbeddingMatrix(tuple(vocab), matrix)
        questions = (
            AnalogyQuestion("\x00", "A", "v", "a"),     # ties: a, a\x00
            AnalogyQuestion("p", "p", "v", "\x00"),      # ties: all four
            AnalogyQuestion("\x00", "a", "v", "A"),     # ties: A, a\x00
            AnalogyQuestion("a", "A", "v", "\x00"),      # ties: \x00, a\x00
            AnalogyQuestion("\x00", "A", "a", "a\x00"),  # ties: a\x00, v
        )
        result = eval_analogy_3cosadd(emb, AnalogyDataset(questions))
        assert result.analogy_accuracy == 1.0

    @pytest.mark.parametrize("d", [7, 50])
    def test_near_ties_do_not_depend_on_row_order_or_block_size(self, rng, monkeypatch, d):
        # Duplicate rows, and integer rows next to their multiples, score alike
        # in exact arithmetic, but a matrix product rounds each score by its
        # position. Every question expects the fsum re-score's first maximum in
        # word order, so one prediction that moves lowers the accuracy.
        ints = rng.integers(-2, 3, size=(12, d)).astype(float)
        gauss = rng.standard_normal((12, d))
        matrix = np.array([k * v for v in ints for k in (1, 2, 3)]
                          + [v for v in gauss for _ in range(3)])
        n = len(matrix)
        vocab = tuple(f"w{i:02d}" for i in range(n))
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        unit = matrix / np.where(norms == 0.0, 1.0, norms)
        questions = []
        for _ in range(300):
            abc = rng.choice(n, size=3, replace=False)
            target = unit[abc[1]] - unit[abc[0]] + unit[abc[2]]
            scores = [-math.inf if j in abc else math.fsum(target * unit[j]) for j in range(n)]
            best = int(np.argmax(scores))
            questions.append(AnalogyQuestion(*(vocab[i] for i in (*abc, best))))
        ds = AnalogyDataset(tuple(questions))
        perm = rng.permutation(n)
        shuffled = EmbeddingMatrix(tuple(vocab[i] for i in perm), matrix[perm])
        for block_scores in (rpd.evaluation._BLOCK_SCORES, 7 * n, n):
            monkeypatch.setattr(rpd.evaluation, "_BLOCK_SCORES", block_scores)
            for emb in (EmbeddingMatrix(vocab, matrix), shuffled):
                assert eval_analogy_3cosadd(emb, ds).analogy_accuracy == 1.0

    def test_distractor_at_smaller_cosine(self):
        matrix = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.1, 0.6, 0.8],   # target: high cosine with b - a + c
            [0.9, 0.1, 0.2],   # distractor: mostly along the excluded a
        ])
        emb = EmbeddingMatrix(("a", "b", "c", "good", "bad"), matrix)
        ds = AnalogyDataset((AnalogyQuestion("a", "b", "c", "good"),))
        assert eval_analogy_3cosadd(emb, ds).analogy_accuracy == 1.0

    def test_row_order_invariance(self, rng):
        n = 12
        emb = random_embedding(rng, n, 5)
        questions = tuple(
            AnalogyQuestion(*(emb.vocab[i] for i in rng.choice(n, 4, replace=False)))
            for _ in range(20)
        )
        ds = AnalogyDataset(questions)
        base = eval_analogy_3cosadd(emb, ds)
        perm = rng.permutation(n)
        shuffled = EmbeddingMatrix(
            tuple(emb.vocab[i] for i in perm), emb.matrix[perm]
        )
        again = eval_analogy_3cosadd(shuffled, ds)
        assert base.analogy_accuracy == again.analogy_accuracy

    @pytest.mark.parametrize("exponent", [530, -565])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        n = 40
        emb = random_embedding(rng, n, 6)
        ds = AnalogyDataset(tuple(
            AnalogyQuestion(*(emb.vocab[i] for i in rng.choice(n, 4, replace=False)))
            for _ in range(30)))
        scaled = EmbeddingMatrix(emb.vocab, np.ldexp(emb.matrix, exponent))
        assert eval_analogy_3cosadd(scaled, ds) == eval_analogy_3cosadd(emb, ds)

    def test_question_validation(self):
        with pytest.raises(PreconditionError):
            AnalogyQuestion("a", "b", "c", "a")

    def test_no_answerable_question(self, rng):
        emb = random_embedding(rng, 4, 3)
        ds = AnalogyDataset((AnalogyQuestion("w0", "w1", "w2", "absent"),))
        result = eval_analogy_3cosadd(emb, ds)
        assert result.analogy_accuracy is None
        assert result.analogy_coverage == 0.0


@pytest.mark.parametrize("build, message", [
    (lambda: SimilarityDataset(()), "similarity dataset has no pairs"),
    (lambda: SimilarityDataset((("a", "b", 1.0), ("c", "d", np.inf))),
     "similarity scores must be finite"),
    (lambda: AnalogyQuestion("a", "", "c", "d"),
     "analogy word must be a word without whitespace, got ''"),
    (lambda: AnalogyQuestion("a", "b", "c d", "e"),
     "analogy word must be a word without whitespace, got 'c d'"),
    (lambda: SimilarityDataset((("a", "b", 1.0), ("c", "d\te", 2.0))),
     "similarity word must be a word without whitespace, got 'd\\te'"),
    (lambda: SimilarityDataset(((1, "b", 1.0),)),
     "similarity word must be a word without whitespace, got 1"),
    (lambda: AnalogyQuestion("a", "b", None, "d"),
     "analogy word must be a word without whitespace, got None"),
    (lambda: SimilarityDataset((("a", "b", 1.0), ("c", "\udcff", 2.0))),
     "similarity word must encode as UTF-8, got '\\udcff'"),
    (lambda: AnalogyQuestion("a", "b", "c\ud800", "d"),
     "analogy word must encode as UTF-8, got 'c\\ud800'"),
    (lambda: AnalogyDataset(()), "analogy dataset has no questions"),
    (lambda: SimilarityDataset((("a", "b", 1.0), ("c", "d", "high"))),
     f"similarity scores must hold real numbers, got dtype {np.dtype('U32')}"),
    (lambda: SimilarityDataset((("a", "b", None),)),
     "similarity scores must hold real numbers, got dtype object"),
    (lambda: SimilarityDataset((("a", "b", 1 + 2j),)),
     "similarity scores must hold real numbers, got dtype complex128"),
    (lambda: SimilarityDataset((("a", "b", [1.0, 2.0]), ("c", "d", 3.0))),
     "similarity scores must be rectangular, not ragged sequences"),
    (lambda: SimilarityDataset((("a", "b", [1.0]),)),
     "similarity scores must be numbers, one per pair"),
], ids=["no_pairs", "non_finite_score", "empty_word", "whitespace_word",
        "whitespace_similarity_word", "non_str_similarity_word", "non_str_word",
        "surrogate_similarity_word", "surrogate_analogy_word", "no_questions",
        "str_score", "none_score", "complex_score", "ragged_score", "sequence_score"])
def test_dataset_validation(build, message):
    with pytest.raises(PreconditionError) as exc:
        build()
    assert str(exc.value) == message


def test_integer_and_boolean_scores_become_floats():
    pairs = SimilarityDataset((("a", "b", 3), ("c", "d", True), ("e", "f", np.int64(-2)))).pairs
    assert pairs == (("a", "b", 3.0), ("c", "d", 1.0), ("e", "f", -2.0))
    assert all(type(score) is float for _, _, score in pairs)


class TestDatasetFiles:
    def test_similarity_file_with_header(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("word1\tword2\tscore\ncat\tdog\t7.5\nsun\tmoon\t4.0\n")
        ds = load_similarity_dataset(path)
        assert ds == SimilarityDataset((("cat", "dog", 7.5), ("sun", "moon", 4.0)))

    def test_similarity_header_after_blank_line(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("\nword1\tword2\tscore\ncat\tdog\t1\n")
        assert load_similarity_dataset(path).pairs == (("cat", "dog", 1.0),)

    def test_similarity_non_numeric_score_after_header(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("\nword1\tword2\tscore\ncat\tdog\t1\n\nsun\tmoon\tNA\n")
        with pytest.raises(ParseError, match=r"sim\.tsv:5: non-numeric score 'NA'"):
            load_similarity_dataset(path)

    def test_similarity_bad_line(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("cat\tdog\t7.5\ncat\tdog\n")
        with pytest.raises(ParseError) as exc:
            load_similarity_dataset(path)
        assert ":2:" in str(exc.value)

    def test_similarity_non_numeric_data_score(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("cat\tdog\t7.5\nsun\tmoon\tNA\n")
        with pytest.raises(ParseError):
            load_similarity_dataset(path)

    @pytest.mark.parametrize("line, word", [
        ("cat \tdog\t1", "'cat '"), ("cat\t\t1", "''"), ("\tdog\t1", "''"),
        ("cat\tdog cat\t1", "'dog cat'"), ("cat\t\u00a0dog\t1", "'\\xa0dog'"),
    ])
    def test_similarity_word_must_be_a_word(self, tmp_path, line, word):
        path = tmp_path / "sim.tsv"
        path.write_text(f"Word 1\tWord 2\tHuman (mean)\nsun\tmoon\t2\n{line}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"sim.tsv:3: word is empty or "
                                                       f"contains whitespace: {word}")):
            load_similarity_dataset(path)

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_similarity_non_finite_score(self, tmp_path, score):
        path = tmp_path / "sim.tsv"
        path.write_text(f"cat\tdog\t7.5\nsun\tmoon\t{score}\n")
        with pytest.raises(ParseError, match=r"sim\.tsv:2: non-finite score"):
            load_similarity_dataset(path)

    def test_analogy_file_with_sections(self, tmp_path):
        path = tmp_path / "ana.txt"
        path.write_text(
            ": capital-common\nparis france rome italy\n"
            ": family\nboy girl man woman\n"
        )
        ds = load_analogy_dataset(path)
        assert ds == AnalogyDataset((
            AnalogyQuestion("paris", "france", "rome", "italy", section="capital-common"),
            AnalogyQuestion("boy", "girl", "man", "woman", section="family")))
        assert hash(ds.questions[1]) == hash(AnalogyQuestion("boy", "girl", "man", "woman",
                                                             section="family"))

    def test_analogy_wrong_field_count(self, tmp_path):
        path = tmp_path / "ana.txt"
        path.write_text("paris france rome\n")
        with pytest.raises(ParseError):
            load_analogy_dataset(path)

    def test_analogy_expected_word_repeats_query(self, tmp_path):
        path = tmp_path / "ana.txt"
        path.write_text(": family\nboy girl man woman\na b c a\n")
        with pytest.raises(ParseError, match=r"ana\.txt:3: expected word 'a' duplicates"):
            load_analogy_dataset(path)


class TestStudy:
    def make_datasets(self, emb, rng, n_pairs=40, n_questions=30):
        """Datasets labelled by the embedding's own geometry, so the
        baseline scores perfectly and noise strictly hurts."""
        unit = emb.matrix / np.linalg.norm(emb.matrix, axis=1, keepdims=True)
        words = emb.vocab
        n = len(words)
        pairs = []
        for _ in range(n_pairs):
            i, j = rng.choice(n, size=2, replace=False)
            pairs.append((words[i], words[j], float(unit[i] @ unit[j])))
        questions = []
        while len(questions) < n_questions:
            ia, ib, ic = rng.choice(n, size=3, replace=False)
            target = unit[ib] - unit[ia] + unit[ic]
            scores = unit @ target
            scores[[ia, ib, ic]] = -np.inf
            expected = int(np.argmax(scores))
            questions.append(
                AnalogyQuestion(words[ia], words[ib], words[ic], words[expected])
            )
        return SimilarityDataset(tuple(pairs)), AnalogyDataset(tuple(questions))

    def test_baseline_against_itself(self, rng):
        emb = random_embedding(rng, 40, 8)
        sim, ana = self.make_datasets(emb, rng)
        result = perf_vs_rpd_study(emb, [("self", emb)], sim, ana)
        entry = result.entries[0]
        assert entry.rpd == pytest.approx(0.0, abs=1e-12)
        assert entry.delta_perf == pytest.approx(0.0, abs=1e-12)

    def test_rotation_changes_nothing(self, rng):
        from conftest import random_orthogonal

        emb = random_embedding(rng, 40, 8)
        sim, ana = self.make_datasets(emb, rng)
        q = random_orthogonal(rng, 8)
        rotated = EmbeddingMatrix(emb.vocab, emb.matrix @ q)
        result = perf_vs_rpd_study(emb, [("rotated", rotated)], sim, ana)
        entry = result.entries[0]
        assert entry.rpd == pytest.approx(0.0, abs=1e-10)
        assert entry.delta_perf == pytest.approx(0.0, abs=1e-9)

    def test_noise_sweep_is_monotone(self):
        rng = np.random.default_rng(77)
        base = random_embedding(rng, 300, 16)
        sim, ana = self.make_datasets(base, rng, n_pairs=60, n_questions=40)
        noised = []
        for level, scale in enumerate(np.linspace(0.1, 2.0, 10)):
            noise = rng.standard_normal(base.matrix.shape)
            noised.append(
                (f"noise{level}", EmbeddingMatrix(base.vocab, base.matrix + scale * noise))
            )
        result = perf_vs_rpd_study(base, noised, sim, ana)
        rpds = [e.rpd for e in result.entries]
        assert all(b > a for a, b in zip(rpds, rpds[1:]))
        assert result.rank_correlation is not None
        assert result.rank_correlation > 0.8

    def test_per_entry_error_recorded(self, rng):
        base = random_embedding(rng, 20, 4)
        disjoint = EmbeddingMatrix(("x", "y"), rng.standard_normal((2, 4)))
        sim, ana = self.make_datasets(base, rng, n_pairs=10, n_questions=5)
        result = perf_vs_rpd_study(base, [("ok", base), ("bad", disjoint)], sim, ana)
        by_name = {e.name: e for e in result.entries}
        assert by_name["bad"].error is not None
        assert by_name["ok"].error is None

    def test_entry_without_comparable_metric(self, rng):
        # "narrow" shares the words w0-w9 with the base but has none of the scored ones.
        base = random_embedding(rng, 20, 4)
        narrow = EmbeddingMatrix(base.vocab[:10], rng.standard_normal((10, 4)))
        sim = SimilarityDataset((("w10", "w11", 1.0), ("w12", "w13", 2.0), ("w14", "w15", 3.0)))
        result = perf_vs_rpd_study(base, [("narrow", narrow), ("same", base)], sim)
        assert result.entries[0] == rpd.evaluation.StudyEntry(
            "narrow", None, None, error="no comparable metrics")
        # One comparable entry is too few for a rank correlation.
        assert result.rank_correlation is None
        _, narrow_row, same_row, footer = result.to_tsv().splitlines()
        assert narrow_row == "narrow\tERROR\tno comparable metrics"
        assert same_row.startswith("same\t") and same_row.endswith("\t0")
        assert footer == "# rank_correlation\tNA"

    def test_needs_an_embedding(self, rng):
        sim, _ = self.make_datasets(random_embedding(rng, 20, 4), rng, n_pairs=10, n_questions=5)
        with pytest.raises(PreconditionError, match="^need at least one embedding to compare$"):
            perf_vs_rpd_study(random_embedding(rng, 20, 4), [], sim)

    def test_repeated_names_rejected(self, rng):
        a = random_embedding(rng, 20, 4)
        b = random_embedding(rng, 20, 4)
        sim, ana = self.make_datasets(a, rng, n_pairs=10, n_questions=5)
        with pytest.raises(PreconditionError, match="embedding names must be unique"):
            perf_vs_rpd_study(a, [("b", b), ("b", a)], sim, ana)

    def test_name_must_be_a_word(self, rng):
        a = random_embedding(rng, 20, 4)
        sim, ana = self.make_datasets(a, rng, n_pairs=10, n_questions=5)
        with pytest.raises(PreconditionError, match=r"got 'p\\tq'$"):
            perf_vs_rpd_study(a, [("p\tq", a)], sim, ana)

    def test_tsv_output(self, rng):
        base = random_embedding(rng, 20, 4)
        sim, ana = self.make_datasets(base, rng, n_pairs=10, n_questions=5)
        result = perf_vs_rpd_study(base, [("a", base), ("b", base)], sim, ana)
        text = result.to_tsv()
        assert text.startswith("name\trpd\tdelta_perf\n")
        assert "# rank_correlation" in text


class TestEvaluate:
    def test_merges_partial_results(self, rng):
        emb = random_embedding(rng, 10, 4)
        sim = SimilarityDataset((("w0", "w1", 1.0), ("w2", "w3", 2.0), ("w4", "w5", 0.5)))
        result = evaluate(emb, sim_ds=sim)
        assert result.similarity_coverage == 1.0
        assert result.analogy_accuracy is None

    def test_requires_a_dataset(self, rng):
        with pytest.raises(PreconditionError):
            evaluate(random_embedding(rng, 4, 2))


class TestAverageRanks:
    def test_matches_scipy_rankdata_with_ties(self, rng):
        from scipy.stats import rankdata, spearmanr

        for size in (2, 3, 10, 57, 400):
            for levels in (1, 2, 5, size):
                x = rng.integers(0, levels, size).astype(float)
                y = rng.integers(0, 3, size) - 0.5
                np.testing.assert_array_equal(_average_ranks(x), rankdata(x))
                np.testing.assert_array_equal(_average_ranks(y), rankdata(y))
                if np.ptp(x) > 0 and np.ptp(y) > 0:
                    assert spearman(x, y) == pytest.approx(
                        spearmanr(x, y).statistic, abs=1e-12
                    )

    def test_signed_zeros_tie(self):
        np.testing.assert_array_equal(_average_ranks(np.array([0.0, -0.0, 1.0])), [1.5, 1.5, 3.0])

    def test_nan_propagates(self):
        assert np.isnan(_average_ranks(np.array([1.0, np.nan, 2.0]))).all()
