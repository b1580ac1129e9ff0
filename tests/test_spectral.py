import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from _corpus import synthetic_corpus_text
from rpd import (
    CooccurrenceCounts,
    CorpusError,
    DegenerateInputError,
    DimensionError,
    ParseError,
    PreconditionError,
    SvdFactors,
    count_cooccurrences,
    load_counts,
    log_count_matrix,
    pmi_matrix,
    save_counts,
    svd_embedding,
    tokenize_corpus_text,
    train_spectral_embedding,
    truncated_svd,
)


def dense_counts(array, vocab=None, window=1, min_count=1):
    array = np.asarray(array, dtype=np.float64)
    if vocab is None:
        vocab = tuple(f"t{i}" for i in range(array.shape[0]))
    return CooccurrenceCounts(
        vocab=vocab,
        counts=sparse.csr_array(array),
        window=window,
        min_count=min_count,
    )


def signal_of(array):
    return sparse.csr_array(np.asarray(array, dtype=np.float64))


class TestCountCooccurrences:
    def test_window_one_hand_count(self):
        counts = count_cooccurrences([["a", "b", "a"]], window=1, min_count=1)
        dense = counts.counts.toarray()
        a, b = counts.vocab.index("a"), counts.vocab.index("b")
        assert dense[a, b] == 2.0
        assert dense[b, a] == 2.0
        assert dense[a, a] == 0.0
        assert counts.total == 4.0

    def test_window_two_adds_self_pair(self):
        counts = count_cooccurrences([["a", "b", "a"]], window=2, min_count=1)
        dense = counts.counts.toarray()
        a = counts.vocab.index("a")
        assert dense[a, a] == 2.0
        assert counts.total == 6.0

    def test_min_count_filters_vocab(self):
        docs = [["hot", "cold", "hot", "hot", "rare"]]
        counts = count_cooccurrences(docs, window=1, min_count=2)
        assert counts.vocab == ("hot",) or "rare" not in counts.vocab

    def test_min_count_too_high(self):
        with pytest.raises(CorpusError):
            count_cooccurrences([["a", "b"]], window=1, min_count=10)

    def test_vocab_ordered_by_frequency_then_word(self):
        docs = [["b", "b", "a", "a", "c", "c", "c"]]
        counts = count_cooccurrences(docs, window=1, min_count=1)
        assert counts.vocab == ("c", "a", "b")

    def test_symmetric(self):
        text = synthetic_corpus_text(3000, vocab_size=60, seed=4)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=2)
        diff = counts.counts - counts.counts.T
        assert abs(diff).sum() == 0.0

    def test_document_boundaries_not_crossed(self):
        joined = count_cooccurrences([["a", "b", "c", "d"]], window=3, min_count=1)
        split = count_cooccurrences([["a", "b"], ["c", "d"]], window=3, min_count=1)
        assert split.total < joined.total
        dense = split.counts.toarray()
        idx = {w: i for i, w in enumerate(split.vocab)}
        assert dense[idx["b"], idx["c"]] == 0.0

    def test_monotone_in_min_count(self):
        text = synthetic_corpus_text(4000, vocab_size=80, seed=5)
        docs = tokenize_corpus_text(text)
        sizes = [
            len(count_cooccurrences(docs, window=3, min_count=m).vocab)
            for m in (1, 3, 9, 27)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_harmonic_weighting(self):
        flat = count_cooccurrences([["a", "b", "c"]], window=2, min_count=1)
        harmonic = count_cooccurrences([["a", "b", "c"]], window=2, min_count=1,
                                       weighting="harmonic")
        fa = flat.counts.toarray()
        ha = harmonic.counts.toarray()
        idx = {w: i for i, w in enumerate(flat.vocab)}
        assert fa[idx["a"], idx["c"]] == 1.0
        assert ha[idx["a"], idx["c"]] == 0.5
        assert ha[idx["a"], idx["b"]] == 1.0

    def test_deterministic(self):
        text = synthetic_corpus_text(2000, vocab_size=40, seed=6)
        docs = tokenize_corpus_text(text)
        c1 = count_cooccurrences(docs, window=4, min_count=2)
        c2 = count_cooccurrences(docs, window=4, min_count=2)
        assert c1.vocab == c2.vocab
        assert (c1.counts != c2.counts).nnz == 0

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError):
            count_cooccurrences([["a", "b"]], window=0, min_count=1)
        with pytest.raises(PreconditionError):
            count_cooccurrences([["a", "b"]], window=1, min_count=1, weighting="gauss")

    @pytest.mark.parametrize("docs", [["the cat sat on the mat", "the dog sat"],
                                      [["the", "cat"], "the dog"]])
    def test_str_document_rejected(self, docs):
        # A str is a sequence too: counted as given, its characters would be the tokens.
        with pytest.raises(PreconditionError, match="not a str"):
            count_cooccurrences(docs, window=2, min_count=1)

    def test_one_pass_over_documents(self):
        docs = iter([["a", "b"], ["b", "a"]])
        assert count_cooccurrences(docs, window=1, min_count=1).vocab == ("a", "b")


def brute_force_counts(docs, window, min_count, weighting):
    """Vocabulary and dense counts from a scan of every position's window."""
    freq = {}
    for doc in docs:
        for token in doc:
            freq[token] = freq.get(token, 0) + 1
    vocab = tuple(sorted((w for w in freq if freq[w] >= min_count),
                         key=lambda w: (-freq[w], w)))
    index = {w: i for i, w in enumerate(vocab)}
    dense = np.zeros((len(vocab), len(vocab)))
    for doc in docs:
        ids = [index[t] for t in doc if t in index]
        for i in range(len(ids)):
            for k in range(1, window + 1):
                if i + k < len(ids):
                    weight = 1.0 if weighting == "flat" else 1.0 / k
                    dense[ids[i], ids[i + k]] += weight
                    dense[ids[i + k], ids[i]] += weight
    return vocab, dense


corpora = st.lists(st.lists(st.sampled_from("abcdefg"), max_size=9), min_size=1, max_size=7)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(docs=corpora, window=st.integers(1, 5), min_count=st.integers(1, 3),
       weighting=st.sampled_from(["flat", "harmonic"]))
@example(docs=[[], ["a"], ["a", "b", "a"], ["b"], []], window=5, min_count=1,
         weighting="harmonic")
def test_counts_match_brute_force(docs, window, min_count, weighting):
    vocab, dense = brute_force_counts(docs, window, min_count, weighting)
    if not vocab or not dense.any():
        with pytest.raises(CorpusError):
            count_cooccurrences(docs, window, min_count, weighting)
        return
    counts = count_cooccurrences(docs, window, min_count, weighting)
    assert counts.vocab == vocab
    if weighting == "flat":  # integer sums, exact in any order
        assert np.array_equal(counts.counts.toarray(), dense)
        assert counts.total == dense.sum()
    else:
        np.testing.assert_allclose(counts.counts.toarray(), dense, rtol=1e-13, atol=0)
        assert counts.total == pytest.approx(dense.sum(), rel=1e-13, abs=0)


class TestCountsRecord:
    def test_total_is_the_sum_of_the_cells(self, rng):
        raw = rng.random((6, 6))
        counts = dense_counts(raw + raw.T)
        assert counts.total == counts.counts.sum()

    @pytest.mark.parametrize("cell", [0.0, -1.0, np.nan])
    def test_total_must_be_positive(self, cell):
        with pytest.raises(PreconditionError, match="counts total must be positive"):
            dense_counts([[0.0, cell], [cell, 0.0]])


class TestSignalMatrices:
    def test_pmi_hand_value(self):
        counts = dense_counts([[0.0, 1.0], [1.0, 0.0]])
        pmi = pmi_matrix(counts)
        dense = pmi.toarray()
        assert dense[0, 1] == pytest.approx(np.log(2.0), rel=1e-15)

    def test_pmi_zero_cells_stay_zero(self):
        counts = dense_counts([[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        dense = pmi_matrix(counts).toarray()
        assert dense[0, 2] == 0.0

    def test_pmi_matches_dense_formula(self, rng):
        raw = rng.integers(0, 6, size=(12, 12)).astype(float)
        raw = raw + raw.T
        np.fill_diagonal(raw, 0.0)
        counts = dense_counts(raw)
        dense = pmi_matrix(counts).toarray()

        total = raw.sum()
        rowsums = raw.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = np.log(raw * total / np.outer(rowsums, rowsums))
        expected[~np.isfinite(expected)] = 0.0
        expected[expected < 0] = 0.0
        np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-12)

    def test_log_count_values(self, rng):
        raw = rng.integers(0, 5, size=(8, 8)).astype(float)
        raw = raw + raw.T
        counts = dense_counts(raw)
        dense = log_count_matrix(counts).toarray()
        np.testing.assert_allclose(dense, np.log1p(raw), rtol=0, atol=1e-15)

    def test_log_count_fractional(self):
        value = np.e - 1.0
        counts = dense_counts([[0.0, value], [value, 0.0]])
        dense = log_count_matrix(counts).toarray()
        assert dense[0, 1] == pytest.approx(1.0, rel=1e-15)

    def test_signals_preserve_symmetry_and_sign(self, rng):
        raw = rng.integers(0, 4, size=(10, 10)).astype(float)
        raw = raw + raw.T
        counts = dense_counts(raw)
        for sig in (pmi_matrix(counts), log_count_matrix(counts)):
            dense = sig.toarray()
            np.testing.assert_allclose(dense, dense.T, atol=0)
            assert np.all(dense >= 0.0)


class TestTruncatedSvd:
    def test_diagonal_signal(self):
        sig = signal_of(np.diag([3.0, 2.0, 1.0]))
        factors = truncated_svd(sig, 2)
        np.testing.assert_allclose(factors.S, [3.0, 2.0], atol=1e-12)
        # U columns are coordinate axes, each signed positive
        np.testing.assert_allclose(factors.U, [[1, 0], [0, 1], [0, 0]], atol=1e-10)
        np.testing.assert_allclose(factors.Vt, [[1, 0, 0], [0, 1, 0]], atol=1e-10)

    def test_random_symmetric_matches_dense(self, rng):
        a = rng.standard_normal((200, 200))
        m = (a + a.T) / 2.0
        sig = signal_of(m)
        factors = truncated_svd(sig, 20)
        dense_s = np.linalg.svd(m, compute_uv=False)[:20]
        np.testing.assert_allclose(factors.S, dense_s, rtol=1e-6)

    def test_full_rank_reconstruction(self, rng):
        m = rng.standard_normal((40, 40))
        sig = signal_of(m)
        factors = truncated_svd(sig, 40)
        recon = factors.U * factors.S @ factors.Vt
        assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-8

    def test_orthonormal_columns(self, rng):
        m = rng.standard_normal((60, 60))
        sig = signal_of((m + m.T) / 2.0)
        factors = truncated_svd(sig, 10)
        gram = factors.U.T @ factors.U
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)
        assert np.all(np.diff(factors.S) <= 1e-12)
        assert np.all(factors.S >= 0.0)

    @pytest.mark.parametrize("d", [12, 40], ids=["arpack", "dense"])
    def test_sign_convention(self, rng, d):
        # The largest-magnitude entry of each column of U is positive, and
        # Vt carries the same signs, so A·vₖ = sₖ·uₖ and U·diag(S)·Vt is
        # the signal's best rank-d approximation.
        m = rng.standard_normal((40, 40))
        factors = truncated_svd(signal_of(m), d)
        columns = np.arange(d)
        assert np.all(factors.U[np.argmax(np.abs(factors.U), axis=0), columns] > 0)
        np.testing.assert_allclose(m @ factors.Vt.T, factors.U * factors.S, atol=1e-10)
        u, s, vt = np.linalg.svd(m)
        np.testing.assert_allclose((factors.U * factors.S) @ factors.Vt,
                                   (u[:, :d] * s[:d]) @ vt[:d], atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2], ids=["arpack", "dense"])
    def test_all_zero_signal(self, d):
        # Every pair co-occurs exactly as often as independence predicts, so
        # every PMI is 0 and the positive-PMI signal is empty; a stored zero
        # is no entry either.
        docs = tokenize_corpus_text("a b\nb a\na a\nb b\n")
        empty = pmi_matrix(count_cooccurrences(docs, window=1, min_count=1))
        stored_zeros = sparse.csr_array((np.zeros(2), ([0, 1], [1, 0])))
        assert stored_zeros.nnz == 2
        for signal in (empty, stored_zeros):
            with pytest.raises(DegenerateInputError, match="no non-zero entry"):
                truncated_svd(signal, d)

    def test_deterministic(self, rng):
        m = rng.standard_normal((50, 50))
        sig = signal_of(m)
        f1 = truncated_svd(sig, 8)
        f2 = truncated_svd(sig, 8)
        np.testing.assert_array_equal(f1.U, f2.U)
        np.testing.assert_array_equal(f1.S, f2.S)

    def test_d_out_of_range(self, rng):
        raw = rng.random((10, 10))
        counts = dense_counts(raw + raw.T)
        message = "need 1 <= dim <= vocabulary size 10, got dim={}"
        for d in (0, 11):
            with pytest.raises(DimensionError) as exc:
                truncated_svd(pmi_matrix(counts), d)
            assert str(exc.value) == message.format(d)
        with pytest.raises(DimensionError) as exc:
            train_spectral_embedding(counts, "pmi", 11)
        assert str(exc.value) == message.format(11)

    def test_corpus_signal_components_are_exact(self):
        # Every returned triplet, the tail included, must be exact to
        # roundoff, not only the well-separated leading values.
        text = synthetic_corpus_text(30000, vocab_size=400, seed=13)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        signal = pmi_matrix(counts)
        d = 40
        factors = truncated_svd(signal, d)
        av = signal @ factors.Vt.T
        residuals = np.linalg.norm(av - factors.U * factors.S, axis=0) / factors.S
        assert np.max(residuals) <= 1e-10
        dense_s = np.linalg.svd(signal.toarray(), compute_uv=False)
        np.testing.assert_allclose(factors.S[-10:], dense_s[d - 10:d], rtol=1e-10)

    def test_truncation_error_is_optimal(self, rng):
        # The truncation residual must match the dense oracle's optimal
        # rank-d error, which equals the tail singular values' norm.
        b = rng.standard_normal((120, 15)) * np.linspace(1.0, 0.05, 15)
        m = b @ b.T + 0.01 * rng.standard_normal((120, 120))
        sig = signal_of(m)
        d = 10
        factors = truncated_svd(sig, d)
        residual = np.linalg.norm(m - (factors.U * factors.S) @ factors.Vt)
        dense_s = np.linalg.svd(m, compute_uv=False)
        optimal = np.linalg.norm(dense_s[d:])
        assert residual == pytest.approx(optimal, rel=1e-6)


class TestSvdEmbedding:
    def test_hand_example(self):
        factors = SvdFactors(U=np.eye(3)[:, :2], S=np.array([4.0, 1.0]), Vt=np.eye(3)[:2])
        emb = svd_embedding(factors, ("a", "b", "c"))
        np.testing.assert_allclose(emb.matrix, [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                                   atol=0)
        assert emb.vocab == ("a", "b", "c")

    def test_gram_is_diagonal_of_singular_values(self, rng):
        m = rng.standard_normal((30, 30))
        sig = signal_of((m + m.T) / 2.0)
        factors = truncated_svd(sig, 6)
        emb = svd_embedding(factors, tuple(f"t{i}" for i in range(30)))
        np.testing.assert_allclose(emb.matrix.T @ emb.matrix, np.diag(factors.S),
                                   atol=1e-8)

    def test_negative_singular_value_clamped(self):
        with pytest.warns(UserWarning):
            emb = svd_embedding(SvdFactors(U=np.eye(2), S=np.array([1.0, -1e-12]),
                                           Vt=np.eye(2)), ("a", "b"))
        assert emb.matrix[1, 1] == 0.0

    def test_end_to_end_best_rank_d(self):
        text = synthetic_corpus_text(15000, vocab_size=150, seed=7)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        signal = pmi_matrix(counts)
        d = 6
        dense = signal.toarray()
        # The identity below requires the d largest-magnitude eigenvalues of
        # this corpus's signal to be positive; verify before relying on it.
        eigenvalues = np.linalg.eigvalsh(dense)
        by_magnitude = eigenvalues[np.argsort(np.abs(eigenvalues))[::-1]]
        assert np.all(by_magnitude[:d] > 0)

        factors = truncated_svd(signal, d)
        emb = svd_embedding(factors, counts.vocab)
        gram = emb.matrix @ emb.matrix.T

        u, s, vt = np.linalg.svd(dense)
        best = u[:, :d] * s[:d] @ vt[:d]
        assert (
            np.linalg.norm(gram - best) / np.linalg.norm(best) < 1e-6
        )


class TestTrainPipeline:
    def test_deterministic_end_to_end(self):
        text = synthetic_corpus_text(8000, vocab_size=120, seed=9)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        e1 = train_spectral_embedding(counts, signal="pmi", dim=16)
        e2 = train_spectral_embedding(counts, signal="pmi", dim=16)
        assert e1.vocab == e2.vocab
        np.testing.assert_array_equal(e1.matrix, e2.matrix)

    def test_signals_differ(self):
        text = synthetic_corpus_text(8000, vocab_size=120, seed=9)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        pmi = train_spectral_embedding(counts, signal="pmi", dim=16)
        lc = train_spectral_embedding(counts, signal="logcount", dim=16)
        assert pmi.vocab == lc.vocab
        assert not np.allclose(pmi.matrix, lc.matrix)

    def test_dim_exceeds_vocab(self):
        counts = count_cooccurrences([["a", "b", "a", "b"]], window=2, min_count=1)
        with pytest.raises(DimensionError):
            train_spectral_embedding(counts, signal="pmi", dim=10)

    def test_last_bit_change_flips_no_component(self):
        # Without a sign convention ARPACK flips about half the components of
        # this signal when 5% of its cells move by one ulp.
        text = synthetic_corpus_text(15000, vocab_size=150, seed=11)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        signal = pmi_matrix(counts)
        nudged = signal.copy()
        hit = np.random.default_rng(0).random(nudged.nnz) < 0.05
        nudged.data[hit] = np.nextafter(nudged.data[hit], np.inf)
        a = svd_embedding(truncated_svd(signal, 20), counts.vocab).matrix
        b = svd_embedding(truncated_svd(nudged, 20), counts.vocab).matrix
        assert np.all(np.sum(a * b, axis=0) > 0)
        assert np.max(np.abs(a - b)) <= 1e-10


class TestCountsPersistence:
    def test_round_trip(self, tmp_path):
        text = synthetic_corpus_text(3000, vocab_size=50, seed=12)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=4, min_count=2)
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert (tmp_path / "counts.txt.vocab").exists()

        back = load_counts(path)
        assert back.vocab == counts.vocab
        assert back.window == counts.window
        assert back.min_count == counts.min_count
        assert back.total == pytest.approx(counts.total, rel=1e-12)
        assert (back.counts != counts.counts).nnz == 0

    def test_round_trip_harmonic(self, tmp_path):
        counts = count_cooccurrences([["a", "b", "c", "a"]], window=3, min_count=1,
                                     weighting="harmonic")
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        back = load_counts(path)
        np.testing.assert_allclose(back.counts.toarray(), counts.counts.toarray(),
                                   rtol=0, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(docs=corpora, window=st.integers(1, 4), weighting=st.sampled_from(["flat", "harmonic"]))
@example(docs=[["a", "c"], ["a", "b", "b", "c"], ["c", "b", "b", "a", "b", "b", "c"]],
         window=3, weighting="harmonic")
def test_counts_survive_save_and_load(tmp_path_factory, docs, window, weighting):
    try:
        counts = count_cooccurrences(docs, window, 1, weighting)
    except CorpusError:
        return
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    save_counts(counts, path)
    back = load_counts(path)
    assert (back.vocab, back.window, back.min_count) == (counts.vocab, window, 1)
    np.testing.assert_array_equal(back.counts.indptr, counts.counts.indptr)
    np.testing.assert_array_equal(back.counts.indices, counts.counts.indices)
    # The file holds the upper triangle, so this holds only for exactly symmetric counts.
    np.testing.assert_array_equal(back.counts.data, counts.counts.data)
    assert back.total == counts.total


class TestLoadCountsErrors:
    def write_counts(self, tmp_path, body):
        path = tmp_path / "counts.txt"
        path.write_text(body, encoding="utf-8")
        (tmp_path / "counts.txt.vocab").write_text("a\nb\n", encoding="utf-8")
        return path

    def test_non_integer_header(self, tmp_path):
        path = self.write_counts(tmp_path, "# window x\n# min_count 1\n0 1 2\n")
        with pytest.raises(ParseError, match=r"counts\.txt:1: window must be an integer"):
            load_counts(path)

    @pytest.mark.parametrize("body, where", [
        ("# window -3\n# min_count 1\n0 1 2\n", ":1: window must be an integer >= 1, got '-3'"),
        ("# window 2\n\n# min_count 0\n0 1 2\n", ":3: min_count must be an integer >= 1"),
        ("# window 2\n# min_count 1.5\n0 1 2\n", ":2: min_count must be an integer >= 1"),
    ], ids=["negative_window", "zero_min_count", "fractional_min_count"])
    def test_header_value_below_one(self, tmp_path, body, where):
        path = self.write_counts(tmp_path, body)
        with pytest.raises(ParseError, match=rf"counts\.txt{where}"):
            load_counts(path)

    @pytest.mark.parametrize("body, missing", [
        ("0 1 2\n", "window"),
        ("# min_count 1\n0 1 2\n", "window"),
        ("# window 2\n0 1 2\n", "min_count"),
    ], ids=["neither", "no_window", "no_min_count"])
    def test_missing_header_line(self, tmp_path, body, missing):
        path = self.write_counts(tmp_path, body)
        with pytest.raises(ParseError, match=rf"counts\.txt: no '# {missing} N' line"):
            load_counts(path)

    def test_saved_file_bytes_and_header(self, tmp_path):
        counts = count_cooccurrences([["a", "b", "a"]], window=2, min_count=1)
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_text(encoding="utf-8") == (
            "# window 2\n# min_count 1\n0 0 2\n0 1 2\n")
        back = load_counts(path)
        assert (back.window, back.min_count) == (2, 1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-2"])
    def test_non_finite_or_negative_count(self, tmp_path, value):
        path = self.write_counts(tmp_path, f"# window 2\n0 1 2\n1 1 {value}\n")
        with pytest.raises(ParseError, match=r"counts\.txt:3: count must be finite and >= 0"):
            load_counts(path)

    @pytest.mark.parametrize("body, where", [
        ("0 1 2\n0 1 2\n", "2: cell 0 1"),
        ("# window 2\n0 1 2\n1 1 3\n\n0 0 1\n1 1 0.5\n0 1 2\n", "6: cell 1 1"),
    ], ids=["adjacent", "first_repeat_in_file_order"])
    def test_repeated_cell(self, tmp_path, body, where):
        path = self.write_counts(tmp_path, body)
        with pytest.raises(ParseError, match=rf"counts\.txt:{where} listed twice"):
            load_counts(path)

    @pytest.mark.parametrize("sidecar, lineno", [("a\nb\na\n", 3), ("a\n\nb\na\n", 4)])
    def test_duplicate_vocab_word(self, tmp_path, sidecar, lineno):
        path = self.write_counts(tmp_path, "0 1 2\n")
        (tmp_path / "counts.txt.vocab").write_text(sidecar, encoding="utf-8")
        with pytest.raises(ParseError,
                           match=rf"counts\.txt\.vocab:{lineno}: duplicate word 'a'"):
            load_counts(path)

    @pytest.mark.parametrize("word", ["a b", "a\t", "a\x0cb"])
    def test_vocab_word_with_whitespace(self, tmp_path, word):
        path = self.write_counts(tmp_path, "0 1 2\n")
        (tmp_path / "counts.txt.vocab").write_text(f"a\n\n{word}\n", encoding="utf-8")
        with pytest.raises(ParseError,
                           match=r"counts\.txt\.vocab:3: word contains whitespace"):
            load_counts(path)
