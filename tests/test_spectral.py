import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.linalg
from scipy import sparse

import rpd.spectral
from _corpus import synthetic_corpus_text
from _oracle import (assert_saved_exactly, per_line_counts_text, per_offset_counts,
                     read_saved_counts)
from rpd import (
    CooccurrenceCounts,
    CorpusError,
    DegenerateInputError,
    DimensionError,
    PreconditionError,
    SvdFactors,
    count_cooccurrences,
    log_count_matrix,
    pmi_matrix,
    save_counts,
    svd_embedding,
    tokenize_corpus_text,
    train_spectral_embedding,
    truncated_svd,
)
from rpd.spectral import WEIGHTINGS


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


def symmetric(m):
    return (m + m.T) / 2.0


def right_vectors(signal, factors):
    """The right singular vectors of ``factors``, as rows: Uᵀ·A / S."""
    return (signal.T @ factors.U).T / factors.S[:, None]


@pytest.fixture
def dstein_blocks(monkeypatch):
    """The tridiagonal blocks of each ``dstein`` call's eigenvalues, one set per call.

    Bisection with inverse iteration calls ``dstein``; divide and conquer
    does not, so an empty list names the divide-and-conquer branch.
    """
    blocks = []
    dstein = scipy.linalg.lapack.dstein

    def spy(diag, off, w, iblock, isplit):
        blocks.append(set(iblock[:w.size].tolist()))
        return dstein(diag, off, w, iblock, isplit)

    monkeypatch.setattr(scipy.linalg.lapack, "dstein", spy)
    return blocks


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
        with pytest.raises(PreconditionError, match="^min_count must be >= 1, got 0$"):
            count_cooccurrences([["a", "b"]], window=1, min_count=0)
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


def test_documents_share_one_str_per_word():
    docs = tokenize_corpus_text("The cat\nthe CAT the\n")
    assert docs == [["the", "cat"], ["the", "cat", "the"]]
    assert docs[0][0] is docs[1][0] is docs[1][2] and docs[0][1] is docs[1][1]


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


def assert_counts_match_oracle(counts, oracle, weighting, rtol):
    """Flat counts are bit-identical to the per-offset sum; harmonic ones hold
    the same cells, within ``rtol``."""
    assert counts.vocab == oracle.vocab
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(counts.counts, name), getattr(oracle.counts, name))
    if weighting == "flat":
        assert np.array_equal(counts.counts.data, oracle.counts.data)
        assert counts.total == oracle.total
    else:
        np.testing.assert_allclose(counts.counts.data, oracle.counts.data, rtol=rtol, atol=0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(docs=st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=40), min_size=1,
                     max_size=8),
       window=st.integers(1, 10), min_count=st.integers(1, 3),
       weighting=st.sampled_from(WEIGHTINGS))
def test_counts_match_per_offset_oracle(docs, window, min_count, weighting):
    # 3000 random corpora of this kind differed from the oracle by at most
    # 4.5e-16 relative with harmonic weights.
    try:
        counts = count_cooccurrences(docs, window, min_count, weighting)
    except CorpusError:
        return
    oracle = per_offset_counts(docs, window, min_count, weighting)
    assert_counts_match_oracle(counts, oracle, weighting, rtol=2e-15)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_corpus_counts_match_per_offset_oracle(weighting):
    # The oracle adds each offset's 1/k once per pair, so its harmonic cells
    # carry more rounding than the counter's; measured 2.6e-15 relative here.
    docs = tokenize_corpus_text(synthetic_corpus_text(30000, vocab_size=300, seed=0))
    assert_counts_match_oracle(count_cooccurrences(docs, 10, 1, weighting),
                               per_offset_counts(docs, 10, 1, weighting), weighting, rtol=1e-14)


@pytest.mark.parametrize("weighting", WEIGHTINGS)
def test_int64_keys_match_per_offset_oracle(weighting):
    # Beyond 46,340 kept words the cell keys i·n + j no longer fit int32.
    n = 46_400
    words = [f"w{i}" for i in range(n)]
    tokens = words + [words[i] for i in np.random.default_rng(0).integers(n, size=20_000)]
    docs = [tokens[i:i + 50] for i in range(0, len(tokens), 50)]
    counts = count_cooccurrences(docs, 3, 1, weighting)
    assert len(counts.vocab) ** 2 >= 2**31
    assert_counts_match_oracle(counts, per_offset_counts(docs, 3, 1, weighting), weighting,
                               rtol=2e-15)


class TestCountsRecord:
    def test_total_is_the_sum_of_the_cells(self, rng):
        raw = rng.random((6, 6))
        counts = dense_counts(raw + raw.T)
        assert counts.total == counts.counts.sum()

    @pytest.mark.parametrize("cell", [0.0, -1.0, np.nan])
    def test_total_must_be_positive(self, cell):
        with pytest.raises(PreconditionError, match="counts total must be positive"):
            dense_counts([[0.0, cell], [cell, 0.0]])

    @pytest.mark.parametrize("token, message", [
        ("\udc80", "vocabulary entry must encode as UTF-8, got '\\udc80'"),
        ("a b", "vocabulary entry must be a word without whitespace, got 'a b'"),
    ], ids=["lone_surrogate", "space"])
    def test_vocabulary_entries_must_be_words(self, token, message):
        # Raised on construction, so save_counts never writes half a counts file.
        with pytest.raises(PreconditionError) as exc:
            count_cooccurrences([[token, "a", "b", "a", "b"]] * 3, window=2, min_count=1)
        assert str(exc.value) == message


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
        # The right singular vectors are the rows of Uᵀ·A / S.
        np.testing.assert_allclose(right_vectors(sig, factors), [[1, 0, 0], [0, 1, 0]],
                                   atol=1e-10)

    def test_random_symmetric_matches_dense(self, rng):
        a = rng.standard_normal((200, 200))
        m = (a + a.T) / 2.0
        sig = signal_of(m)
        factors = truncated_svd(sig, 20)
        dense_s = np.linalg.svd(m, compute_uv=False)[:20]
        np.testing.assert_allclose(factors.S, dense_s, rtol=1e-6)

    def test_full_rank_reconstruction(self, rng):
        m = symmetric(rng.standard_normal((40, 40)))
        sig = signal_of(m)
        factors = truncated_svd(sig, 40)
        recon = factors.U @ (factors.U.T @ m)
        assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-8
        vt = right_vectors(sig, factors)
        np.testing.assert_allclose(vt @ vt.T, np.eye(40), atol=1e-8)

    def test_orthonormal_columns(self, rng):
        m = rng.standard_normal((60, 60))
        sig = signal_of((m + m.T) / 2.0)
        factors = truncated_svd(sig, 10)
        gram = factors.U.T @ factors.U
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)
        assert np.all(np.diff(factors.S) <= 1e-12)
        assert np.all(factors.S >= 0.0)

    @pytest.mark.parametrize("d", [5, 12, 40],
                             ids=["inverse-iteration", "divide-and-conquer", "full-rank"])
    def test_sign_convention(self, rng, d):
        # The largest-magnitude entry of each column of U is positive. The
        # signed columns are still singular vectors: the rows of Uᵀ·A / S are
        # orthonormal, and U·Uᵀ·A is the signal's best rank-d approximation.
        m = symmetric(rng.standard_normal((40, 40)))
        factors = truncated_svd(signal_of(m), d)
        columns = np.arange(d)
        assert np.all(factors.U[np.argmax(np.abs(factors.U), axis=0), columns] > 0)
        vt = right_vectors(m, factors)
        np.testing.assert_allclose(vt @ vt.T, np.eye(d), atol=1e-10)
        u, s, vt = np.linalg.svd(m)
        np.testing.assert_allclose(factors.U @ (factors.U.T @ m),
                                   (u[:, :d] * s[:d]) @ vt[:d], atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2], ids=["partial", "full-rank"])
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
        m = symmetric(rng.standard_normal((50, 50)))
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
        # With vₖ = Aᵀuₖ / sₖ, ‖A·vₖ − sₖ·uₖ‖ is uₖ's residual as an
        # eigenvector of A·Aᵀ, scaled by 1/sₖ.
        av = signal @ right_vectors(signal, factors).T
        residuals = np.linalg.norm(av - factors.U * factors.S, axis=0) / factors.S
        assert np.max(residuals) <= 1e-12
        dense_s = np.linalg.svd(signal.toarray(), compute_uv=False)
        np.testing.assert_allclose(factors.S[-10:], dense_s[d - 10:d], rtol=1e-10)

    def test_truncation_error_is_optimal(self, rng):
        # The truncation residual must match the dense oracle's optimal
        # rank-d error, which equals the tail singular values' norm.
        b = rng.standard_normal((120, 15)) * np.linspace(1.0, 0.05, 15)
        m = b @ b.T + 0.01 * symmetric(rng.standard_normal((120, 120)))
        sig = signal_of(m)
        d = 10
        factors = truncated_svd(sig, d)
        residual = np.linalg.norm(m - factors.U @ (factors.U.T @ m))
        dense_s = np.linalg.svd(m, compute_uv=False)
        optimal = np.linalg.norm(dense_s[d:])
        assert residual == pytest.approx(optimal, rel=1e-6)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, rng, value):
        m = symmetric(rng.standard_normal((6, 6)))
        m[2, 3] = m[3, 2] = value
        with pytest.raises(PreconditionError, match="^signal matrix has non-finite entries$"):
            truncated_svd(signal_of(m), 3)

    def test_non_symmetric_signal_rejected(self, rng):
        m = symmetric(rng.standard_normal((6, 6)))
        m[0, 1] += 1e-9
        for bad in (m, m[:, :5]):
            with pytest.raises(PreconditionError, match="signal matrix is not symmetric"):
                truncated_svd(signal_of(bad), 3)

    @pytest.mark.parametrize("dense_max_n", [rpd.spectral._DENSE_MAX_N, 0],
                             ids=["dense", "eigsh"])
    def test_negative_eigenvalues_selected_by_magnitude(self, monkeypatch, dense_max_n):
        # A symmetric signal's singular values are its |λ|: the eigenvalue −5
        # comes first and −2 beats 1. Each axis is signed positive. Integer
        # cells are solved in float64.
        monkeypatch.setattr(rpd.spectral, "_DENSE_MAX_N", dense_max_n)
        sig = sparse.csr_array(np.diag([3, -5, 1, -2]))
        factors = truncated_svd(sig, 3)
        np.testing.assert_allclose(factors.S, [5.0, 3.0, 2.0], rtol=1e-14)
        np.testing.assert_allclose(factors.U, np.eye(4)[:, [1, 0, 3]], atol=1e-14)
        # ARPACK cannot solve d = n; that request takes the dense path.
        np.testing.assert_allclose(truncated_svd(sig, 4).S, [5.0, 3.0, 2.0, 1.0], rtol=1e-14)
        one = truncated_svd(signal_of([[-2.0]]), 1)
        assert one.S.tolist() == [2.0] and one.U.tolist() == [[1.0]]

    @pytest.mark.parametrize("d", [16, 17], ids=["inverse-iteration", "divide-and-conquer"])
    def test_dense_drivers_match_known_eigenpairs(self, rng, dstein_blocks, d):
        # n = 200: inverse iteration while 12·d ≤ n (up to d = 16), divide and
        # conquer above. The spectrum mixes signs, and its magnitudes are 1/200 apart.
        n = 200
        lam = rng.permutation(np.linspace(1.0, 2.0, n)) * rng.choice([-1.0, 1.0], n)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        factors = truncated_svd(signal_of(symmetric((q * lam) @ q.T)), d)
        assert bool(dstein_blocks) == (d == 16)
        top = np.argsort(-np.abs(lam))[:d]
        np.testing.assert_allclose(factors.S, np.abs(lam[top]), rtol=1e-13)
        expected = q[:, top] * np.sign(np.sum(q[:, top] * factors.U, axis=0))
        np.testing.assert_allclose(factors.U, expected, atol=1e-12)
        np.testing.assert_allclose(factors.U.T @ factors.U, np.eye(d), rtol=0, atol=1e-13)

    # n = 64: inverse iteration up to d = 5, divide and conquer above.
    @pytest.mark.parametrize("d", [5, 6], ids=["inverse-iteration", "divide-and-conquer"])
    @pytest.mark.parametrize("case", ["blocks", "no-negative", "all-negative"])
    def test_dense_edges_match_eigh(self, rng, dstein_blocks, case, d):
        # Magnitudes 1/64 apart, so every chosen eigenvector is defined up to sign.
        n = 64
        magnitude = np.linspace(3.0, 1.0, n)
        if case == "blocks":
            # Four 16×16 blocks: the tridiagonal form splits into four, and the
            # chosen eigenvalues lie in more than one.
            sign = rng.choice([-1.0, 1.0], n)
            lam = rng.permutation(magnitude * sign)
            m = np.zeros((n, n))
            for b in range(0, n, 16):
                q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
                m[b:b + 16, b:b + 16] = (q * lam[b:b + 16]) @ q.T
        else:
            # The d largest |λ| all positive (q = 0) or all negative (q = d);
            # the rest have both signs.
            sign = np.r_[np.full(d, 1.0 if case == "no-negative" else -1.0),
                         rng.choice([-1.0, 1.0], n - d)]
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = (q * (magnitude * sign)) @ q.T
        m = symmetric(m)
        factors = truncated_svd(signal_of(m), d)
        found = set().union(*dstein_blocks)
        assert not found if d == 6 else (len(found) > 1) == (case == "blocks")
        w, v = np.linalg.eigh(m)
        top = np.argsort(-np.abs(w), kind="stable")[:d]
        if case != "blocks":
            assert np.count_nonzero(w[top] < 0) == (0 if case == "no-negative" else d)
        np.testing.assert_allclose(factors.S, np.abs(w[top]), rtol=1e-13)
        expected = v[:, top] * np.sign(np.sum(v[:, top] * factors.U, axis=0))
        np.testing.assert_allclose(factors.U, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [60, 59], ids=["inverse-iteration", "divide-and-conquer"])
    def test_tie_at_the_cut_keeps_the_negative(self, rng, dstein_blocks, n):
        # d = 5 takes 10, 9, 8, 7 and one of ±5: the negative one, as a stable
        # sort of the ascending spectrum by −|λ| does. The rest are below 1.
        # Inverse iteration while 12·d ≤ n (n = 60), divide and conquer at n = 59.
        lam = np.r_[10.0, 9.0, 8.0, 7.0, 5.0, -5.0, np.linspace(-0.9, 0.9, n - 6)]
        axes = rng.permutation(n)
        factors = truncated_svd(signal_of(np.diag(lam[np.argsort(axes)])), 5)
        assert bool(dstein_blocks) == (n == 60)
        np.testing.assert_array_equal(factors.S, [10.0, 9.0, 8.0, 7.0, 5.0])
        np.testing.assert_array_equal(factors.U, np.eye(n)[:, axes[[0, 1, 2, 3, 5]]])

    def test_eigsh_path_matches_dense_path(self, monkeypatch):
        text = synthetic_corpus_text(30000, vocab_size=350, seed=13)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        signal = pmi_matrix(counts)
        d = 20
        dense = truncated_svd(signal, d)
        monkeypatch.setattr(rpd.spectral, "_DENSE_MAX_N", signal.shape[0] - 1)
        arpack = truncated_svd(signal, d)
        np.testing.assert_allclose(arpack.S, dense.S, rtol=1e-13)
        np.testing.assert_allclose(arpack.U, dense.U, rtol=0, atol=1e-11)
        for factors in (dense, arpack):
            au = signal @ factors.U
            lam = np.sum(factors.U * au, axis=0)  # Rayleigh quotients, ±S
            np.testing.assert_allclose(np.abs(lam), factors.S, rtol=1e-13)
            assert np.max(np.linalg.norm(au - factors.U * lam, axis=0) / factors.S) <= 1e-12


class TestSvdEmbedding:
    def test_hand_example(self):
        factors = SvdFactors(U=np.eye(3)[:, :2], S=np.array([4.0, 1.0]))
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

    def test_negative_singular_value_rejected(self):
        with pytest.raises(PreconditionError, match="singular values must be nonnegative"):
            svd_embedding(SvdFactors(U=np.eye(2), S=np.array([1.0, -1e-12])), ("a", "b"))

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

    def test_unknown_signal(self):
        counts = count_cooccurrences([["a", "b", "a", "b"]], window=2, min_count=1)
        with pytest.raises(PreconditionError) as exc:
            train_spectral_embedding(counts, signal="svd", dim=1)
        assert str(exc.value) == "signal must be one of ('pmi', 'logcount'), got 'svd'"

    def test_last_bit_change_flips_no_component(self):
        # Without a sign convention ARPACK flips about half the components of
        # this signal when 5% of its cells move by one ulp.
        text = synthetic_corpus_text(15000, vocab_size=150, seed=11)
        counts = count_cooccurrences(tokenize_corpus_text(text), window=5, min_count=3)
        signal = pmi_matrix(counts)
        nudged = signal.copy()
        hit = np.random.default_rng(0).random(nudged.nnz) < 0.05
        nudged.data[hit] = np.nextafter(nudged.data[hit], np.inf)
        # Each nudged cell of the upper triangle takes its mirror along, so the
        # signal stays symmetric.
        upper = sparse.triu(nudged)
        nudged = sparse.csr_array(upper + sparse.triu(upper, k=1).T)
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
        assert_saved_exactly(path, counts)

    def test_round_trip_harmonic(self, tmp_path):
        counts = count_cooccurrences([["a", "b", "c", "a"]], window=3, min_count=1,
                                     weighting="harmonic")
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert_saved_exactly(path, counts)

    def test_saved_file_bytes_and_header(self, tmp_path):
        counts = count_cooccurrences([["a", "b", "a"]], window=2, min_count=1)
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_text(encoding="utf-8") == (
            "# window 2\n# min_count 1\n0 0 2\n0 1 2\n")
        assert read_saved_counts(path)[0] == {"window": 2, "min_count": 1}

    def test_harmonic_file_bytes(self, tmp_path):
        # Fractional counts print with 17 significant digits, so they parse back exactly.
        counts = count_cooccurrences([["a", "b", "c", "a", "d"]], window=3, min_count=1,
                                     weighting="harmonic")
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_bytes() == (
            b"# window 3\n# min_count 1\n"
            b"0 0 0.66666666666666663\n0 1 1.5\n0 2 1.5\n0 3 1\n"
            b"1 2 1\n1 3 0.33333333333333331\n2 3 0.5\n")
        assert (tmp_path / "counts.txt.vocab").read_bytes() == b"a\nb\nc\nd\n"

    # Blocks of two lines, ending in a partial block, and of 4096 lines, which
    # the corpus counts (19,290 lines) overflow; the other tests print in
    # blocks of the default size. A block of lines holds three values each.
    @pytest.mark.parametrize("block", [2, 4096])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_corpus_bytes_match_per_line_writer(self, tmp_path, monkeypatch, block, weighting):
        monkeypatch.setattr(rpd.spectral, "_PRINT_BLOCK", 3 * block)
        docs = tokenize_corpus_text(synthetic_corpus_text(20000, vocab_size=300, seed=3))
        counts = count_cooccurrences(docs, window=5, min_count=1, weighting=weighting)
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_bytes() == per_line_counts_text(counts)

    @pytest.mark.parametrize("block", [2, 4096])
    @pytest.mark.parametrize("value", [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -0.0],
                             ids=["2**53-1", "2**53", "2**53+2", "negative-zero"])
    def test_edge_counts_match_per_line_writer(self, tmp_path, monkeypatch, block, value):
        # One count at the edge of the integer path (2**53 is past it) beside
        # small ones; a stored negative zero prints as "-0".
        monkeypatch.setattr(rpd.spectral, "_PRINT_BLOCK", 3 * block)
        data = np.array([3.0, value, 3.0, 1.0, 1.0, value, 5.0])
        counts = CooccurrenceCounts(
            vocab=("a", "b", "c"), window=2, min_count=1,
            counts=sparse.csr_array((data, [1, 2, 0, 2, 0, 1, 2], [0, 2, 5, 7])))
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_bytes() == per_line_counts_text(counts)

    @pytest.mark.parametrize("block", [2, 4096])
    @pytest.mark.parametrize("fraction", [False, True], ids=["integral", "harmonic"])
    def test_chunk_boundaries_match_per_line_writer(self, tmp_path, monkeypatch, block,
                                                    fraction):
        # Indices and counts on each side of a digit and of a five-digit chunk,
        # in a vocabulary of more than 100,000 words; one fractional count
        # sends the whole file through the "%.17g" path.
        monkeypatch.setattr(rpd.spectral, "_PRINT_BLOCK", 3 * block)
        n = 100_002
        ids = [0, 9, 10, 99_999, 100_000, n - 1]
        values = [9.0, 10.0, 99_999.0, 100_000.0, 1e10, 2.0**53 - 1, 1.0]
        cells = [(i, j) for i in ids for j in ids if i <= j]
        upper = [values[k % len(values)] for k in range(len(cells))]
        if fraction:
            upper[3] = 0.5
        rows, cols = (np.array(c) for c in zip(*cells))
        below = rows < cols
        counts = CooccurrenceCounts(
            vocab=tuple(f"w{i}" for i in range(n)), window=2, min_count=1,
            counts=sparse.coo_array((np.r_[upper, np.array(upper)[below]],
                                     (np.r_[rows, cols[below]], np.r_[cols, rows[below]])),
                                    shape=(n, n)).tocsr())
        path = tmp_path / "counts.txt"
        save_counts(counts, path)
        assert path.read_bytes() == per_line_counts_text(counts)


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
    assert_saved_exactly(path, counts)
    # The file holds the upper triangle, so its mirror gives back the counts
    # only because they are exactly symmetric.
    upper = read_saved_counts(path)[1]
    assert ((upper + sparse.triu(upper, k=1).T) != counts.counts).nnz == 0
