"""Spectral embedding trainers: co-occurrence counting, PMI / log-count signals,
a truncated SVD, and the U·sqrt(S) embedding extraction.

The pipeline is:

    documents -> count_cooccurrences -> SIGNALS[signal]
              -> truncated_svd -> svd_embedding

Counts are symmetric sparse matrices over a frequency-filtered vocabulary;
their total is the sum of their cells. ``count_cooccurrences`` packs the pairs
of every window offset into cell keys, counts them with one sort, and adds the
forward counts to their transpose once, so the counts are exactly symmetric.
``SIGNALS`` names the two signals: positive PMI ("pmi") and log(1 + count)
("logcount"), both zero where the count is. Both signals are symmetric, so the
truncated SVD is a symmetric eigensolver: dense tridiagonalization up to
``_DENSE_MAX_N`` words, where each eigenvalue is found once, ``eigsh`` above.
A trained embedding is a function of the corpus, the options, the BLAS build,
its CPU kernel and its thread count: there is no seed, since the solver starts
from a fixed vector and fixes the sign of each component, but scipy's
OpenBLAS splits the dense solver's LAPACK steps by thread count. Results
repeat bit for bit on one machine at one thread count; between one and two
threads a 350-word, d = 50 embedding moved by up to 1.9e-13 of each column's
largest entry.
``save_counts`` exports the counts as text for other tools; rpd does not read
them back.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import CorpusError, DegenerateInputError, DimensionError, PreconditionError
from .store import _PRINT_BLOCK, EmbeddingMatrix, _check_words, _int_lines, _text_lines

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "CooccurrenceCounts",
    "SvdFactors",
    "count_cooccurrences",
    "log_count_matrix",
    "pmi_matrix",
    "read_corpus",
    "save_counts",
    "svd_embedding",
    "tokenize_corpus_text",
    "train_spectral_embedding",
    "truncated_svd",
]

WEIGHTINGS = ("flat", "harmonic")
# The dense eigensolver holds the n×n signal: at most 128 MiB.
_DENSE_MAX_N = 4096


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Symmetric word-context counts from a windowed corpus scan.

    ``vocab`` is ordered by descending corpus frequency (ties lexicographic)
    and excludes words below ``min_count``. ``counts[i, j]`` is the weighted
    number of times word j appeared within the window around word i, summed
    over both directions, so the matrix is exactly symmetric. ``total``,
    the sum of the cells, is derived. Construction raises
    ``PreconditionError`` unless ``total`` is positive and every entry of
    ``vocab`` is a word: a ``str`` without whitespace that UTF-8 encodes.
    """

    vocab: tuple[str, ...]
    counts: sparse.csr_array
    window: int
    min_count: int
    total: float = field(init=False)

    def __post_init__(self) -> None:
        _check_words(self.vocab, "vocabulary entry")
        object.__setattr__(self, "total", float(self.counts.sum()))
        if not self.total > 0.0:  # NaN fails too
            raise PreconditionError(f"counts total must be positive, got {self.total}")


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Truncated SVD factors; U has orthonormal columns, S is descending.

    The largest-magnitude entry of each column of U is positive (the first
    such row on a tie). No right singular vectors are kept: the embedding
    U·sqrt(S) needs none.
    """

    U: np.ndarray
    S: np.ndarray


def _documents(lines: Iterable[str], lowercase: bool) -> list[list[str]]:
    """One document per line that holds a token: its whitespace-split tokens,
    lowercased first when ``lowercase`` is set."""
    # One str object per distinct token: the documents hold references, not copies.
    one: dict[str, str] = {}
    return [[one.setdefault(t, t) for t in tokens]
            for line in lines if (tokens := (line.lower() if lowercase else line).split())]


def tokenize_corpus_text(text: str, lowercase: bool = True) -> list[list[str]]:
    """Whitespace-tokenize plain text into per-line documents.

    Each non-empty line becomes one document, so context windows never cross
    line boundaries. The lines are those ``open()`` reads from a file, as in
    every input file: they end only at ``\\r``, ``\\n`` or ``\\r\\n``, and
    ``\\x0c``, ``\\x85``, U+2028 and the like are whitespace.
    """
    return _documents(io.StringIO(text, newline=None), lowercase)


def read_corpus(path: str | Path, lowercase: bool = True) -> list[list[str]]:
    """Read a UTF-8 plain-text corpus as per-line documents.

    Raises:
        ParseError: a line holding bytes that are not valid UTF-8.
    """
    return _documents((t for _, t in _text_lines(Path(path))), lowercase)


def count_cooccurrences(
    documents: Iterable[Sequence[str]],
    window: int,
    min_count: int,
    weighting: str = "flat",
) -> CooccurrenceCounts:
    """Count co-occurrences within a symmetric window over each document.

    Every token position contributes one count (or 1/distance with harmonic
    weighting) for each neighbor within ``window`` positions on either side.
    Words with corpus frequency below ``min_count`` are removed first. The
    kept tokens form one id array beside the document of each; the pairs at
    offset k are positions i and i + k in one document. The forward pairs of
    every offset are packed into cell keys and counted with one sort, and the
    forward counts are added to their transpose once. Flat counts are exact
    integers; a harmonic cell divides each offset's integer tally by the
    offset and sums those terms in offset order.

    Args:
        documents: Iterable of token sequences; windows do not cross
            document boundaries.
        window: Maximum neighbor distance, >= 1.
        min_count: Minimum corpus frequency for a word to enter the
            vocabulary.
        weighting: "flat" (every neighbor counts 1) or "harmonic"
            (neighbor at distance k counts 1/k).

    Raises:
        PreconditionError: a document that is a ``str`` (its characters would
            count as tokens), or a kept token that is not a word.
        CorpusError: empty vocabulary after filtering, or no pairs at all.
    """
    if window < 1:
        raise PreconditionError(f"window must be >= 1, got {window}")
    if min_count < 1:
        raise PreconditionError(f"min_count must be >= 1, got {min_count}")
    if weighting not in WEIGHTINGS:
        raise PreconditionError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    # scipy is imported on use, here and below: most CLI calls never build a sparse matrix.
    from scipy import sparse

    docs = []
    for doc in documents:
        if isinstance(doc, str):
            raise PreconditionError("a document must be a sequence of tokens, not a str")
        docs.append(list(doc))
    freq = Counter(chain.from_iterable(docs))
    vocab = tuple(sorted((w for w, c in freq.items() if c >= min_count),
                         key=lambda w: (-freq[w], w)))
    if not vocab:
        raise CorpusError("no word reaches min_count; effective vocabulary is empty")
    index = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)

    ids = np.array([index.get(t, -1) for doc in docs for t in doc])
    doc_of = np.repeat(np.arange(len(docs), dtype=np.int32), [len(doc) for doc in docs])
    kept = ids >= 0
    forward = _forward_counts(ids[kept], doc_of[kept], n, window, weighting)
    # Each cell and its mirror add the same two floats, so the sum is exactly symmetric.
    counts = forward + forward.T

    if not counts.nnz:
        raise CorpusError("corpus produced no co-occurrence pairs")
    return CooccurrenceCounts(vocab=vocab, counts=counts, window=window, min_count=min_count)


def _forward_counts(ids: np.ndarray, doc_of: np.ndarray, n: int, window: int,
                    weighting: str) -> sparse.csr_array:
    """The weighted counts of the pairs ``(ids[p], ids[p + k])`` that lie in
    one document, k = 1..window, as an n×n CSR matrix, from one sort.

    The pair (i, j) at offset k is the key ``(i·n + j)·s + k − 1``. s is 1 for
    flat weights, which count every offset alike, and the window for harmonic
    ones, so each offset's integer tally is divided by the offset once and a
    cell sums at most ``window`` rounded terms, in offset order. Sorted keys
    are CSR order. They are int32 wherever they fit, which halves the memory
    and the sort. Every temporary is freed on return, before the caller adds
    the transpose.
    """
    from scipy import sparse

    s = 1 if weighting == "flat" else window
    ids = ids.astype(np.int32 if n * n * s < 2**31 else np.int64)
    same_doc = [doc_of[:-k] == doc_of[k:] for k in range(1, window + 1)]
    keys = np.empty(sum(map(np.count_nonzero, same_doc)), dtype=ids.dtype)
    end = 0
    for k, same in enumerate(same_doc, 1):
        start, end = end, end + np.count_nonzero(same)
        keys[start:end] = (ids[:-k][same] * n + ids[k:][same]) * s + (k - 1) % s
    keys.sort()
    first = _runs(keys)
    data = np.diff(first, append=keys.size) / (keys[first] % s + 1)
    keys = keys[first] // s
    if s > 1:
        first = _runs(keys)
        keys, data = keys[first], np.add.reduceat(data, first)
    # Index arrays of the keys' type: scipy keeps int64 ones, at twice the memory.
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n).astype(keys.dtype)
    return sparse.csr_array((data, keys % n, indptr), shape=(n, n))


def _runs(ordered: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal values."""
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def pmi_matrix(counts: CooccurrenceCounts) -> sparse.csr_array:
    """Positive pointwise mutual information of the counts.

    ``PMI(i, j) = log(count(i, j) * total / (rowsum(i) * rowsum(j)))`` for
    nonzero cells; zero-count cells and negative values are stored as zero,
    which keeps the matrix sparse and nonnegative.
    """
    from scipy import sparse

    c = counts.counts
    rowsums = np.asarray(c.sum(axis=1)).ravel()
    rows = np.repeat(np.arange(c.shape[0]), np.diff(c.indptr))
    values = np.log(c.data * counts.total / (rowsums[rows] * rowsums[c.indices]))
    values[~(values > 0.0)] = 0.0
    # eliminate_zeros works in place: the counts keep their own index arrays.
    matrix = sparse.csr_array((values, c.indices.copy(), c.indptr.copy()), shape=c.shape)
    matrix.eliminate_zeros()
    return matrix


def log_count_matrix(counts: CooccurrenceCounts) -> sparse.csr_array:
    """log(1 + count) signal; zero counts stay zero, preserving sparsity."""
    from scipy import sparse

    c = counts.counts
    return sparse.csr_array((np.log1p(c.data), c.indices.copy(), c.indptr.copy()),
                            shape=c.shape)


SIGNALS = {"pmi": pmi_matrix, "logcount": log_count_matrix}


def truncated_svd(matrix: sparse.csr_array, d: int) -> SvdFactors:
    """The top ``d`` singular values of a symmetric sparse signal matrix,
    descending, and their left singular vectors.

    A symmetric matrix's singular values are the magnitudes of its
    eigenvalues, and its eigenvectors are its singular vectors, so this is a
    symmetric eigensolver for the ``d`` eigenvalues of largest magnitude,
    negative ones included: dense tridiagonalization up to ``_DENSE_MAX_N``
    words (or for ``d`` equal to the vocabulary size, which ARPACK cannot
    solve), ``eigsh`` above, from a fixed standard-normal start vector. Both
    paths solve to working precision and return no right vectors. Each
    component is signed so that the largest-magnitude entry of its column of
    U is positive (scikit-learn's ``svd_flip``), so the factors depend on the
    matrix and ``d`` alone, not on roundoff that flips a component. Only this
    function checks ``1 <= d <= min(shape)``, the vocabulary size.

    Raises:
        PreconditionError: a non-finite or non-symmetric signal.
        DegenerateInputError: the signal has no non-zero entry (for example a
            positive-PMI signal where every pair co-occurs exactly as often as
            independence predicts).
    """
    # Imported on use: every CLI call imports the package, few of them solve.
    from scipy.sparse.linalg import eigsh

    n = min(matrix.shape)
    if not 1 <= d <= n:
        raise DimensionError(f"need 1 <= dim <= vocabulary size {n}, got dim={d}")
    if not np.all(np.isfinite(matrix.data)):
        raise PreconditionError("signal matrix has non-finite entries")
    if matrix.shape[0] != matrix.shape[1] or (matrix != matrix.T).nnz:
        raise PreconditionError("signal matrix is not symmetric")
    if not matrix.count_nonzero():
        raise DegenerateInputError("signal matrix has no non-zero entry: nothing to factorize")

    if n <= _DENSE_MAX_N or d == n:
        lam, u = _dense_eigenpairs(matrix, d)
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        lam, u = eigsh(matrix, k=d, which="LM", v0=v0)
    order = np.argsort(-np.abs(lam), kind="stable")
    u = u[:, order]
    signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(d)] < 0, -1.0, 1.0)
    return SvdFactors(U=u * signs, S=np.abs(lam[order]))


def _dense_eigenpairs(matrix: sparse.csr_array, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``d`` eigenvalues of largest magnitude of a symmetric matrix and
    their eigenvectors, in no set order, from one dense reduction to
    tridiagonal form ``A = Q·T·Qᵀ``."""
    from scipy.linalg import eigh_tridiagonal, lapack

    n = matrix.shape[0]
    # The transpose of the C-ordered array is Fortran-ordered and equals A, so
    # dsytrd reduces it in place and leaves Q's reflectors below its subdiagonal.
    a = matrix.toarray().T.astype(np.float64, copy=False)
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    refl, diag, off, tau, info = lapack.dsytrd(a, lower=1, lwork=lwork, overwrite_a=1)
    assert info == 0 and np.shares_memory(refl, a)

    # The d largest |λ|, in the stable order truncated_svd sorts by, are the q
    # lowest (negative) and the d − q highest eigenvalues.
    if 12 * d <= n:
        # Inverse iteration needs n×d memory and is fast while d is small: it
        # overtakes stevd near n/d = 11 to 13 at n = 1000, 2000 and 4000.
        lam, z = _bisection_eigenpairs(diag, off, d)
    else:
        # Divide and conquer finds all n vectors faster than inverse iteration
        # finds many, and to tighter orthogonality than MRRR (stemr).
        lam, z = eigh_tridiagonal(diag, off, lapack_driver="stevd")
        q = _negatives_chosen(lam, d)
        keep = np.r_[:q, n - d + q:n]
        lam, z = lam[keep], z[:, keep]

    if n > 1:
        # Q leaves row 0 alone; reflector k is column k from row k + 1 down. A
        # contiguous view from row 1 passes them to dormqr with leading
        # dimension n; the slice refl[1:, :-1] would be copied.
        v = refl.ravel(order="F")[1:1 + n * (n - 1)].reshape((n, n - 1), order="F")
        assert np.shares_memory(v, refl)
        qwork = int(lapack.dormqr("L", "N", v, tau, z[1:], -1)[1][0])
        z[1:], _, info = lapack.dormqr("L", "N", v, tau, z[1:], qwork)
        assert info == 0
    return lam, z


def _negatives_chosen(w: np.ndarray, d: int) -> int:
    """How many of the ``d`` largest ``|w|`` are negative, a tie going to the
    lower index. ``w`` is ascending: the spectrum, or a prefix and a suffix of
    it that hold the d largest."""
    return int(np.count_nonzero(w[np.argsort(-np.abs(w), kind="stable")[:d]] < 0))


def _bisection_eigenpairs(diag: np.ndarray, off: np.ndarray,
                          d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``d`` eigenvalues of largest magnitude of a tridiagonal matrix,
    ascending, and their eigenvectors, by bisection and inverse iteration.

    Bisection (``dstebz``; range 2 selects by index, 1 by value) finds the d
    highest eigenvalues and the lowest, and no others unless needed: a chosen
    negative eigenvalue has |λ| at least ``cut``, the least |λ| of the d
    highest, so the negatives ≤ −cut are found only when the lowest one
    reaches it. Each eigenvalue is found once. ``dstein`` takes each end's
    chosen values with the blocks ``dstebz`` split them into.
    """
    from scipy.linalg import lapack

    n = diag.size

    def bisect(*select):
        m, w, block, split, info = lapack.dstebz(diag, off, *select, 0.0, "B")
        if info:
            raise np.linalg.LinAlgError(f"dstebz: some eigenvalues failed to converge ({info})")
        return w[:m], block, split

    high = bisect(2, 0.0, 0.0, n - d + 1, n)
    cut = np.min(np.abs(high[0]))
    lowest = bisect(2, 0.0, 0.0, 1, 1)[0][0]
    # Range 1 is the interval (vl, vu]; 2·lowest − 1 lies below the lowest.
    low = (bisect(1, 2.0 * lowest - 1.0, -cut, 0, 0) if lowest <= -cut
           else (np.empty(0), None, None))
    # The negatives below the d highest, then the d highest: both ascending,
    # so the stable order matches the one over the whole spectrum.
    below = np.sort(low[0])[:n - d]
    q = _negatives_chosen(np.concatenate([below, np.sort(high[0])]), d)

    ends = [_inverse_iteration(diag, off, *end, count, top)
            for end, count, top in ((low, q, False), (high, d - q, True)) if count]
    return np.concatenate([e[0] for e in ends]), np.hstack([e[1] for e in ends])


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, w: np.ndarray, block: np.ndarray,
                       split: np.ndarray, count: int, top: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of ``count`` of the eigenvalues ``w`` that ``dstebz``
    found, the highest if ``top`` else the lowest, ascending."""
    from scipy.linalg import lapack

    # Any subset of dstebz's block order is in block order, as dstein needs.
    order = np.argsort(w, kind="stable")
    chosen = np.sort(order[w.size - count:] if top else order[:count])
    block = block.copy()
    block[:count] = block[chosen]
    z, info = lapack.dstein(diag, off, w[chosen], block, split)
    if info:
        raise np.linalg.LinAlgError(f"dstein: {info} eigenvectors failed to converge")
    ascending = np.argsort(w[chosen])
    return w[chosen][ascending], z[:, ascending]


def svd_embedding(factors: SvdFactors, vocab: Sequence[str]) -> EmbeddingMatrix:
    """Embedding rows U scaled columnwise by sqrt(S), one per word of ``vocab``.

    Raises:
        PreconditionError: a negative singular value (``truncated_svd`` never
            returns one; hand-built factors can).
    """
    if np.any(factors.S < 0):
        raise PreconditionError("singular values must be nonnegative")
    return EmbeddingMatrix._owned(vocab, factors.U * np.sqrt(factors.S))


def train_spectral_embedding(
    counts: CooccurrenceCounts,
    signal: str = "pmi",
    dim: int = 300,
) -> EmbeddingMatrix:
    """Spectral embedding of co-occurrence counts: signal, truncated SVD, U·sqrt(S).

    Args:
        counts: Output of :func:`count_cooccurrences`.
        signal: A key of :data:`SIGNALS`: "pmi" (positive PMI) or "logcount"
            (log(1 + count)).
        dim: Embedding dimension, at most the vocabulary size.
    """
    if signal not in SIGNALS:
        raise PreconditionError(f"signal must be one of {tuple(SIGNALS)}, got {signal!r}")
    return svd_embedding(truncated_svd(SIGNALS[signal](counts), dim), counts.vocab)


def save_counts(counts: CooccurrenceCounts, path: str | Path) -> None:
    """Export counts as an ``i j count`` triple file plus a vocab sidecar.

    Only the upper triangle (i <= j) is written; the lower half is its
    mirror. The sidecar at ``<path>.vocab`` lists one word per line in index
    order. rpd writes this file for other tools and does not read it back.
    """
    path = Path(path)
    coo = counts.counts.tocoo()
    keep = coo.row <= coo.col
    cells = [coo.row[keep], coo.col[keep], coo.data[keep]]
    # "%d" prints a nonnegative integral float below 2**53 as "%.17g" does.
    value = cells[2]
    integral = np.all(~np.signbit(value) & (value < 2.0**53) & (value == np.trunc(value)))
    if integral:
        cells[2] = value.astype(np.int64)
    with open(path, "wb") as fh:
        fh.write(f"# window {counts.window}\n# min_count {counts.min_count}\n".encode())
        rows = _PRINT_BLOCK // 3  # lines of three values each
        for start in range(0, value.size, rows):
            block = [column[start:start + rows] for column in cells]
            if integral:
                fh.write(_int_lines(block))
            else:
                # One % per block of lines; tolist gives Python ints and
                # floats, which format faster than numpy scalars.
                flat = [None] * (3 * len(block[0]))
                for k, column in enumerate(block):
                    flat[k::3] = column.tolist()
                fh.write(("%d %d %.17g\n" * len(block[0]) % tuple(flat)).encode())
    with open(path.with_name(path.name + ".vocab"), "w", encoding="utf-8") as fh:
        for word in counts.vocab:
            fh.write(word + "\n")

