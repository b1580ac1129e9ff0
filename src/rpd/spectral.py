"""Spectral embedding trainers: co-occurrence counting, PMI / log-count signals,
an ARPACK truncated SVD, and the U·sqrt(S) embedding extraction.

The pipeline is:

    documents -> count_cooccurrences -> SIGNALS[signal]
              -> truncated_svd -> svd_embedding

Counts are symmetric sparse matrices over a frequency-filtered vocabulary;
their total is the sum of their cells. ``SIGNALS`` names the two signals:
positive PMI ("pmi") and log(1 + count) ("logcount"), both zero where the
count is. A trained embedding is a function of the corpus and the options
alone: the SVD starts from a fixed vector and fixes the sign of each component.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import (CorpusError, DegenerateInputError, DimensionError, ParseError,
                     PreconditionError)
from .store import EmbeddingMatrix, _is_word, _text_lines

WEIGHTINGS = ("flat", "harmonic")


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Symmetric word-context counts from a windowed corpus scan.

    ``vocab`` is ordered by descending corpus frequency (ties lexicographic)
    and excludes words below ``min_count``. ``counts[i, j]`` is the weighted
    number of times word j appeared within the window around word i, summed
    over both directions, so the matrix is exactly symmetric. ``total``,
    the sum of the cells, is derived; unless it is positive, construction
    raises ``PreconditionError``.
    """

    vocab: tuple[str, ...]
    counts: sparse.csr_array
    window: int
    min_count: int
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", float(self.counts.sum()))
        if not self.total > 0.0:  # NaN fails too
            raise PreconditionError(f"counts total must be positive, got {self.total}")


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Truncated SVD factors; U has orthonormal columns, S is descending.

    The largest-magnitude entry of each column of U is positive (the first
    such row on a tie); the matching row of Vt carries the same sign.
    """

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray


def tokenize_corpus_text(text: str, lowercase: bool = True) -> list[list[str]]:
    """Whitespace-tokenize plain text into per-line documents.

    Each non-empty line becomes one document, so context windows never cross
    line boundaries. As in every input file, lines end only at ``\\r``, ``\\n``
    or ``\\r\\n``; ``\\x0c``, ``\\x85``, U+2028 and the like are whitespace.
    """
    if lowercase:
        text = text.lower()
    return [tokens for line in re.split(r"\r\n?|\n", text) if (tokens := line.split())]


def read_corpus(path: str | Path, lowercase: bool = True) -> list[list[str]]:
    """Read a UTF-8 plain-text corpus as per-line documents.

    Raises:
        ParseError: a line holding bytes that are not valid UTF-8.
    """
    return tokenize_corpus_text("\n".join(t for _, t in _text_lines(Path(path))), lowercase)


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
    offset k are positions i and i + k in one document. The forward counts of
    every offset are summed first and added to their transpose once.

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
            count as tokens).
        CorpusError: empty vocabulary after filtering, or no pairs at all.
    """
    if window < 1:
        raise PreconditionError(f"window must be >= 1, got {window}")
    if min_count < 1:
        raise PreconditionError(f"min_count must be >= 1, got {min_count}")
    if weighting not in WEIGHTINGS:
        raise PreconditionError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")

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

    ids = np.array([index.get(t, -1) for doc in docs for t in doc], dtype=np.int64)
    doc_of = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
    kept = ids >= 0
    ids, doc_of = ids[kept], doc_of[kept]

    forward = sparse.csr_array((n, n), dtype=np.float64)
    for k in range(1, window + 1):
        same_doc = doc_of[:-k] == doc_of[k:]
        rows = ids[:-k][same_doc]
        cols = ids[k:][same_doc]
        weight = 1.0 if weighting == "flat" else 1.0 / k
        data = np.full(rows.shape, weight, dtype=np.float64)
        forward = forward + sparse.coo_array((data, (rows, cols)), shape=(n, n)).tocsr()
    # Each cell and its mirror add the same two floats, so the sum is exactly symmetric.
    counts = forward + forward.T

    if not counts.nnz:
        raise CorpusError("corpus produced no co-occurrence pairs")
    return CooccurrenceCounts(vocab=vocab, counts=counts, window=window, min_count=min_count)


def pmi_matrix(counts: CooccurrenceCounts) -> sparse.csr_array:
    """Positive pointwise mutual information of the counts.

    ``PMI(i, j) = log(count(i, j) * total / (rowsum(i) * rowsum(j)))`` for
    nonzero cells; zero-count cells and negative values are stored as zero,
    which keeps the matrix sparse and nonnegative.
    """
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
    c = counts.counts
    return sparse.csr_array((np.log1p(c.data), c.indices.copy(), c.indptr.copy()),
                            shape=c.shape)


SIGNALS = {"pmi": pmi_matrix, "logcount": log_count_matrix}


def truncated_svd(matrix: sparse.csr_array, d: int) -> SvdFactors:
    """The top ``d`` singular triplets of a sparse signal matrix, descending.

    ARPACK (``scipy.sparse.linalg.svds``) solves them to working precision
    from a fixed standard-normal start vector. ARPACK needs ``d < min(shape)``;
    a full-rank request takes a dense SVD instead. On both paths each
    component is signed so that the largest-magnitude entry of its column of
    U is positive (scikit-learn's ``svd_flip``), so the factors depend on the
    matrix and ``d`` alone, not on roundoff that flips a component. Only this
    function checks ``1 <= d <= min(shape)``, the vocabulary size.

    Raises:
        DegenerateInputError: the signal has no non-zero entry (for example a
            positive-PMI signal where every pair co-occurs exactly as often as
            independence predicts).
    """
    # Imported on use: every CLI call imports the package, few of them solve.
    from scipy.sparse.linalg import svds

    n = min(matrix.shape)
    if not 1 <= d <= n:
        raise DimensionError(f"need 1 <= dim <= vocabulary size {n}, got dim={d}")
    if not np.all(np.isfinite(matrix.data)):
        raise PreconditionError("signal matrix has non-finite entries")
    if not matrix.count_nonzero():
        raise DegenerateInputError("signal matrix has no non-zero entry: nothing to factorize")

    if d == n:
        u, s, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
    else:
        v0 = np.random.default_rng(0).standard_normal(n)
        u, s, vt = svds(matrix, k=d, v0=v0)
        order = np.argsort(s)[::-1]
        u, s, vt = u[:, order], s[order], vt[order]
    signs = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(d)] < 0, -1.0, 1.0)
    return SvdFactors(U=u * signs, S=s, Vt=vt * signs[:, None])


def svd_embedding(factors: SvdFactors, vocab: Sequence[str]) -> EmbeddingMatrix:
    """Embedding rows U scaled columnwise by sqrt(S), one per word of ``vocab``.

    Tiny negative singular values (numerical artifacts) are clamped to zero
    with a warning.
    """
    s = factors.S
    if np.any(s < 0):
        warnings.warn("negative singular values clamped to zero", stacklevel=2)
        s = np.maximum(s, 0.0)
    return EmbeddingMatrix(vocab, factors.U * np.sqrt(s))


def train_spectral_embedding(
    counts: CooccurrenceCounts,
    signal: str = "pmi",
    dim: int = 300,
) -> EmbeddingMatrix:
    """Spectral embedding of co-occurrence counts: signal, truncated SVD, U·sqrt(S).

    Args:
        counts: Output of :func:`count_cooccurrences` or :func:`load_counts`.
        signal: A key of :data:`SIGNALS`: "pmi" (positive PMI) or "logcount"
            (log(1 + count)).
        dim: Embedding dimension, at most the vocabulary size.
    """
    if signal not in SIGNALS:
        raise PreconditionError(f"signal must be one of {tuple(SIGNALS)}, got {signal!r}")
    return svd_embedding(truncated_svd(SIGNALS[signal](counts), dim), counts.vocab)


def save_counts(counts: CooccurrenceCounts, path: str | Path) -> None:
    """Persist counts as an ``i j count`` triple file plus a vocab sidecar.

    Only the upper triangle (i <= j) is written; symmetry is restored on
    load. The sidecar at ``<path>.vocab`` lists one word per line in index
    order.
    """
    path = Path(path)
    coo = counts.counts.tocoo()
    keep = coo.row <= coo.col
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# window {counts.window}\n")
        fh.write(f"# min_count {counts.min_count}\n")
        for i, j, v in zip(coo.row[keep], coo.col[keep], coo.data[keep]):
            fh.write("%d %d %.17g\n" % (i, j, v))
    with open(path.with_name(path.name + ".vocab"), "w", encoding="utf-8") as fh:
        for word in counts.vocab:
            fh.write(word + "\n")


def load_counts(path: str | Path) -> CooccurrenceCounts:
    """Load counts written by :func:`save_counts`.

    Raises:
        ParseError: a bad line in either file (at ``path:line``; a cell listed
            a second time is bad there, and so is a ``window`` or ``min_count``
            that is not an integer >= 1), a missing ``# window N`` or
            ``# min_count N`` line (at ``path``), or no counts.
    """
    path = Path(path)
    vocab_path = path.with_name(path.name + ".vocab")
    words: dict[str, None] = {}
    for lineno, word in _text_lines(vocab_path):
        if not _is_word(word):
            raise ParseError(f"{vocab_path}:{lineno}: word contains whitespace: {word!r}")
        if word in words:
            raise ParseError(f"{vocab_path}:{lineno}: duplicate word {word!r}")
        words[word] = None
    vocab = tuple(words)
    if not vocab:
        raise ParseError(f"{vocab_path}: empty vocabulary sidecar")
    n = len(vocab)

    header: dict[str, int | None] = {"window": None, "min_count": None}
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    linenos: list[int] = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] in header:
                try:
                    value = int(fields[1])
                except ValueError:
                    value = 0
                if value < 1:
                    raise ParseError(f"{path}:{lineno}: {fields[0]} must be an "
                                     f"integer >= 1, got {fields[1]!r}")
                header[fields[0]] = value
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j count'")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n) or i > j:
            raise ParseError(f"{path}:{lineno}: invalid indices {i}, {j}")
        if not 0.0 <= v < np.inf:
            raise ParseError(f"{path}:{lineno}: count must be finite and >= 0")
        rows.append(i)
        cols.append(j)
        data.append(v)
        linenos.append(lineno)

    row_ids, col_ids = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    keys = row_ids * n + col_ids
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        first = int(repeats.min())
        raise ParseError(f"{path}:{linenos[first]}: cell {rows[first]} {cols[first]} "
                         f"listed twice")
    for name, value in header.items():
        if value is None:
            raise ParseError(f"{path}: no '# {name} N' line")
    upper = sparse.coo_array((np.array(data), (row_ids, col_ids)), shape=(n, n)).tocsr()
    strict = sparse.triu(upper, k=1)
    try:
        return CooccurrenceCounts(vocab, (upper + strict.T).tocsr(),
                                  header["window"], header["min_count"])
    except PreconditionError:
        raise ParseError(f"{path}: no counts") from None
