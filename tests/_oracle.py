"""The slow paths the d-space identities are tested against.

``naive_gram_oracle`` materializes the n-by-n Gram matrices,
``standardize`` builds the standardized n-by-d copy the metric never makes,
``per_offset_counts`` sums one sparse matrix per window offset where the
counter sorts packed cell keys once, ``per_line_counts_text`` formats the
counts file one line at a time where ``save_counts`` prints blocks from a
digit table, ``per_row_embedding_text`` formats each embedding row with one
``%`` where ``save_embeddings`` prints blocks of rows from the same table,
``read_saved_counts`` parses the counts file that rpd only writes, for
``assert_saved_exactly``, and ``regex_documents`` splits corpus text into
lines with a regex instead of the file reader's universal newlines.
"""

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from rpd import (CooccurrenceCounts, DegenerateInputError, DimensionError, EmbeddingMatrix,
                 PreconditionError)
from rpd.metric import _unit_exponent

NAIVE_GUARD_LIMIT = 2000


@dataclass(frozen=True)
class GramOracleResult:
    """Gram norms and inner product, and per row i: <gᵃᵢ, gᵇᵢ>, ||gᵃᵢ||² and ||gᵇᵢ||²."""

    norm_a: float
    norm_b: float
    inner: float
    row_inner: np.ndarray
    row_sq_a: np.ndarray
    row_sq_b: np.ndarray


def naive_gram_oracle(a: EmbeddingMatrix, b: EmbeddingMatrix) -> GramOracleResult:
    """Direct computation from materialized n-by-n Gram matrices.

    Test oracle only: refuses n > NAIVE_GUARD_LIMIT to prevent accidental
    multi-gigabyte allocations.
    """
    if a.n != b.n:
        raise DimensionError(f"row counts differ: {a.n} vs {b.n}")
    if a.n > NAIVE_GUARD_LIMIT:
        raise PreconditionError(
            f"naive oracle refuses n={a.n} > {NAIVE_GUARD_LIMIT}"
        )
    ga = a.matrix @ a.matrix.T
    gb = b.matrix @ b.matrix.T
    return GramOracleResult(
        norm_a=float(np.linalg.norm(ga)),
        norm_b=float(np.linalg.norm(gb)),
        inner=float(np.sum(ga * gb)),
        row_inner=np.sum(ga * gb, axis=1),
        row_sq_a=np.sum(ga * ga, axis=1),
        row_sq_b=np.sum(gb * gb, axis=1),
    )


def standardize(emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rescale so the entries have unit root-mean-square magnitude.

    Every entry is divided by one scalar, the entrywise second moment about
    zero (the population standard deviation of the zero-mean entry model; no
    mean is subtracted). The pure rescaling is idempotent, invariant to prior
    nonzero scaling, and, because the scalar depends only on the Frobenius
    norm, exactly invariant under rotation of the matrix. The latter is what
    keeps the distance metric's unitary invariance at machine precision.
    The entries are scaled by a power of two (exact) before they are squared,
    so finite inputs of any magnitude neither overflow nor underflow.

    Raises:
        DegenerateInputError: fewer than two entries, or a constant matrix
            (zero standard deviation).
    """
    if emb.matrix.size < 2:
        raise DegenerateInputError("standardize needs at least 2 entries")
    high, low = float(emb.matrix.max()), float(emb.matrix.min())
    if high == low:
        raise DegenerateInputError("matrix is constant: zero standard deviation")
    rows = np.ldexp(emb.matrix, _unit_exponent(high, low))
    rows /= np.sqrt(np.mean(rows * rows))
    return EmbeddingMatrix(emb.vocab, rows)


def per_offset_counts(docs, window: int, min_count: int, weighting: str) -> CooccurrenceCounts:
    """``count_cooccurrences`` as one COO-to-CSR conversion per offset k, the
    conversions summed in offset order and then added to their transpose."""
    freq = Counter(chain.from_iterable(docs))
    vocab = tuple(sorted((w for w, c in freq.items() if c >= min_count),
                         key=lambda w: (-freq[w], w)))
    index = {w: i for i, w in enumerate(vocab)}
    n = len(vocab)
    ids = np.array([index.get(t, -1) for doc in docs for t in doc], dtype=np.int64)
    doc_of = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
    kept = ids >= 0
    ids, doc_of = ids[kept], doc_of[kept]
    forward = sparse.csr_array((n, n), dtype=np.float64)
    for k in range(1, window + 1):
        same_doc = doc_of[:-k] == doc_of[k:]
        rows, cols = ids[:-k][same_doc], ids[k:][same_doc]
        data = np.full(rows.shape, 1.0 if weighting == "flat" else 1.0 / k)
        forward = forward + sparse.coo_array((data, (rows, cols)), shape=(n, n)).tocsr()
    return CooccurrenceCounts(vocab=vocab, counts=forward + forward.T, window=window,
                              min_count=min_count)


def per_line_counts_text(counts: CooccurrenceCounts) -> bytes:
    """The bytes ``save_counts`` writes, one ``"%d %d %.17g"`` line per upper-triangle cell."""
    coo = counts.counts.tocoo()
    keep = coo.row <= coo.col
    lines = [f"# window {counts.window}\n", f"# min_count {counts.min_count}\n"]
    lines += ["%d %d %.17g\n" % cell
              for cell in zip(*(a[keep].tolist() for a in (coo.row, coo.col, coo.data)))]
    return "".join(lines).encode("utf-8")


def per_row_embedding_text(emb: EmbeddingMatrix) -> bytes:
    """The bytes ``save_embeddings`` writes: the header, then each row as its word
    and one ``"%.9e"`` per value, formatted by one ``%`` per row."""
    row_fmt = " ".join(["%.9e"] * emb.dim) + "\n"
    lines = [f"{emb.n} {emb.dim}\n"]
    lines += [word + " " + row_fmt % tuple(row)
              for word, row in zip(emb.vocab, emb.matrix.tolist())]
    return "".join(lines).encode("utf-8")


def read_saved_counts(path: Path) -> tuple[dict[str, int], sparse.csr_array, tuple[str, ...]]:
    """The header, the upper-triangle counts and the vocabulary of a ``save_counts`` file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = {key: int(value) for key, value in
              (line[1:].split() for line in lines if line.startswith("#"))}
    cells = [line.split() for line in lines if not line.startswith("#")]
    vocab = tuple(path.with_name(path.name + ".vocab").read_text(encoding="utf-8").splitlines())
    rows, cols = (np.array([int(c[k]) for c in cells], dtype=np.int64) for k in (0, 1))
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(cells), "a cell listed twice"
    upper = sparse.coo_array(([float(c[2]) for c in cells], (rows, cols)),
                             shape=(len(vocab), len(vocab)))
    return header, upper.tocsr(), vocab


def assert_saved_exactly(path: Path, counts) -> None:
    """The file at ``path`` holds the upper triangle of ``counts`` exactly, with its
    window, min_count and vocabulary."""
    header, upper, vocab = read_saved_counts(path)
    assert header == {"window": counts.window, "min_count": counts.min_count}
    assert vocab == counts.vocab
    assert (upper != sparse.triu(counts.counts)).nnz == 0


def regex_documents(text: str, lowercase: bool = True) -> list[list[str]]:
    """Per-line documents of whitespace tokens, with lines ending only at
    ``\\r``, ``\\n`` or ``\\r\\n`` and the whole text lowercased at once."""
    if lowercase:
        text = text.lower()
    return [tokens for line in re.split(r"\r\n?|\n", text) if (tokens := line.split())]
