"""Embedding matrices: loading, saving, normalization, and vocabulary alignment.

An embedding file is word2vec or GloVe text, and the file says which:

* word2vec text: a header line ``"n d"``, then n lines ``"word v1 ... vd"``.
* GloVe text: the same data lines with no header; d is read from the first line.

The first non-blank line is the header exactly when it is two fields that both
parse as ``int``, so a headerless 1-dimensional file whose first line is two
integers (``2019 1``) needs a header. The writer always writes one.

Every text input of the package goes through one reader, ``_text_lines``:
UTF-8, a leading byte-order mark ignored, and a byte that is not valid UTF-8
raised as a ``ParseError`` at its ``path:line``. Any whitespace separates
fields and blank lines are skipped, though error line numbers count them.
The loader splits each line into its word and the rest, and parses all the
rest in one ``np.loadtxt`` call (numpy's C parser). It keeps that result
only when every line gave d finite values and no word repeats; otherwise, or
when ``loadtxt`` rejects a token that Python's ``float`` accepts
(``1_000``, non-ASCII digits), the per-line parser parses the lines again.
It gives the same values and raises every ``ParseError`` and
``DuplicateWordError`` with its ``path:line``.

Floats are written with ten significant digits so that a save/load round
trip reproduces values within 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateInputError,
    DimensionError,
    DuplicateWordError,
    FormatError,
    ParseError,
    PreconditionError,
)

_FLOAT_FMT = "%.9e"  # ten significant digits


def _is_word(word: object) -> bool:
    """Whether ``word`` is a word: a non-empty ``str`` without whitespace."""
    return isinstance(word, str) and word.split() == [word]


def _word_order(words: Sequence[str]) -> np.ndarray:
    """The indices of ``words`` in Python code-point order, the order word ties break in.

    numpy's ``<U`` order would not do: it drops trailing NULs, so "a" ties "a\\x00".
    """
    return np.array(sorted(range(len(words)), key=words.__getitem__), dtype=np.intp)


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """A vocabulary-indexed dense embedding matrix.

    Row ``i`` of ``matrix`` is the vector of ``vocab[i]``.

    Instances are immutable; the matrix is stored read-only and may be shared
    across threads.
    """

    vocab: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        vocab = tuple(self.vocab)
        matrix = np.array(self.matrix, dtype=np.float64, order="C", copy=True)
        if matrix.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {matrix.shape}")
        n, d = matrix.shape
        if n < 1 or d < 1:
            raise PreconditionError(f"matrix must be at least 1x1, got {n}x{d}")
        if len(vocab) != n:
            raise DimensionError(
                f"vocab length {len(vocab)} does not match matrix row count {n}"
            )
        seen = set()
        for word in vocab:
            if not _is_word(word):
                if isinstance(word, str) and word:
                    raise PreconditionError(f"vocabulary entry contains whitespace: {word!r}")
                raise PreconditionError(f"invalid vocabulary entry {word!r}")
            if word in seen:
                raise DuplicateWordError(f"duplicate word in vocabulary: {word!r}")
            seen.add(word)
        if not np.all(np.isfinite(matrix)):
            raise PreconditionError("matrix contains non-finite entries")
        matrix.setflags(write=False)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return len(self.vocab)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    @cached_property
    def index(self) -> dict[str, int]:
        """Word to row-index mapping."""
        return {word: i for i, word in enumerate(self.vocab)}


@dataclass(frozen=True, eq=False)
class AlignedPair:
    """Two embedding matrices restricted to a shared, identically ordered vocabulary.

    The two sides may have different dimensions; only the row count must agree.
    Coverage fractions record how much of each original vocabulary survived
    the intersection.
    """

    left: EmbeddingMatrix
    right: EmbeddingMatrix
    shared_vocab: tuple[str, ...]
    coverage_left: float = 1.0
    coverage_right: float = 1.0

    def __post_init__(self) -> None:
        shared = tuple(self.shared_vocab)
        object.__setattr__(self, "shared_vocab", shared)
        if not shared:
            raise AlignmentError("shared vocabulary is empty")
        if self.left.vocab != shared or self.right.vocab != shared:
            raise AlignmentError("left/right vocabularies do not match shared_vocab")

    @property
    def n(self) -> int:
        return len(self.shared_vocab)


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Load an embedding matrix from a word2vec or GloVe text file.

    The format is read from the file; see the module docstring.

    Returns:
        An :class:`EmbeddingMatrix` with rows in file order.

    Raises:
        ParseError: malformed line (wrong field count, non-numeric value) or
            bytes that are not valid UTF-8.
        FormatError: header/content mismatch or empty file.
        DuplicateWordError: a word occurs twice.
    """
    path = Path(path)
    lines, start, dim = _read_lines(path)
    emb = _parse_bulk(lines[start:], dim)
    if emb is None:
        emb = _parse_per_line(lines, start, dim, path)
    return emb


def _text_lines(path: Path) -> list[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file as (line number, text) pairs.

    A leading byte-order mark is dropped; line numbers count blank lines too.

    Raises:
        ParseError: at the first line holding bytes that are not valid UTF-8.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [(i, raw.rstrip("\n")) for i, raw in enumerate(fh, 1) if raw.strip()]
    except UnicodeDecodeError:
        pass
    # Read again with each bad byte kept as a lone surrogate (U+DC80 to U+DCFF),
    # so the lines split and number exactly as above.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for i, raw in enumerate(fh, 1):
            bad = [ord(c) - 0xDC00 for c in raw if "\udc80" <= c <= "\udcff"]
            if bad:
                raise ParseError(f"{path}:{i}: not valid UTF-8 (byte {bad[0]:#04x})")
    raise ParseError(f"{path}: not valid UTF-8")  # the file changed between the reads


def _read_lines(path: Path) -> tuple[list[tuple[int, str]], int, int | None]:
    """The non-blank lines as (line number, text), the first data line's index, and d.

    The first line is a header when it is two integers; d is None without one.

    Raises:
        FormatError: empty file, a header size below 1, or a row count unlike the header's.
    """
    lines = _text_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty embedding file")
    lineno, text = lines[0]
    try:
        declared_n, dim = map(int, text.split())
    except ValueError:
        return lines, 0, None
    if declared_n < 1 or dim < 1:
        raise FormatError(f"{path}:{lineno}: header sizes must be positive")
    if len(lines) - 1 != declared_n:
        raise FormatError(
            f"{path}: header declares {declared_n} rows but file has {len(lines) - 1}"
        )
    return lines, 1, dim


def _parse_bulk(data: list[tuple[int, str]], dim: int | None) -> EmbeddingMatrix | None:
    """Parse data lines with one ``np.loadtxt`` call, or return None.

    None means the per-line parser must decide: a line it would reject (it
    raises the error with the line number), or a token that Python's
    ``float`` reads but ``loadtxt`` does not (``1_000``, non-ASCII digits).
    """
    # One tuple of words and one of the value strings; a word-only line
    # makes zip stop after the words.
    columns = list(zip(*(line.split(None, 1) for _, line in data)))
    if len(columns) != 2:
        return None
    words, rests = columns
    try:
        matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if dim is not None and matrix.shape[1] != dim:
        return None
    try:
        return EmbeddingMatrix(words, matrix)
    except (DimensionError, DuplicateWordError, PreconditionError):
        return None


def _parse_per_line(
    lines: list[tuple[int, str]], start: int, dim: int | None, path: Path
) -> EmbeddingMatrix:
    """Parse data lines one at a time; the source of every line-numbered error."""
    rows: dict[str, list[float]] = {}
    for lineno, line in lines[start:]:
        word, *fields = line.split()
        if dim is not None and len(fields) != dim:
            raise ParseError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields) + 1}")
        if not fields:
            raise ParseError(f"{path}:{lineno}: expected a word and at least one value")
        try:
            values = [float(v) for v in fields]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric value ({exc})") from None
        if not all(np.isfinite(values)):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        if dim is None:
            dim = len(values)
        if word in rows:
            raise DuplicateWordError(f"{path}:{lineno}: duplicate word {word!r}")
        rows[word] = values

    return EmbeddingMatrix(tuple(rows), np.array(list(rows.values()), dtype=np.float64))


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix as word2vec text, header line first.

    I/O failures propagate as OSError with the path in the message.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.n} {emb.dim}\n")
        row_fmt = " ".join([_FLOAT_FMT] * emb.dim) + "\n"
        for word, row in zip(emb.vocab, emb.matrix.tolist()):
            fh.write(word + " " + row_fmt % tuple(row))


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


def _unit_exponent(high, low) -> np.ndarray:
    """Elementwise, the k for which ``2**k`` times the peak magnitude is nearest 1 (0 for 0)."""
    peak = np.maximum(high, -low)
    # int32, not int64: numpy's ldexp loop for int64 exponents is about ten times slower.
    return -np.rint(np.log2(peak, out=np.zeros_like(peak), where=peak > 0.0)).astype(np.int32)


def _restricted_rows(emb: EmbeddingMatrix, words: Sequence[str]) -> np.ndarray:
    """A new array of the rows of ``words``, in that order."""
    idx = emb.index
    return emb.matrix[[idx[w] for w in words]]


def _aligned_rows(
    a: EmbeddingMatrix, b: EmbeddingMatrix
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The shared vocabulary of two embeddings and each side's rows for it.

    Raises:
        AlignmentError: empty intersection.
    """
    shared = tuple(sorted(set(a.vocab) & set(b.vocab)))
    if not shared:
        raise AlignmentError("vocabularies have empty intersection")
    return shared, _restricted_rows(a, shared), _restricted_rows(b, shared)


def align_vocabularies(a: EmbeddingMatrix, b: EmbeddingMatrix) -> AlignedPair:
    """Restrict two embeddings to their shared vocabulary.

    The shared vocabulary is the set intersection ordered lexicographically by
    code point, so the result does not depend on either input's row order.

    Raises:
        AlignmentError: empty intersection.
    """
    shared, left, right = _aligned_rows(a, b)
    return AlignedPair(
        EmbeddingMatrix(shared, left),
        EmbeddingMatrix(shared, right),
        shared,
        coverage_left=len(shared) / a.n,
        coverage_right=len(shared) / b.n,
    )


def random_gaussian_embedding(n: int, d: int, seed: int) -> EmbeddingMatrix:
    """Embedding with i.i.d. standard-normal entries and synthetic vocabulary.

    The generator is explicitly seeded (PCG64), so the same seed yields a
    bit-identical matrix. Vocabulary tokens are ``"w0" ... "w{n-1}"``.
    """
    if n < 1 or d < 1:
        raise PreconditionError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    vocab = tuple(f"w{i}" for i in range(n))
    return EmbeddingMatrix(vocab, np.random.default_rng(seed).standard_normal((n, d)))
