"""Embedding matrices: loading, saving, and vocabulary alignment.

An embedding file is word2vec or GloVe text, and the file says which:

* word2vec text: a header line ``"n d"``, then n lines ``"word v1 ... vd"``.
* GloVe text: the same data lines with no header; d is read from the first line.

The first non-blank line is the header exactly when it is two fields that both
parse as ``int``, so a headerless 1-dimensional file whose first line is two
integers (``2019 1``) needs a header. The writer always writes one.

Every text input of the package goes through one reader, ``_text_lines``:
one read of the file's bytes, UTF-8, a leading byte-order mark ignored, and a
byte that is not valid UTF-8 raised as a ``ParseError`` at its ``path:line``.
Any whitespace separates fields and blank lines are skipped, though error
line numbers count them. The loader splits each line into its word and the
rest, and parses all the rest in one ``np.loadtxt`` call (numpy's C parser).
It keeps that result only when every line gave d finite values and no word
repeats; otherwise, or when ``loadtxt`` rejects a token that Python's
``float`` accepts (``1_000``, non-ASCII digits), the per-line parser parses
the lines again. It gives the same values and raises every ``ParseError`` and
``DuplicateWordError`` with its ``path:line``.

Parse cache: ``load_embeddings`` keeps each file it parsed in
``${XDG_CACHE_HOME:-~/.cache}/rpd/``, as a ``.npy`` matrix beside a ``.vocab``
file of one word per line, under the SHA-256 of the file's bytes together with
this module's source and numpy's version. A file with the same bytes is then
read from its entry instead of parsed, with every ``EmbeddingMatrix`` check;
a changed byte, or an edit of the parser, gives another key. Only successful
parses are stored, so a bad file raises its error on every load. A missing,
unreadable or malformed entry means a parse; a cache that cannot be written
means no entry, and a directory that is not the user's own, closed to other
users, means no cache. The least recently used entries go once the cache
holds more than ``_CACHE_CAP`` bytes (1 GiB), and a larger entry is never
written. ``rm -rf ~/.cache/rpd`` clears it. A first load costs up to about
15% more than a parse alone, for the hash and the write.

Floats are written with ten significant digits so that a save/load round
trip reproduces values within 1e-8.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, IO, Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DimensionError,
    DuplicateWordError,
    FormatError,
    ParseError,
    PreconditionError,
    RpdError,
)

_FLOAT_FMT = "%.9e"  # ten significant digits
_CACHE_CAP = 1 << 30  # bytes the parse cache may hold


def _is_word(word: object) -> bool:
    """Whether ``word`` is a word: a non-empty ``str`` without whitespace."""
    return isinstance(word, str) and word.split() == [word]


def _check_word(word: object, kind: str) -> None:
    """Require that ``word`` is a word; ``kind`` says what it is in the error."""
    if not _is_word(word):
        raise PreconditionError(f"{kind} must be a word without whitespace, got {word!r}")


def _check_names(names: Sequence[str], kind: str) -> None:
    """Require distinct ``names`` that are words, so each labels one TSV field."""
    if len(set(names)) != len(names):
        raise PreconditionError(f"{kind} names must be unique")
    for name in names:
        _check_word(name, f"{kind} name")


def _tsv(header: Sequence[str], rows: Iterable[Sequence[object]],
         footer: Iterable[tuple[str, object]] = ()) -> str:
    """The one table format: tab-joined cells, a line per row, then ``# key`` lines.

    A ``str`` cell is written as is; any other is a number, written with
    twelve significant digits.
    """
    lines = [header, *rows, *((f"# {key}", value) for key, value in footer)]
    return "".join("\t".join(c if isinstance(c, str) else "%.12g" % c for c in line) + "\n"
                   for line in lines)


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
        self._own(self.vocab, np.array(self.matrix, dtype=np.float64, order="C", copy=True))

    @classmethod
    def _owned(cls, vocab: Sequence[str], matrix: np.ndarray) -> EmbeddingMatrix:
        """Build from an array its producer has just made and hands over.

        Every check of the public constructor runs; only the copy is skipped,
        and ``matrix`` itself becomes read-only.
        """
        emb = object.__new__(cls)
        emb._own(vocab, np.asarray(matrix, dtype=np.float64, order="C"))
        return emb

    def _own(self, vocab: Sequence[str], matrix: np.ndarray) -> None:
        """Check ``vocab`` and ``matrix``, then store both, ``matrix`` read-only."""
        vocab = tuple(vocab)
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
            _check_word(word, "vocabulary entry")
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

    @cached_property
    def zero_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the shared words whose vector is all zero, left and right."""
        return ~np.any(self.left.matrix, axis=1), ~np.any(self.right.matrix, axis=1)

    def provenance(self) -> dict:
        """What a report on this pair is computed on: each side's coverage and all-zero rows.

        Coverage counts a padded word as shared; the zero-row counts say how many
        of the shared words carry no vector on that side.
        """
        zero_left, zero_right = self.zero_rows
        return {"coverage_left": self.coverage_left, "coverage_right": self.coverage_right,
                "zero_rows_left": int(np.count_nonzero(zero_left)),
                "zero_rows_right": int(np.count_nonzero(zero_right))}


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Load an embedding matrix from a word2vec or GloVe text file.

    The format is read from the file, and a file parsed before is read from
    the parse cache; see the module docstring.

    Returns:
        An :class:`EmbeddingMatrix` with rows in file order.

    Raises:
        ParseError: malformed line (wrong field count, non-numeric value) or
            bytes that are not valid UTF-8.
        FormatError: header/content mismatch or empty file.
        DuplicateWordError: a word occurs twice.
    """
    path = Path(path)
    data = path.read_bytes()
    entry = _cache_entry(data)
    emb = _cache_get(entry) if entry is not None else None
    if emb is None:
        lines, start, dim = _read_lines(path, data)
        del data  # the lines hold the text: free the bytes before the parse
        emb = _parse_bulk(lines[start:], dim)
        if emb is None:
            emb = _parse_per_line(lines, start, dim, path)
        if entry is not None:
            _cache_put(entry, emb)
    return emb


def _text_lines(path: Path, data: bytes | None = None) -> list[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file as (line number, text) pairs.

    ``data`` is the file's bytes, when the caller has read them; otherwise the
    file is read here, once. A leading byte-order mark is dropped; lines end
    as in ``open()``'s universal newlines, and line numbers count blank lines too.

    Raises:
        ParseError: at the first byte that is not valid UTF-8.
    """
    if data is None:
        data = path.read_bytes()
    try:
        return _decoded_lines(data, "strict")
    except UnicodeDecodeError:
        pass
    # Decode the same bytes again with each bad byte kept as a lone surrogate
    # (U+DC80 to U+DCFF), so the lines split and number exactly as above.
    lineno, byte = next((i, ord(c) - 0xDC00)
                        for i, line in _decoded_lines(data, "surrogateescape")
                        for c in line if "\udc80" <= c <= "\udcff")
    raise ParseError(f"{path}:{lineno}: not valid UTF-8 (byte {byte:#04x})")


def _decoded_lines(data: bytes, errors: str) -> list[tuple[int, str]]:
    """The numbered non-blank lines of ``data``, decoded a block at a time as ``open()`` does."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors=errors) as fh:
        return [(i, raw.rstrip("\n")) for i, raw in enumerate(fh, 1) if raw.strip()]


def _read_lines(path: Path, data: bytes | None = None
                ) -> tuple[list[tuple[int, str]], int, int | None]:
    """The non-blank lines as (line number, text), the first data line's index, and d.

    The first line is a header when it is two integers; d is None without one.
    ``data`` is as in ``_text_lines``.

    Raises:
        FormatError: empty file, a header size below 1, or a row count unlike the header's.
    """
    lines = _text_lines(path, data)
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
        return EmbeddingMatrix._owned(words, matrix)
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

    return EmbeddingMatrix._owned(tuple(rows), np.array(list(rows.values()), dtype=np.float64))


def _cache_entry(data: bytes) -> Path | None:
    """The parse cache entry of a file holding ``data``, without its suffix.

    None when there is no private cache directory or this module's source
    cannot be read.
    """
    directory = _cache_dir()
    if directory is None:
        return None
    try:
        key = hashlib.sha256(_parser_digest())
    except OSError:
        return None
    key.update(data)
    return directory / key.hexdigest()


def _cache_dir() -> Path | None:
    """``${XDG_CACHE_HOME:-~/.cache}/rpd``, made if missing.

    None unless it is a directory of this user's that no other user may
    enter, so no one else can plant an entry.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):
            return None
    if not hasattr(os, "getuid"):  # no POSIX owner to check
        return None
    directory = Path(root, "rpd")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o077:
        return None
    return directory


@cache
def _parser_digest() -> bytes:
    """What a parse depends on besides the file: this module's source and numpy's version."""
    return hashlib.sha256(Path(__file__).read_bytes() + np.__version__.encode()).digest()


def _cache_get(entry: Path) -> EmbeddingMatrix | None:
    """The cached embedding at ``entry``, fully checked; None when missing or malformed."""
    npy, vocab_path = entry.with_suffix(".npy"), entry.with_suffix(".vocab")
    try:
        with open(npy, "rb") as fh:
            matrix = _read_matrix(fh)
        vocab = vocab_path.read_bytes().decode("utf-8").split("\n")
        emb = EmbeddingMatrix._owned(vocab, matrix)
    except (OSError, ValueError, EOFError, RpdError):
        return None
    with suppress(OSError):  # a read-only cache still serves its entries
        for used in (npy, vocab_path):
            os.utime(used)  # used now, so eviction takes it last
    return emb


def _read_matrix(fh: IO[bytes]) -> np.ndarray:
    """The matrix of a ``.npy`` file as ``_cache_put`` writes it: version 1.0,
    2-D, C-ordered float64.

    Raises:
        ValueError: any other file. The header is checked against the file's
            size before any data is read, so a forged shape allocates nothing.
    """
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 .npy file")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    if dtype != np.float64 or fortran_order or len(shape) != 2 or min(shape) < 1:
        raise ValueError(f"not a C-ordered 2-D float64 array: {dtype} {shape}")
    count = shape[0] * shape[1]
    if os.fstat(fh.fileno()).st_size != fh.tell() + count * dtype.itemsize:
        raise ValueError("file size does not match the header")
    return np.fromfile(fh, dtype=np.float64, count=count).reshape(shape)


def _cache_put(entry: Path, emb: EmbeddingMatrix) -> None:
    """Store ``emb`` at ``entry``, vocabulary first, then evict down to the cap.

    An entry larger than the cap is not written. A write that fails leaves no
    ``.npy``, so no entry.
    """
    vocab = "\n".join(emb.vocab).encode("utf-8")
    if emb.matrix.nbytes + len(vocab) > _CACHE_CAP:
        return
    with suppress(OSError):
        _replace(entry.with_suffix(".vocab"), lambda fh: fh.write(vocab))
        _replace(entry.with_suffix(".npy"),
                 lambda fh: np.save(fh, emb.matrix, allow_pickle=False))
        _evict(entry.parent)


def _replace(path: Path, write: Callable[[IO[bytes]], object]) -> None:
    """Write ``path`` through a temporary file renamed over it, so no reader sees half of it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _evict(directory: Path) -> None:
    """Delete the least recently used files until ``directory`` holds at most the cap.

    Other processes may evict at the same time.
    """
    files = []
    for item in os.scandir(directory):
        with suppress(OSError):
            stat = item.stat()
            files.append((stat.st_mtime_ns, stat.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= _CACHE_CAP:
            break
        with suppress(OSError):
            os.unlink(path)
        total -= size


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix as word2vec text, header line first.

    I/O failures propagate as OSError with the path in the message.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.n} {emb.dim}\n")
        row_fmt = " ".join([_FLOAT_FMT] * emb.dim) + "\n"
        for word, row in zip(emb.vocab, emb.matrix.tolist()):
            fh.write(word + " " + row_fmt % tuple(row))


def _restricted_rows(emb: EmbeddingMatrix, words: Sequence[str]) -> np.ndarray:
    """A new array of the rows of ``words``, in that order."""
    idx = emb.index
    return emb.matrix[[idx[w] for w in words]]


def align_vocabularies(a: EmbeddingMatrix, b: EmbeddingMatrix) -> AlignedPair:
    """Restrict two embeddings to their shared vocabulary.

    The shared vocabulary is the set intersection ordered lexicographically by
    code point, so the result does not depend on either input's row order.

    Raises:
        AlignmentError: empty intersection.
    """
    shared = tuple(sorted(set(a.vocab) & set(b.vocab)))
    if not shared:
        raise AlignmentError("vocabularies have empty intersection")
    return AlignedPair(
        EmbeddingMatrix._owned(shared, _restricted_rows(a, shared)),
        EmbeddingMatrix._owned(shared, _restricted_rows(b, shared)),
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
    return EmbeddingMatrix._owned(vocab, np.random.default_rng(seed).standard_normal((n, d)))
