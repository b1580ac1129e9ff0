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
the parser digest (of this module's source and numpy's version). ``_cache()``
is the one place that finds the cache directory and the parser digest, and a
load calls it once. A file with the same bytes is then read from its entry
instead of parsed, with every ``EmbeddingMatrix`` check; a changed byte, or an
edit of the parser, gives another key. An entry's ``.npy`` header is matched
as bytes against the one ``np.save`` writes, not read through
``np.lib.format``: its ``ast.literal_eval`` can raise ``SystemError`` while
other threads run, and loads from several threads must not fail. Only
successful parses are stored, so a bad file raises its error on every load. A
missing, unreadable or malformed entry means a parse; a cache that cannot be
written means no entry, and a directory that is not the user's own, closed to
other users, means no cache. The least recently used entries go once the cache
holds more than ``_CACHE_CAP`` bytes (1 GiB), and a larger entry is never
written. ``rm -rf ~/.cache/rpd`` clears it. A first load costs up to about 10%
more than a parse alone, for the hash and the write.

A file loaded before is found without reading or hashing it: a ``.stamp``
record per file, named from the parser digest and the file's device and inode,
holds the file's size, mtime and ctime (``fstat`` of the open file) and its
entry's key. When the stamp still matches, the entry is read. A file is still
read and hashed on its first load, after any change of its stamp, while its
ctime is less than ``_RACY_NS`` (3 s) older than the load's start, and when it
is not a regular file (a FIFO or a device). A record is written only when its
entry is stored (not one larger than the cap, or whose write failed), and only
when the stamp did not change during the read. A missing, unreadable or
malformed record, or one whose entry is gone, means the hash. Like git's index
(its "racy entry" rule), the stamp trusts that every change of a file moves
its ctime, which ``os.utime`` cannot set back; on a network filesystem it also
trusts that the server's clock runs less than the margin behind this host's.

Floats are written with ten significant digits so that a save/load round
trip reproduces values within 1e-8: each value exactly as ``_FLOAT_FMT % value``
(``"%.9e"``) prints it. ``save_embeddings`` prints whole blocks of values at
once: numpy splits each value into its sign, ten mantissa digits and exponent,
and one digit writer, ``_digits``, puts the digits in place five at a time
from a table of ``"%05d"``; a value too close to a rounding tie, or outside the
range where that split is exact, and a row with a three-digit exponent are
printed by ``%`` itself. The counts export of ``rpd.spectral`` prints its
integer counts through the same writer.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import stat
import tempfile
import time
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

__all__ = [
    "AlignedPair",
    "EmbeddingMatrix",
    "align_vocabularies",
    "load_embeddings",
    "random_gaussian_embedding",
    "save_embeddings",
]

_FLOAT_FMT = "%.9e"  # ten significant digits; _float_lines prints it digit by digit
# Every power of ten a double holds exactly: 10**0 to 10**22.
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])
_PRINT_BLOCK = 1 << 16  # values a text printer prints at a time
_CACHE_CAP = 1 << 30  # bytes the parse cache may hold
# A stamp is recorded only when the file's ctime is this much older than the
# start of the load. Any change of the file after that start then gets a later
# ctime, even where the kernel's clock ticks coarsely or the filesystem keeps
# 1-2 s timestamps, so no change can leave the stamp as it was (git's "racy
# entry" rule). ctime, unlike mtime, cannot be set back with os.utime.
_RACY_NS = 3_000_000_000
_KEY = re.compile(rb"[0-9a-f]{64}")  # an entry's name: a SHA-256 in lowercase hex
# The header np.save writes for a C-ordered n×d native float64 array (n, d >= 1),
# space-padded to its alignment; the module docstring says why it is matched.
_NPY_HEADER = re.compile(
    rb"\x93NUMPY\x01\x00..\{'descr': '%s', 'fortran_order': False, 'shape': "
    rb"\(([1-9]\d*), ([1-9]\d*)\), \} *\n" % np.dtype(np.float64).str.encode(), re.DOTALL)


def _check_words(words: Sequence[object], kind: str) -> None:
    """Require that each of ``words`` is a word: a non-empty ``str`` without
    whitespace that UTF-8 encodes. ``kind`` says what each is in the error.

    UTF-8 is checked by one encode of all the words, a space between each.
    """
    for word in words:
        if not isinstance(word, str) or word.split() != [word]:
            raise PreconditionError(f"{kind} must be a word without whitespace, got {word!r}")
    try:
        " ".join(words).encode("utf-8")
    except UnicodeEncodeError as exc:  # the spaces before the failure count the words
        word = words[exc.object.count(" ", 0, exc.start)]
        raise PreconditionError(f"{kind} must encode as UTF-8, got {word!r}") from None


def _word_tuple(words: Sequence[str], kind: str) -> tuple[str, ...]:
    """``words`` as a tuple; a ``str`` is refused, as it would split into its characters."""
    if isinstance(words, str):
        raise PreconditionError(f"{kind} must be a sequence of words, not a str")
    return tuple(words)


def _real(values: object, what: str) -> np.ndarray:
    """``values`` as an array of booleans, integers or reals, for conversion to float64.

    numpy's conversion would drop an imaginary part with only a warning, and
    raise a bare ``ValueError`` on strings or ragged rows; here each is a
    ``PreconditionError`` that names ``what``.
    """
    try:
        array = np.asarray(values)
    except ValueError:
        raise PreconditionError(f"{what} must be rectangular, not ragged sequences") from None
    if array.dtype.kind not in "biuf":
        raise PreconditionError(f"{what} must hold real numbers, got dtype {array.dtype}")
    return array


def _check_names(names: Sequence[str], kind: str) -> None:
    """Require distinct ``names`` that are words, so each labels one TSV field."""
    if len(set(names)) != len(names):
        raise PreconditionError(f"{kind} names must be unique")
    _check_words(names, f"{kind} name")


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

    Row ``i`` of ``matrix`` is the vector of ``vocab[i]``. The matrix may hold
    booleans, integers or reals, and is stored as float64.

    Instances are immutable; the matrix is stored read-only and may be shared
    across threads.
    """

    vocab: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _real(self.matrix, "matrix")
        self._own(self.vocab, np.array(matrix, dtype=np.float64, order="C", copy=True))

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
        vocab = _word_tuple(vocab, "vocabulary")
        if matrix.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {matrix.shape}")
        n, d = matrix.shape
        if n < 1 or d < 1:
            raise PreconditionError(f"matrix must be at least 1x1, got {n}x{d}")
        if len(vocab) != n:
            raise DimensionError(
                f"vocab length {len(vocab)} does not match matrix row count {n}"
            )
        _check_words(vocab, "vocabulary entry")
        seen = set()
        for word in vocab:
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
        shared = _word_tuple(self.shared_vocab, "shared_vocab")
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
    started = time.time_ns()
    record = entry = None
    with open(path, "rb") as fh:  # fstat of the open file: NFS revalidates on open
        before = os.fstat(fh.fileno())
        found = _cache()
        if found is not None:
            directory, digest = found
            # The record's name holds the parser digest and the file's identity,
            # so an edited parser reads no old record, and a file keeps one record.
            record = directory / f"{before.st_dev}-{before.st_ino}-{digest.hex()}.stamp"
            emb = _cache_get(_recorded_entry(record, before))
            if emb is not None:
                return emb
        data = fh.read()
        if not (stat.S_ISREG(before.st_mode) and before.st_ctime_ns < started - _RACY_NS
                and _stamp(os.fstat(fh.fileno())) == _stamp(before)):
            record = None  # the stamp may miss a change: this file hashes on every load
    if found is not None:
        key = hashlib.sha256(digest)
        key.update(data)
        entry = directory / key.hexdigest()
    emb = _cache_get(entry)
    if emb is None:
        lines, dim = _read_lines(path, data)
        del data  # the lines hold the text: free the bytes before the parse
        emb = _parse_bulk(lines, dim)
        if emb is None:
            emb = _parse_per_line(lines, dim, path)
        if entry is not None:
            _cache_put(entry, emb)
    if record is not None and entry.with_suffix(".npy").exists():  # a record names an entry
        with suppress(OSError):
            _replace(record, lambda out: out.write(_stamp(before) + entry.name.encode()))
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
                ) -> tuple[list[tuple[int, str]], int | None]:
    """The data lines as (line number, text), any header dropped, and d.

    The first non-blank line is a header when it is two integers; d is None
    without one. ``data`` is as in ``_text_lines``.

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
        return lines, None
    if declared_n < 1 or dim < 1:
        raise FormatError(f"{path}:{lineno}: header sizes must be positive")
    if len(lines) - 1 != declared_n:
        raise FormatError(
            f"{path}: header declares {declared_n} rows but file has {len(lines) - 1}"
        )
    return lines[1:], dim


def _parse_bulk(lines: list[tuple[int, str]], dim: int | None) -> EmbeddingMatrix | None:
    """Parse the data lines with one ``np.loadtxt`` call, or return None.

    None means the per-line parser must decide: a line it would reject (it
    raises the error with the line number), or a token that Python's
    ``float`` reads but ``loadtxt`` does not (``1_000``, non-ASCII digits).
    """
    # One tuple of words and one of the value strings; a word-only line
    # makes zip stop after the words.
    columns = list(zip(*(line.split(None, 1) for _, line in lines)))
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


def _parse_per_line(lines: list[tuple[int, str]], dim: int | None, path: Path
                    ) -> EmbeddingMatrix:
    """Parse the data lines one at a time; the source of every line-numbered error."""
    rows: dict[str, list[float]] = {}
    for lineno, line in lines:
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


def _stamp(info: os.stat_result) -> bytes:
    """What a record trusts of a file: its size, mtime and ctime, a space after each."""
    return b"%d %d %d " % (info.st_size, info.st_mtime_ns, info.st_ctime_ns)


def _recorded_entry(record: Path, info: os.stat_result) -> Path | None:
    """The entry ``record`` names when it holds ``info``'s stamp; None when it is
    missing or unreadable, or holds another stamp or no 64-hex key."""
    try:
        text = record.read_bytes()
    except OSError:
        return None
    stamp = _stamp(info)
    key = text[len(stamp):]
    if not text.startswith(stamp) or not _KEY.fullmatch(key):
        return None
    return record.with_name(key.decode())


def _cache() -> tuple[Path, bytes] | None:
    """The parse cache's directory and the parser digest; None when there is no cache.

    The directory is ``${XDG_CACHE_HOME:-~/.cache}/rpd``, made if missing. It
    must be this user's, and no other user may enter it, so no one else can
    plant an entry; the digest must be readable.
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
        digest = _parser_digest()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o077:
        return None
    return directory, digest


@cache
def _parser_digest() -> bytes:
    """What a parse depends on besides the file: this module's source and numpy's version."""
    return hashlib.sha256(Path(__file__).read_bytes() + np.__version__.encode()).digest()


def _cache_get(entry: Path | None) -> EmbeddingMatrix | None:
    """The cached embedding at ``entry``, fully checked; None when there is no
    entry or it is missing or malformed."""
    if entry is None:
        return None
    npy, vocab_path = entry.with_suffix(".npy"), entry.with_suffix(".vocab")
    try:
        with open(npy, "rb") as fh:
            matrix = _read_matrix(fh)
        vocab = vocab_path.read_bytes().decode("utf-8").split("\n")
        emb = EmbeddingMatrix._owned(vocab, matrix)
    except (OSError, ValueError, RpdError):
        return None
    with suppress(OSError):  # a read-only cache still serves its entries
        for used in (npy, vocab_path):
            os.utime(used)  # used now, so eviction takes it last
    return emb


def _read_matrix(fh: IO[bytes]) -> np.ndarray:
    """The matrix of a ``.npy`` file as ``_cache_put`` writes it: version 1.0,
    2-D, C-ordered native float64, its header exactly as ``np.save`` writes one.

    Raises:
        ValueError: any other file. The header is checked against the file's
            size before any data is read, so a forged shape allocates nothing.
    """
    head = fh.read(10)  # the magic string, the version and the header's length
    head += fh.read(int.from_bytes(head[8:], "little"))
    match = _NPY_HEADER.fullmatch(head)
    if match is None:
        raise ValueError("not a version 1.0 .npy file of a C-ordered 2-D float64 array")
    n, d = int(match[1]), int(match[2])
    if os.fstat(fh.fileno()).st_size != len(head) + n * d * 8:
        raise ValueError("file size does not match the header")
    return np.fromfile(fh, dtype=np.float64, count=n * d).reshape(n, d)


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
            info = item.stat()
            files.append((info.st_mtime_ns, info.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= _CACHE_CAP:
            break
        with suppress(OSError):
            os.unlink(path)
        total -= size


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix as word2vec text, header line first.

    Each value is printed as ``_FLOAT_FMT % value`` would print it; see the
    module docstring.

    I/O failures propagate as OSError with the path in the message.
    """
    rows = max(1, _PRINT_BLOCK // emb.dim)
    with open(path, "wb") as fh:
        fh.write(f"{emb.n} {emb.dim}\n".encode())
        for start in range(0, emb.n, rows):
            words = emb.vocab[start:start + rows]
            texts = _float_lines(emb.matrix[start:start + rows])
            fh.write(b"".join((word + " ").encode() + text for word, text in zip(words, texts)))


@cache
def _digit_table(width: int) -> np.ndarray:
    """``"%0*d" % (width, k)`` as ``width`` ASCII bytes, one item, at index k, for
    every k below ``10**width`` (1 <= width <= 5).

    Built on first use, so importing the package does not pay for it.
    """
    digits = np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T + ord("0")
    return np.ascontiguousarray(digits).view(f"V{width}")[:, 0]


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the zero-padded ASCII digits of each integer in ``values`` into the
    last axis of the ``uint8`` array ``out`` (0 <= value < 10**width, that axis's length).

    Each chunk of five digits, the last first, is one ``np.take`` from the
    digit table into its bytes of ``out``; the leading chunk may be shorter.
    """
    for end in range(out.shape[-1], 0, -5):
        start = max(end - 5, 0)
        chunk = values
        if start:
            values, chunk = np.divmod(values, 100_000)
        width = end - start
        out[..., start:end].view(f"V{width}")[..., 0] = np.take(_digit_table(width), chunk)


def _int_lines(columns: Sequence[np.ndarray]) -> bytes:
    """``"%d %d ... %d\\n"`` for each row of the integer ``columns`` (0 <= value < 2**63),
    encoded: the same bytes as ``%``."""
    widths = [len(str(int(column.max(initial=0)))) for column in columns]
    lines = np.full((len(columns[0]), sum(widths) + len(widths)), ord(" "), dtype=np.uint8)
    lines[:, -1] = ord("\n")
    at = 0
    for column, width in zip(columns, widths):
        field = lines[:, at:at + width]
        _digits(column, field)
        for place in range(width - 1):  # leading zeros become NULs, squeezed out below
            field[:, place] *= column >= 10 ** (width - 1 - place)
        at += width + 1
    return lines[lines != 0].tobytes()


def _float_lines(rows: np.ndarray) -> list[bytes]:
    """The text of each row of ``rows``, encoded: every value as ``_FLOAT_FMT``
    prints it, a space between values and a newline after the last.

    Each value splits into its sign, exponent ``e = floor(log10|x|)`` and
    ten-digit mantissa ``m = rint(|x|·10^(9−e))``. For -13 <= e <= 31 the
    power of ten is exact, so ``|x|·10^(9−e)`` is rounded once, to within
    about 2⁻²⁰, and ``rint`` rounds as ``%`` does unless that is within 1e-4 of
    a tie. ``%`` itself prints a value near a tie, one whose m falls outside
    [10⁹, 10¹⁰) (log10 off by one, or a carry into the next power of ten) and
    one whose e is out of that range; and a row with a three-digit exponent.
    """
    magnitude = np.abs(rows)
    zero = magnitude == 0.0
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(magnitude))
    exponent[zero] = 0.0
    shift = 9 - exponent.astype(np.int64)
    power = _EXACT_POW10[np.minimum(np.abs(shift), len(_EXACT_POW10) - 1)]
    with np.errstate(over="ignore"):  # a product past the largest double is not selected
        scaled = np.where(shift >= 0, magnitude * power, magnitude / power)
    mantissa = np.rint(scaled)
    redo = ((np.abs(scaled - mantissa) > 0.5 - 1e-4) | (mantissa < 1e9) | (mantissa >= 1e10)
            | (np.abs(shift) >= len(_EXACT_POW10))) & ~zero
    for k in np.flatnonzero(redo):
        printed = _FLOAT_FMT % magnitude.flat[k]  # "D.DDDDDDDDDe±XX[X]"
        mantissa.flat[k], exponent.flat[k] = int(printed[0] + printed[2:11]), int(printed[12:])
    mantissa, exponent = mantissa.astype(np.int64), exponent.astype(np.int64)

    # 17 bytes a value: the sign (NUL for +, squeezed out below), a digit, ".",
    # nine digits, "e", the exponent's sign and two digits, then " " or "\n".
    # The ten mantissa digits land one byte right; the first moves over the dot.
    text = np.empty((*rows.shape, 17), dtype=np.uint8)
    _digits(mantissa, text[..., 2:12])
    _digits(np.minimum(np.abs(exponent), 99), text[..., 14:16])  # three digits: redone below
    text[..., 0] = np.signbit(rows)
    text[..., 0] *= ord("-")
    text[..., 1] = text[..., 2]
    text[..., 2] = ord(".")
    text[..., 12] = ord("e")
    text[..., 13] = np.where(exponent < 0, ord("-"), ord("+"))
    text[..., 16] = ord(" ")
    text[:, -1, 16] = ord("\n")
    lines = text[text != 0].tobytes().splitlines(keepends=True)
    row_fmt = " ".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
    for i in np.flatnonzero(np.any(np.abs(exponent) >= 100, axis=1)):
        lines[i] = (row_fmt % tuple(rows[i].tolist())).encode()
    return lines


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

    The generator is explicitly seeded (PCG64; ``seed`` >= 0), so the same
    seed yields a bit-identical matrix. Vocabulary tokens are
    ``"w0" ... "w{n-1}"``.
    """
    if n < 1 or d < 1:
        raise PreconditionError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    vocab = tuple(f"w{i}" for i in range(n))
    return EmbeddingMatrix._owned(vocab, np.random.default_rng(seed).standard_normal((n, d)))
