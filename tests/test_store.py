import ast
import hashlib
import io
import os
import shutil
import sys
import threading
import time
from pathlib import Path

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
    store,
    svd_embedding,
)
from rpd.spectral import SvdFactors


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

    @pytest.mark.parametrize("vocab, word", [(("\udc80", "ok"), "\udc80"),
                                             (("ok", "x\ud800y", "z"), "x\ud800y")])
    def test_word_utf8_cannot_encode_rejected(self, vocab, word):
        # A lone surrogate (an undecodable byte of a file name or argv) is no
        # text a file can hold, so no save of such a vocabulary can start.
        with pytest.raises(PreconditionError) as exc:
            EmbeddingMatrix(vocab, np.ones((len(vocab), 2)))
        assert str(exc.value) == f"vocabulary entry must encode as UTF-8, got {word!r}"

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

    @pytest.mark.parametrize("matrix, message", [
        # numpy's float64 cast keeps 1.0 of 1+5j, with only a ComplexWarning.
        (np.array([[1 + 5j, 0], [0, 1]]), "matrix must hold real numbers, got dtype complex128"),
        ([[1 + 5j, 0], [0, 1]], "matrix must hold real numbers, got dtype complex128"),
        ([["1", "0"], ["0", "1"]], f"matrix must hold real numbers, got dtype {np.dtype('U1')}"),
        ([[1.0, None], [0.0, 1.0]], "matrix must hold real numbers, got dtype object"),
        ([[1.0, 0.0], [1.0]], "matrix must be rectangular, not ragged sequences"),
    ], ids=["complex_array", "complex_list", "str", "none", "ragged"])
    def test_non_real_matrix_rejected(self, matrix, message):
        with pytest.raises(PreconditionError) as exc:
            EmbeddingMatrix(("a", "b"), matrix)
        assert str(exc.value) == message

    @pytest.mark.parametrize("matrix", [[[1, 0], [0, 1]], np.eye(2, dtype=np.int8),
                                        np.eye(2, dtype=np.uint64), np.eye(2, dtype=bool),
                                        np.eye(2, dtype=np.float32)],
                             ids=["int_list", "int8", "uint64", "bool", "float32"])
    def test_integer_and_boolean_matrix_accepted(self, matrix):
        emb = EmbeddingMatrix(("a", "b"), matrix)
        assert emb.matrix.dtype == np.float64
        np.testing.assert_array_equal(emb.matrix, np.eye(2))

    def test_str_vocabulary_rejected(self):
        # A str would be taken as the sequence of its characters.
        with pytest.raises(PreconditionError) as exc:
            EmbeddingMatrix("ab", np.eye(2))
        assert str(exc.value) == "vocabulary must be a sequence of words, not a str"

    def test_str_shared_vocab_rejected(self):
        emb = EmbeddingMatrix(("a", "b"), np.eye(2))
        with pytest.raises(PreconditionError) as exc:
            AlignedPair(emb, emb, "ab")
        assert str(exc.value) == "shared_vocab must be a sequence of words, not a str"


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


class TestOwnership:
    """The public constructor copies the caller's array; a producer's own array
    is stored as it is, read-only, after the same checks."""

    def test_public_constructor_copies(self):
        given = np.ones((2, 2))
        emb = EmbeddingMatrix(("a", "b"), given)
        assert not np.shares_memory(emb.matrix, given)
        given[0, 0] = 5.0
        assert emb.matrix[0, 0] == 1.0

    def test_owned_build_stores_the_array_read_only(self):
        made = np.ones((2, 2))
        emb = EmbeddingMatrix._owned(("a", "b"), made)
        assert emb.matrix is made and emb.vocab == ("a", "b")
        assert not made.flags.writeable

    @pytest.mark.parametrize("vocab, matrix", [
        (("a", "a"), np.ones((2, 1))),
        (("a b",), np.ones((1, 1))),
        (("a", 7), np.ones((2, 1))),
        (("a",), np.array([[np.inf]])),
        (("a", "b"), np.ones(2)),
        ((), np.ones((0, 3))),
        (("a", "b"), np.ones((1, 2))),
    ], ids=["duplicate", "whitespace", "non_str", "non_finite", "one_dim", "empty",
            "vocab_length"])
    def test_owned_build_runs_every_check(self, vocab, matrix):
        with pytest.raises((DimensionError, DuplicateWordError, PreconditionError)) as public:
            EmbeddingMatrix(vocab, matrix)
        with pytest.raises(type(public.value)) as owned:
            EmbeddingMatrix._owned(vocab, matrix.copy())
        assert str(owned.value) == str(public.value)

    def test_producers_build_without_a_copy(self, tmp_path, monkeypatch):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        emb = load_embeddings(path)  # parsed, then stored

        def no_copy(self):
            raise AssertionError("a producer built through the copying constructor")

        monkeypatch.setattr(EmbeddingMatrix, "__post_init__", no_copy)
        assert load_embeddings(path).vocab == emb.vocab  # a cache hit
        assert load_embeddings(write(tmp_path / "f.txt", "ab 1 2\n")).vocab == ("ab",)
        assert load_embeddings(write(tmp_path / "g.txt", "ab 1_0 2\n")).vocab == ("ab",)
        assert align_vocabularies(emb, emb).n == 2
        assert svd_embedding(SvdFactors(np.eye(2), np.ones(2)), ("a", "b")).n == 2
        assert random_gaussian_embedding(2, 2, seed=0).n == 2


def cache_files():
    """The names of the files in the parse cache."""
    root = Path(os.environ["XDG_CACHE_HOME"], "rpd")
    return sorted(p.name for p in root.iterdir()) if root.exists() else []


def cache_key(path):
    """The name of the parse cache entry of the file at ``path``, without its suffix."""
    _, digest = store._cache()
    return hashlib.sha256(digest + path.read_bytes()).hexdigest()


@pytest.fixture
def parses(monkeypatch):
    """The paths ``load_embeddings`` parsed, one per cache miss."""
    parsed = []
    read_lines = store._read_lines

    def counting(path, data=None):
        parsed.append(path)
        return read_lines(path, data)

    monkeypatch.setattr(store, "_read_lines", counting)
    return parsed


def save_npy(path, array, shape=None, version=None):
    """Write ``array`` as a ``.npy`` file; ``shape`` forges the header's shape, and
    ``version`` sets the format version (the oldest that fits when None)."""
    with open(path, "wb") as fh:
        if shape is None:
            np.lib.format.write_array(fh, array, version=version, allow_pickle=False)
        else:
            header = np.lib.format.header_data_from_array_1_0(array)
            np.lib.format.write_array_header_1_0(fh, {**header, "shape": shape})
            fh.write(array.tobytes())


def same_embedding(a, b):
    return a.vocab == b.vocab and np.array_equal(a.matrix.view(np.uint64),
                                                 b.matrix.view(np.uint64))


class TestParseCache:
    @pytest.mark.parametrize("data", [
        b"2 3\nab 1.5 -2 3e-2\ncd 4 5 6\n",
        b"ab 0.1 2\r\n\r\ncd 3 -0.0\r\n",
        b"\xef\xbb\xbfab 1 2\ncd 3 4\n",
        b"a\x00 1 2\na 3 4\na\x00\x00 5 6\n",
        "\U0001f600 1 2\n\U00010348x 3 4\n".encode("utf-8"),
        b"ab 1_0 2\ncd 3 4\n",
    ], ids=["word2vec", "glove", "bom", "nul_endings", "non_bmp", "per_line_parse"])
    def test_hit_is_bit_identical_to_the_parse(self, tmp_path, parses, data):
        path = tmp_path / "e.txt"
        path.write_bytes(data)
        parsed = load_embeddings(path)
        assert cache_files() == [cache_key(path) + ".npy", cache_key(path) + ".vocab"]
        hit = load_embeddings(path)
        assert same_embedding(hit, parsed)
        assert not hit.matrix.flags.writeable
        copy = tmp_path / "copy.txt"
        shutil.copyfile(path, copy)
        assert same_embedding(load_embeddings(copy), parsed)  # keyed on content
        assert parses == [path]

    def test_same_size_rewrite_with_restored_mtime_is_parsed(self, tmp_path, parses):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        before = path.stat()
        assert load_embeddings(path).matrix.tolist() == [[1, 2], [3, 4]]
        write(path, "ab 1 2\ncd 3 5\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_embeddings(path).matrix.tolist() == [[1, 2], [3, 5]]
        assert len(parses) == 2

    def test_bad_file_raises_every_time_and_is_not_stored(self, tmp_path):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 x\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                load_embeddings(path)
            messages.append(str(exc.value))
        assert messages == [f"{path}:2: non-numeric value "
                            f"(could not convert string to float: 'x')"] * 2
        assert cache_files() == []

    @pytest.mark.parametrize("damage", [
        lambda npy, vocab: npy.write_bytes(npy.read_bytes()[:-1]),
        lambda npy, vocab: vocab.unlink(),
        lambda npy, vocab: vocab.write_text("ab\ncd\nef", encoding="utf-8"),
        lambda npy, vocab: vocab.write_text("ab\nab", encoding="utf-8"),
        lambda npy, vocab: npy.write_bytes(b"ab 1 2\n"),
        lambda npy, vocab: save_npy(npy, np.zeros(2, dtype=[("x", "<f8"), ("y", "<f8")])),
        lambda npy, vocab: save_npy(npy, np.ones((2, 2), dtype=">f8")),
        lambda npy, vocab: save_npy(npy, np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])),
        lambda npy, vocab: save_npy(npy, np.ones((2, 2)), shape=(2, 1 << 40)),
        lambda npy, vocab: save_npy(npy, np.array([[1.0, 2.0], [3.0, 4.0]]), version=(2, 0)),
    ], ids=["truncated_npy", "missing_vocab", "row_count_mismatch", "repeated_word",
            "not_npy", "structured_dtype", "big_endian", "fortran_order", "forged_shape",
            "version_2"])
    def test_malformed_entry_is_parsed_and_rewritten(self, tmp_path, parses, damage):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        parsed = load_embeddings(path)
        npy, vocab = (Path(os.environ["XDG_CACHE_HOME"], "rpd", name) for name in cache_files())
        damage(npy, vocab)
        assert same_embedding(load_embeddings(path), parsed)
        assert same_embedding(load_embeddings(path), parsed)
        assert len(parses) == 2  # the first load after the damage, not the second
        assert len(cache_files()) == 2

    def test_hit_does_not_evaluate_the_npy_header(self, tmp_path, monkeypatch, parses):
        # ast.literal_eval, which numpy's header reader calls, can raise
        # SystemError while other threads run finalizers.
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        parsed = load_embeddings(path)

        def fail(text):
            raise SystemError("AST constructor recursion depth mismatch")

        monkeypatch.setattr(ast, "literal_eval", fail)
        assert same_embedding(load_embeddings(path), parsed)
        assert parses == [path]

    def test_cache_open_to_other_users_is_not_used(self, tmp_path, parses):
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        root = Path(os.environ["XDG_CACHE_HOME"], "rpd")
        root.mkdir(parents=True, mode=0o755)
        root.chmod(0o755)
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[1, 2]]
        assert len(parses) == 2
        assert cache_files() == []

    def test_unwritable_cache_still_loads(self, tmp_path, monkeypatch, parses):
        monkeypatch.setenv("XDG_CACHE_HOME", str(write(tmp_path / "a-file", "")))
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[1, 2]]
        assert len(parses) == 2

    @pytest.mark.parametrize("xdg", [None, "", "relative/cache"])
    def test_cache_falls_back_to_the_home_cache(self, tmp_path, monkeypatch, xdg):
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert store._cache()[0] == tmp_path / "home" / ".cache" / "rpd"
        assert (tmp_path / "home" / ".cache" / "rpd").is_dir()

    def test_relative_home_means_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "relative-home")
        monkeypatch.chdir(tmp_path)
        assert store._cache() is None
        assert list(tmp_path.iterdir()) == []

    def test_no_posix_owner_means_no_cache(self, tmp_path, monkeypatch, parses):
        monkeypatch.delattr(os, "getuid")
        assert store._cache() is None
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[1, 2]]
        assert len(parses) == 2
        assert cache_files() == []

    def test_unreadable_module_source_means_no_cache(self, tmp_path, monkeypatch, parses):
        source = store.__file__
        store._parser_digest.cache_clear()
        monkeypatch.setattr(store, "__file__", str(tmp_path / "missing.py"))
        assert store._cache() is None
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[1, 2]]
        assert len(parses) == 2
        assert cache_files() == []
        monkeypatch.setattr(store, "__file__", source)
        assert store._cache() is not None  # a failed digest is not kept

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        def fail(fh):
            fh.write(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store._replace(tmp_path / "entry.npy", fail)
        assert list(tmp_path.iterdir()) == []

    def test_editing_the_parser_makes_old_entries_unreachable(self, tmp_path, monkeypatch,
                                                             parses):
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        load_embeddings(path)
        monkeypatch.setattr(store, "_parser_digest", lambda: b"another parser")
        load_embeddings(path)
        assert len(parses) == 2
        assert len(cache_files()) == 4

    def test_eviction_keeps_the_cache_under_the_cap(self, tmp_path, monkeypatch, parses):
        paths = [write(tmp_path / f"e{i}.txt", f"ab {i} 2\ncd 3 4\n") for i in range(3)]
        load_embeddings(paths[0])
        root = Path(os.environ["XDG_CACHE_HOME"], "rpd")
        entry = sum(f.stat().st_size for f in root.iterdir())
        monkeypatch.setattr(store, "_CACHE_CAP", 2 * entry)
        load_embeddings(paths[1])
        for i, stamp in ((0, 1_000), (1, 2_000)):  # e0 used before e1
            for suffix in (".npy", ".vocab"):
                os.utime(root / (cache_key(paths[i]) + suffix), (stamp, stamp))
        load_embeddings(paths[0])  # a hit: e0 is now the most recently used
        load_embeddings(paths[2])  # evicts e1
        assert {name.partition(".")[0] for name in cache_files()} == {
            cache_key(paths[0]), cache_key(paths[2])}
        assert sum(f.stat().st_size for f in root.iterdir()) <= store._CACHE_CAP
        assert parses == [paths[0], paths[1], paths[2]]

    def test_concurrent_loads_under_eviction_agree(self, tmp_path, monkeypatch):
        """Threads that load, store and evict at once still get every file's own parse."""
        paths = [write(tmp_path / f"e{i}.txt", f"ab {i} 2\ncd 3 4\n") for i in range(3)]
        expected = [load_embeddings(paths[0])]
        root = Path(os.environ["XDG_CACHE_HOME"], "rpd")
        entry = sum(f.stat().st_size for f in root.iterdir())
        monkeypatch.setattr(store, "_CACHE_CAP", 2 * entry)  # two of the three entries
        expected += [load_embeddings(path) for path in paths[1:]]
        results, errors = [], []

        def work(offset):
            try:
                for k in range(60):
                    i = (k + offset) % 3
                    results.append((i, load_embeddings(paths[i])))
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * 60
        assert all(same_embedding(emb, expected[i]) for i, emb in results)
        assert sum(f.stat().st_size for f in root.iterdir()) <= store._CACHE_CAP

    def test_entry_larger_than_the_cap_is_not_written(self, tmp_path, monkeypatch,
                                                     short_margin):
        # Nor is a record, which would name no entry and send every later
        # load through the hash and the parse, to be written again each time.
        monkeypatch.setattr(store, "_CACHE_CAP", 16)
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        settle(path)
        for _ in range(2):
            assert load_embeddings(path).n == 1
        assert cache_files() == []


def stamps():
    """The names of the stamp records in the parse cache."""
    return [name for name in cache_files() if name.endswith(".stamp")]


def settle(path):
    """Wait until the ctime of ``path`` is older than the racy margin by the
    filesystem's own clock: until a file touched beside it has a ctime that
    far past it."""
    probe = path.with_name(path.name + ".probe")
    while True:
        probe.touch()
        if probe.stat().st_ctime_ns - path.stat().st_ctime_ns > store._RACY_NS:
            break
        time.sleep(store._RACY_NS / 4e9)
    probe.unlink()


def spy_reads(monkeypatch, path, then=lambda: None):
    """The reads of ``path`` through the store's ``open``, one item each;
    ``then`` runs after each read."""
    reads = []

    class Spy(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            reads.append(size)
            then()
            return data

    def spy_open(file, mode):
        return Spy(io.FileIO(file, mode)) if file == path else open(file, mode)

    monkeypatch.setattr(store, "open", spy_open, raising=False)
    return reads


@pytest.fixture
def hashes(monkeypatch):
    """One item per hash of a file's text, that is, per load that took the hash path."""
    store._parser_digest()  # made once, before any load is counted
    hashed = []
    sha256 = hashlib.sha256

    def counting(*args):
        hashed.append(args)
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return hashed


@pytest.fixture
def short_margin(monkeypatch):
    """A 50 ms racy margin, so that ``settle`` waits that long rather than seconds."""
    monkeypatch.setattr(store, "_RACY_NS", 50_000_000)


@pytest.mark.usefixtures("short_margin")
class TestStampRecord:
    def test_record_hit_neither_reads_nor_hashes(self, tmp_path, monkeypatch, parses, hashes):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        settle(path)
        parsed = load_embeddings(path)
        assert len(stamps()) == 1 and len(hashes) == 1
        reads = spy_reads(monkeypatch, path)
        assert same_embedding(load_embeddings(path), parsed)
        assert reads == [] and len(hashes) == 1
        assert parses == [path]

    def test_same_size_rewrite_with_restored_mtime_is_parsed(self, tmp_path, parses, hashes):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        settle(path)
        before = path.stat()
        assert load_embeddings(path).matrix.tolist() == [[1, 2], [3, 4]]
        assert len(stamps()) == 1
        write(path, "ab 1 2\ncd 3 5\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_embeddings(path).matrix.tolist() == [[1, 2], [3, 5]]
        assert len(parses) == 2 and len(hashes) == 2

    def test_touch_hashes_and_hits_the_entry(self, tmp_path, parses, hashes):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        settle(path)
        parsed = load_embeddings(path)
        path.touch()
        assert same_embedding(load_embeddings(path), parsed)
        assert len(hashes) == 2
        assert parses == [path]

    @pytest.mark.parametrize("move", [os.link, os.rename, os.symlink],
                             ids=["hard_link", "rename", "symlink"])
    def test_moved_file_keeps_its_record(self, tmp_path, parses, hashes, move):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        settle(path)
        parsed = load_embeddings(path)
        moved = tmp_path / "moved.txt"
        move(path, moved)
        settle(moved)  # a link or a rename may move the ctime
        assert same_embedding(load_embeddings(moved), parsed)
        hashed = len(hashes)
        for name in {path, moved} & set(tmp_path.iterdir()):
            assert same_embedding(load_embeddings(name), parsed)
        assert len(hashes) == hashed
        assert len(stamps()) == 1
        assert parses == [path]

    def test_file_changed_during_the_read_writes_no_record(self, tmp_path, monkeypatch,
                                                           parses):
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        settle(path)
        spy_reads(monkeypatch, path, then=lambda: write(path, "ab 1 3\n"))
        assert load_embeddings(path).matrix.tolist() == [[1, 2]]  # the bytes it read
        assert stamps() == []
        monkeypatch.delattr(store, "open")
        assert load_embeddings(path).matrix.tolist() == [[1, 3]]

    def test_fifo_writes_no_record(self, tmp_path, monkeypatch, parses, hashes):
        # The bytes wait in the pipe, written past the margin, and the writer
        # closes once the load has opened it: the pipe's stamp then holds still
        # through the read, so only the file type keeps a record out.
        fifo = tmp_path / "e.fifo"
        os.mkfifo(fifo)
        writers = []

        def open_then_close_writer(file, mode):
            fh = open(file, mode)
            if file == fifo:
                os.close(writers.pop())
            return fh

        monkeypatch.setattr(store, "open", open_then_close_writer, raising=False)
        for _ in range(2):
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writers.append(os.open(fifo, os.O_WRONLY))
            os.write(writers[-1], b"ab 1 2\n")
            os.close(reader)
            settle(fifo)
            assert load_embeddings(fifo).matrix.tolist() == [[1, 2]]
        assert stamps() == []
        assert len(hashes) == 2
        assert parses == [fifo]  # the second load hit the entry of the same bytes

    def test_editing_the_parser_reaches_no_old_record(self, tmp_path, monkeypatch, parses):
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        settle(path)
        load_embeddings(path)
        monkeypatch.setattr(store, "_parser_digest", lambda: b"another parser")
        load_embeddings(path)
        assert len(parses) == 2
        assert len(stamps()) == 2

    @pytest.mark.parametrize("damage", [
        lambda text: b"garbage",
        lambda text: b"",
        lambda text: text[:-64] + b"../x",
        lambda text: text[:-64] + b"0" * 64,
        lambda text: text[:-64] + text[-64:].upper(),
        lambda text: text + b"\n",
    ], ids=["garbage", "empty", "path", "key_without_entry", "upper_case_key", "newline"])
    def test_damaged_record_falls_back_to_the_hash(self, tmp_path, parses, hashes, damage):
        path = write(tmp_path / "e.txt", "ab 1 2\ncd 3 4\n")
        settle(path)
        parsed = load_embeddings(path)
        record = Path(os.environ["XDG_CACHE_HOME"], "rpd", *stamps())
        record.write_bytes(damage(record.read_bytes()))
        assert same_embedding(load_embeddings(path), parsed)
        assert len(hashes) == 2
        assert same_embedding(load_embeddings(path), parsed)  # the record was written again
        assert len(hashes) == 2
        assert parses == [path]

    def test_file_younger_than_the_margin_writes_no_record(self, tmp_path, monkeypatch,
                                                           parses, hashes):
        monkeypatch.setattr(store, "_RACY_NS", 3_600 * 10**9)
        path = write(tmp_path / "e.txt", "ab 1 2\n")
        for _ in range(2):
            assert load_embeddings(path).matrix.tolist() == [[1, 2]]
        assert stamps() == []
        assert len(hashes) == 2
        assert parses == [path]

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

    def test_negative_seed(self):
        with pytest.raises(PreconditionError, match=r"^seed must be >= 0, got -1$"):
            random_gaussian_embedding(4, 3, seed=-1)


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
