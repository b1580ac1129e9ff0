"""Every text loader reads its file the same way: UTF-8, a leading BOM
ignored, universal newlines, and undecodable bytes raised as a ParseError at
the file's line."""

import io
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rpd import (
    RpdError,
    ParseError,
    load_analogy_dataset,
    load_embeddings,
    load_similarity_dataset,
    read_corpus,
    store,
    tokenize_corpus_text,
)

from _oracle import regex_documents

BOM = b"\xef\xbb\xbf"


# name: (loader, file name, lines 1 and 2, line 3 with a {} slot for a byte).
# The line endings vary so that line numbers are checked under each of them.
FILES = {
    "word2vec": (load_embeddings, "e.txt", b"2 2\nthe 1 2\n", b"of{} 3 4\n"),
    "glove": (load_embeddings, "e.txt", b"the 1 2\r\n\r\n", b"of{} 3 4\r\n"),
    "similarity": (load_similarity_dataset, "sim.tsv", b"cat\tdog\t1\r\r", b"sun{}\tmoon\t2\r"),
    "analogy": (load_analogy_dataset, "ana.txt", b": family\nboy girl man woman\n",
                b"a b{} c d\n"),
    "corpus": (read_corpus, "corpus.txt", b"a b\n\x0c\n", b"c{} d\n"),
}


def write(tmp_path, name, data):
    path = tmp_path / FILES[name][1]
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize("bad", [b"\xe9", b"\xff\xfe", b"\xed\xa0\x80"])
def test_invalid_byte_names_path_and_line(tmp_path, name, bad):
    load, file_name, head, line = FILES[name]
    path = write(tmp_path, name, head + line.replace(b"{}", bad))
    with pytest.raises(ParseError, match=re.escape(f"{file_name}:3: not valid UTF-8")):
        load(path)


@pytest.mark.parametrize("name", FILES)
def test_truncated_sequence_at_end_of_file(tmp_path, name):
    load, file_name, head, line = FILES[name]
    path = write(tmp_path, name, head + line.replace(b"{}", b"").rstrip(b"\r\n") + b"\xe2\x82")
    with pytest.raises(ParseError, match=re.escape(f"{file_name}:3: not valid UTF-8")):
        load(path)


def same(a, b):
    """Loaded values compared by their fields (and matrix bytes)."""
    if hasattr(a, "matrix"):
        return a.vocab == b.vocab and a.matrix.tobytes() == b.matrix.tobytes()
    return a == b


@pytest.mark.parametrize("name", FILES)
def test_byte_order_mark_is_ignored(tmp_path, name):
    load, _, head, line = FILES[name]
    data = head + line.replace(b"{}", b"")
    plain = load(write(tmp_path, name, data))
    with_bom = load(write(tmp_path, name, BOM + data))
    assert same(plain, with_bom)


def test_bad_byte_found_in_the_bytes_read_once(tmp_path, monkeypatch):
    """The line of a bad byte comes from the same bytes the strict decode failed
    on: the file is read once, so a rewrite during the load cannot hide it."""
    path = tmp_path / "e.txt"
    path.write_bytes(BOM + b"the 1 2\r\n\nof\xe9 3 4\n")
    reads = []

    class ReadOnceThenRewrite(io.BufferedReader):
        def read(self, size=-1):
            reads.append(Path(self.name))
            data = super().read(size)
            path.write_bytes(b"the 1 2\nof 3 4\n")
            return data

    def spy_open(file, mode):
        return ReadOnceThenRewrite(io.FileIO(file, mode)) if file == path else open(file, mode)

    monkeypatch.setattr(store, "open", spy_open, raising=False)
    with pytest.raises(ParseError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}:3: not valid UTF-8 (byte 0xe9)"
    assert reads == [path]


def test_corpus_documents_end_only_at_cr_or_lf(tmp_path):
    """Blank and whitespace-only lines drop out; \\x0c, \\x85, U+2028 and \\x1c separate
    tokens within a document."""
    data = "a b\r\nc\rd\x0ce\n\n \n\x85f\u2028g\x1ch\n  \ni j".encode("utf-8")
    docs = read_corpus(write(tmp_path, "corpus", data))
    assert docs == [["a", "b"], ["c"], ["d", "e"], ["f", "g", "h"], ["i", "j"]]


# Line ends, the whitespace that does not end a line, letters whose lowercase
# depends on context (final sigma) or is longer (dotted I), and ASCII letters.
CORPUS_CHARS = ["\r", "\n", "\r\n", " ", "\t", "\x0c", "\x85", "\u2028", "\x1c", "Σ", "İ"]
corpus_text = st.lists(st.one_of(st.sampled_from(CORPUS_CHARS),
                                 st.sampled_from(string.ascii_letters)),
                       max_size=40).map("".join)


@pytest.mark.parametrize("lowercase", [True, False])
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=corpus_text)
def test_corpus_text_splits_like_a_line_regex(text, lowercase):
    assert tokenize_corpus_text(text, lowercase) == regex_documents(text, lowercase)


@pytest.mark.parametrize("lowercase", [True, False])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=corpus_text)
def test_corpus_file_reads_like_its_text(fuzz_dir, text, lowercase):
    path = fuzz_dir / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    assert read_corpus(path, lowercase) == tokenize_corpus_text(text, lowercase)


PIECES = [BOM, b"\r", b"\n", b"\r\n", b"\x00", b"\x0c", b"\xc2\x85", b"\xe9", b"\xff",
          b"\xc3", b"\xed\xa0\x80", b" ", b"\t", b"#", b":", b"-", b".", b"e", b"0", b"1",
          b"2", b"nan", b"inf", b"1_0", b"a", b"b", b"\xd9\xa1"]
fuzz_bytes = st.lists(st.one_of(st.sampled_from(PIECES), st.binary(max_size=4)),
                      max_size=40).map(b"".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=fuzz_bytes)
def test_loaders_raise_only_rpd_errors(fuzz_dir, data):
    path = fuzz_dir / "input.txt"
    path.write_bytes(data)
    for load in (load_embeddings, load_similarity_dataset, load_analogy_dataset, read_corpus):
        try:
            load(path)
        except RpdError:
            pass
