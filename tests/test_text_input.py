"""Every text loader reads its file the same way: UTF-8, a leading BOM
ignored, universal newlines, and undecodable bytes raised as a ParseError at
the file's line."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from rpd import (
    RpdError,
    ParseError,
    load_analogy_dataset,
    load_counts,
    load_embeddings,
    load_similarity_dataset,
    read_corpus,
)

BOM = b"\xef\xbb\xbf"
SIDECAR = b"a\nb\nc\n"


def counts_with_sidecar(sidecar):
    """load_counts on a triple file whose vocabulary sidecar holds ``sidecar``."""

    def load(path):
        path.with_name(path.name + ".vocab").write_bytes(sidecar)
        return load_counts(path)

    return load


def counts_of_sidecar(path):
    """load_counts on valid triples whose vocabulary sidecar is ``path``."""
    triples = path.with_suffix("")
    triples.write_bytes(b"# window 2\n# min_count 1\n0 1 2\n")
    return load_counts(triples)


# name: (loader, file name, lines 1 and 2, line 3 with a {} slot for a byte).
# The line endings vary so that line numbers are checked under each of them.
FILES = {
    "word2vec": (load_embeddings, "e.txt", b"2 2\nthe 1 2\n", b"of{} 3 4\n"),
    "glove": (load_embeddings, "e.txt", b"the 1 2\r\n\r\n", b"of{} 3 4\r\n"),
    "similarity": (load_similarity_dataset, "sim.tsv", b"cat\tdog\t1\r\r", b"sun{}\tmoon\t2\r"),
    "analogy": (load_analogy_dataset, "ana.txt", b": family\nboy girl man woman\n",
                b"a b{} c d\n"),
    "counts": (counts_with_sidecar(SIDECAR), "c.txt", b"# window 2\n0 1 2\n",
               b"# min_count 1{}\n"),
    "sidecar": (counts_of_sidecar, "c.txt.vocab", b"a\n\n", b"b{}\n"),
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
    if hasattr(a, "counts"):
        return (a.vocab, a.total, a.window, a.min_count) == (
            b.vocab, b.total, b.window, b.min_count) and (a.counts != b.counts).nnz == 0
    return a == b


@pytest.mark.parametrize("name", FILES)
def test_byte_order_mark_is_ignored(tmp_path, name):
    load, _, head, line = FILES[name]
    data = head + line.replace(b"{}", b"")
    plain = load(write(tmp_path, name, data))
    with_bom = load(write(tmp_path, name, BOM + data))
    assert same(plain, with_bom)


def test_corpus_documents_end_only_at_cr_or_lf(tmp_path):
    """Blank and whitespace-only lines drop out; \\x0c, \\x85, U+2028 and \\x1c separate
    tokens within a document."""
    data = "a b\r\nc\rd\x0ce\n\n \n\x85f\u2028g\x1ch\n  \ni j".encode("utf-8")
    docs = read_corpus(write(tmp_path, "corpus", data))
    assert docs == [["a", "b"], ["c"], ["d", "e"], ["f", "g", "h"], ["i", "j"]]


PIECES = [BOM, b"\r", b"\n", b"\r\n", b"\x00", b"\x0c", b"\xc2\x85", b"\xe9", b"\xff",
          b"\xc3", b"\xed\xa0\x80", b" ", b"\t", b"#", b":", b"-", b".", b"e", b"0", b"1",
          b"2", b"nan", b"inf", b"1_0", b"a", b"b", b"window", b"\xd9\xa1"]
fuzz_bytes = st.lists(st.one_of(st.sampled_from(PIECES), st.binary(max_size=4)),
                      max_size=40).map(b"".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=fuzz_bytes, sidecar=st.one_of(st.just(SIDECAR), fuzz_bytes))
def test_loaders_raise_only_rpd_errors(fuzz_dir, data, sidecar):
    loaders = [load_embeddings, load_similarity_dataset, load_analogy_dataset, read_corpus,
               counts_with_sidecar(sidecar)]
    path = fuzz_dir / "input.txt"
    for load in loaders:
        path.write_bytes(data)
        try:
            load(path)
        except RpdError:
            pass
