"""The bulk text parse of ``load_embeddings`` against the per-line parser.

``store._parse_per_line`` is the line-at-a-time parser that the bulk path
falls back to; every file here must load to the same vocabulary and the same
bits through both, and raise the same error with the same message.
"""

import numpy as np
import pytest

from rpd import (
    DuplicateWordError,
    EmbeddingMatrix,
    FormatError,
    ParseError,
    load_embeddings,
    save_embeddings,
    store,
)


def write_bytes(path, data):
    path.write_bytes(data)
    return path


def per_line(path):
    lines, start, dim = store._read_lines(path)
    return store._parse_per_line(lines, start, dim, path)


def takes_bulk_path(path):
    lines, start, dim = store._read_lines(path)
    return store._parse_bulk(lines[start:], dim) is not None


def detected_format(path):
    """The format the loader reads from the file: a header line or none."""
    _, start, _ = store._read_lines(path)
    return "word2vec_text" if start else "glove_text"


def assert_same_as_per_line(path):
    emb = load_embeddings(path)
    ref = per_line(path)
    assert emb.vocab == ref.vocab
    assert np.array_equal(emb.matrix.view(np.uint64), ref.matrix.view(np.uint64))
    return emb


def assert_same_error(path, error):
    with pytest.raises(error) as bulk:
        load_embeddings(path)
    with pytest.raises(error) as ref:
        per_line(path)
    assert str(bulk.value) == str(ref.value)
    return str(bulk.value)


class TestBulkMatchesPerLine:
    @pytest.mark.parametrize(
        "name, data, fmt",
        [
            ("tabs_and_spaces", b"2 3\nab\t1.5  -2\t\t3e-2\n  cd 4 \t5 6  \n", "word2vec_text"),
            ("crlf", b"2 2\r\nab 1 2\r\ncd 3 4\r\n", "word2vec_text"),
            ("blank_lines", b"\n2 2\n\nab 1 2\n  \n\ncd 3 4\n\n\n", "word2vec_text"),
            ("one_row", b"1 3\nonly 1 2 3\n", "word2vec_text"),
            ("glove_infers_dim", b"ab 1 2 3 4\ncd 5 6 7 8\nef 9 10 11 12\n", "glove_text"),
            ("glove_one_column", b"ab 1\ncd -2\n", "glove_text"),
            ("glove_three_integers", b"2 3 4\ncd 5 6\n", "glove_text"),
            ("glove_float_then_integer", b"2.0 1\ncd 5\n", "glove_text"),
            ("glove_integer_then_float", b"2 1.0\ncd 5\n", "glove_text"),
        ],
    )
    def test_layouts(self, tmp_path, name, data, fmt):
        path = write_bytes(tmp_path / f"{name}.txt", data)
        assert detected_format(path) == fmt
        assert takes_bulk_path(path)
        assert_same_as_per_line(path)

    def test_glove_dim_and_values(self, tmp_path):
        path = write_bytes(tmp_path / "g.txt", b"ab 1 2 3 4\ncd 5 6 7 8\n")
        emb = assert_same_as_per_line(path)
        assert emb.dim == 4
        np.testing.assert_array_equal(emb.matrix, [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_full_precision_values(self, tmp_path, rng):
        # Shortest round-trip reprs over the whole float range, subnormals
        # included: both parsers must round every token identically.
        values = rng.standard_normal((40, 25)) * 10.0 ** rng.integers(-320, 308, (40, 25))
        values[0, :4] = [-0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]
        text = "".join(
            f"w{i} " + " ".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(values)
        )
        path = write_bytes(tmp_path / "p.txt", f"40 25\n{text}".encode())
        assert takes_bulk_path(path)
        emb = assert_same_as_per_line(path)
        assert np.array_equal(emb.matrix.view(np.uint64), values.view(np.uint64))

    def test_saved_file(self, tmp_path, rng):
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(30)), rng.standard_normal((30, 8)))
        path = tmp_path / "s.txt"
        save_embeddings(emb, path)
        assert takes_bulk_path(path)
        assert_same_as_per_line(path)

    def test_underscore_token_falls_back(self, tmp_path):
        # Python's float reads "1_000"; loadtxt does not, so the per-line
        # parser must take over and give the same value.
        path = write_bytes(tmp_path / "u.txt", b"2 2\nab 1_000 2\ncd 3 4\n")
        assert not takes_bulk_path(path)
        emb = assert_same_as_per_line(path)
        assert emb.matrix[0, 0] == 1000.0


class TestBulkErrors:
    @pytest.mark.parametrize("token", [b"nan", b"inf", b"-Infinity"])
    def test_non_finite(self, tmp_path, token):
        path = write_bytes(tmp_path / "n.txt", b"ab 1 2\ncd 3 4\nef 5 " + token + b"\n")
        message = assert_same_error(path, ParseError)
        assert ":3:" in message and "non-finite" in message

    def test_short_row(self, tmp_path):
        path = write_bytes(tmp_path / "s.txt", b"3 3\nab 1 2 3\ncd 1 2\nef 1 2 3\n")
        message = assert_same_error(path, ParseError)
        assert ":3:" in message

    def test_every_row_unlike_header_dim(self, tmp_path):
        path = write_bytes(tmp_path / "s.txt", b"2 3\nab 1 2\ncd 3 4\n")
        assert ":2:" in assert_same_error(path, ParseError)

    def test_short_glove_row(self, tmp_path):
        path = write_bytes(tmp_path / "s.txt", b"ab 1 2 3\ncd 1 2 3\nef 1 2\n")
        assert ":3:" in assert_same_error(path, ParseError)

    def test_word_only_row(self, tmp_path):
        path = write_bytes(tmp_path / "w.txt", b"ab 1 2\ncd\nef 5 6\n")
        assert ":2:" in assert_same_error(path, ParseError)

    def test_word_only_row_after_blank_line(self, tmp_path):
        path = write_bytes(tmp_path / "w.txt", b"2 2\n\nab 1 2\ncd \n")
        assert ":4:" in assert_same_error(path, ParseError)

    def test_bad_value_after_leading_blank_lines(self, tmp_path):
        path = write_bytes(tmp_path / "w.txt", b"\n\n2 2\nab 1 x\ncd 3 4\n")
        assert ":4:" in assert_same_error(path, ParseError)

    def test_header_after_leading_blank_lines(self, tmp_path):
        # "2 x" is not two integers, so it is the first data line, not a header.
        path = write_bytes(tmp_path / "h.txt", b"\n\n2 x\nab 1 2\ncd 3 4\n")
        assert ":3:" in assert_same_error(path, ParseError)

    def test_duplicate_word(self, tmp_path):
        path = write_bytes(tmp_path / "d.txt", b"3 2\nab 1 2\ncd 3 4\nab 5 6\n")
        message = assert_same_error(path, DuplicateWordError)
        assert ":4:" in message and "'ab'" in message

    def test_header_row_count_mismatch(self, tmp_path):
        path = write_bytes(tmp_path / "h.txt", b"3 2\nab 1 2\ncd 3 4\n")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert "declares 3 rows but file has 2" in str(exc.value)


def per_value_text(emb):
    """The writer's output as formatted one value at a time."""
    return f"{emb.n} {emb.dim}\n" + "".join(
        word + " " + " ".join("%.9e" % v for v in row) + "\n"
        for word, row in zip(emb.vocab, emb.matrix)
    )


class TestSaveRows:
    def test_bytes_match_per_value_format(self, tmp_path, rng):
        matrix = rng.standard_normal((6, 5)) * 1e3
        matrix[0, :4] = [-0.0, 1e-300, 1e300, -1e300]
        matrix[1, :3] = [-1e-300, -5e-324, -7.25]
        emb = EmbeddingMatrix(tuple(f"w{i}" for i in range(6)), matrix)
        path = tmp_path / "e.txt"
        save_embeddings(emb, path)
        assert path.read_bytes() == per_value_text(emb).encode("utf-8")
