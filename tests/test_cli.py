import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_embedding, random_orthogonal
import rpd
from rpd import EmbeddingMatrix, random_gaussian_embedding, save_embeddings
from rpd.cli import main
from rpd.spectral import SIGNALS, WEIGHTINGS


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


def save(tmp_path, name, emb, fmt="word2vec_text"):
    """Write ``emb`` as word2vec text, or as GloVe text (the same without its header)."""
    path = tmp_path / name
    save_embeddings(emb, path)
    if fmt == "glove_text":
        path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
    return str(path)


def pad_files(tmp_path, rng):
    """Two 4×2 files sharing the words w0-w2 and an all-zero padding row ``pad``."""
    vocab = ("w0", "w1", "pad", "w2")
    paths = []
    for name in ("a.txt", "b.txt"):
        m = rng.standard_normal((4, 2))
        m[2] = 0.0
        paths.append(save(tmp_path, name, EmbeddingMatrix(vocab, m)))
    return paths


class TestPair:
    def test_same_file_twice(self, runner, tmp_path, rng):
        path = save(tmp_path, "e.txt", random_embedding(rng, 30, 5))
        result = runner.invoke(main, ["pair", "--left", path, "--right", path])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rpd"] <= 1e-12
        assert payload["n"] == 30

    def test_decompose_top_k(self, runner, tmp_path, rng):
        a = save(tmp_path, "a.txt", random_embedding(rng, 40, 5))
        b = save(tmp_path, "b.txt", random_embedding(rng, 40, 7))
        result = runner.invoke(
            main, ["pair", "--left", a, "--right", b, "--decompose", "--top-k", "10"]
        )
        assert result.exit_code == 0
        per_word = json.loads(result.output)["per_word"]
        assert len(per_word) == 10
        cosines = [row["cos_theta_i"] for row in per_word]
        assert cosines == sorted(cosines)

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["pair", "--left", str(tmp_path / "no.txt"), "--right", str(tmp_path / "no.txt")]
        )
        assert result.exit_code == 2
        assert "no.txt" in result.output

    def test_glove_format(self, runner, tmp_path, rng):
        # A word2vec file beside a GloVe file: each file's first line says its format.
        left = save(tmp_path, "e.txt", random_embedding(rng, 12, 3))
        right = save(tmp_path, "e.glove", random_embedding(rng, 10, 2), fmt="glove_text")
        result = runner.invoke(main, ["pair", "--left", left, "--right", right, "--decompose"])
        assert result.exit_code == 0, result.output
        pair = rpd.align_vocabularies(rpd.load_embeddings(left), rpd.load_embeddings(right))
        expected = json.loads(json.dumps(rpd.decompose_per_word(pair).to_dict()))
        payload = json.loads(result.output)
        assert {key: payload[key] for key in expected} == expected
        assert (payload["n"], payload["d_left"], payload["d_right"]) == (10, 3, 2)

    @pytest.mark.parametrize("flags", [[], ["--decompose"]])
    def test_swapped_sides_print_the_same_distance(self, runner, tmp_path, rng, flags):
        # Word orders and dimensions differ; the cross block rounds the same either way.
        for k in range(8):
            a = random_embedding(rng, 60, 5)
            b = random_embedding(rng, 60, 7)
            order = rng.permutation(60)
            b = EmbeddingMatrix(tuple(b.vocab[i] for i in order), 1e3 * b.matrix[order])
            paths = [save(tmp_path, f"a{k}.txt", a), save(tmp_path, f"b{k}.txt", b)]
            terms = []
            for left, right in (paths, paths[::-1]):
                result = runner.invoke(main, ["pair", "--left", left, "--right", right, *flags])
                assert result.exit_code == 0, result.output
                payload = json.loads(result.output)
                terms.append([payload[key] for key in ("rpd", "ratio_term", "cosine_term")])
            assert terms[0] == terms[1], k

    def test_output_file(self, runner, tmp_path, rng):
        path = save(tmp_path, "e.txt", random_embedding(rng, 10, 3))
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["pair", "--left", path, "--right", path, "--output", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["rpd"] <= 1e-12

    def test_provenance(self, runner, tmp_path, rng):
        # 20 of a's 30 words and 20 of b's 40 words are shared.
        a = save(tmp_path, "a.txt", random_embedding(rng, 30, 4))
        b_emb = random_embedding(rng, 40, 6)
        b = save(tmp_path, "b.txt", EmbeddingMatrix(
            tuple(f"w{i + 10}" for i in range(40)), b_emb.matrix))
        result = runner.invoke(main, ["pair", "--left", a, "--right", b])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 20
        assert payload["coverage_left"] == pytest.approx(20 / 30, rel=1e-15)
        assert payload["coverage_right"] == pytest.approx(20 / 40, rel=1e-15)
        assert payload["zero_rows_left"] == payload["zero_rows_right"] == 0

    def test_shared_zero_row_is_a_word(self, runner, tmp_path, rng):
        a, b = pad_files(tmp_path, rng)
        result = runner.invoke(main, ["pair", "--left", a, "--right", b])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["n"] == 4
        assert payload["zero_rows_left"] == payload["zero_rows_right"] == 1

    def test_zero_row_sorts_last(self, runner, tmp_path, rng):
        a, b = pad_files(tmp_path, rng)
        top = runner.invoke(main, ["pair", "--left", a, "--right", b, "--top-k", "1"])
        assert top.exit_code == 0, top.output
        [first] = json.loads(top.output)["per_word"]
        assert first["word"] in {"w0", "w1", "w2"}
        full = runner.invoke(main, ["pair", "--left", a, "--right", b, "--decompose"])
        per_word = json.loads(full.output)["per_word"]
        assert per_word[-1] == {"word": "pad", "cos_theta_i": None, "w_i": 0.0}
        assert all(e["cos_theta_i"] is not None for e in per_word[:-1])

    @pytest.mark.parametrize("k", ["-1", "-2"])
    def test_negative_top_k_exits_2(self, runner, tmp_path, rng, k):
        path = save(tmp_path, "e.txt", random_embedding(rng, 10, 3))
        result = runner.invoke(main, ["pair", "--left", path, "--right", path, "--top-k", k])
        assert result.exit_code == 2
        assert "--top-k" in result.output

    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["pair", "--bogus"])
        assert result.exit_code == 2

    def test_no_standardize_exits_2(self, runner, tmp_path, rng):
        # Every distance is of standardized inputs; there is no switch to skip it.
        path = save(tmp_path, "e.txt", random_embedding(rng, 10, 3))
        result = runner.invoke(main, ["pair", "--left", path, "--right", path,
                                      "--no-standardize"])
        assert result.exit_code == 2
        assert "--no-standardize" in result.output

    def test_help(self, runner):
        for cmd in ("pair", "matrix", "nulltest", "train-svd", "eval", "study", "map"):
            result = runner.invoke(main, [cmd, "--help"])
            assert result.exit_code == 0
            assert "--format" not in result.output


REPORT_KEYS = ["rpd", "ratio_term", "cosine_term", "n", "d_left", "d_right"]
PROVENANCE_KEYS = ["coverage_left", "coverage_right", "zero_rows_left", "zero_rows_right"]


def test_json_key_order(runner, tmp_path, rng):
    a = save(tmp_path, "a.txt", random_embedding(rng, 40, 5))
    b = save(tmp_path, "b.txt", random_embedding(rng, 40, 7))
    sim = tmp_path / "sim.tsv"
    sim.write_text("w0\tw1\t1\nw2\tw3\t2\nw4\tw5\t3\n", encoding="utf-8")
    ana = tmp_path / "ana.txt"
    ana.write_text("w0 w1 w2 w3\nw4 w5 w6 w7\n", encoding="utf-8")

    def run(*args):
        result = runner.invoke(main, list(args))
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    pair = ["pair", "--left", a, "--right", b]
    plain = run(*pair)
    assert list(plain) == REPORT_KEYS + PROVENANCE_KEYS + ["version"]
    assert plain["version"] == rpd.__version__
    full = run(*pair, "--decompose")
    top = run(*pair, "--decompose", "--top-k", "2")
    assert list(top) == REPORT_KEYS + ["per_word"] + PROVENANCE_KEYS + ["version"]
    assert [list(entry) for entry in top["per_word"]] == [["word", "cos_theta_i", "w_i"]] * 2
    assert top == {**full, "per_word": full["per_word"][:2]}

    null = run("nulltest", "--left", a, "--right", b, "--replicates", "30")
    assert list(null) == ["observed_rpd", *PROVENANCE_KEYS, "null", "z", "z_se",
                          "p_two_sided", "p_one_sided", "reject_at_0_01", "alpha", "decision",
                          "version"]
    assert null["version"] == rpd.__version__
    assert list(null["null"]) == ["n", "d_left", "d_right", "replicates", "mu", "sigma",
                                  "skewness", "excess_kurtosis", "mu_se", "sigma_se", "seed"]

    scores = run("eval", "--emb", a, "--similarity", str(sim), "--analogy", str(ana))
    assert list(scores) == ["similarity_spearman", "similarity_coverage",
                            "analogy_accuracy", "analogy_coverage"]


class TestMatrix:
    def test_three_embeddings(self, runner, tmp_path, rng):
        e = random_embedding(rng, 25, 4)
        q = random_orthogonal(rng, 4)
        rotated = EmbeddingMatrix(e.vocab, e.matrix @ q)
        paths = [
            save(tmp_path, "a.txt", e),
            save(tmp_path, "b.txt", rotated),
            save(tmp_path, "c.txt", random_embedding(rng, 25, 4)),
        ]
        result = runner.invoke(main, [
            "matrix",
            "--emb", f"one={paths[0]}",
            "--emb", f"two={paths[1]}",
            "--emb", f"three={paths[2]}",
        ])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "name\tone\ttwo\tthree"
        values = np.array([row.split("\t")[1:] for row in lines[1:]], dtype=float)
        np.testing.assert_allclose(values, values.T, atol=1e-15)
        assert np.all(np.diag(values) == 0.0)
        assert values[0, 1] < 1e-9

    def test_bad_spec_exits_2(self, runner):
        result = runner.invoke(main, ["matrix", "--emb", "justapath.txt"])
        assert result.exit_code == 2

    def test_specs_checked_before_any_file_is_read(self, runner, tmp_path):
        missing = str(tmp_path / "missing.txt")
        result = runner.invoke(main, ["matrix", "--emb", f"a={missing}", "--emb", "b="])
        assert result.exit_code == 2
        assert "--emb expects NAME=PATH, got 'b='" in result.output

    @pytest.mark.parametrize("command", ["matrix", "study", "map"])
    @pytest.mark.parametrize("name", ["a\tb", "a b", " a", "a\n"])
    def test_name_with_whitespace_exits_2(self, runner, tmp_path, rng, command, name):
        # A whitespace NAME would add a column to the TSV header.
        emb = EmbeddingMatrix(("aa", "bb", "cc"), rng.standard_normal((3, 2)))
        pa = save(tmp_path, "a.txt", emb)
        args = [command, "--emb", f"{name}={pa}", "--emb", f"c={pa}"]
        if command == "study":
            sim = tmp_path / "sim.tsv"
            sim.write_text("aa\tbb\t1\naa\tcc\t2\n", encoding="utf-8")
            args += ["--baseline", pa, "--similarity", str(sim)]
        if command == "map":
            args += ["--anchors", "a,c"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"--emb NAME must be a word without whitespace, got {name!r}" in result.output

    def test_disjoint_pair_named(self, runner, tmp_path, rng):
        a = EmbeddingMatrix(("aa", "bb"), rng.standard_normal((2, 3)))
        b = EmbeddingMatrix(("cc", "dd"), rng.standard_normal((2, 3)))
        pa = save(tmp_path, "a.txt", a)
        pb = save(tmp_path, "b.txt", b)
        result = runner.invoke(
            main, ["matrix", "--emb", f"first={pa}", "--emb", f"second={pb}"]
        )
        assert result.exit_code == 2
        assert "first" in result.output and "second" in result.output

    def test_constant_embedding_named(self, runner, tmp_path, rng):
        vocab = ("aa", "bb", "cc")
        pa = save(tmp_path, "a.txt", EmbeddingMatrix(vocab, rng.standard_normal((3, 2))))
        pb = save(tmp_path, "b.txt", EmbeddingMatrix(vocab, np.ones((3, 2))))
        for flags in ([], ["--common-vocab"]):
            result = runner.invoke(
                main, ["matrix", "--emb", f"first={pa}", "--emb", f"flat={pb}", *flags])
            assert result.exit_code == 2
            assert result.stderr == "error: flat: matrix is constant: zero standard deviation\n"

    @pytest.mark.parametrize("flags", [[], ["--common-vocab"]])
    def test_shared_zero_row_is_a_word(self, runner, tmp_path, rng, flags):
        a, b = pad_files(tmp_path, rng)
        result = runner.invoke(main, ["matrix", "--emb", f"a={a}", "--emb", f"b={b}", *flags])
        assert result.exit_code == 0, result.output
        pair = runner.invoke(main, ["pair", "--left", a, "--right", b])
        value = float(result.output.splitlines()[1].split("\t")[2])
        assert value == pytest.approx(json.loads(pair.output)["rpd"], rel=1e-11)


class TestNulltest:
    def test_independent_files_fail_to_reject(self, runner, tmp_path):
        hits = 0
        for seed in range(10):
            a = save(tmp_path, f"a{seed}.txt", random_gaussian_embedding(400, 30, seed=100 + seed))
            b = save(tmp_path, f"b{seed}.txt", random_gaussian_embedding(400, 30, seed=200 + seed))
            result = runner.invoke(main, [
                "nulltest", "--left", a, "--right", b,
                "--replicates", "300", "--seed", str(seed),
            ])
            assert result.exit_code == 0
            payload = json.loads(result.output)
            if abs(payload["z"]) < 2.58:
                hits += 1
        assert hits >= 9

    def test_rotated_copy_rejects(self, runner, tmp_path, rng):
        e = random_gaussian_embedding(400, 30, seed=5)
        q = random_orthogonal(rng, 30)
        rotated = EmbeddingMatrix(e.vocab, e.matrix @ q)
        a = save(tmp_path, "a.txt", e)
        b = save(tmp_path, "b.txt", rotated)
        result = runner.invoke(main, [
            "nulltest", "--left", a, "--right", b, "--replicates", "200", "--seed", "1",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["z"]) > 100
        assert payload["decision"] == "reject"
        assert payload["reject_at_0_01"] is True

    def test_provenance(self, runner, tmp_path, rng):
        a = save(tmp_path, "a.txt", random_embedding(rng, 60, 4))
        b_emb = random_embedding(rng, 50, 4)
        b = save(tmp_path, "b.txt", EmbeddingMatrix(
            tuple(f"w{i + 20}" for i in range(50)), b_emb.matrix))
        result = runner.invoke(main, [
            "nulltest", "--left", a, "--right", b, "--replicates", "30",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["coverage_left"] == pytest.approx(40 / 60, rel=1e-15)
        assert payload["coverage_right"] == pytest.approx(40 / 50, rel=1e-15)
        assert payload["zero_rows_left"] == payload["zero_rows_right"] == 0
        assert payload["null"]["n"] == 40

    def test_zero_rows_reported(self, runner, tmp_path, rng):
        # 2 of the 40 shared words are all zero on the left, 1 on the right;
        # w17, zero on both sides, leaves the null drawn at the other 39.
        vocab = tuple(f"w{i}" for i in range(40))
        left, right = rng.standard_normal((40, 4)), rng.standard_normal((40, 3))
        left[[3, 17]] = 0.0
        right[17] = 0.0
        result = runner.invoke(main, [
            "nulltest", "--left", save(tmp_path, "a.txt", EmbeddingMatrix(vocab, left)),
            "--right", save(tmp_path, "b.txt", EmbeddingMatrix(vocab, right)),
            "--replicates", "30",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert (payload["zero_rows_left"], payload["zero_rows_right"]) == (2, 1)
        assert payload["null"]["n"] == 39

    def test_shared_zero_rows_leave_the_test_unchanged(self, runner, tmp_path):
        # Two independent 20-dim spaces over 200 words, then the same files with
        # 200 more words that are zero on both sides: both test the 200 words.
        real = [random_gaussian_embedding(200, 20, seed=s) for s in (300, 400)]
        pad = tuple(f"pad{i}" for i in range(200))
        padded = [EmbeddingMatrix(e.vocab + pad, np.vstack([e.matrix, np.zeros((200, 20))]))
                  for e in real]
        payloads = []
        for tag, (a, b) in (("real", real), ("padded", padded)):
            result = runner.invoke(main, [
                "nulltest", "--left", save(tmp_path, f"a_{tag}.txt", a),
                "--right", save(tmp_path, f"b_{tag}.txt", b), "--replicates", "300",
            ])
            assert result.exit_code == 0, result.output
            payloads.append(json.loads(result.output))
        plain, padded_payload = payloads
        assert padded_payload["zero_rows_left"] == padded_payload["zero_rows_right"] == 200
        assert padded_payload["null"] == plain["null"]
        assert plain["null"]["n"] == 200
        assert padded_payload["observed_rpd"] == pytest.approx(plain["observed_rpd"], rel=1e-14)
        assert padded_payload["z"] == pytest.approx(plain["z"], rel=1e-10, abs=1e-10)
        assert padded_payload["decision"] == "fail_to_reject"
        assert padded_payload["reject_at_0_01"] is False

    def test_padded_pair_error_names_its_own_count(self, runner, tmp_path):
        # 400 shared words, 390 of them zero on both sides, d = 20: `pair` says
        # n = 400, so the error names the 10 words the null would be drawn at.
        paths = []
        for seed in (1, 2):
            e = random_gaussian_embedding(400, 20, seed=seed)
            paths.append(save(tmp_path, f"e{seed}.txt", EmbeddingMatrix(
                e.vocab, np.vstack([e.matrix[:10], np.zeros((390, 20))]))))
        result = runner.invoke(main, ["nulltest", "--left", paths[0], "--right", paths[1]])
        assert result.exit_code == 2
        assert result.stderr == ("error: need more words than dimensions: 10 of the 400 shared "
                                 "words are not all zero on both sides (390 dropped), d=20\n")

    def test_zero_replicates_exits_2(self, runner, tmp_path, rng):
        path = save(tmp_path, "e.txt", random_embedding(rng, 20, 4))
        result = runner.invoke(main, [
            "nulltest", "--left", path, "--right", path, "--replicates", "0",
        ])
        assert result.exit_code == 2

    def test_one_sided_decision(self, runner, tmp_path, rng, monkeypatch):
        a = save(tmp_path, "a.txt", random_embedding(rng, 50, 6))
        b = save(tmp_path, "b.txt", random_embedding(rng, 50, 6))
        pair = rpd.align_vocabularies(rpd.load_embeddings(a), rpd.load_embeddings(b))
        observed = rpd.rpd(pair).rpd
        # Draws with mean observed + 2.4 sigma put z at -2.4, where
        # p_one_sided (0.008) < 0.01 < p_two_sided (0.016).
        sigma = 0.01
        draws = observed + sigma * np.array([1.4, 2.4, 3.4])

        def fixed_null(n, d_left, d_right, replicates, seed):
            return rpd.NullDistribution(n, d_left, d_right, seed, draws)

        monkeypatch.setattr("rpd.nullmodel.monte_carlo_null", fixed_null)
        payloads = {}
        for flags in ([], ["--one-sided"]):
            result = runner.invoke(main, ["nulltest", "--left", a, "--right", b, *flags])
            assert result.exit_code == 0
            payloads[tuple(flags)] = json.loads(result.output)
        one_sided = payloads[("--one-sided",)]
        assert one_sided["z"] == pytest.approx(-2.4, abs=1e-9)
        assert one_sided["p_one_sided"] < 0.01 < one_sided["p_two_sided"]
        assert one_sided["decision"] == "reject"
        assert one_sided["reject_at_0_01"] is False
        assert payloads[()]["decision"] == "fail_to_reject"
        assert payloads[()]["reject_at_0_01"] is False

    def test_samples_out(self, runner, tmp_path, rng):
        path = save(tmp_path, "e.txt", random_embedding(rng, 50, 6))
        samples_path = tmp_path / "draws.txt"
        result = runner.invoke(main, [
            "nulltest", "--left", path, "--right", path,
            "--replicates", "40", "--samples-out", str(samples_path),
        ])
        assert result.exit_code == 0
        assert len(samples_path.read_text().split()) == 40


class TestTrainSvd:
    def corpus(self, tmp_path, seed=13):
        from _corpus import synthetic_corpus_text

        text = synthetic_corpus_text(6000, vocab_size=80, seed=seed)
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        return str(path)

    def test_both_signals_deterministic(self, runner, tmp_path):
        corpus = self.corpus(tmp_path)
        outputs = {}
        for signal in ("pmi", "logcount"):
            paths = []
            for run in range(2):
                out = tmp_path / f"{signal}_{run}.txt"
                result = runner.invoke(main, [
                    "train-svd", "--corpus", corpus, "--signal", signal,
                    "--dim", "12", "--window", "4", "--min-count", "3",
                    "--output", str(out),
                ])
                assert result.exit_code == 0, result.output
                paths.append(out.read_text())
            assert paths[0] == paths[1]
            outputs[signal] = paths[0]
        assert outputs["pmi"] != outputs["logcount"]

    def test_choices_are_the_trainer_tables(self):
        params = {p.name: p for p in main.commands["train-svd"].params}
        assert list(params["signal"].type.choices) == list(SIGNALS)
        assert tuple(params["weighting"].type.choices) == WEIGHTINGS

    def test_dim_exceeds_vocab_exits_2(self, runner, tmp_path):
        corpus = self.corpus(tmp_path)
        result = runner.invoke(main, [
            "train-svd", "--corpus", corpus, "--dim", "5000",
            "--output", str(tmp_path / "e.txt"),
        ])
        assert result.exit_code == 2
        assert "vocabulary" in result.output

    def test_all_zero_signal_exits_2(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\nb a\na a\nb b\n", encoding="utf-8")
        result = runner.invoke(main, [
            "train-svd", "--corpus", str(corpus), "--window", "1", "--min-count", "1",
            "--dim", "1", "--output", str(tmp_path / "e.txt"),
        ])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and "no non-zero entry" in result.output
        assert not (tmp_path / "e.txt").exists()

    def test_written_components_are_signed(self, runner, tmp_path):
        from rpd import load_embeddings

        corpus = self.corpus(tmp_path)
        out = tmp_path / "e.txt"
        args = ["train-svd", "--corpus", corpus, "--dim", "10", "--window", "4",
                "--min-count", "3", "--output", str(out)]
        assert runner.invoke(main, args + ["--seed", "3"]).exit_code == 2
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        matrix = load_embeddings(out).matrix
        # U·sqrt(S) keeps the sign of each column's largest-magnitude entry of U.
        assert np.all(matrix[np.argmax(np.abs(matrix), axis=0), np.arange(10)] > 0)

    def test_no_lowercase_keeps_case_apart(self, runner, tmp_path):
        from rpd import load_embeddings

        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The cat sat on the mat\nthe dog sat on The rug\n" * 20,
                          encoding="utf-8")
        vocab = {}
        for flags in ([], ["--no-lowercase"]):
            out = tmp_path / "e.txt"
            result = runner.invoke(main, [
                "train-svd", "--corpus", str(corpus), "--dim", "2", "--window", "2",
                "--min-count", "1", *flags, "--output", str(out),
            ])
            assert result.exit_code == 0, result.output
            vocab[tuple(flags)] = set(load_embeddings(out).vocab)
        assert {"The", "the"} <= vocab[("--no-lowercase",)]
        assert "the" in vocab[()] and "The" not in vocab[()]
        assert vocab[()] == {w.lower() for w in vocab[("--no-lowercase",)]}

    def test_save_counts_round_trip(self, runner, tmp_path):
        from _oracle import assert_saved_exactly
        from rpd import count_cooccurrences, read_corpus

        corpus = self.corpus(tmp_path)
        counts_path = tmp_path / "counts.txt"
        result = runner.invoke(main, [
            "train-svd", "--corpus", corpus, "--dim", "8", "--window", "4",
            "--min-count", "3", "--weighting", "harmonic", "--save-counts", str(counts_path),
            "--output", str(tmp_path / "e.txt"),
        ])
        assert result.exit_code == 0
        counts = count_cooccurrences(read_corpus(corpus), window=4, min_count=3,
                                     weighting="harmonic")
        assert len(counts.vocab) >= 8
        assert_saved_exactly(counts_path, counts)

    def test_failed_training_writes_no_counts(self, runner, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\nc b a\n", encoding="utf-8")
        counts_path = tmp_path / "cnt.txt"
        result = runner.invoke(main, [
            "train-svd", "--corpus", str(corpus), "--dim", "50", "--min-count", "1",
            "--save-counts", str(counts_path), "--output", str(tmp_path / "e.txt"),
        ])
        assert result.exit_code == 2
        assert "need 1 <= dim <= vocabulary size 3" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


class TestEvalStudyMap:
    def setup_files(self, tmp_path, rng):
        base = random_embedding(rng, 60, 8)
        sim_path = tmp_path / "sim.tsv"
        unit = base.matrix / np.linalg.norm(base.matrix, axis=1, keepdims=True)
        lines = []
        for _ in range(30):
            i, j = rng.choice(60, size=2, replace=False)
            lines.append(f"{base.vocab[i]}\t{base.vocab[j]}\t{float(unit[i] @ unit[j])}")
        sim_path.write_text("\n".join(lines) + "\n")

        ana_path = tmp_path / "ana.txt"
        qlines = [": synthetic"]
        for _ in range(20):
            ia, ib, ic = rng.choice(60, size=3, replace=False)
            target = unit[ib] - unit[ia] + unit[ic]
            scores = unit @ target
            scores[[ia, ib, ic]] = -np.inf
            qlines.append(
                f"{base.vocab[ia]} {base.vocab[ib]} {base.vocab[ic]} "
                f"{base.vocab[int(np.argmax(scores))]}"
            )
        ana_path.write_text("\n".join(qlines) + "\n")
        return base, str(sim_path), str(ana_path)

    def test_eval(self, runner, tmp_path, rng):
        base, sim_path, ana_path = self.setup_files(tmp_path, rng)
        emb_path = save(tmp_path, "base.txt", base)
        result = runner.invoke(main, [
            "eval", "--emb", emb_path, "--similarity", sim_path, "--analogy", ana_path,
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["similarity_spearman"] == pytest.approx(1.0, abs=1e-9)
        assert payload["analogy_accuracy"] == 1.0

    @pytest.mark.parametrize("lines, coverage", [
        (["w0\tw1\t1.0", "w0\tmissing\t2.0"], 0.5),
        (["w0\tw1\t2.0", "w1\tw2\t2.0", "w2\tw3\t2.0"], 1.0),
    ], ids=["one_covered_pair", "equal_human_scores"])
    def test_eval_undefined_correlation_keeps_analogy(self, runner, tmp_path, rng, lines,
                                                      coverage):
        base, _, ana_path = self.setup_files(tmp_path, rng)
        emb_path = save(tmp_path, "base.txt", base)
        sim_path = tmp_path / "flat.tsv"
        sim_path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "eval", "--emb", emb_path, "--similarity", str(sim_path), "--analogy", ana_path,
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["similarity_spearman"] is None
        assert payload["similarity_coverage"] == coverage
        assert payload["analogy_accuracy"] == 1.0

    def eval_json(self, runner, *args):
        """The ``eval`` output, parsed as strict JSON (no NaN or Infinity)."""
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 0, result.output
        return json.loads(result.output, parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("scale", ["e160", "e-170"])
    def test_eval_extreme_magnitudes_match_unscaled(self, runner, tmp_path, scale):
        rows = {"a": (1, 2), "b": (3, -1), "c": (5, 2.5), "d": (-2, 1)}
        sim = tmp_path / "sim.tsv"
        sim.write_text("a\tb\t1\nc\td\t2\na\tc\t3\nb\td\t4\n", encoding="utf-8")
        ana = tmp_path / "ana.txt"
        ana.write_text("a b c d\n", encoding="utf-8")
        payloads = []
        for name, suffix in (("plain.txt", ""), ("scaled.txt", scale)):
            emb = tmp_path / name
            emb.write_text("4 2\n" + "".join(f"{w} {x}{suffix} {y}{suffix}\n"
                                             for w, (x, y) in rows.items()), encoding="utf-8")
            payloads.append(self.eval_json(runner, "--emb", str(emb), "--similarity", str(sim),
                                           "--analogy", str(ana)))
        assert payloads[1] == payloads[0]
        assert payloads[0]["similarity_spearman"] is not None

    def test_eval_zero_row_lowers_coverage_and_keeps_analogy(self, runner, tmp_path, rng):
        base, sim_path, ana_path = self.setup_files(tmp_path, rng)
        padded = EmbeddingMatrix(base.vocab + ("pad",), np.vstack([base.matrix, np.zeros(8)]))
        emb_path = save(tmp_path, "padded.txt", padded)
        lines = Path(sim_path).read_text(encoding="utf-8").splitlines()
        sim_padded = tmp_path / "sim_padded.tsv"
        sim_padded.write_text("\n".join(lines + ["pad\tw0\t0.5"]) + "\n", encoding="utf-8")
        payload = self.eval_json(runner, "--emb", emb_path, "--similarity", str(sim_padded),
                                 "--analogy", ana_path)
        assert payload["similarity_coverage"] == len(lines) / (len(lines) + 1)
        assert payload["similarity_spearman"] == pytest.approx(1.0, abs=1e-9)
        alone = self.eval_json(runner, "--emb", emb_path, "--analogy", ana_path)
        assert payload["analogy_accuracy"] == alone["analogy_accuracy"] == 1.0

    def test_eval_requires_dataset(self, runner, tmp_path, rng):
        emb_path = save(tmp_path, "e.txt", random_embedding(rng, 10, 3))
        result = runner.invoke(main, ["eval", "--emb", emb_path])
        assert result.exit_code == 2

    def test_study(self, runner, tmp_path, rng):
        base, sim_path, ana_path = self.setup_files(tmp_path, rng)
        base_path = save(tmp_path, "base.txt", base)
        noised = EmbeddingMatrix(base.vocab, base.matrix + 0.5 * rng.standard_normal(base.matrix.shape))
        noisy_path = save(tmp_path, "noisy.txt", noised)
        result = runner.invoke(main, [
            "study", "--baseline", base_path,
            "--emb", f"self={base_path}", "--emb", f"noisy={noisy_path}",
            "--similarity", sim_path, "--analogy", ana_path,
        ])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "name\trpd\tdelta_perf"
        assert lines[-1].startswith("# rank_correlation")

    def test_study_repeated_names_exits_2(self, runner, tmp_path, rng):
        base, sim_path, _ = self.setup_files(tmp_path, rng)
        base_path = save(tmp_path, "base.txt", base)
        other_path = save(tmp_path, "other.txt", random_embedding(rng, 60, 8))
        result = runner.invoke(main, [
            "study", "--baseline", base_path,
            "--emb", f"b={base_path}", "--emb", f"b={other_path}",
            "--similarity", sim_path,
        ])
        assert result.exit_code == 2
        assert "embedding names must be unique" in result.output

    def test_map(self, runner, tmp_path, rng):
        e1 = random_embedding(rng, 50, 6)
        e2 = EmbeddingMatrix(e1.vocab, e1.matrix + 0.3 * rng.standard_normal(e1.matrix.shape))
        e3 = random_embedding(rng, 50, 6)
        paths = {
            "a": save(tmp_path, "a.txt", e1),
            "b": save(tmp_path, "b.txt", e2),
            "c": save(tmp_path, "c.txt", e3),
        }
        result = runner.invoke(main, [
            "map",
            "--emb", f"a={paths['a']}", "--emb", f"b={paths['b']}",
            "--emb", f"c={paths['c']}", "--anchors", "a,b",
        ])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "name\tx\ty"
        rows = {row.split("\t")[0]: row.split("\t")[1:] for row in lines[1:-1]}
        assert [float(v) for v in rows["a"]] == [0.0, 0.0]
        assert float(rows["b"][1]) == 0.0
        assert lines[-1].startswith("# stress")

    @pytest.mark.parametrize("flags", [[], ["--common-vocab"]])
    def test_map_same_for_every_emb_order(self, runner, tmp_path, rng, flags):
        base = random_embedding(rng, 60, 5)
        specs = []
        for k, scale in enumerate((0.0, 2.0, 0.3, 0.8, 1.5, 0.5)):
            noisy = base.matrix + scale * rng.standard_normal(base.matrix.shape)
            specs.append(f"s{k}={save(tmp_path, f's{k}.txt', EmbeddingMatrix(base.vocab, noisy))}")
        outputs = set()
        for _ in range(4):
            args = [arg for spec in rng.permutation(specs) for arg in ("--emb", spec)]
            result = runner.invoke(main, ["map", *args, "--anchors", "s0,s1", *flags])
            assert result.exit_code == 0, result.output
            outputs.add(frozenset(result.output.splitlines()))
        assert len(outputs) == 1

    def test_map_bad_anchors(self, runner, tmp_path, rng):
        path = save(tmp_path, "a.txt", random_embedding(rng, 10, 3))
        result = runner.invoke(main, [
            "map", "--emb", f"a={path}", "--emb", f"b={path}", "--anchors", "a",
        ])
        assert result.exit_code == 2


class TestMixedFormats:
    """``matrix`` and ``map`` over word2vec and GloVe files together, as the library gives."""

    def files(self, tmp_path, rng):
        specs = [("a", "a.txt", random_embedding(rng, 30, 4), "word2vec_text"),
                 ("b", "b.glove", random_embedding(rng, 25, 3), "glove_text"),
                 ("c", "c.txt", random_embedding(rng, 28, 5), "word2vec_text")]
        paths = {name: save(tmp_path, file, emb, fmt) for name, file, emb, fmt in specs}
        embs = [(name, rpd.load_embeddings(path)) for name, path in paths.items()]
        return [f"{name}={path}" for name, path in paths.items()], embs

    @pytest.mark.parametrize("common_vocab", [False, True])
    def test_matrix(self, runner, tmp_path, rng, common_vocab):
        specs, embs = self.files(tmp_path, rng)
        flags = ["--common-vocab"] if common_vocab else []
        args = [arg for spec in specs for arg in ("--emb", spec)]
        result = runner.invoke(main, ["matrix", *args, *flags])
        assert result.exit_code == 0, result.output
        assert result.output == rpd.rpd_pairwise_matrix(embs, common_vocab=common_vocab).to_tsv()

    @pytest.mark.parametrize("common_vocab", [False, True])
    def test_map(self, runner, tmp_path, rng, common_vocab):
        specs, embs = self.files(tmp_path, rng)
        flags = ["--common-vocab"] if common_vocab else []
        args = [arg for spec in specs for arg in ("--emb", spec)]
        result = runner.invoke(main, ["map", *args, "--anchors", "a,b", *flags])
        assert result.exit_code == 0, result.output
        matrix = rpd.rpd_pairwise_matrix(embs, common_vocab=common_vocab)
        layout = rpd.layout_from_distances(matrix.values, matrix.names, "a", "b")
        assert result.output == layout.to_tsv()


# Arguments naming a missing input file (``{}``) for each command.
MISSING_INPUT_ARGS = {
    "pair": ["--left", "{}", "--right", "{}"],
    "matrix": ["--emb", "a={}", "--emb", "b={}"],
    "nulltest": ["--left", "{}", "--right", "{}"],
    "train-svd": ["--corpus", "{}", "--output", "{}.out"],
    "eval": ["--emb", "{}", "--similarity", "{}"],
    "study": ["--baseline", "{}", "--emb", "a={}", "--similarity", "{}"],
    "map": ["--emb", "a={}", "--emb", "b={}", "--anchors", "a,b"],
}


@pytest.mark.parametrize("command", sorted(main.commands))
def test_missing_input_file_exits_2(runner, tmp_path, command):
    missing = str(tmp_path / "missing.txt")
    args = [arg.replace("{}", missing) for arg in MISSING_INPUT_ARGS[command]]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and "missing.txt" in result.stderr


class TestTextInput:
    """Every command reads its text inputs as UTF-8 with an optional BOM."""

    @pytest.mark.parametrize("command", ["pair", "eval", "train-svd"])
    def test_invalid_byte_exits_2_with_line(self, runner, tmp_path, rng, command):
        bad = tmp_path / "bad.txt"
        if command == "pair":
            bad.write_bytes(b"3 2\nw0 1 2\nw\xe9 3 4\nw2 5 6\n")
            args = ["pair", "--left", str(bad), "--right", str(bad)]
        elif command == "eval":
            bad.write_bytes(b"w0\tw1\t1\n\nw\xe9\tw2\t2\n")
            emb = save(tmp_path, "e.txt", random_embedding(rng, 10, 3))
            args = ["eval", "--emb", emb, "--similarity", str(bad)]
        else:
            bad.write_bytes(b"a b c\r\na b\r\ncaf\xe9 a\r\n")
            args = ["train-svd", "--corpus", str(bad), "--output", str(tmp_path / "o.txt")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert f"{bad}:3: not valid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("fmt", ["word2vec_text", "glove_text"])
    def test_bom_file_gives_same_report(self, runner, tmp_path, rng, fmt):
        left = save(tmp_path, "left.txt", random_embedding(rng, 20, 4), fmt)
        right = save(tmp_path, "right.txt", random_embedding(rng, 20, 3), fmt)
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(left).read_bytes())
        reports = []
        for path in (left, str(bom)):
            result = runner.invoke(main, ["pair", "--left", path, "--right", right,
                                          "--decompose"])
            assert result.exit_code == 0, result.output
            reports.append(result.output)
        assert reports[0] == reports[1]


def test_module_entry_point():
    src = str(Path(rpd.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "rpd.cli", "--help"], cwd=src,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    listing = result.stdout.partition("\nCommands:\n")[2]
    assert {line.split()[0] for line in listing.splitlines()} == set(main.commands)


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse.linalg", "scipy.sparse",
                                    "scipy.linalg"])
def test_cli_import_leaves_out_scipy_stats(module):
    # scipy.stats takes most of a second to import and no command needs it;
    # scipy.sparse is needed only to train, and scipy.linalg and
    # scipy.sparse.linalg only to solve an SVD.
    code = f"import sys, rpd.cli; print({module!r} in sys.modules)"
    src = str(Path(rpd.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_readme_examples_use_real_options():
    # Each `rpd …` line of the README, with its continuation lines joined.
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    examples = [line.split() for line in text.splitlines() if line.startswith("rpd ")]
    assert {words[1] for words in examples} == set(main.commands)
    for words in examples:
        params = main.commands[words[1]].params
        options = {opt for p in params for opt in p.opts + p.secondary_opts}
        flags = {word for word in words if word.startswith("--")}
        assert flags <= options, f"{' '.join(words[:2])}: no option {sorted(flags - options)}"
