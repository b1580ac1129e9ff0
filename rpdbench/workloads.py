"""The three workloads: their inputs, their jobs and the checks of each job.

A workload runs its job kinds in a fixed order, one job at a time (a closed
loop with one client). ``run_job`` is the timed part; ``capture`` keeps what
the checks need and ``verify`` compares it with the references after the
timed loop has ended.
"""

from __future__ import annotations

import contextlib
import functools
import json
import shutil
from pathlib import Path

import numpy as np

import inputs
import reference as ref
from reference import CheckFailed, close, expect

SIZES = {
    "full": {
        "compare-files": {"n": 5000, "d": 300},
        "analyze-spaces": {"spaces": 6, "n": 6600, "d": 300, "null_n": 3000,
                           "null_d": (100, 150), "replicates": 40, "ref_draws": 400},
        "train-spectral": {"tokens": 200_000, "vocab": 2000, "topics": 20, "dim": 100,
                           "window": 10, "min_count": 5, "sim_pairs": 2000,
                           "questions": 5000},
    },
    "smoke": {
        "compare-files": {"n": 400, "d": 20},
        "analyze-spaces": {"spaces": 6, "n": 440, "d": 20, "null_n": 300,
                           "null_d": (10, 15), "replicates": 30, "ref_draws": 400},
        "train-spectral": {"tokens": 20_000, "vocab": 400, "topics": 8, "dim": 20,
                           "window": 5, "min_count": 5, "sim_pairs": 200,
                           "questions": 300},
    },
}

TOP_K = 20
RPD_TOL = 1e-9  # float64 d-space reference against the program, relative
TSV_TOL = 1e-10  # the matrix TSV prints 12 significant digits
SVD_TOL = 1e-4  # top-10 singular values; the seed's 20 power iterations reach ~2e-6
NULL_SE = 5.0  # Monte Carlo standard errors allowed between null moments


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, rpd, seed: int, workdir: Path, size: dict):
        self.rpd = rpd
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.inputs: dict = {}  # each input's size and SHA-256, for provenance
        self.references: dict = {}

    def _memo(self, key, compute):
        """A reference computed once per run, on first use."""
        if key not in self.references:
            self.references[key] = compute()
        return self.references[key]

    def span(self, name: str):
        """Replaced by the tracer's span in a traced run."""
        return contextlib.nullcontext()

    def cli(self, args: list[str]) -> None:
        with self.span("cli.main"):
            self.rpd.cli.main(args, standalone_mode=False)

    def prepare(self) -> None:
        """Generate the inputs from the seed (part of set-up)."""
        raise NotImplementedError

    def run_job(self, kind: str, index: int):
        """One timed job; returns a handle on its output."""
        raise NotImplementedError

    def capture(self, kind: str, index: int, handle):
        """What the checks need from a job's output (untimed)."""
        raise NotImplementedError

    def verify(self, kind: str, record) -> None:
        """Raise CheckFailed if a captured output disagrees with the reference."""
        raise NotImplementedError


def _parse_tsv_matrix(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    names = lines[0].split("\t")[1:]
    rows = [line.split("\t") for line in lines[1:]]
    expect([r[0] for r in rows] == names, "matrix row names differ from the header")
    return names, np.array([[float(v) for v in r[1:]] for r in rows])


def _check_distance_matrix(names, values, expected_names, reference_cell, tol) -> None:
    expect(list(names) == list(expected_names), f"matrix names {names!r}")
    expect(np.array_equal(values, values.T), "matrix is not symmetric")
    expect(np.all(np.diag(values) == 0.0), "matrix diagonal is not zero")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            close(values[i, j], reference_cell(i, j), tol, f"cell {names[i]},{names[j]}")


def _check_per_word(entries, terms, words) -> None:
    """The first entries are the most divergent words of the reference."""
    cos, weight = ref.per_word(terms)
    order = np.lexsort((np.array(words), cos))[: len(entries)]
    expect([e[0] for e in entries] == [words[i] for i in order],
           "most divergent words differ from the reference")
    for (word, c, w), i in zip(entries, order):
        close(c, cos[i], RPD_TOL, f"cos_theta of {word}")
        close(w, weight[i], RPD_TOL, f"w of {word}")


def _check_report(report: dict, terms: dict, n: int) -> None:
    expect(report["n"] == n, f"n={report['n']}, expected {n}")
    for key in ("rpd", "ratio_term", "cosine_term"):
        close(report[key], terms[key], RPD_TOL, key)


class CompareFiles(Workload):
    """``rpd pair --decompose --top-k 20`` and ``rpd matrix`` over text files."""

    name = "compare-files"
    kinds = ("pair", "matrix")
    PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))

    def prepare(self) -> None:
        self.files = inputs.embedding_files(self.seed, self.workdir, self.size["n"],
                                            self.size["d"])
        self.inputs = inputs.describe_files(self.files.paths)

    def run_job(self, kind: str, index: int):
        out = self.workdir / f"{kind}.out"
        paths = self.files.paths
        if kind == "pair":
            left, right = self.PAIRS[index % len(self.PAIRS)]
            self.cli(["pair", "--left", str(paths[left]), "--right", str(paths[right]),
                      "--decompose", "--top-k", str(TOP_K), "--output", str(out)])
            return left, right, out
        args = ["matrix"]
        for name, path in paths.items():
            args += ["--emb", f"{name}={path}"]
        self.cli(args + ["--output", str(out)])
        return None, None, out

    def capture(self, kind: str, index: int, handle):
        left, right, out = handle
        return left, right, out.read_text(encoding="utf-8")

    def _terms(self, left: str, right: str):
        def compute():
            a, b = self.files.spaces[left], self.files.spaces[right]
            shared = sorted(set(a.words) & set(b.words))
            return shared, ref.rpd_terms(a.restricted(shared), b.restricted(shared))
        return self._memo((left, right), compute)

    def verify(self, kind: str, record) -> None:
        left, right, text = record
        if kind == "pair":
            payload = json.loads(text)
            shared, terms = self._terms(left, right)
            _check_report(payload, terms, len(shared))
            expect(payload["d_left"] == payload["d_right"] == self.size["d"], "dims")
            entries = [(e["word"], e["cos_theta_i"], e["w_i"]) for e in payload["per_word"]]
            expect(len(entries) == min(TOP_K, len(shared)), "per_word length")
            _check_per_word(entries, terms, shared)
            return
        names, values = _parse_tsv_matrix(text)
        order = list(self.files.paths)
        _check_distance_matrix(
            names, values, order,
            lambda i, j: self._terms(order[i], order[j])[1]["rpd"], TSV_TOL)


class AnalyzeSpaces(Workload):
    """Library calls on in-memory spaces: the method map, a per-word
    decomposition and the dependence z-test against the Monte Carlo null."""

    name = "analyze-spaces"
    kinds = ("map", "decompose", "nulltest")
    NOISE = (0.0, 0.2, 0.4, 0.8, 1.5, None)

    def prepare(self) -> None:
        rpd, size = self.rpd, self.size
        rng = np.random.default_rng([self.seed, 2])
        noise = self.NOISE[: size["spaces"]]
        spaces = inputs.related_spaces(rng, size["n"], size["d"], 10 / 11, list(noise))
        self.embs = [(f"s{i}", rpd.EmbeddingMatrix(tuple(s.words), s.matrix))
                     for i, s in enumerate(spaces)]
        self.pair = rpd.align_vocabularies(self.embs[0][1], self.embs[2][1])

        n, (d1, d2) = size["null_n"], size["null_d"]
        x = rng.standard_normal((n, d1))
        dependent = x @ rng.standard_normal((d1, d2)) / np.sqrt(d1)
        dependent += 0.5 * rng.standard_normal((n, d2))
        self.null_ref = ref.wishart_null(n, d1, d2, size["ref_draws"], rng)
        mu, sigma = self.null_ref.mean(), self.null_ref.std(ddof=1)
        # A typical independent pair, |z| < 1 under the reference null: an
        # independent pair is rejected at 0.01 once in a hundred draws, and with
        # |z| < 1 the program's 40-draw null estimate stays clear of 2.576.
        while True:
            independent = rng.standard_normal((n, d2))
            if abs(ref.rpd_terms(x, independent)["rpd"] - mu) < sigma:
                break
        vocab = tuple(f"v{i}" for i in range(n))
        left = rpd.EmbeddingMatrix(vocab, x)
        self.observed = {
            kind: rpd.AlignedPair(left, rpd.EmbeddingMatrix(vocab, y), vocab)
            for kind, y in (("dependent", dependent), ("independent", independent))
        }
        self.inputs = {
            "spaces": {"count": len(self.embs), "shape": [size["n"], size["d"]],
                       "sha256": inputs.sha256_arrays(*(e.matrix for _, e in self.embs))},
            "null_pairs": {"n": n, "d": [d1, d2],
                           "sha256": inputs.sha256_arrays(x, dependent, independent)},
        }

    def run_job(self, kind: str, index: int):
        rpd = self.rpd
        if kind == "map":
            matrix = rpd.rpd_pairwise_matrix(self.embs, common_vocab=True)
            layout = rpd.layout_from_distances(matrix.values, matrix.names, "s0", "s1")
            return matrix, layout
        if kind == "decompose":
            return rpd.decompose_per_word(self.pair)
        null = rpd.monte_carlo_null(self.size["null_n"], *self.size["null_d"],
                                    self.size["replicates"], seed=self.seed * 1000 + index)
        tests = {}
        for name, pair in self.observed.items():
            observed = rpd.rpd(pair).rpd
            tests[name] = (observed, rpd.z_test(observed, null))
        return null, tests

    def capture(self, kind: str, index: int, handle):
        if kind == "map":
            matrix, layout = handle
            return (list(matrix.names), np.array(matrix.values),
                    {name: layout.position(name) for name in layout.names},
                    layout.stress)
        if kind == "decompose":
            report = handle.to_dict()
            per_word = report.pop("per_word")
            cos = [e["cos_theta_i"] for e in per_word]
            report["weighted_sum"] = sum(e["w_i"] * e["cos_theta_i"] for e in per_word
                                         if e["cos_theta_i"] is not None)
            report["sorted"] = all(a <= b for a, b in zip(cos, cos[1:]))
            report["head"] = [(e["word"], e["cos_theta_i"], e["w_i"])
                              for e in per_word[:TOP_K]]
            return report
        null, tests = handle
        return null.to_dict(), {k: (obs, z.to_dict()) for k, (obs, z) in tests.items()}

    def verify(self, kind: str, record) -> None:
        if kind == "map":
            self._verify_map(*record)
        elif kind == "decompose":
            terms = self._memo("decompose", lambda: ref.rpd_terms(
                self.pair.left.matrix, self.pair.right.matrix))
            _check_report(record, terms, self.pair.n)
            close(record["weighted_sum"], record["cosine_term"], RPD_TOL,
                  "sum of w_i cos_theta_i")
            expect(record["sorted"], "per_word is not sorted by ascending cosine")
            _check_per_word(record["head"], terms, list(self.pair.shared_vocab))
        else:
            self._verify_null(*record)

    def _verify_map(self, names, values, positions, stress) -> None:
        def restricted_to_common():
            shared = sorted(set.intersection(*(set(e.vocab) for _, e in self.embs)))
            return [emb.matrix[[emb.index[w] for w in shared]] for _, emb in self.embs]

        common = self._memo("common", restricted_to_common)
        _check_distance_matrix(
            names, values, [name for name, _ in self.embs],
            lambda i, j: self._memo(("map", i, j), lambda: ref.rpd_terms(
                common[i], common[j]))["rpd"], RPD_TOL)
        expect(positions["s0"] == (0.0, 0.0), "anchor s0 is not at the origin")
        close(positions["s1"][0], values[0, 1], RPD_TOL, "anchor s1 x")
        expect(positions["s1"][1] == 0.0, "anchor s1 is off the x-axis")
        # Stress 1 is what collapsing every point onto one spot scores.
        expect(np.isfinite(stress) and 0.0 <= stress < 1.0, f"layout stress {stress}")

    def _verify_null(self, null: dict, tests: dict) -> None:
        draws, reps = self.null_ref.size, null["replicates"]
        mu, sigma = self.null_ref.mean(), self.null_ref.std(ddof=1)
        expect(reps == self.size["replicates"], "replicate count")
        se_mu = sigma * np.sqrt(1 / reps + 1 / draws)
        expect(abs(null["mu"] - mu) <= NULL_SE * se_mu,
               f"null mu {null['mu']} vs reference {mu} (se {se_mu:.3g})")
        se_log_sigma = np.sqrt(1 / (2 * (reps - 1)) + 1 / (2 * (draws - 1)))
        expect(abs(null["sigma"] / sigma - 1) <= NULL_SE * se_log_sigma,
               f"null sigma {null['sigma']} vs reference {sigma}")
        for name, (observed, z) in tests.items():
            pair = self.observed[name]
            terms = self._memo(name, lambda: ref.rpd_terms(pair.left.matrix,
                                                           pair.right.matrix))
            close(observed, terms["rpd"], RPD_TOL, f"{name} observed rpd")
            close(z["z"], (observed - null["mu"]) / null["sigma"], 1e-12, f"{name} z")
            expect(z["reject_at_0_01"] == (name == "dependent"),
                   f"{name} pair: reject_at_0_01={z['reject_at_0_01']} (z={z['z']:.3g})")


class TrainSpectral(Workload):
    """``rpd train-svd --save-counts`` on a corpus, then ``rpd eval`` on its output."""

    name = "train-spectral"
    kinds = ("train", "eval")

    def prepare(self) -> None:
        s = self.size
        self.data = inputs.training_inputs(self.seed, self.workdir, s["tokens"], s["vocab"],
                                           s["topics"], s["sim_pairs"], s["questions"])
        self.emb = self.workdir / "embedding.txt"
        self.counts = self.workdir / "counts.txt"
        self.kept: dict | None = None
        self.inputs = inputs.describe_files({"corpus": self.data.corpus,
                                             "similarity": self.data.similarity,
                                             "analogy": self.data.analogy})
        self.inputs["corpus"]["tokens"] = self.data.tokens

    def _outputs(self) -> dict[str, Path]:
        return {"embedding": self.emb, "counts": self.counts,
                "vocab": self.counts.with_name(self.counts.name + ".vocab")}

    def run_job(self, kind: str, index: int):
        s = self.size
        if kind == "train":
            self.cli(["train-svd", "--corpus", str(self.data.corpus), "--signal", "pmi",
                      "--dim", str(s["dim"]), "--window", str(s["window"]),
                      "--min-count", str(s["min_count"]), "--save-counts", str(self.counts),
                      "--output", str(self.emb)])
            return None
        out = self.workdir / "eval.json"
        self.cli(["eval", "--emb", str(self.emb), "--similarity", str(self.data.similarity),
                  "--analogy", str(self.data.analogy), "--output", str(out)])
        return out

    def capture(self, kind: str, index: int, handle):
        if kind == "eval":
            return json.loads(handle.read_text(encoding="utf-8"))
        hashes = {name: inputs.sha256_file(path) for name, path in self._outputs().items()}
        if self.kept is None:
            self.kept = {"sha256": hashes}
            for name, path in self._outputs().items():
                self.kept[name] = path.with_name("kept-" + path.name)
                shutil.copyfile(path, self.kept[name])
        return hashes

    def verify(self, kind: str, record) -> None:
        if kind == "train":
            expect(self.kept is not None and record == self.kept["sha256"],
                   "train outputs differ between jobs with the same seed")
            expect(not self.training_error, self.training_error)
            return
        expected = self.eval_reference
        close(record["similarity_spearman"], expected["similarity_spearman"], 1e-12,
              "similarity_spearman")
        for key in ("similarity_coverage", "analogy_accuracy", "analogy_coverage"):
            expect(record[key] == expected[key], f"{key}: {record[key]} != {expected[key]}")

    def _reference_counts(self):
        s, data = self.size, self.data
        freq = np.bincount(np.concatenate(data.docs), minlength=len(data.words))
        kept = [g for g in range(len(data.words)) if freq[g] >= s["min_count"]]
        kept.sort(key=lambda g: (-freq[g], data.words[g]))
        program_id = np.full(len(data.words), -1, dtype=np.int64)
        program_id[kept] = np.arange(len(kept))
        streams = [ids[ids >= 0] for ids in (program_id[doc] for doc in data.docs)]
        keys, counts = ref.count_cells(streams, len(kept), s["window"])
        return [data.words[g] for g in kept], keys, counts

    @functools.cached_property
    def training_error(self) -> str:
        """The first job's outputs checked in full, once: "" or what failed."""
        try:
            self._verify_training()
        except CheckFailed as exc:
            return str(exc)
        return ""

    def _verify_training(self) -> None:
        s = self.size
        vocab, keys, counts = self._reference_counts()
        v = len(vocab)
        words, matrix = inputs.read_word2vec(self.kept["embedding"])
        expect(words == vocab, "embedding vocabulary differs from the min-count vocabulary")
        expect(matrix.shape == (v, s["dim"]), f"embedding shape {matrix.shape}")
        sidecar = self.kept["vocab"].read_text(encoding="utf-8").split("\n")[:-1]
        expect(sidecar == vocab, "counts vocabulary sidecar differs")
        window, min_count, body = self.kept["counts"].read_text(encoding="utf-8").split("\n", 2)
        expect([window, min_count] == [f"# window {s['window']}", f"# min_count {s['min_count']}"],
               f"counts header {window!r}, {min_count!r}")
        triples = np.array(body.split(), dtype=np.float64).reshape(-1, 3)
        file_keys = triples[:, 0].astype(np.int64) * v + triples[:, 1].astype(np.int64)
        order = np.argsort(file_keys)
        expect(np.array_equal(file_keys[order], keys), "saved count cells differ")
        expect(np.array_equal(triples[order, 2], counts), "saved counts differ")
        top = ref.top_singular_values(keys, counts, v, 10)
        written = np.sort(np.sum(matrix * matrix, axis=0))[::-1][:10]
        worst = float(np.max(np.abs(written - top) / top))
        expect(worst <= SVD_TOL, f"top singular values off by {worst:.3g} (relative)")

    @functools.cached_property
    def eval_reference(self) -> dict:
        words, matrix = inputs.read_word2vec(self.kept["embedding"])
        unit = ref.unit_rows(matrix)
        lines = self.data.similarity.read_text(encoding="utf-8").splitlines()[1:]
        pairs = [(a, b, float(score)) for a, b, score in (ln.split("\t") for ln in lines)]
        questions = [tuple(ln.split()) for ln in
                     self.data.analogy.read_text(encoding="utf-8").splitlines()
                     if ln and not ln.startswith(":")]
        rho, sim_cov = ref.similarity_score({w: i for i, w in enumerate(words)}, unit, pairs)
        acc, ana_cov = ref.analogy_score(words, unit, questions)
        return {"similarity_spearman": rho, "similarity_coverage": sim_cov,
                "analogy_accuracy": acc, "analogy_coverage": ana_cov}


WORKLOADS = {cls.name: cls for cls in (CompareFiles, AnalyzeSpaces, TrainSpectral)}
