"""Seeded input generators and the benchmark's own numpy writers.

Every input is a pure function of the run seed and a size preset, and is
written by the code in this file (never by ``rpd.save_embeddings`` or the
test helpers), so the parent and the child commit of a comparison read
byte-identical files.

Embedding values are quantized to six decimals before they are written:
an entry is ``k / 1e6`` for an integer ``k``. Division by 1e6 and the
parse of the printed decimal are both correctly rounded, so the float64
arrays kept here are exactly the values any correct parser reads back, and
the reference checks can use them directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def describe_files(paths: dict[str, Path]) -> dict:
    """Size and SHA-256 of each named file, for provenance."""
    return {name: {"bytes": path.stat().st_size, "sha256": sha256_file(path)}
            for name, path in paths.items()}


def sha256_arrays(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def unique_words(rng: np.random.Generator, count: int, min_len: int = 3,
                 max_len: int = 10) -> list[str]:
    """``count`` distinct random lowercase words, in generation order."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        batch = count - len(words) + 64
        lengths = rng.integers(min_len, max_len + 1, size=batch)
        letters = _LETTERS[rng.integers(0, 26, size=(batch, max_len))]
        for row, length in zip(letters, lengths):
            word = row[:length].tobytes().decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def quantize(values: np.ndarray) -> np.ndarray:
    """Clip to (-10, 10) and round to six decimals, as the text files store them."""
    return np.rint(np.clip(values, -9.999999, 9.999999) * 1e6) / 1e6


def decaying_spectrum(d: int, rms: float = 0.3) -> np.ndarray:
    """Column scales 1/sqrt(1+k), normalized to entry root-mean-square ``rms``."""
    scales = 1.0 / np.sqrt(1.0 + np.arange(d))
    return scales * (rms / np.sqrt(np.mean(scales**2)))


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _format_rows(matrix: np.ndarray) -> list[bytes]:
    """Each row as ``b" v1 v2 ..."`` with six decimals, vectorized.

    Works on the integers ``k = matrix * 1e6`` (exact for quantized input),
    laying every value out as ``" -d.dddddd"`` and dropping the sign byte of
    the nonnegative ones.
    """
    n, d = matrix.shape
    k = np.rint(matrix * 1e6).astype(np.int64)
    neg = k < 0
    mag = np.abs(k)
    buf = np.empty((n, d, 10), dtype=np.uint8)
    buf[..., 0] = ord(" ")
    buf[..., 1] = ord("-")
    buf[..., 2] = ord("0") + mag // 1_000_000
    buf[..., 3] = ord(".")
    for i in range(6):
        buf[..., 9 - i] = ord("0") + (mag // 10**i) % 10
    keep = np.ones(buf.shape, dtype=bool)
    keep[..., 1] = neg
    flat = buf[keep].tobytes()
    ends = np.cumsum(d * 9 + neg.sum(axis=1)).tolist()
    return [flat[s:e] for s, e in zip([0] + ends[:-1], ends)]


def write_word2vec(path: Path, words: list[str], matrix: np.ndarray) -> None:
    """word2vec text with six decimals per value (GloVe-style precision)."""
    n, d = matrix.shape
    rows = _format_rows(matrix)
    with open(path, "wb") as fh:
        fh.write(f"{n} {d}\n".encode())
        fh.write(b"".join(w.encode() + r + b"\n" for w, r in zip(words, rows)))


def read_word2vec(path: Path) -> tuple[list[str], np.ndarray]:
    """The benchmark's own reader for files written by ``rpd train-svd``."""
    with open(path, encoding="utf-8") as fh:
        n, d = (int(v) for v in fh.readline().split())
        words: list[str] = []
        values: list[str] = []
        for line in fh:
            word, _, rest = line.partition(" ")
            words.append(word)
            values.append(rest)
    matrix = np.array(" ".join(values).split(), dtype=np.float64)
    if len(words) != n or matrix.size != n * d:
        raise ValueError(f"{path}: header {n} x {d} does not match the data")
    return words, matrix.reshape(n, d)


@dataclass
class Space:
    """Words and the exact float64 values of one embedding space."""

    words: list[str]
    matrix: np.ndarray

    def restricted(self, shared: list[str]) -> np.ndarray:
        index = {w: i for i, w in enumerate(self.words)}
        return self.matrix[[index[w] for w in shared]]


@dataclass
class EmbeddingFiles:
    """Three word2vec text files: ``a``, ``b`` (noisy rotation of ``a``) and ``c``."""

    spaces: dict[str, Space]
    paths: dict[str, Path]


def related_spaces(rng: np.random.Generator, n: int, d: int, shared: float,
                   noise: list[float | None]) -> list[Space]:
    """Spaces over one base: each a rotated noisy copy, or independent (None).

    Every space holds the ``round(shared * n)`` core words plus its own extra
    words, with rows in a random order. Values are quantized.
    """
    core = int(round(shared * n))
    extra = n - core
    words = unique_words(rng, core + extra * len(noise))
    spectrum = decaying_spectrum(d)
    base = rng.standard_normal((core, d)) * spectrum
    spaces = []
    for k, level in enumerate(noise):
        if level is None:
            core_rows = rng.standard_normal((core, d)) * spectrum
        else:
            core_rows = (base @ random_rotation(rng, d)
                         + level * rng.standard_normal((core, d)) * spectrum)
        own = rng.standard_normal((extra, d)) * spectrum
        matrix = quantize(np.vstack([core_rows, own]))
        space_words = words[:core] + words[core + k * extra: core + (k + 1) * extra]
        order = rng.permutation(n)
        spaces.append(Space([space_words[i] for i in order], matrix[order]))
    return spaces


def embedding_files(seed: int, workdir: Path, n: int, d: int) -> EmbeddingFiles:
    rng = np.random.default_rng([seed, 1])
    a, b, c = related_spaces(rng, n, d, shared=0.9, noise=[0.0, 0.5, None])
    spaces = {"a": a, "b": b, "c": c}
    paths = {}
    for name, space in spaces.items():
        paths[name] = workdir / f"{name}.w2v.txt"
        write_word2vec(paths[name], space.words, space.matrix)
    return EmbeddingFiles(spaces, paths)


def zipf_topic_corpus(rng: np.random.Generator, n_tokens: int, vocab_size: int,
                      n_topics: int, doc_len: tuple[int, int]
                      ) -> tuple[list[str], list[np.ndarray]]:
    """Documents of word ids: a Zipfian unigram mixed with a per-document topic.

    Each topic boosts its own block of the vocabulary eightfold, so windowed
    co-occurrences carry association signal. Returns the vocabulary (by
    Zipf rank) and one id array per document.
    """
    words = unique_words(rng, vocab_size, 2, 9)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    base = 1.0 / ranks
    block = vocab_size // n_topics
    lengths = []
    total = 0
    while total < n_tokens:
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        lengths.append(length)
        total += length
    topics = rng.integers(0, n_topics, size=len(lengths))
    docs: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(lengths)
    for t in range(n_topics):
        members = np.flatnonzero(topics == t)
        if members.size == 0:
            continue
        p = base.copy()
        p[t * block:(t + 1) * block] *= 8.0
        p /= p.sum()
        sizes = [lengths[i] for i in members]
        ids = rng.choice(vocab_size, size=sum(sizes), p=p)
        for i, part in zip(members, np.split(ids, np.cumsum(sizes)[:-1])):
            docs[i] = part
    return words, docs


@dataclass
class TrainingInputs:
    corpus: Path
    similarity: Path
    analogy: Path
    words: list[str]
    docs: list[np.ndarray]
    tokens: int


def training_inputs(seed: int, workdir: Path, n_tokens: int, vocab_size: int,
                    n_topics: int, sim_pairs: int, questions: int) -> TrainingInputs:
    """Corpus text, a similarity TSV and an analogy file.

    About 3% of the similarity pairs and analogy questions use a word that
    never occurs in the corpus, so coverage is below one. Similarity scores
    are higher for same-topic pairs; analogies pair two words of one topic
    with two of another.
    """
    rng = np.random.default_rng([seed, 3])
    words, docs = zipf_topic_corpus(rng, n_tokens, vocab_size, n_topics, (20, 60))
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus.txt"
    vocab = np.array(words)
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(vocab[ids]) + "\n" for ids in docs))
    oov = [w.upper() + "q" for w in unique_words(rng, 64, 4, 8)]
    block = vocab_size // n_topics

    def pick(topic: int) -> str:
        if rng.random() < 0.03:
            return oov[int(rng.integers(len(oov)))]
        return words[topic * block + int(rng.integers(block))]

    similarity = workdir / "similarity.tsv"
    with open(similarity, "w", encoding="utf-8") as fh:
        fh.write("word1\tword2\tscore\n")
        for _ in range(sim_pairs):
            t1 = int(rng.integers(n_topics))
            t2 = t1 if rng.random() < 0.5 else int(rng.integers(n_topics))
            w1, w2 = pick(t1), pick(t2)
            while w2 == w1:
                w2 = pick(t2)
            score = (6.0 if t1 == t2 else 2.0) + float(rng.normal(0, 1.5))
            fh.write(f"{w1}\t{w2}\t{score:.2f}\n")

    analogy = workdir / "analogy.txt"
    with open(analogy, "w", encoding="utf-8") as fh:
        per_section = max(questions // 4, 1)
        written = 0
        while written < questions:
            fh.write(f": section{written // per_section}\n")
            for _ in range(min(per_section, questions - written)):
                tx, ty = rng.choice(n_topics, size=2, replace=False)
                while True:
                    quad = [pick(int(tx)), pick(int(ty)), pick(int(tx)), pick(int(ty))]
                    if len(set(quad)) == 4:
                        break
                fh.write(" ".join(quad) + "\n")
                written += 1

    return TrainingInputs(corpus, similarity, analogy, words, docs,
                          tokens=int(sum(len(d) for d in docs)))
