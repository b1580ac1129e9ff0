"""Word-similarity and word-analogy scoring, plus the distance-vs-performance study.

Similarity files are tab-separated ``word1 word2 score`` lines (an optional
header is detected by a non-numeric score field). Analogy files follow the
common four-word format, with section headers starting with ``:``.

Out-of-vocabulary items are skipped and reported through coverage fractions
rather than raised, since coverage differences confound score comparisons.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ParseError, PreconditionError, RpdError
from .metric import _unit_exponent, rpd as _rpd
from .store import (EmbeddingMatrix, _check_names, _check_words, _real, _text_lines, _tsv,
                    _word_order, align_vocabularies)

__all__ = [
    "AnalogyDataset",
    "AnalogyQuestion",
    "EvalResult",
    "SimilarityDataset",
    "StudyEntry",
    "StudyResult",
    "eval_analogy_3cosadd",
    "eval_similarity",
    "evaluate",
    "load_analogy_dataset",
    "load_similarity_dataset",
    "perf_vs_rpd_study",
    "spearman",
]

_BLOCK_SCORES = 1 << 20  # analogy scores per matrix product: 8 MB of float64


@dataclass(frozen=True)
class SimilarityDataset:
    """Human-scored word pairs."""

    pairs: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        if not pairs:
            raise PreconditionError("similarity dataset has no pairs")
        scores = _real([s for _, _, s in pairs], "similarity scores").astype(np.float64)
        if scores.ndim != 1:
            raise PreconditionError("similarity scores must be numbers, one per pair")
        _check_words([word for pair in pairs for word in pair[:2]], "similarity word")
        if not np.all(np.isfinite(scores)):
            raise PreconditionError("similarity scores must be finite")
        object.__setattr__(self, "pairs", tuple(
            (a, b, s) for (a, b, _), s in zip(pairs, scores.tolist())))

    @classmethod
    def _checked(cls, pairs: tuple[tuple[str, str, float], ...]) -> SimilarityDataset:
        """Build from pairs of words with finite float scores, at least one,
        as the loader has checked them line by line."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "pairs", pairs)
        return ds


@dataclass(frozen=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    expected: str
    section: str | None = None

    def __post_init__(self) -> None:
        _check_words((self.a, self.b, self.c, self.expected), "analogy word")
        self._check_expected()

    @classmethod
    def _split(cls, a: str, b: str, c: str, expected: str,
               section: str | None) -> AnalogyQuestion:
        """Build from four tokens of ``str.split``, which are words already."""
        question = object.__new__(cls)
        question.__dict__.update(a=a, b=b, c=c, expected=expected, section=section)
        question._check_expected()
        return question

    def _check_expected(self) -> None:
        if self.expected in (self.a, self.b, self.c):
            raise PreconditionError(
                f"expected word {self.expected!r} duplicates a query word"
            )


@dataclass(frozen=True)
class AnalogyDataset:
    questions: tuple[AnalogyQuestion, ...]

    def __post_init__(self) -> None:
        if not self.questions:
            raise PreconditionError("analogy dataset has no questions")


@dataclass(frozen=True)
class EvalResult:
    """Similarity and analogy scores with their vocabulary coverage.

    A metric is None when nothing was evaluated for it (missing dataset or
    zero coverage) or, for ``similarity_spearman``, when the correlation is
    undefined: fewer than two covered pairs, or all their cosines or all their
    human scores equal. Its coverage is reported either way; a similarity pair
    with a zero vector counts as uncovered. Both scorers take cosines of
    :func:`_unit_rows`, so entries of extreme finite magnitude score as unscaled.
    """

    similarity_spearman: float | None = None
    similarity_coverage: float | None = None
    analogy_accuracy: float | None = None
    analogy_coverage: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def load_similarity_dataset(path: str | Path) -> SimilarityDataset:
    """Read tab-separated ``word1 word2 score`` lines.

    Each word is non-empty and holds no whitespace, as in an embedding vocabulary.

    Raises:
        ParseError: a malformed or non-UTF-8 line (at ``path:line``), or no data.
    """
    path = Path(path)
    pairs: list[tuple[str, str, float]] = []
    for k, (lineno, line) in enumerate(_text_lines(path)):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            score = float(fields[2])
        except ValueError:
            if k == 0:
                continue  # header line
            raise ParseError(f"{path}:{lineno}: non-numeric score {fields[2]!r}") from None
        if not np.isfinite(score):
            raise ParseError(f"{path}:{lineno}: non-finite score {fields[2]!r}")
        for word in fields[:2]:  # decoded text, so UTF-8 encodes it
            if word.split() != [word]:
                raise ParseError(f"{path}:{lineno}: word is empty or contains whitespace: "
                                 f"{word!r}")
        pairs.append((fields[0], fields[1], score))
    if not pairs:
        raise ParseError(f"{path}: no data lines")
    return SimilarityDataset._checked(tuple(pairs))


def load_analogy_dataset(path: str | Path) -> AnalogyDataset:
    """Read four-word analogy lines with optional ``: section`` headers.

    Raises:
        ParseError: a malformed or non-UTF-8 line (at ``path:line``), or no questions.
    """
    path = Path(path)
    questions: list[AnalogyQuestion] = []
    section: str | None = None
    for lineno, line in _text_lines(path):
        line = line.strip()
        if line.startswith(":"):
            section = line[1:].strip() or None
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 words")
        try:
            question = AnalogyQuestion._split(*fields, section=section)
        except PreconditionError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        questions.append(question)
    if not questions:
        raise ParseError(f"{path}: no questions")
    return AnalogyDataset(tuple(questions))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Raises:
        PreconditionError: length mismatch or fewer than 2 points.
        DegenerateInputError: a constant input (correlation undefined).
    """
    xa = np.asarray(x, dtype=np.float64).ravel()
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.size != ya.size:
        raise PreconditionError(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise PreconditionError("need at least 2 points")
    if np.ptp(xa) == 0.0 or np.ptp(ya) == 0.0:
        raise DegenerateInputError("constant input: correlation undefined")
    return float(np.corrcoef(_average_ranks(xa), _average_ranks(ya))[0, 1])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank; all NaN if any value is NaN."""
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # A run of equal values ending at rank r holds ranks r - count + 1 .. r.
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale ``rows`` in place to unit L2 norm and return it; zero rows stay zero.

    Each row is first multiplied by the power of two nearest 1/max|row|, the
    prescale of :func:`rpd.metric.gram_side`: exact, and no square overflows or
    underflows.
    """
    np.ldexp(rows, _unit_exponent(rows.max(axis=1, keepdims=True),
                                  rows.min(axis=1, keepdims=True)), out=rows)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows /= np.where(norms == 0.0, 1.0, norms)
    return rows


def eval_similarity(emb: EmbeddingMatrix, ds: SimilarityDataset) -> EvalResult:
    """Spearman correlation between pair cosines and the human scores.

    Pairs with an out-of-vocabulary word or a zero vector are skipped and
    counted against coverage. Where the correlation is undefined (fewer than
    two covered pairs, or a constant side) the metric is absent.
    """
    idx = emb.index
    found = [(idx[w1], idx[w2], human) for w1, w2, human in ds.pairs
             if w1 in idx and w2 in idx]
    first = _unit_rows(emb.matrix[[i for i, _, _ in found]])
    second = _unit_rows(emb.matrix[[j for _, j, _ in found]])
    covered = np.any(first, axis=1) & np.any(second, axis=1)
    cosines = np.einsum("ij,ij->i", first[covered], second[covered])
    scores = np.array([human for _, _, human in found])[covered]
    try:
        rho = spearman(cosines, scores)
    except (PreconditionError, DegenerateInputError):
        rho = None
    return EvalResult(similarity_spearman=rho, similarity_coverage=len(cosines) / len(ds.pairs))


def eval_analogy_3cosadd(emb: EmbeddingMatrix, ds: AnalogyDataset) -> EvalResult:
    """Analogy accuracy with the additive cosine objective.

    Rows are L2-normalized and put in word order once; for a question
    (a, b, c -> expected) the prediction is the vocabulary word maximizing
    cosine(v, v_b - v_a + v_c) with a, b, c excluded as candidates. Each block
    of about ``_BLOCK_SCORES`` scores is one matrix product. A product rounds
    a score differently with its position in the block, so candidates within
    that rounding of the maximum are scored again with ``math.fsum``. The
    first maximum in word order wins, so a tie goes to the smallest word
    whatever the row order and block size. A question counts as answerable
    only when all four words are in vocabulary.
    """
    by_word = _word_order(emb.vocab)
    position = {emb.vocab[i]: p for p, i in enumerate(by_word.tolist())}
    answerable = [[position[w] for w in (q.a, q.b, q.c, q.expected)] for q in ds.questions
                  if all(w in position for w in (q.a, q.b, q.c, q.expected))]
    coverage = len(answerable) / len(ds.questions)
    if not answerable:
        return EvalResult(analogy_accuracy=None, analogy_coverage=0.0)

    unit = _unit_rows(emb.matrix[by_word])

    correct = 0
    step = max(1, _BLOCK_SCORES // len(by_word))
    for block in np.split(np.array(answerable), range(step, len(answerable), step)):
        a, b, c, expected = block.T
        targets = unit[b] - unit[a] + unit[c]
        scores = targets @ unit.T
        rows = np.arange(len(block))
        scores[rows[:, None], block[:, :3]] = -np.inf
        predicted = np.argmax(scores, axis=1)
        # A d-term dot product with a unit row, summed in any order or by fsum
        # of the rounded products, is within about (d/2 + 1)·eps·‖target‖ of
        # the exact one (Higham, Accuracy and Stability of Numerical
        # Algorithms, §3.1), so the fsum winner trails the block maximum by at
        # most twice that. The slack doubles it again for higher-order terms.
        slack = (2 * (unit.shape[1] + 2) * np.finfo(np.float64).eps
                 * np.linalg.norm(targets, axis=1))
        threshold = scores[rows, predicted] - slack
        rivals = scores >= threshold[:, None]
        rivals[rows, predicted] = False
        for i in np.flatnonzero(rivals.any(axis=1)).tolist():
            candidates = np.flatnonzero(scores[i] >= threshold[i])
            exact = [math.fsum(targets[i] * unit[j]) for j in candidates.tolist()]
            predicted[i] = candidates[int(np.argmax(exact))]
        correct += int(np.count_nonzero(predicted == expected))
    return EvalResult(analogy_accuracy=correct / len(answerable), analogy_coverage=coverage)


def evaluate(
    emb: EmbeddingMatrix,
    sim_ds: SimilarityDataset | None = None,
    ana_ds: AnalogyDataset | None = None,
) -> EvalResult:
    """Run whichever evaluations have datasets and merge the results."""
    if sim_ds is None and ana_ds is None:
        raise PreconditionError("need at least one dataset")
    sim = eval_similarity(emb, sim_ds) if sim_ds is not None else EvalResult()
    ana = eval_analogy_3cosadd(emb, ana_ds) if ana_ds is not None else EvalResult()
    return replace(sim, analogy_accuracy=ana.analogy_accuracy,
                   analogy_coverage=ana.analogy_coverage)


@dataclass(frozen=True)
class StudyEntry:
    name: str
    rpd: float | None
    delta_perf: float | None
    error: str | None = None


@dataclass(frozen=True)
class StudyResult:
    """Distance-vs-performance study rows plus their rank correlation."""

    entries: tuple[StudyEntry, ...]
    rank_correlation: float | None

    def to_tsv(self) -> str:
        rows = ((e.name, e.rpd, e.delta_perf) if e.error is None else (e.name, "ERROR", e.error)
                for e in self.entries)
        corr = "NA" if self.rank_correlation is None else self.rank_correlation
        return _tsv(("name", "rpd", "delta_perf"), rows, [("rank_correlation", corr)])


def perf_vs_rpd_study(
    baseline: EmbeddingMatrix,
    others: Sequence[tuple[str, EmbeddingMatrix]],
    sim_ds: SimilarityDataset | None = None,
    ana_ds: AnalogyDataset | None = None,
) -> StudyResult:
    """Distance from a baseline embedding versus absolute performance change.

    For each named embedding the study records its distance to the baseline
    (per-pair vocabulary alignment) and
    ``|Δ similarity_spearman| + |Δ analogy_accuracy|``, each side evaluated
    on its own coverage. Per-entry failures are recorded and the study
    continues. The Spearman rank correlation between the distance and delta
    columns summarizes how monotonically performance tracks distance.
    """
    if not others:
        raise PreconditionError("need at least one embedding to compare")
    _check_names([name for name, _ in others], "embedding")
    base_eval = evaluate(baseline, sim_ds, ana_ds)

    entries: list[StudyEntry] = []
    for name, emb in others:
        try:
            pair = align_vocabularies(baseline, emb)
            distance = _rpd(pair).rpd
            ev = evaluate(emb, sim_ds, ana_ds)
            deltas = [abs(new - old) for new, old in (
                (ev.similarity_spearman, base_eval.similarity_spearman),
                (ev.analogy_accuracy, base_eval.analogy_accuracy),
            ) if new is not None and old is not None]
            if not deltas:
                entries.append(StudyEntry(name, None, None, error="no comparable metrics"))
                continue
            entries.append(StudyEntry(name, distance, sum(deltas)))
        except RpdError as exc:
            entries.append(StudyEntry(name, None, None, error=str(exc)))

    valid = [e for e in entries if e.error is None]
    try:
        correlation = spearman([e.rpd for e in valid], [e.delta_perf for e in valid])
    except (PreconditionError, DegenerateInputError):  # fewer than 2 entries, or a constant column
        correlation = None
    return StudyResult(entries=tuple(entries), rank_correlation=correlation)
