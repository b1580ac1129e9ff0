"""The relative pairwise inner product distance (RPD) between embedding spaces.

For standardized matrices Ẽ₁, Ẽ₂ sharing a vocabulary,

    RPD = ½ ||Ẽ₁Ẽ₁ᵀ - Ẽ₂Ẽ₂ᵀ||² / (||Ẽ₁Ẽ₁ᵀ|| ||Ẽ₂Ẽ₂ᵀ||)

which expands into a ratio term ½(a/b + b/a) minus a cosine-like term
<Ĝ₁,Ĝ₂>/(a·b), with a, b the Gram norms. The value is invariant to rotation,
row permutation, and (with standardization) scaling of either input, and for
large vocabularies independent random spaces concentrate near 1 - d/n.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import AlignmentError, DegenerateInputError, PreconditionError
from .gram import GramSide, gram_side
from .store import AlignedPair, EmbeddingMatrix, _aligned_rows, _restricted_rows, _word_order


@dataclass(frozen=True)
class PerWordDivergence:
    """One word's contribution to the cosine term.

    ``cos_theta_i`` is the cosine of the angle between the word's rows of the
    two Gram matrices (None when a row norm vanishes and the angle is
    undefined); ``w_i`` is its exact weight, so that the weighted sum of
    cosines reproduces the cosine term.
    """

    word: str
    cos_theta_i: float | None
    w_i: float


@dataclass(frozen=True)
class RpdReport:
    """RPD value with its two-term expansion and optional per-word breakdown.

    ``rpd = max(ratio_term - cosine_term, 0)`` with ``cosine_term >= 0``, so
    ``ratio_term`` = ½(a/b + b/a) is also the Cauchy-Schwarz upper bound of
    ``rpd``.
    """

    rpd: float
    ratio_term: float
    cosine_term: float
    n: int
    d_left: int
    d_right: int
    per_word: tuple[PerWordDivergence, ...] | None = None

    def to_dict(self) -> dict:
        """The fields in order, as JSON-ready values; ``per_word`` only when computed."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.per_word is None:
            del out["per_word"]
        else:
            # An entry's __dict__ holds its fields in order; asdict is ten times slower.
            out["per_word"] = [p.__dict__.copy() for p in self.per_word]
        return out


def _named_side(name: str, matrix: np.ndarray, standardize: bool,
                owned: bool = False) -> GramSide:
    """:func:`gram_side`, with ``name`` leading its degenerate-input message."""
    try:
        return gram_side(matrix, standardize, owned)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"{name}: {exc}") from None


def _sides(pair: AlignedPair, standardize_inputs: bool) -> tuple[GramSide, GramSide]:
    return (_named_side("left", pair.left.matrix, standardize_inputs),
            _named_side("right", pair.right.matrix, standardize_inputs))


def rpd_from_sides(
    left: GramSide, right: GramSide, cross: np.ndarray | None = None
) -> RpdReport:
    """RPD of two summarized sides; ``cross`` is ``left.rowsᵀ·right.rows`` if known."""
    a = left.norm / left.divisor
    b = right.norm / right.divisor
    if a == 0.0 or b == 0.0:
        raise DegenerateInputError("Gram matrix has zero Frobenius norm")
    if cross is None:
        cross = left.rows.T @ right.rows
    ratio = 0.5 * (a / b + b / a)
    # Scale-free, so it is taken on the prescaled blocks directly.
    cosine = float(np.sum(cross * cross)) / (left.norm * right.norm)
    # Cauchy-Schwarz guarantees ratio >= cosine; clamp roundoff.
    return RpdReport(
        rpd=max(ratio - cosine, 0.0),
        ratio_term=ratio,
        cosine_term=cosine,
        n=left.rows.shape[0],
        d_left=left.rows.shape[1],
        d_right=right.rows.shape[1],
    )


def rpd(pair: AlignedPair, standardize_inputs: bool = True) -> RpdReport:
    """RPD of an aligned pair, via the d-space Gram identities.

    Args:
        pair: Aligned embeddings (dimensions may differ).
        standardize_inputs: Rescale both sides to unit entry standard
            deviation first (the metric's definition; disable only for
            inputs normalized elsewhere). The rescaling is applied to the
            d-by-d statistics; no standardized copy of either side is made.

    Raises:
        DegenerateInputError: a side has zero Gram norm, or zero variance
            (that side, ``left`` or ``right``, named).
    """
    return rpd_from_sides(*_sides(pair, standardize_inputs))


def decompose_per_word(pair: AlignedPair, standardize_inputs: bool = True) -> RpdReport:
    """RPD report with the per-word decomposition of the cosine term.

    Each word i contributes weight ``w_i = ||ĝ⁽¹⁾ᵢ|| ||ĝ⁽²⁾ᵢ|| / (a·b)`` and
    cosine ``cos θᵢ`` between its two Gram rows; the identity
    ``Σ w_i cos θᵢ = cosine_term`` holds exactly. Words whose Gram row norm
    vanishes get ``cos_theta_i=None`` and weight 0. Entries are sorted by
    ascending cosine, most divergent words first, ties by word.

    Row i of E·Eᵀ is vᵢ·Eᵀ, so with the d-by-d blocks G₁₁ = E₁ᵀE₁,
    G₂₂ = E₂ᵀE₂ and G₁₂ = E₁ᵀE₂ no n-length row is ever formed:

        <g⁽¹⁾ᵢ, g⁽²⁾ᵢ> = v⁽¹⁾ᵢ G₁₂ v⁽²⁾ᵢᵀ
        ||g⁽¹⁾ᵢ||²     = v⁽¹⁾ᵢ G₁₁ v⁽¹⁾ᵢᵀ
    """
    left, right = _sides(pair, standardize_inputs)
    cross = left.rows.T @ right.rows
    report = rpd_from_sides(left, right, cross)
    # Weights and cosines are scale-free, so the prescaled blocks serve.
    a, b = left.rows, right.rows
    dot = np.sum((a @ cross) * b, axis=1)
    norm_prod = _row_norms(a, left.gram) * _row_norms(b, right.gram)
    weights = norm_prod / (left.norm * right.norm)
    defined = norm_prod != 0.0
    cosines = np.full(len(dot), -np.inf)
    cosines[defined] = np.clip(dot[defined] / norm_prod[defined], -1.0, 1.0)

    vocab = pair.shared_vocab
    by_word = _word_order(vocab)
    order = by_word[np.argsort(cosines[by_word], kind="stable")]
    per_word = tuple(
        PerWordDivergence(vocab[i], cos if cos > -np.inf else None, weight)
        for i, cos, weight in zip(
            order.tolist(), cosines[order].tolist(), weights[order].tolist()
        )
    )
    return replace(report, per_word=per_word)


def _row_norms(rows: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Norms of the rows of rows·rowsᵀ, given ``gram = rowsᵀ·rows``."""
    # Quadratic forms are >= 0 exactly; clamp roundoff before the sqrt.
    return np.sqrt(np.maximum(np.sum((rows @ gram) * rows, axis=1), 0.0))


@dataclass(frozen=True, eq=False)
class PairwiseRpd:
    """Symmetric RPD matrix over named embeddings, zero on the diagonal."""

    names: tuple[str, ...]
    values: np.ndarray

    def to_tsv(self) -> str:
        lines = ["name\t" + "\t".join(self.names)]
        for name, row in zip(self.names, self.values):
            lines.append(name + "\t" + "\t".join("%.12g" % v for v in row))
        return "\n".join(lines) + "\n"


def rpd_pairwise_matrix(
    embs: Sequence[tuple[str, EmbeddingMatrix]],
    standardize_inputs: bool = True,
    common_vocab: bool = False,
) -> PairwiseRpd:
    """All pairwise RPD values between named embeddings.

    By default each pair is compared on its own vocabulary intersection; with
    ``common_vocab=True`` every embedding is first restricted to the global
    intersection so all cells share one vocabulary, and each embedding's
    ``EᵀE`` is computed once for the whole matrix.

    Raises:
        AlignmentError: an empty intersection, with the offending pair named,
            or an all-zero row in the common vocabulary, with its embedding
            named.
        DegenerateInputError: a constant embedding when standardizing, with
            its embedding (common vocabulary) or pair named.
    """
    if len(embs) < 2:
        raise PreconditionError("need at least 2 embeddings")
    names = tuple(name for name, _ in embs)
    if len(set(names)) != len(names):
        raise PreconditionError("embedding names must be unique")
    matrices = [emb for _, emb in embs]
    k = len(matrices)
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    values = np.zeros((k, k), dtype=np.float64)

    if common_vocab:
        shared_set = set(matrices[0].vocab)
        for m in matrices[1:]:
            shared_set &= set(m.vocab)
        shared = tuple(sorted(shared_set))
        if not shared:
            raise AlignmentError("global vocabulary intersection is empty")
        sides = []
        for name, m in zip(names, matrices):
            try:
                rows = _restricted_rows(m, shared)
            except AlignmentError as exc:
                raise AlignmentError(f"{name}: {exc}") from None
            sides.append(_named_side(name, rows, standardize_inputs, owned=True))
        for i, j in cells:
            values[i, j] = values[j, i] = rpd_from_sides(sides[i], sides[j]).rpd
    else:
        for i, j in cells:
            pair_name = f"{names[i]} vs {names[j]}"
            try:
                _, left, right = _aligned_rows(matrices[i], matrices[j])
            except AlignmentError as exc:
                raise AlignmentError(f"{pair_name}: {exc}") from None
            values[i, j] = values[j, i] = rpd_from_sides(
                _named_side(pair_name, left, standardize_inputs, owned=True),
                _named_side(pair_name, right, standardize_inputs, owned=True),
            ).rpd
    return PairwiseRpd(names=names, values=values)
