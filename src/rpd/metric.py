"""The relative pairwise inner product distance (RPD) between embedding spaces.

For standardized matrices Ẽ₁, Ẽ₂ sharing a vocabulary,

    RPD = ½ ||Ẽ₁Ẽ₁ᵀ - Ẽ₂Ẽ₂ᵀ||² / (||Ẽ₁Ẽ₁ᵀ|| ||Ẽ₂Ẽ₂ᵀ||)

which expands into a ratio term ½(a/b + b/a) minus a cosine-like term
<Ĝ₁,Ĝ₂>/(a·b), with a, b the Gram norms. Every function here standardizes
both inputs, so the value is invariant to rotation, row permutation and
scaling of either input, and for large vocabularies independent random
spaces concentrate near 1 - d/n.

Every distance-type result reads from :class:`GramSide`, one summary per
aligned side: its rows, ``G = EᵀE`` and the scalar that standardization
divides G by. The n-by-n Gram matrices enter only through two trace
identities,

    ||E Eᵀ||_F²          = ||Eᵀ E||_F²
    <E₁E₁ᵀ, E₂E₂ᵀ>_F     = ||E₁ᵀ E₂||_F²

so the cost is O(n·d²) time and O(d²) extra space. Standardizing E to unit
mean square entry only rescales G by ``s² = tr(G)/(n·d)``, so no
standardized n-by-d copy is ever built. The cross block E₁ᵀE₂ is always
multiplied in one orientation, so every distance is symmetric in its two
arguments bit for bit, and an :func:`rpd_pairwise_matrix` cell equals
:func:`rpd` of its pair.

The closed form ratio − cosine is written once, as a function of the two Gram
norms, their divisors and ||E₁ᵀE₂||_F². It broadcasts over numpy arrays of
those inputs, element by element the same bits as on scalars, and every
distance here, from :func:`rpd` to each null draw, reads it from there. The
per-word arrays (the two quadratic forms and the cross form of each word's
rows) come from one per-row pass as well.

Every result is a function of the inputs, the BLAS build, its CPU kernel and
its thread count: the Gram products are numpy's, whose OpenBLAS splits them by
thread count. Results repeat bit for bit on one machine at one thread count;
between one and two threads a distance moved by at most 2.6e-16 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import AlignmentError, DegenerateInputError, PreconditionError
from .store import AlignedPair, EmbeddingMatrix, _check_names, _restricted_rows, _tsv, _word_order

__all__ = [
    "PairwiseRpd",
    "PerWordDivergence",
    "RpdReport",
    "decompose_per_word",
    "rpd",
    "rpd_pairwise_matrix",
]


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


def _unit_exponent(high, low) -> np.ndarray:
    """Elementwise, the k for which ``2**k`` times the peak magnitude is nearest 1 (0 for 0)."""
    peak = np.maximum(high, -low)
    # int32, not int64: numpy's ldexp loop for int64 exponents is about ten times slower.
    return -np.rint(np.log2(peak, out=np.zeros_like(peak), where=peak > 0.0)).astype(np.int32)


@dataclass(frozen=True, eq=False)
class GramSide:
    """One aligned side of a comparison, summarized for the d-space identities.

    ``rows`` is the input times ``2**k``, the power of two nearest 1/max|E|.
    That scaling is exact in floating point, so an input and its power-of-two
    multiples give the same statistics bit for bit, while inputs of extreme
    finite magnitude form their products without overflow or underflow.
    ``gram`` is ``rowsᵀ·rows``, ``norm`` its Frobenius norm, and ``divisor``
    maps ``gram`` to the Gram matrix of the standardized input, the one the
    metric compares: ``s² = tr(gram)/(n·d)``.
    """

    rows: np.ndarray
    gram: np.ndarray
    norm: float
    divisor: float


def gram_side(matrix: np.ndarray, name: str, *, owned: bool = False) -> GramSide:
    """Summarize an aligned side; ``owned=True`` lets the prescale reuse ``matrix``.

    Raises:
        DegenerateInputError: a constant matrix (zero standard deviation),
            with ``name`` leading the message.
    """
    high, low = float(matrix.max()), float(matrix.min())
    if high == low:
        raise DegenerateInputError(f"{name}: matrix is constant: zero standard deviation")
    exponent = _unit_exponent(high, low)
    rows = matrix
    if exponent:
        rows = np.ldexp(matrix, exponent, out=matrix if owned else None)
    gram = rows.T @ rows
    n, d = rows.shape
    divisor = float(np.trace(gram)) / (n * d)
    return GramSide(rows, gram, float(np.sqrt(np.sum(gram * gram))), divisor)


def _sides(pair: AlignedPair) -> tuple[GramSide, GramSide]:
    return gram_side(pair.left.matrix, "left"), gram_side(pair.right.matrix, "right")


def _cross(left: GramSide, right: GramSide) -> np.ndarray:
    """``left.rowsᵀ·right.rows``, multiplied in one orientation for both argument orders.

    The side with the smaller ``(d, norm)`` goes first, and the other argument
    order gets the transposed view of that same product, so the bits of a
    result do not depend on which side is called left. On a tie, as for a
    copy or a copy with some columns negated, the argument order is kept.
    """
    if (right.rows.shape[1], right.norm) < (left.rows.shape[1], left.norm):
        return (right.rows.T @ left.rows).T
    return left.rows.T @ right.rows


def _closed_form(norm_left, divisor_left, norm_right, divisor_right, cross_sq):
    """``(rpd, ratio, cosine)`` from each side's ``norm`` and ``divisor`` and ``‖cross‖²``.

    The one place the closed form is written. It uses numpy operations only, so
    it broadcasts over arrays of these inputs, and each element equals the
    call on that element's scalars bit for bit.
    """
    a, b = np.divide(norm_left, divisor_left), np.divide(norm_right, divisor_right)
    ratio = 0.5 * (a / b + b / a)
    # Scale-free, so it is taken on the prescaled blocks directly.
    cosine = np.divide(cross_sq, np.multiply(norm_left, norm_right))
    # Cauchy-Schwarz guarantees ratio >= cosine; clamp roundoff.
    return np.maximum(ratio - cosine, 0.0), ratio, cosine


def rpd_from_sides(
    left: GramSide, right: GramSide, cross: np.ndarray | None = None
) -> RpdReport:
    """RPD of two summarized sides; ``cross`` is ``left.rowsᵀ·right.rows`` if known.

    Without ``cross`` the result is the same bit for bit with the sides swapped.
    """
    if cross is None:
        cross = _cross(left, right)
    value, ratio, cosine = map(float, _closed_form(
        left.norm, left.divisor, right.norm, right.divisor, np.sum(cross * cross)))
    return RpdReport(rpd=value, ratio_term=ratio, cosine_term=cosine, n=left.rows.shape[0],
                     d_left=left.rows.shape[1], d_right=right.rows.shape[1])


def rpd(pair: AlignedPair) -> RpdReport:
    """RPD of an aligned pair, via the d-space Gram identities.

    Both sides are standardized to unit entry standard deviation (the
    metric's definition, a division of every entry by their root mean
    square). The rescaling is applied to the d-by-d statistics, through
    :func:`gram_side`; no standardized copy of either side is made.
    Dimensions may differ. The report is symmetric in the two sides bit for
    bit: swapping them swaps ``d_left`` and ``d_right`` and nothing else.

    Raises:
        DegenerateInputError: a side has zero variance (that side, ``left``
            or ``right``, named).
    """
    return rpd_from_sides(*_sides(pair))


def decompose_per_word(pair: AlignedPair) -> RpdReport:
    """RPD report with the per-word decomposition of the cosine term.

    Each word i contributes weight ``w_i = ||ĝ⁽¹⁾ᵢ|| ||ĝ⁽²⁾ᵢ|| / (a·b)`` and
    cosine ``cos θᵢ`` between its two Gram rows; the identity
    ``Σ w_i cos θᵢ = cosine_term`` holds exactly. Entries are sorted by
    ascending cosine, most divergent words first, ties by word. Words whose
    Gram row norm vanishes, such as all-zero padding rows, get
    ``cos_theta_i=None`` and weight 0, and sort last.

    Row i of E·Eᵀ is vᵢ·Eᵀ, so with the d-by-d blocks G₁₁ = E₁ᵀE₁,
    G₂₂ = E₂ᵀE₂ and G₁₂ = E₁ᵀE₂ no n-length row is ever formed:

        <g⁽¹⁾ᵢ, g⁽²⁾ᵢ> = v⁽¹⁾ᵢ G₁₂ v⁽²⁾ᵢᵀ
        ||g⁽¹⁾ᵢ||²     = v⁽¹⁾ᵢ G₁₁ v⁽¹⁾ᵢᵀ
    """
    left, right = _sides(pair)
    cross = _cross(left, right)
    report = rpd_from_sides(left, right, cross)
    # Weights and cosines are scale-free, so the prescaled blocks serve.
    dot, form_left, form_right = _per_row(left, right, cross)
    norm_prod = np.sqrt(form_left) * np.sqrt(form_right)
    weights = norm_prod / (left.norm * right.norm)
    defined = norm_prod != 0.0
    cosines = np.full(len(dot), np.inf)
    cosines[defined] = np.clip(dot[defined] / norm_prod[defined], -1.0, 1.0)

    vocab = pair.shared_vocab
    by_word = _word_order(vocab)
    order = by_word[np.argsort(cosines[by_word], kind="stable")]
    per_word = tuple(
        PerWordDivergence(vocab[i], cos if cos < np.inf else None, weight)
        for i, cos, weight in zip(
            order.tolist(), cosines[order].tolist(), weights[order].tolist()
        )
    )
    return replace(report, per_word=per_word)


def _per_row(left: GramSide, right: GramSide, cross: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per word, with rows u of ``left`` and w of ``right``: uᵀG₁₂w, uᵀG₁₁u and wᵀG₂₂w.

    ``cross`` is G₁₂ = ``left.rowsᵀ·right.rows``. The two quadratic forms are
    >= 0 exactly, so their roundoff is clamped at 0.
    """
    u, w = left.rows, right.rows
    return (np.sum((u @ cross) * w, axis=1),
            np.maximum(np.sum((u @ left.gram) * u, axis=1), 0.0),
            np.maximum(np.sum((w @ right.gram) * w, axis=1), 0.0))


@dataclass(frozen=True, eq=False)
class PairwiseRpd:
    """Symmetric RPD matrix over named embeddings, zero on the diagonal."""

    names: tuple[str, ...]
    values: np.ndarray

    def to_tsv(self) -> str:
        return _tsv(("name", *self.names),
                    ((name, *row) for name, row in zip(self.names, self.values)))


def rpd_pairwise_matrix(
    embs: Sequence[tuple[str, EmbeddingMatrix]],
    *,
    common_vocab: bool = False,
) -> PairwiseRpd:
    """All pairwise RPD values between named embeddings.

    By default each pair is compared on its own vocabulary intersection; with
    ``common_vocab=True`` every cell is compared on the global intersection.
    Either way the cells are grouped by the vocabulary they compare, and each
    embedding's side (``EᵀE`` over that vocabulary) is built once per group.
    When all pairs share one intersection, both modes give the same matrix
    from the same arithmetic. One group's sides are held at a time. A cell
    equals :func:`rpd` of the pair aligned in either order, bit for bit, so
    permuting the inputs permutes the matrix exactly.

    Raises:
        PreconditionError: fewer than 2 embeddings, or a name that repeats or
            holds whitespace (it would break the TSV).
        AlignmentError: an empty intersection, with the offending pair named.
        DegenerateInputError: a constant embedding, with its name.
    """
    if len(embs) < 2:
        raise PreconditionError("need at least 2 embeddings")
    names = tuple(name for name, _ in embs)
    _check_names(names, "embedding")
    matrices = [emb for _, emb in embs]
    k = len(matrices)
    values = np.zeros((k, k), dtype=np.float64)

    vocabs = [frozenset(m.vocab) for m in matrices]
    everyone = frozenset.intersection(*vocabs)
    if common_vocab and not everyone:
        raise AlignmentError("global vocabulary intersection is empty")
    # A frozenset caches its hash, so each key is hashed once, not per cell.
    groups: dict[frozenset[str], list[tuple[int, int]]] = {}
    for i in range(k):
        for j in range(i + 1, k):
            shared = everyone if common_vocab else vocabs[i] & vocabs[j]
            if not shared:
                raise AlignmentError(
                    f"{names[i]} vs {names[j]}: vocabularies have empty intersection")
            groups.setdefault(shared, []).append((i, j))

    for shared, cells in groups.items():
        words = sorted(shared)
        sides = {i: gram_side(_restricted_rows(matrices[i], words), names[i], owned=True)
                 for i in sorted({i for cell in cells for i in cell})}
        for i, j in cells:
            values[i, j] = values[j, i] = rpd_from_sides(sides[i], sides[j]).rpd
        del sides  # before the next group's sides are built
    return PairwiseRpd(names=names, values=values)
