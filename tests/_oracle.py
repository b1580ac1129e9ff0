"""The slow paths the d-space identities are tested against.

``naive_gram_oracle`` materializes the n-by-n Gram matrices, and
``standardize`` builds the standardized n-by-d copy the metric never makes.
"""

from dataclasses import dataclass

import numpy as np

from rpd import DegenerateInputError, DimensionError, EmbeddingMatrix, PreconditionError
from rpd.metric import _unit_exponent

NAIVE_GUARD_LIMIT = 2000


@dataclass(frozen=True)
class GramOracleResult:
    norm_a: float
    norm_b: float
    inner: float


def naive_gram_oracle(a: EmbeddingMatrix, b: EmbeddingMatrix) -> GramOracleResult:
    """Direct computation from materialized n-by-n Gram matrices.

    Test oracle only: refuses n > NAIVE_GUARD_LIMIT to prevent accidental
    multi-gigabyte allocations.
    """
    if a.n != b.n:
        raise DimensionError(f"row counts differ: {a.n} vs {b.n}")
    if a.n > NAIVE_GUARD_LIMIT:
        raise PreconditionError(
            f"naive oracle refuses n={a.n} > {NAIVE_GUARD_LIMIT}"
        )
    ga = a.matrix @ a.matrix.T
    gb = b.matrix @ b.matrix.T
    return GramOracleResult(
        norm_a=float(np.linalg.norm(ga)),
        norm_b=float(np.linalg.norm(gb)),
        inner=float(np.sum(ga * gb)),
    )


def standardize(emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """Rescale so the entries have unit root-mean-square magnitude.

    Every entry is divided by one scalar, the entrywise second moment about
    zero (the population standard deviation of the zero-mean entry model; no
    mean is subtracted). The pure rescaling is idempotent, invariant to prior
    nonzero scaling, and, because the scalar depends only on the Frobenius
    norm, exactly invariant under rotation of the matrix. The latter is what
    keeps the distance metric's unitary invariance at machine precision.
    The entries are scaled by a power of two (exact) before they are squared,
    so finite inputs of any magnitude neither overflow nor underflow.

    Raises:
        DegenerateInputError: fewer than two entries, or a constant matrix
            (zero standard deviation).
    """
    if emb.matrix.size < 2:
        raise DegenerateInputError("standardize needs at least 2 entries")
    high, low = float(emb.matrix.max()), float(emb.matrix.min())
    if high == low:
        raise DegenerateInputError("matrix is constant: zero standard deviation")
    rows = np.ldexp(emb.matrix, _unit_exponent(high, low))
    rows /= np.sqrt(np.mean(rows * rows))
    return EmbeddingMatrix(emb.vocab, rows)
