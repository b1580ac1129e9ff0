"""The naive n-by-n Gram oracle the d-space identities are tested against."""

from dataclasses import dataclass

import numpy as np

from rpd import DimensionError, EmbeddingMatrix, PreconditionError

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
