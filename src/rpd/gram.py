"""Frobenius statistics of Gram matrices E·Eᵀ without forming them.

Every distance-type result reads from :class:`GramSide`, one summary per
aligned side: its rows, ``G = EᵀE`` and the scalar that standardization
divides G by. Every distance is of standardized inputs. The n-by-n Gram
matrices enter only through two trace identities,

    ||E Eᵀ||_F²          = ||Eᵀ E||_F²
    <E₁E₁ᵀ, E₂E₂ᵀ>_F     = ||E₁ᵀ E₂||_F²

so the cost is O(n·d²) time and O(d²) extra space. Standardizing E to unit
mean square entry only rescales G by ``s² = tr(G)/(n·d)``, so no
standardized n-by-d copy is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .store import _unit_exponent


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


def gram_side(matrix: np.ndarray, *, owned: bool = False) -> GramSide:
    """Summarize an aligned side; ``owned=True`` lets the prescale reuse ``matrix``.

    Raises:
        DegenerateInputError: a constant matrix (zero standard deviation),
            as :func:`rpd.store.standardize` raises.
    """
    high, low = float(matrix.max()), float(matrix.min())
    if high == low:
        raise DegenerateInputError("matrix is constant: zero standard deviation")
    exponent = _unit_exponent(high, low)
    rows = matrix
    if exponent:
        rows = np.ldexp(matrix, exponent, out=matrix if owned else None)
    gram = rows.T @ rows
    n, d = rows.shape
    divisor = float(np.trace(gram)) / (n * d)
    return GramSide(rows, gram, float(np.sqrt(np.sum(gram * gram))), divisor)
