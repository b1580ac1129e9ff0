"""Planar layout of named points from a pairwise distance matrix.

Classical-MDS start, anchored stress descent. The points are taken in name
order, so the layout does not depend on the order they are given in. The
start is Torgerson's classical MDS (the top two eigenpairs of the
double-centered squared distances), moved so that one anchor sits at the
origin and the other on the positive x-axis at their mutual distance. A fixed
number of backtracking gradient-descent steps on the squared distance
residuals then polishes the configuration with the anchors held fixed.

The reported stress is sqrt(sum (realized - target)^2 / sum target^2), the
root-mean-square distance error relative to the root-mean-square target
distance; it is zero exactly when the input distances are realizable in the
plane and recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .store import _check_names, _real, _tsv, _word_tuple

__all__ = [
    "LayoutMap",
    "layout_from_distances",
]

REFINE_ITERATIONS = 500
_BACKTRACK_LIMIT = 60
_ARMIJO = 1e-4


def _pairwise(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The differences ``points[i] - points[j]`` and their lengths, for all i, j."""
    delta = points[:, None, :] - points[None, :, :]
    return delta, np.sqrt(np.sum(delta * delta, axis=2))


def _residual_objective(points: np.ndarray, dist: np.ndarray) -> float:
    res = _pairwise(points)[1] - dist
    return 0.5 * float(np.sum(res * res))  # each pair counted twice


def _residual_gradient(points: np.ndarray, dist: np.ndarray, free: np.ndarray) -> np.ndarray:
    delta, realized = _pairwise(points)
    with np.errstate(invalid="ignore", divide="ignore"):
        coeff = np.where(realized > 0.0, (realized - dist) / realized, 0.0)
    np.fill_diagonal(coeff, 0.0)
    grad = 2.0 * np.sum(coeff[:, :, None] * delta, axis=1)
    grad[~free] = 0.0
    return grad


def _refine(
    points: np.ndarray,
    dist: np.ndarray,
    free: np.ndarray,
    iterations: int,
) -> tuple[np.ndarray, list[float]]:
    """Monotone descent on the residual objective; anchors stay fixed.

    Returns the refined points and the objective value after every
    iteration (never increasing). A zero gradient is a fixed point, so the
    descent stops there: the history holds at most iterations + 1 values.
    """
    points = points.copy()
    f_current = _residual_objective(points, dist)
    history = [f_current]
    step = 1.0
    for _ in range(iterations):
        grad = _residual_gradient(points, dist, free)
        grad_sq = float(np.sum(grad * grad))
        if grad_sq == 0.0:
            break
        t = step
        moved = False
        for _ in range(_BACKTRACK_LIMIT):
            candidate = points - t * grad
            f_new = _residual_objective(candidate, dist)
            if f_new <= f_current - _ARMIJO * t * grad_sq:
                points = candidate
                f_current = f_new
                step = t * 2.0
                moved = True
                break
            t *= 0.5
        if not moved:
            step = max(step * 0.5, np.finfo(float).tiny)
        history.append(f_current)
    return points, history


@dataclass(frozen=True, eq=False)
class LayoutMap:
    """Planar coordinates for named points, with their residual stress."""

    names: tuple[str, ...]
    coords: np.ndarray
    stress: float

    def position(self, name: str) -> tuple[float, float]:
        """The coordinates of point ``name``.

        Raises:
            PreconditionError: no point has that name.
        """
        try:
            i = self.names.index(name)
        except ValueError:
            raise PreconditionError(f"no point named {name!r}") from None
        return float(self.coords[i, 0]), float(self.coords[i, 1])

    def to_tsv(self) -> str:
        return _tsv(("name", "x", "y"),
                    ((name, *xy) for name, xy in zip(self.names, self.coords)),
                    [("stress", self.stress)])


def _validate_distances(dist: np.ndarray, n: int) -> np.ndarray:
    dist = np.asarray(_real(dist, "distance matrix"), dtype=np.float64)
    if dist.shape != (n, n):
        raise DimensionError(f"distance matrix must be {n}x{n}, got {dist.shape}")
    if not np.all(np.isfinite(dist)):
        raise PreconditionError("distance matrix has non-finite entries")
    if np.any(dist < 0):
        raise PreconditionError("distances must be nonnegative")
    if np.any(np.abs(np.diag(dist)) > 0):
        raise PreconditionError("distance matrix diagonal must be zero")
    if not np.allclose(dist, dist.T, rtol=0, atol=1e-9):
        raise PreconditionError("distance matrix must be symmetric")
    return (dist + dist.T) / 2.0


def _check_anchors(names: tuple[str, ...], anchor_a: str, anchor_b: str) -> None:
    """Require two distinct anchors among ``names``."""
    for anchor in (anchor_a, anchor_b):
        if anchor not in names:
            raise PreconditionError(f"anchor {anchor!r} is not among the point names")
    if anchor_a == anchor_b:
        raise PreconditionError("anchors must be distinct")


def _start(dist: np.ndarray, ia: int, ib: int) -> np.ndarray:
    """Classical-MDS coordinates, framed with ``ia`` at the origin and ``ib`` on +x.

    The top two eigenpairs of ``-½·J·D²·J``, negative eigenvalues clamped at
    0; the two anchors are then set exactly to ``(0, 0)`` and ``(d_ab, 0)``.
    """
    n = len(dist)
    centering = np.eye(n) - 1.0 / n
    eigenvalues, eigenvectors = np.linalg.eigh(-0.5 * centering @ (dist * dist) @ centering)
    coords = eigenvectors[:, -1:-3:-1] * np.sqrt(np.maximum(eigenvalues[-1:-3:-1], 0.0))
    coords -= coords[ia]
    radius = float(np.hypot(*coords[ib]))
    if radius > 0.0:
        cos, sin = coords[ib] / radius
        coords = coords @ np.array([[cos, -sin], [sin, cos]])
    coords[ia] = (0.0, 0.0)
    coords[ib] = (dist[ia, ib], 0.0)
    return coords


def layout_from_distances(
    dist: np.ndarray,
    names: list[str] | tuple[str, ...],
    anchor_a: str,
    anchor_b: str,
) -> LayoutMap:
    """Place points in 2D so pairwise distances approximate ``dist``.

    ``anchor_a`` sits at the origin and ``anchor_b`` on the positive x-axis at
    their input distance. The points are laid out in name order from a
    classical-MDS start, refined by ``REFINE_ITERATIONS`` descent steps with
    the anchors fixed, and the mirror ambiguity is resolved by giving the
    first free point in name order nonnegative y. Each point's coordinates
    are therefore the same, bit for bit, whatever the input order.

    Inconsistent distances never raise; the residual error is absorbed into
    the reported stress.
    """
    names = _word_tuple(names, "point names")
    n = len(names)
    if n < 2:
        raise PreconditionError("need at least 2 points")
    _check_names(names, "point")
    _check_anchors(names, anchor_a, anchor_b)
    dist = _validate_distances(dist, n)

    order = sorted(range(n), key=names.__getitem__)
    dist = dist[np.ix_(order, order)]
    ia, ib = (sorted(names).index(anchor) for anchor in (anchor_a, anchor_b))
    if dist[ia, ib] <= 0.0:
        raise PreconditionError("anchor distance must be positive")

    free = np.ones(n, dtype=bool)
    free[[ia, ib]] = False
    coords, _ = _refine(_start(dist, ia, ib), dist, free, REFINE_ITERATIONS)
    if free.any() and coords[free][0, 1] < 0.0:
        coords[free, 1] *= -1.0
    coords += 0.0  # -0.0 + 0.0 is +0.0, so no coordinate prints as -0

    realized = _pairwise(coords)[1]
    iu = np.triu_indices(n, k=1)
    target_sq = float(np.sum(dist[iu] ** 2))
    residual_sq = float(np.sum((realized[iu] - dist[iu]) ** 2))
    stress = float(np.sqrt(residual_sq / target_sq))

    in_input_order = np.empty_like(coords)
    in_input_order[order] = coords
    return LayoutMap(names=names, coords=in_input_order, stress=stress)
