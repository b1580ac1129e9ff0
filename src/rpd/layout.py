"""Planar layout of named points from a pairwise distance matrix.

Two anchor points are fixed (the first at the origin, the second on the
positive x-axis at their mutual distance); the first free point is placed by
circle intersection with nonnegative y, later points by least-squares
trilateration against everything already placed, and a fixed number of
backtracking gradient-descent steps on the squared distance residuals
polishes the configuration with the anchors held fixed.

The reported stress is sqrt(sum (realized - target)^2 / sum target^2), the
root-mean-square distance error relative to the root-mean-square target
distance; it is zero exactly when the input distances are realizable in the
plane and recovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError

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
    iteration (length iterations + 1, never increasing).
    """
    points = points.copy()
    f_current = _residual_objective(points, dist)
    history = [f_current]
    step = 1.0
    for _ in range(iterations):
        grad = _residual_gradient(points, dist, free)
        grad_sq = float(np.sum(grad * grad))
        if grad_sq == 0.0:
            history.append(f_current)
            continue
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
    fallback_used: bool = False

    def position(self, name: str) -> tuple[float, float]:
        i = self.names.index(name)
        return float(self.coords[i, 0]), float(self.coords[i, 1])

    def to_tsv(self) -> str:
        lines = ["name\tx\ty"]
        for name, (x, y) in zip(self.names, self.coords):
            lines.append("%s\t%.12g\t%.12g" % (name, x, y))
        lines.append("# stress\t%.12g" % self.stress)
        return "\n".join(lines) + "\n"


def _validate_distances(dist: np.ndarray, n: int) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
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


def layout_from_distances(
    dist: np.ndarray,
    names: list[str] | tuple[str, ...],
    anchor_a: str,
    anchor_b: str,
) -> LayoutMap:
    """Place points in 2D so pairwise distances approximate ``dist``.

    ``anchor_a`` sits at the origin and ``anchor_b`` on the positive x-axis;
    the remaining points are placed in input order (circle intersection for
    the first, least-squares trilateration afterwards) and then refined by
    ``REFINE_ITERATIONS`` descent steps. The mirror ambiguity is resolved by
    giving the first free point nonnegative y.

    Inconsistent distances never raise: an empty circle intersection falls
    back to the closest point on the anchor axis (``fallback_used`` is set)
    and the residual error is absorbed into the reported stress.
    """
    names = tuple(names)
    n = len(names)
    if n < 2:
        raise PreconditionError("need at least 2 points")
    if len(set(names)) != n:
        raise PreconditionError("point names must be unique")
    if anchor_a not in names or anchor_b not in names:
        raise PreconditionError("anchors must be among the point names")
    if anchor_a == anchor_b:
        raise PreconditionError("anchors must be distinct")
    dist = _validate_distances(dist, n)

    ia, ib = names.index(anchor_a), names.index(anchor_b)
    d_ab = dist[ia, ib]
    if d_ab <= 0.0:
        raise PreconditionError("anchor distance must be positive")

    coords = np.zeros((n, 2), dtype=np.float64)
    placed = [ia, ib]
    coords[ia] = (0.0, 0.0)
    coords[ib] = (d_ab, 0.0)
    fallback = False

    remaining = [i for i in range(n) if i not in (ia, ib)]
    for count, i in enumerate(remaining):
        if count == 0:
            # Circle intersection against the two anchors, nonnegative y.
            ra, rb = dist[i, ia], dist[i, ib]
            x = (ra * ra - rb * rb + d_ab * d_ab) / (2.0 * d_ab)
            y_sq = ra * ra - x * x
            if y_sq < 0.0:
                fallback = True
                y_sq = 0.0
            coords[i] = (x, np.sqrt(y_sq))
        else:
            # Linearized trilateration against all placed points.
            ref = placed[0]
            rows = []
            rhs = []
            for k in placed[1:]:
                rows.append(2.0 * (coords[k] - coords[ref]))
                rhs.append(
                    dist[i, ref] ** 2
                    - dist[i, k] ** 2
                    + np.sum(coords[k] ** 2)
                    - np.sum(coords[ref] ** 2)
                )
            solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
            coords[i] = solution
        placed.append(i)

    free = np.ones(n, dtype=bool)
    free[[ia, ib]] = False
    coords, _ = _refine(coords, dist, free, REFINE_ITERATIONS)

    realized = _pairwise(coords)[1]
    iu = np.triu_indices(n, k=1)
    target_sq = float(np.sum(dist[iu] ** 2))
    residual_sq = float(np.sum((realized[iu] - dist[iu]) ** 2))
    stress = float(np.sqrt(residual_sq / target_sq))

    return LayoutMap(names=names, coords=coords, stress=stress, fallback_used=fallback)
