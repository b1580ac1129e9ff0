import warnings

import numpy as np
import pytest

from rpd import DimensionError, PreconditionError, layout_from_distances
from rpd import layout
from rpd.layout import _refine, _start


def pairwise(points):
    points = np.asarray(points, dtype=np.float64)
    delta = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=2))


class TestLayoutRecovery:
    def test_equilateral_triangle(self):
        dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        result = layout_from_distances(dist, ["a", "b", "c"], "a", "b")
        np.testing.assert_allclose(result.position("a"), (0.0, 0.0), atol=1e-9)
        np.testing.assert_allclose(result.position("b"), (1.0, 0.0), atol=1e-9)
        np.testing.assert_allclose(
            result.position("c"), (0.5, np.sqrt(3) / 2), atol=1e-9
        )
        realized = pairwise(result.coords)
        np.testing.assert_allclose(realized, dist, atol=1e-9)
        assert result.stress < 1e-9

    def test_four_planar_points(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((4, 2)) * 2.0
        dist = pairwise(points)
        names = ["p0", "p1", "p2", "p3"]
        result = layout_from_distances(dist, names, "p0", "p1")
        realized = pairwise(result.coords)
        np.testing.assert_allclose(realized, dist, atol=1e-6)
        assert result.stress < 1e-6

    def test_five_points_from_4d_not_embeddable(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((5, 4))
        dist = pairwise(points)
        result = layout_from_distances(dist, list("abcde"), "a", "b")
        assert np.isfinite(result.stress)
        assert result.stress > 0.0

    def test_two_points_trivial(self):
        dist = np.array([[0.0, 2.5], [2.5, 0.0]])
        result = layout_from_distances(dist, ["x", "y"], "x", "y")
        np.testing.assert_allclose(result.position("y"), (2.5, 0.0), atol=0)
        assert result.stress == 0.0

    def test_anchor_distance_exact(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((6, 2))
        dist = pairwise(points)
        names = [f"n{i}" for i in range(6)]
        result = layout_from_distances(dist, names, "n2", "n4")
        np.testing.assert_allclose(result.position("n2"), (0.0, 0.0), atol=0)
        x, y = result.position("n4")
        assert y == 0.0
        assert x == dist[2, 4]

    def test_mirror_resolved_nonnegative_y(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((4, 2))
        dist = pairwise(points)
        result = layout_from_distances(dist, list("abcd"), "a", "b")
        # first free point is "c"; its y must be nonnegative
        assert result.position("c")[1] >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((5, 3))
        dist = pairwise(points)
        r1 = layout_from_distances(dist, list("abcde"), "a", "b")
        r2 = layout_from_distances(dist, list("abcde"), "a", "b")
        np.testing.assert_array_equal(r1.coords, r2.coords)
        assert r1.stress == r2.stress

    def test_inconsistent_distances_finite_stress(self):
        # Triangle inequality violated: no planar layout fits.
        dist = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        result = layout_from_distances(dist, ["a", "b", "c"], "a", "b")
        assert np.isfinite(result.stress)
        assert 0.0 < result.stress < 1.0
        assert result.position("b") == (10.0, 0.0)

    def test_coincident_points(self):
        # Points on a line, two pairs of them at distance 0.
        points = np.array([[1.0, 0.0], [-2.0, 0.0], [5.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        dist = pairwise(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = layout_from_distances(dist, list("abcde"), "a", "c")
        np.testing.assert_allclose(pairwise(result.coords), dist, atol=1e-6)
        assert result.position("a") == (0.0, 0.0)
        assert result.position("c") == (4.0, 0.0)
        assert "-0\t" not in result.to_tsv() and "-0\n" not in result.to_tsv()

    def test_unknown_point_named(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = layout_from_distances(dist, ["a", "b"], "a", "b")
        with pytest.raises(PreconditionError, match="no point named 'z'"):
            result.position("z")


def anchors_off_the_plane():
    # The free points span the plane of the two largest (tied) CMDS
    # eigenvalues; the anchors differ only along the third axis.
    points = np.array([[0, 0, 1], [0, 0, -1], [5, 5, 0], [5, -5, 0], [-5, 5, 0],
                       [-5, -5, 0]], dtype=float)
    return pairwise(points)


ORDER_FIXTURES = {
    "four_planar": lambda: pairwise(np.random.default_rng(3).standard_normal((4, 2)) * 2.0),
    "five_from_4d": lambda: pairwise(np.random.default_rng(4).standard_normal((5, 4))),
    "six_planar": lambda: pairwise(np.random.default_rng(5).standard_normal((6, 2))),
    "regular_simplex": lambda: 1.0 - np.eye(5),
    "anchors_off_the_plane": anchors_off_the_plane,
}


class TestOrderFree:
    @pytest.mark.parametrize("fixture", sorted(ORDER_FIXTURES))
    def test_same_layout_for_every_input_order(self, fixture):
        dist = ORDER_FIXTURES[fixture]()
        n = len(dist)
        names = [f"p{i}" for i in range(n)]
        base = layout_from_distances(dist, names, "p0", "p1")
        assert base.position("p0") == (0.0, 0.0)
        assert base.position("p1") == (dist[0, 1], 0.0)
        assert np.isfinite(base.stress)
        rng = np.random.default_rng(11)
        for _ in range(6):
            perm = rng.permutation(n)
            result = layout_from_distances(
                dist[np.ix_(perm, perm)], [names[i] for i in perm], "p0", "p1")
            for name in names:
                assert result.position(name) == base.position(name)
            assert result.stress == base.stress


class TestRefinement:
    def test_stress_never_increases(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((6, 4))
        dist = pairwise(points)
        free = np.ones(6, dtype=bool)
        free[:2] = False
        _, history = _refine(_start(dist, 0, 1), dist, free, iterations=200)
        diffs = np.diff(history)
        assert np.all(diffs <= 0.0)

    def test_stops_at_a_zero_gradient(self):
        # Two anchors and no free point: the first gradient is zero, and so is every later one.
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        refined, history = _refine(points, dist, np.zeros(2, dtype=bool), iterations=500)
        np.testing.assert_array_equal(refined, points)
        assert history == [0.0]

    def test_step_shrinks_when_no_step_is_accepted(self, monkeypatch):
        # With no backtracking allowed, no candidate is tried, so every iteration
        # halves the step and leaves the points and the objective as they were.
        monkeypatch.setattr(layout, "_BACKTRACK_LIMIT", 0)
        rng = np.random.default_rng(10)
        dist = pairwise(rng.standard_normal((4, 2)))
        start = rng.standard_normal((4, 2))
        free = np.array([False, False, True, True])
        refined, history = _refine(start, dist, free, iterations=5)
        np.testing.assert_array_equal(refined, start)
        assert history[0] > 0.0 and history == [history[0]] * 6

    def test_anchors_do_not_move(self):
        rng = np.random.default_rng(9)
        dist = pairwise(rng.standard_normal((5, 2)))
        start = rng.standard_normal((5, 2))
        free = np.ones(5, dtype=bool)
        free[[0, 3]] = False
        refined, _ = _refine(start, dist, free, iterations=50)
        np.testing.assert_array_equal(refined[0], start[0])
        np.testing.assert_array_equal(refined[3], start[3])


class TestValidation:
    def test_needs_two_points(self):
        with pytest.raises(PreconditionError):
            layout_from_distances(np.zeros((1, 1)), ["a"], "a", "a")

    def test_anchor_names_checked(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError, match="anchor 'z' is not among the point names"):
            layout_from_distances(dist, ["a", "b"], "a", "z")
        with pytest.raises(PreconditionError):
            layout_from_distances(dist, ["a", "b"], "a", "a")

    def test_names_must_be_words(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError,
                           match="point name must be a word without whitespace, got 'a b'"):
            layout_from_distances(dist, ["a b", "c"], "a b", "c")

    def test_zero_anchor_distance(self):
        dist = np.zeros((2, 2))
        with pytest.raises(PreconditionError):
            layout_from_distances(dist, ["a", "b"], "a", "b")

    def test_asymmetric_rejected(self):
        dist = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(PreconditionError):
            layout_from_distances(dist, ["a", "b"], "a", "b")

    @pytest.mark.parametrize("cell, message", [
        ((0, 1, np.nan), "distance matrix has non-finite entries"),
        ((0, 1, np.inf), "distance matrix has non-finite entries"),
        ((0, 1, -1.0), "distances must be nonnegative"),
        ((1, 1, 0.5), "distance matrix diagonal must be zero"),
    ])
    def test_bad_distances_rejected(self, cell, message):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        i, j, value = cell
        dist[i, j] = dist[j, i] = value
        with pytest.raises(PreconditionError) as exc:
            layout_from_distances(dist, ["a", "b"], "a", "b")
        assert str(exc.value) == message

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            layout_from_distances(np.zeros((2, 3)), ["a", "b"], "a", "b")

    @pytest.mark.parametrize("dist, message", [
        # numpy's float64 cast keeps 1.0 of 1+1j, with only a ComplexWarning.
        (np.array([[0, 1 + 1j], [1 + 1j, 0]]),
         "distance matrix must hold real numbers, got dtype complex128"),
        ([["0", "1"], ["1", "0"]],
         f"distance matrix must hold real numbers, got dtype {np.dtype('U1')}"),
        ([[0.0, 1.0], [1.0]], "distance matrix must be rectangular, not ragged sequences"),
    ], ids=["complex", "str", "ragged"])
    def test_non_real_distances_rejected(self, dist, message):
        with pytest.raises(PreconditionError) as exc:
            layout_from_distances(dist, ["a", "b"], "a", "b")
        assert str(exc.value) == message

    def test_integer_distances_accepted(self):
        result = layout_from_distances([[0, 2], [2, 0]], ["a", "b"], "a", "b")
        assert result.position("b") == (2.0, 0.0)

    def test_str_names_rejected(self):
        # A str would be taken as the sequence of its characters.
        with pytest.raises(PreconditionError) as exc:
            layout_from_distances(np.array([[0.0, 1.0], [1.0, 0.0]]), "ab", "a", "b")
        assert str(exc.value) == "point names must be a sequence of words, not a str"

    def test_tsv_format(self):
        dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        result = layout_from_distances(dist, ["a", "b", "c"], "a", "b")
        lines = result.to_tsv().strip().split("\n")
        assert lines[0] == "name\tx\ty"
        assert lines[-1].startswith("# stress\t")
        assert len(lines) == 5
