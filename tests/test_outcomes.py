import numpy as np
import pytest

from povmkit.outcomes import (
    CIRCLE,
    SPHERE,
    TWO_PI,
    Cap,
    FiniteLabels,
    Region,
    normalize_angle,
    unit_vector,
)


def test_normalize_angle_range():
    phi = normalize_angle(np.array([-0.1, 0.0, TWO_PI, 7.0, -9.0]))
    assert np.all(phi >= 0) and np.all(phi < TWO_PI)


def test_normalize_angle_fast_path_is_mod():
    # angles in [0, 4pi) take one exact subtraction in place of np.mod: the
    # same bits, -0.0 as +0.0 and 2pi itself as 0
    rng = np.random.default_rng(5)
    edges = [-0.0, 0.0, 5e-324, np.pi, TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(TWO_PI, 7.0),
             3 * np.pi, np.nextafter(2 * TWO_PI, 0.0)]
    phi = np.concatenate([edges, rng.uniform(0.0, 2 * TWO_PI, 10000),
                          TWO_PI + rng.uniform(0.0, 1e-12, 100)])
    assert normalize_angle(phi).tobytes() == np.mod(phi, TWO_PI).tobytes()
    for x in edges:
        got = normalize_angle(x)
        assert got.shape == () and got.tobytes() == np.mod(np.float64(x), TWO_PI).tobytes()
    assert not np.signbit(normalize_angle(-0.0)) and normalize_angle(TWO_PI) == 0.0
    # one angle outside [0, 4pi) sends them all through np.mod
    wide = np.append(phi, [-1.0, 2 * TWO_PI, 40.0])
    assert normalize_angle(wide).tobytes() == np.mod(wide, TWO_PI).tobytes()


def test_unit_vector_rejects_bad_norm():
    with pytest.raises(ValueError):
        unit_vector([1.0, 0.0, 0.01])
    v = unit_vector([1.0 + 5e-7, 0.0, 0.0])
    assert np.isclose(np.linalg.norm(v), 1.0)


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [[0.0, 0.0, 1.0], [0.0, np.inf, 0.0]]])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="NaN or Inf"):
        unit_vector(bad)


def test_cap_rejects_nan_axis():
    with pytest.raises(ValueError, match="NaN or Inf"):
        Cap((np.nan, 0.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="NaN or Inf"):
        Region.of_caps([((0.0, np.nan, 1.0), 1.0)])


class TestArcs:
    def test_wraparound_split(self):
        r = Region.of_arcs([(5.5, TWO_PI + 1.2)])
        assert len(r.arcs) == 2
        (a0, b0), (a1, b1) = r.arcs
        assert a0 == 0.0 and np.isclose(b0, 1.2)
        assert a1 == 5.5 and b1 == TWO_PI
        inside = r.contains(np.array([5.6, 0.5, 3.0]))
        assert inside.tolist() == [True, True, False]

    def test_half_open_membership(self):
        r = Region.of_arcs([(0.0, np.pi)])
        inside = r.contains(np.array([0.0, np.pi - 1e-12, np.pi]))
        assert inside.tolist() == [True, True, False]

    def test_merge_overlaps(self):
        r = Region.of_arcs([(0.0, 1.0), (0.5, 2.0)])
        assert r.arcs == ((0.0, 2.0),)

    def test_full_circle(self):
        r = Region.of_arcs([(0.3, 0.3 + TWO_PI)])
        assert r.arcs == ((0.0, TWO_PI),)
        assert r.contains(np.array([0.0, 3.0, 6.28])).all()

    @pytest.mark.parametrize("arc", [
        (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0), (np.inf, np.inf),
    ])
    def test_rejects_non_finite_endpoints(self, arc):
        # an infinite arc would otherwise read as the full circle
        with pytest.raises(ValueError, match="finite"):
            Region.of_arcs([(0.5, 2.0), arc])


class TestCaps:
    def test_closed_boundary(self):
        angle = 1.0
        r = Region.of_caps([((0, 0, 1.0), angle)])
        boundary = np.array([[np.sin(angle), 0.0, np.cos(angle)]])
        assert r.contains(boundary)[0]  # closed cap keeps its boundary circle
        outside = np.array([[np.sin(angle + 1e-9), 0.0, np.cos(angle + 1e-9)]])
        assert not r.contains(outside)[0]

    def test_complement(self):
        band = Region.of_caps(
            [((0, 0, 1.0), np.pi / 4), ((0, 0, -1.0), np.pi / 4)], complement=True
        )
        pts = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, -1.0]])
        assert band.contains(pts).tolist() == [False, True, False]

    def test_disjointness_detection(self):
        touching = Region.of_caps(
            [((0, 0, 1.0), np.pi / 3), ((0, 0, -1.0), np.pi / 3)]
        )
        assert touching.caps_pairwise_disjoint()
        overlapping = Region.of_caps(
            [((0, 0, 1.0), np.pi / 2), ((1.0, 0, 0), np.pi / 2)]
        )
        assert not overlapping.caps_pairwise_disjoint()

    def test_angle_bounds(self):
        with pytest.raises(ValueError):
            Cap((0, 0, 1.0), -0.1)
        with pytest.raises(ValueError):
            Cap((0, 0, 1.0), np.pi + 0.1)


class TestLabels:
    def test_membership_and_bounds(self):
        space = FiniteLabels(4)
        r = Region.of_labels(space, [0, 2])
        assert r.contains(np.array([0, 1, 2, 3])).tolist() == [True, False, True, False]
        with pytest.raises(ValueError):
            Region.of_labels(space, [4])


def test_full_regions_cover():
    assert Region.full(FiniteLabels(3)).contains(np.arange(3)).all()
    assert Region.full(CIRCLE).contains(np.array([0.0, 3.0])).all()
    pts = np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]])
    assert Region.full(SPHERE).contains(pts).all()
