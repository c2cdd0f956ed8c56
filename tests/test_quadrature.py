import sys
import threading

import numpy as np
import pytest

import oracles
import povmkit as pk
from povmkit import quadrature as quad
from povmkit.outcomes import Region

ORDERS = (1, 2, 12, 16, 24, 64)
ULP2 = 2 * np.finfo(float).eps  # 4.4e-16


class TestReferenceRule:
    @pytest.mark.parametrize("n", ORDERS)
    def test_cached_rule_is_read_only_and_equals_leggauss(self, n):
        x, w = quad.frozen_rule(np.polynomial.legendre.leggauss, n)
        assert not x.flags.writeable and not w.flags.writeable
        fresh = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == fresh[0].tobytes()
        assert w.tobytes() == fresh[1].tobytes()
        again = quad.frozen_rule(np.polynomial.legendre.leggauss, n)
        assert again[0] is x and again[1] is w

    @pytest.mark.parametrize("n", ORDERS)
    def test_mapped_rule_is_fresh_and_exact(self, n):
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        # the uncached mapping, bit for bit
        expected = (0.5 + 0.75 * (ref_x + 1.0)).tobytes(), (0.75 * ref_w).tobytes()
        x, w = quad.gauss_legendre(n, 0.5, 2.0)
        assert (x.tobytes(), w.tobytes()) == expected
        x[:] = w[:] = 0.0
        x, w = quad.gauss_legendre(n, 0.5, 2.0)
        assert (x.tobytes(), w.tobytes()) == expected

    @pytest.mark.parametrize("name, budget", [("spin", None), ("phase:3", None),
                                              ("phase:8", None)])
    def test_det_equivalence_builds_each_order_once(self, name, budget, monkeypatch):
        orders = []
        leggauss = np.polynomial.legendre.leggauss

        def counted_leggauss(n):
            orders.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted_leggauss)
        c, s = pk.named_family(name)
        rng = np.random.default_rng(8)
        states = [pk.random_density_matrix(rng, c.dim) for _ in range(3)]
        if name == "spin":
            regions = [Region.of_caps([((0.6, 0.0, 0.8), 1.0)]),
                       Region.of_caps([((0.0, 0.0, 1.0), 0.7), ((0.0, -0.6, -0.8), 0.9)]),
                       Region.of_caps([((0.48, 0.6, -0.64), 1.2)], complement=True)]
        else:
            regions = [Region.of_arcs([(0.3, 2.2)]),
                       Region.of_arcs([(-1.0, 0.4), (2.5, 3.1)]),
                       Region.of_arcs([(0.1, 0.9), (1.7, 2.0), (5.5, 6.6)])]
        pk.verify_scheme_equivalence(c, s, states, regions, mode="det", budget=budget)
        assert orders and sorted(orders) == sorted(set(orders))


def band_nodes_reference(axis, u_lo, n_u, n_phi):
    """One cap's nodes and weights, built alone: the cap rule as it was
    before every cap of a region was built in one map."""
    x, w = np.polynomial.legendre.leggauss(n_u)
    half = 0.5 * (1.0 - u_lo)
    u, wu = u_lo + half * (x + 1.0), half * w
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    pts = np.column_stack([np.outer(su, np.cos(phi)).ravel(), np.outer(su, np.sin(phi)).ravel(),
                           np.outer(u, np.ones(n_phi)).ravel()])
    return pts @ quad.rotation_to(axis).T, np.outer(wu, np.full(n_phi, 2 * np.pi / n_phi)).ravel()


LEGGAUSS_64 = np.polynomial.legendre.leggauss(64)


def arc_nodes_reference(a, b):
    """One arc's 64 Gauss-Legendre nodes and weights, mapped alone."""
    x, w = LEGGAUSS_64
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def piecewise_reference(f, rules):
    """``f`` once on every piece's nodes, then one ``tensordot`` per piece,
    added in piece order."""
    values = np.asarray(f(np.concatenate([x for x, _ in rules])))
    total, start = 0.0, 0
    for _, w in rules:
        total = total + np.tensordot(w, values[start : start + len(w)], axes=(0, 0))
        start += len(w)
    return total


def random_caps(rng, count):
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return tuple(pk.Cap(tuple(a), float(rng.uniform(0.0, np.pi))) for a in axes)


class TestBatchedPieces:
    """Every piece of a region mapped together gives the bits of pieces
    built one at a time and summed by ``tensordot``."""

    def test_sphere_nodes_are_the_whole_sphere_cap(self):
        for n_u, n_phi in [(1, 2), (2, 3), (4, 9), (64, 128)]:
            got, ref = quad.sphere_nodes(n_u, n_phi), band_nodes_reference((0.0, 0.0, 1.0), -1.0,
                                                                          n_u, n_phi)
            assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    @pytest.mark.parametrize("degree", [1, 2, 5, 8])
    def test_caps(self, degree):
        rng = np.random.default_rng([90, degree])
        grid = (degree + 2) // 2, degree + 1
        for _ in range(250):
            caps = random_caps(rng, int(rng.integers(1, 4)))
            v = rng.normal(size=3)

            def f(p):
                return np.cos(p @ v) + p[:, 2] ** 2

            ref = piecewise_reference(
                f, [band_nodes_reference(c.axis, float(np.cos(c.angle)), *grid) for c in caps])
            assert np.float64(quad.integrate_sphere_region(f, caps, degree)).tobytes() == \
                np.float64(ref).tobytes()

    def test_arcs(self):
        rng = np.random.default_rng(91)
        for _ in range(1000):
            arcs = np.sort(rng.uniform(0.0, 2 * np.pi, 2 * int(rng.integers(1, 5)))).reshape(-1, 2)
            arcs = tuple((float(a), float(b)) for a, b in arcs)
            k = rng.normal(size=3)

            def f(x):
                return k[0] + k[1] * np.cos(x) + k[2] * np.sin(3 * x)

            ref = piecewise_reference(f, [arc_nodes_reference(a, b) for a, b in arcs])
            assert np.float64(quad.integrate_intervals(f, arcs)).tobytes() == \
                np.float64(ref).tobytes()

    def test_no_pieces(self):
        assert quad.integrate_sphere_region(pytest.fail, (), 1) == 0.0
        assert quad.integrate_intervals(pytest.fail, ()) == 0.0


def test_rules_are_shared_safely_across_threads(monkeypatch):
    # a fresh cache key, so that the threads race to build every rule
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: leggauss(n))
    expected = {n: (0.5 + 0.75 * (x + 1.0), 0.75 * w)
                for n, (x, w) in ((n, leggauss(n)) for n in ORDERS)}
    wrong = []

    def work():
        for _ in range(20):
            for n, (ex, ew) in expected.items():
                x, w = quad.gauss_legendre(n, 0.5, 2.0)
                if x.tobytes() != ex.tobytes() or w.tobytes() != ew.tobytes():
                    wrong.append(n)
                x[:] = w[:] = 0.0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def near_pole_axes():
    for k in (3, 5, 7, 8, 10, 15, 20, 50, 100, 150, 154, 155, 160, 198):
        t = 10.0**-k
        for sign in (1.0, -1.0):
            yield np.array([t, 0.0, sign * np.sqrt(1.0 - t * t)])


class TestRotationTo:
    AXES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.48, 0.6, -0.64), (1.0, 0.0, 0.0),
            (0.0, -0.6, 0.8)]

    def test_maps_z_to_axis(self):
        # an axis 1e-7 rad from a pole was taken to be the pole itself
        for axis in [np.array(a) for a in self.AXES] + list(near_pole_axes()):
            rot = quad.rotation_to(axis)
            assert np.abs(rot @ np.array([0.0, 0.0, 1.0]) - axis).max() <= ULP2
            assert np.abs(rot @ rot.T - np.eye(3)).max() <= ULP2
            assert abs(np.linalg.det(rot) - 1.0) <= ULP2

    def test_matches_cross_product_oracle(self):
        # stdlib floats for the cosine and z x axis give the matrix of the
        # np.cross formulation
        rng = np.random.default_rng(17)
        random_axes = rng.normal(size=(200, 3))
        random_axes /= np.linalg.norm(random_axes, axis=1, keepdims=True)
        axes = [np.array(a) for a in self.AXES] + list(near_pole_axes()) + list(random_axes)
        for axis in axes:
            for given in (axis, tuple(axis.tolist())):
                rot = quad.rotation_to(given)
                assert np.abs(rot - oracles.rodrigues_rotation(axis)).max() <= ULP2

    @pytest.mark.parametrize("t", [1e-7, 1e-6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_pole_cap_equivalence(self, t, sign):
        c, s = pk.named_family("spin")
        rng = np.random.default_rng(21)
        states = [pk.random_density_matrix(rng, 2) for _ in range(3)]
        region = Region.of_caps([((t, 0.0, sign), 1.0)])
        report = pk.verify_scheme_equivalence(c, s, states, [region], mode="det")
        assert report.max_abs_diff <= 1e-15
