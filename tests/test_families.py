import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import povmkit as pk
from povmkit import families
from povmkit import operators as op
from povmkit.errors import InvalidDimension
from povmkit.families import _phase_sums
from povmkit.outcomes import CIRCLE, SPHERE, FiniteLabels, Region, normalize_angle
from oracles import arc_probability_quadrature, cap_probability_grid, cap_probability_quadrature

Z_AXIS = (0.0, 0.0, 1.0)


def cap(axis, angle):
    return Region.of_caps([(axis, angle)])


def su2_rotation(axis, alpha):
    """3x3 rotation about axis and its SU(2) representative."""
    m = np.asarray(axis, dtype=float)
    m = m / np.linalg.norm(m)
    k = np.array([[0, -m[2], m[1]], [m[2], 0, -m[0]], [-m[1], m[0], 0]])
    rot = np.eye(3) + np.sin(alpha) * k + (1 - np.cos(alpha)) * (k @ k)
    sig = pk.catalog.PAULI_X, pk.catalog.PAULI_Y, pk.catalog.PAULI_Z
    u = np.cos(alpha / 2) * np.eye(2) - 1j * np.sin(alpha / 2) * sum(
        mi * si for mi, si in zip(m, sig)
    )
    return rot, u


class TestSpinDirection:
    def test_full_sphere_is_identity(self, up):
        spin = pk.spin_direction_povm()
        assert spin.region_probability(up, Region.full(SPHERE)) == pytest.approx(1.0)
        assert np.allclose(spin.region_operator(Region.full(SPHERE)), np.eye(2))

    def test_hemisphere_three_quarters(self, up):
        spin = pk.spin_direction_povm()
        p = spin.region_probability(up, cap(Z_AXIS, np.pi / 2))
        assert p == pytest.approx(0.75, abs=1e-12)
        assert p == pytest.approx(
            cap_probability_quadrature(up, Z_AXIS, np.pi / 2), abs=1e-9
        )

    def test_sixty_degree_cap(self, up):
        spin = pk.spin_direction_povm()
        p = spin.region_probability(up, cap(Z_AXIS, np.pi / 3))
        assert p == pytest.approx(7.0 / 16.0, abs=1e-12)
        assert p == pytest.approx(
            cap_probability_quadrature(up, Z_AXIS, np.pi / 3), abs=1e-9
        )

    def test_density_is_projector(self):
        spin = pk.spin_direction_povm()
        n = np.array([0.6, 0.0, 0.8])
        ket = spin.kets(n)[0]
        m = np.outer(ket, ket.conj()) / spin.ket_norm
        assert np.isclose(np.trace(m).real, 1.0)
        assert np.allclose(m @ m, m)

    def test_density_integrates_to_identity(self):
        from povmkit.quadrature import sphere_nodes

        pts, w = sphere_nodes(64, 128)
        s = pk.spin_direction_povm().kets(pts)
        total = np.tensordot(w, np.einsum("ni,nj->nij", s, s.conj()), axes=(0, 0))
        assert np.linalg.norm(total / (2 * np.pi) - np.eye(2)) <= 1e-6

    def test_rejects_overlapping_caps(self, up):
        spin = pk.spin_direction_povm()
        overlapping = Region.of_caps(
            [(Z_AXIS, np.pi / 2), ((1.0, 0.0, 0.0), np.pi / 2)]
        )
        with pytest.raises(ValueError):
            spin.region_probability(up, overlapping)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rotation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        spin = pk.spin_direction_povm()
        rho = pk.random_density_matrix(rng, 2)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(0.1, np.pi - 0.1))
        rot, u = su2_rotation(rng.normal(size=3), float(rng.uniform(0, np.pi)))
        p1 = spin.region_probability(rho, cap(tuple(axis), angle))
        p2 = spin.region_probability(
            u @ rho @ u.conj().T, cap(tuple(rot @ axis), angle)
        )
        assert abs(p1 - p2) <= 1e-9

    def test_sample_rejects_a_stack_of_states(self, up):
        with pytest.raises(InvalidDimension):
            pk.spin_direction_povm().sample(np.array([up, up]), 5, pk.make_rng(1))


def test_outcome_nodes_are_finite_povms():
    for c in [pk.spin_direction_povm()] + [pk.phase_povm(d) for d in range(2, 17)]:
        points, elements = c.outcome_nodes()
        assert len(points) == len(elements)
        assert np.linalg.eigvalsh(elements).min() >= -1e-12
        assert np.linalg.norm(elements.sum(axis=0) - np.eye(c.dim)) <= 1e-12


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


@pytest.mark.parametrize("name", ["spin"] + [f"phase:{d}" for d in range(2, 17)])
def test_outcome_rule_is_exact_for_degree_2L(name):
    # the fewest nodes exact for the degree 2L of what is quadratic in the
    # density: (L+1) x (2L+1) on the sphere, 2L+1 on the circle
    c, _ = pk.named_family(name)
    L = c.degree
    points, elements = c.outcome_nodes()
    assert len(points) == ((L + 1) * (2 * L + 1) if c.space == SPHERE else 2 * L + 1)
    assert np.abs(elements.sum(axis=0) - np.eye(c.dim)).max() <= 1e-13
    rng = np.random.default_rng([29, c.dim])
    a, b = random_hermitian(rng, c.dim), random_hermitian(rng, c.dim)
    measure = np.trace(elements, axis1=1, axis2=2).real  # v_k, with M_k = elements / v_k
    ta, tb = (np.einsum("ij,kji->k", x, elements).real for x in (a, b))
    expected = oracles.quadratic_moment_grid(None if c.space == SPHERE else c.dim, a, b)
    assert abs((ta * tb / measure).sum() - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("family", [pk.spin_direction_povm, lambda: pk.phase_povm(3)])
def test_outcome_rule_is_built_once_read_only(family):
    first, second = family().outcome_rule(), family().outcome_rule()
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable


IDENTITY = np.array([0.0, 1.0, 0.0])  # (alpha, cos beta, gamma) of the identity rotation


class TestSternGerlach:
    def test_member_matches_projectors(self, up, down):
        member = pk.stern_gerlach_scheme().member(IDENTITY)
        assert len(member) == 2
        assert np.allclose(member.elements[0], up)
        assert np.allclose(member.elements[1], down)
        assert np.allclose(member.points[0], [0, 0, 1.0])
        assert np.allclose(member.points[1], [0, 0, -1.0])

    @pytest.mark.parametrize("x", [[0.0, 1.5, 0.0], [0.0, -1.0 - 1e-12, 0.0], [0.0, np.nan, 0.0]])
    def test_member_outside_the_rotations_rejected(self, x):
        with pytest.raises(ValueError, match="cos beta"):
            pk.stern_gerlach_scheme().member(x)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_members_valid_povms(self, seed):
        sg = pk.stern_gerlach_scheme()
        member = sg.member(sg.sample_x(np.random.default_rng(seed), 1)[0])
        assert not member.allow_duplicates
        assert pk.validate_povm(member).passed
        assert len(member) == len(member.nonzero_indices()) == 2

    def test_scheme_average_matches_closed_form(self, up):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        val, se = sg.average_region_probability(up, cap(Z_AXIS, np.pi / 2))
        assert se is None
        assert abs(val - 0.75) <= 1e-6

    def test_montecarlo_average(self, up):
        sg = pk.stern_gerlach_scheme()
        rng = pk.make_rng(11)
        val, se = sg.average_region_probability(
            up, cap(Z_AXIS, np.pi / 2), mode="montecarlo", budget=200_000, rng=rng
        )
        assert se > 0
        assert abs(val - 0.75) <= 5 * se


class TestPhaseFamily:
    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            pk.phase_povm(1)
        with pytest.raises(InvalidDimension):
            pk.phase_scheme(1)

    def test_basis_state_half_arc(self, up):
        ph = pk.phase_povm(2)
        p = ph.region_probability(up, Region.of_arcs([(0.0, np.pi)]))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_plus_state_centered_arc(self, plus):
        ph = pk.phase_povm(2)
        arc = Region.of_arcs([(-np.pi / 2, np.pi / 2)])
        p = ph.region_probability(plus, arc)
        assert p == pytest.approx(0.5 + 1.0 / np.pi, abs=1e-12)
        assert p == pytest.approx(
            arc_probability_quadrature(plus, -np.pi / 2, np.pi / 2), abs=1e-9
        )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_full_circle_any_state(self, d, rng):
        ph = pk.phase_povm(d)
        rho = pk.random_density_matrix(rng, d)
        assert ph.region_probability(rho, Region.full(ph.space)) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_member_completeness_exact(self, d):
        scheme = pk.phase_scheme(d)
        member = scheme.member(0.7)
        total = member.element_sum()
        assert np.linalg.norm(total - np.eye(d)) <= 1e-12

    def test_member_probabilities_uniform_for_basis_state(self, up):
        scheme = pk.phase_scheme(2)
        member = scheme.member(0.0)
        probs = pk.born_probabilities(member, up)
        assert np.allclose(probs, [0.5, 0.5])
        assert np.allclose(member.points, [0.0, np.pi])

    def test_scheme_average_matches_closed_form(self, plus):
        ph = pk.phase_povm(2)
        scheme = pk.phase_scheme(2)
        arc = Region.of_arcs([(-np.pi / 2, np.pi / 2)])
        val, _ = scheme.average_region_probability(plus, arc)
        assert abs(val - (0.5 + 1.0 / np.pi)) <= 1e-9

    def test_unfolded_mixing_equivalent(self, rng):
        # the comb is (2 pi / d)-periodic up to relabeling: a shift by whole
        # comb spacings gives the same member
        d = 3
        scheme = pk.phase_scheme(d)
        window = scheme.design[0][1]  # the comb spacing 2 pi / d
        rho = pk.random_density_matrix(rng, d)
        arc = Region.of_arcs([(0.8, 2.9)])
        base, _ = scheme.average_region_probability(rho, arc)
        for k in range(1, d):
            shifted_vals = scheme.member_probabilities(
                np.array([0.4 + k * window]), rho
            )
            unshifted = scheme.member_probabilities(np.array([0.4]), rho)
            assert np.allclose(np.sort(shifted_vals), np.sort(unshifted))
        full_nodes = np.linspace(0.0, 2 * np.pi, 6 * d, endpoint=False)
        window_nodes = full_nodes % window
        for xf, xw in zip(full_nodes, window_nodes):
            pf = scheme.member_probabilities(np.array([xf]), rho)[0]
            pw = scheme.member_probabilities(np.array([xw]), rho)[0]
            of = np.asarray(scheme.outcome_points(np.array([xf])))[0]
            ow = np.asarray(scheme.outcome_points(np.array([xw])))[0]
            order_f, order_w = np.argsort(of), np.argsort(ow)
            assert np.allclose(of[order_f], ow[order_w], atol=1e-12)
            assert np.allclose(pf[order_f], pw[order_w], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_phase_shift_covariance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        ph = pk.phase_povm(d)
        rho = pk.random_density_matrix(rng, d)
        delta = float(rng.uniform(0, 2 * np.pi))
        shift = np.diag(np.exp(1j * np.arange(d) * delta))
        a, b = sorted(rng.uniform(0, 2 * np.pi, 2))
        p1 = ph.region_probability(rho, Region.of_arcs([(a, b)]))
        p2 = ph.region_probability(
            shift @ rho @ shift.conj().T, Region.of_arcs([(a + delta, b + delta)])
        )
        assert abs(p1 - p2) <= 1e-9


class TestPhaseSums:
    """Horner's rule for the phase family's Fourier sums."""

    @pytest.mark.parametrize("columns", [None, 2])
    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_direct_sum(self, d, columns):
        rng = np.random.default_rng([70, d])
        shape = (d - 1,) if columns is None else (d - 1, columns)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # multiples of 2**-30, so that k * phi is exact and the direct sum
        # below is a true reference even at |phi| = 1e4
        phis = np.round(rng.uniform(-1e4, 1e4, 500) * 2.0**30) / 2.0**30
        phis[:3] = [0.0, -1e4, 1e4]
        direct = (np.exp(1j * np.multiply.outer(phis, np.arange(1, d))) @ c).reshape(len(phis), -1)
        for part in ("real", "imag"):
            got = _phase_sums(c, phis, (part,) * direct.shape[1])
            assert got.shape == direct.shape
            error = np.abs(got - getattr(direct, part)).max(axis=0)
            assert np.all(error <= 1e-13 * np.abs(c).sum(axis=0))

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_expectation_keeps_shape(self, d):
        rng = np.random.default_rng([71, d])
        ph = pk.phase_povm(d)
        rho = pk.random_density_matrix(rng, d)
        phis = rng.uniform(0.0, 2 * np.pi, (4, 5))
        stacked = ph.expectation(rho, phis)
        assert stacked.shape == (4, 5)
        assert np.array_equal(stacked.ravel(), ph.expectation(rho, phis.ravel()))
        one = ph.expectation(rho, phis[1, 2])
        assert np.shape(one) == ()
        assert one == pytest.approx(stacked[1, 2], abs=1e-15)


BLOCK = families._PHASE_BLOCK


def same_bytes(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def unit_rows(rng, k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestBlockedKernels:
    """Phase sums taken block by block and rotations written point by point
    into the member layout give the bytes of a one-pass evaluation
    (`oracles`), at the block edges, on 0-d and (m, k) phases, and for
    design points off the z axis."""

    SHAPES = [(), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3, 7), (3, BLOCK // 3 + 1), (2, BLOCK + 1)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("columns", [(5,), (5, 1), (5, 2)], ids=str)
    def test_phase_sums(self, shape, columns):
        rng = np.random.default_rng([72, len(columns), *shape])
        c = rng.normal(size=columns) + 1j * rng.normal(size=columns)
        phis = rng.uniform(-10.0, 20.0, shape)
        parts = ("imag", "real")[-c[0].size:]
        got, ref = _phase_sums(c, phis, parts), oracles.phase_sums_one_pass(c, phis)
        assert got.shape == shape + (len(parts),)
        for part, g, r in zip(parts, np.moveaxis(got, -1, 0), ref.reshape((len(parts),) + shape)):
            assert same_bytes(g, getattr(r, part))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_superdiagonals(self, d):
        # one gather gives the bits of np.trace per diagonal up to d = 8,
        # which every pinned output uses, and its value within rounding
        # beyond
        rng = np.random.default_rng([74, d])
        for scale in (1e-3, 1.0, 1e3):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = scale * (g + g.conj().T)
            got, ref = families._superdiagonals(a), oracles.superdiagonal_traces(a)
            if d <= 8:
                assert same_bytes(got, ref)
                real = a.real.copy()
                ref = oracles.superdiagonal_traces(real)
                assert same_bytes(families._superdiagonals(real), ref)
            else:
                assert np.abs(got - ref).max() <= 8 * np.finfo(float).eps * np.abs(a).sum()

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_phase_expectation_and_born(self, shape, d):
        rng = np.random.default_rng([73, d, *shape])
        ph = pk.phase_povm(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g + g.conj().T  # Tr[a M] leaves [0, 1], so born clips
        phis = rng.uniform(-10.0, 20.0, shape)
        ref = oracles.phase_expectation_one_pass(a, phis)
        assert same_bytes(ph.expectation(a, phis), ref)
        assert same_bytes(ph.born(a, phis), np.clip(ref, 0.0, 1.0))
        assert np.shape(ph.born(a, phis)) == shape

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_direct_phase_sampler(self, monkeypatch, n):
        rho = pk.random_density_matrix(np.random.default_rng([74, n]), 4)
        ph = pk.phase_povm(4)
        blocked = ph.sample(rho, n, np.random.default_rng(9))

        def one_pass(c, phis, parts):
            sums = oracles.phase_sums_one_pass(c, phis)
            return np.stack([getattr(s, part) for part, s in zip(parts, sums)], axis=-1)

        monkeypatch.setattr(families, "_phase_sums", one_pass)
        assert same_bytes(blocked, ph.sample(rho, n, np.random.default_rng(9)))

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_rotation_move(self, k, n):
        rng = np.random.default_rng([75, k, n])
        law, points = families._MIXING_LAWS[SPHERE], unit_rows(rng, k)
        xs = law.sample(rng, n)
        xs[:1, 1], xs[1:2, 1] = 1.0, -1.0  # the poles of beta
        moved = law.move(xs, points)
        assert moved.flags.c_contiguous
        assert same_bytes(moved, oracles.rotate_zyz_one_pass(xs, points))


KERNELS = ["normalize_angle", "contains-arcs-wrapped", "contains-arcs-inside", "contains-caps",
           "contains-labels", "phase-born", "phase-expectation", "spin-born", "spin-expectation",
           "outcome-points-sphere", "outcome-points-circle", "member-probabilities"]


def kernel_input(name, rng):
    """``(call, input)``: the kernel ``name`` of `KERNELS` and a fresh input array."""
    rho2, rho3 = pk.random_density_matrix(rng, 2), pk.random_density_matrix(rng, 3)
    spin, phase = pk.stern_gerlach_scheme(), pk.phase_scheme(3)
    arcs = Region.of_arcs([(0.4, 2.5), (5.0, 7.0)])
    caps = Region.of_caps([((0.6, 0.0, 0.8), 1.0)], complement=True)
    labels = Region.of_labels(FiniteLabels(3), [0, 2])
    wrapped, inside = rng.uniform(-7.0, 14.0, (5, 6)), rng.uniform(0.0, 2 * np.pi, 30)
    points = unit_rows(rng, 30)
    return {
        "normalize_angle": (normalize_angle, wrapped),
        "contains-arcs-wrapped": (arcs.contains, wrapped),
        "contains-arcs-inside": (arcs.contains, inside),
        "contains-caps": (caps.contains, points),
        "contains-labels": (labels.contains, np.array([0, 2, 1, 2])),
        "phase-born": (lambda p: phase.continuous.born(rho3, p), wrapped),
        "phase-expectation": (lambda p: phase.continuous.expectation(rho3, p), inside),
        "spin-born": (lambda p: spin.continuous.born(rho2, p), points),
        "spin-expectation": (lambda p: spin.continuous.expectation(rho2, p), points),
        "outcome-points-sphere": (spin.outcome_points, spin.sample_x(rng, 7)),
        "outcome-points-circle": (phase.outcome_points, phase.sample_x(rng, 7)),
        "member-probabilities": (lambda x: phase.member_probabilities(x, rho3),
                                 phase.sample_x(rng, 7)),
    }[name]


class TestKernelInputs:
    """The kernels write only into arrays they made: a caller's array keeps
    its bytes, and a read-only one is accepted."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_no_writes_into_caller_arrays(self, name):
        call, arg = kernel_input(name, np.random.default_rng(76))
        before = arg.copy()
        call(arg)
        assert arg.tobytes() == before.tobytes()

    @pytest.mark.parametrize("name", KERNELS)
    def test_read_only_inputs(self, name):
        call, arg = kernel_input(name, np.random.default_rng(77))
        expected = call(arg.copy())
        arg.flags.writeable = False
        assert same_bytes(call(arg), expected)

    def test_frozen_rule_nodes(self):
        rho2, rho3 = pk.random_density_matrix(np.random.default_rng(78), 2), np.eye(3) / 3
        phis, _ = pk.phase_povm(3).outcome_rule()
        points, _ = pk.spin_direction_povm().outcome_rule()
        assert not (phis.flags.writeable or points.flags.writeable)
        assert same_bytes(normalize_angle(phis), phis)
        assert Region.of_arcs([(1.0, 2.0)]).contains(phis).sum() > 0
        assert np.allclose(pk.phase_povm(3).born(rho3, phis), 1.0 / 3.0)
        assert cap(Z_AXIS, 1.0).contains(points).sum() > 0
        assert pk.spin_direction_povm().born(rho2, points).shape == (len(points),)


PEAK_OVER_OUTPUT = 4.0  # traced peak of a kernel call over the bytes of the arrays it produces


def traced_peak(call):
    """Peak bytes traced while ``call()`` runs (after a first, untraced call
    has filled the caches), and its result."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """A Monte Carlo row and two-stage draws hold no full-size temporary
    beyond a few arrays as large as the member layout: a restacked layout
    or a complex temporary that grows with the draws breaks the bound."""

    @pytest.mark.parametrize("name", ["spin", "phase:3"])
    def test_monte_carlo_row(self, name):
        c, s = pk.named_family(name)
        rng = np.random.default_rng(79)
        rho = pk.random_density_matrix(rng, c.dim)
        region = (cap((0.6, 0.0, 0.8), 1.0) if c.space == SPHERE
                  else Region.of_arcs([(0.4, 2.5), (4.0, 5.5)]))
        peak, _ = traced_peak(lambda: pk.verify_scheme_equivalence(
            c, s, [rho], [region], mode="mc", budget=5000, seed=3))
        layout = s.outcome_points(s.sample_x(rng, 5000)).nbytes
        assert peak <= PEAK_OVER_OUTPUT * layout

    def test_two_stage_draws(self):
        rho = pk.random_density_matrix(np.random.default_rng(80), 3)
        peak, records = traced_peak(lambda: pk.sample_two_stage(pk.phase_scheme(3), rho, 30000, 5))
        produced = records.omega.nbytes + records.i.nbytes + records.x.nbytes
        assert peak <= PEAK_OVER_OUTPUT * produced

    def test_direct_phase_draws(self):
        # the Newton iteration runs over blocks of draws
        rho = pk.random_density_matrix(np.random.default_rng(81), 3)
        peak, records = traced_peak(lambda: pk.sample_direct(pk.phase_povm(3), rho, 30000, 5))
        assert peak <= PEAK_OVER_OUTPUT * records.omega.nbytes


def irregular_phase_design():
    """Three points with no shift symmetry whose weights make a d=2 design:
    sum w_k = 2 and sum w_k exp(i phi_k) = 0."""
    phis = np.array([0.0, 2.0, 4.0])
    a = np.vstack([np.ones(3), np.cos(phis), np.sin(phis)])
    return phis, np.linalg.solve(a, [2.0, 0.0, 0.0])


def tetrahedron_design():
    """The regular tetrahedron with weights 1/2: sum_k n_k = 0, so
    sum_k |n_k><n_k| / 2 = I."""
    points = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                       [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    return points, np.full(4, 0.5)


EQUATOR = ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, 1.0])

# designs off the poles and off a comb, on each outcome space
OTHER_DESIGNS = {
    "equator": (pk.spin_direction_povm, EQUATOR),
    "tetrahedron": (pk.spin_direction_povm, tetrahedron_design()),
    "irregular_phase": (lambda: pk.phase_povm(2), irregular_phase_design()),
}
OTHER_REGIONS = {
    SPHERE: [
        cap((0.6, 0.0, 0.8), 1.0),
        Region.of_caps([(Z_AXIS, 0.7), ((0.0, -0.6, -0.8), 0.9)]),
        Region.of_caps([((0.48, 0.6, -0.64), 1.2)], complement=True),
    ],
    CIRCLE: [Region.of_arcs([(0.4, 2.5)]), Region.of_arcs([(5.0, 7.0), (2.0, 3.0)])],
}


NEAR_EDGES = [0.0, 5e-324, 1e-300, 1e-15, 1e-9, np.pi, 2 * np.pi - 1e-9, 2 * np.pi - 1e-15,
              np.nextafter(2 * np.pi, 0.0)]


class TestShiftFactoredBorn:
    """A phase design's Born table from one exponential per shift and the
    design's fixed phases (`CirclePhasePOVM._moved_born`) is the Born
    density at the moved points."""

    @pytest.mark.parametrize("name", [f"phase:{d}" for d in range(2, 9)] + ["irregular"])
    def test_matches_born_at_moved_points(self, name):
        if name == "irregular":
            s = pk.DesignScheme(pk.phase_povm(2), irregular_phase_design())
        else:
            s = pk.named_family(name)[1]
        rng = np.random.default_rng([82, s.dim, len(name)])
        xs = np.concatenate([NEAR_EDGES, rng.uniform(0.0, 2 * np.pi, 200)])
        moved = s.outcome_points(xs)
        states = [pk.random_density_matrix(rng, s.dim) for _ in range(4)]
        states += [np.full((s.dim, s.dim), 1.0 / s.dim), np.diag(np.eye(s.dim)[0])]
        for rho in states:
            table = s.continuous._moved_born(rho, xs, s._points[0], moved)
            assert table.shape == moved.shape
            assert np.abs(table - s.continuous.born(rho, moved)).max() <= 1e-14
            probs = s.member_probabilities(xs, rho)
            assert np.abs(probs - table * s._weights[0]).max() == 0.0


def built_in_and_other_schemes():
    yield "spin", pk.stern_gerlach_scheme(), True
    for d in range(2, 9):
        yield f"phase:{d}", pk.phase_scheme(d), True
    for name, (family, design) in OTHER_DESIGNS.items():
        yield name, pk.DesignScheme(family(), design), False


class TestDesignScheme:
    @pytest.mark.parametrize("design, period", [
        ((np.arange(3) * 2 * np.pi / 3, np.full(3, 2 / 3)), 3),  # a comb finer than d
        (irregular_phase_design(), 1),
    ])
    def test_other_phase_designs(self, rng, design, period):
        ph = pk.phase_povm(2)
        scheme = pk.DesignScheme(ph, design)
        # one law for every design: the image of the point 0 covers the whole
        # circle, not one period, and a shift by a period only relabels
        xs = scheme.sample_x(rng, 1000)
        images = scheme.outcome_points(xs)[:, 0]
        assert 0.0 <= images.min() and images.max() < 2 * np.pi
        assert images.max() - images.min() > 0.99 * 2 * np.pi
        for x in xs[:5]:
            moved = scheme.outcome_points([x, x + 2 * np.pi / period])
            assert np.allclose(np.sort(moved[0]), np.sort(moved[1]), rtol=0, atol=1e-12)
        assert np.sum(scheme.mixing_nodes()[1]) == pytest.approx(1.0)
        rho = pk.random_density_matrix(rng, 2)
        arcs = OTHER_REGIONS[CIRCLE]
        det = pk.verify_scheme_equivalence(ph, scheme, [rho], arcs)
        assert det.max_abs_diff <= 1e-9
        mc = pk.verify_scheme_equivalence(
            ph, scheme, [rho], arcs, mode="mc", budget=20_000, seed=3
        )
        for row in mc.rows:
            assert abs(row.diff) <= 5 * row.std_error
        for x in scheme.sample_x(rng, 5):
            assert pk.validate_povm(scheme.member(x)).passed

    @pytest.mark.parametrize("name", ["equator", "tetrahedron"])
    def test_sphere_designs_off_the_poles(self, rng, name):
        family, design = OTHER_DESIGNS[name]
        spin = family()
        scheme = pk.DesignScheme(spin, design)
        assert np.sum(scheme.mixing_nodes()[1]) == pytest.approx(1.0)
        states = [pk.random_density_matrix(rng, 2) for _ in range(2)]
        regions = OTHER_REGIONS[SPHERE]
        det = pk.verify_scheme_equivalence(spin, scheme, states, regions)
        assert det.max_abs_diff <= 1e-9
        mc = pk.verify_scheme_equivalence(
            spin, scheme, states, regions, mode="mc", budget=20_000, seed=3
        )
        for row in mc.rows:
            assert abs(row.diff) <= 5 * row.std_error
        for x in scheme.sample_x(rng, 20):
            assert pk.validate_povm(scheme.member(x)).passed

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_moved_members_are_povms(self, seed):
        rng = np.random.default_rng(seed)
        for name, scheme, built_in in built_in_and_other_schemes():
            for x in scheme.sample_x(rng, 3):
                member = scheme.member(x)
                assert pk.validate_povm(member).passed, (name, x)
                if built_in:
                    assert pk.is_extremal(member), (name, x)

    def test_members_stack_the_single_members(self, rng):
        # one move and one broadcast give every member bit for bit
        for name, scheme, _ in built_in_and_other_schemes():
            xs = scheme.sample_x(rng, 5)
            points, elements = scheme.members(xs)
            assert elements.shape == points.shape[:2] + (scheme.dim, scheme.dim)
            for x, pts, els in zip(xs, points, elements):
                member = scheme.member(x)
                assert np.array_equal(member.points, pts), name
                assert np.array_equal(member.elements, els), name

    @pytest.mark.parametrize("scheme, x", [
        (pk.stern_gerlach_scheme(), [0.0, 0.5, 0.0, 1.0, 0.2, 3.0]),  # two rotations
        (pk.stern_gerlach_scheme(), [[0.0, 0.5, 0.0]]),
        (pk.stern_gerlach_scheme(), 0.5),
        (pk.phase_scheme(3), [0.1, 0.2]),  # two shifts
        (pk.phase_scheme(3), [0.1]),
    ])
    def test_member_takes_one_mixing_parameter(self, scheme, x):
        with pytest.raises(ValueError, match="one mixing parameter"):
            scheme.member(x)

    @pytest.mark.parametrize("scheme, x", [
        (pk.phase_scheme(3), np.nan),
        (pk.phase_scheme(3), np.inf),
        (pk.phase_scheme(3), -np.inf),
        (pk.stern_gerlach_scheme(), [np.inf, 0.5, 0.0]),
        (pk.stern_gerlach_scheme(), [0.0, 0.5, np.nan]),
    ])
    def test_non_finite_mixing_parameter_rejected(self, scheme, x):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite mixing parameter"):
            scheme.member(x)
        with pytest.raises(ValueError, match="finite mixing parameter"):
            scheme.members([x])

    def test_invalid_designs_rejected(self):
        with pytest.raises(pk.InvalidPOVM):
            pk.DesignScheme(pk.spin_direction_povm(), ([[0.0, 0.0, 1.0]], [1.0]))
        with pytest.raises(pk.InvalidPOVM):
            pk.DesignScheme(pk.phase_povm(3), (np.arange(2) * np.pi, np.ones(2)))


class TestEquivalence:
    def test_deterministic_spin(self, up, plus, maximally_mixed):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        regions = [
            cap(Z_AXIS, np.pi / 2),
            cap(Z_AXIS, np.pi / 3),
            cap((1.0, 0.0, 0.0), 0.8),
            Region.of_caps(
                [(Z_AXIS, np.pi / 4), ((0.0, 0.0, -1.0), np.pi / 4)], complement=True
            ),
            Region.full(SPHERE),
        ]
        rep = pk.verify_scheme_equivalence(
            spin, sg, [up, plus, maximally_mixed], regions
        )
        assert rep.max_abs_diff <= 1e-6
        assert len(rep.rows) == 15

    def test_montecarlo_spin(self, up):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        rep = pk.verify_scheme_equivalence(
            spin, sg, [up], [cap(Z_AXIS, np.pi / 2)],
            mode="montecarlo", budget=100_000, seed=5,
        )
        row = rep.rows[0]
        assert row.std_error is not None
        assert abs(row.diff) <= 5 * row.std_error

    @pytest.mark.parametrize("name", ["states", "regions"])
    def test_empty_lists_rejected(self, up, name):
        lists = {"states": [up], "regions": [cap(Z_AXIS, 1.0)], name: []}
        with pytest.raises(ValueError, match=f"{name} is empty"):
            pk.verify_scheme_equivalence(
                pk.spin_direction_povm(), pk.stern_gerlach_scheme(), lists["states"],
                lists["regions"],
            )

    @pytest.mark.parametrize("states, regions, message", [
        ([("a", "up"), ("a", "up")], [("r", "cap")], "state 1: id 'a' repeats state 0"),
        (["up", ("state0", "up")], ["cap"], "state 1: id 'state0' repeats state 0"),
        (["up"], [("r", "cap"), "cap", ("r", "cap")], "region 2: id 'r' repeats region 0"),
        (["up"], [("region1", "cap"), "cap"], "region 1: id 'region1' repeats region 0"),
    ])
    @pytest.mark.parametrize("mode", ["det", "mc"])
    def test_repeated_ids_rejected(self, up, states, regions, message, mode):
        # rows that no id tells apart, as the JSON loaders already refuse
        items = {"up": up, "cap": cap(Z_AXIS, 1.0)}

        def named(item):
            return (item[0], items[item[1]]) if isinstance(item, tuple) else items[item]

        with pytest.raises(ValueError, match=f"^{message}$"):
            pk.verify_scheme_equivalence(
                pk.spin_direction_povm(), pk.stern_gerlach_scheme(), [named(i) for i in states],
                [named(i) for i in regions], mode=mode, seed=1,
            )

    def test_montecarlo_requires_seed(self, up):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        with pytest.raises(ValueError):
            pk.verify_scheme_equivalence(
                spin, sg, [up], [cap(Z_AXIS, 1.0)], mode="montecarlo"
            )

    @pytest.mark.parametrize("mode, budget", [
        ("deterministic", 0), ("deterministic", -5), ("montecarlo", 0), ("montecarlo", -5),
        ("montecarlo", 1),
    ])
    def test_budget_too_small_rejected(self, up, mode, budget):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        region = cap(Z_AXIS, 1.0)
        with pytest.raises(ValueError, match="budget"):
            pk.verify_scheme_equivalence(spin, sg, [up], [region], mode=mode, budget=budget,
                                         seed=1)
        with pytest.raises(ValueError, match="budget"):
            sg.average_region_probability(up, region, mode=mode, budget=budget,
                                          rng=pk.make_rng(1))

    @pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["deterministic", "montecarlo"])
    @pytest.mark.parametrize("family", ["spin", "phase:3"])
    def test_budget_not_finite_rejected(self, family, mode, budget):
        c, s = pk.named_family(family)
        rho = np.eye(c.dim) / c.dim
        region = cap(Z_AXIS, 1.0) if c.space == SPHERE else Region.of_arcs([(0.0, 1.0)])
        with pytest.raises(ValueError, match="budget"):
            pk.verify_scheme_equivalence(c, s, [rho], [region], mode=mode, budget=budget,
                                         seed=1)
        with pytest.raises(ValueError, match="budget"):
            s.average_region_probability(rho, region, mode=mode, budget=budget,
                                         rng=pk.make_rng(1))

    @pytest.mark.parametrize("family", ["spin", "phase:3"])
    def test_montecarlo_budget_not_integer_rejected(self, family):
        c, s = pk.named_family(family)
        rho = np.eye(c.dim) / c.dim
        region = cap(Z_AXIS, 1.0) if c.space == SPHERE else Region.of_arcs([(0.0, 1.0)])
        with pytest.raises(ValueError, match="budget must be an integer"):
            pk.verify_scheme_equivalence(c, s, [rho], [region], mode="mc", budget=2.5, seed=1)
        with pytest.raises(ValueError, match="budget must be an integer"):
            s.average_region_probability(rho, region, mode="mc", budget=2.5,
                                         rng=pk.make_rng(1))
        # deterministic mode takes no budget at all
        with pytest.raises(ValueError, match="deterministic mode takes no budget"):
            pk.verify_scheme_equivalence(c, s, [rho], [region], mode="det", budget=2.5)
        with pytest.raises(ValueError, match="deterministic mode takes no budget"):
            s.average_region_probability(rho, region, mode="det", budget=2.5)

    @pytest.mark.parametrize("mode", ["det", "deterministic"])
    @pytest.mark.parametrize("kind", ["design", "mixture"])
    def test_deterministic_mode_takes_no_budget(self, up, kind, mode):
        spin, sg = pk.named_family("spin")
        s = sg if kind == "design" else pk.FiniteMixtureScheme([(1.0, sg.member(IDENTITY))])
        region = cap(Z_AXIS, 1.0)
        for budget in (3, 2048):
            message = f"^deterministic mode takes no budget, got {budget}$"
            with pytest.raises(ValueError, match=message):
                pk.verify_scheme_equivalence(spin, s, [up], [region], mode=mode, budget=budget)
            with pytest.raises(ValueError, match=message):
                s.average_region_probability(up, region, mode=mode, budget=budget)

    def test_mode_is_checked_before_the_first_row_and_reported_long(self, up, monkeypatch):
        spin, sg = pk.named_family("spin")
        region = cap(Z_AXIS, 1.0)
        for short, long in (("det", "deterministic"), ("mc", "montecarlo")):
            rep = pk.verify_scheme_equivalence(spin, sg, [up], [region], mode=short, seed=1,
                                               budget=None if short == "det" else 10)
            assert rep.mode == long
        rows = []
        monkeypatch.setattr(pk.SpinDirectionPOVM, "_region_probability",
                            lambda *args: rows.append(args))
        with pytest.raises(ValueError, match="unknown mode 'quad'"):
            pk.verify_scheme_equivalence(spin, sg, [up], [region], mode="quad")
        with pytest.raises(ValueError, match="unknown mode 'quad'"):
            sg.average_region_probability(up, region, mode="quad")
        assert rows == []

    def test_budget_none_is_the_default(self, up):
        sg = pk.stern_gerlach_scheme()
        region = cap(Z_AXIS, 1.0)
        assert sg.average_region_probability(up, region, mode="mc", rng=pk.make_rng(2)) == (
            sg.average_region_probability(up, region, mode="mc", budget=100_000,
                                          rng=pk.make_rng(2))
        )

    def test_finite_mixture_scheme_exact(self, rng):
        p = pk.random_povm(rng, 2, 6, element_rank=1)
        res = pk.decompose_extremal(p)
        scheme = pk.scheme_from_decomposition(res)
        rho = pk.random_density_matrix(rng, 2)
        region = Region.of_labels(p.space, [0, 2, 4])
        direct = pk.probability_of_region(p, rho, region)
        mixed, _ = scheme.average_region_probability(rho, region)
        assert abs(direct - mixed) <= 1e-9

    def test_finite_mixture_montecarlo(self, rng):
        p = pk.random_povm(rng, 2, 6, element_rank=1)
        scheme = pk.scheme_from_decomposition(pk.decompose_extremal(p))
        rho = pk.random_density_matrix(rng, 2)
        region = Region.of_labels(p.space, [1, 2, 5])
        exact, _ = scheme.average_region_probability(rho, region, mode="det")
        val, se = scheme.average_region_probability(
            rho, region, mode="mc", budget=20_000, rng=pk.make_rng(4)
        )
        assert se > 0
        assert abs(val - exact) <= 5 * se


def cap_operator_reference(axis, angle):
    """One cap's operator ``(1 - c) I/2 + (1 - c^2)/4 (axis . sigma)``, built alone."""
    c = float(np.cos(angle))
    ax = np.asarray(axis, dtype=float)
    sig = ax[0] * pk.catalog.PAULI_X + ax[1] * pk.catalog.PAULI_Y + ax[2] * pk.catalog.PAULI_Z
    return (1.0 - c) * np.eye(2, dtype=complex) / 2.0 + (1.0 - c * c) / 4.0 * sig


def interval_operator_reference(d, a, b):
    """One arc's operator ``int_a^b dphi/2pi |phi><phi|``, built alone."""
    m = np.arange(d)
    k = m[:, None] - m[None, :]
    out = np.empty((d, d), dtype=complex)
    np.fill_diagonal(out, (b - a) / (2 * np.pi))
    off = k != 0
    kk = k[off]
    out[off] = (np.exp(1j * kk * b) - np.exp(1j * kk * a)) / (2 * np.pi * 1j * kk)
    return out


class TestBatchedClosedForms:
    """Region operators with every piece built together have the bits of
    pieces built one at a time and added in order onto zeros."""

    @pytest.mark.parametrize("complement", [False, True])
    def test_caps(self, complement):
        rng = np.random.default_rng([83, complement])
        spin = pk.spin_direction_povm()
        for _ in range(300):
            axes = unit_rows(rng, int(rng.integers(1, 4)))
            region = Region.of_caps([(tuple(a), rng.uniform(0.0, np.pi)) for a in axes],
                                    complement=complement)
            ref = np.zeros((2, 2), dtype=complex)
            for c in region.caps:
                ref += cap_operator_reference(c.axis, c.angle)
            if complement:
                ref = np.eye(2, dtype=complex) - ref
            assert same_bytes(spin._region_operator(region), ref)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_arcs(self, d):
        rng = np.random.default_rng([84, d])
        ph = pk.phase_povm(d)
        for _ in range(300):
            cuts = np.sort(rng.uniform(0.0, 2 * np.pi, 2 * int(rng.integers(1, 5))))
            region = Region.of_arcs(cuts.reshape(-1, 2))
            ref = np.zeros((d, d), dtype=complex)
            for a, b in region.arcs:
                ref += interval_operator_reference(d, a, b)
            assert same_bytes(ph._region_operator(region), ref)

    def test_no_pieces(self):
        assert same_bytes(pk.phase_povm(3)._region_operator(Region.of_arcs([])),
                          np.zeros((3, 3), dtype=complex))
        whole = Region(space=SPHERE, caps=(), complement=True)
        assert same_bytes(pk.spin_direction_povm()._region_operator(whole),
                          np.eye(2, dtype=complex))


def disjoint_caps(rng, count):
    """``count`` random caps, each narrower than half its distance to the
    nearest other, so no two meet."""
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    gaps = np.arccos(np.clip(axes @ axes.T, -1.0, 1.0)) + 2 * np.pi * np.eye(count)
    angles = rng.uniform(0.05, 0.95, count) * np.minimum(np.pi, gaps.min(axis=1) / 2)
    return [(tuple(axis), float(angle)) for axis, angle in zip(axes, angles)]


class TestExactCapRule:
    """A spin det row integrates each cap on 1 x 2 nodes, exact for the
    affine density."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_grid_oracle_and_closed_form(self, seed, count, complement):
        rng = np.random.default_rng(seed)
        rho = pk.random_density_matrix(rng, 2)
        caps = disjoint_caps(rng, count)
        region = Region.of_caps(caps, complement=complement)
        sg = pk.stern_gerlach_scheme()
        value, se = sg.average_region_probability(rho, region, mode="det")
        inside = sum(cap_probability_grid(rho, axis, angle) for axis, angle in caps)
        assert se is None
        assert abs(value - (1.0 - inside if complement else inside)) <= 1e-14
        assert abs(value - pk.spin_direction_povm().region_probability(rho, region)) <= 1e-14

    @pytest.mark.parametrize("budget, points", [(None, 2)])
    @pytest.mark.parametrize("complement", [False, True])
    def test_born_points_per_cap(self, monkeypatch, budget, points, complement):
        counts = []
        expectation = pk.SpinDirectionPOVM.expectation

        def counted(self, a, pts):
            counts.append(len(pts))
            return expectation(self, a, pts)

        monkeypatch.setattr(pk.SpinDirectionPOVM, "expectation", counted)
        region = Region.of_caps([(Z_AXIS, 0.7), ((0.0, -0.6, -0.8), 0.9)], complement=complement)
        rho = pk.random_density_matrix(np.random.default_rng(4), 2)
        rep = pk.verify_scheme_equivalence(pk.spin_direction_povm(), pk.stern_gerlach_scheme(),
                                           [rho], [region], mode="det", budget=budget)
        assert rep.max_abs_diff <= 1e-15
        # one Born call per region, on the nodes of both caps
        assert counts == [2 * points]

    @pytest.mark.parametrize("name", ["spin", "phase:3"])
    @pytest.mark.parametrize("mode, budget", [("det", None), ("mc", 10)])
    def test_one_call_checks_each_state_once(self, monkeypatch, name, mode, budget):
        # the continuous probability and the scheme average of every region
        # share one check of the state
        calls = []
        check = op.check_density_matrix
        monkeypatch.setattr(op, "check_density_matrix",
                            lambda *args: calls.append(args) or check(*args))
        c, s = pk.named_family(name)
        rng = np.random.default_rng(5)
        states = [pk.random_density_matrix(rng, c.dim) for _ in range(2)]
        regions = [Region.full(c.space), OTHER_REGIONS[c.space][0]]
        rep = pk.verify_scheme_equivalence(c, s, states, regions, mode=mode, budget=budget,
                                           seed=1)
        assert len(rep.rows) == 4
        assert len(calls) == 2
        assert all(args == (rho, c.dim) for args, rho in zip(calls, states))

    @pytest.mark.parametrize("mode", ["det", "mc"])
    def test_one_call_tests_each_region_once(self, monkeypatch, mode):
        # the continuous operator and the cap-by-cap quadrature of every
        # state share one disjointness test of each region
        calls = []
        disjoint = Region.caps_pairwise_disjoint
        monkeypatch.setattr(Region, "caps_pairwise_disjoint",
                            lambda region: calls.append(region) or disjoint(region))
        c, s = pk.named_family("spin")
        rng = np.random.default_rng(6)
        states = [pk.random_density_matrix(rng, 2) for _ in range(2)]
        regions = OTHER_REGIONS[SPHERE][1:]  # two caps, then a complement
        rep = pk.verify_scheme_equivalence(c, s, states, regions, mode=mode,
                                           budget=10 if mode == "mc" else None, seed=1)
        assert len(rep.rows) == 4
        assert calls == regions
        # each public method tests its own region, once; a Monte Carlo
        # average needs no disjoint caps
        for call, tests in [
            (lambda: c.region_probability(states[0], regions[0]), 1),
            (lambda: c.region_operator(regions[0]), 1),
            (lambda: s.average_region_probability(states[0], regions[0]), 1),
            (lambda: s.average_region_probability(states[0], regions[0], "mc", 10,
                                                  pk.make_rng(0)), 0),
        ]:
            calls.clear()
            call()
            assert calls == regions[:1] * tests


LABELS = pk.FiniteLabels(6)
MIXTURE_REGIONS = {
    LABELS: [Region.of_labels(LABELS, [0, 2, 3]), Region.of_labels(LABELS, [1, 4, 5])],
    CIRCLE: OTHER_REGIONS[CIRCLE],
    SPHERE: OTHER_REGIONS[SPHERE],  # the last is a complement
}


def random_points(rng, space, n):
    """``n`` distinct outcome points on a space."""
    if space == CIRCLE:
        return rng.uniform(0.0, 2 * np.pi, n)
    if space == SPHERE:
        points = rng.normal(size=(n, 3))
        return points / np.linalg.norm(points, axis=1, keepdims=True)
    return rng.choice(space.n, n, replace=False)


class TestFiniteMixturePadding:
    """Members with fewer entries are padded with their first point at
    zero probability."""

    @pytest.mark.parametrize(
        "space, short, long",
        [
            (CIRCLE, [0.5, 2.0], [1.0, 3.0, 5.0]),
            (SPHERE, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
             [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
    )
    def test_unequal_member_lengths(self, space, short, long):
        def uniform(points):
            el = np.eye(2, dtype=complex) / len(points)
            return pk.FinitePOVM(2, space, tuple((pt, el) for pt in points))

        scheme = pk.FiniteMixtureScheme([(0.25, uniform(short)), (0.75, uniform(long))])
        points = scheme.outcome_points([0, 1, 0])
        assert points.shape == (3, 3) + np.shape(short[0])
        assert np.array_equal(points[0], np.array(short + short[:1], dtype=float))
        assert np.array_equal(points[1], np.array(long, dtype=float))
        assert np.array_equal(points[2], points[0])
        stacked, elements = scheme.members([0, 1, 0])
        assert np.array_equal(stacked, points)
        assert np.array_equal(elements[0, :2], uniform(short).elements)
        assert not elements[0, 2:].any()
        assert np.array_equal(elements[1], uniform(long).elements)
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        probs = scheme.member_probabilities([0, 1], rho)
        assert np.allclose(probs, [[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("space", [LABELS, CIRCLE, SPHERE])
    def test_deterministic_average_is_the_sum_over_terms(self, rng, space):
        # one stacked Born table and one region mask over all T K entries,
        # against one region probability per term
        lam = [0.2, 0.5, 0.3]
        terms = [
            pk.FinitePOVM(3, space, tuple(zip(random_points(rng, space, n),
                                              pk.random_povm(rng, 3, n).elements)))
            for n in (2, 5, 3)
        ]
        scheme = pk.FiniteMixtureScheme(list(zip(lam, terms)))
        rho = pk.random_density_matrix(rng, 3)
        for region in MIXTURE_REGIONS[space]:
            value, _ = scheme.average_region_probability(rho, region)
            oracle = sum(w * pk.probability_of_region(p, rho, region) for w, p in zip(lam, terms))
            assert value == pytest.approx(oracle, rel=0, abs=1e-15)


def two_povms():
    """The projective measurement along z and a one-outcome POVM."""
    z_basis = ((Z_AXIS, np.diag([1.0, 0.0])), ((0.0, 0.0, -1.0), np.diag([0.0, 1.0])))
    return (pk.FinitePOVM(2, SPHERE, z_basis),
            pk.FinitePOVM(2, SPHERE, (((1.0, 0.0, 0.0), np.eye(2)),)))


class TestFiniteMixtureInputs:
    @pytest.mark.parametrize("weights", [(1.5, -0.5), (np.nan, 1.0), (0.5, np.inf)])
    def test_weights_finite_and_nonnegative(self, weights):
        a, b = two_povms()
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            pk.FiniteMixtureScheme(list(zip(weights, (a, b))))

    def test_members_are_povms(self):
        a, _ = two_povms()
        not_psd = pk.FinitePOVM(2, SPHERE, ((Z_AXIS, np.eye(2)),
                                            ((1.0, 0.0, 0.0), np.diag([1.0, -1.0]))))
        with pytest.raises(pk.InvalidPOVM):
            pk.FiniteMixtureScheme([(0.5, a), (0.5, not_psd)])
        qutrit = pk.FinitePOVM(3, SPHERE, ((Z_AXIS, np.eye(3)),))
        with pytest.raises(pk.DimensionMismatch):
            pk.FiniteMixtureScheme([(0.5, a), (0.5, qutrit)])

    @pytest.mark.parametrize("call", [
        lambda s, x: s.member(x),
        lambda s, x: s.members([0, x]),
        lambda s, x: s.member_probabilities([x, 0], np.eye(2) / 2),
        lambda s, x: s.outcome_points([x]),
    ], ids=["member", "members", "member_probabilities", "outcome_points"])
    def test_mixing_parameter_is_a_term_index(self, call):
        a, b = two_povms()
        scheme = pk.FiniteMixtureScheme([(0.25, a), (0.75, b)])
        for x in (-1, 1.7, 2, np.nan, np.inf):
            with pytest.raises(ValueError, match="term index in 0..1"):
                call(scheme, x)
        call(scheme, 1.0)  # records store x as a float
        assert scheme.member(1.0).elements.shape == (1, 2, 2)  # the term's own entries

    def test_state_of_another_dimension(self):
        a, b = two_povms()
        scheme = pk.FiniteMixtureScheme([(0.25, a), (0.75, b)])
        with pytest.raises(pk.DimensionMismatch):
            scheme.member_probabilities([0, 1], np.eye(3) / 3)


@pytest.mark.parametrize("name", ["spin", "phase:2", "phase:3"])
@pytest.mark.parametrize("path", [
    lambda c, s, rho, r: c.region_probability(rho, r),
    lambda c, s, rho, r: s.average_region_probability(rho, r),
    lambda c, s, rho, r: s.average_region_probability(rho, r, "mc", 10, pk.make_rng(0)),
    lambda c, s, rho, r: pk.FiniteMixtureScheme([(1.0, s.member(s.mixing_nodes()[0][0]))])
    .average_region_probability(rho, r),
    lambda c, s, rho, r: pk.verify_scheme_equivalence(c, s, [rho], [r]),
    lambda c, s, rho, r: pk.sample_direct(c, rho, 10, seed=0),
    lambda c, s, rho, r: pk.sample_two_stage(s, rho, 10, seed=0),
    lambda c, s, rho, r: pk.BayesGainSpec("uniform_circle", "cosine", rho).fiducial(c.dim),
    lambda c, s, rho, r: pk.estimate_expectation(
        pk.sample_direct(c, np.eye(c.dim) / c.dim, 10, seed=0), c.dual(np.eye(c.dim)), rho),
], ids=["continuous", "det", "mc", "mixture-det", "equivalence", "direct", "two-stage",
        "fiducial", "estimate"])
def test_state_of_another_dimension(name, path):
    # one check serves the continuous POVM, every scheme average, both
    # samplers, the merit fiducial and the estimate's exact value
    c, s = pk.named_family(name)
    rho = np.eye(c.dim + 1) / (c.dim + 1)
    match = f"state dimension {c.dim + 1} != POVM dimension {c.dim}"
    with pytest.raises(pk.DimensionMismatch, match=match):
        path(c, s, rho, Region.full(c.space))


@pytest.mark.parametrize("name", ["spin", "phase:3"])
@pytest.mark.parametrize("path, what", [
    (lambda c, s, rho, r: c.region_probability(rho, r), "POVM and region"),
    (lambda c, s, rho, r: s.average_region_probability(rho, r), "scheme and region"),
    (lambda c, s, rho, r: s.average_region_probability(rho, r, "mc", 10, pk.make_rng(0)),
     "scheme and region"),
    (lambda c, s, rho, r: pk.verify_scheme_equivalence(c, s, [rho], [r]), "POVM and region"),
    (lambda c, s, rho, r: pk.verify_scheme_equivalence(c, s, [rho], [r], "mc", 10, 0),
     "POVM and region"),
], ids=["continuous", "det", "mc", "equivalence-det", "equivalence-mc"])
def test_region_of_another_space(name, path, what):
    # an equivalence call checks each region's space once, as the public
    # methods do
    c, s = pk.named_family(name)
    other = CIRCLE if c.space == SPHERE else SPHERE
    with pytest.raises(pk.SpaceMismatch, match=f"{what} live on different outcome spaces"):
        path(c, s, np.eye(c.dim) / c.dim, Region.full(other))


EQUIVALENCE_PATHS = [
    lambda c, s, rho, r: pk.verify_scheme_equivalence(c, s, [rho], [r]),
    lambda c, s, rho, r: pk.verify_scheme_equivalence(c, s, [rho], [r], "mc", 10, 0),
]


@pytest.mark.parametrize("path", [
    lambda c, s, rho, r: c.region_operator(r),
    lambda c, s, rho, r: s.average_region_probability(rho, r),
    *EQUIVALENCE_PATHS,
], ids=["operator", "det", "equivalence-det", "equivalence-mc"])
def test_overlapping_caps(path):
    # every closed form over a cap union needs disjoint caps; each public
    # path tests its region before it integrates (region_probability:
    # TestSpinDirection)
    c, s = pk.named_family("spin")
    overlapping = Region.of_caps([(Z_AXIS, np.pi / 2), ((1.0, 0.0, 0.0), np.pi / 2)])
    with pytest.raises(ValueError, match="pairwise disjoint caps"):
        path(c, s, np.eye(2) / 2, overlapping)


def test_overlapping_caps_by_membership():
    # the Monte Carlo average and a finite mixture test membership point by
    # point, so overlapping caps are fine there
    _, s = pk.named_family("spin")
    rho = pk.random_density_matrix(np.random.default_rng(8), 2)
    overlapping = Region.of_caps([(Z_AXIS, np.pi / 2), ((1.0, 0.0, 0.0), np.pi / 2)])
    value, se = s.average_region_probability(rho, overlapping, "mc", 4000, pk.make_rng(0))
    assert se > 0 and 0.0 <= value <= 1.0
    member = s.member(s.mixing_nodes()[0][0])
    exact, _ = pk.FiniteMixtureScheme([(1.0, member)]).average_region_probability(rho, overlapping)
    assert exact == pytest.approx(pk.probability_of_region(member, rho, overlapping), abs=1e-15)


@pytest.mark.parametrize("name", ["spin", "phase:3"])
@pytest.mark.parametrize("path", [
    lambda c, s, rho, r: c.region_probability(rho, r),
    lambda c, s, rho, r: s.average_region_probability(rho, r),
    lambda c, s, rho, r: s.average_region_probability(rho, r, "mc", 10, pk.make_rng(0)),
    *EQUIVALENCE_PATHS,
], ids=["continuous", "det", "mc", "equivalence-det", "equivalence-mc"])
@pytest.mark.parametrize("fault, match", [
    ("negative", "positive semidefinite"), ("skew", "not Hermitian"), ("trace", "trace"),
])
def test_non_state(name, path, fault, match):
    c, s = pk.named_family(name)
    rho = np.eye(c.dim, dtype=complex) / c.dim
    if fault == "negative":
        rho[0, 0] += 1.0
        rho[1, 1] -= 1.0
    elif fault == "skew":
        rho[0, 1] = 0.5 / c.dim
    else:
        rho *= 2.0
    with pytest.raises(pk.NonHermitianInput, match=match):
        path(c, s, rho, Region.full(c.space))


@pytest.mark.parametrize("path", EQUIVALENCE_PATHS, ids=["det", "mc"])
@pytest.mark.parametrize("state_dim, match", [
    (3, "state dimension 3 != POVM dimension 4"), (4, "state dimension 4 != POVM dimension 3"),
])
def test_scheme_of_another_dimension(path, state_dim, match):
    # the state is checked once, against the family and the scheme
    c, s = pk.phase_povm(3), pk.phase_scheme(4)
    with pytest.raises(pk.DimensionMismatch, match=match):
        path(c, s, np.eye(state_dim) / state_dim, Region.full(CIRCLE))


@pytest.mark.parametrize("cls", [pk.DesignScheme, pk.FiniteMixtureScheme])
def test_scheme_subclasses_define_only_init(cls):
    # every method lives on RandomizedScheme, over one layout; a subclass
    # only builds that layout
    defined = {
        name for name, value in vars(cls).items()
        if not (name.startswith("__") and name.endswith("__")) or callable(value)
    }
    assert defined == {"__init__"}
