import numpy as np
import pytest

import povmkit as pk
from povmkit.catalog import PAULI_X, PAULI_Y, PAULI_Z, TETRAHEDRON_AXES
from povmkit.errors import (
    DimensionMismatch,
    EmptySample,
    InvalidPOVM,
    NotInformationallyComplete,
    SpaceMismatch,
)
from povmkit.outcomes import CIRCLE, SPHERE, FiniteLabels
from povmkit.sampling import OutcomeRecords

from oracles import (
    kets_expectation,
    phase_dual_closed_form,
    phase_kets,
    sic_dual_closed_form,
    spin_dual_closed_form,
    spin_kets,
)

FAMILIES = ["spin"] + [f"phase:{d}" for d in range(2, 17)]


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_toeplitz(rng, d):
    """A random Hermitian with constant diagonals: the phase family's span."""
    t = rng.normal(size=d) + 1j * rng.normal(size=d)
    t[0] = t[0].real
    k = np.subtract.outer(np.arange(d), np.arange(d))  # row minus column
    return np.where(k <= 0, t[np.abs(k)], t[np.abs(k)].conj())


def family_case(name, rng, n=200):
    """The continuous POVM of a family name, random outcome points, their
    oracle kets with squared norm, and a random target in its span."""
    c, _ = pk.named_family(name)
    if name == "spin":
        points = rng.normal(size=(n, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        return c, points, spin_kets(points), 1, random_hermitian(rng, 2)
    points = rng.uniform(0.0, 2 * np.pi, n)
    return c, points, phase_kets(c.dim, points), c.dim, random_toeplitz(rng, c.dim)


class TestInformationalCompleteness:
    def test_sic_complete(self):
        assert pk.is_informationally_complete(pk.sic_tetrahedron_povm())

    def test_projective_incomplete(self):
        assert not pk.is_informationally_complete(pk.projective_basis_povm(2))

    def test_trivial_incomplete(self):
        p = pk.FinitePOVM(
            dim=2, space=FiniteLabels(1), entries=((0, np.eye(2, dtype=complex)),)
        )
        assert not pk.is_informationally_complete(p)

    def test_random_large_povm_complete(self, rng):
        p = pk.random_povm(rng, 2, 6, element_rank=1)
        assert pk.is_informationally_complete(p)


class TestFiniteDuals:
    def test_sic_identity_all_ones(self):
        dual = pk.dual_coefficients(pk.sic_tetrahedron_povm(), np.eye(2, dtype=complex))
        assert np.allclose(dual.coefficients, np.ones(4))

    @pytest.mark.parametrize("name,target", [
        ("X", PAULI_X), ("Y", PAULI_Y), ("Z", PAULI_Z),
    ])
    def test_sic_pauli_duals(self, name, target):
        sic = pk.sic_tetrahedron_povm()
        dual = pk.dual_coefficients(sic, target)
        rebuilt = sum(c * el for c, el in zip(dual.coefficients, sic.elements))
        assert np.linalg.norm(rebuilt - target) <= 1e-10
        assert np.allclose(
            dual.coefficients, sic_dual_closed_form(TETRAHEDRON_AXES, target)
        )

    def test_invalid_povm_rejected(self):
        # a SIC scaled by 1.4 is no POVM: its elements sum to 1.4 I
        sic = pk.sic_tetrahedron_povm()
        scaled = sic.replace_elements([1.4 * el for el in sic.elements])
        with pytest.raises(InvalidPOVM):
            pk.dual_coefficients(scaled, PAULI_Z)

    def test_incomplete_povm_rejected(self, paulis):
        with pytest.raises(NotInformationallyComplete):
            pk.dual_coefficients(pk.projective_basis_povm(2), paulis[0])

    def test_minimum_norm_choice_reproduces_target(self, rng):
        p = pk.random_povm(rng, 2, 7, element_rank=1)  # overcomplete
        a = pk.random_density_matrix(rng, 2) - np.eye(2) / 2
        dual = pk.dual_coefficients(p, a)
        rebuilt = sum(c * el for c, el in zip(dual.coefficients, p.elements))
        assert np.linalg.norm(rebuilt - a) <= 1e-8

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 9), (3, 9), (4, 20)])
    def test_residual_is_summed_in_entry_order(self, d, n):
        # the residual that `tomo --povm` prints: the per-entry sum, bit for bit
        rng = np.random.default_rng([61, d, n])
        p = pk.random_povm(rng, d, n)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g + g.conj().T
        dual = pk.dual_coefficients(p, a)
        rebuilt = sum(c * el for c, el in zip(dual.coefficients, p.elements))
        assert dual.residual == np.linalg.norm(rebuilt - a)


class TestExpectation:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_kets_oracle(self, name):
        rng = np.random.default_rng(60)
        c, points, kets, ket_norm, _ = family_case(name, rng)
        for _ in range(3):
            a = random_hermitian(rng, c.dim)
            error = np.abs(c.expectation(a, points) - kets_expectation(kets, ket_norm, a)).max()
            assert error <= 1e-12 * (1.0 + np.linalg.norm(a))

    @pytest.mark.parametrize("name", FAMILIES[1:])
    def test_phases_outside_one_turn(self, name):
        rng = np.random.default_rng(63)
        c, _ = pk.named_family(name)
        points = np.concatenate([rng.uniform(-40.0, 0.0, 100), rng.uniform(2 * np.pi, 40.0, 100)])
        a = random_hermitian(rng, c.dim)
        oracle = kets_expectation(phase_kets(c.dim, points), c.dim, a)
        assert np.abs(c.expectation(a, points) - oracle).max() <= 1e-12 * (1.0 + np.linalg.norm(a))

    @pytest.mark.parametrize("name", ["spin", "phase:3"])
    def test_born_is_clipped_expectation(self, name):
        rng = np.random.default_rng(61)
        c, points, kets, ket_norm, _ = family_case(name, rng)
        rho = pk.random_density_matrix(rng, c.dim)
        born = c.born(rho, points)
        assert np.array_equal(born, np.clip(c.expectation(rho, points), 0.0, 1.0))
        assert np.abs(born - kets_expectation(kets, ket_norm, rho)).max() <= 1e-12


class TestFrameDual:
    """The canonical frame dual against the closed-form duals."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_closed_form(self, name):
        rng = np.random.default_rng(62)
        c, points, _, _, target = family_case(name, rng)
        dual = c.dual(target)
        oracle = spin_dual_closed_form if name == "spin" else phase_dual_closed_form
        assert np.abs(dual.evaluate(points) - oracle(target, points)).max() <= 1e-12
        assert c.dual_residual(dual) <= 1e-10

    @pytest.mark.parametrize("name", ["spin", "phase:2", "phase:4"])
    def test_dimension_mismatch(self, name):
        c, _ = pk.named_family(name)
        with pytest.raises(DimensionMismatch):
            c.dual(np.eye(3, dtype=complex))

    def test_finite_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pk.dual_coefficients(pk.sic_tetrahedron_povm(), np.eye(3, dtype=complex))


class TestSpinDual:
    @pytest.mark.parametrize("target", [
        np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z,
         0.2 * np.eye(2) + 0.7 * PAULI_X - 0.1 * PAULI_Y + 0.4 * PAULI_Z,
    ])
    def test_quadrature_residual(self, target):
        dual = pk.spin_dual(target)
        assert pk.spin_direction_povm().dual_residual(dual) <= 1e-9

    def test_identity_dual_is_constant_one(self):
        dual = pk.spin_dual(np.eye(2, dtype=complex))
        pts = np.array([[0, 0, 1.0], [1.0, 0, 0], [0.6, 0, -0.8]])
        assert np.allclose(dual.evaluate(pts), 1.0)


class TestPhaseDual:
    def test_toeplitz_target(self):
        dual = pk.phase_dual(2, PAULI_X)
        assert pk.phase_povm(2).dual_residual(dual) <= 1e-10
        # f(phi) = 2 cos(phi)
        phis = np.array([0.0, np.pi / 2, np.pi])
        assert np.allclose(dual.evaluate(phis), [2.0, 0.0, -2.0], atol=1e-12)

    def test_non_toeplitz_rejected(self):
        with pytest.raises(NotInformationallyComplete):
            pk.phase_dual(2, PAULI_Z)  # diagonal not constant
        off = random_toeplitz(np.random.default_rng(64), 6)
        off[2, 3] += 1e-3
        off[3, 2] += 1e-3
        with pytest.raises(NotInformationallyComplete):
            pk.phase_dual(6, off)


class TestEstimates:
    def test_direct_estimate_within_errors(self, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 100_000, seed=30)
        dual = pk.spin_dual(PAULI_Z)
        rep = pk.estimate_expectation(recs, dual, rho_exact=up)
        assert rep.exact == pytest.approx(1.0)
        assert abs(rep.estimate - rep.exact) <= 5 * rep.std_error
        assert rep.std_error == pytest.approx(np.sqrt(2.0 / 100_000), rel=0.1)

    def test_two_stage_estimate_within_errors(self, up):
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, 100_000, seed=31)
        rep = pk.estimate_expectation(recs, pk.spin_dual(PAULI_Z), rho_exact=up)
        assert abs(rep.estimate - rep.exact) <= 5 * rep.std_error

    def test_identity_estimate_exact(self, plus):
        recs = pk.sample_direct(pk.spin_direction_povm(), plus, 1000, seed=32)
        rep = pk.estimate_expectation(recs, pk.spin_dual(np.eye(2, dtype=complex)))
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.std_error <= 1e-12

    def test_routes_agree(self, plus):
        dual = pk.spin_dual(PAULI_X)
        direct = pk.estimate_expectation(
            pk.sample_direct(pk.spin_direction_povm(), plus, 100_000, seed=33),
            dual,
            rho_exact=plus,
        )
        staged = pk.estimate_expectation(
            pk.sample_two_stage(pk.stern_gerlach_scheme(), plus, 100_000, seed=34),
            dual,
            rho_exact=plus,
        )
        combined = np.hypot(direct.std_error, staged.std_error)
        assert abs(direct.estimate - staged.estimate) <= 5 * combined
        assert direct.exact == staged.exact == pytest.approx(1.0)

    def test_error_scaling(self, up):
        dual = pk.spin_dual(PAULI_Z)
        ratios = []
        for seed in range(5):
            small = pk.estimate_expectation(
                pk.sample_direct(pk.spin_direction_povm(), up, 20_000, seed=seed),
                dual,
            )
            large = pk.estimate_expectation(
                pk.sample_direct(pk.spin_direction_povm(), up, 40_000, seed=50 + seed),
                dual,
            )
            ratios.append(small.std_error / large.std_error)
        assert abs(np.mean(ratios) - np.sqrt(2.0)) <= 0.2 * np.sqrt(2.0)

    def test_empty_sample(self):
        from povmkit.sampling import OutcomeRecords

        empty = OutcomeRecords(space=None, omega=np.empty((0, 3)))
        with pytest.raises(EmptySample):
            pk.estimate_expectation(empty, pk.spin_dual(PAULI_Z))

    def test_phase_records_estimate(self, rng):
        rho = pk.random_density_matrix(rng, 3)
        target = np.zeros((3, 3), dtype=complex)
        target[0, 1] = target[1, 2] = 1.0
        target += target.conj().T
        dual = pk.phase_dual(3, target)
        recs = pk.sample_direct(pk.phase_povm(3), rho, 200_000, seed=35)
        rep = pk.estimate_expectation(recs, dual, rho_exact=rho)
        assert abs(rep.estimate - rep.exact) <= 5 * rep.std_error


class TestRecordSpace:
    def test_sphere_records_with_finite_dual(self, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 100, seed=36)
        dual = pk.dual_coefficients(pk.sic_tetrahedron_povm(), PAULI_Z)
        with pytest.raises(SpaceMismatch):
            pk.estimate_expectation(recs, dual)

    def test_sphere_records_with_phase_dual(self, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 100, seed=37)
        dual = pk.phase_dual(3, np.ones((3, 3), dtype=complex))
        with pytest.raises(SpaceMismatch):
            pk.estimate_expectation(recs, dual)

    def test_circle_records_with_spin_dual(self):
        recs = pk.sample_direct(pk.phase_povm(2), np.eye(2) / 2, 100, seed=38)
        with pytest.raises(SpaceMismatch):
            pk.estimate_expectation(recs, pk.spin_dual(PAULI_Z))

    def test_bare_arrays_on_the_wrong_space(self):
        sphere_points = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SpaceMismatch):
            pk.phase_dual(2, PAULI_X).evaluate(sphere_points)
        with pytest.raises(SpaceMismatch):
            pk.spin_dual(PAULI_Z).evaluate(np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(SpaceMismatch):
            pk.dual_coefficients(pk.sic_tetrahedron_povm(), PAULI_Z).evaluate([0.5, 1.0])

    def test_one_bare_point(self):
        sic = pk.sic_tetrahedron_povm()
        finite = pk.dual_coefficients(sic, PAULI_Z)
        assert np.array_equal(finite.evaluate(sic.points[0]), finite.coefficients[:1])
        family = pk.spin_dual(PAULI_Z)
        assert np.array_equal(family.evaluate(sic.points[0]), family.evaluate(sic.points[:1]))
        assert family.evaluate(sic.points[0]).shape == (1,)

    def test_one_bare_angle(self):
        dual = pk.dual_coefficients(sic_on(CIRCLE, [0.0, 1.0, 2.0, 3.0]), PAULI_Y)
        assert np.array_equal(dual.evaluate(2.0), dual.coefficients[2:3])
        phase = pk.phase_dual(2, PAULI_X)
        assert np.array_equal(phase.evaluate(np.pi), phase.evaluate([np.pi]))

    @pytest.mark.parametrize("label", [-1, 4, 7])
    def test_labels_out_of_range(self, label):
        from povmkit.sampling import OutcomeRecords

        dual = pk.dual_coefficients(pk.sic_tetrahedron_povm(), PAULI_Z)
        recs = OutcomeRecords(space=None, omega=np.array([0, label]))
        with pytest.raises(SpaceMismatch, match="outside 0..3"):
            pk.estimate_expectation(recs, dual)

    def test_apparatus_index_preferred(self):
        # two-stage records of a finite POVM carry the entry index i
        sic = pk.sic_tetrahedron_povm()
        recs = pk.sample_two_stage(pk.FiniteMixtureScheme([(1.0, sic)]), np.eye(2) / 2, 500, 39)
        dual = pk.dual_coefficients(sic, np.eye(2, dtype=complex))
        rep = pk.estimate_expectation(recs, dual)
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)


def sic_on(space, points, allow_duplicates=False):
    """The SIC elements at other outcome points."""
    sic = pk.sic_tetrahedron_povm()
    return pk.FinitePOVM(
        dim=2, space=space, entries=tuple(zip(points, sic.elements)),
        allow_duplicates=allow_duplicates,
    )


class TestPointMatching:
    """A finite dual evaluates outcome points at the entry they belong to."""

    def test_stern_gerlach_records_rejected(self, up):
        # two-stage records carry i in {0, 1}, which must not be read as
        # SIC entries: their outcome points are no SIC points
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, 1000, seed=40)
        for target in (PAULI_X, PAULI_Z):
            dual = pk.dual_coefficients(pk.sic_tetrahedron_povm(), target)
            with pytest.raises(SpaceMismatch, match="not an outcome point"):
                pk.estimate_expectation(recs, dual)

    def test_points_not_indices_decide(self):
        sic = pk.sic_tetrahedron_povm()
        dual = pk.dual_coefficients(sic, PAULI_Z)
        order = np.array([2, 0, 3, 3, 1])
        recs = OutcomeRecords(
            space=SPHERE, omega=np.array(sic.points)[order], i=np.zeros(5, dtype=int)
        )
        assert np.array_equal(dual.evaluate(recs), dual.coefficients[order])

    def test_sphere_points_within_tolerance(self):
        sic = pk.sic_tetrahedron_povm()
        dual = pk.dual_coefficients(sic, PAULI_X)
        near = np.array(sic.points) + 1e-12
        assert np.array_equal(dual.evaluate(near), dual.coefficients)
        with pytest.raises(SpaceMismatch):
            dual.evaluate(np.array(sic.points) + 1e-6)

    def test_circle_points_wrap_around(self):
        angles = [0.0, 1.0, 2.0, 3.0]
        dual = pk.dual_coefficients(sic_on(CIRCLE, angles), PAULI_Y)
        omega = np.array([2 * np.pi - 1e-12, 1.0, 3.0 + 1e-12, 2.0])
        assert np.array_equal(dual.evaluate(omega), dual.coefficients[[0, 1, 3, 2]])
        with pytest.raises(SpaceMismatch):
            dual.evaluate(np.array([0.5]))

    def test_large_record_sets_match_in_chunks(self):
        sic = pk.sic_tetrahedron_povm()
        dual = pk.dual_coefficients(sic, PAULI_Z)
        index = np.random.default_rng(41).integers(0, 4, 40_000)
        values = dual.evaluate(np.array(sic.points)[index])
        assert np.array_equal(values, dual.coefficients[index])

    def test_shared_points_rejected(self):
        sic = pk.sic_tetrahedron_povm()
        pts = [sic.points[0], sic.points[0], sic.points[2], sic.points[3]]
        dual = pk.dual_coefficients(sic_on(SPHERE, pts, allow_duplicates=True), PAULI_Z)
        assert np.array_equal(dual.evaluate(np.array(pts[2:])), dual.coefficients[2:])
        with pytest.raises(SpaceMismatch, match="share"):
            dual.evaluate(np.array(pts[:1]))

    def test_label_povm_points_are_labels(self):
        dual = pk.dual_coefficients(sic_on(FiniteLabels(4), range(4)), PAULI_Z)
        labels = np.array([3, 1, 1, 0])
        assert np.array_equal(dual.evaluate(labels), dual.coefficients[labels])
        with pytest.raises(SpaceMismatch):
            dual.evaluate(np.array([0.0, 1.0]))

    def test_label_povm_labels_matched(self):
        # the entry labelled 5 is entry 0, whatever its position
        dual = pk.dual_coefficients(sic_on(FiniteLabels(6), [5, 3, 1, 0]), PAULI_X)
        labels = np.array([0, 5, 3, 1, 5])
        assert np.array_equal(dual.evaluate(labels), dual.coefficients[[3, 0, 1, 2, 0]])
        with pytest.raises(SpaceMismatch, match=r"outside \[0, 1, 3, 5\]"):
            dual.evaluate(np.array([2]))
        rho = pk.random_density_matrix(np.random.default_rng(2), 2)
        p = sic_on(FiniteLabels(4), [1, 2, 3, 0])
        recs = pk.sample_two_stage(pk.FiniteMixtureScheme([(1.0, p)]), rho, 20_000, seed=42)
        rep = pk.estimate_expectation(recs, pk.dual_coefficients(p, PAULI_X), rho_exact=rho)
        assert abs(rep.estimate - rep.exact) <= 5 * rep.std_error
