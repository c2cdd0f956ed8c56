import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmkit as pk
from povmkit.errors import DimensionMismatch, SpaceMismatch
from povmkit.outcomes import SPHERE, FiniteLabels, Region


def make_state(rng, d=2):
    return pk.random_density_matrix(rng, d)


class TestValidate:
    def test_projective_passes(self):
        assert pk.validate_povm(pk.projective_basis_povm(2)).passed

    def test_coin_flip_passes(self):
        assert pk.validate_povm(pk.coin_flip_povm()).passed

    def test_incomplete_fails_with_sqrt2_defect(self, up):
        p = pk.FinitePOVM(
            dim=2,
            space=FiniteLabels(2),
            entries=((0, up), (1, up)),
        )
        rep = pk.validate_povm(p)
        assert not rep.passed
        assert np.isclose(rep.completeness_defect, np.sqrt(2.0))

    def test_non_psd_fails(self, paulis):
        x = paulis[0]
        p = pk.FinitePOVM(
            dim=2,
            space=FiniteLabels(2),
            entries=((0, (np.eye(2) + 1.5 * x) / 2), (1, (np.eye(2) - 1.5 * x) / 2)),
        )
        rep = pk.validate_povm(p)
        assert not rep.passed and not rep.psd_ok and rep.complete_ok

    def test_duplicate_points_flagged(self, up, down):
        p = pk.FinitePOVM(dim=2, space=FiniteLabels(2), entries=((0, up), (0, down)))
        assert not pk.validate_povm(p).passed
        ok = pk.FinitePOVM(
            dim=2, space=FiniteLabels(2), entries=((0, up), (0, down)),
            allow_duplicates=True,
        )
        assert pk.validate_povm(ok).passed

    def test_dimension_mismatch(self):
        p = pk.FinitePOVM(
            dim=2,
            space=FiniteLabels(2),
            entries=((0, np.eye(2) / 2), (1, np.eye(2) / 2)),
        )
        object.__setattr__(p, "dim", 3)
        with pytest.raises(DimensionMismatch):
            pk.validate_povm(p)


class TestBorn:
    def test_projective_mixed(self, maximally_mixed):
        probs = pk.born_probabilities(pk.projective_basis_povm(2), maximally_mixed)
        assert np.allclose(probs, [0.5, 0.5])

    def test_sic_mixed(self, maximally_mixed):
        probs = pk.born_probabilities(pk.sic_tetrahedron_povm(), maximally_mixed)
        assert np.allclose(probs, [0.25] * 4)

    def test_coin_flip_any_state(self, rng):
        probs = pk.born_probabilities(pk.coin_flip_povm(), make_state(rng))
        assert np.allclose(probs, [0.5, 0.5])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one(self, seed, d, n):
        rng = np.random.default_rng(seed)
        p = pk.random_povm(rng, d, n)
        probs = pk.born_probabilities(p, make_state(rng, d))
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestRegionProbability:
    def test_stern_gerlach_member_cap(self, up, padded_member):
        cap = Region.of_caps([((0, 0, 1.0), np.pi / 3)])
        assert np.isclose(pk.probability_of_region(padded_member, up, cap), 1.0)

    def test_stern_gerlach_member_band(self, up, padded_member):
        band = Region.of_caps(
            [((0, 0, 1.0), np.pi / 3), ((0, 0, -1.0), np.pi / 3)], complement=True
        )
        assert pk.probability_of_region(padded_member, up, band) == 0.0

    def test_full_space(self, rng):
        p = pk.random_povm(rng, 2, 5)
        rho = make_state(rng)
        full = Region.full(p.space)
        assert np.isclose(pk.probability_of_region(p, rho, full), 1.0)

    def test_space_mismatch(self, up):
        p = pk.projective_basis_povm(2)
        with pytest.raises(SpaceMismatch):
            pk.probability_of_region(p, up, Region.full(SPHERE))

    def test_additivity_over_disjoint(self, rng, up):
        sic = pk.sic_tetrahedron_povm()
        a = Region.of_caps([(tuple(sic.points[0]), 0.3)])
        b = Region.of_caps([(tuple(sic.points[1]), 0.3)])
        union = Region.of_caps(
            [(tuple(sic.points[0]), 0.3), (tuple(sic.points[1]), 0.3)]
        )
        rho = make_state(rng)
        pa = pk.probability_of_region(sic, rho, a)
        pb = pk.probability_of_region(sic, rho, b)
        pu = pk.probability_of_region(sic, rho, union)
        assert pa + pb == pytest.approx(pu, abs=0)
