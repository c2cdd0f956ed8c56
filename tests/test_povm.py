import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmkit as pk
from povmkit import operators as op
from povmkit.errors import DimensionMismatch, InvalidDimension, NonHermitianInput, SpaceMismatch
from povmkit.outcomes import CIRCLE, SPHERE, FiniteLabels, Region
from povmkit.povm import check_povm

from oracles import validate_per_element


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


NEAR_DEGENERATE = ("random", "psd_edge", "complete_edge", "skew", "duplicate")


def near_degenerate_povm(rng, d, n, rank, kind):
    """A random POVM with elements of rank ``rank``, moved to the edge of
    one axiom: a lowest eigenvalue near ``-TOL_PSD``, a completeness
    defect near ``TOL_COMPLETE``, a skew part near ``TOL_HERM`` or a
    repeated label."""
    els = np.array(pk.random_povm(rng, d, n, rank).elements)
    labels = list(range(n))
    scale = 1.0 + np.linalg.norm(els[0])
    if kind == "psd_edge":
        w, v = np.linalg.eigh(els[0])
        w[0] = -1e-9 * scale * rng.uniform(0.5, 1.5)
        els[0] = (v * w) @ v.conj().T
    elif kind == "complete_edge":
        els *= 1.0 + rng.uniform(-2e-9, 2e-9) / np.sqrt(d)
    elif kind == "skew":
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        skew = (g - g.conj().T) / np.linalg.norm(g - g.conj().T)
        els[0] = els[0] + rng.uniform(0.25, 2.0) * 0.5e-10 * scale * skew
    elif kind == "duplicate":
        labels[-1] = labels[0]
    return pk.FinitePOVM(d, FiniteLabels(n), tuple(zip(labels, els)))


class TestStackedValidation:
    """`validate_povm` takes the whole element stack at once, on every call."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_element_oracle(self, seed, d, data):
        rank = data.draw(st.integers(1, d), label="rank")
        n = data.draw(st.integers(max(2, -(-d // rank)), d * d + 1), label="n")
        kind = data.draw(st.sampled_from(NEAR_DEGENERATE), label="kind")
        p = near_degenerate_povm(np.random.default_rng(seed), d, n, rank, kind)
        rep = pk.validate_povm(p)
        herm, margins, defect, dupes, passed = validate_per_element(p)
        assert np.allclose(rep.hermiticity_defects, herm, rtol=1e-15, atol=0)
        assert np.allclose(rep.psd_margins, margins, rtol=1e-15, atol=0)
        assert np.isclose(rep.completeness_defect, defect, rtol=1e-15, atol=0)
        assert list(rep.duplicate_points) == dupes
        assert rep.passed == passed

    def test_one_eigh_and_no_cache(self, monkeypatch):
        eighs, norms = [], []
        eigh, norm = np.linalg.eigh, np.linalg.norm

        def counted_eigh(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counted_norm(a, *args, **kwargs):
            norms.append(np.shape(a))
            return norm(a, *args, **kwargs)

        small = pk.random_povm(np.random.default_rng(1), 3, 4)
        large = pk.random_povm(np.random.default_rng(2), 3, 40)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        counts = []
        # the second call on the same object recomputes everything
        for check in (pk.validate_povm, check_povm):
            for p in (small, large, large):
                eighs.clear()
                norms.clear()
                check(p)
                assert eighs == [(len(p), 3, 3)]
                counts.append(len(norms))
        assert len(set(counts)) == 1


class TestStorage:
    def test_one_operator_check_per_povm(self, monkeypatch):
        calls = []
        as_operator = op.as_operator

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return as_operator(a, *args, **kwargs)

        entries = pk.random_povm(np.random.default_rng(3), 3, 7).entries
        monkeypatch.setattr(op, "as_operator", counted)
        p = pk.FinitePOVM(3, FiniteLabels(7), entries)
        assert calls == [(7, 3, 3)]
        calls.clear()
        p.replace_elements(p.elements)
        assert calls == [(7, 3, 3)]

    def test_caller_arrays_stay_writeable_and_apart(self):
        a = np.eye(2, dtype=complex) / 2
        p = pk.FinitePOVM(2, FiniteLabels(2), ((0, a), (1, a.copy())))
        assert a.flags.writeable
        a[0, 0] = 5
        assert p.elements[0][0, 0] == 0.5
        stack = np.array(p.elements)
        q = p.replace_elements(stack)
        stack[0, 0, 0] = 5
        assert q.elements[0, 0, 0] == 0.5
        for arr in (p.elements, p.points, q.elements):
            assert not arr.flags.writeable

    def test_views_of_the_storage(self, up, down):
        v = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        p = pk.FinitePOVM(2, SPHERE, ((v[0], up), (v[1], down)))
        assert p.elements.shape == (2, 2, 2) and p.points.shape == (2, 3)
        assert [np.array_equal(a, b) for a, b in zip(p.elements, (up, down))] == [True, True]
        for (pt, el), want_pt, want_el in zip(p.entries, p.points, p.elements):
            assert np.shares_memory(pt, p.points) and np.shares_memory(el, p.elements)
            assert np.array_equal(pt, want_pt) and np.array_equal(el, want_el)
        circle = pk.FinitePOVM(2, CIRCLE, ((-0.5, up), (7.0, down)))
        assert circle.points.tolist() == [2 * np.pi - 0.5, 7.0 - 2 * np.pi]

    def test_element_of_another_dimension_is_named(self, up):
        with pytest.raises(InvalidDimension, match="expected dimension 2, got 3"):
            pk.FinitePOVM(2, FiniteLabels(2), ((0, up), (1, np.eye(3) / 2)))
        with pytest.raises(InvalidDimension, match="expected dimension 2, got 3"):
            pk.FinitePOVM(2, FiniteLabels(2), ((0, np.eye(3) / 2), (1, np.eye(3) / 2)))

    def test_points_are_checked(self, up, down):
        with pytest.raises(ValueError, match="label 2 outside"):
            pk.FinitePOVM(2, FiniteLabels(2), ((0, up), (2, down)))
        with pytest.raises(ValueError, match="deviates"):
            pk.FinitePOVM(2, SPHERE, (((0, 0, 1.0), up), ((0, 0, -1.1), down)))
        with pytest.raises(ValueError, match="points of shape"):
            pk.FinitePOVM(2, CIRCLE, (((0.0, 1.0), up), ((1.0, 2.0), down)))
        with pytest.raises(ValueError, match="2 elements for 3 points"):
            pk.FinitePOVM(2, FiniteLabels(3), ((0, up), (1, down), (2, up))).replace_elements([up, down])


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

    @pytest.mark.parametrize("rho, match", [
        (np.diag([2.0, -1.0]), "not positive semidefinite"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(2), "trace"),
    ], ids=["non-psd", "non-hermitian", "trace-two"])
    def test_rejects_non_state(self, rho, match):
        cap = Region.of_caps([((0.0, 0.0, 1.0), np.pi / 2)])
        sic = pk.sic_tetrahedron_povm()
        with pytest.raises(NonHermitianInput, match=match):
            pk.born_probabilities(sic, rho)
        with pytest.raises(NonHermitianInput, match=match):
            pk.probability_of_region(sic, rho, cap)

    def test_rejects_state_of_other_dimension(self):
        with pytest.raises(DimensionMismatch, match="state dimension 3 != POVM dimension 2"):
            pk.born_probabilities(pk.sic_tetrahedron_povm(), np.eye(3) / 3)


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
