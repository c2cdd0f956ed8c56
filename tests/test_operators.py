import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmkit as pk
from povmkit import operators as op
from povmkit.errors import DimensionMismatch, InvalidDimension, NonHermitianInput


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


class TestEigh:
    def test_diag(self):
        w, v = op.eigh(np.diag([1.0, 0.0]))
        assert np.allclose(w, [1.0, 0.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self, paulis):
        w, _ = op.eigh(paulis[0])
        assert np.allclose(w, [1.0, -1.0])

    def test_identity_three(self):
        w, _ = op.eigh(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            op.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed, d):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, d)
        w, v = op.eigh(a)
        assert np.all(np.diff(w) <= 1e-12)
        err = op.frobenius(a - v @ np.diag(w) @ v.conj().T)
        assert err <= 1e-10 * (1 + op.frobenius(a))
        assert op.frobenius(v.conj().T @ v - np.eye(d)) <= 1e-10


class TestPsd:
    """PSD boundary cases, through the state check on unit-trace inputs."""

    def test_projector(self, up):
        assert np.array_equal(op.check_density_matrix(up), up)

    def test_pauli_z(self, paulis):
        with pytest.raises(NonHermitianInput, match="not positive semidefinite"):
            op.check_density_matrix((np.eye(2) + 1.5 * paulis[2]) / 2)

    def test_near_boundary(self, paulis):
        op.check_density_matrix((np.eye(2) + 0.999 * paulis[0]) / 2)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_sum_closure(self, seed, d):
        rng = np.random.default_rng(seed)
        g1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a, b = g1 @ g1.conj().T, g2 @ g2.conj().T
        for m in (a, b, a + b):
            op.check_density_matrix(m / np.trace(m).real)


class TestCheckDensityMatrix:
    def test_trace_and_dimension(self, up):
        with pytest.raises(NonHermitianInput, match="state trace 2.0 differs from 1"):
            op.check_density_matrix(2 * up)
        assert np.array_equal(op.check_density_matrix(up, 2), up)
        with pytest.raises(DimensionMismatch, match=r"^state dimension 3 != POVM dimension 2$"):
            op.check_density_matrix(np.eye(3) / 3, 2)

    def test_one_eigvalsh_and_no_eigh(self, monkeypatch):
        calls = []

        def counted(name):
            solver = getattr(np.linalg, name)
            return lambda a: calls.append(name) or solver(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh"))
        rho = pk.random_density_matrix(np.random.default_rng(3), 4)
        assert np.array_equal(op.check_density_matrix(rho, 4), (rho + rho.conj().T) / 2)
        assert calls == ["eigvalsh"]


class TestCoordinates:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_isometry(self, seed, d):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, d)
        v = op.hermitian_to_coords(a)
        assert np.allclose(op.coords_to_hermitian(v, d), a)
        assert np.isclose(np.linalg.norm(v), op.frobenius(a))
        # a stack maps slice by slice, bit for bit
        stack = np.stack([a, random_hermitian(rng, d), -a])
        coords = op.hermitian_to_coords(stack)
        back = op.coords_to_hermitian(coords, d)
        assert coords.shape == (3, d * d) and back.shape == (3, d, d)
        for k in range(3):
            assert np.array_equal(coords[k], op.hermitian_to_coords(stack[k]))
            assert np.array_equal(back[k], op.coords_to_hermitian(coords[k], d))

    def test_basis_orthonormal(self):
        basis = op.hermitian_basis(3)
        gram = np.array(
            [[np.trace(x @ y).real for y in basis] for x in basis]
        )
        assert np.allclose(gram, np.eye(9))


class TestSupport:
    def test_rank_of_projector(self, up):
        rank, vecs, vals = op.support(up[None])
        assert rank.tolist() == [1] and vecs.shape == (1, 2, 1)
        assert np.isclose(vals[0, 0], 1.0)

    def test_band_ambiguity(self):
        from povmkit.errors import NumericalRankAmbiguity

        a = np.diag([1.0, 5e-8])[None]  # inside the 16x band around 1e-8
        with pytest.raises(NumericalRankAmbiguity):
            op.support(a, check_band=True)
        # without the band check the small eigenvalue counts as support
        assert op.support(a)[0].tolist() == [2]

    def test_takes_a_stack_only(self, up):
        with pytest.raises(InvalidDimension):
            op.support(up)

    def test_zero_slots_pad_to_one_column(self):
        rank, vecs, vals = op.support(np.zeros((2, 3, 3)))
        assert rank.tolist() == [0, 0]
        assert vecs.shape == (2, 3, 1) and not vecs.any()
        assert np.array_equal(vals, np.ones((2, 1)))


def random_psd(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T * rng.uniform(0.1, 3.0)


class TestStackedSupport:
    """A stack (n, d, d) gets one check and one eigendecomposition, padded
    to the largest rank; each slot's support must come out exactly as a
    stack of that slot alone gives it."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("check_band", [False, True])
    def test_slices_match_single_calls_bit_for_bit(self, d, check_band):
        rng = np.random.default_rng(d)
        stack = np.array([random_psd(rng, d, r) for r in range(d + 1)])
        rank, vecs, vals = op.support(stack, check_band=check_band)
        assert rank.tolist() == list(range(d + 1))
        assert vecs.shape == (d + 1, d, d) and vals.shape == (d + 1, d)
        for r, a in enumerate(stack):
            one_rank, one_vecs, one_vals = op.support(a[None], check_band=check_band)
            assert one_rank.tolist() == [r] and one_vecs.shape == (1, d, max(r, 1))
            assert np.array_equal(vecs[r, :, :r], one_vecs[0, :, :r])
            assert np.array_equal(vals[r, :r], one_vals[0, :r])
            # beyond the rank: zero columns and unit values
            assert not vecs[r, :, r:].any() and not one_vecs[0, :, r:].any()
            assert np.all(vals[r, r:] == 1.0) and np.all(one_vals[0, r:] == 1.0)

    @pytest.mark.parametrize("d", [2, 5])
    def test_slices_match_one_matrix_eigh(self, d):
        rng = np.random.default_rng(10 + d)
        stack = np.array([random_psd(rng, d, r) for r in range(d + 1)])
        rank, vecs, vals = op.support(stack)
        for a, r, v_pad, w_pad in zip(stack, rank.tolist(), vecs, vals):
            w, v = op.eigh(a)
            assert np.array_equal(w_pad[:r], w[:r]) and np.array_equal(v_pad[:, :r], v[:, :r])

    def test_eigh_takes_one_matrix_only(self):
        stack = np.array([np.eye(2), np.eye(2)])
        with pytest.raises(InvalidDimension):
            op.eigh(stack)
        with pytest.raises(InvalidDimension):
            op.check_density_matrix(stack / 2)
        with pytest.raises(InvalidDimension):
            op.check_hermitian(np.eye(2), stack=True)

    def test_one_non_hermitian_slice_raises(self):
        stack = np.array([np.eye(3), np.eye(3), np.eye(3)], dtype=complex)
        stack[1, 0, 2] = 0.5
        with pytest.raises(NonHermitianInput):
            op.support(stack)

    def test_one_non_finite_slice_raises(self):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        stack[1, 1, 1] = np.nan
        with pytest.raises(NonHermitianInput):
            op.support(stack)

    def test_one_slice_in_gap_band_raises(self):
        from povmkit.errors import NumericalRankAmbiguity

        stack = np.array([np.diag([1.0, 0.0]), np.diag([1.0, 5e-8]), np.eye(2)])
        with pytest.raises(NumericalRankAmbiguity):
            op.support(stack, check_band=True)
        assert op.support(stack)[0].tolist() == [1, 2, 2]

    def test_hermitian_basis_is_cached_read_only(self):
        assert op.hermitian_basis(3) is op.hermitian_basis(3)
        assert not op.hermitian_basis(3).flags.writeable
