import numpy as np
import pytest

from povmkit.catalog import PAULI_X, PAULI_Y, PAULI_Z


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def up():
    return np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture
def down():
    return np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


@pytest.fixture
def plus():
    return np.full((2, 2), 0.5, dtype=complex)


@pytest.fixture
def maximally_mixed():
    return np.eye(2, dtype=complex) / 2.0


@pytest.fixture
def padded_member(up, down):
    """The projective measurement along z, padded with two zero elements
    at repeated outcome points."""
    import povmkit as pk
    from povmkit.outcomes import SPHERE

    z = np.array([0.0, 0.0, 1.0])
    zero = np.zeros((2, 2), dtype=complex)
    return pk.FinitePOVM(
        dim=2, space=SPHERE, entries=((z, up), (-z, down), (z, zero), (-z, zero)),
        allow_duplicates=True,
    )


@pytest.fixture
def paulis():
    return PAULI_X, PAULI_Y, PAULI_Z
