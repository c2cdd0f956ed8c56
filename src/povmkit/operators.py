"""Dense Hermitian linear algebra for d <= 16, where LAPACK is exact enough.

Operators are complex ndarrays.  Isometric real coordinates on the d**2
dimensional Hermitian space (diagonal first, then sqrt(2)-scaled real and
imaginary parts of the upper triangle) turn rank and kernel questions
into real SVDs.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, NonHermitianInput, NumericalRankAmbiguity

MAX_DIM = 16

TOL_HERM = 1e-10
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_COMPLETE = 1e-9
GAP_THRESHOLD = 1e-8

# Width of the band around the rank threshold in which a singular value or
# eigenvalue is considered too close to call.
GAP_BAND = 16.0


def frobenius(a: np.ndarray, stack: bool = False):
    """Frobenius norm of a matrix; with ``stack``, of each of a stack
    ``(n, d, d)``: the same BLAS dot products, so the same bits."""
    if not stack:
        return float(np.linalg.norm(a))
    x = np.asarray(a, dtype=complex).reshape(len(a), 1, -1)
    re, im = x.real, x.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)).ravel()


def as_operator(a, dim: int | None = None, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a finite square complex matrix, of dimension ``dim``
    if given; with ``stack``, to a stack ``(n, d, d)`` of them only."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 + stack or m.shape[-1] != m.shape[-2]:
        what = "a stack of square matrices" if stack else "a square matrix"
        raise InvalidDimension(f"expected {what}, got shape {m.shape}")
    d = m.shape[-1]
    if d < 1 or d > MAX_DIM:
        raise InvalidDimension(f"dimension {d} outside supported range 1..{MAX_DIM}")
    if dim is not None and d != dim:
        raise InvalidDimension(f"expected dimension {dim}, got {d}")
    if not np.all(np.isfinite(m.view(float))):
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    return m


def check_hermitian(a, name: str = "operator", stack: bool = False) -> np.ndarray:
    """Validate Hermitian symmetry within ``TOL_HERM * (1 + ||a||_F)``.

    With ``stack``, ``a`` must be a stack ``(n, d, d)`` and each slot is
    held to its own norm; without it, ``a`` must be one matrix.  Returns
    the exactly symmetrized ``(a + a†)/2`` so downstream eigensolvers see
    clean input.
    """
    m = as_operator(a, stack=stack)
    adj = m.conj().swapaxes(-1, -2)
    defects = np.linalg.norm(m - adj, axis=(-2, -1))
    if (defects > TOL_HERM * (1.0 + np.linalg.norm(m, axis=(-2, -1)))).any():
        raise NonHermitianInput(
            f"{name} is not Hermitian: symmetry defect {defects.max():.3e}"
        )
    return 0.5 * (m + adj)


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of one Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``a == v @ diag(w) @ v†`` and orthonormal
    columns in ``v``.
    """
    m = check_hermitian(a)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD, unit trace), of dimension
    ``dim`` if given: another raises `DimensionMismatch`.

    Its least eigenvalue must be ``>= -TOL_PSD * (1 + ||rho||_F)`` and its
    trace within ``TOL_TRACE * (1 + ||rho||_F)`` of 1.
    """
    m = check_hermitian(rho, name="state")
    scale = 1.0 + frobenius(m)
    if np.linalg.eigvalsh(m)[0] < -TOL_PSD * scale:
        raise NonHermitianInput("state is not positive semidefinite")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TOL_TRACE * scale:
        raise NonHermitianInput(f"state trace {tr} differs from 1")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"state dimension {m.shape[0]} != POVM dimension {dim}")
    return m


def support(a, threshold: float = GAP_THRESHOLD, check_band: bool = False):
    """Support eigenpairs of each slot of a stack ``(n, d, d)`` of PSD
    matrices, checked and decomposed at once.

    Eigenvalues above ``threshold * max(1, λ_max)`` count as nonzero,
    each slot held to its own ``λ_max``.  With ``check_band`` a value
    falling inside the ambiguity band ``(thr/16, 16*thr)`` raises
    :class:`NumericalRankAmbiguity`; rank decisions in the decomposition
    engine must not hinge on such values.

    Returns ``(rank, vecs, vals)``, padded to the largest rank R (at
    least 1): ``rank`` ``(n,)``, and per slot i the first ``rank[i]``
    columns of ``vecs[i]`` ``(d, R)`` are orthonormal support vectors
    and the same entries of ``vals[i]`` ``(R,)`` their descending
    eigenvalues; the columns beyond are zero and the values beyond 1.
    """
    m = check_hermitian(a, stack=True)
    w, v = np.linalg.eigh(m)
    w, v = w[:, ::-1], v[:, :, ::-1]  # descending
    thr = threshold * np.maximum(1.0, w[:, 0])
    if check_band:
        lo, hi = thr / GAP_BAND, thr * GAP_BAND
        inside = np.flatnonzero(((w > lo[:, None]) & (w < hi[:, None])).any(axis=1))
        if inside.size:
            i = inside[0]
            raise NumericalRankAmbiguity(
                f"eigenvalue inside gap band ({lo[i]:.3e}, {hi[i]:.3e})"
            )
    # eigenvalues descend, so the support is a leading block of columns
    rank = np.count_nonzero(w > thr[:, None], axis=1)
    size = max(1, int(rank.max(initial=0)))
    kept = np.arange(size) < rank[:, None]
    vecs = np.where(kept[:, None], v[:, :, :size], 0.0)
    vals = np.where(kept, w[:, :size], 1.0)
    return rank, vecs, vals


# --- real coordinates on the Hermitian space -------------------------------

_SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=MAX_DIM)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle.

    Cached because ``np.triu_indices`` costs more than the coordinate
    map itself on one small matrix.
    """
    rows, cols = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def hermitian_to_coords(a: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of Hermitian matrices (length d**2).

    Accepts one ``(d, d)`` matrix or a stack ``(..., d, d)``; the
    coordinates run along the last axis.
    """
    a = np.asarray(a)
    d = a.shape[-1]
    rows, cols = _upper_triangle(d)
    upper = a[..., rows, cols]
    out = np.empty(a.shape[:-2] + (d * d,))
    out[..., :d] = np.diagonal(a, axis1=-2, axis2=-1).real
    out[..., d::2] = _SQRT2 * upper.real
    out[..., d + 1 :: 2] = _SQRT2 * upper.imag
    return out


def coords_to_hermitian(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coords`, also on stacks ``(..., d*d)``."""
    v = np.asarray(v)
    rows, cols = _upper_triangle(d)
    a = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    a[..., np.arange(d), np.arange(d)] = v[..., :d]
    z = (v[..., d::2] + 1j * v[..., d + 1 :: 2]) / _SQRT2
    a[..., rows, cols] = z
    a[..., cols, rows] = np.conj(z)
    return a


@functools.lru_cache(maxsize=MAX_DIM)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of the d x d Hermitian matrices, stacked.

    Cached and read-only: the perturbation kernel lifts it on every
    call.
    """
    basis = coords_to_hermitian(np.eye(d * d), d)
    basis.setflags(write=False)
    return basis
