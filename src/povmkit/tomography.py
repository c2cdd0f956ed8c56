"""Dual data processing for informationally complete measurements.

For a finite POVM whose elements span the Hermitian space, any operator
A admits outcome coefficients with ``sum_i f(i) P_i = A``; averaging
``f`` over measurement records then estimates ``Tr[rho A]`` without
reconstructing the state.  The spin-direction family has the closed-form
continuous dual ``f_A(n) = a0 + 3 a . n`` for ``A = a0 I + a . sigma``;
the phase family only spans the diagonal-constant (Toeplitz) operators
and gets a Fourier dual on that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .catalog import PAULI_X, PAULI_Y, PAULI_Z
from .errors import EmptySample, NotInformationallyComplete, SpaceMismatch
from .outcomes import CIRCLE, SPHERE
from .povm import FinitePOVM, check_povm
from .sampling import OutcomeRecords

_POINT_TOL = 1e-9  # how far a record's outcome may sit from its entry's point
_MATCH_CHUNK = 1 << 16  # record-point pairs per matching step; bounds memory


def is_informationally_complete(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> bool:
    """True iff the elements span the d**2-dimensional Hermitian space."""
    coords = op.hermitian_to_coords(np.array(p.elements)).T
    s = np.linalg.svd(coords, compute_uv=False)
    scale = max(1.0, float(s[0])) if s.size else 1.0
    rank = int(np.count_nonzero(s > gap * scale))
    return rank == p.dim**2


@dataclass(frozen=True)
class DualProcessing:
    """Outcome function reproducing a target operator under the POVM.

    ``kind`` selects the evaluation rule:

    * ``"finite"``: per-entry coefficients, at the entries of outcomes;
    * ``"spin"``: ``f(n) = a0 + 3 a . n`` on sphere points;
    * ``"phase"``: trigonometric polynomial on angles.
    """

    target: np.ndarray
    kind: str
    coefficients: np.ndarray | None = field(default=None, compare=False)
    points: np.ndarray | None = field(default=None, compare=False)
    a0: float = 0.0
    avec: np.ndarray | None = field(default=None, compare=False)
    fourier: np.ndarray | None = field(default=None, compare=False)

    def evaluate(self, records) -> np.ndarray:
        """Per-record processing values ``f(omega)``.

        ``records`` is an `OutcomeRecords` or a bare outcome array.  Outcomes
        the dual cannot evaluate raise `SpaceMismatch`: a spin dual takes
        sphere points, a phase dual angles, and a finite dual integer labels
        in ``0..m-1``, which name its entries, or its POVM's outcome points.
        """
        known = isinstance(records, OutcomeRecords)
        if self.kind == "finite":
            return self.coefficients[self._entries(np.asarray(records.omega if known else records))]
        space = SPHERE if self.kind == "spin" else CIRCLE
        omega = np.asarray(records.omega if known else records, dtype=float)
        if known:
            ok = records.space == space
        elif self.kind == "spin":
            ok = omega.ndim in (1, 2) and omega.shape[-1] == 3
        else:
            ok = omega.ndim <= 1
        if not ok:
            raise SpaceMismatch(f"a {self.kind} dual needs outcomes on the {space}")
        if self.kind == "spin":
            return self.a0 + 3.0 * np.atleast_2d(omega) @ self.avec
        d = self.target.shape[0]
        vals = np.full(omega.shape, float(self.fourier[0].real))
        for k in range(1, d):
            vals += 2.0 * (self.fourier[k] * np.exp(1j * k * omega)).real
        return vals

    def _entries(self, omega: np.ndarray) -> np.ndarray:
        """Entry index of each outcome of a finite dual: an integer is one of
        the labels of a POVM on labels, or else the number of an entry;
        any other outcome must lie within `_POINT_TOL` of one entry's
        outcome point (circle angles compared as unit vectors in the
        plane), which no other entry shares."""
        m = len(self.coefficients)
        points = self.points
        if omega.dtype.kind in "iu":
            labels = points if points.dtype.kind in "iu" else np.arange(m)
            order = np.argsort(labels)
            at = order[np.searchsorted(labels, omega, sorter=order).clip(0, m - 1)]
            if np.any(labels[at] != omega):
                known = sorted(set(labels.tolist()))
                span = f"0..{m - 1}" if known == list(range(m)) else known
                raise SpaceMismatch(f"labels outside {span}")
            return at
        if points.dtype.kind != "f" or omega.shape[1:] != points.shape[1:]:
            raise SpaceMismatch("outcomes are not on the space of the POVM's outcome points")
        if points.ndim == 1:
            points, omega = (np.column_stack([np.cos(a), np.sin(a)]) for a in (points, omega))
        parts = np.array_split(omega, 1 + len(omega) * m // _MATCH_CHUNK)
        near = np.concatenate([np.argmax(part @ points.T, axis=1) for part in parts])
        far = np.abs(omega - points[near]).max(axis=1, initial=0.0) > _POINT_TOL
        if far.any():
            raise SpaceMismatch(f"record {far.argmax()}: not an outcome point of the POVM")
        twins = (np.abs(points[:, None] - points).max(axis=2) <= _POINT_TOL).sum(axis=1) > 1
        if twins[near].any():
            raise SpaceMismatch("outcomes cannot tell apart POVM entries that share a point")
        return near


def dual_coefficients(p: FinitePOVM, a: np.ndarray, gap: float = op.GAP_THRESHOLD) -> DualProcessing:
    """Solve ``sum_i f(i) P_i = A`` in real Hermitian coordinates.

    Uses the minimum-norm least-squares solution, unique when the
    elements are linearly independent (SIC case).  ``p`` must pass
    `validate_povm` (else `InvalidPOVM`).
    """
    check_povm(p)
    a = op.check_hermitian(a, name="target")
    if a.shape[0] != p.dim:
        raise NotInformationallyComplete("target dimension does not match POVM")
    if not is_informationally_complete(p, gap=gap):
        raise NotInformationallyComplete(
            "POVM elements do not span the operator space"
        )
    mat = op.hermitian_to_coords(np.array(p.elements)).T
    rhs = op.hermitian_to_coords(a)
    coeff, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = op.frobenius(
        sum(c * el for c, el in zip(coeff, p.elements)) - a
    )
    if residual > 1e-8 * (1.0 + op.frobenius(a)):
        raise NotInformationallyComplete(f"dual residual {residual:.3e} too large")
    return DualProcessing(target=a, kind="finite", coefficients=coeff, points=np.array(p.points))


def pauli_components(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Decompose a 2x2 Hermitian ``A = a0 I + a . sigma``."""
    a = op.check_hermitian(a, name="target")
    a0 = float(np.trace(a).real) / 2.0
    avec = np.array(
        [float(np.trace(a @ p).real) / 2.0 for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    )
    return a0, avec


def spin_dual(a: np.ndarray) -> DualProcessing:
    """Closed-form dual for the spin-direction family.

    ``f_A(n) = a0 + 3 a . n`` reproduces A because the direction density
    has first moment ``n/3`` per axis under ``dn/2pi`` normalization.
    """
    a0, avec = pauli_components(a)
    return DualProcessing(target=np.asarray(a, dtype=complex), kind="spin", a0=a0, avec=avec)


def phase_dual(d: int, a: np.ndarray) -> DualProcessing:
    """Fourier dual for the phase family, defined on the Toeplitz span.

    Requires A constant along diagonals; other operators are invisible
    to phase statistics.
    """
    a = op.check_hermitian(a, name="target")
    if a.shape[0] != d:
        raise NotInformationallyComplete("target dimension mismatch")
    fourier = np.zeros(d, dtype=complex)
    for k in range(d):
        diag = np.diagonal(a, offset=k)
        if diag.size > 1 and np.max(np.abs(diag - diag[0])) > 1e-10:
            raise NotInformationallyComplete(
                "phase statistics determine only diagonal-constant operators"
            )
        fourier[k] = diag[0]
    return DualProcessing(target=a, kind="phase", fourier=fourier)


@dataclass(frozen=True)
class EstimateReport:
    """Sample-mean estimate of ``Tr[rho A]`` with its standard error."""

    estimate: float
    std_error: float
    n: int
    exact: float | None = None


def estimate_expectation(
    records,
    dual: DualProcessing,
    rho_exact: np.ndarray | None = None,
) -> EstimateReport:
    """Average the dual processing over measurement records."""
    if len(records) == 0:
        raise EmptySample("no records to average")
    vals = np.asarray(dual.evaluate(records), dtype=float)
    n = len(vals)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    exact = None
    if rho_exact is not None:
        rho = op.check_density_matrix(rho_exact)
        exact = float(np.trace(rho @ dual.target).real)
    return EstimateReport(estimate=mean, std_error=se, n=n, exact=exact)
