"""Dual data processing for informationally complete measurements.

For a finite POVM whose elements span the Hermitian space, any operator
A admits outcome coefficients with ``sum_i f(i) P_i = A``; averaging
``f`` over measurement records then estimates ``Tr[rho A]`` without
reconstructing the state.  A continuous family's dual is its canonical
frame dual ``f(omega) = Tr[Y M(omega)]`` (`ContinuousPOVM.dual`); the
phase family only spans the diagonal-constant (Toeplitz) operators, so
only those have a phase dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .errors import DimensionMismatch, EmptySample, NotInformationallyComplete, SpaceMismatch
from .families import ContinuousPOVM, phase_povm, spin_direction_povm
from .outcomes import SPHERE
from .povm import FinitePOVM, check_povm
from .sampling import OutcomeRecords

_POINT_TOL = 1e-9  # how far a record's outcome may sit from its entry's point
_MATCH_CHUNK = 1 << 16  # record-point pairs per matching step; bounds memory


def is_informationally_complete(p: FinitePOVM) -> bool:
    """True iff the elements span the d**2-dimensional Hermitian space."""
    return _spans(op.hermitian_to_coords(p.elements).T)


def _spans(coords: np.ndarray) -> bool:
    """True iff the n columns of ``coords`` ``(d**2, n)`` span R^(d**2):
    singular values above ``GAP_THRESHOLD * max(1, s_max)`` count."""
    s = np.linalg.svd(coords, compute_uv=False)
    scale = max(1.0, float(s[0])) if s.size else 1.0
    return int(np.count_nonzero(s > op.GAP_THRESHOLD * scale)) == len(coords)


@dataclass(frozen=True)
class DualProcessing:
    """Outcome function reproducing a target operator under the POVM.

    A finite dual holds per-entry ``coefficients``, its POVM's outcome
    ``points`` and its ``residual`` ``||sum_i f(i) P_i - A||_F``; a
    continuous dual holds its ``family`` and an ``operator`` Y, and
    evaluates ``Tr[Y M(omega)]`` (`ContinuousPOVM.expectation`).
    """

    target: np.ndarray
    coefficients: np.ndarray | None = field(default=None, compare=False)
    points: np.ndarray | None = field(default=None, compare=False)
    family: ContinuousPOVM | None = field(default=None, compare=False)
    operator: np.ndarray | None = field(default=None, compare=False)
    residual: float | None = field(default=None, compare=False)

    def evaluate(self, records) -> np.ndarray:
        """Per-record processing values ``f(omega)``, one per outcome.

        ``records`` is an `OutcomeRecords`, a bare outcome array or one bare
        outcome.  Outcomes the dual cannot evaluate raise `SpaceMismatch`:
        a continuous dual takes points of its family's space, and a finite
        dual integer labels in ``0..m-1``, which name its entries, or its
        POVM's outcome points.
        """
        known = isinstance(records, OutcomeRecords)
        omega = np.asarray(records.omega if known else records)
        if self.family is None:
            return self.coefficients[self._entries(omega)]
        omega = omega.astype(float, copy=False)
        space = self.family.space
        point = (3,) if space == SPHERE else ()
        many = omega.ndim - len(point)  # 0 for one bare point, 1 for a stack
        if known:
            ok = records.space == space
        else:
            ok = many in (0, 1) and omega.shape[many:] == point
        if not ok:
            raise SpaceMismatch(f"a {self.family.family} dual needs outcomes on the {space}")
        return self.family.expectation(self.operator, omega.reshape(-1, *point))

    def _entries(self, omega: np.ndarray) -> np.ndarray:
        """Entry index of each outcome of a finite dual: an integer is one of
        the labels of a POVM on labels, or else the number of an entry;
        any other outcome must lie within `_POINT_TOL` of one entry's
        outcome point (circle angles compared as unit vectors in the
        plane), which no other entry shares."""
        m = len(self.coefficients)
        points = self.points
        if omega.dtype.kind in "iu":
            omega = np.atleast_1d(omega)
            labels = points if points.dtype.kind in "iu" else np.arange(m)
            order = np.argsort(labels)
            at = order[np.searchsorted(labels, omega, sorter=order).clip(0, m - 1)]
            if np.any(labels[at] != omega):
                known = sorted(set(labels.tolist()))
                span = f"0..{m - 1}" if known == list(range(m)) else known
                raise SpaceMismatch(f"labels outside {span}")
            return at
        if omega.ndim == points.ndim - 1:  # one bare outcome point
            omega = omega[None]
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


def dual_coefficients(p: FinitePOVM, a: np.ndarray) -> DualProcessing:
    """Solve ``sum_i f(i) P_i = A`` in real Hermitian coordinates.

    Uses the minimum-norm least-squares solution, unique when the
    elements are linearly independent (SIC case).  ``p`` must pass
    `validate_povm` (else `InvalidPOVM`).
    """
    check_povm(p)
    a = op.check_hermitian(a, name="target")
    if a.shape[0] != p.dim:
        raise DimensionMismatch(f"target dimension {a.shape[0]} != POVM dimension {p.dim}")
    mat = op.hermitian_to_coords(p.elements).T
    if not _spans(mat):
        raise NotInformationallyComplete(
            "POVM elements do not span the operator space"
        )
    coeff, *_ = np.linalg.lstsq(mat, op.hermitian_to_coords(a), rcond=None)
    # summed in entry order, as sum(c * el for ...) would
    residual = op.frobenius(np.cumsum(coeff[:, None, None] * p.elements, axis=0)[-1] - a)
    if residual > 1e-8 * (1.0 + op.frobenius(a)):
        raise NotInformationallyComplete(f"dual residual {residual:.3e} too large")
    return DualProcessing(target=a, coefficients=coeff, points=p.points, residual=residual)


def spin_dual(a: np.ndarray) -> DualProcessing:
    """The spin-direction family's dual of a 2x2 Hermitian ``a``."""
    return spin_direction_povm().dual(a)


def phase_dual(d: int, a: np.ndarray) -> DualProcessing:
    """The d-dimensional phase family's dual of a Toeplitz Hermitian ``a``."""
    return phase_povm(d).dual(a)


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
        rho = op.check_density_matrix(rho_exact, len(dual.target))
        exact = float(np.trace(rho @ dual.target).real)
    return EstimateReport(estimate=mean, std_error=se, n=n, exact=exact)
