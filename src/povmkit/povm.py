"""Finite POVMs: data model, axioms, Born probabilities.

A finite POVM is n outcome points over an outcome space and one owned,
read-only ``(n, d, d)`` stack of PSD elements summing to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import DimensionMismatch, InvalidPOVM
from .outcomes import (
    Circle,
    FiniteLabels,
    OutcomeSpace,
    Region,
    Sphere,
    normalize_angle,
    require_same_space,
    unit_vector,
)


def coerce_points(space: OutcomeSpace, points) -> np.ndarray:
    """Labels in range, angles in [0, 2 pi) or unit 3-vectors, read-only."""
    if isinstance(space, FiniteLabels):
        pts = np.asarray(points).astype(int)
        bad = (pts < 0) | (pts >= space.n)
        if bad.any():
            raise ValueError(f"label {pts[bad][0]} outside 0..{space.n - 1}")
    elif isinstance(space, Circle):
        pts = normalize_angle(np.asarray(points, dtype=float))
    else:
        pts = unit_vector(points)
    if pts.ndim != 1 + isinstance(space, Sphere):
        raise ValueError(f"points of shape {pts.shape} on the {space}")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False, init=False)
class FinitePOVM:
    """Ordered finite POVM over an outcome space, from ``(point, element)``
    ``entries``.  It owns ``elements``, a read-only complex ``(n, d, d)``
    stack checked once (finite, square, ``dim``), and read-only ``points``:
    ``(n,)`` labels or angles, or ``(n, 3)`` unit vectors.
    ``allow_duplicates`` permits repeated outcome points."""

    dim: int
    space: OutcomeSpace
    points: np.ndarray
    elements: np.ndarray
    allow_duplicates: bool

    def __init__(self, dim: int, space: OutcomeSpace, entries=(), allow_duplicates: bool = False):
        if not entries:
            raise ValueError("a POVM needs at least one entry")
        points, elements = zip(*entries)
        self._store(dim, space, coerce_points(space, points), elements, allow_duplicates)

    def _store(self, dim, space, points, elements, allow_duplicates):
        try:
            stack = op.as_operator(np.array(elements, dtype=complex), dim=dim, stack=True)
        except ValueError:  # unequal shapes: name the first bad element
            stack = np.array([op.as_operator(el, dim=dim) for el in elements])
        if len(stack) != len(points):
            raise ValueError(f"{len(stack)} elements for {len(points)} points")
        stack.setflags(write=False)
        vars(self).update(dim=dim, space=space, points=points, elements=stack,
                          allow_duplicates=allow_duplicates)

    def __len__(self):
        return len(self.elements)

    @property
    def entries(self) -> tuple:
        """``(point, element)`` views into ``points`` and ``elements``."""
        return tuple(zip(self.points, self.elements))

    def element_sum(self) -> np.ndarray:
        return self.elements.sum(axis=0)

    def nonzero_indices(self) -> list[int]:
        """Indices of entries whose element's Frobenius norm exceeds
        `operators.GAP_THRESHOLD`."""
        return np.flatnonzero(op.frobenius(self.elements, stack=True) > op.GAP_THRESHOLD).tolist()

    def replace_elements(self, elements) -> "FinitePOVM":
        """These elements, copied, at the same points."""
        new = object.__new__(FinitePOVM)
        new._store(self.dim, self.space, self.points, elements, self.allow_duplicates)
        return new


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_povm`, one flag per axiom."""

    dim: int
    n_entries: int
    hermiticity_defects: tuple[float, ...]
    psd_margins: tuple[float, ...]
    completeness_defect: float
    duplicate_points: tuple[int, ...]
    tol_psd: float
    tol_complete: float

    @property
    def psd_ok(self) -> bool:
        return all(m >= -self.tol_psd for m in self.psd_margins)

    @property
    def complete_ok(self) -> bool:
        return self.completeness_defect <= self.tol_complete

    @property
    def herm_ok(self) -> bool:
        return all(h <= op.TOL_HERM for h in self.hermiticity_defects)

    @property
    def duplicates_ok(self) -> bool:
        return not self.duplicate_points

    @property
    def passed(self) -> bool:
        return self.psd_ok and self.complete_ok and self.herm_ok and self.duplicates_ok

    def worst(self) -> dict:
        return {
            "min_psd_margin": min(self.psd_margins),
            "completeness_defect": self.completeness_defect,
            "max_hermiticity_defect": max(self.hermiticity_defects),
            "duplicate_points": list(self.duplicate_points),
        }


def validate_povm(
    p: FinitePOVM,
    tol_psd: float = op.TOL_PSD,
    tol_complete: float = op.TOL_COMPLETE,
) -> ValidationReport:
    """Check the POVM axioms on the element stack, afresh on each call.

    PSD margins are minimum eigenvalues scaled by ``1 + ||element||_F``;
    completeness defect is ``||sum(elements) - I||_F``.
    """
    els = p.elements
    if els.shape[1:] != (p.dim, p.dim):
        raise DimensionMismatch(f"element dimensions {{{els.shape[1]}}} != POVM dim {p.dim}")
    adj = els.conj().swapaxes(1, 2)
    syms = 0.5 * (els + adj)
    norm, skew, sym = op.frobenius(np.concatenate([els, els - adj, syms]), stack=True).reshape(3, -1)
    herm = skew / (1.0 + norm)
    lowest = np.linalg.eigh(syms)[0][:, 0]  # eigenvalues ascend
    margins = lowest / (1.0 + sym)
    defect = op.frobenius(p.element_sum() - np.eye(p.dim))
    dupes = ()
    if not p.allow_duplicates:
        pts = p.points
        same = (pts[:, None] == pts[None]).reshape(len(pts), len(pts), -1).all(axis=2)
        # j repeats an earlier point iff two of points 0..j equal it
        dupes = tuple(np.flatnonzero(same.cumsum(axis=0).diagonal() > 1).tolist())
    return ValidationReport(
        dim=p.dim,
        n_entries=len(p),
        hermiticity_defects=tuple(herm.tolist()),
        psd_margins=tuple(margins.tolist()),
        completeness_defect=float(defect),
        duplicate_points=dupes,
        tol_psd=tol_psd,
        tol_complete=tol_complete,
    )


def check_povm(p: FinitePOVM) -> None:
    """Raise :class:`InvalidPOVM` unless ``p`` passes :func:`validate_povm`."""
    report = validate_povm(p)
    if not report.passed:
        raise InvalidPOVM(f"input is not a POVM: {report.worst()}")


def born_probabilities(p: FinitePOVM, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities ``Tr[rho P_i]``, clamped to [0, 1].

    ``rho`` must pass `operators.check_density_matrix` at the POVM's
    dimension: Hermitian, PSD and of unit trace.
    """
    rho = op.check_density_matrix(rho, p.dim)
    probs = np.trace(rho @ p.elements, axis1=1, axis2=2).real
    return np.clip(probs, 0.0, 1.0)


def probability_of_region(p: FinitePOVM, rho: np.ndarray, r: Region) -> float:
    """``sum_i chi_r(point_i) Tr[rho P_i]`` with exact membership tests."""
    require_same_space(p.space, r.space, "POVM and region")
    probs = born_probabilities(p, rho)
    return float(np.sum(probs[r.contains(p.points)]))
