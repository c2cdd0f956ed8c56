"""Finite POVMs: data model, axioms, Born probabilities.

A finite POVM is an ordered list of (outcome point, element) pairs over
an outcome space, with PSD elements summing to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .errors import DimensionMismatch, InvalidPOVM
from .outcomes import (
    Circle,
    FiniteLabels,
    OutcomeSpace,
    Region,
    normalize_angle,
    require_same_space,
    unit_vector,
)


def _coerce_point(space: OutcomeSpace, point):
    if isinstance(space, FiniteLabels):
        p = int(point)
        if not 0 <= p < space.n:
            raise ValueError(f"label {p} outside 0..{space.n - 1}")
        return p
    if isinstance(space, Circle):
        return float(normalize_angle(float(point)))
    v = unit_vector(point)
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class FinitePOVM:
    """Ordered finite POVM over an outcome space.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension.
    space : OutcomeSpace
        Where the outcome points live.
    entries : sequence of (point, element)
        Element matrices are coerced to complex ndarrays; points are
        validated against the space.
    allow_duplicates : bool
        Permit repeated outcome points (distinct apparatus outcomes
        mapped to the same point).
    """

    dim: int
    space: OutcomeSpace
    entries: tuple = field(default=())
    allow_duplicates: bool = False

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a POVM needs at least one entry")
        coerced = []
        for point, element in self.entries:
            m = op.as_operator(element, dim=self.dim)
            m.setflags(write=False)
            coerced.append((_coerce_point(self.space, point), m))
        object.__setattr__(self, "entries", tuple(coerced))

    def __len__(self):
        return len(self.entries)

    @property
    def points(self) -> list:
        return [pt for pt, _ in self.entries]

    @property
    def elements(self) -> list[np.ndarray]:
        return [el for _, el in self.entries]

    def element_sum(self) -> np.ndarray:
        return np.sum(self.elements, axis=0)

    def traces(self) -> np.ndarray:
        return np.array([float(np.trace(el).real) for el in self.elements])

    def nonzero_indices(self, threshold: float = op.GAP_THRESHOLD) -> list[int]:
        """Indices of entries whose element is numerically nonzero."""
        return [
            i
            for i, el in enumerate(self.elements)
            if op.frobenius(el) > threshold
        ]

    def replace_elements(self, elements) -> "FinitePOVM":
        return FinitePOVM(
            dim=self.dim,
            space=self.space,
            entries=tuple(zip(self.points, elements)),
            allow_duplicates=self.allow_duplicates,
        )


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
    """Check the POVM axioms entry by entry.

    PSD margins are minimum eigenvalues scaled by ``1 + ||element||_F``;
    completeness defect is ``||sum(elements) - I||_F``.
    """
    dims = {el.shape[0] for el in p.elements}
    if dims != {p.dim}:
        raise DimensionMismatch(f"element dimensions {dims} != POVM dim {p.dim}")
    herm = tuple(op.frobenius(el - el.conj().T) / (1.0 + op.frobenius(el)) for el in p.elements)
    els = np.array(p.elements)
    syms = 0.5 * (els + els.conj().transpose(0, 2, 1))
    lowest = np.linalg.eigh(syms)[0][:, 0]  # eigenvalues ascend
    margins = tuple(float(w) / (1.0 + op.frobenius(sym)) for w, sym in zip(lowest, syms))
    defect = op.frobenius(p.element_sum() - np.eye(p.dim))
    dupes = ()
    if not p.allow_duplicates:
        pts = np.array(p.points)
        same = (pts[:, None] == pts[None]).reshape(len(pts), len(pts), -1).all(axis=2)
        dupes = tuple(np.flatnonzero(np.triu(same, 1).any(axis=0)).tolist())
    return ValidationReport(
        dim=p.dim,
        n_entries=len(p),
        hermiticity_defects=herm,
        psd_margins=margins,
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
    """Outcome probabilities ``Tr[rho P_i]``, clamped to [0, 1]."""
    rho = op.as_operator(rho)
    if rho.shape[0] != p.dim:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} != POVM dimension {p.dim}"
        )
    probs = np.array([float(np.trace(rho @ el).real) for el in p.elements])
    return np.clip(probs, 0.0, 1.0)


def probability_of_region(p: FinitePOVM, rho: np.ndarray, r: Region) -> float:
    """``sum_i chi_r(point_i) Tr[rho P_i]`` with exact membership tests."""
    require_same_space(p.space, r.space, "POVM and region")
    probs = born_probabilities(p, rho)
    return float(np.sum(probs[r.contains(np.array(p.points))]))
