"""Outcome spaces and measurable regions.

Three outcome spaces are supported: finite label sets, the unit circle
(angles in radians), and the unit 2-sphere (unit vectors in R^3).
Regions are kept deliberately simple so membership and probabilities
stay exactly computable:

* label subsets,
* finite unions of half-open arcs ``[a, b)`` on the circle,
* finite unions of closed spherical caps ``{n : n . axis >= cos(angle)}``,
  optionally complemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceMismatch

TWO_PI = 2.0 * np.pi
TOL_UNIT = 1e-6  # how far a sphere point's norm may sit from 1


@dataclass(frozen=True)
class OutcomeSpace:
    kind: str

    def __str__(self):
        return self.kind


@dataclass(frozen=True)
class FiniteLabels(OutcomeSpace):
    n: int = 1
    kind: str = field(default="labels", init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("label space needs at least one label")


@dataclass(frozen=True)
class Circle(OutcomeSpace):
    kind: str = field(default="circle", init=False)


@dataclass(frozen=True)
class Sphere(OutcomeSpace):
    kind: str = field(default="sphere", init=False)


CIRCLE = Circle()
SPHERE = Sphere()


def normalize_angle(phi):
    """Map angles into [0, 2*pi), as a new array (0-d for a scalar).

    Angles already in [0, 4*pi), as moved design points and Newton
    iterates are, skip ``np.mod``, which is far slower: ``phi - 2*pi``
    there is exact by Sterbenz' lemma, the remainder ``np.mod`` gives, and
    ``-0.0`` becomes ``+0.0``, as with ``np.mod``.
    """
    phi = np.asarray(phi, dtype=float)
    if not (phi.size and 0.0 <= phi.min() and phi.max() < 2.0 * TWO_PI):
        phi = np.mod(phi, TWO_PI)  # 2*pi itself for tiny negative floats
    out = np.multiply(phi >= TWO_PI, -TWO_PI)
    out += phi
    out += 0.0
    return np.asarray(out)


def unit_vector(v) -> np.ndarray:
    """Validate and renormalize a finite 3-vector, or each row of an
    ``(n, 3)`` stack, whose norm must be 1 within `TOL_UNIT`; a vector
    unit up to rounding is copied unchanged, so loading is exact."""
    a = np.array(v, dtype=float)
    if a.shape[-1:] != (3,) or a.ndim > 2:
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector contains NaN or Inf entries")
    # the BLAS dot of np.linalg.norm, row by row: the same bits
    norm = np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0]
    off = abs(norm - 1.0)
    worst = off.max()
    if worst > TOL_UNIT:
        raise ValueError(f"vector norm {norm[off > TOL_UNIT][0]} deviates from 1 beyond {TOL_UNIT}")
    eps = 4 * np.finfo(float).eps
    return a if worst <= eps else a / np.where(off <= eps, 1.0, norm)


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap around ``axis`` with half-opening ``angle``."""

    axis: tuple[float, float, float]
    angle: float

    def __post_init__(self):
        ax = unit_vector(self.axis)
        object.__setattr__(self, "axis", (float(ax[0]), float(ax[1]), float(ax[2])))
        if not 0.0 <= self.angle <= np.pi:
            raise ValueError(f"cap angle {self.angle} outside [0, pi]")

    @property
    def axis_array(self) -> np.ndarray:
        return np.array(self.axis)


def _normalize_arcs(arcs) -> tuple[tuple[float, float], ...]:
    """Split wrap-around arcs, merge overlaps, sort by start angle.

    Raises ``ValueError`` for an endpoint that is not finite.
    """
    pieces = []
    for a, b in arcs:
        a = float(a)
        b = float(b)
        if not np.isfinite(a) or not np.isfinite(b):
            raise ValueError(f"arc endpoints must be finite, got [{a}, {b}]")
        length = b - a
        if length <= 0:
            continue
        if length >= TWO_PI:
            return ((0.0, TWO_PI),)
        start = float(normalize_angle(a))
        end = start + length
        if end <= TWO_PI:
            pieces.append((start, end))
        else:
            pieces.append((start, TWO_PI))
            pieces.append((0.0, end - TWO_PI))
    if not pieces:
        return ()
    pieces.sort()
    merged = [pieces[0]]
    for s, e in pieces[1:]:
        ps, pe = merged[-1]
        if s <= pe:
            merged[-1] = (ps, max(pe, e))
        else:
            merged.append((s, e))
    return tuple(merged)


@dataclass(frozen=True)
class Region:
    """A measurable subset of an outcome space.

    Exactly one of ``labels``, ``arcs``, ``caps`` is set, matching the
    space kind.  ``complement`` applies to cap unions only; arcs and
    label sets can express their own complements directly.
    """

    space: OutcomeSpace
    labels: frozenset[int] | None = None
    arcs: tuple[tuple[float, float], ...] | None = None
    caps: tuple[Cap, ...] | None = None
    complement: bool = False

    @staticmethod
    def of_labels(space: FiniteLabels, ids) -> "Region":
        ids = frozenset(int(i) for i in ids)
        bad = [i for i in ids if not 0 <= i < space.n]
        if bad:
            raise ValueError(f"labels {bad} outside 0..{space.n - 1}")
        return Region(space=space, labels=ids)

    @staticmethod
    def of_arcs(arcs) -> "Region":
        return Region(space=CIRCLE, arcs=_normalize_arcs(arcs))

    @staticmethod
    def of_caps(caps, complement: bool = False) -> "Region":
        caps = tuple(
            sorted(
                (c if isinstance(c, Cap) else Cap(tuple(c[0]), float(c[1])) for c in caps),
                key=lambda c: (c.angle, c.axis),
            )
        )
        return Region(space=SPHERE, caps=caps, complement=complement)

    @staticmethod
    def full(space: OutcomeSpace) -> "Region":
        if isinstance(space, FiniteLabels):
            return Region.of_labels(space, range(space.n))
        if isinstance(space, Circle):
            return Region.of_arcs([(0.0, TWO_PI)])
        return Region.of_caps([Cap((0.0, 0.0, 1.0), np.pi)])

    def contains(self, points) -> np.ndarray:
        """Vectorized membership test.

        ``points``: int array for labels, angle array for the circle,
        (..., 3) array for the sphere.  Returns a boolean array.
        """
        if self.labels is not None:
            pts = np.atleast_1d(np.asarray(points, dtype=int))
            return np.isin(pts, sorted(self.labels))
        if self.arcs is not None:
            phi = np.atleast_1d(np.asarray(points, dtype=float))
            # moved points and samples are in [0, 2pi) already, where mod
            # would return them unchanged
            if not (phi.min(initial=0.0) >= 0.0 and phi.max(initial=0.0) < TWO_PI):
                phi = normalize_angle(phi)
            inside = np.zeros(phi.shape, dtype=bool)
            for a, b in self.arcs:
                inside |= (phi >= a) & (phi < b)
            return inside
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for cap in self.caps:
            inside |= pts @ cap.axis_array >= np.cos(cap.angle)
        if self.complement:
            inside = ~inside
        return inside

    def caps_pairwise_disjoint(self) -> bool:
        """True when the cap union has no pairwise overlap (closed caps):
        the angle between each two axes exceeds the sum of the two caps'
        angles."""
        caps = self.caps or ()
        for i, ci in enumerate(caps):
            for cj in caps[i + 1 :]:
                cos = math.fsum(a * b for a, b in zip(ci.axis, cj.axis))
                if math.acos(min(max(cos, -1.0), 1.0)) <= ci.angle + cj.angle:
                    return False
        return True

    def describe(self) -> str:
        if self.labels is not None:
            return f"labels{{{','.join(map(str, sorted(self.labels)))}}}"
        if self.arcs is not None:
            return "arcs" + str([(round(a, 6), round(b, 6)) for a, b in self.arcs])
        tag = "complement of " if self.complement else ""
        return tag + "caps" + str([(c.axis, round(c.angle, 6)) for c in self.caps])


def require_same_space(a: OutcomeSpace, b: OutcomeSpace, what: str = "objects"):
    if a != b:
        raise SpaceMismatch(f"{what} live on different outcome spaces: {a} vs {b}")
