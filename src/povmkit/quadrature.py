"""Deterministic quadrature on the sphere and the circle.

Sphere integrals use Gauss-Legendre nodes in the polar cosine crossed
with a uniform (periodic trapezoid) azimuthal rule.  Regions made of
pairwise disjoint caps are integrated cap by cap in cap-aligned frames,
so indicator discontinuities never cross a quadrature domain.  On a cap,
``ceil((L + 1) / 2)`` polar by ``L + 1`` azimuthal nodes integrate a
polynomial of degree L in n exactly: the azimuths average every monomial
exactly, which leaves a polynomial of degree at most L in the polar
cosine for the Gauss nodes to integrate exactly (1 x 2 nodes for the
affine spin density).  A grid sized by a node budget (`sphere_grid`)
serves integrands of no stated degree.  The reference Gauss-Legendre
rule of each order and the families' outcome rules are built once per
process and shared read-only (`frozen_rule`).
"""

from __future__ import annotations

import functools

import numpy as np

from .outcomes import TWO_PI, Region


@functools.cache
def frozen_rule(rule, *args) -> tuple[np.ndarray, np.ndarray]:
    """``rule(*args)``, built once per argument tuple and read-only.

    Every entry lives as long as the process, so this serves only
    one-dimensional rules (O(n) per order) and the families' fixed
    outcome rules; a sphere grid whose size a caller's budget sets is
    built per call.
    """
    points, weights = rule(*args)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b], as fresh arrays mapped
    from the shared reference rule on [-1, 1]."""
    x, w = frozen_rule(np.polynomial.legendre.leggauss, n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def rotation_to(axis: np.ndarray) -> np.ndarray:
    """Deterministic rotation matrix mapping +z to the unit vector ``axis``.

    Rodrigues' formula about ``z x axis``; only an axis whose cross
    product with +z has a squared norm below the smallest normal float is
    taken to be a pole.
    """
    axis = np.asarray(axis, dtype=float)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.clip(axis @ z, -1.0, 1.0))
    v = np.cross(z, axis)
    s2 = float(v @ v)
    if s2 < np.finfo(float).tiny:
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)


def sphere_grid(budget: int) -> tuple[int, int]:
    """Polar and azimuthal node counts ``(n_u, 2*n_u)`` for a node budget."""
    n_u = max(8, int(round(np.sqrt(budget / 2.0))))
    return n_u, 2 * n_u


def sphere_band_nodes(
    axis: np.ndarray,
    u_lo: float,
    u_hi: float,
    n_u: int,
    n_phi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for the surface integral over ``u_lo <= n.axis <= u_hi``.

    Weights carry the full surface measure, so they sum to the band area
    ``2*pi*(u_hi - u_lo)``.
    """
    u, wu = gauss_legendre(n_u, u_lo, u_hi)
    phi = np.arange(n_phi) * (TWO_PI / n_phi)
    wphi = np.full(n_phi, TWO_PI / n_phi)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    x = np.outer(su, np.cos(phi)).ravel()
    y = np.outer(su, np.sin(phi)).ravel()
    z = np.outer(u, np.ones(n_phi)).ravel()
    pts = np.column_stack([x, y, z])
    w = np.outer(wu, wphi).ravel()
    rot = rotation_to(axis)
    return pts @ rot.T, w


def sphere_nodes(n_u: int, n_phi: int):
    return sphere_band_nodes(np.array([0.0, 0.0, 1.0]), -1.0, 1.0, n_u, n_phi)


def integrate_sphere_region(f, region: Region, grid: tuple[int, int]):
    """Surface integral of a smooth function over a cap-union region.

    ``f`` maps an (m, 3) array of unit vectors to an (m,) or (m, ...)
    array of values; each cap gets ``grid = (n_u, n_phi)`` polar and
    azimuthal nodes in its own frame.  The caps must be pairwise disjoint
    and not complemented; this keeps every quadrature sub-domain free of
    indicator jumps, so accuracy is set by the smooth integrand alone.
    """
    if region.caps is None:
        raise ValueError("sphere region required")
    if region.complement:
        raise ValueError("complemented region: integrate its caps and subtract them from the whole")
    if not region.caps_pairwise_disjoint():
        raise ValueError(
            "closed-form region integration requires pairwise disjoint caps"
        )
    total = 0.0
    for cap in region.caps:
        pts, w = sphere_band_nodes(cap.axis_array, float(np.cos(cap.angle)), 1.0, *grid)
        total = total + np.tensordot(w, np.asarray(f(pts)), axes=(0, 0))
    return total


def circle_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, 2*pi)."""
    phi = np.arange(n) * (TWO_PI / n)
    return phi, np.full(n, TWO_PI / n)


def integrate_intervals(f, intervals, order: int = 24):
    """Gauss-Legendre integral of a smooth function over interval pieces."""
    total = 0.0
    for a, b in intervals:
        x, w = gauss_legendre(order, a, b)
        total = total + np.tensordot(w, np.asarray(f(x)), axes=(0, 0))
    return total
