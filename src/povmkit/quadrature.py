"""Deterministic quadrature on the sphere and the circle, and every node
count, each sized from the degree L of a family's density.

Sphere integrals use Gauss-Legendre nodes in the polar cosine crossed
with a uniform (periodic trapezoid) azimuthal rule.  Regions made of
pairwise disjoint caps are integrated cap by cap in cap-aligned frames,
so indicator discontinuities never cross a quadrature domain.  On a cap,
``ceil((L + 1) / 2)`` polar by ``L + 1`` azimuthal nodes integrate a
polynomial of degree L in n exactly: the azimuths average every monomial
exactly, which leaves a polynomial of degree at most L in the polar
cosine for the Gauss nodes to integrate exactly (1 x 2 nodes for the
affine spin density).  An arc gets 64 Gauss-Legendre nodes, which are
not exact for trigonometric polynomials.  The pieces of a region are
built together, in one batched map of the reference rule (`cap_nodes`
stacks the caps' frames into one matrix product; `gauss_legendre` maps
every arc at once), the integrand is evaluated once on all their nodes,
and each piece is summed by the BLAS dot ``w @ v``, in piece order.  The
reference Gauss-Legendre rule of each order, the azimuths and the
outcome rules are built once per process and shared read-only
(`frozen_rule`).
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .outcomes import SPHERE, TWO_PI


@functools.cache
def frozen_rule(rule, *args) -> tuple[np.ndarray, np.ndarray]:
    """``rule(*args)``, built once per argument tuple and read-only.

    Every entry lives as long as the process, so this serves only
    one-dimensional rules (O(n) per order) and the outcome rules of the
    families' degrees.
    """
    points, weights = rule(*args)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def gauss_legendre(n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b], as fresh arrays mapped
    from the shared reference rule on [-1, 1]; for arrays of endpoints,
    one rule per interval, of shape ``a.shape + (n,)``."""
    x, w = frozen_rule(np.polynomial.legendre.leggauss, n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def rotation_to(axis) -> np.ndarray:
    """Deterministic rotation matrix mapping +z to the unit vector ``axis``.

    Rodrigues' formula about ``v = z x axis = (-y, x, 0)``, from plain
    floats but for ``|v|**2``, the BLAS dot whose rounding the pinned
    outputs keep; only a ``|v|**2`` below the smallest normal float is
    taken to be a pole.
    """
    x, y, z = (float(a) for a in axis)
    c = min(max(z, -1.0), 1.0)
    v = np.array([-y, x, 0.0])
    s2 = float(v @ v)
    if s2 < sys.float_info.min:
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, 0.0, x], [0.0, 0.0, y], [-x, -y, 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / s2)


def _azimuths(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines, (2, n), of the n equal azimuths, and their
    weights ``2*pi/n``."""
    phi = np.arange(n) * (TWO_PI / n)
    return np.stack([np.cos(phi), np.sin(phi)]), np.full(n, TWO_PI / n)


def cap_nodes(axes, cosines, n_u: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (P, n_u * n_phi, 3) and weights (P, n_u * n_phi) on the caps
    ``n . axis >= cos``, one per axis and cosine, built together.

    ``n_u`` Gauss-Legendre polar cosines on ``[cos, 1]`` cross ``n_phi``
    equal azimuths, in each cap's frame (`rotation_to`, stacked into one
    matrix product); the weights carry the full surface measure, so each
    cap's weights sum to its area ``2*pi*(1 - cos)``.
    """
    u, wu = gauss_legendre(n_u, cosines, 1.0)
    (cos_phi, sin_phi), wphi = frozen_rule(_azimuths, n_phi)
    su = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    local = np.empty(u.shape + (n_phi, 3))
    np.multiply(su[..., None], cos_phi, out=local[..., 0])
    np.multiply(su[..., None], sin_phi, out=local[..., 1])
    local[..., 2] = u[..., None]
    frames = np.array([rotation_to(axis) for axis in axes])
    nodes = local.reshape(len(frames), -1, 3) @ frames.transpose(0, 2, 1)
    return nodes, (wu[..., None] * wphi).reshape(len(frames), -1)


def sphere_nodes(n_u: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n_u * n_phi, 3) and weights on the whole sphere: the one cap
    around +z of angle pi."""
    nodes, weights = cap_nodes([(0.0, 0.0, 1.0)], [-1.0], n_u, n_phi)
    return nodes[0], weights[0]


def outcome_rule(space, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The fewest-node rule on the whole space exact for degree ``2L``, built
    once, read-only: ``(L+1) x (2L+1)`` nodes on the sphere, the
    ``2L+1``-point trapezoid on the circle."""
    if space == SPHERE:
        return frozen_rule(sphere_nodes, degree + 1, 2 * degree + 1)
    return frozen_rule(circle_nodes, 2 * degree + 1)


def mixing_rule(space) -> tuple[np.ndarray, np.ndarray]:
    """The fixed rule in a mixing law's parameter x, weights summing to 1:
    16 equal shifts of the circle; on the sphere, Euler coordinates
    ``(alpha, cos beta, gamma)`` on 8 equal alpha, 4 Gauss-Legendre
    cos beta and 4 equal gamma."""
    if space != SPHERE:
        x, w = circle_nodes(16)
        return x, w / TWO_PI
    u, wu = gauss_legendre(4, -1.0, 1.0)
    alpha, gamma = np.arange(8) * (TWO_PI / 8), np.arange(4) * (TWO_PI / 4)
    grid = np.stack(np.meshgrid(alpha, u, gamma, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid, np.tile(np.repeat(wu / 64.0, 4), 8)


def integrate_sphere_region(f, caps, degree: int):
    """Surface integral over a union of caps of a polynomial of degree L.

    ``f`` maps an (m, 3) array of unit vectors to an (m,) array of values;
    each cap gets ``ceil((L+1)/2) x (L+1)`` nodes in its own frame, all
    caps' nodes are built together (`cap_nodes`), and ``f`` is evaluated
    once, on all of them.  The caps must be pairwise disjoint, which the
    caller checks (`Region.caps_pairwise_disjoint`); this keeps every
    quadrature sub-domain free of indicator jumps, so accuracy is set by
    the smooth integrand alone.
    """
    if not caps:
        return 0.0
    cosines = np.cos([cap.angle for cap in caps])
    nodes, weights = cap_nodes([cap.axis for cap in caps], cosines, (degree + 2) // 2, degree + 1)
    return _piecewise_sum(f, nodes, weights)


def circle_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, 2*pi)."""
    phi = np.arange(n) * (TWO_PI / n)
    return phi, np.full(n, TWO_PI / n)


def integrate_intervals(f, intervals):
    """64-node Gauss-Legendre integral of a smooth function over interval
    pieces ``(a, b)``: every piece's nodes in one map of the reference
    rule, and ``f``, mapping an (m,) array to (m,) values, evaluated once,
    on all of them."""
    if not intervals:
        return 0.0
    a, b = np.asarray(intervals, dtype=float).T
    return _piecewise_sum(f, *gauss_legendre(64, a, b))


def _piecewise_sum(f, nodes, weights):
    """``sum_pieces sum_k w_k f(x_k)`` over pieces of equal node count,
    ``nodes`` (P, m, ...) and ``weights`` (P, m): one call of ``f`` on all
    nodes, then one BLAS dot ``w @ v`` per piece, added in piece order."""
    values = np.asarray(f(nodes.reshape(-1, *nodes.shape[2:]))).reshape(weights.shape)
    total = 0.0
    for w, v in zip(weights, values):
        total = total + w @ v
    return total
