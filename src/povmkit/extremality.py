"""Extremality of finite POVMs and decomposition into extremal ones.

A finite POVM fails to be extremal in the convex set of POVMs exactly
when it admits a nonzero perturbation: a tuple of Hermitian matrices
``Q_i`` summing to zero, with ``range(Q_i)`` inside ``range(P_i)``, so
that ``P_i ± t Q_i`` stays a POVM for small t.  On finite support that
is a linear kernel problem: parametrize each ``Q_i`` by a Hermitian
basis of the support of ``P_i`` and solve ``sum_i Q_i = 0``.

Non-extremal POVMs are decomposed by Carathéodory peeling (Sentís,
Gendra, Bartlett & Doherty, J. Phys. A 46, 375302, 2013): walk to an
extremal point of the current face by pushing along perturbations to
the PSD boundary, split that point off, and continue on the strictly
smaller face that remains.  The result is a convex combination of at
most (face dimension + 1) extremal POVMs, each with at most ``dim**2``
nonzero, linearly independent elements.

The walk works in support coordinates.  At the input it takes one
stacked support eigendecomposition (with the `NumericalRankAmbiguity`
band test) and one kernel SVD; from then on slot i is ``V_i B_i V_i^†``
with its support basis ``V_i`` fixed and ``B_i`` positive definite.  A
kernel direction moves only the ``B_i``; its step length is the ratio
test ``b_i / |q_i|`` for rank-one slots and an ``r_i x r_i``
eigenproblem otherwise, and the slot that hits the boundary loses that
direction exactly.  The kernel is then downdated to the part that
vanishes on the removed coordinates, and the canonical direction is
read from the k kernel coefficients.  Only a step whose own rank
decision falls inside the band reruns the input-face code on the new
point (`_Face.build`).

A face has one layout, the one `operators.support` returns: every slot
padded to the largest support rank.  `perturbation_space`,
`kernel_dimension` and `is_extremal` read the `_Face.build` of one
POVM, and `max_step` its padded supports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import DegeneratePerturbation, DimensionMismatch, TermBudgetExceeded
from .povm import FinitePOVM, check_povm


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Direction along which a POVM can move while staying a POVM.

    ``components`` is one complex array ``(n, d, d)`` aligned with the
    POVM's entries (any sequence of n matrices is stacked into one);
    zero elements carry zero components.  Normalized so the summed
    squared Frobenius norm is 1.
    """

    components: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.components, dtype=complex)
        if q.ndim != 3 or q.shape[1] != q.shape[2]:
            raise DegeneratePerturbation(
                f"components must be a stack (n, d, d), got shape {q.shape}"
            )
        object.__setattr__(self, "components", q)

    def norm(self) -> float:
        return op.frobenius(self.components)

    def _matching(self, p: FinitePOVM) -> np.ndarray:
        """The components, checked against ``p``: count, dimension, Hermiticity."""
        q = self.components
        if len(q) != len(p):
            raise DegeneratePerturbation("component count does not match POVM")
        if q.shape[1] != p.dim:
            raise DimensionMismatch(f"component dimension {q.shape[1]} does not match POVM")
        op.check_hermitian(q, name="perturbation component", stack=True)
        return q

    def check(self, p: FinitePOVM, tol: float = 1e-8) -> None:
        """Raise if this is not a valid perturbation for ``p``.

        One stacked Hermiticity check over the components and one stacked
        support call over the elements; each component is held to its
        element's support.
        """
        q = self._matching(p)
        if op.frobenius(q.sum(axis=0)) > 1e-9:
            raise DegeneratePerturbation("components do not sum to zero")
        _, vecs, _ = op.support(p.elements)
        pi = vecs @ vecs.conj().swapaxes(1, 2)
        leak = np.linalg.norm(q - pi @ q @ pi, axis=(1, 2))
        bad = leak > tol * (1.0 + np.linalg.norm(q, axis=(1, 2)))
        if np.any(bad):
            raise DegeneratePerturbation(
                f"component leaks outside element support by {np.max(leak[bad]):.3e}"
            )
        if abs(self.norm() - 1.0) > 1e-8:
            raise DegeneratePerturbation("perturbation is not normalized")


def _lift(vecs: np.ndarray) -> np.ndarray:
    """Coordinate matrices ``(g, d**2, r**2)`` of ``B -> V B V^†``, one
    per basis ``V`` of ``vecs`` ``(g, d, r)``; isometries on the
    coordinates of the support columns of ``V``."""
    r = vecs.shape[2]
    lifted = vecs[:, None] @ op.hermitian_basis(r) @ vecs.conj().swapaxes(1, 2)[:, None]
    return op.hermitian_to_coords(lifted).swapaxes(1, 2)


@functools.lru_cache(maxsize=None)
def _reach(size: int) -> np.ndarray:
    """Largest row or column index of the entry behind each Hermitian
    coordinate of a ``size x size`` matrix."""
    out = np.concatenate([np.arange(size), np.repeat(np.triu_indices(size, 1)[1], 2)])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _touching(lo: int, hi: int, size: int) -> np.ndarray:
    """Mask of the Hermitian coordinates of a ``size x size`` matrix whose
    entry has a row or column index in ``[lo, hi)``."""
    hit = np.zeros((size, size), dtype=bool)
    hit[lo:hi] = hit[:, lo:hi] = True
    out = np.concatenate([np.diag(hit), np.repeat(hit[np.triu_indices(size, 1)], 2)])
    out.setflags(write=False)
    return out


class _Face:
    """One point of the peeling walk, in support coordinates.

    Slot i holds ``V_i B_i V_i^†``: ``r_i = rank[i]``, ``V_i`` the first
    ``r_i`` (orthonormal) columns of ``vecs[i]`` and ``B_i`` the leading
    ``r_i x r_i`` block of ``core[i]``, positive definite.  Every slot is
    padded to the largest support rank R of the face it was built from:
    the other columns of ``vecs[i]`` are zero and the rest of ``core[i]``
    is the identity.  ``cols`` ``(n R**2, k)`` is an orthonormal basis of
    the perturbation kernel in the Hermitian coordinates of the cores,
    ``R**2`` rows per slot, zero outside each ``r_i x r_i`` block.  For
    active slots, ``lift`` ``(n, d**2, R**2)`` (:func:`_lift` of ``vecs``)
    maps those coordinates to coordinates on C^d, and ``sec`` ``(n,
    R**2, R**2)`` is the block ``lift^T diag(0, .., d**2 - 1) lift`` of
    the secondary form of :func:`_canonical_basis`.
    """

    __slots__ = ("rank", "vecs", "core", "lift", "sec", "cols")

    def __init__(self, rank, vecs, core, cols, lift, sec):
        self.rank, self.vecs, self.core, self.cols = rank, vecs, core, cols
        self.lift, self.sec = lift, sec

    @classmethod
    def build(cls, elements: np.ndarray, gap: float, check_band: bool) -> "_Face":
        """The face of ``elements`` ``(n, d, d)``.

        One stacked :func:`operators.support` call (one finiteness and
        Hermiticity check, one eigendecomposition, the ``gap`` threshold
        and, with ``check_band``, the :class:`NumericalRankAmbiguity` band
        test), one :func:`_lift` of the padded support bases, and one SVD
        for the constraint ``sum_i Q_i = 0`` of the lifts of every slot's
        ``r_i x r_i`` block side by side, ``(d**2, sum_i r_i**2)``.
        """
        rank, vecs, vals = op.support(elements, threshold=gap, check_band=check_band)
        n, d, size = vecs.shape
        lift = _lift(vecs)
        sec = lift.swapaxes(1, 2) @ (np.arange(d * d, dtype=float)[:, None] * lift)
        block = _reach(size) < rank[:, None]  # max(row, col) < r_i
        _, s, vt = np.linalg.svd(lift.swapaxes(0, 1)[:, block])
        cut = np.count_nonzero(s > gap * np.max(s, initial=1.0))
        cols = np.zeros((n, size * size, len(vt) - cut))
        cols[block] = vt[cut:].T
        core = vals[..., None] * np.eye(size, dtype=complex)
        return cls(rank, vecs, core, cols.reshape(n * size * size, -1), lift, sec)

    def elements(self) -> np.ndarray:
        """The elements ``(n, d, d)``; a slot of rank 0 is exactly zero."""
        out = self.vecs @ self.core @ self.vecs.conj().swapaxes(1, 2)
        out[self.rank == 0] = 0.0
        return out

    def matrices(self, coords: np.ndarray) -> np.ndarray:
        """The stack ``(n, d, d)`` of ``V_i H_i V_i^†`` for the Hermitian
        ``H_i`` with coordinates ``coords`` (rows as in ``cols``)."""
        n, size = self.core.shape[:2]
        h = op.coords_to_hermitian(coords.reshape(n, size * size), size)
        return self.vecs @ h @ self.vecs.conj().swapaxes(1, 2)

    def lifted(self, columns: np.ndarray) -> np.ndarray:
        """``columns`` (rows as in ``cols``) in coordinates on C^d, through
        ``lift``: ``d**2`` rows per active slot."""
        n, size = self.core.shape[:2]
        out = self.lift @ columns.reshape(n, size * size, -1)
        return out[self.rank > 0].reshape(-1, columns.shape[1])

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Coordinates (rows as in ``cols``) of ``V_i^† a_i V_i`` for the
        Hermitian stack ``a`` ``(n, d, d)``."""
        v = self.vecs
        out = op.hermitian_to_coords(v.conj().swapaxes(1, 2) @ a @ v)
        out[self.rank == 0] = 0.0
        return out.ravel()


def _check_gap(gap: float) -> None:
    if not 0.0 < gap < 1.0:  # also false for NaN
        raise ValueError(f"gap must be finite with 0 < gap < 1, got {gap!r}")


def _canonical_basis(cols, traces, weigh, lift, count: int) -> np.ndarray:
    """Deterministically rotate an orthonormal kernel basis.

    ``cols`` holds one kernel vector per column and ``traces`` its
    ``Tr[Q_i]`` per slot (one row each).  The SVD returns an arbitrary
    orthonormal basis of the kernel; to make decompositions reproducible
    and balanced we order it by increasing value of the quadratic form
    ``sum_i Tr[Q_i]^2`` (so trace-balanced directions come first), break
    ties with the fixed form that weighs the j-th of the ``m`` lifted
    coordinates (``d**2`` per active slot, 1-based) by ``j / m``
    (``weigh(block)`` applies it to columns of ``cols``), and fix each
    sign so that the first lifted coordinate above 1e-8 in magnitude
    (``lift(columns)``, ``m`` rows) is positive.

    Only the leading ``count`` columns are returned.  Every tie cluster
    they touch is refined whole, so they equal the leading columns of
    the full basis.
    """
    k = cols.shape[1]
    vals, rot = np.linalg.eigh(traces.T @ traces)
    # the numerically degenerate clusters that the leading columns touch
    scale = 1.0 + abs(float(vals[-1]))
    bounds = [0]
    while bounds[-1] < count:
        i = j = bounds[-1]
        while j < k and abs(vals[j] - vals[i]) <= 1e-9 * scale:
            j += 1
        bounds.append(j)
    basis = cols @ rot[:, : bounds[-1]]

    # refine them with a fixed secondary form
    for i, j in zip(bounds, bounds[1:]):
        if j - i > 1:
            block = basis[:, i:j]
            sec = block.T @ weigh(block)
            _, rot2 = np.linalg.eigh(0.5 * (sec + sec.T))
            basis[:, i:j] = block @ rot2

    basis = basis[:, :count]
    lifted = lift(basis)
    big = np.abs(lifted) > 1e-8
    lead = big.argmax(axis=0)  # first significant row, 0 if there is none
    c = np.arange(count)
    basis[:, big[lead, c] & (lifted[lead, c] < 0)] *= -1.0
    return basis


def _direction(face: _Face) -> np.ndarray:
    """The first canonical kernel direction at ``face`` (coordinates as in
    ``face.cols``): the forms of :func:`_canonical_basis`, evaluated on
    the k kernel coefficients through the per-slot traces, ``sec`` and
    ``lift``."""
    n, size = face.core.shape[:2]
    d2 = face.lift.shape[1]
    stack = face.cols.reshape(n, size * size, -1)
    active = face.rank > 0
    m = int(np.count_nonzero(active)) * d2
    # lifted coordinate j of the a-th active slot weighs (a d**2 + j + 1) / m
    scale = ((np.cumsum(active) - 1) * d2 + 1.0)[:, None, None] / m

    def weigh(block):
        b = block.reshape(n, size * size, -1)
        return (scale * b + face.sec @ b / m).reshape(block.shape)

    return _canonical_basis(face.cols, stack[:, :size].sum(axis=1), weigh, face.lifted, 1)[:, 0]


def _scaled(vecs, vals, q):
    """``(W^† q W, W)`` per slot, with ``W = vecs diag(vals)^{-1/2}``; the
    product exactly symmetrized."""
    w = vecs / np.sqrt(vals)[:, None, :]
    scaled = w.conj().swapaxes(1, 2) @ q @ w
    return 0.5 * (scaled + scaled.conj().swapaxes(1, 2)), w


def _trailing(u: np.ndarray) -> np.ndarray:
    """A unitary ``(r, r)`` whose last ``c`` columns span the columns of
    ``u`` ``(r, c)``: one complex Householder reflection per column."""
    r, c = u.shape
    u = u[::-1].copy()
    basis = np.eye(r, dtype=complex)
    for j in range(c):
        v = u[j:, j].copy()
        norm = math.sqrt(np.vdot(v, v).real)
        v[0] += norm * v[0] / abs(v[0]) if v[0] else norm
        v *= math.sqrt(2.0 / np.vdot(v, v).real)
        u[j:, j:] -= v[:, None] * (v.conj() @ u[j:, j:])
        basis[:, j:] -= (basis[:, j:] @ v)[:, None] * v.conj()
    return basis[::-1, ::-1]


def _advance(face: _Face, q: np.ndarray, gap: float) -> tuple[float, _Face]:
    """Push ``face`` along the kernel direction ``q`` (coordinates as in
    ``face.cols``, unit norm) to the PSD boundary: ``(t_plus, next face)``.

    Per slot, ``1 + t alpha`` over the eigenvalues ``alpha`` of
    ``B^{-1/2} H B^{-1/2}`` is the share of each eigendirection of the
    core left after a step t; for rank-one slots it is the ratio test
    ``1 + t q_i / b_i``.  The step is the least t that zeroes a share,
    and that slot loses that direction exactly; any other share at or
    below ``gap`` is a tie and goes with it.  A slot that keeps part of
    its support is rotated so that the kept directions lead.  The kernel
    is downdated to its part that vanishes on the removed coordinates:
    the nullspace of one small matrix.  A share or a singular value of
    that matrix inside the band ``(gap/16, 16 gap)``, or a core that
    rounding has left without a positive spectrum, rebuilds the point
    with :meth:`_Face.build` and its band test instead.
    """
    lo_band, hi_band = gap / op.GAP_BAND, gap * op.GAP_BAND
    n, size = face.core.shape[:2]
    h = q.reshape(n, size * size)
    if size == 1:
        herm = h[:, :, None]
        alpha = h / face.core[:, :, 0].real
    else:
        lam, vec = np.linalg.eigh(face.core)
        if (lam[:, 0] <= 0).any():
            mats = face.matrices(q)
            face = _Face.build(face.elements(), gap, check_band=True)
            return _advance(face, face.coords(mats), gap)
        herm = op.coords_to_hermitian(h, size)
        scaled, w = _scaled(vec, lam, herm)
        alpha, y = np.linalg.eigh(scaled)
    alpha[np.einsum("ij,ij->i", h, h) <= 1e-28] = 0.0
    hit = int(np.argmin(alpha[:, 0]))
    if not alpha[hit, 0] < 0:
        raise DegeneratePerturbation(
            "step unbounded in one direction; not a POVM perturbation"
        )
    t = -1.0 / float(alpha[hit, 0])
    share = 1.0 + t * alpha
    share[hit, 0] = 0.0
    ambiguous = bool(((share > lo_band) & (share < hi_band)).any())
    drops = (share <= gap).sum(axis=1)  # shares ascend

    rank, vecs, core = face.rank.copy(), face.vecs, face.core + t * herm
    lift, sec = face.lift, face.sec
    cols = face.cols.reshape(n, size * size, -1).copy()
    constraints, removed = [], []
    for i in np.flatnonzero(drops).tolist():
        r, lost = int(rank[i]), int(drops[i])
        keep = rank[i] = r - lost
        if not keep:
            constraints.append(cols[i])
            removed.append((i, slice(None)))
            core[i] = np.eye(size)
            continue
        # rotate the r x r block so that its kept directions lead; `turn`
        # maps Hermitian coordinates through X -> rot^† X rot
        rot = np.eye(size, dtype=complex)
        rot[:r, :r] = _trailing((w[i] @ y[i][:, :lost])[:r])
        turn = op.hermitian_to_coords(rot.conj().T @ op.hermitian_basis(size) @ rot).T
        mask = _touching(keep, r, size)
        cols[i] = turn @ cols[i]
        constraints.append(cols[i][mask])
        removed.append((i, mask))
        sub = (rot.conj().T @ core[i] @ rot)[:keep, :keep]
        core[i] = np.eye(size)
        core[i][:keep, :keep] = 0.5 * (sub + sub.conj().T)
        if lift is face.lift:
            vecs, lift, sec = vecs.copy(), lift.copy(), sec.copy()
        vecs[i] = vecs[i] @ rot
        vecs[i][:, keep:] = 0.0
        lift[i] = lift[i] @ turn.T
        lift[i][:, mask] = 0.0
        sec[i] = turn @ sec[i] @ turn.T
        sec[i][mask] = sec[i][:, mask] = 0.0

    _, s, vt = np.linalg.svd(np.vstack(constraints))
    if ambiguous or ((s > lo_band) & (s < hi_band)).any():
        nxt = _Face(rank, vecs, core, cols, lift, sec)
        return t, _Face.build(nxt.elements(), gap, check_band=True)
    cols = cols.reshape(n * size * size, -1) @ vt[np.count_nonzero(s > gap) :].T
    stack = cols.reshape(n, size * size, -1)
    for i, rows in removed:
        stack[i, rows] = 0.0
    return t, _Face(rank, vecs, core, cols, lift, sec)


def perturbation_space(
    p: FinitePOVM,
    gap: float = op.GAP_THRESHOLD,
    check_band: bool = False,
) -> list[Perturbation]:
    """Orthonormal basis of valid perturbations of ``p``.

    Empty list iff ``p`` is extremal.  Entries with zero element admit
    no on-support perturbation and are skipped.  Each member's
    ``components`` is an ``(n, d, d)`` view into one ``(k, n, d, d)``
    array for the k kernel directions, in canonical order
    (:func:`_canonical_basis`).

    The kernel is the one of the walk's input face: one stacked
    :func:`operators.support` call, with the ``gap`` threshold and (with
    ``check_band``) the :class:`NumericalRankAmbiguity` band test per
    element, and one SVD.  ``p`` is not validated here: `decompose_extremal`
    walks faces that are POVMs by construction; `is_extremal` checks its
    input.
    Raises ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    face = _Face.build(p.elements, gap, check_band)
    n, d, k = len(p), p.dim, face.cols.shape[1]
    if not k:
        return []
    active, cols = face.rank > 0, face.lifted(face.cols)
    del face  # free the kernel and lifts before the canonical rotation
    m = cols.shape[0]
    traces = cols.reshape(m // (d * d), d * d, k)[:, :d].sum(axis=1)
    weights = np.arange(1, m + 1) / m
    cols = _canonical_basis(cols, traces, lambda b: weights[:, None] * b, lambda b: b, k)
    coords = np.zeros((k, n, d * d))
    coords[:, active] = cols.T.reshape(k, -1, d * d)
    return [Perturbation(components=q) for q in op.coords_to_hermitian(coords, d)]


def kernel_dimension(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> int:
    """Dimension of the perturbation space of ``p``; 0 iff ``p`` is extremal.

    Takes the kernel alone, without the canonical rotation of
    :func:`perturbation_space`.  Raises :class:`InvalidPOVM` if ``p``
    fails :func:`validate_povm`, and ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    check_povm(p)
    return _Face.build(p.elements, gap, check_band=False).cols.shape[1]


def is_extremal(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> bool:
    """True iff ``p`` admits no nonzero perturbation.

    Raises :class:`InvalidPOVM` if ``p`` fails :func:`validate_povm`.
    """
    return kernel_dimension(p, gap=gap) == 0


def max_step(p: FinitePOVM, q: Perturbation, gap: float = op.GAP_THRESHOLD) -> tuple[float, float]:
    """Largest steps keeping ``P ± t Q`` positive semidefinite.

    Per element the bound is ``1 / max eigenvalue`` of
    ``-(P_i^{-1/2} Q_i P_i^{-1/2})`` on the support of ``P_i`` (and of
    the unnegated conjugation for the minus direction); the returned
    pair is the minimum over elements, both finite and positive.

    The supports come from one stacked :func:`operators.support` call
    over the elements (finiteness and Hermiticity checked once), padded
    to the largest rank, and the scaled matrices ``W_i^† Q_i W_i``,
    ``W_i = V_i Λ_i^{-1/2}``, take one stacked ``np.linalg.eigh``;
    elements whose component is zero do not bound the step.

    A component count or dimension other than ``p``'s raises
    :class:`DegeneratePerturbation` or :class:`DimensionMismatch`, a
    non-Hermitian component :class:`NonHermitianInput`.  A zero-norm
    perturbation, or one unbounded in either direction, raises
    :class:`DegeneratePerturbation`; a ``gap`` outside ``(0, 1)``
    raises ``ValueError``.
    """
    _check_gap(gap)
    q = q._matching(p)
    if op.frobenius(q) < 1e-12:
        raise DegeneratePerturbation("perturbation has zero norm")
    _, vecs, vals = op.support(p.elements, threshold=gap)
    alpha = np.linalg.eigh(_scaled(vecs, vals, q)[0])[0]
    alpha[np.linalg.norm(q, axis=(1, 2)) <= 1e-14] = 0.0
    shrink, grow = -alpha[:, 0].min(), alpha[:, -1].max()
    if not (shrink > 0 and grow > 0):
        raise DegeneratePerturbation(
            "step unbounded in one direction; not a POVM perturbation"
        )
    return 1.0 / float(shrink), 1.0 / float(grow)


@dataclass(frozen=True)
class DecompositionResult:
    """Convex decomposition into extremal finite POVMs.

    ``terms`` are pairwise distinct ``(weight, povm)`` pairs with
    weights summing to one, at most (face dimension of the input) + 1 of
    them.  ``depth`` is the most split steps from the input to any one
    term: 0 for an extremal input, 1 for an even mixture of two
    extremals.  Each peel step splits off one term, so it is
    ``len(terms) - 1``.
    """

    terms: tuple
    depth: int

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    def reconstruct(self) -> np.ndarray:
        """Weighted sum ``(n, d, d)`` of the terms' element stacks,
        accumulated in term order."""
        out = np.zeros_like(self.terms[0][1].elements)
        for w, povm in self.terms:
            out = out + w * povm.elements
        return out

    def reconstruction_error(self, p: FinitePOVM) -> float:
        diff = self.reconstruct() - p.elements
        return float(np.max(np.linalg.norm(diff, axis=(1, 2))))


def decompose_extremal(
    p: FinitePOVM,
    max_terms: int = 256,
    gap: float = op.GAP_THRESHOLD,
) -> DecompositionResult:
    """Decompose ``p`` into a convex combination of extremal POVMs.

    Carathéodory peeling: from the current POVM ``x`` (initially ``p``),
    push along the first canonical perturbation to the PSD boundary until
    an extremal point ``e`` of ``x``'s face is reached; then step from
    ``x`` away from ``e`` to the boundary point ``r``, record ``e`` with
    the weight ``λ`` that gives ``x = λ e + (1 - λ) r``, and continue on
    ``r``.  Each step strictly shrinks the face, so there are at most
    (face dimension of ``p``) + 1 terms, pairwise distinct.

    Only the input face takes a stacked support eigendecomposition and a
    kernel SVD (:meth:`_Face.build`).  Every later point keeps its
    support bases and moves the positive definite cores ``B_i``
    (:func:`_advance`): each step drops the direction that hits the
    boundary exactly and downdates the kernel, and the away step reuses
    ``x``'s kernel.  A slot removed this way is exactly zero in every
    later point and term.  The walk moves arrays; a :class:`FinitePOVM`
    is built only for each returned term.

    Raises
    ------
    ValueError
        If ``max_terms < 1`` or ``gap`` is not in ``(0, 1)``.
    InvalidPOVM
        If ``p`` fails :func:`validate_povm`.
    TermBudgetExceeded
        If more than ``max_terms`` terms are needed; the terms found so
        far and the remaining face are attached for diagnostics.
    NumericalRankAmbiguity
        If a support decision falls inside the singular-value gap band:
        on the input face, or on a point the walk rebuilds from scratch
        because a step's own rank decision fell inside the band.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    _check_gap(gap)
    check_povm(p)
    terms = []
    x, rest = _Face.build(p.elements, gap, check_band=True), 1.0
    while True:
        x_elements = x.elements()
        if len(terms) >= max_terms:
            raise TermBudgetExceeded(
                f"decomposition exceeded {max_terms} terms",
                partial_terms=[(w, e, True) for w, e in terms]
                + [(rest, p.replace_elements(x_elements), False)],
            )
        if not x.cols.shape[1]:
            terms.append((rest, p.replace_elements(x_elements)))
            break
        e = x
        while e.cols.shape[1]:
            e = _advance(e, _direction(e), gap)[1]
        e_elements = e.elements()
        diff = x_elements - e_elements
        dist = op.frobenius(diff)
        t, x = _advance(x, x.coords(diff) / dist, gap)
        terms.append((rest * t / (t + dist), p.replace_elements(e_elements)))
        rest = rest * dist / (t + dist)
    return DecompositionResult(terms=tuple(terms), depth=len(terms) - 1)
