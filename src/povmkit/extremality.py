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
stacked support eigendecomposition, the one the input's validation
took (with the `NumericalRankAmbiguity` band test); from then on slot
i is ``V_i B_i V_i^†`` with ``B_i`` positive definite.  Each step moves
along a null vector found by elimination, as in the classical proof of
Carathéodory's theorem and in recombination (Litterer & Lyons, Ann.
Appl. Probab. 22, 1301, 2012):
the active slots are taken in slot order until their block coordinates
(``r_i**2`` each) number more than ``d**2``, and one small SVD of their
lifts gives a perturbation that moves only them.  No kernel basis is
kept, so no step grows with the number of slots.  The step length is
the ratio test ``b_i / |q_i|`` for rank-one slots and an ``r_i x r_i``
eigenproblem otherwise, and the slot that hits the boundary loses that
direction exactly; a slot that keeps part of its support takes its new
``V_i`` from one eigendecomposition of its moved core.  A point is
extremal when the lifts of all its active slots are independent.  Only
a step whose own rank decision falls inside the band reruns the
input-face code on the new point (`_Face.build`).

A face has one layout, the one `operators.support` returns: every slot
padded to the largest support rank.  `perturbation_space`,
`kernel_dimension` and `is_extremal` read `_Face.kernel` over all active
slots of one POVM's face.
`perturbation_space` returns that SVD's orthonormal basis, lifted to
``C^d``; its bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import DegeneratePerturbation, TermBudgetExceeded
from .povm import FinitePOVM, check_povm


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Direction along which a POVM can move while staying a POVM.

    ``components`` is one complex array ``(n, d, d)`` aligned with the
    POVM's entries; zero elements carry zero components.  Normalized so
    the summed squared Frobenius norm is 1.
    """

    components: np.ndarray


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


class _Face:
    """One point of the peeling walk, in support coordinates.

    Slot i holds ``V_i B_i V_i^†``: ``r_i = rank[i]``, ``V_i`` the first
    ``r_i`` (orthonormal) columns of ``vecs[i]`` and ``B_i`` the leading
    ``r_i x r_i`` block of ``core[i]``, positive definite.  Every slot is
    padded to the largest support rank R of the face it was built from:
    the other columns of ``vecs[i]`` are zero and the rest of ``core[i]``
    is the identity.  A perturbation is given in the Hermitian
    coordinates of the cores, ``R**2`` per slot and zero outside each
    ``r_i x r_i`` block; for active slots, ``lift`` ``(n, d**2, R**2)``
    (:func:`_lift` of ``vecs``) maps them to coordinates on C^d.  No
    kernel basis is kept: :meth:`kernel` solves for the perturbations
    that move a given set of slots.
    """

    __slots__ = ("rank", "vecs", "core", "lift")

    def __init__(self, rank, vecs, core, lift):
        self.rank, self.vecs, self.core, self.lift = rank, vecs, core, lift

    @classmethod
    def build(cls, elements: np.ndarray, gap: float, check_band: bool, eig=None) -> "_Face":
        """The face of ``elements`` ``(n, d, d)``.

        One stacked :func:`operators.support` call (one finiteness and
        Hermiticity check and one eigendecomposition, or ``eig`` from
        `check_povm`; the ``gap`` threshold and, with ``check_band``, the
        :class:`NumericalRankAmbiguity` band test) and one :func:`_lift`
        of the padded support bases.
        """
        rank, vecs, vals = op.support(elements, threshold=gap, check_band=check_band, eig=eig)
        core = vals[..., None] * np.eye(vecs.shape[2], dtype=complex)
        return cls(rank, vecs, core, _lift(vecs))

    def kernel(self, slots: np.ndarray, gap: float) -> np.ndarray:
        """Orthonormal basis ``(len(slots), R**2, k)`` of the perturbations
        that move only ``slots`` (active, ascending), in core coordinates.

        One SVD for the constraint ``sum_i Q_i = 0`` of the lifts of each
        slot's ``r_i x r_i`` block side by side, ``(d**2, sum r_i**2)``;
        singular values at or below ``gap * max(1, s_max)`` count as zero.
        """
        size = self.core.shape[1]
        block = _reach(size) < self.rank[slots, None]  # max(row, col) < r_i
        _, s, vt = np.linalg.svd(self.lift[slots].swapaxes(0, 1)[:, block])
        cut = np.count_nonzero(s > gap * np.max(s, initial=1.0))
        out = np.zeros((len(slots), size * size, len(vt) - cut))
        out[block] = vt[cut:].T
        return out

    def elements(self) -> np.ndarray:
        """The elements ``(n, d, d)``; a slot of rank 0 is exactly zero."""
        out = self.vecs @ self.core @ self.vecs.conj().swapaxes(1, 2)
        out[self.rank == 0] = 0.0
        return out

    def matrices(self, coords: np.ndarray) -> np.ndarray:
        """The stack ``(n, d, d)`` of ``V_i H_i V_i^†`` for the Hermitian
        ``H_i`` with core coordinates ``coords``."""
        n, size = self.core.shape[:2]
        h = op.coords_to_hermitian(coords.reshape(n, size * size), size)
        return self.vecs @ h @ self.vecs.conj().swapaxes(1, 2)

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Core coordinates of ``V_i^† a_i V_i`` for the Hermitian stack
        ``a`` ``(n, d, d)``."""
        v = self.vecs
        out = op.hermitian_to_coords(v.conj().swapaxes(1, 2) @ a @ v)
        out[self.rank == 0] = 0.0
        return out.ravel()


def _check_gap(gap: float) -> None:
    if not 0.0 < gap < 1.0:  # also false for NaN
        raise ValueError(f"gap must be finite with 0 < gap < 1, got {gap!r}")


def _advance(face: _Face, q: np.ndarray, gap: float) -> tuple[float, _Face]:
    """Push ``face`` along the perturbation ``q`` (core coordinates, unit
    norm) to the PSD boundary: ``(t_plus, next face)``.

    Only the slots where ``q`` is nonzero move.  Per moved slot,
    ``1 + t alpha`` over the eigenvalues ``alpha`` of ``B^{-1/2} H
    B^{-1/2}`` is the share of each eigendirection of the core left
    after a step t; for rank-one slots it is the ratio test ``1 + t q_i
    / b_i``.  The step is the least t that zeroes a share, and that slot
    loses that direction exactly; any other share at or below ``gap`` is
    a tie and goes with it.  A slot that keeps part of its support takes
    its new support from one eigendecomposition of its moved core, with
    the lost shares removed, and only that slot is lifted again.  A
    share inside the band ``(gap/16, 16 gap)``, or a core that rounding
    has left without a positive spectrum, rebuilds the point with
    :meth:`_Face.build` and its band test instead.
    """
    lo_band, hi_band = gap / op.GAP_BAND, gap * op.GAP_BAND
    n, size = face.core.shape[:2]
    h = q.reshape(n, size * size)
    moved = np.flatnonzero(h.any(axis=1))
    h = h[moved]
    core = face.core[moved]
    if size == 1:
        herm = h[:, :, None]
        alpha = h / core[:, :, 0].real
    else:
        lam, vec = np.linalg.eigh(core)
        if (lam[:, 0] <= 0).any():
            mats = face.matrices(q)
            face = _Face.build(face.elements(), gap, check_band=True)
            return _advance(face, face.coords(mats), gap)
        herm = op.coords_to_hermitian(h, size)
        w = vec / np.sqrt(lam)[:, None, :]  # w^† H w is similar to B^{-1/2} H B^{-1/2}
        scaled = w.conj().swapaxes(1, 2) @ herm @ w
        alpha, y = np.linalg.eigh(0.5 * (scaled + scaled.conj().swapaxes(1, 2)))
    alpha[np.einsum("ij,ij->i", h, h) <= 1e-28] = 0.0
    hit = int(np.argmin(alpha[:, 0]))
    if not alpha[hit, 0] < 0:
        raise DegeneratePerturbation(
            "step unbounded in one direction; not a POVM perturbation"
        )
    t = -1.0 / float(alpha[hit, 0])
    share = 1.0 + t * alpha
    share[hit, 0] = 0.0
    drops = (share <= gap).sum(axis=1)  # shares ascend

    core += t * herm
    rank, vecs, lift = face.rank.copy(), face.vecs, face.lift
    for j in np.flatnonzero(drops).tolist():
        i, lost = moved[j], int(drops[j])
        r = int(rank[i])
        keep = rank[i] = r - lost
        if not keep:
            core[j] = np.eye(size)
            continue
        # B + t H = g diag(share) g^† with g = B^{1/2} y; drop the lost part
        g = (vec[j] * np.sqrt(lam[j])) @ y[j][:, :lost]
        kept = core[j] - (g * share[j, :lost]) @ g.conj().T
        vals, u = np.linalg.eigh(0.5 * (kept + kept.conj().T)[:r, :r])
        if vecs is face.vecs:
            vecs, lift = vecs.copy(), lift.copy()
        vecs[i, :, :keep] = face.vecs[i, :, :r] @ u[:, lost:]
        vecs[i, :, keep:] = 0.0
        lift[i] = _lift(vecs[i : i + 1])[0]
        core[j] = np.eye(size)
        core[j, :keep, :keep] = np.diag(vals[lost:])
    cores = face.core.copy()
    cores[moved] = core
    nxt = _Face(rank, vecs, cores, lift)
    if ((share > lo_band) & (share < hi_band)).any():
        return t, _Face.build(nxt.elements(), gap, check_band=True)
    return t, nxt


def perturbation_space(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> list[Perturbation]:
    """Orthonormal basis of valid perturbations of ``p``.

    Empty list iff ``p`` is extremal.  Entries with zero element admit
    no on-support perturbation and are skipped.  Each member's
    ``components`` is an ``(n, d, d)`` view into one ``(k, n, d, d)``
    array for the k kernel directions.

    The basis is the one the SVD of the walk's input face returns
    (:meth:`_Face.kernel`: one stacked :func:`operators.support` call
    with the ``gap`` threshold, and one SVD), lifted to ``C^d``; its
    bytes do not depend on the BLAS thread count.  ``p`` is not
    validated here; `kernel_dimension` and `is_extremal` check theirs.
    Raises ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    face = _Face.build(p.elements, gap, check_band=False)
    active = np.flatnonzero(face.rank)
    null = face.kernel(active, gap)
    n, d, k = len(p), p.dim, null.shape[2]
    if not k:
        return []
    coords = np.zeros((k, n, d * d))
    coords[:, active] = (face.lift[active] @ null).transpose(2, 0, 1)
    return [Perturbation(components=q) for q in op.coords_to_hermitian(coords, d)]


def kernel_dimension(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> int:
    """Dimension of the perturbation space of ``p``; 0 iff ``p`` is extremal.

    Takes the kernel alone, without lifting it as
    :func:`perturbation_space` does.  Raises :class:`InvalidPOVM` if ``p``
    fails :func:`validate_povm`, and ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    face = _Face.build(p.elements, gap, check_band=False, eig=check_povm(p))
    return face.kernel(np.flatnonzero(face.rank), gap).shape[2]


def is_extremal(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> bool:
    """True iff ``p`` admits no nonzero perturbation.

    Raises :class:`InvalidPOVM` if ``p`` fails :func:`validate_povm`.
    """
    return kernel_dimension(p, gap=gap) == 0


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


def _complete(elements: np.ndarray) -> np.ndarray:
    """``A P_i A`` for a term's elements ``P_i``, their sum ``S = I + E``
    and ``A = (3I - S)/2``, one Newton-Schulz step toward ``S^{-1/2}``:
    the new sum is ``I - 3E^2/4 + E^3/4``.  Away steps divide by the
    weight left, so ``E`` of a low-weight term can reach about 1e-9.  An
    invertible congruence keeps ranks, extremality and zero elements.
    """
    a = elements.sum(axis=0)
    a *= -0.5
    a.flat[:: len(a) + 1] += 1.5  # the diagonal
    return a @ elements @ a


def decompose_extremal(
    p: FinitePOVM,
    max_terms: int = 256,
    gap: float = op.GAP_THRESHOLD,
) -> DecompositionResult:
    """Decompose ``p`` into a convex combination of extremal POVMs.

    Carathéodory peeling: from the current POVM ``x`` (initially ``p``),
    push along perturbations to the PSD boundary until an extremal point
    ``e`` of ``x``'s face is reached; then step from ``x`` away from
    ``e`` to the boundary point ``r``, record ``e`` with the weight
    ``λ`` that gives ``x = λ e + (1 - λ) r``, and continue on ``r``.
    Each step strictly shrinks the face, so there are at most (face
    dimension of ``p``) + 1 terms, pairwise distinct.

    Only the input face takes a stacked support eigendecomposition
    (:meth:`_Face.build`, from the eigenpairs of :func:`check_povm`).
    Every later point moves the positive
    definite cores ``B_i`` (:func:`_advance`).  The walk to ``e`` steps
    along a null vector of the first active slots whose block
    coordinates number more than ``d**2`` (:meth:`_Face.kernel`), so each
    step solves a problem of at most ``d**2 + R**2`` columns, R the
    largest support rank; ``e`` is reached when all active slots are
    independent.  The away step moves every slot where ``x`` and ``e``
    differ.  Each step drops the direction that hits the boundary
    exactly: a slot removed this way is exactly zero in every later
    point and term.  The walk moves arrays; a :class:`FinitePOVM` is
    built only for each returned term, from its elements brought back to
    sum to I (:func:`_complete`).

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
    terms, d2 = [], p.dim**2
    x, rest = _Face.build(p.elements, gap, check_band=True, eig=check_povm(p)), 1.0
    while True:
        x_elements = x.elements()
        if len(terms) >= max_terms:
            raise TermBudgetExceeded(
                f"decomposition exceeded {max_terms} terms",
                partial_terms=[(w, e, True) for w, e in terms]
                + [(rest, p.replace_elements(x_elements), False)],
            )
        e = x
        while True:
            # the active slots in slot order, until their block coordinates
            # number more than d**2: then they have a null vector
            active = np.flatnonzero(e.rank)
            slots = active[: np.searchsorted(np.cumsum(e.rank[active] ** 2), d2, "right") + 1]
            null = e.kernel(slots, gap)
            if not null.shape[2]:
                break
            q = np.zeros((len(e.rank), null.shape[1]))
            q[slots] = null[..., 0]
            e = _advance(e, q.ravel(), gap)[1]
        if e is x:
            terms.append((rest, p.replace_elements(_complete(x_elements))))
            break
        e_elements = e.elements()
        diff = x_elements - e_elements
        dist = op.frobenius(diff)
        t, x = _advance(x, x.coords(diff) / dist, gap)
        terms.append((rest * t / (t + dist), p.replace_elements(_complete(e_elements))))
        rest = rest * dist / (t + dist)
    return DecompositionResult(terms=tuple(terms), depth=len(terms) - 1)
