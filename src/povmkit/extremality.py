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

Every point the walk visits is one ``_Face``: the stacked ``(n, d, d)``
elements and their supports from one stacked eigendecomposition.  The
kernel (``_kernel``) and both step lengths (``_steps``) are read from
it.  The walk takes only the first canonical kernel direction, moves
arrays, and builds a :class:`FinitePOVM` only for each term it returns.
`perturbation_space`, `kernel_dimension`, `is_extremal` and `max_step`
build the face of one POVM and call the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import DegeneratePerturbation, TermBudgetExceeded
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

    def check(self, p: FinitePOVM, tol: float = 1e-8) -> None:
        """Raise if this is not a valid perturbation for ``p``.

        One stacked Hermiticity check over the components and one stacked
        support call over the elements; each component is held to its
        element's support.
        """
        q = self.components
        if len(q) != len(p):
            raise DegeneratePerturbation("component count does not match POVM")
        if op.frobenius(q.sum(axis=0)) > 1e-9:
            raise DegeneratePerturbation("components do not sum to zero")
        op.check_hermitian(q, name="perturbation component", stack=True)
        pi = np.array([v @ v.conj().T for v, _ in op.support(np.array(p.elements))])
        leak = np.linalg.norm(q - pi @ q @ pi, axis=(1, 2))
        bad = leak > tol * (1.0 + np.linalg.norm(q, axis=(1, 2)))
        if np.any(bad):
            raise DegeneratePerturbation(
                f"component leaks outside element support by {np.max(leak[bad]):.3e}"
            )
        if abs(self.norm() - 1.0) > 1e-8:
            raise DegeneratePerturbation("perturbation is not normalized")


def _rank_groups(supports) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Group per-slot ``(vecs, vals)`` pairs by support rank.

    Returns ``(r, slots, vecs, vals)`` for each rank ``r > 0`` present,
    ascending, with ``vecs`` stacked ``(g, d, r)`` and ``vals`` ``(g, r)``
    for the ``g`` slots (ascending indices) of that rank.
    """
    ranks = np.array([len(vals) for _, vals in supports])
    groups = []
    for r in sorted(set(ranks.tolist()) - {0}):
        slots = np.flatnonzero(ranks == r)
        vecs = np.array([supports[i][0] for i in slots])
        vals = np.array([supports[i][1] for i in slots])
        groups.append((r, slots, vecs, vals))
    return groups


class _Face:
    """One point of the peeling walk: its stacked elements ``(n, d, d)``
    and their supports, grouped by rank, from one stacked
    :func:`operators.support` call (one finiteness and Hermiticity check,
    one eigendecomposition, the ``gap`` threshold and, with
    ``check_band``, the :class:`NumericalRankAmbiguity` band test).
    """

    __slots__ = ("elements", "groups")

    def __init__(self, elements: np.ndarray, gap: float, check_band: bool):
        self.elements = elements
        self.groups = _rank_groups(
            op.support(elements, threshold=gap, check_band=check_band)
        )


def _check_gap(gap: float) -> None:
    if not 0.0 < gap < 1.0:  # also false for NaN
        raise ValueError(f"gap must be finite with 0 < gap < 1, got {gap!r}")


def _kernel(face: _Face, gap: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormal kernel of the perturbation constraints at ``face``.

    Returns ``(cols, active)``: one kernel vector per column of ``cols``,
    in the stacked Hermitian coordinates (``d**2`` rows per slot) of the
    ``active`` slots, those of nonzero support rank, ascending.  Elements
    of equal support rank r share one lift of the cached
    ``hermitian_basis(r)`` and one stacked coordinate map; the constraint
    ``sum_i Q_i = 0`` takes one SVD.
    """
    blocks = [None] * len(face.elements)
    for r, slots, vecs, _ in face.groups:
        # coordinate matrices (d**2, r**2) of B -> V B V^dagger, one per slot
        lifted = vecs[:, None] @ op.hermitian_basis(r) @ vecs.conj().swapaxes(1, 2)[:, None]
        for i, block in zip(slots.tolist(), op.hermitian_to_coords(lifted).swapaxes(1, 2)):
            blocks[i] = block
    active = [i for i, block in enumerate(blocks) if block is not None]
    if not active:
        return np.zeros((0, 0)), active
    blocks = [blocks[i] for i in active]
    _, s, vt = np.linalg.svd(np.hstack(blocks))
    rank = int(np.count_nonzero(s > gap * max(1.0, float(s[0]))))
    # The blocks are isometries, so the lifted kernel stays orthonormal.
    offsets = np.cumsum([b.shape[1] for b in blocks])[:-1]
    coeffs = np.split(vt[rank:].T, offsets)
    return np.vstack([b @ c for b, c in zip(blocks, coeffs)]), active


def _canonical_kernel_basis(cols: np.ndarray, dim: int, count: int) -> np.ndarray:
    """Deterministically rotate an orthonormal kernel basis.

    ``cols`` holds one kernel vector per column, in the stacked Hermitian
    coordinates of the active slots (``dim**2`` rows per slot).  The SVD
    returns an arbitrary orthonormal basis of the kernel; to make
    decompositions reproducible and balanced we order it by increasing
    value of the quadratic form ``sum_i Tr[Q_i]^2`` (so trace-balanced
    directions come first), break ties with a fixed coordinate-weight
    form, and fix each sign by the first significant coordinate.

    Only the leading ``count`` columns are returned.  Every tie cluster
    they touch is refined whole, so they equal the leading columns of
    the full basis.
    """
    m, k = cols.shape
    traces = cols.reshape(m // (dim * dim), dim * dim, k)[:, :dim].sum(axis=1)
    vals, rot = np.linalg.eigh(traces.T @ traces)
    # the full product even for count < k: BLAS sums a narrower one in
    # another order, which moves the last bits of the walk's terms
    basis = cols @ rot

    # refine numerically degenerate clusters with a fixed secondary form
    weights = np.arange(1, m + 1) / m
    scale = 1.0 + abs(float(vals[-1]))
    i = 0
    while i < count:
        j = i + 1
        while j < k and abs(vals[j] - vals[i]) <= 1e-9 * scale:
            j += 1
        if j - i > 1:
            block = basis[:, i:j]
            sec = block.T @ (weights[:, None] * block)
            _, rot2 = np.linalg.eigh(0.5 * (sec + sec.T))
            basis[:, i:j] = block @ rot2
        i = j

    basis = basis[:, :count]
    big = np.abs(basis) > 1e-8
    lead = big.argmax(axis=0)  # first significant row, 0 if there is none
    c = np.arange(count)
    basis[:, big[lead, c] & (basis[lead, c] < 0)] *= -1.0
    return basis


def _directions(face: _Face, gap: float, count: int | None = None) -> np.ndarray:
    """The leading ``count`` (default: all) canonical kernel directions at
    ``face``, as components ``(count, n, d, d)``; none iff it is extremal."""
    n, d = face.elements.shape[:2]
    cols, active = _kernel(face, gap)
    k = cols.shape[1] if count is None else min(count, cols.shape[1])
    if not k:
        return np.zeros((0, n, d, d), dtype=complex)
    cols = _canonical_kernel_basis(cols, d, k)
    coords = np.zeros((k, n, d * d))
    coords[:, active] = cols.T.reshape(k, len(active), d * d)
    return op.coords_to_hermitian(coords, d)


def _steps(face: _Face, q: np.ndarray) -> tuple[float, float]:
    """``(t_plus, t_minus)`` for components ``q`` ``(n, d, d)`` at ``face``;
    see :func:`max_step`."""
    if op.frobenius(q) < 1e-12:
        raise DegeneratePerturbation("perturbation has zero norm")
    moving = np.linalg.norm(q, axis=(1, 2)) > 1e-14
    t_plus = t_minus = np.inf
    for _, slots, vecs, vals in face.groups:
        keep = moving[slots]
        if not keep.any():
            continue
        w = vecs[keep] / np.sqrt(vals[keep])[:, None, :]
        scaled = w.conj().swapaxes(1, 2) @ q[slots[keep]] @ w
        herm = op.check_hermitian(
            0.5 * (scaled + scaled.conj().swapaxes(1, 2)), stack=True
        )
        alpha, _ = np.linalg.eigh(herm)  # eigenvalues ascend
        lo, hi = alpha[:, 0], alpha[:, -1]
        if np.any(lo < 0):
            t_plus = min(t_plus, float(np.min(1.0 / -lo[lo < 0])))
        if np.any(hi > 0):
            t_minus = min(t_minus, float(np.min(1.0 / hi[hi > 0])))
    if not np.isfinite(t_plus) or not np.isfinite(t_minus):
        raise DegeneratePerturbation(
            "step unbounded in one direction; not a POVM perturbation"
        )
    return float(t_plus), float(t_minus)


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
    (:func:`_canonical_kernel_basis`).

    The supports of all n elements come from one stacked
    :func:`operators.support` call, with the ``gap`` threshold and (with
    ``check_band``) the :class:`NumericalRankAmbiguity` band test per
    element.  ``p`` is not validated here: `decompose_extremal` walks
    faces that are POVMs by construction; `is_extremal` checks its input.
    Raises ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    face = _Face(np.array(p.elements), gap, check_band)
    return [Perturbation(components=q) for q in _directions(face, gap)]


def kernel_dimension(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> int:
    """Dimension of the perturbation space of ``p``; 0 iff ``p`` is extremal.

    Takes the kernel alone, without the canonical rotation of
    :func:`perturbation_space`.  Raises :class:`InvalidPOVM` if ``p``
    fails :func:`validate_povm`, and ``ValueError`` unless ``0 < gap < 1``.
    """
    _check_gap(gap)
    check_povm(p)
    cols, _ = _kernel(_Face(np.array(p.elements), gap, check_band=False), gap)
    return cols.shape[1]


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
    over the elements (finiteness and Hermiticity checked once).  For
    the elements whose component is nonzero, the scaled matrices
    ``W_i^† Q_i W_i``, ``W_i = V_i Λ_i^{-1/2}``, are grouped by support
    rank and each group takes one stacked Hermiticity check and one
    ``np.linalg.eigh``.  A zero-norm perturbation, or one unbounded in
    either direction, raises :class:`DegeneratePerturbation`; a ``gap``
    outside ``(0, 1)`` raises ``ValueError``.
    """
    _check_gap(gap)
    return _steps(_Face(np.array(p.elements), gap, check_band=False), q.components)


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

    def reconstruct(self) -> list[np.ndarray]:
        """Element-wise weighted sum of the terms."""
        first = self.terms[0][1]
        out = [np.zeros_like(el) for el in first.elements]
        for w, povm in self.terms:
            for k, el in enumerate(povm.elements):
                out[k] = out[k] + w * el
        return out

    def reconstruction_error(self, p: FinitePOVM) -> float:
        return max(
            op.frobenius(a - b) for a, b in zip(self.reconstruct(), p.elements)
        )


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

    Each visited point is one :class:`_Face`, with the band test: its
    kernel direction and its step come from the same supports, and the
    away step reuses ``x``'s face.  The walk moves stacked arrays; a
    :class:`FinitePOVM` is built only for each returned term.

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
        If a support decision falls inside the singular-value gap band.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    _check_gap(gap)
    check_povm(p)
    terms = []
    x, rest = _Face(np.array(p.elements), gap, check_band=True), 1.0
    while True:
        if len(terms) >= max_terms:
            raise TermBudgetExceeded(
                f"decomposition exceeded {max_terms} terms",
                partial_terms=[(w, e, True) for w, e in terms]
                + [(rest, p.replace_elements(x.elements), False)],
            )
        e = x
        while len(q := _directions(e, gap, count=1)):
            t = _steps(e, q[0])[0]
            e = _Face(e.elements + t * q[0], gap, check_band=True)
        if e is x:
            terms.append((rest, p.replace_elements(x.elements)))
            break
        diff = x.elements - e.elements
        dist = float(np.sqrt(sum(op.frobenius(c) ** 2 for c in diff)))
        away = diff / dist
        t = _steps(x, away)[0]
        terms.append((rest * t / (t + dist), p.replace_elements(e.elements)))
        x = _Face(x.elements + t * away, gap, check_band=True)
        rest = rest * dist / (t + dist)
    return DecompositionResult(terms=tuple(terms), depth=len(terms) - 1)
