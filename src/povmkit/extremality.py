"""Extremality of finite POVMs and decomposition into extremal ones.

A finite POVM fails to be extremal in the convex set of POVMs exactly
when it admits a nonzero perturbation: a tuple of Hermitian matrices
``Q_i`` summing to zero, with ``range(Q_i)`` inside ``range(P_i)``, so
that ``P_i ± t Q_i`` stays a POVM for small t.  On finite support that
is a linear kernel problem: parametrize each ``Q_i`` by a Hermitian
basis of the support of ``P_i`` and solve ``sum_i Q_i = 0``.

Non-extremal POVMs are split along a perturbation pushed to both PSD
boundaries; recursing yields a convex combination of extremal POVMs,
each with at most ``dim**2`` nonzero, linearly independent elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import DegeneratePerturbation, TermBudgetExceeded
from .povm import FinitePOVM

# Two leaves of the split tree merge when their elements agree this closely
# (their outcome points must match exactly).
LEAF_MERGE_TOL = 1e-7


@dataclass(frozen=True)
class Perturbation:
    """Direction along which a POVM can move while staying a POVM.

    ``components`` aligns with the POVM's entries; zero elements carry
    zero components.  Normalized so the summed squared Frobenius norm
    is 1.
    """

    components: tuple

    def norm(self) -> float:
        return float(np.sqrt(sum(op.frobenius(q) ** 2 for q in self.components)))

    def check(self, p: FinitePOVM, tol: float = 1e-8) -> None:
        """Raise if this is not a valid perturbation for ``p``."""
        if len(self.components) != len(p):
            raise DegeneratePerturbation("component count does not match POVM")
        total = np.sum(self.components, axis=0)
        if op.frobenius(total) > 1e-9:
            raise DegeneratePerturbation("components do not sum to zero")
        for q, el in zip(self.components, p.elements):
            op.check_hermitian(q, name="perturbation component")
            proj, _ = op.support(el)
            pi = proj @ proj.conj().T
            leak = op.frobenius(q - pi @ q @ pi)
            if leak > tol * (1.0 + op.frobenius(q)):
                raise DegeneratePerturbation(
                    f"component leaks outside element support by {leak:.3e}"
                )
        if abs(self.norm() - 1.0) > 1e-8:
            raise DegeneratePerturbation("perturbation is not normalized")


def _support_hermitian_basis(element: np.ndarray, threshold: float, check_band: bool):
    """Hermitian basis of operators supported on range(element)."""
    vecs, _ = op.support(element, threshold=threshold, check_band=check_band)
    r = vecs.shape[1]
    return [vecs @ b @ vecs.conj().T for b in op.hermitian_basis(r)] if r else []


def _canonical_kernel_basis(kernel):
    """Deterministically rotate an orthonormal kernel basis.

    The SVD returns an arbitrary orthonormal basis of the kernel; to make
    decompositions reproducible and balanced we order it by increasing
    value of the quadratic form ``sum_i Tr[Q_i]^2`` (so trace-balanced
    directions come first), break ties with a fixed coordinate-weight
    form, and fix each sign by the first significant coordinate.
    """
    if not kernel:
        return kernel
    dims = [q.shape[0] for q in kernel[0]]
    cols = np.column_stack([op.tuple_to_coords(t) for t in kernel])
    m = cols.shape[0]

    # trace functional per slot: ones over that slot's diagonal coordinates
    tmat = np.zeros((m, m))
    offset = 0
    for d in dims:
        tau = np.zeros(m)
        tau[offset : offset + d] = 1.0
        tmat += np.outer(tau, tau)
        offset += d * d
    primary = cols.T @ tmat @ cols

    vals, rot = np.linalg.eigh(primary)
    basis = cols @ rot

    # refine numerically degenerate clusters with a fixed secondary form
    weights = np.arange(1, m + 1) / m
    scale = 1.0 + abs(float(vals[-1]))
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[i]) <= 1e-9 * scale:
            j += 1
        if j - i > 1:
            block = basis[:, i:j]
            sec = block.T @ (weights[:, None] * block)
            _, rot2 = np.linalg.eigh(0.5 * (sec + sec.T))
            basis[:, i:j] = block @ rot2
        i = j

    for k in range(basis.shape[1]):
        col = basis[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-8)
        if nz.size and col[nz[0]] < 0:
            basis[:, k] = -col
    return [op.coords_to_tuple(basis[:, k], dims) for k in range(basis.shape[1])]


def perturbation_space(
    p: FinitePOVM,
    gap: float = op.GAP_THRESHOLD,
    check_band: bool = False,
) -> list[Perturbation]:
    """Orthonormal basis of valid perturbations of ``p``.

    Empty list iff ``p`` is extremal.  Entries with zero element admit
    no on-support perturbation and are skipped.
    """
    active = []
    bases = []
    for i, el in enumerate(p.elements):
        slot_basis = _support_hermitian_basis(el, gap, check_band)
        if slot_basis:
            active.append(i)
            bases.append(slot_basis)
    if not active:
        return []

    n_slots = len(active)
    domain_basis = []
    for s, slot_basis in enumerate(bases):
        for b in slot_basis:
            t = [np.zeros((p.dim, p.dim), dtype=complex) for _ in range(n_slots)]
            t[s] = b
            domain_basis.append(tuple(t))

    def total(t):
        return (np.sum(t, axis=0),)

    kernel = op.hermitian_nullspace(total, domain_basis, gap=gap)
    kernel = _canonical_kernel_basis(kernel)

    out = []
    for t in kernel:
        comps = [np.zeros((p.dim, p.dim), dtype=complex) for _ in range(len(p))]
        for s, i in enumerate(active):
            comps[i] = t[s]
        out.append(Perturbation(components=tuple(comps)))
    return out


def is_extremal(p: FinitePOVM, gap: float = op.GAP_THRESHOLD) -> bool:
    """True iff ``p`` admits no nonzero perturbation."""
    return not perturbation_space(p, gap=gap)


def max_step(p: FinitePOVM, q: Perturbation, gap: float = op.GAP_THRESHOLD) -> tuple[float, float]:
    """Largest steps keeping ``P ± t Q`` positive semidefinite.

    Per element the bound is ``1 / max eigenvalue`` of
    ``-(P_i^{-1/2} Q_i P_i^{-1/2})`` on the support of ``P_i`` (and of
    the unnegated conjugation for the minus direction); the returned
    pair is the minimum over elements, both finite and positive.
    """
    if q.norm() < 1e-12:
        raise DegeneratePerturbation("perturbation has zero norm")
    t_plus = np.inf
    t_minus = np.inf
    for el, comp in zip(p.elements, q.components):
        if op.frobenius(comp) <= 1e-14:
            continue
        vecs, vals = op.support(el, threshold=gap)
        if vecs.shape[1] == 0:
            continue
        scaled = (vecs / np.sqrt(vals)).conj().T @ comp @ (vecs / np.sqrt(vals))
        alpha, _ = op.eigh(0.5 * (scaled + scaled.conj().T))
        lo, hi = float(alpha[-1]), float(alpha[0])
        if lo < 0:
            t_plus = min(t_plus, 1.0 / -lo)
        if hi > 0:
            t_minus = min(t_minus, 1.0 / hi)
    if not np.isfinite(t_plus) or not np.isfinite(t_minus):
        raise DegeneratePerturbation(
            "step unbounded in one direction; not a POVM perturbation"
        )
    return float(t_plus), float(t_minus)


def split(
    p: FinitePOVM,
    q: Perturbation,
    gap: float = op.GAP_THRESHOLD,
) -> tuple[tuple[FinitePOVM, FinitePOVM], tuple[float, float]]:
    """Write ``p`` as a convex combination of the two boundary POVMs.

    Returns ``((p_plus, p_minus), (w_plus, w_minus))`` with
    ``p = w_plus * p_plus + w_minus * p_minus`` exactly and each child on
    the PSD boundary (some element loses rank).
    """
    t_plus, t_minus = max_step(p, q, gap=gap)
    plus = p.replace_elements(
        [el + t_plus * c for el, c in zip(p.elements, q.components)]
    )
    minus = p.replace_elements(
        [el - t_minus * c for el, c in zip(p.elements, q.components)]
    )
    w_plus = t_minus / (t_plus + t_minus)
    w_minus = t_plus / (t_plus + t_minus)
    return (plus, minus), (w_plus, w_minus)


@dataclass(frozen=True)
class DecompositionResult:
    """Convex decomposition into extremal finite POVMs.

    ``terms`` are ``(weight, povm)`` pairs with weights summing to one;
    ``depth`` is the maximum depth of the binary split tree that
    produced them.
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


def _merge_leaves(leaves, space_points_equal):
    merged = []
    for w, povm, depth in leaves:
        placed = False
        for k, (w0, povm0, d0) in enumerate(merged):
            if len(povm0) != len(povm):
                continue
            same = all(
                space_points_equal(a, b)
                for a, b in zip(povm0.points, povm.points)
            ) and all(
                op.frobenius(a - b) <= LEAF_MERGE_TOL
                for a, b in zip(povm0.elements, povm.elements)
            )
            if same:
                merged[k] = (w0 + w, povm0, max(d0, depth))
                placed = True
                break
        if not placed:
            merged.append((w, povm, depth))
    return merged


def decompose_extremal(
    p: FinitePOVM,
    max_terms: int = 256,
    gap: float = op.GAP_THRESHOLD,
) -> DecompositionResult:
    """Decompose ``p`` into a convex combination of extremal POVMs.

    Depth-first binary splitting along the first canonical perturbation;
    identical leaves (matching points, elements within ``LEAF_MERGE_TOL``)
    are merged.  Terminates because every split strictly reduces the
    total support rank on both children.

    Raises
    ------
    TermBudgetExceeded
        If more than ``max_terms`` leaves accumulate; the partial tree is
        attached for diagnostics.
    NumericalRankAmbiguity
        If a support decision falls inside the singular-value gap band.
    """
    from .povm import _points_equal

    leaves = []
    stack = [(p, 1.0, 0)]
    while stack:
        povm, weight, depth = stack.pop()
        if len(leaves) + len(stack) >= max_terms:
            raise TermBudgetExceeded(
                f"decomposition exceeded {max_terms} terms",
                partial_terms=[(w, q, True) for w, q, _ in leaves]
                + [(w, q, False) for q, w, _ in stack],
            )
        basis = perturbation_space(povm, gap=gap, check_band=True)
        if not basis:
            leaves.append((weight, povm, depth))
            continue
        (plus, minus), (w_plus, w_minus) = split(povm, basis[0], gap=gap)
        # push minus first so the plus branch is processed first (DFS)
        stack.append((minus, weight * w_minus, depth + 1))
        stack.append((plus, weight * w_plus, depth + 1))

    merged = _merge_leaves(leaves, lambda a, b: _points_equal(p.space, a, b))
    terms = tuple((w, povm) for w, povm, _ in merged)
    depth = max(d for _, _, d in merged)
    return DecompositionResult(terms=terms, depth=depth)
