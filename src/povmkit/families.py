"""Continuous measurement families and their randomized realizations.

A continuous POVM is a density ``M(omega)`` of unit-trace PSD matrices
over its outcome space, and ``dim * M(omega) dmu`` integrates to the
identity under the space's uniform probability law mu.  Two are built in:

* direction measurement for a spin-1/2 system, ``M(n) = (I + n.sigma)/2``
  over the unit sphere;
* covariant phase measurement in dimension d, ``M(phi) = |phi><phi| / d``
  over the circle, where ``|phi> = sum_n exp(i n phi) |n>``.

Both are covariant, ``M(g.omega) = U_g M(omega) U_g^dagger`` under
rotations and phase shifts, and have one exact randomization: a finite
design ``sum_k w_k M(omega_k) = I`` moved by a uniformly random motion of
the outcome space, declaring the moved points (the antipodal pair
``{+z, -z}`` for spin, the d-point comb for phase).  The mixing law
belongs to the outcome space, not to the family: uniform shifts of the
circle and uniform (Haar) rotations of the sphere, each with the area of
its space.  Every scheme is one `RandomizedScheme`: term weights ``lam``
(T,), a padded stack of outcome points (T, K) or (T, K, 3), and either
design weights (T, K) moved by the law (`DesignScheme`, T = 1) or
explicit elements (T, K, d, d) and no law (`FiniteMixtureScheme`).
Region probabilities of scheme averages agree with the continuous POVM
exactly; `verify_scheme_equivalence` checks that numerically state by
state.

Everything that depends on the family lives on these classes: a
continuous POVM gives its elements (`ContinuousPOVM.elements`, which
build a design's members and the finite POVM of an exact outcome
quadrature, `ContinuousPOVM.outcome_nodes`, on which Bayes gains,
canonical duals and dual residuals are computed), ``Tr[A M(omega)]`` in
closed form (`ContinuousPOVM.expectation`), the Born table of a moved
design (`ContinuousPOVM._moved_born`; the phase family's takes one
exponential per shift, by covariance), and its region operators in
closed form, every piece of a region at once.  One rejection sampler
(`ContinuousPOVM.sample`) draws direct outcomes for every family, and
every method of `RandomizedScheme`, from two-stage sampling to the mixing
averages, runs for every scheme.  `named_family` is the one table from
family names (``spin``, its aliases, ``phase:<d>``, parsed by
`names.family_spec`) to the (continuous POVM, scheme) pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import operators as op
from . import quadrature as quad
from .catalog import PAULI_X, PAULI_Y, PAULI_Z
from .errors import DimensionMismatch, NotInformationallyComplete, SpaceMismatch
from .names import check_mode, check_unique_ids, family_spec, phase_dimension
from .outcomes import (
    CIRCLE,
    SPHERE,
    TWO_PI,
    OutcomeSpace,
    Region,
    normalize_angle,
    require_same_space,
)
from .povm import FinitePOVM, check_povm, coerce_points

# --- continuous POVMs -------------------------------------------------------

# proposals per block of the direct sampler, and sums per block of
# `_phase_sums` (32 KB a complex temporary): neither grows with the draws
_BLOCK = 2048


class ContinuousPOVM:
    """Base: a density of unit-trace PSD matrices over circle or sphere.

    In finite dimension the density is a polynomial of degree ``degree``
    in the outcome (in n on the sphere, in exp(+-i phi) on the circle), so
    an outcome quadrature integrates it exactly and the family acts as the
    finite POVM of `outcome_nodes`; what is affine or quadratic in the
    POVM (Bayes gains, the frame operator of `dual`, dual residuals) is
    computed on those nodes.  A family gives ``Tr[A M(omega)]`` in closed
    form (`expectation`), and `sample` draws its outcomes from that alone,
    by rejection from the uniform law of the outcome space, so a family
    writes no sampler.

    One convention holds throughout: ``elements(points)`` gives
    ``M(omega)``, unit-trace PSD, and ``dim * M(omega) dmu`` integrates to
    I under the uniform probability law mu of the outcome space, whose
    area the space's mixing law holds.  A family writes no group code: a
    `RandomizedScheme` with design weights moves a design by its outcome
    space's mixing law, and the family's covariance is what makes every
    moved design a POVM.
    """

    dim: int
    space: OutcomeSpace
    family: str
    degree: int  # of the density as a polynomial in the outcome

    def elements(self, points) -> np.ndarray:
        """``M(omega)`` at m outcome points, a new unit-trace PSD stack (m, dim, dim)."""
        raise NotImplementedError

    def expectation(self, a: np.ndarray, points) -> np.ndarray:
        """``Tr[a M(omega)]`` of a Hermitian ``a`` at a stack of outcome points."""
        raise NotImplementedError

    def born(self, rho: np.ndarray, points) -> np.ndarray:
        """``Tr[rho M(omega)]`` at outcome points, clipped to [0, 1] in the
        new array that `expectation` returns."""
        p = self.expectation(rho, points)
        return np.clip(p, 0.0, 1.0, out=p if isinstance(p, np.ndarray) else None)

    def region_operator(self, region: Region) -> np.ndarray:
        """``dim * int_region M(omega) dmu`` in closed form; overlapping
        caps raise `ValueError`."""
        return self._region_operator(_exact_region(region))

    def _region_operator(self, region: Region) -> np.ndarray:
        raise NotImplementedError

    def region_probability(self, rho: np.ndarray, region: Region) -> float:
        require_same_space(self.space, region.space, "POVM and region")
        rho = op.check_density_matrix(rho, self.dim)
        return self._region_probability(rho, _exact_region(region))

    def _region_probability(self, rho: np.ndarray, region: Region) -> float:
        """`region_probability` of a checked state and region."""
        val = float(np.trace(rho @ self._region_operator(region)).real)
        return min(max(val, 0.0), 1.0)

    def sample(self, rho: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` i.i.d. outcome points from the density ``Tr[rho M(omega)]``,
        by rejection from the uniform law of the outcome space.

        Against that law the outcome density is ``dim * Tr[rho M(omega)]``,
        and ``Tr[rho M(omega)] <= lambda_max(rho)`` since ``M(omega)`` is
        unit-trace PSD.  So a uniform proposal omega, the image of the
        space's reference point under a draw of its mixing law, accepted
        when ``u * lambda_max(rho) < Tr[rho M(omega)]`` for a fresh uniform
        u, has the outcome law exactly (von Neumann, NBS Appl. Math. Ser.
        12, 36, 1951; Devroye, Non-Uniform Random Variate Generation, II.3).
        A proposal is accepted with probability ``1 / (dim * lambda_max)``,
        at least ``1 / dim``.  Proposals come in blocks of `_BLOCK` whatever
        n, so the draws for n are the first n of those for any larger n
        under the same generator state, and no temporary grows with n.
        """
        rho = op.check_density_matrix(rho, self.dim)
        law = _MIXING_LAWS[self.space]
        bound = op.eigh(rho)[0][0]
        out = np.empty((n, *law.origin.shape[1:]))
        filled = 0
        while filled < n:
            proposals = law.move(law.sample(rng, _BLOCK), law.origin)[:, 0]
            u = rng.random(_BLOCK) * bound
            accepted = proposals[u < self.born(rho, proposals)][: n - filled]
            out[filled : filled + len(accepted)] = accepted
            filled += len(accepted)
        return out

    def _moved_born(self, rho, xs, design, moved) -> np.ndarray:
        """The Born table (n, K), a new array, of the design points
        ``design`` moved by the n mixing parameters ``xs`` of the space's
        law, to ``moved`` (n, K) or (n, K, 3): `born` at the moved points."""
        return self.born(rho, moved.reshape(-1, *moved.shape[2:])).reshape(moved.shape[:2])

    def dual(self, a: np.ndarray):
        """The canonical dual of ``a``: ``f(omega) = Tr[Y M(omega)]`` with
        ``int f M = a``, so the mean of f over outcomes estimates ``Tr[rho a]``.

        The elements of `outcome_nodes` are ``v_k M(omega_k)``, with measure
        ``v_k`` their trace; with ``m_k`` the Hermitian coordinates of
        ``M(omega_k)``, ``y = coords(Y)`` is the minimum-norm solution of
        ``S y = coords(a)`` for the frame operator ``S = sum_k v_k m_k m_k^T``:
        the canonical dual of D'Ariano and Perinotti, PRL 98, 020403 (2007).
        A target of another dimension raises `DimensionMismatch`; one off
        the span of the family's elements (on the circle, any operator not
        constant along its diagonals) `NotInformationallyComplete`.
        """
        from .tomography import DualProcessing

        a = op.check_hermitian(a, name="target")
        if a.shape[0] != self.dim:
            raise DimensionMismatch(
                f"target dimension {a.shape[0]} != family dimension {self.dim}"
            )
        _, elements = self.outcome_nodes()
        nodes = op.hermitian_to_coords(elements)  # v_k m_k
        measure = np.trace(elements, axis1=1, axis2=2).real
        frame = nodes.T @ (nodes / measure[:, None])
        rhs = op.hermitian_to_coords(a)
        y, *_ = np.linalg.lstsq(frame, rhs, rcond=None)
        residual = np.linalg.norm(frame @ y - rhs)
        if residual > 1e-8 * (1.0 + op.frobenius(a)):
            raise NotInformationallyComplete(
                f"{self.family} statistics do not determine the target "
                f"(frame residual {residual:.3e})"
            )
        return DualProcessing(target=a, family=self, operator=op.coords_to_hermitian(y, self.dim))

    def outcome_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Points and weights of the fewest-node rule exact for degree
        ``2 * degree``, as the frame operator, dual residuals and Bayes
        gains need (`quadrature.outcome_rule`); built once, read-only."""
        return quad.outcome_rule(self.space, self.degree)

    def outcome_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The finite POVM of the exact outcome quadrature (`outcome_rule`).

        Returns points ``omega_k`` and stacked elements ``(w_k dim / area)
        M(omega_k)``, shape (K, dim, dim), summing to the identity.
        """
        points, w = self.outcome_rule()
        scale = w * (self.dim / _MIXING_LAWS[self.space].area)
        return points, scale[:, None, None] * self.elements(points)

    def dual_residual(self, dual) -> float:
        """Frobenius norm of ``int f(omega) M(omega) - A`` for ``dual = (f, A)``,
        integrated on `outcome_nodes`."""
        points, elements = self.outcome_nodes()
        return op.frobenius(np.tensordot(dual.evaluate(points), elements, axes=1) - dual.target)


class SpinDirectionPOVM(ContinuousPOVM):
    """Direction measurement for spin 1/2: density ``(I + n.sigma)/2``."""

    def __init__(self):
        self.dim = 2
        self.space = SPHERE
        self.family = "spin_direction"
        self.degree = 1

    def elements(self, points):
        """``(I + n.sigma)/2`` at each unit vector n."""
        x, y, z = np.atleast_2d(np.asarray(points, dtype=float)).T
        return np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=1).reshape(-1, 2, 2) / 2.0

    def expectation(self, a, points):
        """``Tr a / 2 + n . (Re a01, -Im a01, (a00 - a11) / 2)``, as
        ``M(n) = (I + n . sigma) / 2``."""
        a = np.asarray(a)
        vec = np.array([a[0, 1].real, -a[0, 1].imag, (a[0, 0].real - a[1, 1].real) / 2.0])
        return (a[0, 0].real + a[1, 1].real) / 2.0 + np.asarray(points, dtype=float) @ vec

    def _region_operator(self, region: Region) -> np.ndarray:
        """The exact integral of ``2 M(n) dmu`` over the region, its caps'
        operators ``(1 - c) I/2 + (1 - c^2)/4 (axis . sigma)``, ``c =
        cos(angle)``, built together and added in cap order."""
        if region.caps is None:
            raise SpaceMismatch("spin-direction regions are cap unions")
        c = np.cos([cap.angle for cap in region.caps])[:, None, None]
        ax = np.array([cap.axis for cap in region.caps]).reshape(-1, 3).T[:, :, None, None]
        sig = ax[0] * PAULI_X + ax[1] * PAULI_Y + ax[2] * PAULI_Z
        caps = (1.0 - c) * np.eye(2, dtype=complex) / 2.0 + (1.0 - c * c) / 4.0 * sig
        total = caps.sum(axis=0, initial=0.0)
        if region.complement:
            total = np.eye(2, dtype=complex) - total
        return total


@functools.cache
def _superdiagonal_gather(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices ``(d-1, d-1)`` of the superdiagonals ``k = 1..d-1`` of
    a d x d matrix, row ``k-1`` padded at its end, and the padding's mask;
    read-only."""
    k = np.arange(1, d)[:, None]
    i = np.arange(d - 1)
    pad = i >= d - k
    flat = np.where(pad, 0, i * (d + 1) + k)
    flat.setflags(write=False)
    pad.setflags(write=False)
    return flat, pad


def _superdiagonals(a: np.ndarray) -> np.ndarray:
    """Sums ``c_k`` of the superdiagonals ``k = 1..d-1`` of a square matrix,
    from one gather into zero-padded rows.  Up to d = 8 they have the bits
    of ``np.trace(a, offset=k)``; beyond, numpy's pairwise summation of
    the padded rows can round a short diagonal one ulp apart."""
    flat, pad = _superdiagonal_gather(len(a))
    rows = np.asarray(a).ravel().take(flat)
    rows[pad] = 0
    return np.asarray(rows.sum(axis=1), dtype=complex)


@functools.cache
def _interval_offsets(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The off-diagonal mask of a d x d matrix, and ``i k`` and ``2 pi i
    k`` at its entries, k the column offset; read-only."""
    k = np.arange(d)[:, None] - np.arange(d)[None, :]
    off = k != 0
    out = off, 1j * k[off], TWO_PI * 1j * k[off]
    for a in out:
        a.setflags(write=False)
    return out


def _phase_sums(c: np.ndarray, phis) -> np.ndarray:
    """Real parts of the Fourier sums ``s_j = sum_{k=1}^{K} c_kj e^{ik phi}``
    at phases of any shape.

    ``c`` has shape (K,) or (K, m); the result is a new real array of shape
    ``phis.shape + (m,)``, one row of sums per phase, with m = 1 for (K,).  Horner's rule in ``z = e^{i phi}``: one
    cosine and one sine per phase, written into one complex array with
    the bits of ``exp(1j * phi)``, then K-1 complex multiply-adds, over
    blocks of about `_BLOCK` sums, so that no complex temporary grows with
    the number of phases.  Each sum gets the bits of a single pass.
    """
    phis = np.asarray(phis, dtype=float)
    flat = phis.reshape(-1)
    c = c.reshape(len(c), -1)
    out = np.empty((flat.size, c.shape[1]))
    rows = max(_BLOCK // c.shape[1], 2)
    for start in range(0, max(flat.size - 1, 1), rows):
        # a last block of one phase joins the block before it: numpy rounds
        # a one-element complex product taken in place apart from a longer one
        end = start + rows if flat.size - start > rows + 1 else flat.size
        z = np.empty((end - start, 2))
        np.cos(flat[start:end], out=z[:, 0])
        # + 0.0 turns -0.0 into the +0.0 whose sine exp(1j * phi) takes
        np.sin(flat[start:end] + 0.0, out=z[:, 1])
        z = z.view(complex)
        acc = c[-1] * z
        for ck in c[-2::-1]:
            acc += ck
            acc *= z
        out[start:end] = acc.real
    return out.reshape(phis.shape + (c.shape[1],))


def phase_kets(d: int, phis: np.ndarray) -> np.ndarray:
    """Unnormalized phase vectors ``sum_n exp(i n phi)|n>``, shape (m, d)."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return np.exp(1j * np.outer(phis, np.arange(d)))


class CirclePhasePOVM(ContinuousPOVM):
    """Covariant phase measurement: density ``|phi><phi|/d``."""

    def __init__(self, d: int):
        self.dim = phase_dimension(d)
        self.space = CIRCLE
        self.family = "phase"
        self.degree = d - 1

    def elements(self, points):
        """``|phi><phi| / d`` at each phase, from `phase_kets`."""
        kets = phase_kets(self.dim, points)
        return kets[:, :, None] * kets.conj()[:, None, :] / self.dim

    def _fourier_born(self, c, phis, trace):
        """``(trace + 2 Re s_j) / d`` for the sums ``s_j`` of `_phase_sums`,
        in place in its new array."""
        vals = _phase_sums(c, phis)
        vals *= 2.0
        vals += trace
        vals /= self.dim
        return vals

    def expectation(self, a, points):
        """``(Tr a + 2 Re sum_k c_k e^{ik phi}) / d``, with ``c_k`` the k-th
        superdiagonal sum of ``a``, at phases of any shape (the result has
        the same shape); one exponential per phase (`_phase_sums`)."""
        return self._fourier_born(_superdiagonals(a), points, np.trace(a).real)[..., 0][()]

    def _region_operator(self, region: Region) -> np.ndarray:
        """``int |phi><phi| dphi/2pi`` over the region's arcs ``[a, b)``,
        entrywise in closed form, ``(e^{ikb} - e^{ika}) / (2 pi i k)`` off
        the diagonal (``k`` the column offset) and ``(b - a) / 2pi`` on it:
        every arc's operator built together, added in arc order."""
        if region.arcs is None:
            raise SpaceMismatch("phase regions are arc unions")
        d = self.dim
        off, k, denominator = _interval_offsets(d)
        a, b = np.array(region.arcs).reshape(-1, 2).T[:, :, None]
        arcs = np.empty((len(a), d, d), dtype=complex)
        arcs.reshape(len(a), d * d)[:, :: d + 1] = (b - a) / TWO_PI
        arcs[:, off] = (np.exp(k * b) - np.exp(k * a)) / denominator
        return arcs.sum(axis=0, initial=0.0)

    def _moved_born(self, rho, xs, design, moved):
        """By covariance, ``Tr[rho M(x + phi_k)] = (Tr rho + 2 Re sum_j
        (c_j e^{ij phi_k}) e^{ijx}) / d``: `_phase_sums` with one column of
        coefficients per design phase, one exponential per shift x."""
        columns = _superdiagonals(rho)[:, None] * phase_kets(self.dim, design)[:, 1:].T
        table = self._fourier_born(columns, np.reshape(xs, -1), np.trace(rho).real)
        return np.clip(table, 0.0, 1.0, out=table)


def spin_direction_povm() -> SpinDirectionPOVM:
    return SpinDirectionPOVM()


def phase_povm(d: int) -> CirclePhasePOVM:
    return CirclePhasePOVM(d)


# --- randomized schemes -----------------------------------------------------

class RandomizedScheme:
    """Classical mixture over x of finite POVMs with relabeled outcomes.

    One layout serves every scheme: ``terms`` ``(lam_t, P_t)``, weights
    ``lam`` (T,), outcome points padded to K entries with each term's
    first point, (T, K) or (T, K, 3), and either design weights (T, K) of
    a `continuous` family moved by a law of `_MIXING_LAWS` (`DesignScheme`,
    T = 1: x is the motion g, entry k is ``w_k M(g.omega_k)`` at
    ``g.omega_k``) or explicit elements (T, K, dim, dim) and no law
    (`FiniteMixtureScheme`: x is the term index, drawn with probability
    ``lam_t``).  Every method serves both.
    """

    outcome_space: OutcomeSpace
    dim: int
    family: str
    _law = None

    def sample_x(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` mixing parameters drawn from the mixing law."""
        if self._law is None:
            return rng.choice(len(self.lam), size=size, p=self.lam / self.lam.sum())
        return self._law.sample(rng, size)

    def mixing_nodes(self):
        """Mixing quadrature nodes and weights normalized to sum to 1."""
        if self._law is None:
            return np.arange(len(self.lam)), self.lam.copy()
        return quad.mixing_rule(self.outcome_space)

    def _term_index(self, xs) -> np.ndarray:
        """The term indices in ``0..T-1`` that mixing parameters name."""
        xs = np.asarray(xs, dtype=float)
        if not np.all((xs >= 0) & (xs < len(self.lam)) & (xs == np.floor(xs))):
            raise ValueError(f"mixing parameter is not a term index in 0..{len(self.lam) - 1}")
        return xs.astype(int)

    def outcome_points(self, xs) -> np.ndarray:
        """Outcome points per member entry, aligned with member_probabilities:
        shape (n, K) on the circle and label sets, (n, K, 3) on the sphere."""
        if self._law is None:
            return self._points[self._term_index(xs)]
        return self._law.move(xs, self._points[0])

    def members(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """The members at mixing parameters ``xs`` as stacks: outcome points
        as a `FinitePOVM` stores them, (n, K) or (n, K, 3), and elements,
        (n, K, dim, dim); a design takes one move and one `elements` call."""
        if self._law is None:
            t = self._term_index(xs)
            return self._points[t], self._elements[t]
        moved = self.outcome_points(xs)
        points = coerce_points(self.outcome_space, moved.reshape(-1, *moved.shape[2:]))
        return points.reshape(moved.shape), self._elements_at(moved)

    def _elements_at(self, moved):
        """``w_k M(omega_k)`` at moved design points, one ``(K, dim, dim)``
        stack per row of ``moved``."""
        elements = self.continuous.elements(moved.reshape(-1, *moved.shape[2:]))
        return self._weights[0][:, None, None] * elements.reshape(*moved.shape[:2], self.dim, -1)

    def member(self, x) -> FinitePOVM:
        """The member at one mixing parameter x (a term index, a shift, or
        the three Euler coordinates of a rotation), with only its term's own
        entries; any other shape raises `ValueError`."""
        x = np.asarray(x, dtype=float)
        shape = () if self._law is None else self._law.shape
        if x.shape != shape:
            raise ValueError(f"member takes one mixing parameter of shape {shape}, got {x.shape}")
        points, elements = self.members(x[None])
        term = self.terms[0 if self._law is not None else int(x)][1]
        entries = tuple(zip(points[0, : len(term)], elements[0, : len(term)]))
        return FinitePOVM(self.dim, self.outcome_space, entries, term.allow_duplicates)

    def member_probabilities(self, xs, rho: np.ndarray) -> np.ndarray:
        """Born probabilities of each member's entries, shape (n, K), of a
        state checked by `operators.check_density_matrix`."""
        return self._entries(xs, op.check_density_matrix(rho, self.dim))[0]

    def _entries(self, xs, rho):
        """Born probabilities and outcome points of the members at ``xs``
        for a checked state: one move of a design, or rows of one stacked
        Born table.

        Both are new arrays that the caller may overwrite.  A design's
        points are its law's moved layout; its Born weights are the
        family's table at the moved points (`ContinuousPOVM._moved_born`:
        for a phase family one exponential per shift, its Fourier sums in
        blocks of `_BLOCK`), scaled by the design weights in place;
        so no temporary as large as the member layout is built beside
        them."""
        if self._law is None:
            t = self._term_index(xs)
            born = np.trace(rho @ self._elements, axis1=2, axis2=3).real
            return np.clip(born, 0.0, 1.0)[t], self._points[t]
        points = self.outcome_points(xs)
        born = self.continuous._moved_born(rho, xs, self._points[0], points)
        born *= self._weights[0]
        return born, points

    def sample(self, rho: np.ndarray, n: int, rng: np.random.Generator):
        """``n`` two-stage draws ``(x, i, omega)``.

        Draw the mixing parameters x, then an apparatus outcome i from the
        Born probabilities of member x (one uniform per draw against their
        cumulative sum), and declare that entry's outcome point omega.  The
        state is checked by `operators.check_density_matrix`.
        """
        rho = op.check_density_matrix(rho, self.dim)
        xs = self.sample_x(rng, n)
        probs, points = self._entries(xs, rho)
        cum = np.cumsum(probs, axis=1, out=probs)
        cum /= cum[:, -1:].copy()  # dividing by a view of cum would copy all of cum
        i = (rng.uniform(0.0, 1.0, n)[:, None] > cum).sum(axis=1)
        return xs, i, points[np.arange(n), i]

    def average_region_probability(
        self,
        rho: np.ndarray,
        region: Region,
        mode: str = "deterministic",
        budget: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, float | None]:
        """Mixing average of member region probabilities.

        Mode ``"deterministic"`` (``"det"``) integrates the mixing
        parameter exactly, by quadrature sized from the family's degree,
        and takes no ``budget``; mode ``"montecarlo"`` (``"mc"``) averages
        ``budget`` draws of ``rng`` (default 100000).  A budget in
        deterministic mode, a montecarlo budget that is not an integer or
        is below 2, or another mode raises `ValueError`.  Returns
        ``(value, standard_error)``; the standard error is None in
        deterministic mode.
        """
        mode, draws = check_mode(mode, budget)
        require_same_space(self.outcome_space, region.space, "scheme and region")
        rho = op.check_density_matrix(rho, self.dim)
        if draws is None:
            if self._law is not None:
                _exact_region(region)  # a law integrates the Born density cap by cap
        elif rng is None:
            raise ValueError("montecarlo mode needs an rng")
        return self._average(rho, region, draws, rng)

    def _average(self, rho, region, draws, rng):
        """`average_region_probability` of a checked state and region: by
        quadrature for ``draws`` None, else over ``draws`` draws of ``rng``."""
        if draws is None:
            return self._deterministic_average(rho, region), None
        vals = self._region_masses(*self._entries(self.sample_x(rng, draws), rho), region)
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))

    @staticmethod
    def _region_masses(probs, points, region):
        """Each member's probability of the region, from its entries; the
        entries outside are zeroed in ``probs``, which `_entries` made, by
        one product with the inside mask, and the K entry columns are added
        in entry order, which for K < 8 has the bits of ``sum(axis=1)``
        (numpy sums eight or more entries pairwise, a few ulps apart)."""
        inside = region.contains(points.reshape(probs.size, *points.shape[2:]))
        probs *= inside.reshape(probs.shape)
        masses = probs[:, 0].copy()
        for column in probs.T[1:]:
            masses += column
        return masses

    def _deterministic_average(self, rho, region):
        """A mixture's average is ``sum_t lam_t`` times its terms' region
        probabilities.  A design's moved points are uniform on the outcome
        space, so its average is ``sum_t lam_t sum_k w_tk`` times the
        uniform-law integral of ``Tr[rho M]`` over the region, whatever the
        design; that integral is ``1/dim`` over the whole space, which
        gives a complement."""
        if self._law is None:
            masses = self._region_masses(*self._entries(np.arange(len(self.lam)), rho), region)
            return float((self.lam * masses).sum())
        total = float(self.lam @ self._weights.sum(axis=1))
        inside = total * self._law.integral(self.continuous, rho, region)
        return total / self.dim - inside if region.complement else inside


class _Shifts:
    """The circle's mixing law: x uniform on ``[0, 2pi)``, moving a point
    ``phi`` to ``phi + x``."""

    shape = ()  # of one mixing parameter
    origin = np.zeros(1)
    area = TWO_PI

    def sample(self, rng, size):
        return rng.uniform(0.0, TWO_PI, size)

    def move(self, xs, points):
        xs = np.reshape(xs, (-1, 1))
        if not np.isfinite(xs).all():
            raise ValueError("a shift needs a finite mixing parameter x")
        return normalize_angle(xs + points)

    def integral(self, c, rho, region):
        total = quad.integrate_intervals(lambda phis: c.born(rho, phis), region.arcs)
        return float(total) / self.area


class _Rotations:
    """The sphere's mixing law: ``x = (alpha, cos beta, gamma)``, the ZYZ
    Euler angles of ``R(x) = R_z(alpha) R_y(beta) R_z(gamma)``, uniform in
    each coordinate, which is the Haar law on SO(3); x moves ``p`` to
    ``R(x) p``, and the image of +z is ``(sin beta cos alpha,
    sin beta sin alpha, cos beta)``.

    ``R_z(gamma)`` fixes the points of the z axis, so `move` takes the cosine
    and sine of gamma only for a design with a point off the axis, and sends
    a point ``(0, 0, pz)`` to ``pz`` times the image of +z.  That is the
    three-factor product's value, with its bits wherever a coordinate is
    nonzero; only the sign of an exact zero can differ (at ``cos beta = +-1``
    or 0, or in y at ``alpha = 0``)."""

    _LOW, _SPAN = np.array([0.0, -1.0, 0.0]), np.array([TWO_PI, 2.0, TWO_PI])
    shape = (3,)  # of one mixing parameter
    origin = np.array([[0.0, 0.0, 1.0]])
    area = 2.0 * TWO_PI

    def sample(self, rng, size):
        xs = rng.random((size, 3))
        xs *= self._SPAN
        xs += self._LOW
        return xs

    def move(self, xs, points):
        xs = np.reshape(xs, (-1, 3))
        alpha, u, gamma = xs.T
        if not (np.isfinite(xs).all() and np.all(np.abs(u) <= 1.0)):
            raise ValueError("a rotation needs a finite mixing parameter x with cos beta in [-1, 1]")
        ca, sa = np.cos(alpha), np.sin(alpha)
        s = np.sqrt(1.0 - u * u)
        points = np.asarray(points, dtype=float)
        off_axis = points[:, :2].any(axis=1)
        if off_axis.any():
            cg, sg = np.cos(gamma), np.sin(gamma)
        moved = np.empty((len(xs), len(points), 3))
        # R_z(alpha) R_y(beta) R_z(gamma) p, one factor at a time and one
        # design point at a time, entry by entry along the draws, written
        # straight into the (draw, point, coordinate) layout; so a draw moves
        # to the same bits in a batch of any size
        for (px, py, pz), dest, tilted in zip(points, moved.transpose(1, 2, 0), off_axis):
            if tilted:
                x, y = cg * px - sg * py, sg * px + cg * py
                x, z = u * x + s * pz, u * pz - s * x
                np.subtract(ca * x, sa * y, out=dest[0])
                np.add(sa * x, ca * y, out=dest[1])
            else:
                x, z = s * pz, u * pz
                np.multiply(ca, x, out=dest[0])
                np.multiply(sa, x, out=dest[1])
            dest[2] = z
        return moved

    def integral(self, c, rho, region):
        total = quad.integrate_sphere_region(lambda pts: c.born(rho, pts), region.caps, c.degree)
        return float(total) / self.area


# One law per outcome space: ``shape`` is that of one mixing parameter x,
# ``origin`` is one reference point, whose image under a draw of x is
# uniform on the space (`ContinuousPOVM.sample` proposes those images),
# ``area`` is the space's surface measure (2 pi or 4 pi, as `outcome_nodes` reads it),
# ``sample(rng, size)`` draws mixing parameters, ``move(xs, points)`` gives
# each point's image under each x, shape (n, k) or (n, k, 3), as a new
# array in that member layout, written straight into it with no restacked
# copy (a rotation skips its gamma factor on the z axis, where the product
# keeps its value and only an exact zero's sign can differ), and rejects a
# non-finite x, and ``integral(c, rho, region)`` integrates the Born
# density ``Tr[rho M(omega)]`` of the family ``c`` over the region's arcs
# or caps under the uniform probability law (a complement is left to the
# caller), on the nodes `quadrature` sizes.
_MIXING_LAWS = {CIRCLE: _Shifts(), SPHERE: _Rotations()}


class DesignScheme(RandomizedScheme):
    """A finite design of a covariant family, moved by a uniform motion.

    ``design`` is a pair of outcome points ``omega_k`` and weights ``w_k``
    with ``sum_k w_k M(omega_k) = I``.  Draw a motion g of the outcome
    space from its uniform law, a shift of the circle or a rotation of the
    sphere, measure ``{w_k M(g.omega_k)} = {w_k U_g M(omega_k) U_g^dagger}``
    and declare ``g.omega_k``: by covariance every member is a POVM, and
    by the invariance of the uniform law every region probability averages
    to the continuous one (Chiribella, D'Ariano, Schlingemann, J. Math.
    Phys. 51, 022111, 2010).  The mixing parameter x is g itself: the
    shift on the circle, the Euler angles ``(alpha, cos beta, gamma)`` on
    the sphere; the design's points may lie anywhere on the space.
    """

    def __init__(self, continuous: ContinuousPOVM, design):
        points, weights = (np.asarray(a, dtype=float) for a in design)
        self.continuous = continuous
        self.design = points, weights
        self.outcome_space = continuous.space
        self.dim = continuous.dim
        self.family = continuous.family
        self._law = _MIXING_LAWS[continuous.space]
        self.lam, self._points, self._weights = np.ones(1), points[None], weights[None]
        elements = self._elements_at(self._points)[0]
        self.terms = [(1.0, FinitePOVM(self.dim, self.outcome_space, tuple(zip(points, elements))))]
        check_povm(self.terms[0][1])


class FiniteMixtureScheme(RandomizedScheme):
    """Explicit finite mixture of finite POVMs over a shared outcome space.

    ``terms`` are pairs ``(lam_t, P_t)`` of nonnegative weights summing to
    1 and valid POVMs of one dimension and space.  The mixing parameter is
    the term index.  Members with fewer entries than the largest are
    padded with zero-probability entries at their first point, so every
    member has the same entry count in `member_probabilities` and
    `outcome_points`.
    """

    def __init__(self, terms):
        terms = [(float(w), povm) for w, povm in terms]
        if not terms:
            raise ValueError("mixture needs at least one term")
        lam = np.array([w for w, _ in terms])
        if not (np.isfinite(lam).all() and (lam >= 0.0).all() and abs(lam.sum() - 1.0) <= 1e-9):
            raise ValueError(f"mixture weights must be nonnegative and sum to 1: {lam.tolist()}")
        first = terms[0][1]
        for _, povm in terms:
            require_same_space(first.space, povm.space, "mixture members")
            if povm.dim != first.dim:
                raise DimensionMismatch(f"mixture members of dimension {first.dim} and {povm.dim}")
            check_povm(povm)
        self.terms, self.lam = terms, lam
        self.outcome_space = first.space
        self.dim = first.dim
        self.family = "finite_mixture"
        # pad each member's points with its first point, its elements with zeros
        slots = np.arange(max(len(povm) for _, povm in terms))
        self._points = np.array(
            [povm.points[np.where(slots < len(povm), slots, 0)] for _, povm in terms]
        )
        self._elements = np.zeros((len(terms), len(slots), self.dim, self.dim), dtype=complex)
        for k, (_, povm) in enumerate(terms):
            self._elements[k, : len(povm)] = povm.elements


def stern_gerlach_scheme() -> DesignScheme:
    """The antipodal pair ``{+z, -z}`` with unit weights, uniformly rotated."""
    return DesignScheme(SpinDirectionPOVM(), ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0]))


def phase_scheme(d: int) -> DesignScheme:
    """The d-point comb ``2 pi k / d`` with unit weights, uniformly shifted."""
    return DesignScheme(CirclePhasePOVM(d), (np.arange(d) * (TWO_PI / d), np.ones(d)))


def scheme_from_decomposition(result) -> FiniteMixtureScheme:
    """View a convex decomposition as a finite randomized scheme."""
    return FiniteMixtureScheme(list(result.terms))


def named_family(name: str) -> tuple[ContinuousPOVM, RandomizedScheme]:
    """The (continuous POVM, randomized scheme) pair of a family name
    (`names.family_spec`: ``spin`` and its aliases, ``phase:<d>``)."""
    kind, d = family_spec(name)
    if kind == "spin":
        return SpinDirectionPOVM(), stern_gerlach_scheme()
    return CirclePhasePOVM(d), phase_scheme(d)


# --- equivalence checking ---------------------------------------------------

@dataclass(frozen=True)
class EquivalenceRow:
    state_id: str
    region_id: str
    p_continuous: float
    p_scheme: float
    diff: float
    std_error: float | None


@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    budget: int | None
    rows: tuple[EquivalenceRow, ...]

    @property
    def max_abs_diff(self) -> float:
        return max(abs(r.diff) for r in self.rows)


def _exact_region(region: Region) -> Region:
    """``region``, checked for what closed-form integrals over it need:
    its caps, if any, pairwise disjoint (`ValueError` otherwise), so that
    a cap union is integrated cap by cap."""
    if region.caps is not None and not region.caps_pairwise_disjoint():
        raise ValueError("exact region operators need pairwise disjoint caps")
    return region


def _with_ids(items, prefix):
    """``(id, item)`` pairs: an item's own id, or ``prefix`` and its index;
    an id that two items share raises `ValueError`, as in the JSON
    loaders."""
    out = [
        item if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        else (f"{prefix}{k}", item)
        for k, item in enumerate(items)
    ]
    if len(dict(out)) < len(out):  # some id repeats: name the first
        check_unique_ids((rid for rid, _ in out), prefix, ValueError)
    return out


def verify_scheme_equivalence(
    c: ContinuousPOVM,
    s: RandomizedScheme,
    states,
    regions,
    mode: str = "deterministic",
    budget: int | None = None,
    seed: int | None = None,
) -> EquivalenceReport:
    """Compare continuous region probabilities with scheme averages.

    ``states`` is a list of density matrices (optionally ``(id, rho)``
    pairs), ``regions`` a list of regions (optionally ``(id, region)``);
    an empty list, or an id that two states or two regions share (an
    item without one is ``state<k>`` or ``region<k>``), raises
    `ValueError`.  Deterministic mode computes each
    scheme average by quadrature; montecarlo mode draws mixing parameters
    with the given seed and reports standard errors.  ``mode`` and
    ``budget`` are as in `RandomizedScheme.average_region_probability`,
    and checked before the first row; the report names the mode's long
    spelling.

    Each state and each region is checked once per call, as the public
    methods check theirs (a state of another dimension than the family or
    the scheme raises `DimensionMismatch`); the rows then use the
    unchecked internals of both sides.
    """
    states, regions = _with_ids(states, "state"), _with_ids(regions, "region")
    for name, items in (("states", states), ("regions", regions)):
        if not items:
            raise ValueError(f"{name} is empty: nothing to compare")
    mode, draws = check_mode(mode, budget)
    require_same_space(c.space, s.outcome_space, "continuous POVM and scheme")
    rng = None
    if draws is not None:
        if seed is None:
            raise ValueError("montecarlo mode requires a seed")
        from .sampling import make_rng

        rng = make_rng(seed)
    for _, region in regions:
        require_same_space(c.space, region.space, "POVM and region")
        _exact_region(region)
    rows = []
    for sid, rho in states:
        rho = op.check_density_matrix(rho, c.dim)
        if s.dim != c.dim:
            raise DimensionMismatch(f"state dimension {c.dim} != POVM dimension {s.dim}")
        for rid, region in regions:
            p_cont = c._region_probability(rho, region)
            p_sch, se = s._average(rho, region, draws, rng)
            rows.append(
                EquivalenceRow(
                    state_id=sid,
                    region_id=rid,
                    p_continuous=p_cont,
                    p_scheme=p_sch,
                    diff=p_sch - p_cont,
                    std_error=se,
                )
            )
    return EquivalenceReport(mode=mode, budget=budget, rows=tuple(rows))
