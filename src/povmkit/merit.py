"""Affine Bayes figures of merit on POVMs and schemes.

A Bayes gain averages, over a prior of true parameters and the matching
pure-state family, the expected gain of declaring the measured outcome:

* sphere prior: states ``|m><m|`` uniform on the sphere with fidelity
  gain ``|<m|n>|^2``;
* circle prior: phase-shifted copies of a fiducial state with cosine
  gain ``(1 + cos(t - phi))/2``.

Gains are affine in the POVM, so the gain of a mixture equals the
mixture of gains; members of a randomization of an optimal measurement
are therefore equally optimal, which `check_equal_optimality` verifies
by evaluating members at mixing quadrature nodes and random draws.

Both gains are also affine in a feature of the declared outcome: ``n``
on the sphere, ``(cos phi, sin phi)`` on the circle.  So the prior enters
only through its first moments, which have closed forms, and no prior
quadrature is built.  One function scores every POVM: a stack of POVMs
with a leading member axis, points ``(M, K)`` or ``(M, K, 3)`` and
elements ``(M, K, d, d)``.  `bayes_gain` scores one POVM, a finite one
through its own entries and a continuous one through its finite outcome
quadrature; `check_equal_optimality` builds all of a scheme's members at
once (`RandomizedScheme.members`, one move of the design) and scores
them in one contraction with the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .catalog import PAULI_X, PAULI_Y, PAULI_Z
from .errors import DimensionMismatch
from .families import ContinuousPOVM, RandomizedScheme
from .outcomes import CIRCLE, SPHERE, require_same_space
from .povm import FinitePOVM
from .sampling import make_rng


@dataclass(frozen=True)
class BayesGainSpec:
    """Named prior/gain pair, bounded gain in [0, 1].

    ``fiducial_state`` applies to the circle prior only (the sphere prior
    rejects one); by default the uniform superposition is used, the
    natural probe for phase shifts.
    """

    prior: str
    gain: str
    fiducial_state: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.prior not in ("uniform_sphere", "uniform_circle"):
            raise ValueError(f"unknown prior {self.prior!r}")
        if self.gain not in ("fidelity", "cosine"):
            raise ValueError(f"unknown gain {self.gain!r}")
        if self.prior == "uniform_sphere" and self.gain != "fidelity":
            raise ValueError("sphere prior pairs with the fidelity gain")
        if self.prior == "uniform_circle" and self.gain != "cosine":
            raise ValueError("circle prior pairs with the cosine gain")
        if self.prior == "uniform_sphere" and self.fiducial_state is not None:
            raise ValueError("sphere prior takes no fiducial state")

    def fiducial(self, d: int) -> np.ndarray:
        if self.fiducial_state is not None:
            return op.check_density_matrix(self.fiducial_state, d)
        e = np.ones(d, dtype=complex) / np.sqrt(d)
        return np.outer(e, e.conj())


@dataclass(frozen=True)
class MeritReport:
    """Figure value with per-member breakdown for schemes/mixtures."""

    value: float
    per_member: tuple = ()

    @property
    def spread(self) -> float:
        if not self.per_member:
            return 0.0
        vals = [v for _, v in self.per_member]
        return float(max(vals) - min(vals))


def _gain_kernel(spec: BayesGainSpec, budget, space, dim: int, points, elements) -> np.ndarray:
    """Bayes gains of a stack of POVMs on one outcome space.

    ``points`` has shape (M, K) or (M, K, 3) and ``elements`` (M, K, d, d):
    M POVMs of K entries each (zero elements may pad them).  The gain of
    declaring ``omega`` is affine in a feature ``f(omega)``, so the prior
    average of ``g(t, omega) rho_t`` is ``(W_0 + f(omega) . W_1)/2`` with
    the prior's first moments ``W_0 = E[rho_t]``, ``W_1 = E[f(t) rho_t]``:

    * sphere, d = 2, ``f = n``: ``W_0 = I/2`` and ``W_1 = sigma/6``;
    * circle, fiducial ``rho0``, ``f = (cos phi, sin phi)``: ``W_0 =
      diag(rho0)``, and on the first off-diagonals only ``W_c = rho0/2``
      and ``W_s[a, b] = (i/2)(a - b) rho0[a, b]``.

    The gains are one `np.einsum` over the element stack, a fixed-order sum
    with no BLAS call, so their bits do not depend on the BLAS thread
    count.  ``budget`` has no effect; one below 1, or not finite, raises
    `ValueError`.
    """
    if not 1 <= budget < np.inf:
        raise ValueError(f"budget must be finite and at least 1, got {budget}")
    if spec.prior == "uniform_sphere":
        require_same_space(SPHERE, space, "prior and POVM")
        if dim != 2:
            raise DimensionMismatch(f"prior states of dimension 2, POVM dimension {dim}")
        moments = np.stack([np.eye(2) / 2, PAULI_X / 6, PAULI_Y / 6, PAULI_Z / 6])
        feature = np.concatenate([np.ones((*points.shape[:2], 1)), points], axis=-1)
    else:
        rho0 = spec.fiducial(dim)
        require_same_space(CIRCLE, space, "prior and POVM")
        k = np.subtract.outer(np.arange(dim), np.arange(dim))  # a - b
        near = np.abs(k) == 1
        moments = np.stack([(k == 0) * rho0, near * rho0 / 2, near * (0.5j * k) * rho0])
        feature = np.stack([np.ones_like(points), np.cos(points), np.sin(points)], axis=-1)
    # Re Tr[W E] for Hermitian W and E is the dot of their (re, im) pairs
    w = (moments / 2).reshape(len(moments), -1).view(float)
    e = elements.reshape(*elements.shape[:2], -1).view(float)
    return np.einsum("mkf,fj,mkj->m", feature, w, e)


def bayes_gain(
    povm: FinitePOVM | ContinuousPOVM,
    spec: BayesGainSpec,
    budget: int = 8192,
) -> float:
    """Prior-averaged expected gain of a POVM's declared outcomes.

    The POVM's outcomes must live on the prior's space; a continuous
    POVM is evaluated through its finite outcome quadrature.  ``budget``
    is accepted but has no effect: the prior enters through closed-form
    moments.  One below 1, or not finite, raises `ValueError`.
    """
    if isinstance(povm, ContinuousPOVM):
        points, elements = povm.outcome_nodes()
    else:
        points, elements = povm.points, povm.elements
    return float(_gain_kernel(spec, budget, povm.space, povm.dim, points[None], elements[None])[0])


def check_equal_optimality(
    s: RandomizedScheme,
    spec: BayesGainSpec,
    x_samples: int = 16,
    seed: int = 0,
    budget: int = 8192,
) -> MeritReport:
    """Evaluate the Bayes gain of members at quadrature nodes and random draws.

    ``value`` is the mixing-weighted average over the scheme's mixing
    quadrature nodes; ``spread`` is max - min over all evaluated members,
    including ``x_samples`` members drawn from the mixing law with ``seed``
    (a negative ``x_samples`` raises `ValueError`).  All members are built
    by one `RandomizedScheme.members` call and scored by one contraction.
    ``budget`` is as in `bayes_gain`: accepted, with no effect.
    """
    if x_samples < 0:
        raise ValueError(f"x_samples must be nonnegative, got {x_samples}")
    nodes, w = s.mixing_nodes()
    xs = np.concatenate([np.asarray(nodes), s.sample_x(make_rng(seed), x_samples)])
    vals = _gain_kernel(spec, budget, s.outcome_space, s.dim, *s.members(xs))
    value = math.fsum(w * vals[: len(w)])
    return MeritReport(value=value, per_member=tuple(zip(map(_x_label, xs), vals.tolist())))


def _x_label(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    arr = np.asarray(x)
    if arr.ndim == 0:
        return float(arr)
    return [round(float(v), 12) for v in arr]

