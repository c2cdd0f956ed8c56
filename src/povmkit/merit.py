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

One function scores every POVM: a stack of POVMs with a leading member
axis, points ``(M, K)`` or ``(M, K, 3)`` and elements ``(M, K, d, d)``.
`bayes_gain` scores one POVM, a finite one through its own entries and a
continuous one through its finite outcome quadrature;
`check_equal_optimality` builds all of a scheme's members at once
(`RandomizedScheme.members`, one move of the design) and scores them in
one contraction with the prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import quadrature as quad
from .errors import DimensionMismatch
from .families import ContinuousPOVM, RandomizedScheme, phase_kets, plus_spinors
from .outcomes import CIRCLE, SPHERE, TWO_PI, require_same_space
from .povm import FinitePOVM
from .sampling import make_rng

DEFAULT_PRIOR_BUDGET = 8192
_PRIOR_CHUNK = 512  # prior nodes per accumulation step; bounds memory
_POINT_CHUNK = 4096  # outcome points per product: bounds memory for large mixtures


@dataclass(frozen=True)
class BayesGainSpec:
    """Named prior/gain pair, bounded gain in [0, 1].

    ``fiducial_state`` applies to the circle prior only; by default the
    uniform superposition is used, the natural probe for phase shifts.
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

    def fiducial(self, d: int) -> np.ndarray:
        if self.fiducial_state is not None:
            rho = op.check_density_matrix(self.fiducial_state)
            if rho.shape[0] != d:
                raise DimensionMismatch(
                    f"fiducial state dimension {rho.shape[0]} != POVM dimension {d}"
                )
            return rho
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
    """Bayes gains of a stack of POVMs on one outcome space, with the prior
    built once.

    ``points`` has shape (M, K) or (M, K, 3) and ``elements`` (M, K, d, d):
    M POVMs of K entries each (zero elements may pad them).  With prior
    nodes ``(w_t, rho_t)`` and gain ``g(t, omega)``, the gain of outcomes
    ``omega_k`` with elements ``E_k`` is ``sum_k <Gamma_k, E_k>`` where
    ``Gamma_k = sum_t w_t g(t, omega_k) rho_t``: one matrix product per
    prior chunk over all ``M K`` points (in blocks of `_POINT_CHUNK`), then
    one dot per POVM.
    """
    if not 1 <= budget < np.inf:
        raise ValueError(f"budget must be finite and at least 1, got {budget}")
    if spec.prior == "uniform_sphere":
        prior_space = SPHERE
        params, w = quad.sphere_nodes(*quad.sphere_grid(budget))
        w = w / (2.0 * TWO_PI)  # uniform prior dm/4pi
        kets = plus_spinors(params)
        weighted = w[:, None, None] * (kets[:, :, None] * kets.conj()[:, None, :])

        def g(t, omega):
            return 0.5 * (1.0 + t @ omega.T)  # fidelity |<m|n>|^2
    else:
        prior_space = CIRCLE
        params, w = quad.circle_nodes(max(64, min(1024, budget)))
        w = w / TWO_PI
        # U_t rho0 U_t^dagger with U_t = diag(exp(i n t))
        kets = phase_kets(dim, params)
        weighted = w[:, None, None] * (
            kets[:, :, None] * spec.fiducial(dim) * kets.conj()[:, None, :]
        )

        def g(t, omega):  # (1 + cos(t - phi))/2, in place: one (T, n) array
            out = np.subtract.outer(t, omega)
            np.cos(out, out=out)
            out += 1.0
            out *= 0.5
            return out
    require_same_space(prior_space, space, "prior and POVM")
    d = weighted.shape[-1]
    if dim != d:
        raise DimensionMismatch(f"prior states of dimension {d}, POVM dimension {dim}")
    # w_t rho_t as (re, im) pairs, so each chunk is one real matrix product
    weighted = weighted.reshape(len(w), d * d).view(float)
    m, k = elements.shape[:2]
    flat = points.reshape(m * k, *points.shape[2:])
    gamma = np.zeros((m * k, 2 * d * d))
    for r in range(0, m * k, _POINT_CHUNK):
        rows = slice(r, r + _POINT_CHUNK)
        for c in range(0, len(w), _PRIOR_CHUNK):
            part = slice(c, c + _PRIOR_CHUNK)
            gamma[rows] += g(params[part], flat[rows]).T @ weighted[part]
    # Re Tr[Gamma_k E_k] for Hermitian E_k, summed over k: one BLAS dot per POVM
    terms = elements.reshape(m, 1, -1).view(float)
    return (terms @ gamma.reshape(m, -1, 1)).ravel()


def bayes_gain(
    povm: FinitePOVM | ContinuousPOVM,
    spec: BayesGainSpec,
    budget: int = DEFAULT_PRIOR_BUDGET,
) -> float:
    """Prior-averaged expected gain of a POVM's declared outcomes.

    The POVM's outcomes must live on the prior's space; a continuous
    POVM is evaluated through its finite outcome quadrature.  A budget
    below 1, or not finite, raises `ValueError`.
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
    budget: int = DEFAULT_PRIOR_BUDGET,
) -> MeritReport:
    """Evaluate the Bayes gain of members at quadrature nodes and random draws.

    ``value`` is the mixing-weighted average over the scheme's mixing
    quadrature nodes; ``spread`` is max - min over all evaluated members,
    including ``x_samples`` members drawn from the mixing law with ``seed``
    (a negative ``x_samples`` raises `ValueError`, as does a budget below 1
    or not finite).  All members are built by one `RandomizedScheme.members`
    call and scored by one contraction.
    """
    if x_samples < 0:
        raise ValueError(f"x_samples must be nonnegative, got {x_samples}")
    nodes, w = s.mixing_nodes()
    xs = np.concatenate([np.asarray(nodes), s.sample_x(make_rng(seed), x_samples)])
    vals = _gain_kernel(spec, budget, s.outcome_space, s.dim, *s.members(xs))
    value = float(np.dot(w, vals[: len(w)]))
    return MeritReport(value=value, per_member=tuple(zip(map(_x_label, xs), vals.tolist())))


def _x_label(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    arr = np.asarray(x)
    if arr.ndim == 0:
        return float(arr)
    return [round(float(v), 12) for v in arr]

