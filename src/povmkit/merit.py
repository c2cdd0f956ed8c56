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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import quadrature as quad
from .errors import SpaceMismatch
from .families import (
    CirclePhasePOVM,
    ContinuousPOVM,
    RandomizedScheme,
    SpinDirectionPOVM,
    phase_kets,
    plus_spinors,
)
from .outcomes import TWO_PI, Circle, Sphere
from .povm import FinitePOVM
from .sampling import make_rng

DEFAULT_PRIOR_BUDGET = 8192
_INNER_BUDGET = 512  # inner outcome integral; integrands are low degree


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
            return op.check_density_matrix(self.fiducial_state)
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


def _sphere_prior_nodes(budget: int):
    pts, w = quad.sphere_nodes(*quad.sphere_grid(budget))
    return pts, w / (2.0 * TWO_PI)  # uniform prior dm/4pi


def _gain_sphere_finite(p: FinitePOVM, budget: int) -> float:
    pts, w = _sphere_prior_nodes(budget)
    spin = plus_spinors(pts)
    total = 0.0
    for point, el in p.entries:
        if op.frobenius(el) <= 1e-15:
            continue
        q = np.einsum("ni,ij,nj->n", spin.conj(), el, spin).real
        g = 0.5 * (1.0 + pts @ np.asarray(point, dtype=float))
        total += float(np.sum(w * q * g))
    return total


def _gain_sphere_continuous(c: SpinDirectionPOVM, budget: int) -> float:
    pts_m, w_m = _sphere_prior_nodes(budget)
    pts_n, w_n = quad.sphere_nodes(16, 32)
    w_n = w_n / TWO_PI  # outcome measure dn/2pi
    total = 0.0
    chunk = 512
    for k in range(0, len(pts_m), chunk):
        dots = pts_m[k : k + chunk] @ pts_n.T
        overlap = 0.5 * (1.0 + dots)      # |<m|n>|^2
        gain = 0.5 * (1.0 + dots)
        total += float(w_m[k : k + chunk] @ (overlap * gain) @ w_n)
    return total


def _circle_prior_states(rho0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    d = rho0.shape[0]
    n = np.arange(d)
    phases = np.exp(1j * np.outer(ts, n))
    # U_t rho0 U_t^dagger with U_t = diag(exp(i n t))
    return phases[:, :, None] * rho0[None, :, :] * phases.conj()[:, None, :]


def _gain_circle_finite(p: FinitePOVM, spec: BayesGainSpec, budget: int) -> float:
    rho0 = spec.fiducial(p.dim)
    k = max(64, min(1024, budget))
    ts, wt = quad.circle_nodes(k)
    states = _circle_prior_states(rho0, ts)
    total = 0.0
    for point, el in p.entries:
        if op.frobenius(el) <= 1e-15:
            continue
        probs = np.einsum("tij,ji->t", states, el).real
        g = 0.5 * (1.0 + np.cos(ts - float(point)))
        total += float(np.sum(wt / TWO_PI * probs * g))
    return total


def _gain_circle_continuous(c: CirclePhasePOVM, spec: BayesGainSpec, budget: int) -> float:
    rho0 = spec.fiducial(c.dim)
    k = max(64, min(1024, budget))
    ts, wt = quad.circle_nodes(k)
    phis, wp = quad.circle_nodes(k)
    states = _circle_prior_states(rho0, ts)
    kets = phase_kets(c.dim, phis)
    # p(phi | t) density value <phi|rho_t|phi>/2pi
    intensity = np.einsum("pi,tij,pj->tp", kets.conj(), states, kets).real
    gain = 0.5 * (1.0 + np.cos(ts[:, None] - phis[None, :]))
    return float(
        (wt / TWO_PI) @ (intensity / TWO_PI * gain) @ wp
    )


def bayes_gain(
    povm: FinitePOVM | ContinuousPOVM,
    spec: BayesGainSpec,
    budget: int = DEFAULT_PRIOR_BUDGET,
) -> float:
    """Prior-averaged expected gain of a POVM's declared outcomes.

    Finite POVMs must declare outcome points on the prior's space; the
    two continuous families integrate the outcome density instead.
    """
    if spec.prior == "uniform_sphere":
        if isinstance(povm, SpinDirectionPOVM):
            return _gain_sphere_continuous(povm, budget)
        if isinstance(povm, FinitePOVM):
            if not isinstance(povm.space, Sphere):
                raise SpaceMismatch("sphere prior needs sphere outcome points")
            return _gain_sphere_finite(povm, budget)
        raise SpaceMismatch("sphere prior incompatible with this POVM")
    if isinstance(povm, CirclePhasePOVM):
        return _gain_circle_continuous(povm, spec, budget)
    if isinstance(povm, FinitePOVM):
        if not isinstance(povm.space, Circle):
            raise SpaceMismatch("circle prior needs circle outcome points")
        return _gain_circle_finite(povm, spec, budget)
    raise SpaceMismatch("circle prior incompatible with this POVM")


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
    including ``x_samples`` members drawn from the mixing law with ``seed``.
    """
    xs, w = s.mixing_nodes()
    per = []
    vals = []
    for x in xs:
        v = bayes_gain(s.member(x), spec, budget=budget)
        vals.append(v)
        per.append((_x_label(x), v))
    value = float(np.dot(w, vals))
    if x_samples > 0:
        for x in s.sample_x(make_rng(seed), x_samples):
            per.append((_x_label(x), bayes_gain(s.member(x), spec, budget=budget)))
    return MeritReport(value=value, per_member=tuple(per))


def _x_label(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    arr = np.asarray(x)
    if arr.ndim == 0:
        return float(arr)
    return [round(float(v), 12) for v in arr]


def merit_of_mixture(terms, spec: BayesGainSpec, budget: int = DEFAULT_PRIOR_BUDGET) -> MeritReport:
    """Weighted figure of a convex decomposition; affine, so it equals
    the figure of the reconstructed POVM."""
    pairs = terms.terms if hasattr(terms, "terms") else terms
    per = []
    value = 0.0
    for k, (w, povm) in enumerate(pairs):
        v = bayes_gain(povm, spec, budget=budget)
        per.append((k, v))
        value += w * v
    return MeritReport(value=float(value), per_member=tuple(per))
