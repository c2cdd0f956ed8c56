"""Outcome generation and statistical comparison.

Two routes produce outcomes of a continuous measurement:

* direct sampling from the exact outcome density, by the family's own
  sampler (`ContinuousPOVM.sample`: a quadratic inversion for the spin
  family, safeguarded Newton on the closed-form trigonometric CDF for
  the phase family);
* the two-stage route: draw the classical mixing parameter, measure the
  finite member POVM, declare the member's outcome point.  One
  vectorized kernel (`RandomizedScheme.sample`) does this for every
  scheme, from the scheme's bulk Born probabilities and outcome points.

`sample_direct` and `sample_two_stage` check the state once against the
family's dimension and wrap the draws as `OutcomeRecords`.  Both use a
counter-based Philox generator keyed by an explicit seed, so every run
is reproducible.  `compare_samples` runs a two-sample chi-square test
over a region partition to check that the two routes are statistically
indistinguishable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

import numpy as np

from . import operators as op
from .errors import EmptySample, SpaceMismatch, SparseBins
from .outcomes import CIRCLE, SPHERE, TWO_PI, FiniteLabels, normalize_angle, require_same_space

MIN_EXPECTED = 5.0  # least expected count per bin for the chi-square test


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by ``[seed, 0]``; the same seed
    always reproduces the same sequence.

    Raises ``ValueError`` unless ``0 <= seed < 2**64``, so that no two
    seeds share a key.
    """
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


class OutcomeRecords:
    """Columns of measurement outcomes on one outcome space.

    ``omega`` holds the outcome points; ``i`` (apparatus outcome) and
    ``x`` (mixing parameter) are set by two-stage sampling only.
    ``space`` is None when it is unknown, as for label records read back
    from a file.
    """

    def __init__(self, space, omega: np.ndarray, i: np.ndarray | None = None,
                 x: np.ndarray | None = None):
        self.space = space
        self.omega = omega
        self.i = i
        self.x = x

    def __len__(self) -> int:
        return len(self.omega)


def _checked_state(rho: np.ndarray, dim: int, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    return op.check_density_matrix(rho, dim)


def sample_direct(c: ContinuousPOVM, rho: np.ndarray, n: int, seed: int) -> OutcomeRecords:
    """i.i.d. outcomes of a continuous family from its exact density."""
    rho = _checked_state(rho, c.dim, n)
    return OutcomeRecords(space=c.space, omega=c.sample(rho, n, make_rng(seed)))


def sample_two_stage(s: RandomizedScheme, rho: np.ndarray, n: int, seed: int) -> OutcomeRecords:
    """Outcomes via the randomization recipe.

    Draw the mixing parameter, then an apparatus outcome from the member
    POVM's Born probabilities, then record the member's outcome point.
    """
    rho = _checked_state(rho, s.dim, n)
    xs, i, omega = s.sample(rho, n, make_rng(seed))
    return OutcomeRecords(space=s.outcome_space, omega=omega, i=i, x=xs)


# --- goodness of fit --------------------------------------------------------

@dataclass(frozen=True)
class GofReport:
    """Two-sample chi-square result over a fixed partition."""

    statistic: float
    dof: int
    p_value: float
    bin_spec: str


def sphere12_bins(points: np.ndarray) -> np.ndarray:
    """Hemisphere x 6 azimuthal sectors: 12 equal-area bins."""
    pts = np.atleast_2d(points)
    phi = normalize_angle(np.arctan2(pts[:, 1], pts[:, 0]))
    sector = np.minimum((phi / (TWO_PI / 6.0)).astype(int), 5)
    hemi = (pts[:, 2] < 0.0).astype(int)
    return hemi * 6 + sector


def circle16_bins(points: np.ndarray) -> np.ndarray:
    phi = normalize_angle(np.asarray(points, dtype=float))
    return np.minimum((phi / (TWO_PI / 16.0)).astype(int), 15)


_PRESETS = {
    "sphere12": (sphere12_bins, 12, SPHERE),
    "circle16": (circle16_bins, 16, CIRCLE),
}


def _bin_indices(records, bins) -> tuple[np.ndarray, int, str]:
    """Bin index of each outcome, the bin count and the bin spec.

    The bins must share one outcome space, that of the records.  Records
    of unknown space (label records read back from a file, or a bare
    outcome array) bin only as integer labels against label regions.
    """
    known = isinstance(records, OutcomeRecords)
    omega = records.omega if known else np.asarray(records)
    if isinstance(bins, str):
        if bins not in _PRESETS:
            raise ValueError(f"unknown bin preset {bins!r}")
        fn, count, space = _PRESETS[bins]
        what = f"bin preset {bins!r}"
    else:
        if len(bins) < 2:
            raise ValueError("a chi-square test needs at least two bins")
        spaces = {r.space for r in bins}
        if len(spaces) > 1:
            raise SpaceMismatch(
                f"bins live on different outcome spaces: {sorted(map(str, spaces))}"
            )
        space, count, what = spaces.pop(), len(bins), f"{len(bins)} regions"
    if known and records.space is not None:
        require_same_space(space, records.space, f"{what} and records")
    elif not (isinstance(space, FiniteLabels) and omega.dtype.kind in "iu"):
        raise SpaceMismatch(
            f"outcomes of unknown space bin only as integer labels, not on the {space}"
        )
    if isinstance(bins, str):
        return fn(omega), count, bins
    member = np.stack([r.contains(omega) for r in bins])
    if np.any(member.sum(axis=0) != 1):
        raise ValueError("bins are not a disjoint cover of the sampled points")
    return member.argmax(axis=0), count, what


def _chi2_tail(stat: float, dof: int) -> float:
    """P(X >= stat) for X chi-square with an integer ``dof >= 1``.

    This is Q(k/2, y) with k = dof and y = stat/2, a finite sum
    (Abramowitz & Stegun 26.4.4-26.4.5) of the terms
    ``t_j = e^{-y} y^{j+a} / Gamma(j+a+1)``, a = (k mod 2)/2, j < k//2,
    plus ``erfc(sqrt(y))`` for odd k.  The terms with j >= k//2 sum to
    the lower tail 1 - Q.  Below the mean, where Q is near 1, one minus
    that lower sum is taken instead: the finite sum of numbers near 1
    rounds up and down as y grows, one minus a small sum does not.
    """
    y = 0.5 * stat
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    a, m = 0.5 * (dof % 2), dof // 2
    log_y = math.log(y)

    def term(j):
        return math.exp((j + a) * log_y - y - math.lgamma(j + a + 1.0))

    if y >= m + a:
        head = math.erfc(math.sqrt(y)) if a else 0.0
        return math.fsum([head, *map(term, range(m))])
    # the lower terms fall from j = m on, since y < j + a + 1
    lower = []
    for j in count(m):
        lower.append(term(j))
        if lower[-1] <= 1e-17 * lower[0]:
            return 1.0 - math.fsum(lower)


def compare_samples(a, b, bins) -> GofReport:
    """Two-sample chi-square test that two outcome lists share a law.

    ``bins`` is a preset name (``"sphere12"``, ``"circle16"``) or a list
    of at least two disjoint covering regions, on the outcome space of
    both samples (else :class:`SpaceMismatch`).  Expected counts below
    `MIN_EXPECTED` raise :class:`SparseBins`; the p-value is the
    closed-form chi-square tail.
    """
    ia, n_bins, spec = _bin_indices(a, bins)
    ib = _bin_indices(b, bins)[0]
    ca = np.bincount(ia, minlength=n_bins).astype(float)
    cb = np.bincount(ib, minlength=n_bins).astype(float)
    ka, kb = ca.sum(), cb.sum()
    if ka == 0 or kb == 0:
        raise EmptySample("both samples must be nonempty")
    pooled = (ca + cb) / (ka + kb)
    if np.any(ka * pooled < MIN_EXPECTED) or np.any(kb * pooled < MIN_EXPECTED):
        raise SparseBins(
            f"expected count below {MIN_EXPECTED} in some bin; coarsen the partition"
        )
    ra, rb = np.sqrt(kb / ka), np.sqrt(ka / kb)
    stat = float(np.sum((ra * ca - rb * cb) ** 2 / (ca + cb)))
    dof = n_bins - 1
    p = _chi2_tail(stat, dof)
    return GofReport(statistic=stat, dof=dof, p_value=p, bin_spec=spec)
