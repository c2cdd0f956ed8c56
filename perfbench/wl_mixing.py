"""Workload ``mixing``: continuous measurements against their randomizations.

Each round checks ``verify_scheme_equivalence`` one (state, region) row per
op, deterministically for spin, phase:3 and phase:8 and by Monte Carlo
(5000 draws a row) for spin and phase:3, then evaluates ``bayes_gain`` of
the continuous families and ``check_equal_optimality`` of their schemes.
Deterministic quadrature and the Monte Carlo per-draw loop are two uses of
the same layer: the quadrature rows set the median op, the Monte Carlo rows
the tail.
"""

from __future__ import annotations

import numpy as np
from povmkit import catalog, families, merit, outcomes

from harness import OpFailed, check_estimate, digest

# Prior quadrature budget of the merit calls.  The gains are low-degree
# trigonometric polynomials, exact at this budget (to 1e-15).
MERIT_BUDGET = 256
SPHERE_SPEC = merit.BayesGainSpec(prior="uniform_sphere", gain="fidelity")
CIRCLE_SPEC = merit.BayesGainSpec(prior="uniform_circle", gain="cosine")

# Rows per family: (family, states, indices of the regions below).  The
# end-to-end statistics are taken over the ops of one round, each at its
# median over the rounds.  The deterministic spin rows on two-cap and
# complement regions are the slowest deterministic rows; with about as many
# ops below them as above, they hold the median op.  The sixteen Monte Carlo
# rows are the slowest ops and hold the tail op.
SIZES = {
    "standard": dict(
        det=(("spin", 6, (1, 2)), ("phase:3", 2, (0, 1, 2)), ("phase:8", 2, (0, 1, 2))),
        mc=(("spin", 4, (0, 1)), ("phase:3", 4, (0, 1))),
        budget=5_000,
        merit=("spin", "phase:3", "phase:8"),
    ),
    "smoke": dict(
        det=(("spin", 1, (1,)), ("phase:3", 1, (0,))),
        mc=(("spin", 1, (0,)),),
        budget=2_000,
        merit=("spin", "phase:3"),
    ),
}


def _axis(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def _sphere_regions(rng):
    a = _axis(rng)
    b = _axis(rng)
    c = _axis(rng)
    return [
        outcomes.Region.of_caps([(a, rng.uniform(0.3, 2.4))]),
        # antipodal caps with angles summing below pi are disjoint
        outcomes.Region.of_caps([(b, rng.uniform(0.2, 1.4)),
                                 (tuple(-x for x in b), rng.uniform(0.2, 1.4))]),
        outcomes.Region.of_caps([(c, rng.uniform(0.3, 2.4))], complement=True),
    ]


def _circle_regions(rng):
    out = []
    for pieces in (1, 2, 3):
        cuts = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2 * pieces))
        out.append(outcomes.Region.of_arcs(
            [(float(cuts[2 * k]), float(cuts[2 * k + 1])) for k in range(pieces)]
        ))
    return out


def _expected_gain(key: str) -> float:
    """Optimal gains: 2/3 for spin fidelity; 1/2 + (d-1)/(2d) for the phase
    cosine gain with the uniform-superposition fiducial."""
    if key == "spin":
        return 2.0 / 3.0
    d = int(key.split(":")[1])
    return 0.5 + (d - 1) / (2.0 * d)


class MixingWorkload:
    name = "mixing"

    def __init__(self, seed: int, scale: str, workdir):
        self.seed = seed
        size = SIZES[scale]
        self.size = size
        n_states = {}
        for key, states, _ in size["det"] + size["mc"]:
            n_states[key] = max(states, n_states.get(key, 0))
        self.grids = {}
        arrays = []
        for k, (key, count) in enumerate(n_states.items()):
            rng = np.random.default_rng([seed, k])
            if key == "spin":
                c, s, d = families.spin_direction_povm(), families.stern_gerlach_scheme(), 2
                regions = _sphere_regions(rng)
            else:
                d = int(key.split(":")[1])
                c, s = families.phase_povm(d), families.phase_scheme(d)
                regions = _circle_regions(rng)
            states = [catalog.random_density_matrix(rng, d) for _ in range(count)]
            self.grids[key] = (c, s, states, regions)
            arrays += states
            arrays += [np.array(r.describe().encode()) for r in regions]
        self.inputs_digest = digest(*arrays)
        self.merit = []
        for key in size["merit"]:
            if key == "spin":
                c, s, spec = families.spin_direction_povm(), families.stern_gerlach_scheme(), SPHERE_SPEC
            else:
                d = int(key.split(":")[1])
                c, s, spec = families.phase_povm(d), families.phase_scheme(d), CIRCLE_SPEC
            self.merit.append((key, c, s, spec))

    def _rows(self, mode):
        for key, states, region_ids in self.size[mode]:
            c, s, all_states, regions = self.grids[key]
            for rho in all_states[:states]:
                for j in region_ids:
                    yield c, s, rho, regions[j]

    def warmup(self, rec):
        c, s, rho, region = next(self._rows("det"))
        rec.call("families.verify_scheme_equivalence.det", families.verify_scheme_equivalence,
                 c, s, [rho], [region], mode="det")

    def run_round(self, rec):
        for c, s, rho, region in self._rows("det"):
            try:
                rep = rec.call("families.verify_scheme_equivalence.det",
                               families.verify_scheme_equivalence,
                               c, s, [rho], [region], mode="det")
            except OpFailed:
                continue
            rec.check(rec.last_op(), _check_det, rep)
        for n, (c, s, rho, region) in enumerate(self._rows("mc")):
            try:
                rep = rec.call("families.verify_scheme_equivalence.mc",
                               families.verify_scheme_equivalence,
                               c, s, [rho], [region], mode="mc",
                               budget=self.size["budget"], seed=self.seed * 1000 + n)
            except OpFailed:
                continue
            rec.check(rec.last_op(), _check_mc, rep)
        for k, (key, c, s, spec) in enumerate(self.merit):
            expected = _expected_gain(key)
            try:
                gain = rec.call("merit.bayes_gain", merit.bayes_gain, c, spec,
                                budget=MERIT_BUDGET)
                rec.check(rec.last_op(), _check_gain, gain, expected)
                report = rec.call("merit.check_equal_optimality",
                                  merit.check_equal_optimality, s, spec,
                                  seed=self.seed * 1000 + k, budget=MERIT_BUDGET)
                rec.check(rec.last_op(), _check_equal_optimality, report, expected)
            except OpFailed:
                continue


def _check_det(rep):
    diff = rep.max_abs_diff
    return None if diff <= 1e-6 else f"deterministic max_abs_diff {diff:.3e}"


def _check_mc(rep):
    (row,) = rep.rows
    return check_estimate(row.p_scheme, row.p_continuous, row.std_error)


def _check_gain(gain, expected):
    return None if abs(gain - expected) <= 1e-6 else f"gain {gain!r}, expected {expected!r}"


def _check_equal_optimality(report, expected):
    if report.spread > 1e-9:
        return f"equal-optimality spread {report.spread:.3e}"
    if abs(report.value - expected) > 1e-6:
        return f"member gain {report.value!r}, expected {expected!r}"
    return None
