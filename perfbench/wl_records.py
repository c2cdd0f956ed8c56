"""Workload ``records``: sampling jobs through both routes, with record I/O.

Each job draws n outcomes by the direct route and by the two-stage route,
writes both as NDJSON, reads them back, compares them with a two-sample
chi-square test and estimates ``Tr[rho A]`` for a few observables A from
each.  Families: spin,
phase:3, phase:8 and a finite mixture made from a d=2 decomposition during
set-up (its direct route is the undecomposed POVM as a one-member mixture).
Job sizes run from 1e3 to 3e4 draws, so both per-call overhead and
per-record cost show.  No extremality or quadrature code runs in a round.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from povmkit import (
    catalog,
    extremality,
    families,
    outcomes,
    sampling,
    serialize,
    tomography,
)

from harness import OpFailed, check_estimate, digest, random_hermitian

ALPHA = 1e-6  # compare_samples must not reject equal laws at this level
# Observables estimated from each record set.  Their estimates are the most
# numerous ops and hold the median op.
OBSERVABLES = 8

JOBS = {
    "standard": (
        ("spin", 1_000), ("spin", 10_000),
        ("phase:3", 1_000), ("phase:3", 30_000),
        ("phase:8", 1_000), ("phase:8", 5_000),
        ("mixture", 1_000), ("mixture", 2_000),
    ),
    "smoke": (("spin", 500), ("phase:3", 500), ("mixture", 500)),
}


def _state(rng, d):
    # Mixed with the identity so that no bin of a preset partition is sparse.
    return 0.7 * catalog.random_density_matrix(rng, d) + 0.3 * np.eye(d) / d


def _toeplitz_hermitian(rng, d):
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    c[0] = c[0].real
    a = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            a[i, j] = c[j - i] if j >= i else np.conj(c[i - j])
    return a


@dataclass
class Family:
    direct: tuple  # (op label, sampler, continuous POVM or scheme)
    scheme: object
    staged_label: str
    bins: object
    duals: list
    rho: np.ndarray


class RecordsWorkload:
    name = "records"

    def __init__(self, seed: int, scale: str, workdir):
        self.seed = seed
        self.workdir = workdir
        self.families = {}
        arrays = []
        for k, key in enumerate(("spin", "phase:3", "phase:8", "mixture")):
            rng = np.random.default_rng([seed, k])
            if key == "spin":
                rho = _state(rng, 2)
                targets = [random_hermitian(rng, 2) for _ in range(OBSERVABLES)]
                fam = Family(
                    ("sampling.sample_direct.spin", sampling.sample_direct,
                     families.spin_direction_povm()),
                    families.stern_gerlach_scheme(), "sampling.sample_two_stage.spin",
                    "sphere12", [tomography.spin_dual(a) for a in targets], rho,
                )
            elif key.startswith("phase"):
                d = int(key.split(":")[1])
                rho = _state(rng, d)
                targets = [_toeplitz_hermitian(rng, d) for _ in range(OBSERVABLES)]
                fam = Family(
                    ("sampling.sample_direct.phase", sampling.sample_direct,
                     families.phase_povm(d)),
                    families.phase_scheme(d), "sampling.sample_two_stage.phase",
                    "circle16", [tomography.phase_dual(d, a) for a in targets], rho,
                )
            else:
                p = catalog.random_povm(rng, 2, 4)
                rho = _state(rng, 2)
                targets = [random_hermitian(rng, 2) for _ in range(OBSERVABLES)]
                decomposition = extremality.decompose_extremal(p)
                space = p.space
                fam = Family(
                    ("sampling.sample_two_stage.mixture", sampling.sample_two_stage,
                     families.FiniteMixtureScheme([(1.0, p)])),
                    families.scheme_from_decomposition(decomposition),
                    "sampling.sample_two_stage.mixture",
                    [outcomes.Region.of_labels(space, [i]) for i in range(space.n)],
                    [tomography.dual_coefficients(p, a) for a in targets], rho,
                )
                arrays += list(p.elements)
            arrays += [rho, *targets]
            self.families[key] = fam
        self.jobs = [(self.families[key], n) for key, n in JOBS[scale]]
        self.inputs_digest = digest(*arrays, np.array([n for _, n in self.jobs]))

    def _path(self, k, route):
        return os.path.join(self.workdir, f"job{k}-{route}.ndjson")

    def warmup(self, rec):
        fam = self.families["spin"]
        label, fn, target = fam.direct
        rec.call(label, fn, target, fam.rho, 100, self.seed)

    def run_round(self, rec):
        counts = rec.round.counts
        for k, (fam, n) in enumerate(self.jobs):
            label, fn, target = fam.direct
            try:
                a = rec.call(label, fn, target, fam.rho, n, 2 * (self.seed * 1000 + k))
                rec.check(rec.last_op(), _check_sample, a, n)
                b = rec.call(fam.staged_label, sampling.sample_two_stage, fam.scheme,
                             fam.rho, n, 2 * (self.seed * 1000 + k) + 1)
                rec.check(rec.last_op(), _check_sample, b, n)
                for drawn in (label, fam.staged_label):
                    counts[drawn + ".draws"] = counts.get(drawn + ".draws", 0) + n
                pa, pb = self._path(k, "a"), self._path(k, "b")
                rec.call("serialize.write_records", serialize.write_records, pa, a)
                rec.check(rec.last_op(), _check_written, pa, n, counts)
                rec.call("serialize.write_records", serialize.write_records, pb, b)
                rec.check(rec.last_op(), _check_written, pb, n, counts)
                ra = rec.call("serialize.read_records", serialize.read_records, pa)
                rec.check(rec.last_op(), _check_roundtrip, a, ra)
                rb = rec.call("serialize.read_records", serialize.read_records, pb)
                rec.check(rec.last_op(), _check_roundtrip, b, rb)
                gof = rec.call("sampling.compare_samples", sampling.compare_samples,
                               ra, rb, fam.bins)
                rec.check(rec.last_op(), _check_gof, gof)
                for records in (ra, rb):
                    for dual in fam.duals:
                        est = rec.call("tomography.estimate_expectation",
                                       tomography.estimate_expectation, records, dual,
                                       rho_exact=fam.rho)
                        rec.check(rec.last_op(), _check_estimate, est)
            except OpFailed:
                continue


def _check_sample(records, n):
    if len(records) != n:
        return f"{len(records)} records, expected {n}"
    omega = np.asarray(records.omega)
    if omega.ndim == 2:
        if np.max(np.abs(np.linalg.norm(omega, axis=1) - 1.0)) > 1e-9:
            return "sphere outcome off the unit sphere"
    elif omega.dtype.kind == "f":
        if np.any(omega < 0.0) or np.any(omega >= 2.0 * np.pi):
            return "circle outcome outside [0, 2pi)"
    return None


def _check_written(path, n, counts):
    with open(path, "rb") as fh:
        data = fh.read()
    counts["serialize.records.bytes"] = counts.get("serialize.records.bytes", 0) + len(data)
    lines = data.count(b"\n")
    return None if lines == n else f"{lines} lines written, expected {n}"


def _check_roundtrip(written, read):
    if not np.array_equal(np.asarray(written.omega), read.omega):
        return "omega changed in a write/read round trip"
    if (written.i is None) != (read.i is None) or (
        written.i is not None and not np.array_equal(written.i, read.i)
    ):
        return "apparatus index changed in a write/read round trip"
    return None


def _check_gof(report):
    return None if report.p_value >= ALPHA else f"p = {report.p_value:.3e} < {ALPHA}"


def _check_estimate(est):
    return check_estimate(est.estimate, est.exact, est.std_error)
