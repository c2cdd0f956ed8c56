"""Workload ``decompose``: extremal decompositions and one-shot verdicts.

Each round decomposes a fixed batch of seeded ``catalog.random_povm``
inputs (full rank at d=2 with 3-6 outcomes and at d=3 with 4, rank-deficient
at d=3 and d=4), each preceded by ``validate_povm`` and followed by
``dual_coefficients`` when the POVM is informationally complete, then asks
``perturbation_space`` for a verdict on full-rank POVMs at d=5 and d=6 with
n=2d.  The split tree is many small kernel problems; a verdict is one large
one.  No sampling, serialize or quadrature code runs.
"""

from __future__ import annotations

import numpy as np
from povmkit import catalog, extremality, povm, tomography

from harness import OpFailed, digest, random_hermitian

# (dim, outcomes, element rank or None for full rank, copies).  The end-to-end
# statistics are taken over the ops of one round, each at its median over the
# rounds.  Ops whose cost depends on the seed (full rank, and rank 2 or 3 at
# n>=d+2) are kept away from the two ranks those statistics read: the median
# op falls among the eight d=3, n=4 rank-2 copies (8 terms for every seed),
# with about as many cheaper steady ops below them as dearer ops above; the
# tail op (ten ops beyond it) falls among the twelve d=4, n=18 rank-1 copies
# (4 terms for every seed), above which sit the verdicts, the full-rank
# inputs with n>=4, the d=3, n=5 rank-2 and some of the d=4, n=3 rank-3 ones.
DECOMPOSITIONS = {
    "standard": (
        (2, 3, None, 3), (2, 4, None, 1), (2, 5, None, 1), (2, 6, None, 1),
        (3, 4, None, 1),
        (3, 3, 2, 3), (3, 4, 2, 8), (3, 5, 2, 1), (4, 3, 3, 2), (4, 5, 2, 4),
        (3, 10, 1, 3), (3, 11, 1, 3), (4, 17, 1, 3), (4, 18, 1, 12),
    ),
    "smoke": ((2, 3, None, 1), (2, 4, None, 1), (3, 4, 2, 1), (3, 10, 1, 1)),
}
VERDICT_DIMS = {"standard": (5, 6), "smoke": (3,)}
MAX_TERMS = 4096


class DecomposeWorkload:
    name = "decompose"

    def __init__(self, seed: int, scale: str, workdir):
        self.items = []  # (povm, dual target or None)
        k = 0
        for d, n, rank, copies in DECOMPOSITIONS[scale]:
            for _ in range(copies):
                rng = np.random.default_rng([seed, k])
                k += 1
                p = catalog.random_povm(rng, d, n, rank)
                target = (
                    random_hermitian(rng, d)
                    if tomography.is_informationally_complete(p)
                    else None
                )
                self.items.append((p, target))
        self.verdicts = []
        for d in VERDICT_DIMS[scale]:
            rng = np.random.default_rng([seed, k])
            k += 1
            self.verdicts.append(catalog.random_povm(rng, d, 2 * d))
        arrays = [el for p, _ in self.items for el in p.elements]
        arrays += [t for _, t in self.items if t is not None]
        arrays += [el for p in self.verdicts for el in p.elements]
        self.inputs_digest = digest(*arrays)
        rng = np.random.default_rng([seed, k])
        self.warmup_povm = catalog.random_povm(rng, 2, 3)

    def warmup(self, rec):
        rec.call("extremality.decompose_extremal", extremality.decompose_extremal,
                 self.warmup_povm, max_terms=MAX_TERMS)

    def run_round(self, rec):
        tracer = rec.tracer if rec.round.traced else None
        counts = rec.round.counts
        counts["decomp_terms"] = 0
        counts["ps_calls_in_decompositions"] = 0
        for index, (p, target) in enumerate(self.items):
            # One op per input: validate, decompose, then the dual if any.
            try:
                with rec.op("decompose.pipeline") as op:
                    report = rec.call("povm.validate_povm", povm.validate_povm, p)
                    rec.check(op, _check_validation, report)
                    before = tracer.count("extremality.perturbation_space") if tracer else 0
                    result = rec.call("extremality.decompose_extremal",
                                      extremality.decompose_extremal, p, max_terms=MAX_TERMS)
                    if tracer:
                        counts["ps_calls_in_decompositions"] += (
                            tracer.count("extremality.perturbation_space") - before
                        )
                    counts["decomp_terms"] += len(result.terms)
                    rec.check(op, _check_decomposition, p, result,
                              key=(index, _result_digest(result)))
                    if target is not None:
                        dual = rec.call("tomography.dual_coefficients",
                                        tomography.dual_coefficients, p, target)
                        rec.check(op, _check_dual, p, target, dual)
            except OpFailed:
                continue
        for index, p in enumerate(self.verdicts):
            try:
                basis = rec.call("extremality.verdict", extremality.perturbation_space, p)
            except OpFailed:
                continue
            rec.check(rec.last_op(), _check_verdict, p, basis,
                      key=(index, digest(*[c for q in basis for c in q.components])))

    @staticmethod
    def corrupt(pending):
        """Perturb the first decomposition's first weight (fault injection)."""
        for k, (op, fn, args, key) in enumerate(pending):
            if fn is _check_decomposition:
                p, result = args
                (w, term), *rest = result.terms
                bad = extremality.DecompositionResult(
                    terms=((w + 1e-6, term), *rest), depth=result.depth
                )
                pending[k] = (op, fn, (p, bad), None)
                return


def _result_digest(result) -> str:
    return digest(result.weights, *[el for _, t in result.terms for el in t.elements])


def _check_validation(report):
    return None if report.passed else f"valid input rejected: {report.worst()}"


def _check_decomposition(p, result):
    total = float(np.sum(result.weights))
    if abs(total - 1.0) > 1e-9:
        return f"weights sum to {total!r}"
    if np.any(result.weights <= 0):
        return "nonpositive weight"
    err = result.reconstruction_error(p)
    if err > 1e-8:
        return f"reconstruction error {err:.3e}"
    for k, (_, term) in enumerate(result.terms):
        if not povm.validate_povm(term).passed:
            return f"term {k} is not a POVM"
        if len(term.nonzero_indices()) > p.dim**2:
            return f"term {k} has more than d**2 nonzero elements"
        if not extremality.is_extremal(term):
            return f"term {k} is not extremal"
    return None


def _check_dual(p, target, dual):
    residual = float(np.linalg.norm(
        sum(c * el for c, el in zip(dual.coefficients, p.elements)) - target
    ))
    return None if residual <= 1e-8 else f"dual residual {residual:.3e}"


def _check_verdict(p, basis):
    # Full-rank elements admit every Hermitian direction on their support, so
    # the valid perturbations are exactly the tuples summing to zero: an
    # orthonormal basis of them has (n-1)*d**2 members.
    expected = (len(p) - 1) * p.dim**2
    if len(basis) != expected:
        return f"kernel dimension {len(basis)}, expected {expected}"
    q = np.array([q.components for q in basis])  # (k, n, d, d)
    if np.max(np.abs(q - np.conj(np.swapaxes(q, -1, -2)))) > 1e-10:
        return "perturbation component not Hermitian"
    if np.max(np.abs(q.sum(axis=1))) > 1e-9:
        return "perturbation components do not sum to zero"
    flat = q.reshape(len(basis), -1)
    gram = (flat.conj() @ flat.T).real
    if np.max(np.abs(gram - np.eye(len(basis)))) > 1e-8:
        return "perturbation basis is not orthonormal"
    return None
