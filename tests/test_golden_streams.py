"""Golden outputs of the built-in families, pinned byte for byte.

Each digest is the sha256 of a two-stage record stream, as
`records_to_lines` writes it, of an equal-optimality report, as
`merit --scheme` prints it, or of what `tomo --family` prints for direct
records and a state.  A change to a scheme's mixing law, members, Born
probabilities or outcome points, or to a family's dual, that moves any
byte of these fails here; such a change must be deliberate, and the new
digests recorded with it.  The `equiv --mode det` digests pin what the
deterministic mixing quadrature prints.  Two more digests pin the raw
float bytes of the perturbation bases and of the extremal decompositions
of seeded random POVMs.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import povmkit as pk
from povmkit import serialize as ser
from povmkit.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


STREAMS = {
    "spin": "c676dae805fa9ed881813e9ea278e9a366b4f98e71506fac72f0862f163837cf",
    "phase:2": "e3f66149f903cb7e309ecf3d70f85e9806a9bcb94d1e857311e72fb344a3968d",
    "phase:3": "b8c4ac6952063b5d593360184e17d77e4750239f673170f87e7a8d2b14ba164d",
    "phase:8": "e712cfb8917e6e6d06c8546d633cef92a7b5452e3b86a40e0c15a21a4622208b",
}

REPORTS = {
    "spin": "c6534b3e016efb9d36102a8710d43484d13c044c55c1883240881c078c172874",
    "phase:3": "4ad7412a57e98678e5f7e17fcc96d3e1764ed49d8d03b33380359a7b65028243",
}


TOMO = {
    "spin": "80e815c641fc49b48e981937bb316032ba82e3a116401797de6f076c78107826",
    "phase:3": "07a577aa48fe36d52196e90f94883af9bc6544e5b8cbe48266149030f96b38b2",
}

EQUIV = {
    ("spin", None): "ff9aeaef99508302316a8feb401100c6fc5eb3365cb54e0cf896d3698b0757f7",
    ("phase:3", None): "3e7634bd363640c1332686ed38c5a2d1f216cb6f2deed819b49ffca72fbef566",
    ("phase:8", None): "6f0e604a04b7fc4481ff4f9034511f24703fe1f688ba57baa215e56745efa2e2",
}

# one region, two disjoint ones and a complement on the sphere; one to
# three arcs on the circle (the last wraps through 0)
EQUIV_REGIONS = {
    "sphere": [
        {"id": "cap", "caps": [{"axis": [0.6, 0.0, 0.8], "angle": 1.0}]},
        {"id": "two", "caps": [{"axis": [0.0, 0.0, 1.0], "angle": 0.7},
                               {"axis": [0.0, -0.6, -0.8], "angle": 0.9}]},
        {"id": "rest", "caps": [{"axis": [0.48, 0.6, -0.64], "angle": 1.2}],
         "complement": True},
    ],
    "circle": [
        {"id": "arc", "arcs": [[0.3, 2.2]]},
        {"id": "two", "arcs": [[-1.0, 0.4], [2.5, 3.1]]},
        {"id": "three", "arcs": [[0.1, 0.9], [1.7, 2.0], [5.5, 6.6]]},
    ],
}

TARGETS = {
    "spin": [[0.6, 0.7 + 0.1j], [0.7 - 0.1j, -0.2]],
    "phase:3": [[1.0, 0.5 - 0.25j, 0.1j], [0.5 + 0.25j, 1.0, 0.5 - 0.25j],
                [-0.1j, 0.5 + 0.25j, 1.0]],
}


# (dim, outcomes, element rank or None for full rank): peeled inputs, then
# one full-rank verdict whose kernel has (n - 1) * d**2 directions.
DECOMPOSED = (
    (2, 3, None), (2, 4, None), (2, 5, None), (2, 6, None),
    (3, 4, 2), (3, 5, 2), (4, 18, 1),
)
VERDICT = (5, 10, None)
PERTURBATIONS = (
    "333cb37da977f6e4a04c4fa5d6fa96ba41d93f544d5acf2398060dc984005273"
)
DECOMPOSITION = (
    "ac0837acb2bbbaf4a0ec8295b1f2cdbac6713a278eec77b0aff48874a5828a79"
)


def scheme(name):
    return pk.stern_gerlach_scheme() if name == "spin" else pk.phase_scheme(int(name[6:]))


@pytest.mark.parametrize("name, seed", [
    ("spin", 7), ("phase:2", 8), ("phase:3", 9), ("phase:8", 10),
])
def test_two_stage_stream(name, seed):
    s = scheme(name)
    rho = pk.random_density_matrix(np.random.default_rng(seed), s.dim)
    records = pk.sample_two_stage(s, rho, 2000, seed=seed)
    assert sha256("\n".join(ser.records_to_lines(records))) == STREAMS[name]


REPORT_CASES = [("spin", "uniform_sphere", "fidelity"), ("phase:3", "uniform_circle", "cosine")]


def report_digest(name, prior, gain):
    spec = pk.BayesGainSpec(prior=prior, gain=gain)
    report = pk.check_equal_optimality(scheme(name), spec, x_samples=16, seed=5)
    return sha256(ser.dumps_canonical(ser.merit_report_to_dict(report)))


@pytest.mark.parametrize("name, prior, gain", REPORT_CASES)
def test_equal_optimality_report(name, prior, gain):
    assert report_digest(name, prior, gain) == REPORTS[name]


def in_one_blas_thread(expression: str):
    """The JSON value of ``expression``, evaluated in a child process with
    one BLAS thread, where this module is ``g``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "import test_golden_streams as g\n"
        f"print(json.dumps({expression}))\n"
    )
    src = os.path.dirname(os.path.dirname(pk.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_equal_optimality_reports_with_one_blas_thread():
    # the gains are fixed-order sums with no BLAS call, so a child with one
    # BLAS thread prints the same digests
    digests = in_one_blas_thread("{case[0]: g.report_digest(*case) for case in g.REPORT_CASES}")
    assert digests == REPORTS


@pytest.mark.parametrize("name, seed", [("spin", 11), ("phase:3", 12)])
def test_tomo_family_output(name, seed, tmp_path, capsys):
    c, _ = pk.named_family(name)
    rho = pk.random_density_matrix(np.random.default_rng(seed), c.dim)
    files = {key: str(tmp_path / key) for key in ("state", "target", "records")}
    ser.save_states(files["state"], [("rho", rho)])
    ser.write_json(files["target"], {"schema": 1, "matrix": ser.matrix_to_json(TARGETS[name])})
    ser.write_records(files["records"], pk.sample_direct(c, rho, 2000, seed=seed))
    argv = ["tomo", "--family", name] + [f"--{key}={path}" for key, path in files.items()]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == TOMO[name]


def equiv_digest(name, budget, directory) -> str:
    """sha256 of what ``equiv --mode det`` prints for the pinned inputs,
    written to ``directory``."""
    c, _ = pk.named_family(name)
    rng = np.random.default_rng(14)
    states = [(f"rho{k}", pk.random_density_matrix(rng, c.dim)) for k in range(2)]
    kind = "sphere" if name == "spin" else "circle"
    regions = [{"space": {"kind": kind}, **r} for r in EQUIV_REGIONS[kind]]
    files = {key: pathlib.Path(directory) / f"{key}.json" for key in ("states", "regions")}
    ser.save_states(files["states"], states)
    ser.write_json(files["regions"], {"schema": 1, "regions": regions})
    argv = ["equiv", "--family", name, "--mode", "det"]
    argv += [f"--{key}={path}" for key, path in files.items()]
    argv += [] if budget is None else [f"--budget={budget}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return sha256(out.getvalue())


@pytest.mark.parametrize("name, budget", list(EQUIV))
def test_equiv_det_output(name, budget, tmp_path):
    assert equiv_digest(name, budget, tmp_path) == EQUIV[name, budget]


def test_equiv_det_outputs_with_one_blas_thread(tmp_path):
    # the mixing quadrature prints the same bytes with one BLAS thread
    digests = in_one_blas_thread(f"[g.equiv_digest(*key, {str(tmp_path)!r}) for key in g.EQUIV]")
    assert digests == list(EQUIV.values())


def digest_inputs(shapes):
    for k, (d, n, rank) in enumerate(shapes):
        yield pk.random_povm(np.random.default_rng([2013, k]), d, n, rank)


def sha256_of(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def perturbations_digest() -> str:
    return sha256_of(q.components for p in digest_inputs(DECOMPOSED + (VERDICT,))
                     for q in pk.perturbation_space(p))


def test_perturbation_space_bytes():
    assert perturbations_digest() == PERTURBATIONS


def test_perturbation_space_bytes_with_one_blas_thread():
    # the bases come straight from the kernel SVD, so a child with one BLAS
    # thread prints the same digest
    assert in_one_blas_thread("g.perturbations_digest()") == PERTURBATIONS


def test_decomposition_bytes():
    arrays = []
    for p in digest_inputs(DECOMPOSED):
        result = pk.decompose_extremal(p)
        arrays += [result.weights] + [el for _, term in result.terms for el in term.elements]
    assert sha256_of(arrays) == DECOMPOSITION


def test_reconstruct_sums_in_term_order():
    # the per-element loop that DecompositionResult.reconstruct replaced
    for p in digest_inputs(DECOMPOSED):
        result = pk.decompose_extremal(p)
        out = [np.zeros_like(el) for el in result.terms[0][1].elements]
        for w, term in result.terms:
            for k, el in enumerate(term.elements):
                out[k] = out[k] + w * el
        assert np.array(result.reconstruct()).tobytes() == np.array(out).tobytes()
        error = max(np.linalg.norm(a - b) for a, b in zip(out, p.elements))
        assert result.reconstruction_error(p) == pytest.approx(error, rel=1e-12, abs=1e-300)
