"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints a
single verdict line (visible with ``pytest -s`` or in the captured
output).  Expected values come from closed forms cross-checked against
the independent oracles in ``oracles.py``.
"""

import json
import time

import numpy as np
import pytest

import povmkit as pk
from povmkit import serialize as ser
from povmkit.catalog import PAULI_X, PAULI_Y, PAULI_Z
from povmkit.cli import main as cli_main
from povmkit.outcomes import SPHERE, Region

from oracles import (
    arc_probability_quadrature,
    brute_force_extremal,
    cap_probability_quadrature,
)

UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
Z_AXIS = (0.0, 0.0, 1.0)


class Criterion:
    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.name}): "
            f"{verdict} in {elapsed:.2f}s (limit {self.limit}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s"
            )
        return False


def cap(axis, angle):
    return Region.of_caps([(axis, angle)])


def test_criterion_1_spin_cap_probabilities():
    with Criterion(1, "spin cap closed forms vs quadrature", 1.0):
        spin = pk.spin_direction_povm()
        hemi = spin.region_probability(UP, cap(Z_AXIS, np.pi / 2))
        sixty = spin.region_probability(UP, cap(Z_AXIS, np.pi / 3))
        assert abs(hemi - 0.75) <= 1e-9
        assert abs(sixty - 7.0 / 16.0) <= 1e-9
        assert abs(hemi - cap_probability_quadrature(UP, Z_AXIS, np.pi / 2)) <= 1e-9
        assert abs(sixty - cap_probability_quadrature(UP, Z_AXIS, np.pi / 3)) <= 1e-9


def test_criterion_2_stern_gerlach_equivalence():
    with Criterion(2, "direction-scheme equivalence, deterministic", 5.0):
        rng = np.random.default_rng(123456)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        states = [
            ("up", UP),
            ("plus", np.full((2, 2), 0.5, dtype=complex)),
            ("pure", np.outer(psi, psi.conj())),
            ("mixed", pk.random_density_matrix(rng, 2)),
            ("maximally_mixed", np.eye(2, dtype=complex) / 2),
        ]
        generic_axis = rng.normal(size=3)
        generic_axis /= np.linalg.norm(generic_axis)
        regions = [
            ("hemisphere", cap(Z_AXIS, np.pi / 2)),
            ("cap60", cap(Z_AXIS, np.pi / 3)),
            ("cap_x", cap((1.0, 0.0, 0.0), 0.8)),
            (
                "band",
                Region.of_caps(
                    [(Z_AXIS, np.pi / 4), ((0.0, 0.0, -1.0), np.pi / 4)],
                    complement=True,
                ),
            ),
            ("generic", cap(tuple(generic_axis), 1.1)),
            ("full", Region.full(SPHERE)),
        ]
        report = pk.verify_scheme_equivalence(
            pk.spin_direction_povm(), pk.stern_gerlach_scheme(), states, regions
        )
        assert len(report.rows) == 30
        assert report.max_abs_diff <= 1e-6


def test_criterion_3_phase_equivalence():
    with Criterion(3, "phase-scheme equivalence, closed form", 1.0):
        rng = np.random.default_rng(7)
        arcs = [
            ("half", Region.of_arcs([(0.0, np.pi)])),
            ("centered", Region.of_arcs([(-np.pi / 2, np.pi / 2)])),
            ("short", Region.of_arcs([(0.3, 0.9)])),
            ("wrapped", Region.of_arcs([(5.5, 2 * np.pi + 1.2)])),
        ]
        for d in (2, 3, 5):
            basis0 = np.zeros((d, d), dtype=complex)
            basis0[0, 0] = 1.0
            e = np.ones(d, dtype=complex) / np.sqrt(d)
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            states = [
                ("basis", basis0),
                ("uniform", np.outer(e, e.conj())),
                ("pure", np.outer(psi, psi.conj())),
                ("mixed", pk.random_density_matrix(rng, d)),
            ]
            report = pk.verify_scheme_equivalence(
                pk.phase_povm(d), pk.phase_scheme(d), states, arcs
            )
            assert len(report.rows) == 16
            assert report.max_abs_diff <= 1e-9


def test_criterion_4_extremality_verdicts():
    with Criterion(4, "extremality vs brute-force oracle", 30.0):
        for d in (2, 3, 4):
            assert pk.is_extremal(pk.projective_basis_povm(d))
        assert pk.is_extremal(pk.sic_tetrahedron_povm())
        assert not pk.is_extremal(pk.coin_flip_povm())
        rng = np.random.default_rng(31415)
        for _ in range(5):
            assert not pk.is_extremal(pk.random_povm(rng, 2, 6, element_rank=1))

        agreements = 0
        for k in range(50):
            d = 2 if k % 2 == 0 else 3
            rank = 1 + k % d
            n_min = max(2, -(-d // rank))
            n = n_min + k % 5
            p = pk.random_povm(rng, d, n, element_rank=rank)
            agreements += pk.is_extremal(p) == brute_force_extremal(p)
        assert agreements == 50


def test_criterion_5_decomposition_bound():
    with Criterion(5, "decomposition: weights, reconstruction, d^2 bound", 60.0):
        rng = np.random.default_rng(271828)
        cases = []
        for k in range(50):
            d = 2 if k % 2 == 0 else 3
            n = 5 + k % 6
            if k % 5 == 4:
                rank = None if d == 2 else 2  # denser elements, small n
                n = 5
            else:
                rank = 1
            cases.append((d, n, rank))
        for d, n, rank in cases:
            p = pk.random_povm(rng, d, n, element_rank=rank)
            res = pk.decompose_extremal(p, max_terms=512)
            assert abs(res.weights.sum() - 1.0) <= 1e-9
            assert res.reconstruction_error(p) <= 1e-8
            for _, leaf in res.terms:
                assert pk.is_extremal(leaf)
                nz = leaf.nonzero_indices()
                assert len(nz) <= d * d
                coords = np.column_stack(
                    [
                        np.concatenate(
                            [leaf.elements[i].real.ravel(),
                             leaf.elements[i].imag.ravel()]
                        )
                        for i in nz
                    ]
                )
                assert np.linalg.matrix_rank(coords, tol=1e-7) == len(nz)


def test_criterion_6_sampling_equivalence():
    with Criterion(6, "two-stage vs direct sampling, chi-square", 60.0):
        spin = pk.spin_direction_povm()
        scheme = pk.stern_gerlach_scheme()
        n = 100_000
        passes = 0
        for seed in range(100):
            direct = pk.sample_direct(spin, UP, n, seed=seed)
            staged = pk.sample_two_stage(scheme, UP, n, seed=10_000 + seed)
            rep = pk.compare_samples(direct, staged, "sphere12")
            passes += rep.p_value > 0.001
        assert passes >= 99

        mixed = np.eye(2, dtype=complex) / 2
        rejections = 0
        for seed in range(100):
            a = pk.sample_direct(spin, UP, n, seed=seed)
            b = pk.sample_direct(spin, mixed, n, seed=20_000 + seed)
            rep = pk.compare_samples(a, b, "sphere12")
            rejections += rep.p_value < 1e-6
        assert rejections == 100


def test_criterion_7_equal_optimality():
    with Criterion(7, "Bayes gain 2/3 and member spread", 5.0):
        spec = pk.BayesGainSpec(prior="uniform_sphere", gain="fidelity")
        value = pk.bayes_gain(pk.spin_direction_povm(), spec)
        assert abs(value - 2.0 / 3.0) <= 1e-6
        report = pk.check_equal_optimality(
            pk.stern_gerlach_scheme(), spec, x_samples=16, seed=99
        )
        for _, member_value in report.per_member:
            assert abs(member_value - 2.0 / 3.0) <= 1e-6
        assert report.spread <= 1e-9
        trivial = pk.FinitePOVM(
            dim=2,
            space=SPHERE,
            entries=((np.array([0.0, 0.0, 1.0]), np.eye(2, dtype=complex)),),
        )
        assert abs(pk.bayes_gain(trivial, spec) - 0.5) <= 1e-9


def test_criterion_8_tomography():
    with Criterion(8, "duals and sampled expectation estimates", 60.0):
        sic = pk.sic_tetrahedron_povm()
        for target in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z):
            dual = pk.dual_coefficients(sic, target)
            rebuilt = sum(c * el for c, el in zip(dual.coefficients, sic.elements))
            assert np.linalg.norm(rebuilt - target) <= 1e-10

        rng = np.random.default_rng(5)
        for _ in range(3):
            coeffs = rng.normal(size=4)
            target = coeffs[0] * np.eye(2) + coeffs[1] * PAULI_X \
                + coeffs[2] * PAULI_Y + coeffs[3] * PAULI_Z
            assert pk.spin_direction_povm().dual_residual(pk.spin_dual(target)) <= 1e-9

        dual_z = pk.spin_dual(PAULI_Z)
        n = 100_000
        spin = pk.spin_direction_povm()
        scheme = pk.stern_gerlach_scheme()
        direct_hits = staged_hits = 0
        for seed in range(100):
            direct = pk.estimate_expectation(
                pk.sample_direct(spin, UP, n, seed=seed), dual_z, rho_exact=UP
            )
            direct_hits += abs(direct.estimate - direct.exact) <= 5 * direct.std_error
            staged = pk.estimate_expectation(
                pk.sample_two_stage(scheme, UP, n, seed=30_000 + seed),
                dual_z,
                rho_exact=UP,
            )
            staged_hits += abs(staged.estimate - staged.exact) <= 5 * staged.std_error
        assert direct_hits >= 95
        assert staged_hits >= 95


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with Criterion(9, "CLI determinism and round-trips", 10.0):
        coin = tmp_path / "coin_flip.json"
        ser.save_povm(coin, pk.coin_flip_povm())
        sic = tmp_path / "sic.json"
        ser.save_povm(sic, pk.sic_tetrahedron_povm())
        state = tmp_path / "state.json"
        ser.save_states(state, [("up", UP)])
        regions = tmp_path / "regions.json"
        regions.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "regions": [
                        {
                            "id": "upper",
                            "space": {"kind": "sphere"},
                            "caps": [{"axis": [0.0, 0.0, 1.0], "angle": np.pi / 2}],
                        }
                    ],
                }
            )
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"prior": "uniform_sphere", "gain": "fidelity"}))
        target = tmp_path / "target.json"
        target.write_text(
            json.dumps({"schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]})
        )

        def render(argv, outputs):
            for path in outputs:
                if path.exists():
                    path.unlink()
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            return out, [p.read_bytes() for p in outputs]

        direct = tmp_path / "direct.ndjson"
        staged = tmp_path / "staged.ndjson"
        decomp = tmp_path / "decomp.json"
        eq_out = tmp_path / "equiv.json"
        invocations = [
            (["validate", str(coin)], []),
            (["extremal", str(coin)], []),
            (["decompose", str(coin), "-o", str(decomp)], [decomp]),
            (
                [
                    "equiv", "--family", "spin", "--states", str(state),
                    "--regions", str(regions), "--mode", "det",
                    "-o", str(eq_out),
                ],
                [eq_out],
            ),
            (
                [
                    "sample", "--family", "spin", "--direct", "--state", str(state),
                    "-n", "3000", "--seed", "42", "-o", str(direct),
                ],
                [direct],
            ),
            (
                [
                    "sample", "--family", "spin", "--scheme", "--state", str(state),
                    "-n", "3000", "--seed", "43", "-o", str(staged),
                ],
                [staged],
            ),
            (["gof", "--a", str(direct), "--b", str(staged), "--bins", "sphere12"], []),
            (["merit", "--family", "spin", "--spec", str(spec)], []),
            (
                [
                    "tomo", "--family", "spin", "--target", str(target),
                    "--records", str(direct), "--state", str(state),
                ],
                [],
            ),
            (["tomo", "--povm", str(sic), "--target", str(target)], []),
        ]
        for argv, outputs in invocations:
            out1, files1 = render(argv, outputs)
            out2, files2 = render(argv, outputs)
            assert out1 == out2, f"stdout differs for {argv}"
            assert files1 == files2, f"output files differ for {argv}"

        # round-trips of everything emitted
        back = ser.decomposition_from_dict(json.loads(decomp.read_text()))
        for _, leaf in back.terms:
            assert pk.validate_povm(leaf).passed
        assert json.loads(eq_out.read_text())["max_abs_diff"] <= 1e-6
        assert len(ser.read_records(direct)) == 3000
        assert len(ser.read_records(staged)) == 3000
