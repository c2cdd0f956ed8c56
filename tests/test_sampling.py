import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

import povmkit as pk
from povmkit.errors import DimensionMismatch, SpaceMismatch, SparseBins
from povmkit.outcomes import SPHERE, TWO_PI, FiniteLabels, Region, normalize_angle
from povmkit.sampling import OutcomeRecords, _chi2_tail, make_rng

from oracles import SIG, arc_probability_quadrature, phase_cdf, rodrigues_rotation, spin_polar_cdf

UP_AXIS = np.array([0.0, 0.0, 1.0])


def hemisphere():
    return Region.of_caps([((0.0, 0.0, 1.0), np.pi / 2)])


def pole_image(xs):
    """The image of +z under each rotation ``x = (alpha, cos beta, gamma)``."""
    alpha, u, _ = np.asarray(xs, dtype=float).T
    s = np.sqrt(1.0 - u * u)
    return np.column_stack([s * np.cos(alpha), s * np.sin(alpha), u])


def ks_uniform(u) -> float:
    """``sqrt(n) D``, D the Kolmogorov-Smirnov distance of the values
    ``u`` from the uniform law on [0, 1]; 1.95 is its 0.999 quantile."""
    u = np.sort(u)
    n = len(u)
    k = np.arange(1, n + 1)
    return float(np.sqrt(n) * max((k / n - u).max(), (u - (k - 1) / n).max()))


class TestRng:
    def test_reproducible(self):
        a = make_rng(7).uniform(size=5)
        b = make_rng(7).uniform(size=5)
        assert np.array_equal(a, b)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_rng(-1)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 5])
    def test_rejects_seed_beyond_64_bits(self, seed):
        # such a seed would share the key of seed - 2**64
        with pytest.raises(ValueError, match="2\\*\\*64"):
            make_rng(seed)
        make_rng(2**64 - 1)  # the largest seed is a key of its own


class TestDirectSpin:
    def test_deterministic(self, up):
        spin = pk.spin_direction_povm()
        r1 = pk.sample_direct(spin, up, 100, seed=3)
        r2 = pk.sample_direct(spin, up, 100, seed=3)
        assert np.array_equal(r1.omega, r2.omega)

    def test_unit_vectors(self, up):
        recs = pk.sample_direct(pk.spin_direction_povm(), up, 1000, seed=1)
        norms = np.linalg.norm(recs.omega, axis=1)
        assert np.allclose(norms, 1.0)

    def test_inverse_cdf_exactness(self, plus):
        # in the frame of the state's Bloch axis the polar cosine has the
        # oracle CDF and the azimuth is uniform: both transforms pass KS
        n, seed = 2000, 9
        omega = pk.sample_direct(pk.spin_direction_povm(), plus, n, seed=seed).omega
        bloch = np.array([np.trace(plus @ sig).real for sig in SIG])
        local = omega @ rodrigues_rotation(bloch / np.linalg.norm(bloch))
        azimuth = normalize_angle(np.arctan2(local[:, 1], local[:, 0]))
        assert ks_uniform(spin_polar_cdf(plus, local[:, 2])) < 1.95
        assert ks_uniform(azimuth / TWO_PI) < 1.95

    def test_mixed_state_uniform(self, maximally_mixed):
        n = 100_000
        recs = pk.sample_direct(pk.spin_direction_povm(), maximally_mixed, n, seed=21)
        mean = recs.omega.mean(axis=0)
        sigma = np.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(mean) <= 4 * sigma)

    def test_up_state_hemisphere_fraction(self, up):
        n = 100_000
        recs = pk.sample_direct(pk.spin_direction_povm(), up, n, seed=2)
        frac = np.mean(hemisphere().contains(recs.omega))
        assert abs(frac - 0.75) <= 4 * np.sqrt(3.0 / 16.0 / n)


class TestDirectPhase:
    def test_cdf_monotone_normalized(self, rng):
        rho = pk.random_density_matrix(rng, 4)
        phis = np.linspace(0, TWO_PI, 200)
        cdf = phase_cdf(rho, phis)
        assert cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_plus_state_arc_fraction(self, plus):
        n = 100_000
        recs = pk.sample_direct(pk.phase_povm(2), plus, n, seed=4)
        arc = Region.of_arcs([(-np.pi / 2, np.pi / 2)])
        frac = np.mean(arc.contains(recs.omega))
        target = 0.5 + 1.0 / np.pi
        assert abs(frac - target) <= 4 * np.sqrt(target * (1 - target) / n)

    def test_matches_quadrature_density(self, rng):
        rho = pk.random_density_matrix(rng, 3)
        n = 200_000
        recs = pk.sample_direct(pk.phase_povm(3), rho, n, seed=17)
        a, b = 1.0, 2.2
        frac = np.mean(Region.of_arcs([(a, b)]).contains(recs.omega))
        target = arc_probability_quadrature(rho, a, b)
        assert abs(frac - target) <= 4 * np.sqrt(target * (1 - target) / n)

    @staticmethod
    def _state(kind, d):
        rng = np.random.default_rng(d)
        if kind == "mixed":
            return pk.random_density_matrix(rng, d)
        if kind == "pure":
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            return np.outer(v, v.conj())
        if kind == "basis":  # uniform phase density
            return np.diag(np.eye(d)[0]).astype(complex)
        return np.full((d, d), 1.0 / d, dtype=complex)  # plus: density zero at pi

    @pytest.mark.parametrize("d, kind", [
        (d, kind) for d in (2, 3, 8, 16) for kind in ("mixed", "pure", "basis")
    ] + [(2, "plus")])
    def test_inverse_cdf_exactness(self, d, kind):
        # the oracle CDF maps exact draws to uniforms: KS at alpha ~ 0.001
        rho = self._state(kind, d)
        n, seed = 5000, 31
        phis = pk.sample_direct(pk.phase_povm(d), rho, n, seed=seed).omega
        assert np.all((phis >= 0.0) & (phis < TWO_PI))
        assert ks_uniform(phase_cdf(rho, phis)) < 1.95

    def test_deterministic(self):
        rho = self._state("mixed", 8)
        a = pk.sample_direct(pk.phase_povm(8), rho, 1000, seed=3)
        b = pk.sample_direct(pk.phase_povm(8), rho, 1000, seed=3)
        assert np.array_equal(a.omega, b.omega)

    def test_state_dimension_checked(self, up):
        with pytest.raises(DimensionMismatch):
            pk.sample_direct(pk.phase_povm(3), up, 10, seed=0)
        with pytest.raises(DimensionMismatch):
            pk.sample_two_stage(pk.phase_scheme(3), up, 10, seed=0)

    def test_needs_at_least_one_draw(self, up):
        for n in (0, -1):
            with pytest.raises(ValueError):
                pk.sample_direct(pk.spin_direction_povm(), up, n, seed=0)
            with pytest.raises(ValueError):
                pk.sample_two_stage(pk.stern_gerlach_scheme(), up, n, seed=0)


class TestDirectLaw:
    """The one direct sampler, for every family."""

    @given(st.sampled_from(["spin", "phase:2", "phase:5", "phase:16"]),
           st.integers(0, 2**64 - 1), st.integers(1, 5000), st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_draws_for_n_are_a_prefix(self, name, seed, n, extra):
        c, _ = pk.named_family(name)
        rho = pk.random_density_matrix(np.random.default_rng(seed), c.dim)
        short = pk.sample_direct(c, rho, n, seed).omega
        assert np.array_equal(short, pk.sample_direct(c, rho, n + extra, seed).omega[:n])

    @pytest.mark.parametrize("name", ["spin"] + [f"phase:{d}" for d in range(2, 17)])
    def test_harmonic_means(self, name):
        # every harmonic up to degree 2L, L the density's degree, has its
        # exact mean within 5 standard errors; beyond degree L it is 0.  On
        # the circle E[exp(ik phi)] is the k-th subdiagonal sum of rho; on
        # the sphere E[n] = r/3, r the Bloch vector, and E[n n^T] = I/3
        c, _ = pk.named_family(name)
        n = 20_000
        for seed in (1, 2, 3):
            rho = pk.random_density_matrix(np.random.default_rng([88, seed]), c.dim)
            omega = pk.sample_direct(c, rho, n, seed).omega
            if c.space == SPHERE:
                bloch = np.array([np.trace(rho @ sig).real for sig in SIG])
                f = np.hstack([omega, (omega[:, :, None] * omega[:, None, :]).reshape(n, 9)])
                exact = np.concatenate([bloch / 3.0, np.eye(3).ravel() / 3.0])
            else:
                k = np.arange(1, 2 * c.degree + 1)
                waves = np.exp(1j * np.outer(omega, k))
                f = np.hstack([waves.real, waves.imag])
                sub = np.array([np.trace(rho, offset=-j) for j in k])
                exact = np.concatenate([sub.real, sub.imag])
            error = np.abs(f.mean(axis=0) - exact)
            assert np.all(error <= 5.0 * f.std(axis=0, ddof=1) / np.sqrt(n))

    @pytest.mark.parametrize("name", ["spin", "phase:2", "phase:3", "phase:8", "phase:16"])
    def test_direct_and_two_stage_agree(self, name):
        # the direct law is that of the family's randomized finite scheme
        c, scheme = pk.named_family(name)
        rho = pk.random_density_matrix(np.random.default_rng([89, c.dim]), c.dim)
        direct = pk.sample_direct(c, rho, 20_000, seed=1)
        staged = pk.sample_two_stage(scheme, rho, 20_000, seed=2)
        bins = "sphere12" if c.space == SPHERE else "circle16"
        assert pk.compare_samples(direct, staged, bins).p_value > 0.001


class TestTwoStage:
    def test_records_bookkeeping(self, up):
        sg = pk.stern_gerlach_scheme()
        recs = pk.sample_two_stage(sg, up, 5000, seed=6)
        assert recs.x is not None and recs.i is not None
        signs = np.where(recs.i == 0, 1.0, -1.0)
        assert np.allclose(recs.omega, signs[:, None] * pole_image(recs.x))

    def test_conditional_born_rule(self, up):
        # P(i = up | x) = cos^2(theta_x / 2), with n_x the image of +z; test
        # the joint moment E[1{i=up} 1{n_x in upper hemisphere}]
        # = int_{u>0} (1+u)/2 du/2 = 3/8
        n = 200_000
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, n, seed=8)
        upper = pole_image(recs.x)[:, 2] > 0
        moment = np.mean((recs.i == 0) & upper)
        assert abs(moment - 3.0 / 8.0) <= 4 * np.sqrt(0.375 * 0.625 / n)

    def test_phase_member_index_uniform(self, up):
        recs = pk.sample_two_stage(pk.phase_scheme(2), up, 100_000, seed=10)
        frac = np.mean(recs.i == 0)
        assert abs(frac - 0.5) <= 4 * np.sqrt(0.25 / 100_000)
        comb, _ = pk.phase_scheme(2).design
        expected = np.mod(recs.x + comb[recs.i], TWO_PI)
        assert np.allclose(recs.omega, expected)

    def test_mixing_marginal_uniform(self, up):
        # the x-marginal must follow the mixing law regardless of the state:
        # the image of +z is uniform on the sphere
        from povmkit.sampling import sphere12_bins

        n = 120_000
        recs = pk.sample_two_stage(pk.stern_gerlach_scheme(), up, n, seed=12)
        counts = np.bincount(sphere12_bins(pole_image(recs.x)), minlength=12).astype(float)
        expected = n / 12.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        from scipy.special import gammaincc

        assert gammaincc(11 / 2.0, stat / 2.0) > 1e-4

    def test_generic_route_matches_fast_path(self, up):
        sg = pk.stern_gerlach_scheme()
        xs = sg.sample_x(make_rng(3), 10)
        fast = sg.member_probabilities(xs, up)
        slow = np.array(
            [pk.born_probabilities(sg.member(x), up) for x in xs]
        )
        assert np.allclose(fast, slow, atol=1e-12)

    def test_finite_mixture_sampling(self, rng):
        res = pk.decompose_extremal(pk.coin_flip_povm())
        scheme = pk.scheme_from_decomposition(res)
        recs = pk.sample_two_stage(scheme, np.eye(2) / 2, 2000, seed=13)
        assert len(recs) == 2000
        assert set(np.unique(recs.i)) <= {0, 1}

    def test_ragged_mixture_law(self):
        # members with 1 and 2 entries on the sphere: the 1-entry member is
        # padded with zero-probability entries, which must never be drawn
        axis = np.array([0.6, 0.0, 0.8])
        guess = pk.FinitePOVM(
            dim=2, space=SPHERE, entries=((np.array([0.0, 0.0, 1.0]), np.eye(2)),)
        )
        sg_member = pk.stern_gerlach_scheme().member([0.0, axis[2], 0.0])
        assert np.allclose(sg_member.points, [axis, -axis], rtol=0, atol=1e-15)
        scheme = pk.FiniteMixtureScheme([(0.3, guess), (0.7, sg_member)])
        rho = pk.random_density_matrix(np.random.default_rng(8), 2)
        n = 20_000
        recs = pk.sample_two_stage(scheme, rho, n, seed=14)
        assert np.all(recs.i[recs.x == 0] == 0)
        bins = [
            Region.of_caps([((0.0, 0.0, 1.0), 0.1)]),
            Region.of_caps([(tuple(axis), 0.1)]),
            Region.of_caps([(tuple(-axis), 0.1)]),
        ]
        expected = np.array([
            sum(w * pk.probability_of_region(p, rho, r) for w, p in scheme.terms)
            for r in bins
        ])
        assert expected.sum() == pytest.approx(1.0)
        counts = np.array([np.sum(r.contains(recs.omega)) for r in bins])
        assert counts.sum() == n
        stat = float(np.sum((counts - n * expected) ** 2 / (n * expected)))
        dof = len(bins) - 1
        assert gammaincc(dof / 2.0, stat / 2.0) > 1e-4


class TestCompareSamples:
    def test_same_law_accepts(self, up):
        spin = pk.spin_direction_povm()
        sg = pk.stern_gerlach_scheme()
        passes = 0
        for seed in range(10):
            a = pk.sample_direct(spin, up, 20_000, seed=seed)
            b = pk.sample_two_stage(sg, up, 20_000, seed=1000 + seed)
            rep = pk.compare_samples(a, b, "sphere12")
            assert rep.dof == 11
            passes += rep.p_value > 0.001
        assert passes >= 9

    def test_different_law_rejects(self, up, maximally_mixed):
        spin = pk.spin_direction_povm()
        a = pk.sample_direct(spin, up, 100_000, seed=3)
        b = pk.sample_direct(spin, maximally_mixed, 100_000, seed=4)
        rep = pk.compare_samples(a, b, "sphere12")
        assert rep.p_value < 1e-6

    def test_sparse_bins_raise(self, up):
        spin = pk.spin_direction_povm()
        a = pk.sample_direct(spin, up, 30, seed=3)
        b = pk.sample_direct(spin, up, 30, seed=4)
        with pytest.raises(SparseBins):
            pk.compare_samples(a, b, "sphere12")

    def test_preset_space_checked(self, plus):
        ph = pk.phase_povm(2)
        a = pk.sample_direct(ph, plus, 1000, seed=5)
        b = pk.sample_direct(ph, plus, 1000, seed=6)
        with pytest.raises(SpaceMismatch):
            pk.compare_samples(a, b, "sphere12")

    def test_region_partition_bins(self, plus):
        ph = pk.phase_povm(2)
        a = pk.sample_direct(ph, plus, 20_000, seed=5)
        b = pk.sample_direct(ph, plus, 20_000, seed=6)
        edges = np.linspace(0, TWO_PI, 9)
        regions = [Region.of_arcs([(lo, hi)]) for lo, hi in zip(edges, edges[1:])]
        rep = pk.compare_samples(a, b, regions)
        assert rep.dof == 7
        assert rep.p_value > 1e-6

    def test_partition_must_cover(self, plus):
        ph = pk.phase_povm(2)
        a = pk.sample_direct(ph, plus, 1000, seed=5)
        with pytest.raises(ValueError):
            pk.compare_samples(a, a, [Region.of_arcs([(0.0, 1.0)])])

    def test_region_space_checked(self):
        # regions on another space than the records, or bins on two spaces,
        # would bin by truncated or misread outcomes
        ph = pk.phase_povm(3)
        rho = np.eye(3) / 3
        a = pk.sample_direct(ph, rho, 2000, seed=5)
        b = pk.sample_direct(ph, rho, 2000, seed=6)
        labels = [Region.of_labels(FiniteLabels(3), [k]) for k in range(3)]
        arcs = [Region.of_arcs([(0.0, np.pi)]), Region.of_arcs([(np.pi, TWO_PI)])]
        with pytest.raises(SpaceMismatch, match="labels"):
            pk.compare_samples(a, b, labels)
        with pytest.raises(SpaceMismatch, match="different outcome spaces"):
            pk.compare_samples(a, b, arcs[:1] + labels[:1])
        assert pk.compare_samples(a, b, arcs).dof == 1

    def test_label_records_bin_only_against_label_regions(self):
        # label records read back from a file carry no space
        rng = np.random.default_rng(4)
        a, b = (OutcomeRecords(None, rng.integers(0, 3, 600)) for _ in range(2))
        arcs = [Region.of_arcs([(0.0, 1.5)]), Region.of_arcs([(1.5, TWO_PI)])]
        for bins in (arcs, "circle16", "sphere12"):
            with pytest.raises(SpaceMismatch, match="unknown space"):
                pk.compare_samples(a, b, bins)
        labels = [Region.of_labels(FiniteLabels(3), [k]) for k in range(3)]
        assert pk.compare_samples(a, b, labels).dof == 2
        with pytest.raises(SpaceMismatch, match="unknown space"):
            pk.compare_samples(a.omega + 0.5, b.omega, labels)

    def test_one_bin_rejected(self, up):
        a = pk.sample_direct(pk.spin_direction_povm(), up, 100, seed=1)
        with pytest.raises(ValueError, match="two bins"):
            pk.compare_samples(a, a, [Region.of_caps([((0.0, 0.0, 1.0), np.pi)])])


class TestChi2Tail:
    STATS = np.unique(
        np.concatenate([np.linspace(0.0, 50.0, 201), np.geomspace(1e-8, 2000.0, 200)])
    )

    @pytest.mark.parametrize("dofs", [range(1, 101), range(101, 201), range(201, 301)])
    def test_matches_gammaincc(self, dofs):
        for dof in dofs:
            got = np.array([_chi2_tail(float(s), dof) for s in self.STATS])
            ref = gammaincc(dof / 2.0, self.STATS / 2.0)
            kept = ref > 1e-300
            assert np.all(np.abs(got[kept] - ref[kept]) <= 1e-12 * ref[kept]), dof
            assert np.all((got >= 0.0) & (got <= 1.0)), dof
            assert np.all(np.diff(got) <= 0.0), dof

    @pytest.mark.parametrize("dof", [1, 2, 11, 300])
    def test_ends(self, dof):
        assert _chi2_tail(0.0, dof) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _chi2_tail(1e308, dof) == 0.0
            assert _chi2_tail(float("inf"), dof) == 0.0
            assert _chi2_tail(1e-300, dof) == 1.0


# the names ``import povmkit`` exports
EXPORTS = [
    "BayesGainSpec", "CIRCLE", "Cap", "Circle", "CirclePhasePOVM", "ContinuousPOVM",
    "DecompositionResult", "DegeneratePerturbation", "DesignScheme", "DimensionMismatch",
    "DualProcessing", "EmptySample", "EquivalenceReport", "EstimateReport", "FiniteLabels",
    "FiniteMixtureScheme", "FinitePOVM", "GofReport", "InvalidDimension", "InvalidPOVM",
    "MeritReport", "NonHermitianInput", "NotInformationallyComplete", "NumericalRankAmbiguity",
    "OutcomeRecords", "OutcomeSpace", "Perturbation", "PovmkitError", "RandomizedScheme",
    "Region", "SPHERE", "SchemaError", "SpaceMismatch", "SparseBins", "Sphere",
    "SpinDirectionPOVM", "TermBudgetExceeded", "ValidationReport",
    "bayes_gain", "born_probabilities", "check_equal_optimality", "coin_flip_povm",
    "compare_samples", "decompose_extremal", "dual_coefficients", "estimate_expectation",
    "is_extremal", "is_informationally_complete", "kernel_dimension", "make_rng",
    "named_family", "perturbation_space", "phase_dual", "phase_povm",
    "phase_scheme", "probability_of_region", "projective_basis_povm", "random_density_matrix",
    "random_povm", "random_pure_state", "sample_direct", "sample_two_stage",
    "scheme_from_decomposition", "sic_tetrahedron_povm", "spin_direction_povm", "spin_dual",
    "stern_gerlach_scheme", "validate_povm", "verify_scheme_equivalence",
]
# modules a command that only reads and checks a POVM must not load
HEAVY = ("extremality", "families", "merit", "sampling", "tomography", "quadrature")
# modules an input error found from argv and the raw JSON must not load
ARRAYS = ("numpy", "povmkit.serialize", "povmkit.outcomes", "povmkit.povm", "povmkit.operators")
# runs the CLI in this interpreter, then writes its exit code and sys.modules to argv[1]
PROBE = (
    "import json, sys\n"
    "from povmkit.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "json.dump([code, sorted(sys.modules)], open(sys.argv[1], 'w'))\n"
)


def _fresh(*args, cwd=None):
    src = os.path.dirname(os.path.dirname(pk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True)


def _scipy(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_import_skips_scipy_special():
    # ``import povmkit`` loads no submodule and no scipy
    code = "import json, sys, povmkit; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(_fresh("-c", code).stdout)
    assert [m for m in modules if m.startswith("povmkit.")] == []
    assert _scipy(modules) == []


def test_exports_resolve():
    assert sorted(pk.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(pk, name) is not None, name
    assert set(EXPORTS) <= set(dir(pk))
    with pytest.raises(AttributeError):
        pk.no_such_name


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    from povmkit import serialize as ser

    d = tmp_path_factory.mktemp("cli_inputs")
    ser.save_povm(d / "povm.json", pk.coin_flip_povm())
    ser.save_states(d / "state.json", [("mm", np.eye(2) / 2)])
    (d / "regions.json").write_text(json.dumps({"schema": 1, "regions": [
        {"space": {"kind": "sphere"}, "caps": [{"axis": [0.0, 0.0, 1.0], "angle": 1.0}]}
    ]}))
    (d / "spec.json").write_text(json.dumps({"prior": "uniform_sphere", "gain": "fidelity"}))
    (d / "target.json").write_text(
        json.dumps({"schema": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]})
    )
    spin = pk.spin_direction_povm()
    for name, seed in (("a", 1), ("b", 2)):
        ser.write_records(d / f"{name}.ndjson", pk.sample_direct(spin, np.eye(2) / 2, 600, seed))
    (d / "malformed.json").write_text('{"schema": 1, "dim": 2, "entries": [')
    (d / "list.json").write_text("[1]")
    (d / "schema2.json").write_text('{"schema": 2}')
    return d


@pytest.mark.parametrize("argv, code, light, numpy", [
    (["validate", "povm.json"], 0, True, True),
    (["extremal", "povm.json"], 0, False, True),
    (["decompose", "povm.json"], 0, False, True),
    (["equiv", "--family", "spin", "--states", "state.json", "--regions", "regions.json"],
     0, False, True),
    (["sample", "--family", "spin", "--scheme", "--state", "state.json", "-n", "100",
      "--seed", "1", "-o", "sampled.ndjson"], 0, False, True),
    (["gof", "--a", "a.ndjson", "--b", "b.ndjson", "--bins", "sphere12"], 0, False, True),
    (["merit", "--family", "spin", "--spec", "spec.json"], 0, False, True),
    (["tomo", "--family", "spin", "--target", "target.json", "--records", "a.ndjson",
      "--state", "state.json"], 0, False, True),
    (["validate", "malformed.json"], 2, True, False),
    (["validate", "missing.json"], 2, True, False),
    (["extremal", "malformed.json"], 2, True, False),
    (["extremal", "missing.json"], 2, True, False),
    (["decompose", "malformed.json"], 2, True, False),
    (["decompose", "missing.json"], 2, True, False),
    (["validate", "list.json"], 2, True, False),
    (["validate", "schema2.json"], 2, True, False),
    (["bogus"], 2, True, False),
    (["validate", "povm.json", "--tolerance", "psd=nan"], 2, True, False),
    (["equiv", "--family", "spin", "--states", "state.json", "--regions", "regions.json",
      "--tol", "nan"], 2, True, False),
    (["tomo", "--family", "spin", "--target", "schema2.json"], 2, True, False),
    (["equiv", "--family", "spin", "--states", "missing.json", "--regions", "regions.json"],
     2, True, False),
    (["gof", "--a", "a.ndjson", "--b", "b.ndjson", "--bins", "missing.json"], 2, True, False),
    (["equiv", "--family", "spin", "--states", "state.json", "--regions", "regions.json",
      "--mode", "mc"], 2, True, False),
], ids=["validate", "extremal", "decompose", "equiv", "sample", "gof", "merit", "tomo",
        "validate-malformed", "validate-missing", "extremal-malformed", "extremal-missing",
        "decompose-malformed", "decompose-missing", "not-an-object", "schema-version",
        "unknown-command", "bad-tolerance", "equiv-tol-nan", "tomo-target-schema-version",
        "equiv-missing", "gof-bins-missing", "equiv-mc-without-seed"])
def test_cli_import_set(cli_inputs, tmp_path, argv, code, light, numpy):
    # each command in a fresh interpreter: no command loads scipy, reading
    # and checking a POVM loads none of the heavy modules, and an input
    # error found from argv and the raw JSON loads no array module
    report = tmp_path / "modules.json"
    proc = _fresh("-c", PROBE, str(report), *argv, cwd=cli_inputs)
    assert proc.returncode == 0, proc.stderr
    got, modules = json.loads(report.read_text())
    assert got == code
    assert _scipy(modules) == []
    assert ("numpy" in modules) == numpy
    if not numpy:
        assert [m for m in ARRAYS if m in modules] == []
    if light:
        assert [m for m in HEAVY if f"povmkit.{m}" in modules] == []
