import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmkit as pk
from povmkit import families
from povmkit import serialize as ser
from povmkit.errors import DimensionMismatch, SchemaError, SpaceMismatch
from povmkit.outcomes import CIRCLE, SPHERE
from oracles import bayes_gain_quadrature

# rotations as (alpha, cos beta, gamma): the identity, and a half turn about y
IDENTITY = np.array([0.0, 1.0, 0.0])
FLIP = np.array([0.0, -1.0, 0.0])


def trivial_guess_povm(point=(0.0, 0.0, 1.0)):
    return pk.FinitePOVM(
        dim=2, space=SPHERE, entries=((np.array(point), np.eye(2, dtype=complex)),)
    )


def sphere_coin_flip(axis=(0.0, 0.0, 1.0)):
    a = np.array(axis)
    half = np.eye(2, dtype=complex) / 2
    return pk.FinitePOVM(dim=2, space=SPHERE, entries=((a, half), (-a, half)))


@pytest.fixture
def fidelity_spec():
    return pk.BayesGainSpec(prior="uniform_sphere", gain="fidelity")


@pytest.fixture
def cosine_spec():
    return pk.BayesGainSpec(prior="uniform_circle", gain="cosine")


class TestBayesGain:
    def test_continuous_spin_two_thirds(self, fidelity_spec):
        value = pk.bayes_gain(pk.spin_direction_povm(), fidelity_spec)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_stern_gerlach_member_two_thirds(self, fidelity_spec):
        member = pk.stern_gerlach_scheme().member(IDENTITY)
        value = pk.bayes_gain(member, fidelity_spec)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_trivial_guess_half(self, fidelity_spec):
        value = pk.bayes_gain(trivial_guess_povm(), fidelity_spec)
        assert value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_continuous_phase_closed_form(self, cosine_spec, d):
        # with the uniform-superposition fiducial the value is 1 - 1/(2d)
        value = pk.bayes_gain(pk.phase_povm(d), cosine_spec)
        assert value == pytest.approx(1.0 - 1.0 / (2 * d), abs=1e-9)

    def test_space_guard(self, fidelity_spec):
        with pytest.raises(SpaceMismatch):
            pk.bayes_gain(pk.projective_basis_povm(2), fidelity_spec)

    def test_bounds(self, rng, fidelity_spec):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            axes = rng.normal(size=(n, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            base = pk.random_povm(rng, 2, n)
            povm = pk.FinitePOVM(
                dim=2,
                space=SPHERE,
                entries=tuple(zip(axes, base.elements)),
                allow_duplicates=True,
            )
            v = pk.bayes_gain(povm, fidelity_spec)
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_affinity(self, rng, fidelity_spec):
        axes = rng.normal(size=(4, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        a = pk.random_povm(rng, 2, 4)
        b = pk.random_povm(rng, 2, 4)
        w = 0.37

        def with_axes(p):
            return pk.FinitePOVM(
                dim=2, space=SPHERE, entries=tuple(zip(axes, p.elements)),
                allow_duplicates=True,
            )

        mix = pk.FinitePOVM(
            dim=2,
            space=SPHERE,
            entries=tuple(
                (ax, w * ea + (1 - w) * eb)
                for ax, ea, eb in zip(axes, a.elements, b.elements)
            ),
            allow_duplicates=True,
        )
        lhs = pk.bayes_gain(mix, fidelity_spec)
        rhs = w * pk.bayes_gain(with_axes(a), fidelity_spec) + (1 - w) * pk.bayes_gain(
            with_axes(b), fidelity_spec
        )
        assert abs(lhs - rhs) <= 1e-10


class TestPriorQuadratureOracle:
    """The closed-form moments against a prior quadrature of the oracles,
    on random finite POVMs at random outcome points."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_sphere(self, seed, n):
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        elements = pk.random_povm(rng, 2, n).elements
        povm = pk.FinitePOVM(2, SPHERE, tuple(zip(axes, elements)), allow_duplicates=True)
        spec = pk.BayesGainSpec(prior="uniform_sphere", gain="fidelity")
        oracle = bayes_gain_quadrature("sphere", povm.points, elements)
        assert abs(pk.bayes_gain(povm, spec) - oracle) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_circle(self, seed, d, n):
        rng = np.random.default_rng(seed)
        phis = rng.uniform(0.0, 2 * np.pi, n)
        elements = pk.random_povm(rng, d, n).elements
        povm = pk.FinitePOVM(d, CIRCLE, tuple(zip(phis, elements)), allow_duplicates=True)
        rho0 = pk.random_density_matrix(rng, d, rank=int(rng.integers(2, d + 1)))
        spec = pk.BayesGainSpec(prior="uniform_circle", gain="cosine", fiducial_state=rho0)
        oracle = bayes_gain_quadrature("circle", povm.points, elements, fiducial=rho0)
        assert abs(pk.bayes_gain(povm, spec) - oracle) <= 1e-12


class TestEqualOptimality:
    def test_stern_gerlach_members_equal(self, fidelity_spec):
        report = pk.check_equal_optimality(
            pk.stern_gerlach_scheme(), fidelity_spec, x_samples=8, seed=2
        )
        assert report.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert report.spread <= 1e-9
        assert len(report.per_member) > 8

    def test_phase_members_equal(self, cosine_spec):
        report = pk.check_equal_optimality(
            pk.phase_scheme(2), cosine_spec, x_samples=8, seed=3
        )
        assert report.spread <= 1e-9
        assert report.value == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("family", ["spin", "phase:2", "phase:3"])
    def test_scheme_consistency_with_continuous(self, fidelity_spec, cosine_spec, family):
        spec = fidelity_spec if family == "spin" else cosine_spec
        c, s = pk.named_family(family)
        continuous = pk.bayes_gain(c, spec)
        report = pk.check_equal_optimality(s, spec, x_samples=0)
        assert abs(report.value - continuous) <= 1e-9

    def test_negative_x_samples_rejected(self, fidelity_spec):
        with pytest.raises(ValueError, match="x_samples"):
            pk.check_equal_optimality(pk.stern_gerlach_scheme(), fidelity_spec, x_samples=-3)

    def test_mixed_quality_scheme_detected(self, fidelity_spec):
        good = pk.stern_gerlach_scheme().member(IDENTITY)
        bad = trivial_guess_povm()
        scheme = pk.FiniteMixtureScheme([(0.5, good), (0.5, bad)])
        report = pk.check_equal_optimality(scheme, fidelity_spec, x_samples=0)
        assert report.spread > 1e-3
        assert report.spread == pytest.approx(1.0 / 6.0, abs=1e-9)


class TestBulkMembers:
    """`check_equal_optimality` builds every member with one move and scores
    them in one contraction; each value is the Bayes gain of that member."""

    @staticmethod
    def evaluated(s, x_samples, seed):
        nodes, _ = s.mixing_nodes()
        return list(nodes) + list(s.sample_x(pk.make_rng(seed), x_samples))

    @pytest.mark.parametrize("family", ["spin"] + [f"phase:{d}" for d in range(2, 9)])
    def test_each_value_is_the_member_gain(self, fidelity_spec, cosine_spec, family):
        spec = fidelity_spec if family == "spin" else cosine_spec
        _, s = pk.named_family(family)
        report = pk.check_equal_optimality(s, spec, x_samples=16, seed=4, budget=256)
        xs = self.evaluated(s, 16, 4)
        assert len(report.per_member) == len(xs)
        for x, (_, value) in zip(xs, report.per_member):
            assert value == pk.bayes_gain(s.member(x), spec, budget=256)

    def test_mixture_of_unequal_entry_counts(self, fidelity_spec):
        # zero elements pad the shorter terms, which may move a sum by an ulp
        rng = np.random.default_rng(6)
        terms = []
        for n in (2, 5, 3):
            axes = rng.normal(size=(n, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            base = pk.random_povm(rng, 2, n)
            terms.append(pk.FinitePOVM(2, SPHERE, tuple(zip(axes, base.elements))))
        s = pk.FiniteMixtureScheme([(0.2, terms[0]), (0.5, terms[1]), (0.3, terms[2])])
        report = pk.check_equal_optimality(s, fidelity_spec, x_samples=6, seed=1)
        for x, (label, value) in zip(self.evaluated(s, 6, 1), report.per_member):
            assert label == x
            assert abs(value - pk.bayes_gain(s.member(x), fidelity_spec)) <= 1e-15
        assert report.value == pytest.approx(
            sum(w * pk.bayes_gain(t, fidelity_spec) for w, t in s.terms), abs=1e-15
        )

    @pytest.mark.parametrize("family", ["spin", "phase:3"])
    def test_one_move_and_no_finite_povm(self, monkeypatch, fidelity_spec, cosine_spec, family):
        spec = fidelity_spec if family == "spin" else cosine_spec
        _, s = pk.named_family(family)
        moves, stores = [], []

        def counting(method, calls):
            def counted(self, *args):
                calls.append(np.shape(args[0]))
                return method(self, *args)
            return counted

        for law in (families._Shifts, families._Rotations):
            monkeypatch.setattr(law, "move", counting(law.move, moves))
        monkeypatch.setattr(pk.FinitePOVM, "_store", counting(pk.FinitePOVM._store, stores))
        report = pk.check_equal_optimality(s, spec, x_samples=16, seed=2, budget=256)
        # all mixing nodes and draws in one move
        assert [shape[0] for shape in moves] == [len(report.per_member)]
        assert not stores


class TestBudget:
    @pytest.mark.parametrize("budget", [0, -5, 0.5, np.nan, np.inf])
    @pytest.mark.parametrize("family", ["spin", "phase:3"])
    def test_budget_below_one_or_not_finite_rejected(self, fidelity_spec, cosine_spec,
                                                     family, budget):
        spec = fidelity_spec if family == "spin" else cosine_spec
        c, s = pk.named_family(family)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="budget"):
                pk.bayes_gain(c, spec, budget=budget)
            with pytest.raises(ValueError, match="budget"):
                pk.bayes_gain(s.member(s.sample_x(pk.make_rng(0), 1)[0]), spec, budget=budget)
            with pytest.raises(ValueError, match="budget"):
                pk.check_equal_optimality(s, spec, budget=budget)

    def test_budget_one_is_accepted(self, cosine_spec):
        value = pk.bayes_gain(pk.phase_povm(3), cosine_spec, budget=1)
        assert value == pytest.approx(5.0 / 6.0, abs=1e-9)


class TestMixtureMerit:
    def test_matches_parent_value(self, fidelity_spec):
        parent = sphere_coin_flip()
        res = pk.decompose_extremal(parent)
        value = sum(w * pk.bayes_gain(term, fidelity_spec) for w, term in res.terms)
        assert value == pytest.approx(pk.bayes_gain(parent, fidelity_spec), abs=1e-9)

    def test_single_term(self, fidelity_spec):
        sic = pk.sic_tetrahedron_povm()
        res = pk.decompose_extremal(sic)
        value = sum(w * pk.bayes_gain(term, fidelity_spec) for w, term in res.terms)
        assert value == pytest.approx(pk.bayes_gain(sic, fidelity_spec), abs=1e-12)

    def test_antipodal_members_agree(self, fidelity_spec):
        sg = pk.stern_gerlach_scheme()
        v1 = pk.bayes_gain(sg.member(IDENTITY), fidelity_spec)
        v2 = pk.bayes_gain(sg.member(FLIP), fidelity_spec)
        assert abs(v1 - v2) <= 1e-12


class TestSpecValidation:
    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            pk.BayesGainSpec(prior="uniform_sphere", gain="cosine")
        with pytest.raises(ValueError):
            pk.BayesGainSpec(prior="nope", gain="fidelity")

    def test_custom_fiducial(self, up, cosine_spec):
        spec = pk.BayesGainSpec(
            prior="uniform_circle", gain="cosine", fiducial_state=up
        )
        # a basis state carries no phase information: gain collapses to 1/2
        value = pk.bayes_gain(pk.phase_povm(2), spec)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_sphere_prior_takes_no_fiducial(self, up):
        with pytest.raises(ValueError, match="sphere prior takes no fiducial state"):
            pk.BayesGainSpec(prior="uniform_sphere", gain="fidelity", fiducial_state=up)

    @pytest.mark.parametrize("state", [[], False, 0, "", None])
    def test_spec_state_is_read_whenever_present(self, state):
        # a falsy "state" is malformed, not the default fiducial
        with pytest.raises(SchemaError, match="fiducial state"):
            ser.bayes_spec_from_dict({"prior": "uniform_circle", "gain": "cosine", "state": state})

    def test_spec_sphere_state_rejected(self):
        six = [[[3, 0], [0, 0]], [[0, 0], [3, 0]]]
        with pytest.raises(SchemaError, match="sphere prior takes no fiducial state"):
            ser.bayes_spec_from_dict({"prior": "uniform_sphere", "gain": "fidelity",
                                      "state": six})

    def test_fiducial_dimension_checked(self, up):
        spec = pk.BayesGainSpec(
            prior="uniform_circle", gain="cosine", fiducial_state=up
        )
        with pytest.raises(DimensionMismatch, match="2 != POVM dimension 3"):
            pk.bayes_gain(pk.phase_povm(3), spec)
