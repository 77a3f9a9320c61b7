"""Measures, signed perturbations, Hellinger distances, admissibility."""

import math

import numpy as np
import pytest

from poissonpert import (ConditionError, DiscreteMeasure, MeasureMismatchError,
                         PerturbationFamily, SignedPerturbation, admissibility_check,
                         discrete, hellinger_decomposed, hellinger_measures,
                         hellinger_poisson, lebesgue_decompose, signed_power_integral)
from poissonpert.exact import poisson_hellinger_exact
from poissonpert.levy import GammaJumps
from poissonpert.measures import DEFAULT_CAP


class TestDiscreteMeasure:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            discrete({"x": -1.0})

    def test_density_convention_zero_over_zero(self):
        lam = discrete({"x": 1.0, "y": 0.0})
        rho = discrete({"x": 2.0, "y": 0.0})
        assert lam.density_against(rho) == {"x": 0.5, "y": 0.0}

    def test_density_requires_domination(self):
        with pytest.raises(MeasureMismatchError):
            discrete({"x": 1.0}).density_against(discrete({"y": 1.0}))

    def test_text_round_trip(self):
        m = discrete({"a": 0.25, "b": 1.5})
        assert DiscreteMeasure.from_text(m.to_text()) == m

    def test_text_rejects_whitespace_atom(self):
        with pytest.raises(ValueError):
            discrete({"a b": 1.0}).to_text()

    def test_text_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_text("a 1.0\na 2.0\n")


class TestSignedPowerIntegral:
    def test_constant_order_two(self):
        # oracle: direct double sum over atoms of the signed masses
        lam, nu = discrete({"x": 1.0}), discrete({"x": 3.0})
        pert = SignedPerturbation.from_discrete(lam, nu)
        rho = lam.plus(nu)
        oracle = sum(
            (nu.mass(a) - lam.mass(a)) * (nu.mass(b) - lam.mass(b))
            for a in rho.atoms for b in rho.atoms
        )
        assert oracle == pytest.approx(4.0)
        value = signed_power_integral(lambda x1, x2: 1.0, pert, 2)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_zero_perturbation(self):
        lam = discrete({"x": 1.0, "y": 0.5})
        pert = SignedPerturbation.from_discrete(lam, lam)
        assert signed_power_integral(lambda x, y, z: 7.0, pert, 3) == 0.0

    def test_order_one_atomwise(self):
        lam, nu = discrete({"x": 1.0}), discrete({"x": 2.0, "y": 1.0})
        pert = SignedPerturbation.from_discrete(lam, nu)
        oracle = sum(nu.mass(a) - lam.mass(a) for a in ("x", "y"))
        assert signed_power_integral(lambda x: 1.0, pert, 1) == pytest.approx(oracle)
        assert oracle == pytest.approx(2.0)

    def test_order_zero_rejected(self):
        pert = SignedPerturbation.from_discrete(discrete({"x": 1.0}), discrete({"x": 2.0}))
        with pytest.raises(ValueError):
            signed_power_integral(lambda: 1.0, pert, 0)

    def test_product_form_factorizes(self, rng):
        gen = rng.child(0).generator()
        for _ in range(10):
            atoms = ["a", "b", "c"]
            lam = discrete({a: gen.uniform(0.1, 2.0) for a in atoms})
            nu = discrete({a: gen.uniform(0.1, 2.0) for a in atoms})
            pert = SignedPerturbation.from_discrete(lam, nu)
            gs = [{a: gen.uniform(-1.0, 1.0) for a in atoms} for _ in range(3)]
            tensor = signed_power_integral(
                lambda x, y, z: gs[0][x] * gs[1][y] * gs[2][z], pert, 3)
            split = 1.0
            for g in gs:
                split *= signed_power_integral(lambda x, _g=g: _g[x], pert, 1)
            assert tensor == pytest.approx(split, abs=1e-12)


class TestHellinger:
    def test_two_point_masses(self):
        # oracle: 1/2 (sqrt 1 - sqrt 4)^2 on a single shared atom
        assert hellinger_measures(discrete({"x": 1.0}), discrete({"x": 4.0})) == \
            pytest.approx(0.5, abs=1e-12)

    def test_equal_measures_vanish(self):
        lam = discrete({"x": 1.0, "y": 2.0})
        assert hellinger_measures(lam, lam) == 0.0

    def test_disjoint_atom(self):
        # oracle: atom-wise, only the fresh atom contributes 1/2 * 1
        assert hellinger_measures(discrete({"x": 1.0}), discrete({"x": 1.0, "y": 1.0})) == \
            pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_reference_invariance(self, rng):
        gen = rng.child(2).generator()
        for _ in range(10):
            lam = discrete({a: gen.uniform(0.0, 2.0) for a in "abc"})
            nu = discrete({a: gen.uniform(0.0, 2.0) for a in "abc"})
            h = hellinger_measures(lam, nu)
            assert h == pytest.approx(hellinger_measures(nu, lam), abs=1e-12)
            doubled = lam.plus(nu).scaled(2.0)
            assert h == pytest.approx(hellinger_measures(lam, nu, rho=doubled), abs=1e-12)

    def test_zero_iff_equal(self, rng):
        gen = rng.child(3).generator()
        lam = discrete({a: gen.uniform(0.1, 2.0) for a in "ab"})
        assert hellinger_measures(lam, lam) == 0.0
        nu = discrete({"a": lam.mass("a"), "b": lam.mass("b") + 0.01})
        assert hellinger_measures(lam, nu) > 0.0

    def test_decomposition_route_agrees(self, rng):
        gen = rng.child(4).generator()
        for _ in range(10):
            lam = discrete({a: gen.uniform(0.0, 2.0) for a in "abc"})
            nu = discrete({a: gen.uniform(0.0, 2.0) for a in "abc"})
            assert hellinger_measures(lam, nu) == pytest.approx(
                hellinger_decomposed(lam, nu), abs=1e-12)

    def test_law_identity_single_atom(self):
        # oracle: exact affinity of the two count laws on one atom
        lam, nu = discrete({"x": 1.0}), discrete({"x": 4.0})
        from scipy.stats import poisson
        ks = np.arange(0, 60)
        affinity = float(np.sum(np.sqrt(poisson.pmf(ks, 1.0) * poisson.pmf(ks, 4.0))))
        oracle = 1.0 - affinity
        value = hellinger_poisson(lam, nu)
        assert value == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_law_identity_equal(self):
        lam = discrete({"x": 1.0})
        assert hellinger_poisson(lam, lam) == 0.0

    def test_law_identity_capped(self):
        # H(lam, nu) = 2e12 is beyond DEFAULT_CAP: the capped distance maps to 1
        lam, nu = discrete({"x": 0.0}), discrete({"x": 4e12})
        assert hellinger_poisson(lam, nu) == 1.0

    def test_enumeration_oracle_multi_atom(self):
        lam = discrete({"x": 0.5, "y": 1.5})
        nu = discrete({"x": 2.0, "z": 0.3})
        assert hellinger_poisson(lam, nu) == pytest.approx(
            poisson_hellinger_exact(lam, nu), abs=1e-10)


class TestAdmissibility:
    def test_explicit_gaps(self):
        rep = admissibility_check(discrete({"x": 1.0}), discrete({"x": 2.0}),
                                  rho=discrete({"x": 2.0}))
        assert rep.l2_gap_low == pytest.approx(0.5, abs=1e-12)
        assert rep.l2_gap_high == pytest.approx(0.0, abs=1e-12)
        assert rep.l2_ok

    def test_all_equal_measures(self):
        lam = discrete({"x": 1.0})
        rep = admissibility_check(lam, lam, rho=lam)
        assert rep.l2_gap_low == rep.l2_gap_high == rep.hellinger == 0.0
        assert rep.l2_ok and rep.hellinger_ok

    def test_monotone_identity_both_sides(self):
        # for nu = lam + mu the squared gap against lam + mu collapses to the
        # plain first-moment gap against mu; both sides equal 0.5 here
        lam, mu = discrete({"x": 1.0}), discrete({"x": 1.0})
        rep = admissibility_check(lam, lam.plus(mu))
        mu_side, l2_side = rep.monotone_up
        assert mu_side == pytest.approx(0.5, abs=1e-14)
        assert l2_side == pytest.approx(0.5, abs=1e-14)
        assert mu_side == pytest.approx(l2_side, abs=1e-14)

    def test_monotone_identity_random(self, rng):
        gen = rng.child(5).generator()
        for _ in range(10):
            lam = discrete({a: gen.uniform(0.1, 2.0) for a in "ab"})
            mu = discrete({a: gen.uniform(0.0, 1.0) for a in "ab"})
            rep = admissibility_check(lam, lam.plus(mu))
            mu_side, l2_side = rep.monotone_up
            assert mu_side == pytest.approx(l2_side, abs=1e-12)

    def test_monotone_down_square_density(self):
        lam = discrete({"x": 2.0})
        nu = discrete({"x": 1.0})  # mu = lam - nu has density 1/2 against lam
        rep = admissibility_check(lam, nu)
        assert rep.monotone_down == pytest.approx(0.25 * 2.0, abs=1e-12)
        assert rep.monotone_ok

    def test_caps_flag_instead_of_raising(self):
        rep = admissibility_check(discrete({"x": 1.0}), discrete({"x": 4e12}))
        assert not rep.l2_ok

    def test_monotone_up_sides_are_clamped(self):
        # both sides diverge: they used to print raw (3999999999998.0 on the
        # mu side) next to the clamped gaps
        rep = admissibility_check(discrete({"a": 1.0}), discrete({"a": 4e12}))
        assert rep.monotone_up == (1e12, 1e12)
        assert not rep.monotone_ok
        rows = {name: value for name, value, _ in rep.rows()}
        assert rows["monotone_up_mu_side"] == rows["monotone_up_l2_side"] == 1e12

    @pytest.mark.parametrize("tiny, large", [(1e-300, 1e6), (1e-300, 1e-145)])
    def test_overflowing_square_does_not_raise(self, tiny, large):
        # (1 - 1e306) ** 2 raised OverflowError, out of variational_series and
        # the hellinger study (exit 1); a term whose square overflows but whose
        # product with its tiny mass does not keeps its value
        lam, nu = discrete({"a": tiny, "b": 1.0}), discrete({"a": large, "b": 1.0})
        gap = min((large - tiny) ** 2 / tiny, DEFAULT_CAP)
        assert admissibility_check(lam, nu).lebesgue_gap_nu == pytest.approx(gap, rel=1e-12)
        assert admissibility_check(nu, lam).lebesgue_gap_lam == pytest.approx(gap, rel=1e-12)


class TestLebesgueDecompose:
    def test_support_split(self):
        nu1, nu2 = lebesgue_decompose(discrete({"x": 2.0, "y": 3.0}), discrete({"x": 1.0}))
        assert nu1 == discrete({"x": 2.0})
        assert nu2 == discrete({"y": 3.0})

    def test_absolutely_continuous(self):
        nu1, nu2 = lebesgue_decompose(discrete({"x": 2.0}), discrete({"x": 1.0}))
        assert nu2.total() == 0.0

    def test_singular(self):
        nu1, nu2 = lebesgue_decompose(discrete({"y": 2.0}), discrete({"x": 1.0}))
        assert nu1.total() == 0.0


class TestPerturbationFamily:
    def test_non_discrete_reference_rejected_at_construction(self):
        jumps = GammaJumps(2.0, 1.0)
        with pytest.raises(MeasureMismatchError):
            PerturbationFamily.linear(jumps, lambda x: 1.0, lambda x: 0.5)

    def test_negative_density_detected(self):
        fam = PerturbationFamily.linear(discrete({"x": 1.0}), lambda a: 0.5,
                                        lambda a: -1.0, theta0=0.0, interval=(0.0, 1.0))
        with pytest.raises(ValueError):
            fam.measure_at(1.0)

    def test_theta_outside_interval(self):
        fam = PerturbationFamily.linear(discrete({"x": 1.0}), lambda a: 1.0,
                                        lambda a: 0.0)
        with pytest.raises(ValueError):
            fam.measure_at(2.0)

    def test_remainder_must_vanish_at_theta0(self):
        fam = PerturbationFamily(
            reference=discrete({"x": 1.0}), base_density=lambda a: 1.0,
            direction=lambda a: 0.1, theta0=0.0, interval=(-0.5, 0.5),
            remainder=lambda t, a: 1.0, envelope=lambda a: 2.0)
        with pytest.raises(ConditionError):
            fam.validate(["x"])

    def test_envelope_violation_detected(self):
        fam = PerturbationFamily(
            reference=discrete({"x": 1.0}), base_density=lambda a: 1.0,
            direction=lambda a: 0.1, theta0=0.0, interval=(-0.5, 0.5),
            remainder=lambda t, a: t, envelope=lambda a: 1e-3)
        with pytest.raises(ConditionError):
            fam.validate(["x"])
