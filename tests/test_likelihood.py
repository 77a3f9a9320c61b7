"""Likelihood ratios between Poisson laws and reweighted expectations."""

import math

import pytest
from scipy.stats import poisson

from poissonpert import (ConditionError, LikelihoodRatio, MCPlan,
                         PointConfiguration, constant_functional, count_functional,
                         discrete, exact_expectation, likelihood_eval,
                         reweighted_expectation, second_moment_bound,
                         second_moment_exact, void_indicator)


class TestLikelihoodEval:
    def test_empty_configuration(self):
        L = LikelihoodRatio.from_discrete(discrete({"x": 2.0}), discrete({"x": 1.0}))
        assert likelihood_eval(L, PointConfiguration.empty()) == \
            pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_equal_measures_give_one(self):
        m = discrete({"x": 1.0, "y": 0.5})
        L = LikelihoodRatio.from_discrete(m, m)
        assert L.support == ()
        for phi in (PointConfiguration.empty(), PointConfiguration({"x": 3})):
            assert likelihood_eval(L, phi) == 1.0

    def test_three_points_mass_ratio_oracle(self):
        # oracle: ratio of the exact count masses under the two laws
        L = LikelihoodRatio.from_discrete(discrete({"x": 2.0}), discrete({"x": 1.0}))
        value = likelihood_eval(L, PointConfiguration({"x": 3}))
        oracle = poisson.pmf(3, 2.0) / poisson.pmf(3, 1.0)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(8.0 * math.exp(-1.0), abs=1e-12)

    def test_zero_density_forces_zero(self):
        # nu puts no mass on y, so a configuration hitting y is impossible
        L = LikelihoodRatio.from_discrete(discrete({"x": 1.0}),
                                          discrete({"x": 1.0, "y": 1.0}))
        assert likelihood_eval(L, PointConfiguration({"y": 1})) == 0.0

    def test_add_point_recursion(self, rng):
        # L(phi + delta_x) = h(x) L(phi) pointwise
        gen = rng.child(1).generator()
        nu = discrete({a: gen.uniform(0.2, 2.0) for a in "ab"})
        rho = discrete({a: gen.uniform(0.2, 2.0) for a in "ab"})
        L = LikelihoodRatio.from_discrete(nu, rho)
        for trial in range(10):
            phi = PointConfiguration({"a": 1 + int(gen.integers(3))})
            for x in "ab":
                assert likelihood_eval(L, phi.add([x])) == pytest.approx(
                    L.h[x] * likelihood_eval(L, phi), abs=1e-12)


class TestMoments:
    def test_mean_one_exact(self, rng):
        gen = rng.child(2).generator()
        for _ in range(5):
            nu = discrete({a: gen.uniform(0.1, 2.5) for a in "ab"})
            rho = discrete({a: gen.uniform(0.1, 2.5) for a in "ab"})
            val = reweighted_expectation(constant_functional(1.0), nu, rho)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_second_moment_closed_form(self):
        assert second_moment_bound(discrete({"x": 1.0}), discrete({"x": 1.0})) == 1.0
        assert second_moment_bound(discrete({"x": 2.0}), discrete({"x": 1.0})) == \
            pytest.approx(math.e, abs=1e-12)
        assert second_moment_bound(discrete({"x": 2.0, "y": 2.0}),
                                   discrete({"x": 1.0, "y": 1.0})) == \
            pytest.approx(math.e ** 2, abs=1e-11)

    def test_second_moment_attains_bound_on_finite_spaces(self, rng):
        gen = rng.child(3).generator()
        for _ in range(5):
            nu = discrete({a: gen.uniform(0.1, 2.0) for a in "ab"})
            rho = discrete({a: gen.uniform(0.3, 2.0) for a in "ab"})
            exact_sq = second_moment_exact(nu, rho)
            bound = second_moment_bound(nu, rho)
            assert exact_sq <= bound + 1e-10
            assert exact_sq == pytest.approx(bound, abs=1e-10)

    @pytest.mark.parametrize("rho, nu, gap", [(0.1, 3.0, "84.1"), (0.05, 2.0, "76.05")])
    def test_second_moment_overflow_is_named(self, rho, nu, gap):
        # E_rho L^2 = exp(gap) is finite, but L^2 overflows at the far corner
        # of the lattice, whose cap follows h^2 rho: a bare OverflowError
        with pytest.raises(ValueError, match=rf"E_rho L\^2 overflows .*\(bound exp\({gap}\)\)"):
            second_moment_exact(discrete({"a": nu}), discrete({"a": rho}))


class TestReweighting:
    def test_void_probability_transfer(self):
        # oracle: direct void probability under the target measure
        val = reweighted_expectation(void_indicator(), discrete({"x": 2.0}),
                                     discrete({"x": 1.0}))
        assert val == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_count_transfer(self):
        val = reweighted_expectation(count_functional(), discrete({"x": 2.0}),
                                     discrete({"x": 1.0}))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_matches_direct_expectation(self, rng):
        gen = rng.child(4).generator()
        for _ in range(5):
            nu = discrete({a: gen.uniform(0.1, 2.0) for a in "ab"})
            rho = discrete({a: gen.uniform(0.3, 2.0) for a in "ab"})
            f = void_indicator()
            assert reweighted_expectation(f, nu, rho) == pytest.approx(
                exact_expectation(f, nu), abs=1e-10)

    def test_monte_carlo_mode(self, rng):
        nu, rho = discrete({"x": 2.0}), discrete({"x": 1.0})
        f = void_indicator()
        est = reweighted_expectation(f, nu, rho, mode="mc",
                                     mc=MCPlan(40_000, rng.child(5)))
        assert abs(est.estimate - math.exp(-2.0)) <= 3 * est.stderr

    def test_square_gap_failure_is_hard(self):
        nu = discrete({"x": 4e12})
        rho = discrete({"x": 1.0})
        with pytest.raises(ConditionError):
            reweighted_expectation(void_indicator(), nu, rho)
