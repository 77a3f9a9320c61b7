"""Variational and parametric series, Gateaux and norm-uniform derivatives."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from poissonpert import (DIFFERENCE_ORDER_CAP, ConditionError, Functional, MCPlan,
                         PerturbationFamily, constant_functional, count_functional,
                         count_squared, discrete, exact_expectation,
                         frechet_remainder_check, gateaux_derivative, parametric_series,
                         sample_counts, variational_series, void_indicator)
from poissonpert.series import (mc_series, series_plan, small_remainder_factor,
                                truncation_budget)


class TestVariationalSeries:
    def test_void_partial_sums(self):
        # oracle: term n = e^{-1} (-1)^n / n!, limit the direct expectation
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.0})
        res = variational_series(void_indicator(), lam, nu, n_max=30)
        assert res.partial_sums[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert res.partial_sums[1] == pytest.approx(0.0, abs=1e-12)
        assert res.partial_sums[2] == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)
        oracle = exact_expectation(void_indicator(), nu)
        assert abs(res.value - oracle) < 1e-10
        assert res.converged

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_result_is_frozen(self, rng, mode):
        # converged is decided where the series is built, and nothing rewrites it
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.0})
        res = variational_series(void_indicator(), lam, nu, n_max=4, mode=mode,
                                 mc=MCPlan(200, rng.child(60)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.converged = not res.converged

    def test_constant_converges_at_order_zero(self):
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.5})
        res = variational_series(constant_functional(3.0), lam, nu, n_max=10)
        assert res.value == pytest.approx(3.0, abs=1e-12)
        assert res.truncation_order <= 2

    def test_quadratic_exact_by_order_two(self):
        # oracle: E N^2 = 3 + 9 = 12 under the target; per-order values by hand
        lam, nu = discrete({"b": 1.0}), discrete({"b": 3.0})
        res = variational_series(count_squared(), lam, nu, n_max=30)
        assert res.terms[0] == pytest.approx(2.0, abs=1e-12)
        assert res.terms[1] == pytest.approx(6.0, abs=1e-12)
        assert res.terms[2] == pytest.approx(4.0, abs=1e-12)
        assert abs(res.value - 12.0) < 1e-12
        assert abs(res.partial_sums[2] - 12.0) < 1e-12

    def test_mixed_sample_superposition_oracle(self, rng):
        # independent superposition: sample the base and the extra process
        # separately, evaluate on the union; agrees with the series limit
        lam, mu = discrete({"b": 1.0}), discrete({"b": 1.0})
        nu = lam.plus(mu)
        res = variational_series(void_indicator(), lam, nu, n_max=30,
                                 decomposition="monotone")
        phi = sample_counts(lam, 30_000, generator=rng.child(1).generator())
        psi = sample_counts(mu, 30_000, generator=rng.child(2).generator())
        vals = void_indicator().counts(list((phi + psi).T), lam.support())
        mean = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert abs(mean - res.value) <= 3 * se

    def test_decomposition_choices_share_the_value(self):
        lam = discrete({"b": 1.0, "c": 0.5})
        nu = discrete({"b": 2.0, "d": 0.25})
        values = [
            variational_series(void_indicator(), lam, nu, n_max=30,
                               decomposition=d).value
            for d in ("direct", "lebesgue-nu", "lebesgue-lambda")
        ]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-10)

    def test_warn_mode_proceeds_and_strict_raises(self):
        lam, nu = discrete({"b": 1.0}), discrete({"b": 4e12})
        with pytest.warns(RuntimeWarning):
            res = variational_series(void_indicator(), lam, nu, n_max=5)
        assert res.terms  # warned but produced a (non-convergent) report
        with pytest.raises(ConditionError):
            variational_series(void_indicator(), lam, nu, n_max=5, strict=True)

    def test_monte_carlo_mode_matches_exact(self, rng):
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.0})
        res = variational_series(void_indicator(), lam, nu, n_max=8, mode="mc",
                                 mc=MCPlan(4_000, rng.child(2)), eps_abs=1e-3)
        target = exact_expectation(void_indicator(), nu)
        # truncation plus noise: generous but honest bound via the stderrs
        err = 3 * math.sqrt(sum(s ** 2 for s in res.stderrs)) + 1e-3
        assert abs(res.value - target) <= err + 5e-3

    def test_absolute_companion_series_plateaus(self):
        # signed terms cancel exactly here (equal totals), so disable the
        # early stop and watch the absolute companion series die out
        lam = discrete({"b": 1.0, "c": 0.4})
        nu = discrete({"b": 0.3, "c": 1.1})
        res = variational_series(void_indicator(), lam, nu, n_max=30, eps_abs=0.0)
        assert res.abs_terms[-1] < 1e-8
        assert all(t >= 0.0 for t in res.abs_terms)
        assert res.value == pytest.approx(exact_expectation(void_indicator(), nu),
                                          abs=1e-10)

    def test_csv_round_trip(self):
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.0})
        res = variational_series(void_indicator(), lam, nu, n_max=10)
        rows = list(csv.reader(io.StringIO(res.to_csv())))
        assert rows[0] == ["order", "term", "partial_sum", "abs_term"]
        assert len(rows) == len(res.terms) + 1
        assert float(rows[1][1]) == res.terms[0]


class TestMonteCarloSeries:
    # two-sided pair: weights +0.6 and -0.3, absolute mass M = 0.9
    LAM = discrete({"a": 1.0, "b": 0.5})
    NU = discrete({"a": 1.6, "b": 0.2})

    def test_stratum_budgets_follow_the_poisson_rule(self):
        # K P(N = n) = samples M^n / n!: 100, 100, 50, 16.7, 4.2, then 0.83 < 2
        assert series_plan(100, 1.0, 8) == ([100, 100, 50, 17, 5], 2)
        samples, mass = 10, 2.5
        budgets, tail = series_plan(samples, mass, 12)
        expected = [samples * mass ** n / math.factorial(n) for n in range(13)]
        top = max(n for n, e in enumerate(expected) if e >= 2.0)
        assert budgets == [math.ceil(e) for e in expected[: top + 1]]
        assert tail == math.ceil(math.fsum(expected[top + 1:]))
        assert series_plan(100, 1.0, 3) == ([100, 100, 50, 17], 0)  # no tail

    def test_samples_spent_equal_the_plan_and_use_the_tail(self, rng):
        lam, nu = discrete({"b": 1.0}), discrete({"b": 2.0})
        res = variational_series(void_indicator(), lam, nu, n_max=8, mode="mc",
                                 mc=MCPlan(100, rng.child(30)))
        assert res.truncation_order == 8 and len(res.samples) == 9
        assert res.samples[:5] == [100, 100, 50, 17, 5]
        assert res.tail_from == 5 and sum(res.samples[5:]) == 2
        assert sum(res.samples) == 274
        assert res.stderrs[6:] == [0.0] * 3  # the tail reports one stderr
        assert res.value == math.fsum(res.terms)

    def test_tail_stratum_weights_and_stderr(self, rng):
        # a synthetic order-n term with no noise: signed n w_n, absolute w_n,
        # w_n = M^n / n!; only the tail's choice of order is random
        mass, n_max = 1.5, 12
        w = [mass ** n / math.factorial(n) for n in range(n_max + 1)]
        res = mc_series(lambda n, gen, k, check=False: np.tile([[n * w[n]], [w[n]]], k),
                        mass, n_max, MCPlan(50, rng.child(35)))
        tail = res.tail_from
        assert tail == 6 and res.samples[tail:tail + 2] == [1, 1]
        # each tail draw returns w_N / P(N | tail) = the tail's whole mass
        assert math.fsum(res.abs_terms) == pytest.approx(math.fsum(w), rel=1e-12)
        assert res.stderrs[:tail] == [0.0] * tail
        picks = [n * math.fsum(w[tail:]) for n in range(tail, n_max + 1)
                 for _ in range(res.samples[n])]
        expected = float(np.std(picks, ddof=1)) / math.sqrt(len(picks))
        assert expected > 0.0
        assert res.stderrs[tail] == pytest.approx(expected, rel=1e-12)

    def test_two_sided_pair_matches_exact_mode(self, rng):
        exact = variational_series(void_indicator(), self.LAM, self.NU, n_max=30)
        res = variational_series(void_indicator(), self.LAM, self.NU, n_max=30,
                                 mode="mc", mc=MCPlan(2_000, rng.child(31)))
        assert res.truncation_order == min(30, DIFFERENCE_ORDER_CAP)
        assert res.truncation_budget == pytest.approx(
            truncation_budget(1.0, 0.9, res.truncation_order), rel=1e-12)
        assert res.converged  # budget ~1e-15 is below the default eps_abs
        se = math.sqrt(math.fsum(s * s for s in res.stderrs))
        assert 0.0 < se < 0.05
        assert abs(res.value - exact.value) <= 3 * se + res.truncation_budget

    def test_cost_follows_poisson_weights_not_two_to_the_order(self, rng):
        calls = [0]

        def void(phi):
            calls[0] += 1
            return 1.0 if phi.total_points() == 0 else 0.0

        samples, mass = 500, 0.9
        variational_series(Functional(void, bound=1.0), self.LAM, self.NU, n_max=30,
                           mode="mc", mc=MCPlan(samples, rng.child(32)))
        k = samples * math.exp(mass)
        # mean cost is samples e^{2M}, about 3000; order 20 alone would cost 2^20
        assert calls[0] <= 10 * k * math.exp(mass)

    def test_truncation_budget_is_the_bounded_tail(self, rng):
        # bound * sum_{n > 3} 1^n / n! = bound (e - 1 - 1 - 1/2 - 1/6)
        assert truncation_budget(2.0, 0.5, 3) == pytest.approx(
            2.0 * (math.e - 8.0 / 3.0), rel=1e-12)
        assert truncation_budget(None, 0.5, 3) is None
        assert truncation_budget(None, 0.0, 3) == 0.0
        res = variational_series(count_functional(), self.LAM, self.NU, n_max=4,
                                 mode="mc", mc=MCPlan(50, rng.child(33)))
        assert res.truncation_budget is None and not res.converged


class TestParametricSeries:
    def _void_family(self):
        rho = discrete({"b": 1.0})
        return PerturbationFamily.linear(rho, lambda a: 1.0, lambda a: 1.0,
                                         theta0=0.0, interval=(0.0, 1.0))

    def test_at_theta0_only_order_zero(self):
        fam = self._void_family()
        res = parametric_series(void_indicator(), fam, 0.0, n_max=10)
        assert res.value == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert res.truncation_order <= 2

    def test_void_family_reaches_target(self):
        fam = self._void_family()
        res = parametric_series(void_indicator(), fam, 1.0, n_max=30)
        assert res.value == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_linear_functional_exact_at_order_one(self):
        fam = self._void_family()
        res = parametric_series(count_functional(), fam, 0.7, n_max=10)
        assert res.partial_sums[1] == pytest.approx(1.7, abs=1e-12)
        assert res.value == pytest.approx(1.7, abs=1e-12)

    def test_matches_variational_term_by_term(self):
        lam, nu = discrete({"b": 1.0, "c": 0.2}), discrete({"b": 2.0, "c": 0.9})
        rho = lam.plus(nu)
        h_lam = lam.density_against(rho)
        h_nu = nu.density_against(rho)
        fam = PerturbationFamily.linear(
            rho, h_lam, {a: h_nu[a] - h_lam[a] for a in rho.atoms})
        ps = parametric_series(void_indicator(), fam, 1.0, n_max=20)
        vs = variational_series(void_indicator(), lam, nu, n_max=20)
        for a, b in zip(ps.terms, vs.terms):
            assert a == pytest.approx(b, abs=1e-12)

    def test_order_one_coefficient_is_gateaux(self):
        lam = discrete({"b": 1.0})
        fam = PerturbationFamily.linear(lam, lambda a: 1.0, lambda a: 0.75,
                                        theta0=0.0, interval=(0.0, 1.0))
        ps = parametric_series(void_indicator(), fam, 1.0, n_max=10)
        g = gateaux_derivative(void_indicator(), lam, lambda a: 0.75)
        assert ps.terms[1] == pytest.approx(g, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_negative_order_rejected(self, rng, mode):
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -2"):
            parametric_series(void_indicator(), self._void_family(), 1.0, n_max=-2,
                              mode=mode, mc=MCPlan(100, rng.child(4)))

    def test_theta_outside_interval(self):
        fam = self._void_family()
        with pytest.raises(ValueError):
            parametric_series(void_indicator(), fam, 2.0)

    def test_remainder_family_rejected(self):
        fam = PerturbationFamily(
            reference=discrete({"b": 1.0}), base_density=lambda a: 1.0,
            direction=lambda a: 1.0, remainder=lambda t, a: 0.0,
            envelope=lambda a: 1.0)
        with pytest.raises(ValueError):
            parametric_series(void_indicator(), fam, 0.5)


class TestGateaux:
    def test_zero_direction(self):
        assert gateaux_derivative(void_indicator(), discrete({"b": 1.0}),
                                  lambda a: 0.0) == 0.0

    def test_count_functional(self):
        # oracle: E D_x count = 1 on the window, mass 1
        val = gateaux_derivative(count_functional(), discrete({"b": 1.0}),
                                 lambda a: 1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_void_indicator(self):
        # oracle: E D_x void = -e^{-1} via the exact expected difference
        from poissonpert import exact_expected_difference
        lam = discrete({"b": 1.0})
        oracle = exact_expected_difference(void_indicator(), lam, ["b"])
        val = gateaux_derivative(void_indicator(), lam, lambda a: 1.0)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(-math.exp(-1.0), abs=1e-12)

    def test_monte_carlo_route(self, rng):
        lam = discrete({"b": 1.0})
        est = gateaux_derivative(void_indicator(), lam, lambda a: 1.0, mode="mc",
                                 mc=MCPlan(40_000, rng.child(3)))
        # the estimate carries its stderr, so it gates at 3 sigma
        assert math.isfinite(est.stderr) and est.stderr > 0.0
        assert abs(est.estimate - (-math.exp(-1.0))) <= 3.0 * est.stderr


class TestFrechetRemainder:
    def test_zero_direction_row(self):
        rows = frechet_remainder_check(void_indicator(), discrete({"b": 1.0}),
                                       [lambda a: 0.0])
        assert rows[0].norm == 0.0
        assert rows[0].remainder == pytest.approx(0.0, abs=1e-14)
        assert rows[0].bound == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_remainder_is_exactly_t_squared(self):
        # oracle: E under (1+t) lam is (1+t) + (1+t)^2; subtracting the value
        # and the linear part leaves t^2
        lam = discrete({"b": 1.0})
        for t in (0.5, 0.25, 0.125):
            rows = frechet_remainder_check(count_squared(), lam, [{"b": t}])
            assert rows[0].remainder == pytest.approx(t * t, abs=1e-10)
            assert abs(rows[0].remainder) <= rows[0].bound + 1e-12

    def test_void_remainder_closed_form_and_decay(self):
        # oracle: remainder e^{-1}(e^{-t} - 1 + t); ratio to t decreases
        lam = discrete({"b": 1.0})
        rows = frechet_remainder_check(void_indicator(), lam,
                                       [{"b": t} for t in (0.5, 0.25, 0.125)])
        for row, t in zip(rows, (0.5, 0.25, 0.125)):
            oracle = math.exp(-1.0) * (math.exp(-t) - 1.0 + t)
            assert row.remainder == pytest.approx(oracle, abs=1e-11)
            assert abs(row.remainder) <= row.bound + 1e-15
        ratios = [r.ratio for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_direction_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            frechet_remainder_check(void_indicator(), discrete({"b": 1.0}),
                                    [{"b": -1.5}])

    def test_small_factor_expansion(self):
        # sqrt(e^{t^2} - 1 - t^2) ~ t^2/sqrt(2) for small t
        for t in (1e-2, 1e-3):
            assert small_remainder_factor(t) == pytest.approx(
                t * t / math.sqrt(2.0), rel=1e-3)
