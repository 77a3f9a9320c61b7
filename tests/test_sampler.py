"""Sampling, the thinning/superposition coupling, and the Mecke harness."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

import poissonpert as pp
from poissonpert import (BoxWindow, MCPlan, PointConfiguration, discrete,
                         lebesgue_measure, mecke_check, sample_counts,
                         sample_poisson, thin_superpose_couple)
from poissonpert import levy

THREE_SIGMA_P = 0.0027  # two-sided normal tail at 3 sigma


class TestSamplePoisson:
    def test_zero_mass_gives_empty(self, rng):
        assert sample_poisson(discrete({"x": 0.0}), rng=rng.child(0)) == \
            PointConfiguration.empty()

    def test_bit_identical_reproduction(self, rng):
        m = discrete({"x": 1.0, "y": 2.0})
        a = [sample_poisson(m, rng=rng.child(1).child(i)) for i in range(50)]
        b = [sample_poisson(m, rng=rng.child(1).child(i)) for i in range(50)]
        assert a == b

    def test_void_probability(self, rng):
        # oracle: closed-form void probability exp(-1)
        counts = sample_counts(discrete({"x": 1.0}), None, rng.child(2), 200_000)
        p0 = float(np.mean(counts[:, 0] == 0))
        se = math.sqrt(p0 * (1 - p0) / counts.shape[0])
        assert abs(p0 - math.exp(-1.0)) <= 3 * se

    def test_mean_counts(self, rng):
        m = discrete({"x": 1.0, "y": 2.0})
        counts = sample_counts(m, None, rng.child(3), 100_000)
        for j, target in enumerate((1.0, 2.0)):
            mean = float(np.mean(counts[:, j]))
            se = float(np.std(counts[:, j]) / math.sqrt(counts.shape[0]))
            assert abs(mean - target) <= 3 * se

    def test_single_config_law(self, rng):
        # sample_poisson draws must match the count law as well
        m = discrete({"x": 1.5})
        totals = np.array([sample_poisson(m, rng=rng.child(4).child(i)).total_points()
                           for i in range(20_000)])
        mean = totals.mean()
        se = totals.std() / math.sqrt(totals.size)
        assert abs(mean - 1.5) <= 3 * se

    def test_box_sampling_void_probability(self, rng):
        box = BoxWindow((0.0,), (1.0,))
        dens = lebesgue_measure(box, lambda p: 2.0, 2.0)
        gen = rng.child(5).generator()
        hits = sum(1 for _ in range(50_000)
                   if sample_poisson(dens, generator=gen).total_points() == 0)
        p0 = hits / 50_000
        se = math.sqrt(p0 * (1 - p0) / 50_000)
        assert abs(p0 - math.exp(-2.0)) <= 3 * se


class TestCoupling:
    def test_equal_measures_share_everything(self, rng):
        lam = discrete({"x": 1.0, "y": 0.5})
        pair = thin_superpose_couple(lam, lam, rng=rng.child(6))
        assert pair.phi_lambda == pair.phi_nu == pair.shared

    def test_shared_is_contained_in_both(self, rng):
        lam = discrete({"x": 2.0, "y": 0.3})
        nu = discrete({"x": 1.0, "y": 1.0})
        for i in range(100):
            pair = thin_superpose_couple(lam, nu, rng=rng.child(7).child(i))
            for p, mult in pair.shared.items():
                assert pair.phi_lambda.count(p) >= mult
                assert pair.phi_nu.count(p) >= mult

    def test_pure_thinning_marginal(self, rng):
        # lam = 2 delta_x down to nu = delta_x: counts of phi_nu must be
        # Poisson(1); chi-square on binned counts at the 3 sigma level
        lam, nu = discrete({"x": 2.0}), discrete({"x": 1.0})
        counts = np.array([
            thin_superpose_couple(lam, nu, rng=rng.child(8).child(i)).phi_nu.total_points()
            for i in range(20_000)])
        kmax = 7
        observed = np.array([np.sum(counts == k) for k in range(kmax)]
                            + [np.sum(counts >= kmax)])
        probs = np.append(poisson.pmf(np.arange(kmax), 1.0), poisson.sf(kmax - 1, 1.0))
        stat, pval = chisquare(observed, probs * counts.size)
        assert pval > THREE_SIGMA_P

    def test_pure_superposition_marginal(self, rng):
        # lam = delta_x, nu = delta_x + delta_y: the coupled pair keeps all of
        # phi_lambda and adds an independent unit-mean count at y
        lam = discrete({"x": 1.0})
        nu = discrete({"x": 1.0, "y": 1.0})
        pairs = [thin_superpose_couple(lam, nu, rng=rng.child(9).child(i))
                 for i in range(20_000)]
        assert all(p.shared == p.phi_lambda for p in pairs)
        ys = np.array([p.phi_nu.count("y") for p in pairs], dtype=float)
        se = ys.std() / math.sqrt(ys.size)
        assert abs(ys.mean() - 1.0) <= 3 * se

    def test_nu_marginal_law_two_sided(self, rng):
        # thinning on one atom, superposition on the other, jointly exact
        lam = discrete({"x": 2.0, "y": 0.5})
        nu = discrete({"x": 1.0, "y": 1.5})
        xs, ys = [], []
        for i in range(20_000):
            pair = thin_superpose_couple(lam, nu, rng=rng.child(10).child(i))
            xs.append(pair.phi_nu.count("x"))
            ys.append(pair.phi_nu.count("y"))
        for vals, target in ((np.array(xs, float), 1.0), (np.array(ys, float), 1.5)):
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 3 * se
            se2 = np.sqrt(np.var((vals - vals.mean()) ** 2) / vals.size)
            assert abs(vals.var() - target) <= 3 * se2


class TestMecke:
    def test_constant_integrand(self, rng):
        res = mecke_check(lambda x, phi: 1.0, discrete({"x": 1.0}),
                          plan=MCPlan(30_000, rng.child(11)))
        assert res.lhs == pytest.approx(1.0, abs=3 * res.lhs_stderr)
        assert res.rhs == pytest.approx(1.0, abs=max(3 * res.rhs_stderr, 1e-12))
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_count_integrand(self, rng):
        # oracle: E[N(N-1)] = 1 for a unit-mean count on the reduced side
        res = mecke_check(lambda x, phi: float(phi.total_points()),
                          discrete({"x": 1.0}), plan=MCPlan(40_000, rng.child(12)))
        assert abs(res.lhs - 1.0) <= 3 * res.lhs_stderr
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_void_integrand(self, rng):
        res = mecke_check(lambda x, phi: 1.0 if phi.total_points() == 0 else 0.0,
                          discrete({"x": 1.0}), plan=MCPlan(40_000, rng.child(13)))
        assert abs(res.lhs - math.exp(-1.0)) <= 3 * res.lhs_stderr
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_box_measure_route(self, rng):
        box = BoxWindow((0.0,), (1.0,))
        dens = lebesgue_measure(box, lambda p: 1.0, 1.0)
        res = mecke_check(lambda x, phi: 1.0, dens, plan=MCPlan(20_000, rng.child(14)))
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr


LAM = discrete({"a": 0.7, "b": 1.3})
NU = discrete({"a": 1.1, "c": 0.4})
FAMILY = pp.PerturbationFamily.linear(
    LAM, lambda a: 1.0, {"a": 0.5, "b": -0.3}, 0.0, (0.0, 1.0))
CP = levy.CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5})
CP_MODEL = levy.LevyModel(jumps=CP, drift=0.3, drift_form="plain", t0=1.0, eps=0.0)
CP_PERT = levy.JumpPerturbation(direction=levy.cp_direction(CP, {1.0: 0.8, -0.6: -0.5}),
                                theta0=0.0, interval=(-0.8, 1.0))


def _series(res):
    return res.terms, res.abs_terms, res.stderrs, res.truncation_order


def _supremum(res):
    return (res.estimate, res.stderr, res.q_summary.counts.tolist(), res.kernel_max_err,
            res.bound_violations)


# every estimator that runs through the chunked Monte Carlo helper, on a
# small plan; each returns its estimates and standard errors
ESTIMATORS = {
    "mc_expectation": lambda mc: tuple(pp.mc_expectation(
        pp.void_indicator(), discrete({"x": 1.0, "y": 0.5}), plan=mc)),
    "variational_series": lambda mc: _series(pp.variational_series(
        pp.void_indicator(), LAM, NU, n_max=3, mode="mc", mc=mc)),
    "parametric_series": lambda mc: _series(pp.parametric_series(
        pp.count_squared(), FAMILY, 0.5, n_max=3, mode="mc", mc=mc)),
    "linear_derivative": lambda mc: tuple(pp.linear_derivative(
        pp.void_indicator(), FAMILY, 0.3, mode="mc", mc=mc)),
    "nonlinear_derivative": lambda mc: tuple(pp.nonlinear_derivative(
        pp.void_indicator(), FAMILY, mode="mc", mc=mc)),
    "scaled_derivative": lambda mc: tuple(pp.scaled_derivative(
        pp.count_squared(), LAM, 0.8, mode="mc", mc=mc)),
    "gateaux_derivative": lambda mc: pp.gateaux_derivative(
        pp.void_indicator(), LAM, {"a": 0.5, "b": -1.0}, mode="mc", mc=mc),
    "pivotal_derivative": lambda mc: tuple(pp.pivotal_derivative(
        pp.threshold_indicator(1), LAM, 0.5, mc)),
    "coupled_scale_fd": lambda mc: tuple(pp.coupled_scale_fd(
        pp.count_squared(), LAM, 0.5, 0.05, mc)),
    "mecke_check": lambda mc: tuple(pp.mecke_check(
        lambda x, phi: float(phi.total_points()), LAM, plan=mc)),
    "supremum_derivative": lambda mc: _supremum(levy.supremum_derivative(
        CP_MODEL, CP_PERT, mc)),
    "coupled_supremum_fd": lambda mc: tuple(levy.coupled_supremum_fd(
        CP_MODEL, CP_PERT, 0.1, mc)),
    "levy_derivative": lambda mc: tuple(levy.levy_derivative(
        levy.running_supremum, CP_MODEL, CP_PERT, mc)),
    "levy_series": lambda mc: _series(levy.levy_series(
        levy.terminal_value, CP_MODEL, levy.perturbed_model(CP_MODEL, CP_PERT, 0.5),
        mc, n_max=2)),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_worker_count_does_not_change_results(self, rng, name):
        run = ESTIMATORS[name]
        one = run(MCPlan(240, rng.child(15), chunks=8, workers=1))
        four = run(MCPlan(240, rng.child(15), chunks=8, workers=4))
        assert one == four
