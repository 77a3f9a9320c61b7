"""Sampling, the thinning/superposition coupling, and the Mecke harness."""

import dataclasses
import math
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

import poissonpert as pp
from poissonpert import (AtomWindow, MCPlan, MeckeResult, PointConfiguration, RngStream,
                         discrete, mecke_check, sample_counts, sample_poisson,
                         thin_superpose_couple)
from poissonpert import levy
from poissonpert import rng as rng_module
from poissonpert.sampler import couple_counts

THREE_SIGMA_P = 0.0027  # two-sided normal tail at 3 sigma


class TestSamplePoisson:
    def test_zero_mass_gives_empty(self, rng):
        assert sample_poisson(discrete({"x": 0.0}), generator=rng.child(0).generator()) == \
            PointConfiguration.empty()

    def test_bit_identical_reproduction(self, rng):
        m = discrete({"x": 1.0, "y": 2.0})
        a = [sample_poisson(m, generator=rng.child(1).child(i).generator()) for i in range(50)]
        b = [sample_poisson(m, generator=rng.child(1).child(i).generator()) for i in range(50)]
        assert a == b

    def test_void_probability(self, rng):
        # oracle: closed-form void probability exp(-1)
        counts = sample_counts(discrete({"x": 1.0}), 200_000, generator=rng.child(2).generator())
        p0 = float(np.mean(counts[:, 0] == 0))
        se = math.sqrt(p0 * (1 - p0) / counts.shape[0])
        assert abs(p0 - math.exp(-1.0)) <= 3 * se

    def test_mean_counts(self, rng):
        m = discrete({"x": 1.0, "y": 2.0})
        counts = sample_counts(m, 100_000, generator=rng.child(3).generator())
        for j, target in enumerate((1.0, 2.0)):
            mean = float(np.mean(counts[:, j]))
            se = float(np.std(counts[:, j]) / math.sqrt(counts.shape[0]))
            assert abs(mean - target) <= 3 * se

    def test_single_config_law(self, rng):
        # sample_poisson draws must match the count law as well
        m = discrete({"x": 1.5})
        totals = np.array([sample_poisson(m, generator=rng.child(4).child(i).generator())
                           .total_points() for i in range(20_000)])
        mean = totals.mean()
        se = totals.std() / math.sqrt(totals.size)
        assert abs(mean - 1.5) <= 3 * se

    def test_non_discrete_measure_rejected(self, rng):
        with pytest.raises(TypeError, match="unsupported measure type"):
            sample_poisson(levy.GammaJumps(2.0, 1.0), generator=rng.child(5).generator())


class TestCoupling:
    def test_stream_is_a_required_keyword(self):
        lam = discrete({"x": 1.0})
        with pytest.raises(TypeError):
            thin_superpose_couple(lam, lam)
        with pytest.raises(TypeError):
            thin_superpose_couple(lam, lam, None, RngStream(1))

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
        _, _, phi_nu, _ = couple_counts(lam, nu, rng.child(8).generator(), 20_000)
        counts = phi_nu[:, 0]
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
        atoms, phi_lam, phi_nu, shared = couple_counts(lam, nu, rng.child(9).generator(), 20_000)
        assert np.array_equal(shared, phi_lam)
        ys = phi_nu[:, atoms.index("y")].astype(float)
        se = ys.std() / math.sqrt(ys.size)
        assert abs(ys.mean() - 1.0) <= 3 * se

    def test_nu_marginal_law_two_sided(self, rng):
        # thinning on one atom, superposition on the other, jointly exact
        lam = discrete({"x": 2.0, "y": 0.5})
        nu = discrete({"x": 1.0, "y": 1.5})
        atoms, _, phi_nu, _ = couple_counts(lam, nu, rng.child(10).generator(), 20_000)
        for atom, target in (("x", 1.0), ("y", 1.5)):
            vals = phi_nu[:, atoms.index(atom)].astype(float)
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 3 * se
            se2 = np.sqrt(np.var((vals - vals.mean()) ** 2) / vals.size)
            assert abs(vals.var() - target) <= 3 * se2


def per_replication_mecke(f, m, window, plan):
    """``mecke_check`` on a discrete measure with every replication's f
    evaluated afresh, on the same count rows in the same chunks and strata."""
    mr = m.restrict(window)
    atoms = mr.support()

    def phis(gen, n):
        return [PointConfiguration.from_counts(atoms, row)
                for row in sample_counts(mr, size=n, generator=gen).tolist()]

    lhs, lhs_se = rng_module.mc_mean(lambda gen, n: np.array([[
        sum(mult * f(x, phi.remove_one(x)) for x, mult in phi.items())
        for phi in phis(gen, n)]]), plan.split(0)).estimate()
    rhs_plan = plan.split(1)
    sides = [r.estimate() for r in rng_module.mc_mean(
        [(lambda gen, n, a=a: np.array([[f(a, phi) for phi in phis(gen, n)]]),
          rhs_plan.samples) for a in atoms], rhs_plan)]
    rhs = math.fsum(mr.mass(a) * s.estimate for a, s in zip(atoms, sides))
    rhs_se = math.sqrt(math.fsum((mr.mass(a) * s.stderr) ** 2 for a, s in zip(atoms, sides)))
    return MeckeResult(lhs, rhs, lhs_se, rhs_se)


class TestMecke:
    def test_constant_integrand(self, rng):
        res = mecke_check(lambda x, phi: 1.0, discrete({"x": 1.0}), window=None,
                          plan=MCPlan(30_000, rng.child(11)))
        assert res.lhs == pytest.approx(1.0, abs=3 * res.lhs_stderr)
        assert res.rhs == pytest.approx(1.0, abs=max(3 * res.rhs_stderr, 1e-12))
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_count_integrand(self, rng):
        # oracle: E[N(N-1)] = 1 for a unit-mean count on the reduced side
        res = mecke_check(lambda x, phi: float(phi.total_points()),
                          discrete({"x": 1.0}), window=None,
                          plan=MCPlan(40_000, rng.child(12)))
        assert abs(res.lhs - 1.0) <= 3 * res.lhs_stderr
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_void_integrand(self, rng):
        res = mecke_check(lambda x, phi: 1.0 if phi.total_points() == 0 else 0.0,
                          discrete({"x": 1.0}), window=None,
                          plan=MCPlan(40_000, rng.child(13)))
        assert abs(res.lhs - math.exp(-1.0)) <= 3 * res.lhs_stderr
        assert abs(res.lhs - res.rhs) <= 3 * res.stderr

    def test_memo_reproduces_per_replication_evaluation(self, rng, monkeypatch):
        # every replication's f evaluated afresh, on the same count rows in
        # the same chunks and strata: the memo must not move a bit of any
        # replication's value, nor of the result
        blocks = []
        block = rng_module._block

        def spy(draw, gen, n, *check):
            blocks.append(block(draw, gen, n, *check))
            return blocks[-1]

        monkeypatch.setattr(rng_module, "_block", spy)
        # atoms given out of order, and 10 sorts before 9 by repr
        m = discrete({"c": 0.4, 10: 1.7, "a": 0.9, 9: 1.1})
        window = AtomWindow({"a", 10, "c"})
        weight = {"a": 0.31, 10: 1.7, "c": -0.45}

        def f(x, phi):
            return weight[x] * math.sqrt(1.0 + phi.count(10)) / (1.3 + phi.total_points())

        for plan in (MCPlan(3000, rng.child(17), chunks=16),
                     MCPlan(97, rng.child(18), chunks=5)):
            blocks.clear()
            got = mecke_check(f, m, window, plan)
            got_blocks = blocks[:]
            blocks.clear()
            assert got == per_replication_mecke(f, m, window, plan)
            assert len(got_blocks) == len(blocks)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got_blocks, blocks))

    @pytest.mark.parametrize("masses", [
        {"a": 0.3, "b": 0.8},
        {"a": 30.0, "b": 25.0, "c": 40.0, "d": 35.0},  # rows rarely repeat
    ])
    def test_distinct_rows_reproduce_per_replication_evaluation(self, rng, masses):
        def f(x, phi):
            return (1.0 + phi.count(x)) / (0.7 + phi.total_points()) ** 0.5

        m = discrete(masses)
        plan = MCPlan(600, rng.child(21), chunks=8)
        got = mecke_check(f, m, None, plan)
        want = per_replication_mecke(f, m, None, plan)
        assert [x.hex() for x in (got.lhs, got.rhs, got.lhs_stderr, got.rhs_stderr)] \
            == [x.hex() for x in (want.lhs, want.rhs, want.lhs_stderr, want.rhs_stderr)]

    def test_f_runs_once_per_point_and_configuration(self, rng):
        calls = Counter()

        def f(x, phi):
            calls[x, tuple(phi.items())] += 1
            return float(phi.total_points())

        m = discrete({"a": 0.9, "b": 1.7, "c": 0.4})
        mecke_check(f, m, AtomWindow({"a", "b"}), MCPlan(4000, rng.child(19), chunks=16))
        assert set(calls.values()) == {1}
        assert {x for x, _ in calls} == {"a", "b"}

    def test_memo_shared_by_pool_threads(self, rng):
        # chunks 2.. share one memo across pool threads: a racing first use
        # may evaluate f twice for one pair, but no value may change
        def f(x, phi):
            time.sleep(0)  # hand the GIL over inside an evaluation
            return (1.0 + phi.count(x)) / (0.7 + phi.total_points())

        m = discrete({"a": 0.9, "b": 1.7, "c": 0.4})
        serial = mecke_check(f, m, window=None, plan=MCPlan(2000, rng.child(20), chunks=32))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # every chunk is long enough for the pool
        try:
            pooled = mecke_check(f, m, window=None, plan=MCPlan(2000, rng.child(20), chunks=32, workers=8))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_non_discrete_measure_rejected(self, rng):
        with pytest.raises(TypeError, match="unsupported measure type"):
            mecke_check(lambda x, phi: 1.0, levy.GammaJumps(2.0, 1.0), None,
                        MCPlan(100, rng.child(16)))

    @pytest.mark.parametrize("model, c", [
        (levy.LevyModel(jumps=levy.GammaJumps(2.0, 1.0), t0=1.0, eps=0.05), 0.8),
        (levy.LevyModel(jumps=levy.CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5}), drift=0.3,
                        sigma2=0.25, t0=1.0), 0.2),
    ], ids=["gamma", "cp_wiener"])
    def test_levy_jump_space(self, rng, model, c):
        # a Levy process is a Poisson process of jumps (t, x) on [0, t0] x R
        # with intensity dt nu(dx); h(t, x, X) = x 1{X_{t-} <= c} reads the
        # path strictly before t, which the jump at t leaves alone, so Mecke
        # reads E sum_{jumps (t, x)} h = int_0^t0 int E h(t, x, X) nu(dx) dt
        n = 20_000
        paths = levy.simulate_paths(model, n, rng.child(14).generator())
        # the padding (t = +inf, x = 0) is read at t0 and adds nothing
        t = np.minimum(paths.times, model.t0)
        lhs = (paths.sizes * (paths.left_values(t) <= c)).sum(axis=1)
        # t uniform on [0, t0], a Wiener node of its path, and int x nu(dx)
        # over the simulated jumps, those above eps
        gen = rng.child(22).generator()
        u = gen.uniform(0.0, model.t0, n)
        below = levy.simulate_paths(model, n, gen, marks=u[None]).left_values(u) <= c
        rhs = model.t0 * model.nu_integral(lambda y: y, model.eps, np.inf) * below
        se = math.hypot(lhs.std(), rhs.std()) / math.sqrt(n)
        assert abs(lhs.mean() - rhs.mean()) <= 3 * se


LAM = discrete({"a": 0.7, "b": 1.3})
NU = discrete({"a": 1.1, "c": 0.4})
FAMILY = pp.PerturbationFamily.linear(
    LAM, lambda a: 1.0, {"a": 0.5, "b": -0.3}, 0.0, (0.0, 1.0))
CP = levy.CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5})
CP_MODEL = levy.LevyModel(jumps=CP, drift=0.3, drift_form="plain", t0=1.0, eps=0.0)
CP_PERT = levy.JumpPerturbation(direction=levy.cp_direction(CP, {1.0: 0.8, -0.6: -0.5}),
                                theta0=0.0, interval=(-0.8, 1.0))
CP_WIENER = dataclasses.replace(CP_MODEL, sigma2=0.25)
# compensated drift with an atom below eps: theta moves the slope of the
# coupled pair, which shares its Wiener part
COMP = levy.CompoundPoissonJumps({0.5: 1.0, 1.5: 0.6, -1.2: 0.4})
COMP_MODEL = levy.LevyModel(jumps=COMP, drift=0.2, drift_form="compensated", sigma2=0.25,
                            t0=1.0, eps=0.75)
COMP_PERT = levy.JumpPerturbation(
    direction=levy.cp_direction(COMP, {0.5: 1.0, 1.5: 0.5, -1.2: -0.5}), theta0=0.0,
    interval=(-0.5, 0.5))


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
    "gateaux_derivative": lambda mc: tuple(pp.gateaux_derivative(
        pp.void_indicator(), LAM, {"a": 0.5, "b": -1.0}, mode="mc", mc=mc)),
    "pivotal_derivative": lambda mc: tuple(pp.pivotal_derivative(
        pp.threshold_indicator(1), LAM, 0.5, mc)),
    "coupled_scale_fd": lambda mc: tuple(pp.coupled_scale_fd(
        pp.count_squared(), LAM, 0.5, 0.05, mc)),
    "mecke_check": lambda mc: tuple(pp.mecke_check(
        lambda x, phi: float(phi.total_points()), LAM, window=None, plan=mc)),
    "supremum_derivative": lambda mc: _supremum(levy.supremum_derivative(
        CP_MODEL, CP_PERT, mc)),
    "coupled_supremum_fd": lambda mc: tuple(levy.coupled_supremum_fd(
        CP_MODEL, CP_PERT, 0.1, mc)),
    "levy_derivative": lambda mc: tuple(levy.levy_derivative(
        levy.running_supremum, CP_MODEL, CP_PERT, mc)),
    "supremum_derivative_wiener": lambda mc: _supremum(levy.supremum_derivative(
        CP_WIENER, CP_PERT, mc)),
    "coupled_supremum_fd_wiener": lambda mc: tuple(levy.coupled_supremum_fd(
        CP_WIENER, CP_PERT, 0.1, mc)),
    "levy_derivative_wiener": lambda mc: tuple(levy.levy_derivative(
        levy.running_supremum, CP_WIENER, CP_PERT, mc)),
    "coupled_supremum_fd_compensated": lambda mc: tuple(levy.coupled_supremum_fd(
        COMP_MODEL, COMP_PERT, 0.1, mc)),
    "levy_series": lambda mc: _series(levy.levy_series(
        levy.terminal_value, CP_MODEL, levy.perturbed_model(CP_MODEL, CP_PERT, 0.5),
        mc, n_max=2)),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_worker_count_does_not_change_results(self, rng, monkeypatch, name):
        run = ESTIMATORS[name]
        # 16 rows a block: 240 replications in 8 chunks are 8 blocks (3 or
        # more for every estimator, whose largest stratum holds 240)
        monkeypatch.setattr(rng_module, "BLOCK_ROWS", 16)
        one = run(MCPlan(240, rng.child(15), chunks=8, workers=1))
        # every block counts as long enough for the pool, so blocks 2.. run on
        # pool threads, sharing whatever the estimator shares between blocks
        monkeypatch.setattr(rng_module.sys, "getswitchinterval", lambda: 0.0)
        threads = set()
        generator = rng_module.RngStream.generator

        def spy(stream):
            threads.add(threading.get_ident())
            return generator(stream)

        monkeypatch.setattr(rng_module.RngStream, "generator", spy)
        four = run(MCPlan(240, rng.child(15), chunks=8, workers=4))
        assert one == four
        if (os.cpu_count() or 1) >= 2:
            assert threads - {threading.get_ident()}


class TestSpotChecks:
    # mecke_check takes no spot: its sides evaluate f directly, with no fast
    # form to cross-check
    @pytest.mark.parametrize("name", sorted(set(ESTIMATORS) - {"mecke_check"}))
    def test_every_estimator_draws_a_checked_block(self, rng, monkeypatch, name):
        checked = []
        block = rng_module._block

        def spy(draw, gen, n, *check):
            checked.append(check == (True,))
            return block(draw, gen, n, *check)

        monkeypatch.setattr(rng_module, "_block", spy)
        ESTIMATORS[name](MCPlan(240, rng.child(15), chunks=8))
        assert any(checked)
