"""The cross-module invariant battery behind the ``validate`` subcommand.

Each check produces one ``CheckRow`` (name, value, target, tolerance, mode)
whose one verdict is ``CheckRow.passed``; every CLI study reports through
the same rows.  Modes: ``abs`` compares |value - target| against the
tolerance, ``z`` treats the tolerance as a standard error and applies
``z_gate`` with the row's ``budget`` (an explicit bias allowance, 0 by
default) added to 3 sigma, ``bool`` requires truth.  Every random check owns
a child stream of the base seed, so the battery is byte-reproducible for any
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact, levy, likelihood, measures, sampler, series
from .configuration import (PointConfiguration, constant_functional, count_squared,
                            difference_n, difference_n_recursive, threshold_indicator,
                            void_indicator)
from .derivatives import (coupled_scale_fd, linear_derivative, nonlinear_derivative,
                          pivotal_derivative, richardson_fd, scaled_derivative)
from .measures import AtomWindow, PerturbationFamily, discrete
from .rng import RngStream, mc_mean
from .sampler import MCPlan


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    target: float
    tol: float
    mode: str  # abs | z | bool
    budget: float = 0.0  # bias allowance of a z row

    @property
    def passed(self) -> bool:
        if self.mode == "abs":
            return abs(self.value - self.target) <= self.tol
        if self.mode == "z":
            return z_gate(abs(self.value - self.target), self.tol, self.budget)
        return bool(self.value)


def z_gate(gap: float, se: float, budget: float = 0.0) -> bool:
    """The 3-sigma gate gap <= 3 se + budget of every Monte Carlo check.

    An infinite or NaN standard error (one chunk gives se = inf) fails: a
    gate that no estimate can miss checks nothing.
    """
    return math.isfinite(se) and gap <= 3.0 * se + budget


def run_battery(seed: int, workers: int = 1) -> list[CheckRow]:
    rng = RngStream(seed)
    rows: list[CheckRow] = []
    add = rows.append

    lam1 = discrete({"x": 1.0})
    nu2 = discrete({"x": 2.0})
    f_void = void_indicator()
    f_sq = count_squared()

    # --- measures -----------------------------------------------------
    gen = rng.child(1).generator()
    worst = 0.0
    for _ in range(5):
        atoms = ["a", "b", "c"]
        lam = discrete({a: gen.uniform(0.1, 2.0) for a in atoms})
        nu = discrete({a: gen.uniform(0.1, 2.0) for a in atoms})
        pert = measures.SignedPerturbation.from_discrete(lam, nu)
        gs = [
            {a: gen.uniform(-1, 1) for a in atoms},
            {a: gen.uniform(-1, 1) for a in atoms},
            {a: gen.uniform(-1, 1) for a in atoms},
        ]
        tensor = measures.signed_power_integral(
            lambda x1, x2, x3: gs[0][x1] * gs[1][x2] * gs[2][x3], pert, 3)
        split = 1.0
        for g in gs:
            split *= measures.signed_power_integral(lambda x, _g=g: _g[x], pert, 1)
        worst = max(worst, abs(tensor - split))
    add(CheckRow("signed_power_factorizes", worst, 0.0, 1e-12, "abs"))

    lam = discrete({"a": 0.7, "b": 1.3})
    nu = discrete({"a": 1.1, "c": 0.4})
    h1 = measures.hellinger_measures(lam, nu)
    h2 = measures.hellinger_measures(lam, nu, rho=lam.plus(nu).scaled(2.0))
    add(CheckRow("hellinger_reference_invariance", abs(h1 - h2), 0.0, 1e-12, "abs"))
    add(CheckRow("hellinger_decomposition_route",
                 abs(h1 - measures.hellinger_decomposed(lam, nu)), 0.0, 1e-12, "abs"))
    add(CheckRow("hellinger_symmetry",
                 abs(h1 - measures.hellinger_measures(nu, lam)), 0.0, 1e-12, "abs"))
    add(CheckRow("hellinger_law_identity",
                 measures.hellinger_poisson(lam, nu),
                 exact.poisson_hellinger_exact(lam, nu), 1e-8, "abs"))

    mu = discrete({"x": 1.0})
    rep = measures.admissibility_check(lam1, lam1.plus(mu))
    add(CheckRow("monotone_gap_identity",
                 abs(rep.monotone_up[0] - rep.monotone_up[1]), 0.0, 1e-12, "abs"))

    # --- difference operators ------------------------------------------
    gen = rng.child(2).generator()
    worst = 0.0
    worst_rec = 0.0
    for _ in range(5):
        pts = [f"p{int(gen.integers(0, 4))}" for _ in range(4)]
        phi = PointConfiguration({f"p{j}": int(gen.integers(1, 3)) for j in range(2)})
        d = difference_n(f_sq, phi, pts)
        perm = list(pts)
        gen.shuffle(perm)
        worst = max(worst, abs(d - difference_n(f_sq, phi, perm)))
        worst_rec = max(worst_rec, abs(d - difference_n_recursive(f_sq, phi, pts)))
    add(CheckRow("difference_symmetry", worst, 0.0, 1e-12, "abs"))
    add(CheckRow("difference_subset_vs_recursion", worst_rec, 0.0, 1e-12, "abs"))

    window = AtomWindow({"in"})
    f_local = void_indicator(window)
    phi = PointConfiguration({"in": 1})
    add(CheckRow("difference_locality",
                 difference_n(f_local, phi, ["out", "out2"]), 0.0, 0.0, "abs"))
    bounded = all(
        abs(difference_n(f_void, PointConfiguration.empty(), ["x"] * n)) <= 2.0 ** n
        for n in range(1, 5))
    add(CheckRow("difference_bound", float(bounded), 1.0, 0.0, "bool"))

    # --- exact engine ---------------------------------------------------
    add(CheckRow("exact_void", exact.exact_expectation(f_void, lam1),
                 math.exp(-1.0), 1e-12, "abs"))
    add(CheckRow("exact_second_moment", exact.exact_expectation(f_sq, lam1),
                 2.0, 1e-12, "abs"))
    fc = exact.fock_identity_check(f_void, f_void, lam1, 30)
    add(CheckRow("fock_void_gap", fc.gap, 0.0, 1e-10, "abs"))
    gaps = [abs(fc.lhs - p) for p in fc.partials]
    add(CheckRow("fock_gap_monotone", float(all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))),
                 1.0, 0.0, "bool"))

    # --- likelihood ------------------------------------------------------
    add(CheckRow("likelihood_mean_one",
                 likelihood.reweighted_expectation(constant_functional(1.0), nu2, lam1),
                 1.0, 1e-10, "abs"))
    add(CheckRow("likelihood_second_moment",
                 likelihood.second_moment_exact(nu2, lam1),
                 likelihood.second_moment_bound(nu2, lam1), 1e-10, "abs"))
    L = likelihood.LikelihoodRatio.from_discrete(nu2, lam1)
    phi = PointConfiguration({"x": 2})
    add(CheckRow("likelihood_add_point_recursion",
                 likelihood.likelihood_eval(L, phi.add(["x"])),
                 L.h["x"] * likelihood.likelihood_eval(L, phi), 1e-12, "abs"))
    add(CheckRow("reweighted_matches_direct",
                 likelihood.reweighted_expectation(f_void, nu2, lam1),
                 exact.exact_expectation(f_void, nu2), 1e-10, "abs"))
    mc_rw = likelihood.reweighted_expectation(f_void, nu2, lam1, mode="mc",
                                              mc=MCPlan(20_000, rng.child(3), workers=workers))
    add(CheckRow("reweighted_mc_matches_direct", mc_rw.estimate,
                 exact.exact_expectation(f_void, nu2), mc_rw.stderr, "z"))

    # --- series -----------------------------------------------------------
    sr = series.variational_series(f_void, lam1, nu2, n_max=30)
    add(CheckRow("series_void", sr.value, math.exp(-2.0), 1e-8, "abs"))
    sr2 = series.variational_series(f_sq, lam1, discrete({"x": 3.0}), n_max=30)
    add(CheckRow("series_quadratic", sr2.value, 12.0, 1e-12, "abs"))
    add(CheckRow("series_abs_terms_plateau", sr.abs_terms[-1], 0.0, 1e-8, "abs"))

    mu = discrete({"x": 1.0})
    est = sampler.mc_expectation(
        lambda phi: f_void(phi),
        lam1.plus(mu), plan=MCPlan(20_000, rng.child(4), workers=workers))
    sr3 = series.variational_series(f_void, lam1, lam1.plus(mu), n_max=30,
                                    decomposition="monotone")
    add(CheckRow("series_mixed_sample_oracle", est.estimate, sr3.value,
                 est.stderr, "z"))

    family = PerturbationFamily.linear(lam1.plus(nu2), lam1.density_against(lam1.plus(nu2)),
                                       {a: nu2.mass(a) / lam1.plus(nu2).mass(a)
                                        - lam1.mass(a) / lam1.plus(nu2).mass(a)
                                        for a in lam1.plus(nu2).atoms})
    ps = series.parametric_series(f_void, family, 1.0, n_max=30)
    upto = min(len(ps.terms), len(sr.terms))
    worst = max(abs(ps.terms[i] - sr.terms[i]) for i in range(upto))
    add(CheckRow("parametric_matches_variational", worst, 0.0, 1e-12, "abs"))

    g1 = series.gateaux_derivative(f_void, lam1, {"x": 1.0})
    add(CheckRow("gateaux_is_order_one",
                 abs(g1 - (-math.exp(-1.0))), 0.0, 1e-12, "abs"))

    rows_fr = series.frechet_remainder_check(f_void, discrete({"b": 1.0}),
                                             [{"b": t} for t in (0.5, 0.25, 0.125)])
    ok = all(r.remainder <= r.bound + 1e-15 for r in rows_fr)
    ratios = [r.ratio for r in rows_fr]
    ok = ok and all(b < a for a, b in zip(ratios, ratios[1:]))
    add(CheckRow("frechet_remainder_bound", float(ok), 1.0, 0.0, "bool"))

    # --- derivatives -------------------------------------------------------
    fam = PerturbationFamily.linear(discrete({"b": 1.0}), lambda a: 0.0, lambda a: 1.0,
                                    theta0=0.0, interval=(0.0, 2.0))
    f_ge1 = threshold_indicator(1)
    lin = linear_derivative(f_ge1, fam, 0.5)
    fd = richardson_fd(lambda t: series.parametric_series(f_ge1, fam, t, n_max=30).value, 0.5)
    add(CheckRow("linear_deriv_vs_richardson", lin, fd, 1e-6, "abs"))
    add(CheckRow("scaled_deriv_closed_form",
                 scaled_derivative(f_void, discrete({"b": 1.0}), 1.0),
                 -math.exp(-1.0), 1e-10, "abs"))

    base = {"b": 0.8}
    direction = {"b": -0.5}
    fam_a = PerturbationFamily(
        reference=discrete({"b": 1.0}),
        base_density=lambda a: base[a], direction=lambda a: direction[a],
        theta0=0.0, interval=(-0.5, 0.5),
        remainder=lambda t, a: -0.5 * (math.expm1(t) - t) / t if t != 0.0 else 0.0,
        envelope=lambda a: 1.0)
    fam_b = PerturbationFamily(
        reference=discrete({"b": 1.0}),
        base_density=lambda a: base[a], direction=lambda a: direction[a],
        theta0=0.0, interval=(-0.5, 0.5),
        remainder=lambda t, a: -0.5 * t * math.exp(-abs(t)), envelope=lambda a: 1.0)
    add(CheckRow("nonlinear_remainder_invariance",
                 abs(nonlinear_derivative(f_ge1, fam_a) - nonlinear_derivative(f_ge1, fam_b)),
                 0.0, 1e-10, "abs"))

    piv = pivotal_derivative(f_ge1, discrete({"b": 1.0}), 0.5,
                             MCPlan(30_000, rng.child(5), workers=workers))
    add(CheckRow("pivotal_vs_closed_form", piv.estimate, math.exp(-0.5),
                 piv.stderr, "z"))
    integral_form = scaled_derivative(f_ge1, discrete({"b": 1.0}), 0.5)
    add(CheckRow("pivotal_vs_integral_form", piv.estimate, integral_form,
                 piv.stderr, "z"))
    cfd = coupled_scale_fd(f_ge1, discrete({"b": 1.0}), 0.5, 0.05,
                           MCPlan(20_000, rng.child(6), workers=workers))
    add(CheckRow("coupled_fd_vs_exact", cfd.estimate,
                 (series.parametric_series(f_ge1, fam, 0.55, n_max=30).value
                  - series.parametric_series(f_ge1, fam, 0.45, n_max=30).value) / 0.1,
                 cfd.stderr, "z"))

    # --- sampler -------------------------------------------------------------
    void = mc_mean(
        lambda gen, n: (sampler.sample_counts(lam1, size=n, generator=gen)[:, 0] == 0)[None],
        MCPlan(50_000, rng.child(7), workers=workers)).estimate()
    add(CheckRow("sampler_void_probability", void.estimate, math.exp(-1.0), void.stderr, "z"))

    two = discrete({"x": 1.0, "y": 2.0})
    count_y = mc_mean(lambda gen, n: sampler.sample_counts(two, size=n, generator=gen)[:, 1][None],
                      MCPlan(50_000, rng.child(8), workers=workers)).estimate()
    add(CheckRow("sampler_mean_counts", count_y.estimate, 2.0, count_y.stderr, "z"))

    lam2 = discrete({"x": 2.0})
    thinned = mc_mean(
        lambda gen, n: sampler.couple_counts(lam2, lam1, gen, n)[2].sum(axis=1)[None],
        MCPlan(20_000, rng.child(9), workers=workers)).estimate()
    add(CheckRow("coupling_marginal_mean", thinned.estimate, 1.0, thinned.stderr, "z"))
    pair_same = sampler.thin_superpose_couple(lam1, lam1, rng=rng.child(10))
    add(CheckRow("coupling_identity_at_equal_measures",
                 float(pair_same.phi_lambda == pair_same.phi_nu), 1.0, 0.0, "bool"))

    mk = sampler.mecke_check(lambda x, phi: 1.0, lam1, window=None,
                             plan=MCPlan(20_000, rng.child(11), workers=workers))
    add(CheckRow("mecke_constant", mk.lhs, mk.rhs, mk.stderr, "z"))
    mk2 = sampler.mecke_check(lambda x, phi: float(phi.total_points()), lam1,
                              window=None, plan=MCPlan(20_000, rng.child(12), workers=workers))
    add(CheckRow("mecke_count", mk2.lhs, mk2.rhs, mk2.stderr, "z"))

    # --- levy -----------------------------------------------------------------
    cp = levy.CompoundPoissonJumps({1.0: 1.0})
    model = levy.LevyModel(jumps=cp, drift=0.0, drift_form="plain", t0=1.0, eps=0.0)
    terminal = mc_mean(lambda gen, n: levy.simulate_paths(model, n, gen).values(1.0)[None],
                       MCPlan(20_000, rng.child(13), workers=workers)).estimate()
    add(CheckRow("levy_cp_terminal_mean", terminal.estimate, model.moments()["mean"],
                 terminal.stderr, "z"))

    st = levy.StableJumps(0.5, 1.0, 1.0)
    add(CheckRow("levy_drift_adjust_closed_form",
                 levy.drift_adjust(0.0, levy.gamma_shape_direction(1.0, st), 2.0),
                 2.0 * (1.0 - math.exp(-1.0)), 1e-9, "abs"))

    gm, pert = levy.gamma_overlay_model(2.0, 1.0, 0.5, t0=1.0, eps=0.05)
    est = levy.levy_derivative(levy.terminal_value, gm, pert,
                               MCPlan(8_000, rng.child(14), workers=workers))
    add(CheckRow("levy_scale_derivative", est.estimate, -2.0, est.stderr, "z"))

    cp2 = levy.CompoundPoissonJumps({1.0: 0.8, 0.5: 0.4})
    mono = levy.LevyModel(jumps=cp2, drift=0.3, drift_form="plain", t0=1.0, eps=0.0)
    direc = levy.cp_direction(cp2, {1.0: 1.0, 0.5: 0.5})
    pert2 = levy.JumpPerturbation(direction=direc, theta0=0.0, interval=(-0.5, 0.5))
    sup = levy.supremum_derivative(mono, pert2,
                                   MCPlan(10_000, rng.child(15), workers=workers))
    add(CheckRow("levy_sup_kernel_identity", sup.kernel_max_err, 0.0, 1e-12, "abs"))
    add(CheckRow("levy_sup_bound_violations", float(sup.bound_violations), 0.0, 0.0, "abs"))
    add(CheckRow("levy_sup_monotone_closed_form", sup.estimate, 0.9,
                 sup.stderr, "z"))

    # exact Brownian-bridge maxima: E sup over [0, 1] of 0.3 t + 0.5 W_t
    wiener = levy.LevyModel(jumps=levy.CompoundPoissonJumps({}), drift=0.3,
                            drift_form="plain", sigma2=0.25, t0=1.0)
    ws = mc_mean(lambda gen, n: levy.simulate_paths(wiener, n, gen).supremum()[None],
                 MCPlan(40_000, rng.child(16), workers=workers)).estimate()
    add(CheckRow("levy_wiener_sup_closed_form", ws.estimate, _drift_wiener_sup(0.3, 0.5),
                 ws.stderr, "z"))
    add(CheckRow("levy_wiener_sup_stderr", ws.stderr, 0.0, 0.003, "abs"))
    return rows


def _drift_wiener_sup(mu: float, sigma: float) -> float:
    """E sup over [0, 1] of mu t + sigma W_t for mu > 0, in closed form."""
    z = mu / sigma
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return mu * cdf + sigma * pdf + sigma ** 2 / (2.0 * mu) * (2.0 * cdf - 1.0)
