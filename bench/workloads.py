"""The benchmark's three workloads: inputs generated from the seed, the timed
calls into `poissonpert`'s public API, and the checks of every output.

A workload is a fixed list of operations.  Each operation makes one timed
call and returns one or more estimates; its check compares them with the
closed forms in :mod:`oracles` or with a property the method must have.  A
round runs every operation once, and a run repeats whole rounds, so the
share of failed operations is the same in every run.

Monte Carlo checks are z-gates on batch-means standard errors.  A gate
needs at least 2 chunks and a finite, positive stderr, so it cannot pass
vacuously.  Its width Z is the two-sided t quantile with CHUNKS - 1 degrees
of freedom at GATE_P; with at most 1000 gates in a run, a correct
estimator fails anywhere in the run with probability below 1e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import stats

import oracles

CHUNKS = 64
GATE_P = 1e-7
Z = float(stats.t.isf(GATE_P / 2.0, CHUNKS - 1))
EXACT_REL = 1e-9          # enumeration tail 1e-14 and the series floor 1e-10
QUAD_REL = 1e-7           # the quadrature acceptance bound of the Levy builders


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate's stderr and its target s*."""

    se: float
    target_se: float


@dataclass
class Outcome:
    ok: bool
    notes: list[str]
    estimates: list[Estimate]
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Operation:
    """One timed call.  ``call`` receives the operation's own random stream
    for the round; ``check`` receives the result and the results of the
    earlier operations of the same round, by name."""

    name: str
    metric: str | None          # per-layer prefix, e.g. "derivatives.pivotal"
    call: Callable
    check: Callable[[object, dict], Outcome]


class Checks:
    """Collects the verdicts of one operation's check."""

    def __init__(self):
        self.ok = True
        self.notes: list[str] = []
        self.estimates: list[Estimate] = []

    def _record(self, ok: bool, note: str) -> None:
        self.ok = self.ok and ok
        self.notes.append(("" if ok else "FAIL ") + note)

    def estimate(self, label: str, value: float, se: float, chunks: int,
                 target_se: float | None) -> bool:
        """Record a Monte Carlo estimate; its stderr must be usable in a gate."""
        if target_se is not None:
            self.estimates.append(Estimate(se, target_se))
        if chunks < 2:
            self._record(False, f"{label}: {chunks} chunk(s); a stderr needs at least 2")
            return False
        if not (math.isfinite(se) and se > 0.0):
            self._record(False, f"{label}: stderr {se!r} is not finite and positive")
            return False
        return True

    def z_gate(self, label: str, value: float, se: float, oracle: float, chunks: int,
               target_se: float | None, budget: float = 0.0, se_floor: float = 0.0) -> None:
        """|value - oracle| <= Z max(se, se_floor) + budget, where budget
        bounds a known bias and se_floor is the exact stderr where the oracle
        knows it: for a skewed sample a small mean comes with a small
        estimated se, and the studentized gap then has a heavy tail."""
        if not self.estimate(label, value, se, chunks, target_se):
            return
        gap = abs(value - oracle)
        width = max(se, se_floor)
        self._record(gap <= Z * width + budget,
                     f"{label}: {value:.6g} vs {oracle:.6g}, |gap|/se {gap / width:.2f}")

    def close(self, label: str, value: float, oracle: float, rel: float = EXACT_REL,
              floor: float = 1e-12) -> None:
        gap = abs(value - oracle)
        self._record(gap <= floor + rel * abs(oracle),
                     f"{label}: {value:.12g} vs {oracle:.12g}, gap {gap:.3g}")

    def holds(self, label: str, ok: bool) -> None:
        self._record(bool(ok), label)

    def outcome(self, **extra) -> Outcome:
        return Outcome(self.ok, self.notes, self.estimates, extra)


def chunks_of(samples: int) -> int:
    return min(CHUNKS, samples)


def batch_means(sizes, means) -> tuple[float, float]:
    """Pooled mean and batch-means stderr of per-chunk means."""
    w = np.asarray(sizes, dtype=float)
    w /= w.sum()
    m = np.asarray(means, dtype=float)
    mean = float(np.dot(w, m))
    c = m.size
    if c < 2:
        return mean, math.inf
    return mean, math.sqrt(float(np.dot(w, (m - mean) ** 2)) / (c - 1))


# ---------------------------------------------------------------------------
# discrete-mc
# ---------------------------------------------------------------------------

# samples per estimate and the target stderrs s*, by per-layer metric
DISCRETE_SAMPLES = {"derivatives.pivotal": 2000, "derivatives.coupled_fd": 1600,
                    "derivatives.linear_mc": 2000, "series.mc": 60,
                    "likelihood.reweighted_mc": 2000, "sampler.mecke_check": 1000}
DISCRETE_TARGET_SE = {"derivatives.pivotal": 0.015, "derivatives.coupled_fd": 0.2,
                      "derivatives.linear_mc": 0.005, "series.mc": 0.05,
                      "likelihood.reweighted_mc": 0.02,
                      "sampler.mecke_check.lhs": 0.06, "sampler.mecke_check.rhs": 0.025}
SERIES_MC_NMAX = 6
THETA, FD_DELTA, LINEAR_THETA, AT_LEAST_K = 1.0, 0.1, 0.5, 2


@dataclass(frozen=True)
class WindowPair:
    """An intensity pair on a few atoms with one counting window.

    ``mu`` = lam(W) and ``delta`` = (nu - lam)(W) are all the oracles need.
    """

    lam: dict
    nu: dict
    window: tuple
    mu: float
    delta: float


def window_pair(gen: np.random.Generator, n_atoms: int) -> WindowPair:
    """lam(W) = 1.0 and lam(outside) = 0.5, nu = lam + (0.5 on W, 0.1 off W),
    each total split over its atoms by a Dirichlet(2) draw.  One atom lies
    outside the window whenever there are at least two."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    out = int(gen.integers(n_atoms)) if n_atoms > 1 else -1
    window = [a for i, a in enumerate(atoms) if i != out]
    outside = [a for a in atoms if a not in window]
    lam, nu = {}, {}
    for group, lam_total, gap_total in ((window, 1.0, 0.5), (outside, 0.5, 0.1)):
        if not group:
            continue
        masses = gen.dirichlet(np.full(len(group), 2.0)) * lam_total
        gaps = gen.dirichlet(np.full(len(group), 2.0)) * gap_total
        for a, m, d in zip(group, masses, gaps):
            lam[a] = float(m)
            nu[a] = float(m + d)
    mu = math.fsum(lam[a] for a in window)
    delta = math.fsum(nu[a] - lam[a] for a in window)
    return WindowPair(lam, nu, tuple(window), mu, delta)


def window_functional(pp, kind: str, window, tracer=None):
    win = pp.AtomWindow(window)
    f = {"void": lambda: pp.void_indicator(win),
         "count_sq": lambda: pp.count_squared(win),
         "at_least": lambda: pp.threshold_indicator(AT_LEAST_K, win)}[kind]()
    if tracer is not None:
        f = tracer.counted_functional(f)
    return f


def build_discrete_mc(pp, seed: int, tracer=None) -> list[Operation]:
    gen = np.random.default_rng([seed % 2**63, 1])
    ops = []
    for n_atoms in (1, 2, 3, 4):
        pair = window_pair(gen, n_atoms)
        ops += _discrete_pair_ops(pp, pair, f"pair{n_atoms}", tracer)
    return ops


def _discrete_pair_ops(pp, pair: WindowPair, tag: str, tracer) -> list[Operation]:
    lam, nu = pp.DiscreteMeasure(pair.lam), pp.DiscreteMeasure(pair.nu)
    mu, delta, k = pair.mu, pair.delta, AT_LEAST_K
    at_least = window_functional(pp, "at_least", pair.window, tracer)
    count_sq = window_functional(pp, "count_sq", pair.window, tracer)
    void = window_functional(pp, "void", pair.window, tracer)
    direction = {a: (pair.nu[a] - pair.lam[a]) / pair.lam[a] for a in pair.lam}
    family = pp.PerturbationFamily.linear(lam, lambda a: 1.0, direction, 0.0, (0.0, 1.0))
    win = pp.AtomWindow(pair.window)

    def mecke_f(x, phi):
        return float(phi.count_in(win)) if win.contains(x) else 0.0

    if tracer is not None:
        mecke_f = tracer.counted("configuration.f_evals", mecke_f)

    def plan(metric, stream):
        return pp.MCPlan(DISCRETE_SAMPLES[metric], stream, chunks=CHUNKS, workers=1)

    def gated(metric, oracle, sample_sd=0.0):
        def check(res, _earlier):
            c = Checks()
            c.z_gate(metric, res.estimate, res.stderr, oracle,
                     chunks_of(DISCRETE_SAMPLES[metric]), DISCRETE_TARGET_SE[metric],
                     se_floor=sample_sd / math.sqrt(DISCRETE_SAMPLES[metric]))
            return c.outcome()
        return check

    def check_series(res, _earlier):
        c = Checks()
        upto = res.truncation_order
        oracle = oracles.series_partial_sum("void", k, mu, delta, upto)
        se = math.sqrt(math.fsum(s * s for s in res.stderrs))
        c.z_gate("series.mc", res.value, se, oracle, chunks_of(DISCRETE_SAMPLES["series.mc"]),
                 DISCRETE_TARGET_SE["series.mc"])
        samples = sum(DISCRETE_SAMPLES["series.mc"] * 2 ** min(n, 4) for n in range(upto + 1))
        return c.outcome(samples=samples, stop_order=upto)

    mecke_lhs_sd = oracles.mecke_lhs_sd(mu)

    def check_mecke(res, _earlier):
        c = Checks()
        n = chunks_of(DISCRETE_SAMPLES["sampler.mecke_check"])
        c.z_gate("mecke lhs", res.lhs, res.lhs_stderr, mu * mu, n,
                 DISCRETE_TARGET_SE["sampler.mecke_check.lhs"],
                 se_floor=mecke_lhs_sd / math.sqrt(DISCRETE_SAMPLES["sampler.mecke_check"]))
        c.z_gate("mecke rhs", res.rhs, res.rhs_stderr, mu * mu, n,
                 DISCRETE_TARGET_SE["sampler.mecke_check.rhs"])
        return c.outcome()

    def op(name, metric, estimator, check):
        return Operation(f"{tag}.{name}", metric,
                         lambda stream: estimator(plan(metric, stream)), check)

    return [
        op("pivotal", "derivatives.pivotal",
           lambda mc: pp.pivotal_derivative(at_least, lam, THETA, mc),
           gated("derivatives.pivotal", mu * oracles.derivative("at_least", k, THETA * mu))),
        op("coupled_fd", "derivatives.coupled_fd",
           lambda mc: pp.coupled_scale_fd(count_sq, lam, THETA, FD_DELTA, mc),
           gated("derivatives.coupled_fd",
                 oracles.scaled_central_difference("count_sq", k, mu, THETA, FD_DELTA),
                 oracles.thinned_fd_count_sq_sd(mu, THETA, FD_DELTA))),
        op("linear_mc", "derivatives.linear_mc",
           lambda mc: pp.linear_derivative(void, family, LINEAR_THETA, mode="mc", mc=mc),
           gated("derivatives.linear_mc",
                 delta * oracles.derivative("void", k, mu + LINEAR_THETA * delta))),
        op("series_void", "series.mc",
           lambda mc: pp.variational_series(void, lam, nu, n_max=SERIES_MC_NMAX,
                                            mode="mc", mc=mc),
           check_series),
        op("reweighted_mc", "likelihood.reweighted_mc",
           lambda mc: pp.reweighted_expectation(at_least, nu, lam, mode="mc", mc=mc),
           gated("likelihood.reweighted_mc", oracles.mean("at_least", k, mu + delta))),
        op("mecke", "sampler.mecke_check",
           lambda mc: pp.mecke_check(mecke_f, lam, None, mc), check_mecke),
    ]


# ---------------------------------------------------------------------------
# levy-paths
# ---------------------------------------------------------------------------

LEVY_WORKERS = 2
LEVY_SAMPLES = {"levy.supremum_derivative": 1000, "levy.coupled_supremum_fd": 1000,
                "levy.levy_derivative": 2000, "levy.levy_series": 100,
                "levy.simulate_path": 2000}
LEVY_TARGET_SE = {"levy.supremum_derivative": 0.01, "levy.coupled_supremum_fd": 0.06,
                  "levy.levy_derivative": 0.04, "levy.levy_series": 0.1,
                  "levy.simulate_path.mean": 0.03, "levy.simulate_path.var": 0.1}
# configs/levy_sup_cp.ini
SUP_ATOMS = {1.0: 1.0, -0.6: 0.5}
SUP_DIRECTION = {1.0: 0.8, -0.6: -0.5}
SUP_DRIFT, SUP_INTERVAL, SUP_FD_DELTA = 0.3, (-0.8, 1.0), 0.1
WIENER_SIGMA2 = 0.25          # the extra model: levy_sup_cp plus a Wiener part
SERIES_THETA = 0.5            # levy_series target: levy_sup_cp moved by 0.5 g
# configs/levy_deriv_gamma_scale.ini
DERIV = {"theta": 2.0, "beta0": 1.0, "alpha": 0.5, "t0": 1.0, "eps": 0.05}
# configs/levy_sim_gamma.ini
SIM = {"theta": 2.0, "beta": 1.0, "eps": 0.0005, "t0": 1.0}
SIM_WIENER_SIGMA2 = 0.5


def gamma_overlay_model(pp, theta, beta0, alpha, t0, eps):
    """The levy-deriv model: power tails alpha with a gamma overlay
    theta x^alpha e^(-beta0 x) on x > 0 in compensated form.  Building it runs
    the compensation quadrature."""
    levy = pp.levy
    st = levy.StableJumps(alpha, 1.0, 1.0)
    gmax = theta * (alpha / beta0) ** alpha * math.exp(-alpha)

    def g_nu(x):
        x = np.asarray(x, dtype=float)
        out = 1.0 + np.where(x > 0, theta * np.power(np.maximum(x, 0), alpha)
                             * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
        return out if out.shape else float(out)

    def gap(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, theta * np.power(np.maximum(x, 0), alpha)
                       * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
        return out if out.shape else float(out)

    model = levy.LevyModel(jumps=st, density=levy.JumpDensity(g_nu, gap),
                           density_bound=1.0 + gmax, drift=0.0, drift_form="compensated",
                           t0=t0, eps=eps)
    return model, st


def build_levy_paths(pp, seed: int, tracer=None, workers: int = LEVY_WORKERS,
                     scale: float = 1.0) -> list[Operation]:
    """The models are fixed (the checked-in levy_* configs plus one model
    with a Wiener part); the seed drives every random stream.  ``scale``
    shrinks the sample budgets, for quick checks."""
    levy = pp.levy
    samples = {k: max(CHUNKS, int(v * scale)) for k, v in LEVY_SAMPLES.items()}

    def plan(metric, stream):
        return pp.MCPlan(samples[metric], stream, chunks=CHUNKS, workers=workers)

    def cp_case(atoms, direction, sigma2=0.0):
        jumps = levy.CompoundPoissonJumps(atoms)
        model = levy.LevyModel(jumps=jumps, drift=SUP_DRIFT, drift_form="plain",
                               sigma2=sigma2, t0=1.0)
        pert = levy.JumpPerturbation(direction=levy.cp_direction(jumps, direction),
                                     theta0=0.0, interval=SUP_INTERVAL)
        return model, pert

    mono_atoms = {abs(x): m for x, m in SUP_ATOMS.items()}
    mono_direction = {abs(x): abs(g) for x, g in SUP_DIRECTION.items()}
    cases = {"mono": cp_case(mono_atoms, mono_direction),
             "two_sided": cp_case(SUP_ATOMS, SUP_DIRECTION),
             "wiener": cp_case(SUP_ATOMS, SUP_DIRECTION, WIENER_SIGMA2)}
    mono_slope = oracles.cp_sensitivity(list(mono_atoms), list(mono_atoms.values()),
                                        [mono_direction[x] for x in mono_atoms], 1.0)
    abs_mass = math.fsum(abs(SUP_DIRECTION[x]) * m for x, m in SUP_ATOMS.items())
    fd_budget = oracles.sup_fd_bias_bound(SUP_FD_DELTA, max(abs(x) for x in SUP_ATOMS),
                                          abs_mass, 1.0)

    ops: list[Operation] = []
    sup_m, fd_m = "levy.supremum_derivative", "levy.coupled_supremum_fd"
    for name, (model, pert) in cases.items():
        def sup_call(s, model=model, pert=pert):
            return levy.supremum_derivative(model, pert, plan(sup_m, s))

        def fd_call(s, model=model, pert=pert):
            return levy.coupled_supremum_fd(model, pert, SUP_FD_DELTA, plan(fd_m, s))

        def check_sup(res, _earlier, name=name):
            c = Checks()
            c.holds(f"kernel max error {res.kernel_max_err:.3g} <= 1e-12",
                    res.kernel_max_err <= 1e-12)
            c.holds(f"bound violations {res.bound_violations} == 0",
                    res.bound_violations == 0)
            if name == "mono":
                c.z_gate("monotone sup derivative", res.estimate, res.stderr, mono_slope,
                         chunks_of(samples[sup_m]), LEVY_TARGET_SE[sup_m])
            else:
                # the value itself is gated against the coupled finite difference
                c.estimate("sup derivative", res.estimate, res.stderr,
                           chunks_of(samples[sup_m]), LEVY_TARGET_SE[sup_m])
            return c.outcome()

        def check_fd(res, earlier, name=name):
            c = Checks()
            n = chunks_of(samples[fd_m])
            if name == "mono":
                # E X_t0 is linear in theta, so the central difference is exact
                c.z_gate("monotone coupled fd", res.estimate, res.stderr, mono_slope, n,
                         LEVY_TARGET_SE[fd_m])
                return c.outcome()
            sup = earlier.get(f"sup_{name}")
            if sup is None:
                c.holds("supremum derivative of the same model is missing", False)
                return c.outcome()
            c.estimate("coupled fd", res.estimate, res.stderr, n, LEVY_TARGET_SE[fd_m])
            se = math.sqrt(sup.stderr ** 2 + res.stderr ** 2)
            c.z_gate("sup derivative vs coupled fd", sup.estimate, se, res.estimate, n, None,
                     budget=fd_budget)
            return c.outcome()

        ops.append(Operation(f"sup_{name}", sup_m, sup_call, check_sup))
        ops.append(Operation(f"fd_{name}", fd_m, fd_call, check_fd))

    d_model, st = gamma_overlay_model(pp, **DERIV)
    beta0 = DERIV["beta0"]
    d_pert = levy.JumpPerturbation(
        direction=levy.gamma_scale_direction(DERIV["theta"], beta0, st),
        theta0=beta0, interval=(beta0 / 2, 3 * beta0 / 2))
    deriv_m = "levy.levy_derivative"
    d_oracle = oracles.gamma_scale_derivative(DERIV["theta"], beta0, DERIV["t0"])

    def check_deriv(res, _earlier):
        c = Checks()
        c.z_gate("gamma scale derivative", res.estimate, res.stderr, d_oracle,
                 chunks_of(samples[deriv_m]), LEVY_TARGET_SE[deriv_m])
        return c.outcome()

    ops.append(Operation("levy_derivative", deriv_m,
                         lambda s: levy.levy_derivative(levy.terminal_value, d_model, d_pert,
                                                        plan(deriv_m, s)),
                         check_deriv))

    for name, sigma2 in (("gamma", 0.0), ("gamma_wiener", SIM_WIENER_SIGMA2)):
        model = levy.LevyModel(jumps=levy.GammaJumps(SIM["theta"], SIM["beta"]), drift=0.0,
                               drift_form="plain", sigma2=sigma2, t0=SIM["t0"],
                               eps=SIM["eps"])
        mean_o, var_o = oracles.gamma_moments_above(SIM["theta"], SIM["beta"], SIM["eps"],
                                                    SIM["t0"], sigma2)
        sq_dev_sd = oracles.gamma_sq_dev_sd(SIM["theta"], SIM["beta"], SIM["eps"], SIM["t0"],
                                            sigma2)
        ops.append(Operation(f"terminal_moments_{name}", None,
                             _terminal_moments_call(pp, model, mean_o, samples, workers),
                             _terminal_moments_check(mean_o, var_o, sq_dev_sd,
                                                     samples["levy.simulate_path"])))

    series_model, series_pert = cases["two_sided"]
    target = levy.perturbed_model(series_model, series_pert, SERIES_THETA)
    target_masses = [m_ * (1.0 + SERIES_THETA * SUP_DIRECTION[x]) for x, m_ in SUP_ATOMS.items()]
    s_oracle = oracles.cp_terminal_mean(SUP_DRIFT, list(SUP_ATOMS), target_masses, 1.0)
    series_m = "levy.levy_series"

    def check_series(res, _earlier):
        c = Checks()
        se = math.sqrt(math.fsum(s * s for s in res.stderrs))
        c.z_gate("levy series terminal mean", res.value, se, s_oracle,
                 chunks_of(samples[series_m]), LEVY_TARGET_SE[series_m])
        spent = sum(samples[series_m] * 2 ** min(n, 3)
                    for n in range(res.truncation_order + 1))
        return c.outcome(samples=spent, stop_order=res.truncation_order)

    ops.append(Operation("levy_series", series_m,
                         lambda s: levy.levy_series(levy.terminal_value, series_model, target,
                                                    plan(series_m, s)),
                         check_series))
    return ops


def _terminal_moments_call(pp, model, mean_oracle, samples, workers):
    levy = pp.levy

    def chunk(_index, n, stream):
        gen = stream.generator()
        xs = np.array([levy.simulate_path(model, generator=gen).value(model.t0)
                       for _ in range(n)])
        return n, float(xs.mean()), float(np.mean((xs - mean_oracle) ** 2))

    def call(stream):
        return pp.rng.run_chunked(chunk, samples["levy.simulate_path"], stream, CHUNKS,
                                  workers)
    return call


def _terminal_moments_check(mean_oracle, var_oracle, sq_dev_sd, samples):
    def check(res, _earlier):
        c = Checks()
        sizes = [r[0] for r in res]
        n = len(res)
        mean, mean_se = batch_means(sizes, [r[1] for r in res])
        var, var_se = batch_means(sizes, [r[2] for r in res])
        c.z_gate("terminal mean", mean, mean_se, mean_oracle, n,
                 LEVY_TARGET_SE["levy.simulate_path.mean"],
                 se_floor=math.sqrt(var_oracle / samples))
        c.z_gate("terminal variance", var, var_se, var_oracle, n,
                 LEVY_TARGET_SE["levy.simulate_path.var"],
                 se_floor=sq_dev_sd / math.sqrt(samples))
        return c.outcome()
    return check


# ---------------------------------------------------------------------------
# exact-oracles
# ---------------------------------------------------------------------------

EXACT_NMAX = 30
FOCK_NMAX = 8


@dataclass(frozen=True)
class ExactSpace:
    lam: dict
    nu: dict
    window: tuple
    kind: str

    @property
    def mu(self) -> float:
        return math.fsum(self.lam[a] for a in self.window)

    @property
    def delta(self) -> float:
        return math.fsum(self.nu[a] - self.lam[a] for a in self.window)


def exact_space(gen: np.random.Generator, n_atoms: int, n_window: int, n_shifted: int,
                kind: str) -> ExactSpace:
    """lam uniform on [0.54, 0.62] per atom, nu = lam + U[0.27, 0.33] on
    ``n_shifted`` window atoms.  On these ranges today's enumeration caps do
    not move (tail 1e-14: 14 and 16 counts, 15 and 17 for growth degree 2),
    so every seed enumerates lattices of one size."""
    atoms = [f"b{i}" for i in range(n_atoms)]
    window = sorted(gen.choice(atoms, size=n_window, replace=False).tolist())
    shifted = set(gen.choice(window, size=n_shifted, replace=False).tolist())
    lam = {a: float(gen.uniform(0.54, 0.62)) for a in atoms}
    nu = {a: lam[a] + (float(gen.uniform(0.27, 0.33)) if a in shifted else 0.0)
          for a in atoms}
    return ExactSpace(lam, nu, tuple(window), kind)


def build_exact_oracles(pp, seed: int, tracer=None) -> list[Operation]:
    gen = np.random.default_rng([seed % 2**63, 3])
    spaces = [exact_space(gen, 2, 2, 2, "at_least"),
              exact_space(gen, 3, 2, 2, "void"),
              exact_space(gen, 4, 3, 1, "count_sq")]
    ops: list[Operation] = []
    for sp in spaces:
        ops += _exact_series_ops(pp, sp, f"space{len(sp.lam)}", tracer)
    ops += _exact_identity_ops(pp, spaces, tracer)
    ops += _quadrature_ops(pp, gen)
    return ops


def _exact_series_ops(pp, sp: ExactSpace, tag: str, tracer) -> list[Operation]:
    lam, nu = pp.DiscreteMeasure(sp.lam), pp.DiscreteMeasure(sp.nu)
    f = window_functional(pp, sp.kind, sp.window, tracer)
    direction = {a: (sp.nu[a] - sp.lam[a]) / sp.lam[a] for a in sp.lam}
    family = pp.PerturbationFamily.linear(lam, lambda a: 1.0, direction, 0.0, (0.0, 1.0))
    oracle = oracles.mean(sp.kind, AT_LEAST_K, sp.mu + sp.delta)

    def check_variational(res, _earlier):
        c = Checks()
        c.close("variational series value", res.value, oracle)
        c.holds("variational series converged", res.converged)
        return c.outcome()

    def check_parametric(res, earlier):
        c = Checks()
        c.close("parametric series value", res.value, oracle)
        var = earlier.get(f"{tag}.variational")
        if var is None:
            c.holds("variational series of the same pair is missing", False)
        else:
            c.holds("parametric series stops where the variational one does",
                    res.truncation_order == var.truncation_order)
            scale = max(var.abs_terms)
            worst = max(abs(a - b) for a, b in zip(res.terms, var.terms))
            c.holds(f"parametric terms equal variational terms (max gap {worst:.3g})",
                    worst <= 1e-12 * scale)
        return c.outcome()

    return [
        Operation(f"{tag}.variational", "series.exact",
                  lambda _s: pp.variational_series(f, lam, nu, n_max=EXACT_NMAX),
                  check_variational),
        Operation(f"{tag}.parametric", "series.exact",
                  lambda _s: pp.parametric_series(f, family, 1.0, n_max=EXACT_NMAX),
                  check_parametric),
    ]


def _exact_identity_ops(pp, spaces, tracer) -> list[Operation]:
    two, three, four = spaces
    k = AT_LEAST_K
    ops = []

    # Fock identity E[fg] = sum_n 1/n! int E D^n f E D^n g dm^n on the 3-atom space
    lam3 = pp.DiscreteMeasure(three.lam)
    f_sq = window_functional(pp, "count_sq", three.window, tracer)
    g_al = window_functional(pp, "at_least", three.window, tracer)
    fock_lhs = oracles.count_sq_times_at_least(k, three.mu)

    def check_fock(res, _earlier):
        c = Checks()
        c.close("Fock lhs E[N^2 1{N>=k}]", res.lhs, fock_lhs)
        c.holds(f"Fock gap {res.gap:.3g} <= 1e-10", res.gap <= 1e-10)
        return c.outcome()

    ops.append(Operation("fock_identity", None,
                         lambda _s: pp.fock_identity_check(f_sq, g_al, lam3, FOCK_NMAX),
                         check_fock))

    # norm-uniform Frechet remainder on the 2-atom space, void functional
    lam2 = pp.DiscreteMeasure(two.lam)
    void2 = window_functional(pp, "void", two.window, tracer)
    atoms2 = sorted(two.lam)
    h_list = [{atoms2[0]: 0.3, atoms2[1]: -0.2}, {atoms2[0]: -0.1, atoms2[1]: 0.5}]

    def remainder_oracle(h):
        mu = two.mu
        mu_h = math.fsum((1.0 + h[a]) * two.lam[a] for a in two.window)
        g = lambda m: oracles.mean("void", k, m)  # noqa: E731
        return g(mu_h) - g(mu) - oracles.derivative("void", k, mu) * (mu_h - mu)

    def check_frechet(rows, _earlier):
        c = Checks()
        for h, row in zip(h_list, rows):
            c.close("Frechet remainder", row.remainder, remainder_oracle(h))
            c.holds(f"|remainder| {abs(row.remainder):.3g} <= bound {row.bound:.3g}",
                    abs(row.remainder) <= row.bound)
        return c.outcome()

    ops.append(Operation("frechet_remainder", None,
                         lambda _s: pp.frechet_remainder_check(void2, lam2, h_list,
                                                               n_max=EXACT_NMAX),
                         check_frechet))

    # exact first-order derivatives: one enumeration per atom
    f3 = window_functional(pp, three.kind, three.window, tracer)
    direction3 = {a: (three.nu[a] - three.lam[a]) / three.lam[a] for a in three.lam}
    family3 = pp.PerturbationFamily.linear(lam3, lambda a: 1.0, direction3, 0.0, (0.0, 1.0))
    lin_oracle = three.delta * oracles.derivative(three.kind, k,
                                                  three.mu + LINEAR_THETA * three.delta)
    lam4, nu4 = pp.DiscreteMeasure(four.lam), pp.DiscreteMeasure(four.nu)
    f4 = window_functional(pp, "at_least", four.window, tracer)
    scaled_oracle = four.mu * oracles.derivative("at_least", k, THETA * four.mu)
    h3 = {a: 0.5 - 0.25 * i for i, a in enumerate(sorted(three.lam))}
    gat_oracle = oracles.derivative(three.kind, k, three.mu) * math.fsum(
        h3[a] * three.lam[a] for a in three.window)

    def exact_check(label, oracle):
        def check(value, _earlier):
            c = Checks()
            c.close(label, value, oracle)
            return c.outcome()
        return check

    ops += [
        Operation("linear_exact", "derivatives.exact",
                  lambda _s: pp.linear_derivative(f3, family3, LINEAR_THETA),
                  exact_check("exact linear derivative", lin_oracle)),
        Operation("scaled_exact", "derivatives.exact",
                  lambda _s: pp.scaled_derivative(f4, lam4, THETA),
                  exact_check("exact scaled derivative", scaled_oracle)),
        Operation("gateaux_exact", "derivatives.exact",
                  lambda _s: pp.gateaux_derivative(f3, lam3, h3),
                  exact_check("exact Gateaux derivative", gat_oracle)),
    ]

    ops += [
        Operation("reweighted_exact", "likelihood.exact",
                  lambda _s: pp.reweighted_expectation(f4, nu4, lam4),
                  exact_check("exact reweighted expectation",
                              oracles.mean("at_least", k, four.mu + four.delta))),
        Operation("hellinger_exact", None,
                  lambda _s: pp.poisson_hellinger_exact(lam4, nu4),
                  exact_check("law-level Hellinger", oracles.law_hellinger(four.lam,
                                                                            four.nu))),
    ]
    return ops


def _quadrature_ops(pp, gen: np.random.Generator) -> list[Operation]:
    levy = pp.levy
    ops = []

    # check_pair on a one-sided power-tail direction over StableJumps(1.2), as
    # in the tier-1 drift-relation test; a two-sided direction with a small
    # negative weight is left out (quadrature fault, see CHANGES.md)
    alpha, alpha_dir = 1.2, 0.5
    q_pos, q_neg = float(gen.uniform(0.5, 1.5)), 0.0
    dt = float(gen.uniform(0.3, 0.7))
    st = levy.StableJumps(alpha, 1.0, 1.0)
    base = levy.LevyModel(jumps=st, drift=0.1, drift_form="compensated", t0=1.0, eps=0.05)
    pert = levy.JumpPerturbation(direction=levy.stable_direction(alpha_dir, q_pos, q_neg, st),
                                 theta0=0.0, interval=(0.0, 1.0))
    target = levy.perturbed_model(base, pert, dt)
    st_o = oracles.stable_direction_gaps(dt, alpha, alpha_dir, [(q_pos, 1.0), (q_neg, 1.0)])

    def check_stable(out, _earlier):
        c = Checks()
        c.close("stable base square gap", out["base_square_gap"], 0.0)
        c.close("stable target square gap", out["target_square_gap"],
                st_o["target_square_gap"], rel=QUAD_REL)
        c.close("stable target x gap", out["target_x_gap"], st_o["target_x_gap"],
                rel=QUAD_REL)
        c.close("stable drift move", target.drift - base.drift, st_o["drift_move"],
                rel=QUAD_REL)
        return c.outcome()

    ops.append(Operation("check_pair_stable", None,
                         lambda _s: levy.check_pair(base, target), check_stable))

    # check_pair along the gamma scale direction of the levy-deriv model
    g_model, g_st = gamma_overlay_model(pp, **DERIV)
    theta, beta0 = DERIV["theta"], DERIV["beta0"]
    g_dt = float(gen.uniform(0.1, 0.4))
    g_pert = levy.JumpPerturbation(
        direction=levy.gamma_scale_direction(theta, beta0, g_st),
        theta0=beta0, interval=(beta0 / 2, 3 * beta0 / 2))
    g_target = levy.perturbed_model(g_model, g_pert, beta0 + g_dt)
    g_o = oracles.gamma_overlay_gaps(theta, beta0, DERIV["alpha"], g_dt)

    def check_gamma(out, _earlier):
        c = Checks()
        for key in ("base_square_gap", "target_square_gap", "base_x_gap", "target_x_gap"):
            c.close(f"gamma {key}", out[key], g_o[key], rel=QUAD_REL)
        c.close("gamma drift move", g_target.drift - g_model.drift, g_o["drift_move"],
                rel=QUAD_REL)
        return c.outcome()

    ops.append(Operation("check_pair_gamma", None,
                         lambda _s: levy.check_pair(g_model, g_target), check_gamma))

    # triplet moments and the truncation budget of a gamma model (levy_sim_gamma)
    eps = float(gen.uniform(2e-4, 1e-3))
    sigma2 = float(gen.uniform(0.2, 0.8))
    gm = levy.LevyModel(jumps=levy.GammaJumps(SIM["theta"], SIM["beta"]), drift=0.0,
                        drift_form="plain", sigma2=sigma2, t0=SIM["t0"], eps=eps)
    mean_o, var_o = oracles.gamma_moments_above(SIM["theta"], SIM["beta"], eps, SIM["t0"],
                                                sigma2)
    below_o = oracles.gamma_jumps_below(SIM["theta"], SIM["beta"], eps, SIM["t0"])

    def check_moments(mom, _earlier):
        c = Checks()
        c.close("gamma terminal mean", mom["mean"], mean_o, rel=QUAD_REL)
        c.close("gamma terminal variance", mom["var"], var_o, rel=QUAD_REL)
        return c.outcome()

    def check_budget(b, _earlier):
        c = Checks()
        c.close("dropped mean", b["mean_below"], below_o[0], rel=QUAD_REL)
        c.close("dropped variance", b["var_below"], below_o[1], rel=QUAD_REL)
        return c.outcome()

    ops.append(Operation("gamma_moments", None, lambda _s: gm.moments(), check_moments))
    ops.append(Operation("gamma_small_jump_budget", None, lambda _s: gm.small_jump_budget(),
                         check_budget))
    return ops


WORKLOADS = {"discrete-mc": build_discrete_mc,
             "levy-paths": build_levy_paths,
             "exact-oracles": build_exact_oracles}
