"""Batch experiment runner.

Every study is a subcommand driven by a flat key-value config file with
section headers (INI).  Discrete measures live in plain-text files with one
``atom-id mass`` pair per line.  Each run writes a CSV plus a human-readable
summary naming the identity it exercises and a pass/fail line per check.
Seeds are mandatory and re-running a config with the same seed is
byte-identical for any worker count.

Exit codes: 0 all checks pass, 2 config error, 3 admissibility failure in
strict mode, 4 one or more checks failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import battery, exact, levy, likelihood, measures, series
from .configuration import (Functional, constant_functional, count_functional,
                            count_squared, threshold_indicator, void_indicator)
from .derivatives import (DerivativeRow, coupled_scale_fd, derivative_rows_csv,
                          linear_derivative, nonlinear_derivative, pivotal_derivative,
                          richardson_fd, scaled_derivative)
from .likelihood import AdmissibilityError
from .measures import AtomWindow, DiscreteMeasure, PerturbationFamily, discrete
from .rng import RngStream
from .sampler import MCPlan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_CHECK = 4

IDENTITY_NOTES = {
    "series": "variational expansion: E_nu f = sum_n 1/n! int (E_lam D^n f) d(nu-lam)^n",
    "deriv": "intensity derivative: d/dtheta E f = int (E D_x f) h drho; "
             "pivotal form: theta^(-1) E[# pivotal points]",
    "likelihood": "change of measure: E_nu g = E_rho[L g], with E_rho L = 1 and "
                  "E_rho L^2 = exp(int (h-1)^2 drho) on finite spaces",
    "hellinger": "process-law identity: H(laws) = 1 - exp(-H(lam, nu))",
    "levy-sim": "triplet moments: E X_t = t (a + int x nu(dx)), "
                "Var X_t = t (sigma^2 + int x^2 nu(dx))",
    "levy-deriv": "jump sensitivity: d/dtheta E f(X) = "
                  "int int (E Delta_(t,x) f(X)) g(x) dt nu_ref(dx)",
    "levy-sup": "supremum kernel: Delta_(t,x) S = (x - Y_t)^+ - (Y_t)^-",
    "validate": "full cross-module invariant battery",
}


class ConfigError(ValueError):
    pass


FUNCTIONALS = {
    "void": lambda window, k: void_indicator(window),
    "count": lambda window, k: count_functional(window),
    "count_sq": lambda window, k: count_squared(window),
    "at_least": lambda window, k: threshold_indicator(k, window),
    "one": lambda window, k: constant_functional(1.0),
}


def _functional_from(cfg, section) -> Functional:
    name = cfg.get(section, "functional", fallback="void")
    if name not in FUNCTIONALS:
        raise ConfigError(f"unknown functional {name!r}; known: {sorted(FUNCTIONALS)}")
    atoms = cfg.get(section, "functional_window", fallback="").strip()
    window = AtomWindow(a.strip() for a in atoms.split(",") if a.strip()) if atoms else None
    k = cfg.getint(section, "functional_k", fallback=1)
    return FUNCTIONALS[name](window, k)


def _measure_from(cfg, section, key, base: Path) -> DiscreteMeasure:
    if not cfg.has_option(section, key):
        raise ConfigError(f"missing {key} in [{section}]")
    path = base / cfg.get(section, key)
    if not path.exists():
        raise ConfigError(f"measure file {path} does not exist")
    return DiscreteMeasure.from_text(path.read_text())


def _density_table(cfg, section, key, base: Path) -> dict:
    path = base / cfg.get(section, key)
    if not path.exists():
        raise ConfigError(f"density file {path} does not exist")
    table = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        atom, val = line.split()
        table[atom] = float(val)
    return table


def _mc_plan(cfg, args, default_samples=100_000) -> MCPlan:
    samples = cfg.getint("mc", "samples", fallback=default_samples)
    if args.seed is not None:
        seed = args.seed
    elif cfg.has_option("mc", "seed"):
        seed = cfg.getint("mc", "seed")
    else:
        raise ConfigError("a seed is mandatory: set [mc] seed or pass --seed")
    chunks = cfg.getint("mc", "chunks", fallback=32)
    return MCPlan(samples, RngStream(seed), chunks=chunks, workers=args.workers)


def _atom_pairs(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        size, mass = piece.split(":")
        out[float(size)] = float(mass)
    return out


def _write(out_dir: Path, name: str, csv_text: str, summary_lines: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.csv").write_text(csv_text)
    (out_dir / f"{name}_summary.txt").write_text("\n".join(summary_lines) + "\n")


def _summary_header(name: str) -> list[str]:
    return [f"study: {name}", f"identity: {IDENTITY_NOTES[name]}", ""]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_series(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    f = _functional_from(cfg, "series")
    lam = _measure_from(cfg, "series", "lambda_file", base)
    nu = _measure_from(cfg, "series", "nu_file", base)
    n_max = cfg.getint("series", "n_max", fallback=30)
    mode = cfg.get("series", "mode", fallback="exact")
    decomposition = cfg.get("series", "decomposition", fallback="direct")
    mc = _mc_plan(cfg, args, default_samples=20_000) if mode == "mc" else None
    result = series.variational_series(f, lam, nu, n_max=n_max, mode=mode, mc=mc,
                                       decomposition=decomposition, strict=args.strict)
    oracle = exact.exact_expectation(f, nu) if mode == "exact" else None
    lines = _summary_header("series")
    ok = True
    lines.append(f"value {_fmt(result.value)} after {result.truncation_order} orders "
                 f"(converged: {result.converged})")
    if oracle is not None:
        gap = abs(result.value - oracle)
        ok = gap < 1e-8
        lines.append(f"direct-expectation oracle {_fmt(oracle)} gap {_fmt(gap)} "
                     f"[{'pass' if ok else 'FAIL'}]")
    _write(out_dir, "series", result.to_csv(), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _run_deriv(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    estimator = cfg.get("deriv", "estimator", fallback="pivotal")
    f = _functional_from(cfg, "deriv")
    theta = cfg.getfloat("deriv", "theta", fallback=1.0)
    mc = _mc_plan(cfg, args, default_samples=100_000)
    rows: list[DerivativeRow] = []

    if estimator in ("scaled", "pivotal"):
        lam = _measure_from(cfg, "deriv", "lambda_file", base)
        exact_value = scaled_derivative(f, lam, theta)
        if estimator == "pivotal":
            est = pivotal_derivative(f, lam, theta, mc)
            rows.append(DerivativeRow("pivotal", theta, est.estimate, est.stderr,
                                      exact_value))
        else:
            rows.append(DerivativeRow("scaled", theta, exact_value, 0.0, exact_value))
        delta = cfg.getfloat("deriv", "fd_delta", fallback=min(0.1, theta / 2))
        fd = coupled_scale_fd(f, lam, theta, delta, mc.split(1))
        rows.append(DerivativeRow("coupled_fd", theta, fd.estimate, fd.stderr,
                                  exact_value))
    elif estimator in ("linear", "nonlinear"):
        rho = _measure_from(cfg, "deriv", "rho_file", base)
        base_d = _density_table(cfg, "deriv", "base_file", base)
        theta0 = cfg.getfloat("deriv", "theta0", fallback=0.0)
        lo, hi = (float(v) for v in cfg.get("deriv", "interval", fallback="0 1").split())
        if estimator == "linear":
            direction = _density_table(cfg, "deriv", "direction_file", base)
            fam = PerturbationFamily.linear(rho, base_d, direction, theta0, (lo, hi))
            value = linear_derivative(f, fam, theta)
        else:
            # exponential tilt along per-atom rates: density base*exp(dt*rate)
            rates = _density_table(cfg, "deriv", "rate_file", base)
            fam = _tilt_family(rho, base_d, rates, theta0, (lo, hi))
            value = nonlinear_derivative(f, fam)
            theta = theta0
        fd = richardson_fd(
            lambda t: exact.exact_expectation(f, fam.measure_at(t)), theta)
        rows.append(DerivativeRow(estimator, theta, value, 0.0, fd))
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")

    lines = _summary_header("deriv")
    ok = True
    for r in rows:
        if r.stderr == 0.0:
            good = abs(r.estimate - r.oracle) <= 1e-6
        else:
            good = battery.z_gate(abs(r.estimate - r.oracle), r.stderr)
        ok = ok and good
        lines.append(f"{r.estimator}: estimate {_fmt(r.estimate)} oracle {_fmt(r.oracle)} "
                     f"stderr {_fmt(r.stderr)} [{'pass' if good else 'FAIL'}]")
    _write(out_dir, "deriv", derivative_rows_csv(rows), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _tilt_family(rho, base_d, rates, theta0, interval) -> PerturbationFamily:
    def base_fn(a):
        return base_d.get(a, 0.0)

    def direction(a):
        return base_d.get(a, 0.0) * rates.get(a, 0.0)

    def remainder(t, a):
        dt = t - theta0
        r = rates.get(a, 0.0)
        if dt == 0.0:
            return 0.0
        return base_d.get(a, 0.0) * (math.expm1(dt * r) - dt * r) / dt

    bound = max((abs(base_d.get(a, 0.0)) for a in rho.atoms), default=0.0)
    rate_bound = max((abs(rates.get(a, 0.0)) for a in rho.atoms), default=0.0)
    span = max(abs(interval[0] - theta0), abs(interval[1] - theta0))
    env = bound * (math.exp(rate_bound * span) + rate_bound * span + 1.0)
    return PerturbationFamily(reference=rho, base_density=base_fn, direction=direction,
                              theta0=theta0, interval=interval, remainder=remainder,
                              envelope=lambda a: env)


def _run_likelihood(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    nu = _measure_from(cfg, "likelihood", "nu_file", base)
    rho = _measure_from(cfg, "likelihood", "rho_file", base)
    f = _functional_from(cfg, "likelihood")
    mc = _mc_plan(cfg, args, default_samples=100_000)

    mean_one = likelihood.reweighted_expectation(constant_functional(1.0), nu, rho)
    second = likelihood.second_moment_exact(nu, rho)
    bound = likelihood.second_moment_bound(nu, rho)
    rw_exact = likelihood.reweighted_expectation(f, nu, rho)
    direct = exact.exact_expectation(f, nu)
    rw_mc = likelihood.reweighted_expectation(f, nu, rho, mode="mc", mc=mc)

    checks = [
        ("mean_one", mean_one, 1.0, 1e-10, 0.0),
        ("second_moment_equals_bound", second, bound, 1e-10, 0.0),
        ("reweighted_exact_vs_direct", rw_exact, direct, 1e-10, 0.0),
        ("reweighted_mc_vs_direct", rw_mc.estimate, direct, None, rw_mc.stderr),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "value", "target", "tol", "stderr", "pass"])
    lines = _summary_header("likelihood")
    ok = True
    for name, value, target, tol, se in checks:
        good = (abs(value - target) <= tol) if tol is not None else \
            battery.z_gate(abs(value - target), se)
        ok = ok and good
        writer.writerow([name, _fmt(value), _fmt(target),
                         "" if tol is None else _fmt(tol), _fmt(se),
                         "pass" if good else "FAIL"])
        lines.append(f"{name}: value {_fmt(value)} target {_fmt(target)} "
                     f"[{'pass' if good else 'FAIL'}]")
    _write(out_dir, "likelihood", buf.getvalue(), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _run_hellinger(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    lam = _measure_from(cfg, "hellinger", "lambda_file", base)
    nu = _measure_from(cfg, "hellinger", "nu_file", base)
    report = measures.admissibility_check(lam, nu)
    identity = measures.hellinger_poisson(lam, nu)
    enumerated = exact.poisson_hellinger_exact(lam, nu)
    gap = abs(identity - enumerated)
    ok = gap < 1e-8

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "value", "ok"])
    for name, value, good in report.rows():
        writer.writerow([name, _fmt(value), "pass" if good else "flagged"])
    writer.writerow(["law_hellinger_identity", _fmt(identity), "pass" if ok else "FAIL"])
    writer.writerow(["law_hellinger_enumerated", _fmt(enumerated), "pass" if ok else "FAIL"])
    lines = _summary_header("hellinger")
    lines.append(f"measure-level H {_fmt(report.hellinger)}; "
                 f"square gaps {_fmt(report.l2_gap_low)} / {_fmt(report.l2_gap_high)} "
                 f"(verdict: {'ok' if report.l2_ok else 'capped'})")
    lines.append(f"law-level identity {_fmt(identity)} vs enumeration {_fmt(enumerated)} "
                 f"gap {_fmt(gap)} [{'pass' if ok else 'FAIL'}]")
    _write(out_dir, "hellinger", buf.getvalue(), lines)
    if args.strict and not report.l2_ok:
        return EXIT_ADMISSIBILITY
    return EXIT_OK if ok else EXIT_CHECK


def _levy_model_from(cfg, section: str) -> levy.LevyModel:
    builder = cfg.get(section, "builder", fallback="cp")
    if builder == "cp":
        jumps = levy.CompoundPoissonJumps(_atom_pairs(cfg.get(section, "atoms")))
    elif builder == "gamma":
        jumps = levy.GammaJumps(cfg.getfloat(section, "theta", fallback=1.0),
                                cfg.getfloat(section, "beta", fallback=1.0))
    elif builder == "stable":
        jumps = levy.StableJumps(cfg.getfloat(section, "alpha", fallback=0.5),
                                 cfg.getfloat(section, "c_pos", fallback=1.0),
                                 cfg.getfloat(section, "c_neg", fallback=1.0))
    else:
        raise ConfigError(f"unknown builder {builder!r}")
    return levy.LevyModel(
        jumps=jumps,
        drift=cfg.getfloat(section, "drift", fallback=0.0),
        drift_form=cfg.get(section, "drift_form", fallback="plain"),
        sigma2=cfg.getfloat(section, "sigma2", fallback=0.0),
        t0=cfg.getfloat(section, "t0", fallback=1.0),
        eps=cfg.getfloat(section, "eps", fallback=0.0),
        grid_n=cfg.getint(section, "grid", fallback=256),
    )


def _run_levy_sim(cfg, args, out_dir: Path) -> int:
    model = _levy_model_from(cfg, "levy")
    mc = _mc_plan(cfg, args, default_samples=50_000)
    gen = mc.stream.generator()
    vals = np.array([levy.simulate_path(model, generator=gen).value(model.t0)
                     for _ in range(mc.samples)])
    mean = float(np.mean(vals))
    var = float(np.var(vals))
    se_mean = float(np.std(vals) / math.sqrt(vals.size))
    mom = model.moments()
    budget = model.small_jump_budget()
    ok = battery.z_gate(abs(mean - mom["mean"]), se_mean, abs(budget["mean_below"]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "estimate", "stderr", "oracle", "bias_budget"])
    writer.writerow(["terminal_mean", _fmt(mean), _fmt(se_mean), _fmt(mom["mean"]),
                     _fmt(budget["mean_below"])])
    writer.writerow(["terminal_var", _fmt(var), "", _fmt(mom["var"]),
                     _fmt(budget["var_below"])])
    lines = _summary_header("levy-sim")
    lines.append(f"terminal mean {_fmt(mean)} vs {_fmt(mom['mean'])} "
                 f"(se {_fmt(se_mean)}, dropped-mean budget "
                 f"{_fmt(budget['mean_below'])}) [{'pass' if ok else 'FAIL'}]")
    _write(out_dir, "levy-sim", buf.getvalue(), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _run_levy_deriv(cfg, args, out_dir: Path) -> int:
    theta = cfg.getfloat("levy", "theta", fallback=2.0)
    beta0 = cfg.getfloat("levy", "beta0", fallback=1.0)
    alpha = cfg.getfloat("levy", "alpha", fallback=0.5)
    t0 = cfg.getfloat("levy", "t0", fallback=1.0)
    eps = cfg.getfloat("levy", "eps", fallback=0.05)
    mc = _mc_plan(cfg, args, default_samples=100_000)

    st = levy.StableJumps(alpha, 1.0, 1.0)
    gmax = theta * (alpha / beta0) ** alpha * math.exp(-alpha)

    def g_nu(x):
        x = np.asarray(x, dtype=float)
        out = 1.0 + np.where(x > 0, theta * np.power(np.maximum(x, 0), alpha)
                             * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
        return out if out.shape else float(out)

    model = levy.LevyModel(jumps=st, density=g_nu, density_bound=1.0 + gmax,
                           drift=0.0, drift_form="compensated", t0=t0, eps=eps)
    pert = levy.JumpPerturbation(direction=levy.gamma_scale_direction(theta, beta0, st),
                                 theta0=beta0, interval=(beta0 / 2, 3 * beta0 / 2))
    est = levy.levy_derivative(levy.terminal_value, model, pert, mc)
    closed = -theta * t0 / beta0 ** 2
    quad = -theta * t0 * _integral_x_exp(beta0)
    ok = battery.z_gate(abs(est.estimate - closed), est.stderr) and abs(quad - closed) < 1e-6

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "theta", "estimate", "stderr", "oracle", "gap_over_sigma"])
    z = abs(est.estimate - closed) / est.stderr if est.stderr else 0.0
    writer.writerow(["jump_sensitivity", _fmt(beta0), _fmt(est.estimate),
                     _fmt(est.stderr), _fmt(closed), _fmt(z)])
    writer.writerow(["quadrature", _fmt(beta0), _fmt(quad), "0", _fmt(closed),
                     _fmt(abs(quad - closed))])
    lines = _summary_header("levy-deriv")
    lines.append(f"estimate {_fmt(est.estimate)} +- {_fmt(est.stderr)} vs closed form "
                 f"{_fmt(closed)} (z = {_fmt(z)}) [{'pass' if ok else 'FAIL'}]")
    _write(out_dir, "levy-deriv", buf.getvalue(), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _integral_x_exp(beta0: float) -> float:
    from scipy.integrate import quad
    val, _ = quad(lambda x: x * math.exp(-beta0 * x), 0.0, np.inf)
    return val


def _run_levy_sup(cfg, args, out_dir: Path) -> int:
    model = _levy_model_from(cfg, "levy")
    if not isinstance(model.jumps, levy.CompoundPoissonJumps):
        raise ConfigError("the supremum study config uses a compound-Poisson builder")
    direction = levy.cp_direction(model.jumps,
                                  _atom_pairs(cfg.get("levy", "direction")))
    lo, hi = (float(v) for v in cfg.get("levy", "interval", fallback="-0.5 0.5").split())
    pert = levy.JumpPerturbation(direction=direction, theta0=0.0, interval=(lo, hi))
    delta = cfg.getfloat("levy", "fd_delta", fallback=0.1)
    mc = _mc_plan(cfg, args, default_samples=50_000)

    sup = levy.supremum_derivative(model, pert, mc)
    fd = levy.coupled_supremum_fd(model, pert, delta, mc.split(1))
    se = math.sqrt(sup.stderr ** 2 + fd.stderr ** 2)
    ok = (battery.z_gate(abs(sup.estimate - fd.estimate), se)
          and sup.kernel_max_err < 1e-12 and sup.bound_violations == 0)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "estimate", "stderr", "oracle", "note"])
    writer.writerow(["sup_derivative", _fmt(sup.estimate), _fmt(sup.stderr),
                     _fmt(fd.estimate), "oracle = coupled finite difference"])
    writer.writerow(["kernel_max_err", _fmt(sup.kernel_max_err), "", "0", ""])
    writer.writerow(["bound_violations", str(sup.bound_violations), "", "0", ""])
    (out_dir / "levy-sup_q.csv").parent.mkdir(parents=True, exist_ok=True)
    (out_dir / "levy-sup_q.csv").write_text(sup.q_summary.to_csv())
    lines = _summary_header("levy-sup")
    lines.append(f"estimate {_fmt(sup.estimate)} +- {_fmt(sup.stderr)}; coupled FD "
                 f"{_fmt(fd.estimate)} +- {_fmt(fd.stderr)} [{'pass' if ok else 'FAIL'}]")
    lines.append(f"kernel max error {_fmt(sup.kernel_max_err)}; "
                 f"bound violations {sup.bound_violations}")
    _write(out_dir, "levy-sup", buf.getvalue(), lines)
    return EXIT_OK if ok else EXIT_CHECK


def _run_validate(cfg, args, out_dir: Path) -> int:
    seed = args.seed
    if seed is None and cfg is not None and cfg.has_option("mc", "seed"):
        seed = cfg.getint("mc", "seed")
    if seed is None:
        raise ConfigError("validate needs --seed (or [mc] seed in a config)")
    rows = battery.run_battery(seed, workers=args.workers)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "value", "target", "tol", "mode", "pass"])
    lines = _summary_header("validate")
    ok = True
    for r in rows:
        good = r.passed
        ok = ok and good
        writer.writerow([r.name, _fmt(r.value), _fmt(r.target), _fmt(r.tol), r.mode,
                         "pass" if good else "FAIL"])
        lines.append(f"{r.name}: [{'pass' if good else 'FAIL'}]")
    lines.append("")
    lines.append(f"{sum(r.passed for r in rows)}/{len(rows)} checks passed")
    _write(out_dir, "validate", buf.getvalue(), lines)
    return EXIT_OK if ok else EXIT_CHECK


RUNNERS = {
    "series": _run_series,
    "deriv": _run_deriv,
    "likelihood": _run_likelihood,
    "hellinger": _run_hellinger,
    "levy-sim": _run_levy_sim,
    "levy-deriv": _run_levy_deriv,
    "levy-sup": _run_levy_sup,
    "validate": _run_validate,
}

CSV_DOCS = """CSV columns per subcommand:
  series      order, term, partial_sum, abs_term
  deriv       estimator, theta, estimate, stderr, oracle, gap_over_sigma
  likelihood  check, value, target, tol, stderr, pass
  hellinger   quantity, value, ok
  levy-sim    quantity, estimate, stderr, oracle, bias_budget
  levy-deriv  estimator, theta, estimate, stderr, oracle, gap_over_sigma
  levy-sup    quantity, estimate, stderr, oracle, note (+ levy-sup_q.csv histogram)
  validate    check, value, target, tol, mode, pass
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poissonpert",
        description="Perturbation analysis studies for Poisson and Levy functionals.",
        epilog=CSV_DOCS, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(RUNNERS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="admissibility failures become errors")
    args = parser.parse_args(argv)

    cfg = None
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            print(f"config file {path} does not exist", file=sys.stderr)
            return EXIT_CONFIG
        cfg = configparser.ConfigParser()
        try:
            cfg.read(path)
        except configparser.Error as err:
            print(f"config parse error: {err}", file=sys.stderr)
            return EXIT_CONFIG
    elif args.subcommand != "validate":
        print("--config is required for this subcommand", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return RUNNERS[args.subcommand](cfg, args, Path(args.out))
    except (AdmissibilityError, levy.ConditionError) as err:
        print(f"admissibility failure: {err}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (ConfigError, configparser.Error, KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
