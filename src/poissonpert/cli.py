"""Batch experiment runner.

Every study is a subcommand driven by a flat key-value config file with
section headers (INI).  Discrete measures and densities live in plain-text
files of ``atom value`` lines, read by ``measures.atom_values``.  Each study
checks one identity of the paper on its inputs and reports every check as a
``battery.CheckRow``, the row the ``validate`` battery uses, through one
writer:

* ``<study>.csv`` with columns check, value, target, tol, mode, pass (the tol
  of a ``z`` row is the standard error of its Monte Carlo estimate);
* ``<study>_summary.txt`` with the identity, the study's notes, one line per
  check and a ``k/n checks passed`` line.

Data that is not a check goes to its own file: ``series_terms.csv`` (order,
term, partial_sum, abs_term) and ``levy-sup_q.csv`` (bin_left, bin_right,
count of the Y_t histogram).  Seeds are mandatory and re-running a config
with the same seed is byte-identical for any worker count.

Exit codes: 0 all checks pass, 2 config error, 3 a failed hypothesis
(``ConditionError``), 4 one or more checks failed.
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

from . import battery, exact, levy, likelihood, measures, sampler, series
from .battery import CheckRow
from .configuration import (Functional, constant_functional, count_functional,
                            count_squared, threshold_indicator, void_indicator)
from .derivatives import (coupled_scale_fd, linear_derivative, nonlinear_derivative,
                          pivotal_derivative, richardson_fd, scaled_derivative)
from .measures import AtomWindow, ConditionError, DiscreteMeasure, PerturbationFamily
from .rng import RngStream, mc_mean
from .sampler import MCPlan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ADMISSIBILITY = 3
EXIT_CHECK = 4

EXACT_TOL = 1e-6  # deterministic derivative and quadrature checks

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
    return measures.atom_values(path.read_text())


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
    """``size:value`` pairs as {size: value}; a repeated size is a ``ConfigError``."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        size, mass = piece.split(":")
        if float(size) in out:
            raise ConfigError(f"jump size {float(size)!r} is listed twice")
        out[float(size)] = float(mass)
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _row_line(r: CheckRow, good: bool) -> str:
    line = f"{r.name}: value {_fmt(r.value)} target {_fmt(r.target)}"
    if r.mode != "bool":
        spread = "stderr" if r.mode == "z" else "tol"
        line += f" gap {_fmt(abs(r.value - r.target))} {spread} {_fmt(r.tol)}"
    if r.budget:
        line += f" budget {_fmt(r.budget)}"
    return f"{line} [{'pass' if good else 'FAIL'}]"


def _report(out_dir: Path, study: str, rows: list[CheckRow], notes: list[str],
            data: dict[str, str] | None = None) -> int:
    """Write ``<study>.csv``, ``<study>_summary.txt`` and the study's data
    files; EXIT_CHECK when a row fails or there is no row to pass."""
    verdicts = [r.passed for r in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "value", "target", "tol", "mode", "pass"])
    for r, good in zip(rows, verdicts):
        writer.writerow([r.name, _fmt(r.value), _fmt(r.target), _fmt(r.tol), r.mode,
                         "pass" if good else "FAIL"])
    lines = [f"study: {study}", f"identity: {IDENTITY_NOTES[study]}", "", *notes,
             *map(_row_line, rows, verdicts), "", f"{sum(verdicts)}/{len(rows)} checks passed"]
    files = {f"{study}.csv": buf.getvalue(),
             f"{study}_summary.txt": "\n".join(lines) + "\n", **(data or {})}
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    return EXIT_OK if verdicts and all(verdicts) else EXIT_CHECK


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
    # converged: exact mode stopped on two consecutive terms below eps_abs; Monte
    # Carlo mode runs to n_max and converged says its truncation budget,
    # sup|f| sum_{n > n_max} (2M)^n / n!, is known and at most eps_abs
    notes = [f"value {_fmt(result.value)} after {result.truncation_order} orders "
             f"(converged: {result.converged})"]
    if mode == "exact":
        row = CheckRow("series_vs_direct_expectation", result.value,
                       exact.exact_expectation(f, nu), 1e-8, "abs")
    else:
        # sqrt(sum stderrs^2) is the stderr of the value (see ``SeriesResult``)
        se = math.sqrt(math.fsum(s * s for s in result.stderrs))
        if result.truncation_budget is None:
            notes.append("truncation budget unknown (the functional declares no bound); "
                         "the z row allows no bias")
        if len(nu.support()) <= exact.MAX_ATOMS:
            name, target = "series_vs_direct_expectation", exact.exact_expectation(f, nu)
        else:
            # too many atoms to enumerate: a direct estimate on its own stream
            direct = sampler.mc_expectation(f, nu, mc.split(1))
            name, target = "series_vs_mc_expectation", direct.estimate
            se = math.hypot(se, direct.stderr)
            notes.append(f"{len(nu.support())} atoms exceed the enumeration limit "
                         f"{exact.MAX_ATOMS}: the target is a Monte Carlo estimate "
                         "whose stderr joins the value's in quadrature")
        row = CheckRow(name, result.value, target, se, "z", result.truncation_budget or 0.0)
    return _report(out_dir, "series", [row], notes, {"series_terms.csv": result.to_csv()})


def _run_deriv(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    estimator = cfg.get("deriv", "estimator", fallback="pivotal")
    f = _functional_from(cfg, "deriv")
    theta = cfg.getfloat("deriv", "theta", fallback=1.0)
    mc = _mc_plan(cfg, args, default_samples=100_000)
    rows: list[CheckRow] = []

    if estimator in ("scaled", "pivotal"):
        lam = _measure_from(cfg, "deriv", "lambda_file", base)
        exact_value = scaled_derivative(f, lam, theta)
        if estimator == "pivotal":
            est = pivotal_derivative(f, lam, theta, mc)
            rows.append(CheckRow("pivotal", est.estimate, exact_value, est.stderr, "z"))
        else:
            # steps that keep theta - step >= 0, as lam.scaled requires; at
            # theta <= 0 no such step is positive
            if not theta > 0:
                raise ConfigError(f"theta must be positive for the scaled check, got {theta!r}")
            steps = (min(1e-2, theta / 2), min(1e-3, theta / 20))
            richardson = richardson_fd(lambda t: exact.exact_expectation(f, lam.scaled(t)),
                                       theta, steps)
            rows.append(CheckRow("scaled", exact_value, richardson, EXACT_TOL, "abs"))
        delta = cfg.getfloat("deriv", "fd_delta", fallback=min(0.1, theta / 2))
        fd = coupled_scale_fd(f, lam, theta, delta, mc.split(1))
        rows.append(CheckRow("coupled_fd", fd.estimate, exact_value, fd.stderr, "z"))
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
        rows.append(CheckRow(estimator, value, fd, EXACT_TOL, "abs"))
    else:
        raise ConfigError(f"unknown estimator {estimator!r}")
    return _report(out_dir, "deriv", rows, [f"theta {_fmt(theta)}"])


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

    rows = [
        CheckRow("mean_one", mean_one, 1.0, 1e-10, "abs"),
        CheckRow("second_moment_equals_bound", second, bound, 1e-10, "abs"),
        CheckRow("reweighted_exact_vs_direct", rw_exact, direct, 1e-10, "abs"),
        CheckRow("reweighted_mc_vs_direct", rw_mc.estimate, direct, rw_mc.stderr, "z"),
    ]
    return _report(out_dir, "likelihood", rows, [])


def _run_hellinger(cfg, args, out_dir: Path) -> int:
    base = Path(args.config).parent
    lam = _measure_from(cfg, "hellinger", "lambda_file", base)
    nu = _measure_from(cfg, "hellinger", "nu_file", base)
    report = measures.admissibility_check(lam, nu)
    identity = measures.hellinger_poisson(lam, nu)
    enumerated = exact.poisson_hellinger_exact(lam, nu)
    rows = [CheckRow("law_hellinger_identity", identity, enumerated, 1e-8, "abs")]
    notes = [f"{name} {_fmt(value)} {'ok' if good else 'flagged'}"
             for name, value, good in report.rows()]
    code = _report(out_dir, "hellinger", rows, notes)
    if args.strict and not report.l2_ok:
        return EXIT_ADMISSIBILITY
    return code


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
    )


def _run_levy_sim(cfg, args, out_dir: Path) -> int:
    model = _levy_model_from(cfg, "levy")
    mc = _mc_plan(cfg, args, default_samples=50_000)
    mom = model.moments()

    def draw(gen, n):
        x = levy.simulate_paths(model, n, gen).values(model.t0)
        return np.stack([x, (x - mom["mean"]) ** 2])

    res = mc_mean(draw, mc)
    mean, var = res.estimate(0), res.estimate(1)
    # moments() is the truncated process's own, so the gates carry no budget
    rows = [
        CheckRow("terminal_mean", mean.estimate, mom["mean"], mean.stderr, "z"),
        CheckRow("terminal_var", var.estimate, mom["var"], var.stderr, "z"),
    ]
    return _report(out_dir, "levy-sim", rows, [])


def _run_levy_deriv(cfg, args, out_dir: Path) -> int:
    theta = cfg.getfloat("levy", "theta", fallback=2.0)
    beta0 = cfg.getfloat("levy", "beta0", fallback=1.0)
    alpha = cfg.getfloat("levy", "alpha", fallback=0.5)
    t0 = cfg.getfloat("levy", "t0", fallback=1.0)
    eps = cfg.getfloat("levy", "eps", fallback=0.05)
    mc = _mc_plan(cfg, args, default_samples=100_000)

    model, pert = levy.gamma_overlay_model(theta, beta0, alpha, t0, eps)
    est = levy.levy_derivative(levy.terminal_value, model, pert, mc)
    closed = -theta * t0 / beta0 ** 2
    quad = -theta * t0 * _integral_x_exp(beta0)
    rows = [CheckRow("jump_sensitivity", est.estimate, closed, est.stderr, "z"),
            CheckRow("quadrature", quad, closed, EXACT_TOL, "abs")]
    return _report(out_dir, "levy-deriv", rows, [f"theta0 = beta0 = {_fmt(beta0)}"])


def _integral_x_exp(beta0: float) -> float:
    """int_0^inf x e^(-beta0 x) dx by the package's quadrature: the second
    moment of the unit gamma jump measure x^(-1) e^(-beta0 x) dx."""
    return levy.GammaJumps(1.0, beta0).integrate(lambda x: x * x, 0.0, np.inf)


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
    rows = [
        CheckRow("sup_derivative", sup.estimate, fd.estimate,
                 math.sqrt(sup.stderr ** 2 + fd.stderr ** 2), "z"),
        CheckRow("kernel_max_err", sup.kernel_max_err, 0.0, 1e-12, "abs"),
        CheckRow("bound_violations", float(sup.bound_violations), 0.0, 0.0, "abs"),
    ]
    notes = [f"sup_derivative stderr {_fmt(sup.stderr)} and coupled-FD target stderr "
             f"{_fmt(fd.stderr)}, combined in quadrature"]
    return _report(out_dir, "levy-sup", rows, notes,
                   {"levy-sup_q.csv": sup.q_summary.to_csv()})


def _run_validate(cfg, args, out_dir: Path) -> int:
    seed = args.seed
    if seed is None and cfg is not None and cfg.has_option("mc", "seed"):
        seed = cfg.getint("mc", "seed")
    if seed is None:
        raise ConfigError("validate needs --seed (or [mc] seed in a config)")
    return _report(out_dir, "validate", battery.run_battery(seed, workers=args.workers), [])


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

OUTPUT_DOCS = """Every study writes <study>.csv with the columns
  check, value, target, tol, mode, pass
(mode abs: |value - target| <= tol; mode z: tol is the standard error and
|value - target| <= 3 tol + budget, a bias budget shown in the summary when
nonzero; mode bool: value is true) and <study>_summary.txt with the
identity, the study's notes, one line per check and 'k/n checks passed'.  Data files: series_terms.csv (order, term,
partial_sum, abs_term) and levy-sup_q.csv (bin_left, bin_right, count).
Exit codes: 0 all checks pass, 2 config error, 3 a failed hypothesis
(ConditionError), 4 a check failed.
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poissonpert",
        description="Perturbation analysis studies for Poisson and Levy functionals.",
        epilog=OUTPUT_DOCS, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(RUNNERS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--workers", type=int, default=1,
                        help="most threads per Monte Carlo call (capped at the CPU count); "
                             "used only when a block takes a GIL switch interval or more")
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
    except ConditionError as err:
        print(f"admissibility failure: {err}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except (ConfigError, configparser.Error, KeyError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
