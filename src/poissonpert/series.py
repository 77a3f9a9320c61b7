"""The variational series for E f(Phi) under a change of intensity measure.

The target expectation under nu expands around lam as

    E_nu f = E_lam f + sum_{n>=1} 1/n! * int (E_lam D^n f) d(nu - lam)^n,

with the signed powers integrated through densities against any dominating
measure.  Exact mode evaluates each order from a shifted-expectation table
and its mixed forward differences (see :mod:`poissonpert.exact`).

Monte Carlo mode is one per-order loop, ``mc_series``, over an order-n term sampler
``draw(n, gen)`` that returns one sample of the signed order-n term and of
its absolute companion.  Two backends supply the draw:

* ``atom_draw`` (discrete intensities): n atoms from the normalized absolute
  perturbation, one configuration, the n-th difference D^n f;
* ``levy.jump_draw`` (Levy jump measures): n marks (t, x) from
  dt tensor the normalized |g| d nu_ref, one path, the n-fold path difference.

The signs are carried as weights, and the per-order budget doubles each
order up to a backend cap because higher orders are smaller but relatively
noisier.  Derivatives are the order-one draw of the same samplers.

The parametric version follows the one-dimensional family
lam_theta = (h_lam + (theta - theta0) h) rho and, evaluated at theta = 1 with
h = h_nu - h_lam, reproduces the variational series term by term.  Its
order-1 coefficient is the Gateaux derivative of nu -> E_nu f at lam.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .configuration import Functional, difference_n
from .exact import (EnumerationPlan, exact_expectation, exact_expected_difference,
                    expectation_table, expected_difference_orders,
                    forward_difference_table, order_sums, weight_table)
from .likelihood import AdmissibilityError
from .measures import (AdmissibilityReport, DiscreteMeasure, PerturbationFamily,
                       admissibility_check, lebesgue_decompose)
from .rng import EstimateResult, MCPlan, mc_mean
from .sampler import sample_poisson

EPS_ABS = 1e-10


@dataclass
class SeriesResult:
    """Per-order terms of a perturbation series with convergence bookkeeping.

    ``abs_terms`` tracks the fully absolute companion series (integrand and
    weights in absolute value); its plateau is the practical finiteness
    diagnostic for the expansion.
    """

    terms: list[float]
    abs_terms: list[float]
    partial_sums: list[float]
    truncation_order: int
    converged: bool
    stderrs: list[float] | None = None
    admissibility: AdmissibilityReport | None = None

    @property
    def value(self) -> float:
        return self.partial_sums[-1] if self.partial_sums else 0.0

    def to_csv(self, target=None) -> str | None:
        """Write columns order, term, partial_sum, abs_term."""
        own = target is None
        buf = io.StringIO() if own else target
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["order", "term", "partial_sum", "abs_term"])
        for n, (t, p, a) in enumerate(zip(self.terms, self.partial_sums, self.abs_terms)):
            writer.writerow([n, format(t, ".17g"), format(p, ".17g"), format(a, ".17g")])
        if own:
            return buf.getvalue()
        return None


def _truncate_exact(terms: np.ndarray, abs_terms: np.ndarray, eps_abs: float
                    ) -> tuple[int, bool]:
    """Stop once two consecutive orders fall below eps_abs (alternating-sign
    series need the two-term window)."""
    for n in range(1, len(terms)):
        if abs(terms[n]) < eps_abs and abs(terms[n - 1]) < eps_abs:
            return n, True
    return len(terms) - 1, False


def _assemble(terms, abs_terms, stop, converged, stderrs=None, admissibility=None):
    terms = [float(t) for t in terms[: stop + 1]]
    abs_terms = [float(t) for t in abs_terms[: stop + 1]]
    partials = []
    for n in range(len(terms)):
        partials.append(math.fsum(terms[: n + 1]))
    return SeriesResult(terms=terms, abs_terms=abs_terms, partial_sums=partials,
                        truncation_order=stop, converged=converged,
                        stderrs=None if stderrs is None else [float(s) for s in stderrs[: stop + 1]],
                        admissibility=admissibility)


def _admissibility_gate(lam, nu, rho, decomposition, strict) -> AdmissibilityReport:
    report = admissibility_check(lam, nu, rho=rho)
    if decomposition == "direct":
        ok = report.l2_ok
    elif decomposition == "lebesgue-nu":
        ok = report.lebesgue_nu_ok
    elif decomposition == "lebesgue-lambda":
        ok = report.lebesgue_lam_ok
    elif decomposition == "monotone":
        ok = report.monotone_ok if report.monotone_ok is not None else report.l2_ok
    else:
        raise ValueError(f"unknown decomposition {decomposition!r}")
    if not ok:
        msg = (f"admissibility gaps capped for decomposition {decomposition!r}: "
               f"low={report.l2_gap_low:g} high={report.l2_gap_high:g}")
        if strict:
            raise AdmissibilityError(msg)
        warnings.warn(msg, RuntimeWarning)
    return report


def variational_series(f: Functional, lam: DiscreteMeasure, nu: DiscreteMeasure,
                       rho: DiscreteMeasure | None = None, n_max: int = 30,
                       mode: str = "exact", plan: EnumerationPlan | None = None,
                       mc: MCPlan | None = None, decomposition: str = "direct",
                       strict: bool = False, eps_abs: float = EPS_ABS) -> SeriesResult:
    """Expand E_nu f around lam in powers of the signed perturbation nu - lam.

    ``decomposition`` selects which sufficient condition backs the run:
    "direct" uses the density gaps against rho (default lam + nu),
    "lebesgue-nu"/"lebesgue-lambda" use the split along the absolutely
    continuous part, "monotone" the one-sided criterion.  The numerical terms
    are identical in every case; the choice only governs the gate.  Failing
    the gate warns by default and raises in strict mode.
    """
    if rho is None:
        rho = _default_rho(lam, nu, decomposition)
    report = _admissibility_gate(lam, nu, rho, decomposition, strict)

    atoms = sorted(set(lam.atoms) | set(nu.atoms), key=repr)
    weights = {a: nu.mass(a) - lam.mass(a) for a in atoms}
    if mode == "exact":
        terms, abs_terms = expected_difference_orders(f, lam, weights, n_max, plan)
        stop, converged = _truncate_exact(terms, abs_terms, eps_abs)
        return _assemble(terms, abs_terms, stop, converged, admissibility=report)
    if mode == "mc":
        if mc is None:
            raise ValueError("mc mode needs an MCPlan")
        draw, mass_abs = atom_draw(f, lam, *_signed_atoms(weights))
        return mc_series(draw, mass_abs, n_max, mc, ATOM_GROWTH_CAP, eps_abs,
                         admissibility=report)
    raise ValueError(f"unknown mode {mode!r}")


def _default_rho(lam, nu, decomposition):
    if decomposition == "direct":
        return lam.plus(nu)
    if decomposition == "lebesgue-nu":
        _, nu2 = lebesgue_decompose(nu, lam)
        return lam.plus(nu2)
    if decomposition == "lebesgue-lambda":
        _, lam2 = lebesgue_decompose(lam, nu)
        return nu.plus(lam2)
    if decomposition == "monotone":
        return lam.plus(nu)
    raise ValueError(f"unknown decomposition {decomposition!r}")


ATOM_GROWTH_CAP = 4  # an order-n atom sample costs 2^n evaluations


def mc_series(draw: Callable, mass_abs: float, n_max: int, mc: MCPlan,
              growth_cap: int, eps_abs: float, admissibility=None) -> SeriesResult:
    """Per-order importance sampling of the series from ``draw(n, gen)``.

    Order n runs ``mc.samples * 2^min(n, growth_cap)`` replications on child
    stream n: budgets grow with the order (higher orders are relatively
    noisier) but the growth is capped because each order-n sample already
    costs 2^n evaluations.  The stop rule is two consecutive terms below
    their own 2 sigma or below the absolute floor ``eps_abs``; the floor
    matters because an estimator whose noise shrinks with the term never
    clears the relative test.  A zero absolute mass stops after order 0.
    """
    terms: list[float] = []
    abs_terms: list[float] = []
    stderrs: list[float] = []
    for n in range(n_max + 1):
        if n > 0 and mass_abs == 0.0:
            terms.append(0.0)
            abs_terms.append(0.0)
            stderrs.append(0.0)
            return _assemble(terms, abs_terms, n, True, stderrs, admissibility)
        plan = MCPlan(mc.samples * 2 ** min(n, growth_cap), mc.stream.child(n),
                      mc.chunks, mc.workers)
        res = mc_mean(partial(draw, n), plan)
        term = res.estimate(0)
        terms.append(term.estimate)
        abs_terms.append(res.estimate(1).estimate)
        stderrs.append(term.stderr)
        if n >= 1 and all(abs(terms[k]) < max(2 * stderrs[k], eps_abs) for k in (n - 1, n)):
            return _assemble(terms, abs_terms, n, True, stderrs, admissibility)
    return _assemble(terms, abs_terms, n_max, False, stderrs, admissibility)


def _signed_atoms(weights: dict) -> tuple[list, list]:
    """Atoms with a nonzero weight, sorted by repr, and their weights."""
    atoms = [a for a, w in sorted(weights.items(), key=lambda kv: repr(kv[0])) if w != 0.0]
    return atoms, [weights[a] for a in atoms]


def atom_draw(f: Functional, base: DiscreteMeasure, atoms: Sequence, ws: Sequence
              ) -> tuple[Callable, float]:
    """The discrete backend's order-n term sampler and its absolute mass.

    Order n draws n atoms i.i.d. from |w| / sum |w| (in the given atom
    order), then Phi ~ Poisson(base), and returns the signed and absolute
    (sum |w|)^n / n! D^n f(Phi).  Order 0 returns f(Phi).
    """
    ws = np.array(ws, dtype=float)
    mass_abs = float(np.abs(ws).sum())
    probs = np.abs(ws) / mass_abs if mass_abs else None
    signs = np.sign(ws)

    def draw(n: int, gen: np.random.Generator) -> tuple[float, float]:
        if n == 0:
            v = f(sample_poisson(base, None, generator=gen))
            return v, abs(v)
        picks = gen.choice(len(atoms), size=n, p=probs)
        xs = [atoms[int(j)] for j in picks]
        sgn = float(np.prod(signs[picks]))
        d = difference_n(f, sample_poisson(base, None, generator=gen), xs)
        scale = mass_abs ** n / math.factorial(n)
        return scale * sgn * d, scale * abs(d)

    return draw, mass_abs


def order_one(f: Functional, base: DiscreteMeasure, atoms: Sequence, ws: Sequence,
              mode: str, plan: EnumerationPlan | None, mc: MCPlan | None
              ) -> float | EstimateResult:
    """int (E_base D_x f) w(dx) over the given atoms: the series' order-one term.

    Exact mode sums the enumerated first differences; Monte Carlo mode runs
    the order-one ``atom_draw``.
    """
    if mode == "exact":
        return math.fsum(exact_expected_difference(f, base, [a], plan) * w
                         for a, w in zip(atoms, ws) if w != 0.0)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if mc is None:
        raise ValueError("mc mode needs an MCPlan")
    if not atoms:
        return EstimateResult(0.0, 0.0)
    draw, _ = atom_draw(f, base, atoms, ws)
    return mc_mean(lambda gen: draw(1, gen)[0], mc).estimate()


def parametric_series(f: Functional, family: PerturbationFamily, theta: float,
                      n_max: int = 30, mode: str = "exact",
                      plan: EnumerationPlan | None = None, mc: MCPlan | None = None,
                      eps_abs: float = EPS_ABS) -> SeriesResult:
    """Series for E f under lam_theta = (h_lam + (theta - theta0) h) rho.

    Requires a linear family (no remainder); order n carries the weight
    (theta - theta0)^n / n! against the direction tensor powers.
    """
    if not family.is_linear:
        raise ValueError("parametric series needs a linear family (remainder-free)")
    if not family.contains(theta):
        raise ValueError(f"theta={theta} outside declared interval {family.interval}")
    rho = family.reference
    if not isinstance(rho, DiscreteMeasure):
        raise ValueError("exact parametric series is discrete-regime only")
    base = family.base_measure()
    dt = theta - family.theta0
    weights = {a: dt * family.direction(a) * rho.mass(a) for a in rho.atoms}
    if mode == "exact":
        terms, abs_terms = expected_difference_orders(f, base, weights, n_max, plan)
        stop, converged = _truncate_exact(terms, abs_terms, eps_abs)
        return _assemble(terms, abs_terms, stop, converged)
    if mode == "mc":
        if mc is None:
            raise ValueError("mc mode needs an MCPlan")
        draw, mass_abs = atom_draw(f, base, *_signed_atoms(weights))
        return mc_series(draw, mass_abs, n_max, mc, ATOM_GROWTH_CAP, eps_abs)
    raise ValueError(f"unknown mode {mode!r}")


def gateaux_derivative(f: Functional, lam: DiscreteMeasure, h,
                       rho: DiscreteMeasure | None = None, mode: str = "exact",
                       plan: EnumerationPlan | None = None,
                       mc: MCPlan | None = None) -> float:
    """Directional derivative int (E_lam D_x f) h(x) rho(dx).

    With rho omitted the direction h is read against lam itself.
    """
    if rho is None:
        rho = lam
    hfun = h if callable(h) else (lambda x, _t=dict(h): _t.get(x, 0.0))
    atoms = [a for a in rho.support() if hfun(a) != 0.0]
    res = order_one(f, lam, atoms, [hfun(a) * rho.mass(a) for a in atoms], mode, plan, mc)
    return res.estimate if mode == "mc" else res


@dataclass(frozen=True)
class RemainderRow:
    norm: float
    remainder: float
    bound: float
    ratio: float


def small_remainder_factor(t: float) -> float:
    """sqrt(exp(t^2) - 1 - t^2): the norm-uniform remainder scale."""
    return math.sqrt(math.expm1(t * t) - t * t)


def frechet_remainder_check(f: Functional, lam: DiscreteMeasure,
                            h_list: Sequence, n_max: int = 30,
                            plan: EnumerationPlan | None = None) -> list[RemainderRow]:
    """Norm-uniform first-order error of h -> E f under (1 + h) lam.

    For each direction h with 1 + h >= 0 and finite int h^2 dlam, the
    remainder E_{(1+h)lam} f - E_lam f - int (E_lam D_x f) h dlam is compared
    against sqrt(sum_{n>=2} 1/n! int (E_lam D^n f)^2 dlam^n) times
    ``small_remainder_factor(norm(h))``.  Exact regime only.
    """
    atoms = list(lam.support())
    table = forward_difference_table(expectation_table(f, lam, atoms, n_max, plan))
    diag = order_sums(table * table * weight_table([lam.mass(a) for a in atoms], n_max),
                      n_max)
    factor = math.sqrt(max(math.fsum(float(t) for t in diag[2:]), 0.0))

    base_value = exact_expectation(f, lam, plan)
    rows = []
    for h in h_list:
        hfun = h if callable(h) else (lambda x, _t=dict(h): _t.get(x, 0.0))
        for a in atoms:
            if 1.0 + hfun(a) < -1e-12:
                raise ValueError(f"direction violates 1 + h >= 0 at atom {a!r}")
        norm = math.sqrt(math.fsum(hfun(a) ** 2 * lam.mass(a) for a in atoms))
        shifted = DiscreteMeasure({a: (1.0 + hfun(a)) * lam.mass(a) for a in atoms})
        target = exact_expectation(f, shifted, plan)
        linear = gateaux_derivative(f, lam, hfun, rho=lam, plan=plan)
        remainder = target - base_value - linear
        bound = factor * small_remainder_factor(norm)
        rows.append(RemainderRow(norm=norm, remainder=remainder, bound=bound,
                                 ratio=(abs(remainder) / norm if norm > 0 else 0.0)))
    return rows
