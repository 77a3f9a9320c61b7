"""The variational series for E f(Phi) under a change of intensity measure.

The target expectation under nu expands around lam as

    E_nu f = E_lam f + sum_{n>=1} 1/n! * int (E_lam D^n f) d(nu - lam)^n,

with the signed powers integrated through densities against any dominating
measure.  Exact mode evaluates each order from a shifted-expectation table
and its mixed forward differences (see :mod:`poissonpert.exact`).

Monte Carlo mode runs over one backend protocol: a backend is a pair
``(draw, M)`` of an order-n term sampler and the absolute mass M of the
perturbation.  ``draw(n, gen, k, check=False)`` returns k samples of the
signed order-n term and of its absolute companion, scaled by M^n / n!, as a
``(2, k)`` array (the block contract of ``rng.mc_mean``); ``check``
cross-checks the backend's fast evaluation on the replications it draws.
Two backends meet it:

* ``atom_draw`` (discrete intensities): n atoms per replication from the
  normalized absolute perturbation, one count array of k configurations,
  and the n-th differences D^n f of all k rows evaluated on count arrays;
* ``levy.jump_draw`` (Levy jump measures): k batches of n marks (t, x) from
  dt tensor the direction's normalized mark law w |g| d nu_ref, one batch of
  k paths, the n-fold path difference over the batch weighted by sgn g / w.

Two drivers run a backend: ``mc_series`` is the whole series as one
stratified ``mc_mean`` pass (a block builds one generator and draws its
share of every order on it, and the first replications of every stratum run
with ``check``), and ``mc_term`` is the order-n term alone.

The signs are carried as weights.  With M the absolute mass of the
perturbation, term n is at most sup|f| (2M)^n / n! while one order-n sample
costs 2^n evaluations, so the budget follows the Poisson(M) weights: order n
gets about ``mc.samples`` M^n / n! replications while that is at least two,
and the remaining orders up to n_max share one tail stratum whose draws pick
their order from Poisson(M) conditioned on the tail (the randomized-order
estimator of McLeish 2011 and Rhee & Glynn 2015, confined to the tail).  The
series always runs to n_max; what the orders above n_max can add is reported
as ``truncation_budget`` where f declares a bound.  Derivatives are the
order-one ``mc_term`` of the same backends.

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

from .configuration import DIFFERENCE_ORDER_CAP, Functional, difference_counts
from .exact import (exact_expectation, expectation_table, expected_difference_orders,
                    forward_difference_table, order_sums, weight_table)
from .measures import (ConditionError, DiscreteMeasure, PerturbationFamily, _as_density,
                       admissibility_check, lebesgue_decompose)
from .rng import SPOT_CHECKS, EstimateResult, MCPlan, mc_mean
from .sampler import sample_counts

EPS_ABS = 1e-10


@dataclass(frozen=True)
class SeriesResult:
    """Per-order terms of a perturbation series with convergence bookkeeping.

    ``terms`` run from order 0 to ``truncation_order``, which is derived from
    them, as are ``partial_sums`` and ``value`` (``math.fsum`` of the terms).
    ``abs_terms`` tracks the fully absolute companion series (integrand and
    weights in absolute value); its plateau is the practical finiteness
    diagnostic for the expansion.  ``converged`` is set where the series is
    built: two consecutive exact terms below ``eps_abs``, or a Monte Carlo
    ``truncation_budget`` that is known and at most ``eps_abs``.

    Monte Carlo runs also report ``samples``, the replications spent on each
    order, and ``truncation_budget``, a bound on what the orders above
    ``truncation_order`` add up to (None where f declares no bound).  Orders
    from ``tail_from`` on form one pooled stratum: their ``samples`` count the
    tail draws that landed on each order, and the stratum's single stderr
    sits at ``stderrs[tail_from]`` with 0.0 at the later tail orders, so
    sqrt(sum stderrs^2) is the stderr of ``value``.
    """

    terms: list[float]
    abs_terms: list[float]
    converged: bool
    stderrs: list[float] | None = None
    samples: list[int] | None = None
    tail_from: int | None = None
    truncation_budget: float | None = None

    @property
    def truncation_order(self) -> int:
        return len(self.terms) - 1

    @property
    def partial_sums(self) -> list[float]:
        return [math.fsum(self.terms[: n + 1]) for n in range(len(self.terms))]

    @property
    def value(self) -> float:
        return math.fsum(self.terms)

    def to_csv(self) -> str:
        """The columns order, term, partial_sum, abs_term as CSV text."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["order", "term", "partial_sum", "abs_term"])
        for n, (t, p, a) in enumerate(zip(self.terms, self.partial_sums, self.abs_terms)):
            writer.writerow([n, format(t, ".17g"), format(p, ".17g"), format(a, ".17g")])
        return buf.getvalue()


def _truncate_exact(terms: np.ndarray, abs_terms: np.ndarray, eps_abs: float
                    ) -> tuple[int, bool]:
    """Stop once two consecutive orders fall below eps_abs (alternating-sign
    series need the two-term window)."""
    for n in range(1, len(terms)):
        if abs(terms[n]) < eps_abs and abs(terms[n - 1]) < eps_abs:
            return n, True
    return len(terms) - 1, False


def _assemble(terms, abs_terms, stop, converged, **fields) -> SeriesResult:
    return SeriesResult(terms=[float(t) for t in terms[: stop + 1]],
                        abs_terms=[float(t) for t in abs_terms[: stop + 1]],
                        converged=converged, **fields)


# decomposition -> (its dominating measure from lam and nu, its verdict in the report)
_DECOMPOSITIONS = {
    "direct": (lambda lam, nu: lam.plus(nu), lambda r: r.l2_ok),
    "lebesgue-nu": (lambda lam, nu: lam.plus(lebesgue_decompose(nu, lam)[1]),
                    lambda r: r.lebesgue_nu_ok),
    "lebesgue-lambda": (lambda lam, nu: nu.plus(lebesgue_decompose(lam, nu)[1]),
                        lambda r: r.lebesgue_lam_ok),
    "monotone": (lambda lam, nu: lam.plus(nu),
                 lambda r: r.l2_ok if r.monotone_ok is None else r.monotone_ok),
}


def variational_series(f: Functional, lam: DiscreteMeasure, nu: DiscreteMeasure,
                       n_max: int = 30, mode: str = "exact", mc: MCPlan | None = None,
                       decomposition: str = "direct", strict: bool = False,
                       eps_abs: float = EPS_ABS) -> SeriesResult:
    """Expand E_nu f around lam in powers of the signed perturbation nu - lam.

    ``decomposition`` selects which sufficient condition backs the run:
    "direct" uses the density gaps against lam + nu,
    "lebesgue-nu"/"lebesgue-lambda" use the split along the absolutely
    continuous part, "monotone" the one-sided criterion.  The numerical terms
    are identical in every case; the choice only governs the gate.  Failing
    the gate warns by default and raises in strict mode.

    ``eps_abs`` is the accepted truncation error: exact mode stops after two
    consecutive terms below it, Monte Carlo mode runs to ``n_max`` and is
    ``converged`` when its ``truncation_budget`` is at most ``eps_abs``.
    """
    _check_order(n_max)
    if decomposition not in _DECOMPOSITIONS:
        raise ValueError(f"unknown decomposition {decomposition!r}")
    dominating, verdict = _DECOMPOSITIONS[decomposition]
    report = admissibility_check(lam, nu, rho=dominating(lam, nu))
    if not verdict(report):
        msg = (f"admissibility gaps capped for decomposition {decomposition!r}: "
               f"low={report.l2_gap_low:g} high={report.l2_gap_high:g}")
        if strict:
            raise ConditionError(msg)
        warnings.warn(msg, RuntimeWarning)

    atoms = sorted(set(lam.atoms) | set(nu.atoms), key=repr)
    weights = {a: nu.mass(a) - lam.mass(a) for a in atoms}
    return _atom_series(f, lam, weights, n_max, mode, mc, eps_abs)


def _check_order(n_max: int) -> None:
    """Raise ``ValueError`` for a negative series order ``n_max``."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max!r}")


def series_plan(samples: int, mass: float, n_max: int) -> tuple[list[int], int]:
    """Replications of each order stratum and of the pooled tail stratum.

    With N ~ Poisson(M) for M = ``mass`` and K = samples e^M, order n gets
    max(ceil(K P(N = n)), 2) = max(ceil(samples M^n / n!), 2) replications
    up to n*, the last order n <= n_max with K P(N = n) >= 2, so order 0
    keeps ``samples``.  The orders n* < n <= n_max share one tail stratum of
    max(ceil(K P(n* < N <= n_max)), 2) replications, 0 when n* = n_max.
    Returns the per-order budgets of orders 0..n* and the tail budget.
    """
    expected = [float(samples)]
    for n in range(1, n_max + 1):
        expected.append(expected[-1] * mass / n)
    top = max((n for n, e in enumerate(expected) if e >= 2.0), default=0)
    budgets = [max(math.ceil(e), 2) for e in expected[: top + 1]]
    tail = max(math.ceil(math.fsum(expected[top + 1:])), 2) if top < n_max else 0
    return budgets, tail


def truncation_budget(bound: float | None, mass: float, n_max: int) -> float | None:
    """bound * sum_{n > n_max} (2M)^n / n!: the most the orders above n_max
    can add for |f| <= bound, since |D^n f| <= 2^n bound.  The sum runs
    forward with ``math.fsum`` (no e^{2M} minus a partial sum).  A zero mass
    gives 0 whatever f is; an unknown bound gives None."""
    if mass == 0.0:
        return 0.0
    if bound is None:
        return None
    x = 2.0 * mass
    term = 1.0
    for n in range(1, n_max + 2):
        term *= x / n
    terms, n, running = [], n_max + 1, 0.0
    while term > 0.0 and (n <= x or term > running * 2.0 ** -60):
        terms.append(term)
        running += term
        n += 1
        term *= x / n
    return bound * math.fsum(terms)


def mc_series(draw: Callable, mass: float, n_max: int, mc: MCPlan,
              bound: float | None = None, eps_abs: float = EPS_ABS) -> SeriesResult:
    """Poisson-stratified Monte Carlo series from ``draw(n, gen, k, check)``.

    ``mass`` is M, the absolute mass of the perturbation; ``draw(n, gen, k,
    check)`` returns k signed and absolute order-n term samples, scaled by
    M^n / n!, as a ``(2, k)`` array, and with ``check`` also cross-checks
    them (f's count form, the path batch).  The whole series is one stratified
    ``mc_mean`` pass on ``mc``: each order n <= n* of ``series_plan(mc.samples,
    M, n_max)`` is a stratum of its own, and the tail is one more, whose
    draws first pick their order N from Poisson(M) conditioned on n* < N <=
    n_max, then call ``draw`` once per distinct order, each replication
    returning its draw(N) / P(N | tail) in its own place; adding each tail
    draw into the term of its own order keeps every term unbiased, and the
    tail, being one sample, reports one stderr.  The first ``SPOT_CHECKS``
    replications of every stratum in block 0 run with ``check``.

    The series always runs to n_max, and ``truncation_budget(bound, M,
    n_max)`` reports what truncating there can cost; ``converged`` means that
    budget is known and at most ``eps_abs``.  A zero mass stops after order 0:
    every higher term is exactly 0.
    """
    if mass == 0.0:
        budgets, tail, n_max = [mc.samples], 0, min(n_max, 1)
    else:
        budgets, tail = series_plan(mc.samples, mass, n_max)
    first = len(budgets)
    weights = [1.0]
    for n in range(first + 1, n_max + 1):
        weights.append(weights[-1] * mass / n)
    q = np.array(weights) / math.fsum(weights)

    def tail_draw(gen: np.random.Generator, k: int, check: bool = False) -> np.ndarray:
        picks = gen.choice(q.size, size=k, p=q)
        out = np.empty((3, k))
        out[0] = picks
        for j in np.unique(picks):
            own = picks == j
            out[1:, own] = draw(first + int(j), gen, int(own.sum()), check) / q[j]
        return out

    strata = [(partial(draw, n), k) for n, k in enumerate(budgets)]
    if tail:
        strata.append((tail_draw, tail))
    res = mc_mean(strata, mc, spot=SPOT_CHECKS)
    orders = [r.estimate(0) for r in res[:first]]
    terms, stderrs = [t.estimate for t in orders], [t.stderr for t in orders]
    abs_terms, samples = [r.estimate(1).estimate for r in res[:first]], list(budgets)
    if tail:
        picks, signed, absolute = (res[first].values(i) for i in range(3))
        own = [picks == j for j in range(q.size)]
        terms += [float(signed[m].sum()) / tail for m in own]
        abs_terms += [float(absolute[m].sum()) / tail for m in own]
        stderrs += [res[first].estimate(1).stderr] + [0.0] * (q.size - 1)
        samples += [int(m.sum()) for m in own]
    zeros = [0.0] * (n_max + 1 - len(terms))  # a zero mass: orders above 0 vanish
    budget = truncation_budget(bound, mass, n_max)
    return _assemble(terms + zeros, abs_terms + zeros, n_max,
                     budget is not None and budget <= eps_abs, stderrs=stderrs + zeros,
                     samples=samples + [0] * len(zeros), tail_from=first if tail else None,
                     truncation_budget=budget)


def _atom_series(f: Functional, base: DiscreteMeasure, weights: dict, n_max: int,
                 mode: str, mc: MCPlan | None, eps_abs: float) -> SeriesResult:
    """The series of the discrete perturbation ``weights`` around ``base``.

    Exact mode stops after two consecutive terms below ``eps_abs``.  Monte
    Carlo mode is ``mc_series`` over ``atom_draw``; orders above
    ``DIFFERENCE_ORDER_CAP`` are not sampled (an order-n difference costs 2^n
    evaluations) and the truncation budget covers them, so ``converged``
    means the budget is known and at most ``eps_abs``.
    """
    if mode == "exact":
        terms, abs_terms = expected_difference_orders(f, base, weights, n_max)
        stop, converged = _truncate_exact(terms, abs_terms, eps_abs)
        return _assemble(terms, abs_terms, stop, converged)
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if mc is None:
        raise ValueError("mc mode needs an MCPlan")
    return mc_series(*atom_draw(f, base, *_signed_atoms(weights)),
                     min(n_max, DIFFERENCE_ORDER_CAP), mc, f.bound, eps_abs)


def _signed_atoms(weights: dict) -> tuple[list, list]:
    """Atoms with a nonzero weight, sorted by repr, and their weights."""
    atoms = [a for a, w in sorted(weights.items(), key=lambda kv: repr(kv[0])) if w != 0.0]
    return atoms, [weights[a] for a in atoms]


def atom_draw(f: Functional, base: DiscreteMeasure, atoms: Sequence, ws: Sequence
              ) -> tuple[Callable, float]:
    """The discrete backend's order-n term sampler and its absolute mass.

    Each replication of order n draws n atoms i.i.d. from |w| / sum |w| (in
    the given atom order), then Phi ~ Poisson(base), and gives the signed and
    absolute (sum |w|)^n / n! D^n f(Phi); order 0 gives f(Phi).  The block
    draw ``draw(n, gen, k, check=False)`` draws all k replications' picks,
    then one count array, and differences every row with
    ``difference_counts``, which with ``check`` spot-checks f's count form
    on the empty configuration and the first rows.
    """
    ws = np.array(ws, dtype=float)
    mass_abs = float(np.abs(ws).sum())
    cdf = np.cumsum(np.abs(ws))
    cdf /= cdf[-1] if mass_abs else 1.0
    signs = np.sign(ws)
    support = list(base.support())
    axes = support + [a for a in atoms if a not in support]
    axis_of = np.array([axes.index(a) for a in atoms], dtype=np.int64)

    def draw(n: int, gen: np.random.Generator, k: int, check: bool = False) -> np.ndarray:
        picks = cdf.searchsorted(gen.random((k, n)), side="right")  # gen.choice(p=|w|/M)
        counts = np.zeros((k, len(axes)), dtype=np.int64)
        counts[:, :len(support)] = sample_counts(base, size=k, generator=gen)
        d = difference_counts(f, counts, axes, axis_of[picks], check)
        out = np.empty((2, k))
        out[0] = np.prod(signs[picks], axis=1) * d
        out[1] = np.abs(d)
        return out * (mass_abs ** n / math.factorial(n))

    return draw, mass_abs


def order_one(f: Functional, base: DiscreteMeasure, atoms: Sequence, ws: Sequence,
              mode: str, mc: MCPlan | None) -> float | EstimateResult:
    """int (E_base D_x f) w(dx) over the given atoms: the series' order-one term.

    Exact mode reads the order-one sum of one shifted-expectation table that
    serves every atom; Monte Carlo mode is the order-one ``mc_term`` of
    ``atom_draw``.
    """
    if mode == "exact":
        terms, _ = expected_difference_orders(f, base, dict(zip(atoms, ws)), 1)
        return float(terms[1])
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if mc is None:
        raise ValueError("mc mode needs an MCPlan")
    return mc_term(*atom_draw(f, base, atoms, ws), 1, mc, SPOT_CHECKS)


def mc_term(draw: Callable, mass: float, n: int, mc: MCPlan, spot: int) -> EstimateResult:
    """The order-n term alone from a backend ``(draw, mass)``: the signed field
    of ``draw(n, gen, k, check)`` through ``mc_mean``, with the first ``spot``
    replications of block 0 checked.  A zero mass gives exactly 0."""
    if mass == 0.0:
        return EstimateResult(0.0, 0.0)
    return mc_mean(lambda gen, k, check=False: draw(n, gen, k, check)[:1], mc,
                   spot=spot).estimate()


def parametric_series(f: Functional, family: PerturbationFamily, theta: float,
                      n_max: int = 30, mode: str = "exact", mc: MCPlan | None = None,
                      eps_abs: float = EPS_ABS) -> SeriesResult:
    """Series for E f under lam_theta = (h_lam + (theta - theta0) h) rho.

    Requires a linear family (no remainder); order n carries the weight
    (theta - theta0)^n / n! against the direction tensor powers.
    """
    _check_order(n_max)
    if not family.is_linear:
        raise ValueError("parametric series needs a linear family (remainder-free)")
    if not family.contains(theta):
        raise ValueError(f"theta={theta} outside declared interval {family.interval}")
    rho = family.reference
    base = family.base_measure()
    dt = theta - family.theta0
    weights = {a: dt * family.direction(a) * rho.mass(a) for a in rho.atoms}
    return _atom_series(f, base, weights, n_max, mode, mc, eps_abs)


def gateaux_derivative(f: Functional, lam: DiscreteMeasure, h, mode: str = "exact",
                       mc: MCPlan | None = None) -> float | EstimateResult:
    """Directional derivative int (E_lam D_x f) h(x) lam(dx), h a density
    against lam itself (a direction off lam's support is ``linear_derivative``
    of a ``PerturbationFamily``).  Monte Carlo mode returns the
    ``EstimateResult`` with its stderr."""
    hfun = _as_density(h)
    atoms = [a for a in lam.support() if hfun(a) != 0.0]
    return order_one(f, lam, atoms, [hfun(a) * lam.mass(a) for a in atoms], mode, mc)


@dataclass(frozen=True)
class RemainderRow:
    norm: float
    remainder: float
    bound: float

    @property
    def ratio(self) -> float:
        return abs(self.remainder) / self.norm if self.norm > 0 else 0.0


def small_remainder_factor(t: float) -> float:
    """sqrt(exp(t^2) - 1 - t^2): the norm-uniform remainder scale."""
    return math.sqrt(math.expm1(t * t) - t * t)


def frechet_remainder_check(f: Functional, lam: DiscreteMeasure,
                            h_list: Sequence, n_max: int = 30) -> list[RemainderRow]:
    """Norm-uniform first-order error of h -> E f under (1 + h) lam.

    For each direction h with 1 + h >= 0 and finite int h^2 dlam, the
    remainder E_{(1+h)lam} f - E_lam f - int (E_lam D_x f) h dlam is compared
    against sqrt(sum_{n>=2} 1/n! int (E_lam D^n f)^2 dlam^n) times
    ``small_remainder_factor(norm(h))``.  Exact regime only.
    """
    atoms = list(lam.support())
    table = forward_difference_table(expectation_table(f, lam, atoms, n_max))
    diag = order_sums(table * table * weight_table([lam.mass(a) for a in atoms], n_max),
                      n_max)
    factor = math.sqrt(max(math.fsum(float(t) for t in diag[2:]), 0.0))

    base_value = exact_expectation(f, lam)
    rows = []
    for h in h_list:
        hfun = _as_density(h)
        for a in atoms:
            if 1.0 + hfun(a) < -1e-12:
                raise ValueError(f"direction violates 1 + h >= 0 at atom {a!r}")
        norm = math.sqrt(math.fsum(hfun(a) ** 2 * lam.mass(a) for a in atoms))
        shifted = DiscreteMeasure({a: (1.0 + hfun(a)) * lam.mass(a) for a in atoms})
        target = exact_expectation(f, shifted)
        linear = gateaux_derivative(f, lam, hfun)
        remainder = target - base_value - linear
        bound = factor * small_remainder_factor(norm)
        rows.append(RemainderRow(norm=norm, remainder=remainder, bound=bound))
    return rows
