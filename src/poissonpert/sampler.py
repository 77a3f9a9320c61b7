"""Poisson configuration sampling, the thinning/superposition coupling, and
the Mecke-identity test harness, all on discrete measures.

A configuration is a vector of independent per-atom Poisson counts:
``sample_counts`` draws a ``(size, atoms)`` array of them, the Monte Carlo
estimators one array per block, and ``sample_poisson`` is one row of it.

Finite-difference oracles couple two discrete intensities with
``couple_counts``: points of the lower envelope are shared, which is what
makes coupled differences low variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .configuration import PointConfiguration, difference_counts
from .measures import DiscreteMeasure
from .rng import SPOT_CHECKS, EstimateResult, MCPlan, RngStream, mc_mean


def sample_poisson(m: DiscreteMeasure, window=None, *,
                   generator: np.random.Generator) -> PointConfiguration:
    """One Poisson configuration with intensity m on the window, from
    ``generator``: one row of ``sample_counts``."""
    if not isinstance(m, DiscreteMeasure):
        raise TypeError(f"unsupported measure type {type(m)!r}")
    mr = m.restrict(window)
    return PointConfiguration.from_counts(mr.support(),
                                          sample_counts(mr, generator=generator)[0].tolist())


def sample_counts(m: DiscreteMeasure, size: int = 1, *,
                  generator: np.random.Generator) -> np.ndarray:
    """Independent per-atom Poisson counts of ``size`` configurations, shape
    (size, atoms) over ``m.support()``, drawn from ``generator``."""
    masses = np.array([x for _, x in m.items() if x > 0.0])
    return generator.poisson(masses, size=(size, masses.size))


@dataclass(frozen=True)
class CoupledPair:
    """Configurations of both intensities plus their shared retained points."""

    phi_lambda: PointConfiguration
    phi_nu: PointConfiguration
    shared: PointConfiguration


def couple_counts(lam: DiscreteMeasure, nu: DiscreteMeasure, gen: np.random.Generator,
                  size: int) -> tuple:
    """Couple Poisson(lam) and Poisson(nu) by independent thinning plus an
    independent superposed remainder; returns the atoms and the (size, atoms)
    counts of the lam- and nu-configurations and of their shared points.

    On A = {h_lam > h_nu} each point of the lam-configuration survives with
    probability h_nu/h_lam, elsewhere always, and an independent Poisson
    configuration of intensity (h_nu - h_lam)^+ drho is added: the marginals
    are exactly the two Poisson laws.
    """
    atoms = tuple(sorted(set(lam.support()) | set(nu.support()), key=repr))
    hl, hn = (np.array([m.mass(a) for a in atoms]) for m in (lam, nu))
    phi_l = gen.poisson(hl, size=(size, len(atoms)))
    shared = gen.binomial(phi_l, np.divide(hn, hl, out=np.ones_like(hl), where=hl > hn))
    return atoms, phi_l, shared + gen.poisson(np.maximum(hn - hl, 0.0), phi_l.shape), shared


def thin_superpose_couple(lam: DiscreteMeasure, nu: DiscreteMeasure, *,
                          rng: RngStream) -> CoupledPair:
    """One pair of ``couple_counts`` from a fresh generator of ``rng``.  No
    code of the package calls it: it stays because ``bench/tracing.py`` wraps
    it by name."""
    atoms, *counts = couple_counts(lam, nu, rng.generator(), 1)
    return CoupledPair(*(PointConfiguration.from_counts(atoms, c[0].tolist()) for c in counts))


def mc_expectation(f, m: DiscreteMeasure, plan: MCPlan) -> EstimateResult:
    """Monte Carlo E f(Phi) with batch-means standard error: one count array
    per block, f on all of it (``difference_counts`` at order 0)."""
    atoms = m.support()

    def draw(gen, n, check=False):
        counts = sample_counts(m, size=n, generator=gen)
        return difference_counts(f, counts, atoms, np.zeros((n, 0), dtype=np.int64), check)[None]

    return mc_mean(draw, plan, spot=SPOT_CHECKS).estimate()


@dataclass(frozen=True)
class MeckeResult:
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float

    @property
    def stderr(self) -> float:
        return math.sqrt(self.lhs_stderr**2 + self.rhs_stderr**2)

    def __iter__(self):
        yield self.lhs
        yield self.rhs
        yield self.stderr


def mecke_check(f, m, window, plan: MCPlan) -> MeckeResult:
    """Both sides of the Mecke identity on a discrete measure, estimated with
    standard errors.

    lhs: E sum over points x of Phi of f(x, Phi - delta_x).
    rhs: int E f(x, Phi) m(dx).

    f must be a function of (point, configuration) alone, returning a real.
    The two sides use independent streams, so the combined standard error is
    the quadrature sum.  The right side is one stratified ``mc_mean`` pass
    with one stratum per atom a, estimating E f(a, Phi) on configurations of
    its own; the atoms' masses weight the strata's means and stderrs.  Both
    sides draw count rows.  One lexsort per block finds its distinct rows and
    the index of each row among them; each side is evaluated once per
    distinct row and gathered back.  One memo per call, keyed by the row,
    holds each row's left-side sum and f at each (point, row) on first use,
    so f is evaluated once per distinct (point, configuration) pair of the
    call.  The values and their summation order are those of evaluating
    every replication afresh.
    """
    if not isinstance(m, DiscreteMeasure):
        raise TypeError(f"unsupported measure type {type(m)!r}")
    mr = m.restrict(window)
    atoms = mr.support()

    @cache
    def f_at(x, row):
        return f(x, PointConfiguration.from_counts(atoms, row))

    @cache
    def lhs_sum(row):
        # the atoms run in repr order, as Phi.items() does, and
        # f(x, Phi - delta_x) is f at the row one below at x
        return sum(c * f_at(x, row[:i] + (c - 1,) + row[i + 1:])
                   for i, (x, c) in enumerate(zip(atoms, row)) if c)

    def rows(gen, n):
        """A block's distinct count rows, as tuples, and each row's index
        among them."""
        counts = sample_counts(mr, size=n, generator=gen)
        order = np.lexsort(counts.T[::-1]) if atoms else np.arange(n)
        ranked = counts[order]
        new = np.ones(n, dtype=bool)
        new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        index = np.empty(n, dtype=np.intp)
        index[order] = np.cumsum(new) - 1
        return list(map(tuple, ranked[new].tolist())), index

    def lhs_draw(gen, n):
        distinct, index = rows(gen, n)
        return np.array([[lhs_sum(row) for row in distinct]], dtype=float)[:, index]

    def side_draw(atom):
        def draw(gen, n):
            distinct, index = rows(gen, n)
            return np.array([[f_at(atom, row) for row in distinct]])[:, index]
        return draw

    lhs, lhs_se = mc_mean(lhs_draw, plan.split(0)).estimate()
    rhs_plan = plan.split(1)
    strata = [(side_draw(a), rhs_plan.samples) for a in atoms]
    sides = [r.estimate() for r in mc_mean(strata, rhs_plan)] if atoms else []
    rhs = math.fsum(mr.mass(a) * s.estimate for a, s in zip(atoms, sides))
    rhs_se = math.sqrt(math.fsum((mr.mass(a) * s.stderr) ** 2 for a, s in zip(atoms, sides)))
    return MeckeResult(lhs=lhs, rhs=rhs, lhs_stderr=lhs_se, rhs_stderr=rhs_se)
