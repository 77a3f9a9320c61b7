"""Likelihood ratios between Poisson laws and change-of-measure expectations.

For a target measure nu with density h against a reference rho, the density
of the Poisson law of nu with respect to that of rho evaluated at a finite
configuration phi is

    L(phi) = exp(rho(C) - nu(C)) * prod over points y of phi in C of h(y),

with C the set where h differs from one and the convention log 0 = -inf (a
single point carrying h = 0 forces L = 0).  On a finite discrete space C is
exactly the set {h != 1} and the formula is closed; on a window of finite
mass the same single-set formula is exact with C the whole window.

Standing assumption: int (h-1)^2 drho finite.  Under it E_rho L = 1 and
E_rho L^2 <= exp(int (h-1)^2 drho); on a finite discrete space the second
moment attains the bound exactly.  A classical fact worth recording: for
bounded h the standing assumption is not only sufficient but also necessary
for absolute continuity of the Poisson laws.  The code only reports the
square gap; it never tries to decide absolute continuity beyond that.
Exact expectations of L-weighted integrands enumerate under rho with caps
that also cover the measures L reweights to (``exact.expectation_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import Functional, PointConfiguration
from .exact import exact_expectation
from .measures import DEFAULT_CAP, ConditionError, DiscreteMeasure
from .sampler import MCPlan, mc_expectation


@dataclass(frozen=True)
class LikelihoodRatio:
    """Radon-Nikodym density of Poisson(nu) with respect to Poisson(rho)."""

    support: tuple
    h: dict
    log_offset: float      # rho(C) - nu(C)
    square_gap: float      # int (h-1)^2 drho

    @staticmethod
    def from_discrete(nu: DiscreteMeasure, rho: DiscreteMeasure) -> "LikelihoodRatio":
        h = nu.density_against(rho)
        support = tuple(a for a in rho.atoms if h[a] != 1.0)
        log_offset = math.fsum(rho.mass(a) - nu.mass(a) for a in support)
        square_gap = math.fsum((h[a] - 1.0) ** 2 * rho.mass(a) for a in rho.atoms)
        return LikelihoodRatio(support=support, h=h, log_offset=log_offset,
                               square_gap=square_gap)

    def weighted(self, g: Functional) -> Functional:
        """The integrand L g of the reweighting identity, with a count form
        whenever g has one."""
        return Functional(
            lambda phi: likelihood_eval(self, phi) * g(phi),
            growth_degree=g.growth_degree, name=f"L*{g.name}",
            counts=None if g.counts is None else
            lambda cs, atoms: likelihood_counts(self, cs, atoms) * g.counts(cs, atoms))


def likelihood_eval(L: LikelihoodRatio, phi: PointConfiguration) -> float:
    """L(phi) = exp(log_offset + sum over support points of log h).

    The log terms are added in the order of ``phi.items()``, which
    ``likelihood_counts`` repeats on arrays, so both give the same bits.  Any
    point of phi sitting on an atom with h = 0 short-circuits to 0, honoring
    log 0 = -inf.
    """
    support = set(L.support)
    log_sum = L.log_offset
    for y, mult in phi.items():
        if y not in support:
            continue
        hy = L.h.get(y, 0.0)
        if hy == 0.0:
            return 0.0
        log_sum += mult * math.log(hy)
    return math.exp(log_sum)


def likelihood_counts(L: LikelihoodRatio, cs, atoms) -> np.ndarray:
    """``likelihood_eval`` on a count lattice (the ``Functional.counts`` form).

    Only the axes of support atoms enter the log sum, so it spans those
    axes alone; ``math.exp`` is applied per entry of that sum to match the
    scalar route bit for bit.
    """
    support = set(L.support)
    log_sum = L.log_offset
    alive = True
    for a, c in sorted(zip(atoms, cs), key=lambda ac: repr(ac[0])):
        if a not in support:
            continue
        hy = L.h.get(a, 0.0)
        if hy == 0.0:
            alive = alive & (c == 0)
        else:
            log_sum = log_sum + c * math.log(hy)
    log_sum = np.asarray(log_sum, dtype=float)
    values = np.fromiter(map(math.exp, log_sum.ravel().tolist()), dtype=float,
                         count=log_sum.size).reshape(log_sum.shape)
    return np.where(alive, values, 0.0)


def second_moment_bound(nu: DiscreteMeasure, rho: DiscreteMeasure) -> float:
    """exp(int (h-1)^2 drho), the proven ceiling for E_rho L^2."""
    L = LikelihoodRatio.from_discrete(nu, rho)
    return math.exp(L.square_gap)


def reweighted_expectation(g: Functional, nu: DiscreteMeasure, rho: DiscreteMeasure,
                           mode: str = "exact", mc: MCPlan | None = None):
    """E_rho[L(Phi) g(Phi)], which equals E_nu g(Phi).

    Exact mode enumerates under rho with ``cover=(nu,)``: L g puts its
    mass where nu does, so each atom's cap covers nu's mass too.  The
    square-integrability hypothesis is hard here: a capped gap raises
    ``ConditionError`` instead of warning, because the identity itself
    assumes it.
    """
    L = LikelihoodRatio.from_discrete(nu, rho)
    if not math.isfinite(L.square_gap) or L.square_gap >= DEFAULT_CAP:
        raise ConditionError(
            f"int (h-1)^2 drho = {L.square_gap:g} is not acceptably finite")
    weighted = L.weighted(g)
    if mode == "exact":
        return exact_expectation(weighted, rho, (nu,))
    if mode == "mc":
        if mc is None:
            raise ValueError("mc mode needs an MCPlan")
        return mc_expectation(weighted, rho, plan=mc)
    raise ValueError(f"unknown mode {mode!r}")


def second_moment_exact(nu: DiscreteMeasure, rho: DiscreteMeasure) -> float:
    """Exact E_rho L^2 by enumeration; equals the bound on finite spaces.  L^2
    weights counts like a Poisson law with masses h^2 rho = nu^2 / rho, so
    the caps cover that tilted measure and rho, which between them cover nu.
    L^2 overflowing a float on the lattice raises ``ValueError``."""
    L = LikelihoodRatio.from_discrete(nu, rho)
    squared = Functional(lambda phi: likelihood_eval(L, phi) ** 2, name="L^2",
                         counts=lambda cs, atoms: likelihood_counts(L, cs, atoms) ** 2)
    tilted = DiscreteMeasure({a: (L.h[a] ** 2) * rho.mass(a) for a in rho.atoms})
    try:
        with np.errstate(over="ignore"):
            value = exact_expectation(squared, rho, (tilted,))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"E_rho L^2 overflows on the enumeration lattice "
                         f"(bound exp({L.square_gap:.6g}))")
    return value
