"""Derivative estimators for parametrized intensity measures.

All four estimators target d/dtheta E f(Phi) along a family of intensities:

* ``linear_derivative``: int (E_{lam_theta} D_x f) h(x) rho(dx) along the
  linear family (h_lam + (theta - theta0) h) rho, valid at every theta in
  the declared interval.
* ``nonlinear_derivative``: same integral at theta0 for families carrying a
  remainder; the remainder is dominated and vanishes at theta0, so it
  contributes nothing to the derivative there.
* ``scaled_derivative``: the derivative of theta -> E_{theta lam} f for a
  finite measure, int (E_{theta lam} D_x f) lam(dx); the map is analytic in
  theta and a Taylor report is available through the parametric series.
* ``pivotal_derivative``: the same scaled derivative rewritten by the Mecke
  identity as theta^{-1} E sum_x (f(Phi) - f(Phi - delta_x)), the expected
  (optionally weighted) number of pivotal points of an increasing event.

Finite-difference oracles couple their two measures through the sampler's
thinning construction (common random numbers), which is what makes the
3-sigma comparisons meaningful at desk scale.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .configuration import Functional
from .exact import EnumerationPlan
from .measures import DiscreteMeasure, PerturbationFamily
from .rng import EstimateResult, MCPlan, mc_mean
from .sampler import _couple, sample_poisson
from .series import SeriesResult, _signed_atoms, order_one, parametric_series

SPOT_CHECKS = 64  # replications of the first chunk that probe the increasing event


class NonIncreasingEventError(RuntimeError):
    """A sampled pivotal term contradicts the declared increasing event."""


def _direction_weights(family: PerturbationFamily) -> dict:
    rho = family.reference
    return {a: family.direction(a) * rho.mass(a) for a in rho.atoms}


def linear_derivative(f: Functional, family: PerturbationFamily, theta: float,
                      mode: str = "exact", plan: EnumerationPlan | None = None,
                      mc: MCPlan | None = None) -> float | EstimateResult:
    """Derivative of E f along a linear family, at any theta in the interval."""
    if not family.is_linear:
        raise ValueError("linear_derivative expects a remainder-free family")
    if not family.contains(theta):
        raise ValueError(f"theta={theta} outside declared interval {family.interval}")
    lam_theta = family.measure_at(theta)
    weights = _direction_weights(family)
    return order_one(f, lam_theta, *_signed_atoms(weights), mode, plan, mc)


def nonlinear_derivative(f: Functional, family: PerturbationFamily,
                         mode: str = "exact", plan: EnumerationPlan | None = None,
                         mc: MCPlan | None = None) -> float | EstimateResult:
    """Derivative at theta0 of a family with a dominated vanishing remainder.

    Hypotheses are spot-checked by sampling: densities stay nonnegative on
    the interval, the remainder sits under its envelope and shrinks to zero
    at theta0.  The value itself never sees the remainder.
    """
    rho = family.reference
    if not isinstance(rho, DiscreteMeasure):
        raise ValueError("exact-regime family required (discrete reference)")
    if family.remainder is not None and family.envelope is None:
        # the nu << lam special case drops the envelope requirement: the
        # remainder must then vanish in square mean, sampled the same way
        base_is_flat = all(abs(family.base_density(a) - 1.0) < 1e-12 for a in rho.atoms)
        if not base_is_flat:
            raise ValueError("a remainder family needs a square-integrable envelope "
                             "unless the base density is identically one")
    family.validate(list(rho.support()))
    base = family.base_measure()
    weights = _direction_weights(family)
    return order_one(f, base, *_signed_atoms(weights), mode, plan, mc)


def scaled_derivative(f: Functional, lam: DiscreteMeasure, theta: float,
                      mode: str = "exact", plan: EnumerationPlan | None = None,
                      mc: MCPlan | None = None) -> float | EstimateResult:
    """d/dtheta E_{theta lam} f for a finite measure lam, theta >= 0."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    scaled = lam.scaled(theta)
    weights = {a: lam.mass(a) for a in lam.atoms}
    return order_one(f, scaled, *_signed_atoms(weights), mode, plan, mc)


def scaled_taylor_report(f: Functional, lam: DiscreteMeasure, theta: float,
                         n_max: int = 30, plan: EnumerationPlan | None = None
                         ) -> SeriesResult:
    """Taylor expansion of theta -> E_{theta lam} f around zero intensity.

    Exposes the analyticity of the scaled map: coefficients are the empty-
    configuration differences, term n = theta^n/n! int D^n f(empty) dlam^n.
    """
    family = PerturbationFamily.linear(
        rho=lam, base_density=lambda x: 0.0, direction=lambda x: 1.0,
        theta0=0.0, interval=(0.0, max(theta, 1.0)))
    return parametric_series(f, family, theta, n_max=n_max, plan=plan)


def pivotal_derivative(f: Functional, lam: DiscreteMeasure, theta: float,
                       mc: MCPlan, weight: Callable | None = None) -> EstimateResult:
    """Russo-type derivative: expected pivotal count over theta.

    Estimates theta^{-1} E_{theta lam} sum over points x of Phi of
    (f(Phi) - f(Phi - delta_x)) * weight(x).  f must be declared as the
    indicator of an increasing event; the declaration is spot-verified by
    adding a random atom on the first ``SPOT_CHECKS`` replications, and any
    negative sampled pivotal term aborts.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not f.increasing:
        raise NonIncreasingEventError("functional not declared increasing")
    scaled = lam.scaled(theta)
    atoms = lam.support()

    def draw(gen, probe=False):
        phi = sample_poisson(scaled, None, generator=gen)
        base_val = f(phi)
        if probe:
            x = atoms[int(gen.integers(len(atoms)))]
            if f(phi.add([x])) < base_val - 1e-12:
                raise NonIncreasingEventError(
                    f"adding a point decreased the functional at {x!r}")
        total = 0.0
        for x, mult in phi.items():
            term = base_val - f(phi.remove_one(x))
            if term < -1e-12:
                raise NonIncreasingEventError(
                    f"negative pivotal term at {x!r}; event is not increasing")
            w = 1.0 if weight is None else weight(x)
            total += mult * term * w
        return total / theta

    lead = (partial(draw, probe=True), SPOT_CHECKS if atoms else 0)
    return mc_mean(draw, mc, lead=lead).estimate()


def coupled_scale_fd(f: Functional, lam: DiscreteMeasure, theta: float,
                     delta: float, mc: MCPlan) -> EstimateResult:
    """Central finite difference of theta -> E_{theta lam} f with common
    random numbers via the thinning coupling."""
    if theta - delta <= 0:
        raise ValueError("theta - delta must stay positive")
    hi = lam.scaled(theta + delta)
    lo = lam.scaled(theta - delta)

    def draw(gen):
        pair = _couple(hi, lo, None, gen, gen, gen)
        return (f(pair.phi_lambda) - f(pair.phi_nu)) / (2.0 * delta)

    return mc_mean(draw, mc).estimate()


def richardson_fd(values: Callable[[float], float], theta: float,
                  deltas: Sequence[float] = (1e-2, 1e-3)) -> float:
    """Richardson-extrapolated central difference from two step sizes."""
    d1, d2 = deltas
    fd1 = (values(theta + d1) - values(theta - d1)) / (2 * d1)
    fd2 = (values(theta + d2) - values(theta - d2)) / (2 * d2)
    r = (d1 / d2) ** 2
    return (r * fd2 - fd1) / (r - 1.0)


@dataclass(frozen=True)
class DerivativeRow:
    estimator: str
    theta: float
    estimate: float
    stderr: float
    oracle: float

    @property
    def gap_sigmas(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.estimate == self.oracle else float("inf")
        return abs(self.estimate - self.oracle) / self.stderr


def derivative_rows_csv(rows: Sequence[DerivativeRow], target=None) -> str | None:
    own = target is None
    buf = io.StringIO() if own else target
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["estimator", "theta", "estimate", "stderr", "oracle", "gap_over_sigma"])
    for r in rows:
        writer.writerow([r.estimator, format(r.theta, ".17g"), format(r.estimate, ".17g"),
                         format(r.stderr, ".17g"), format(r.oracle, ".17g"),
                         format(r.gap_sigmas, ".17g")])
    if own:
        return buf.getvalue()
    return None
