"""Poisson configuration sampling, the thinning/superposition coupling, and
the Mecke-identity test harness.

Sampling follows the mixed-sample construction: on a window of finite mass M
draw N ~ Poisson(M) and then N points i.i.d. from the normalized measure.
For a density measure h * ref the same law is realized by envelope thinning
(sample from bound * ref, retain with probability h/bound), which never needs
the tilted total mass.

Finite-difference oracles elsewhere couple two intensities with
``thin_superpose_couple``: points of the lower envelope are shared, which is
what makes coupled differences low variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import PointConfiguration
from .measures import DensityMeasure, DiscreteMeasure, MeasureMismatchError
from .rng import EstimateResult, MCPlan, RngStream, mc_mean


def sample_poisson(m, window=None, rng: RngStream | None = None,
                   generator: np.random.Generator | None = None) -> PointConfiguration:
    """One Poisson configuration with intensity m restricted to the window."""
    if generator is None:
        if rng is None:
            raise ValueError("pass an RngStream or an explicit generator")
        generator = rng.generator()
    if isinstance(m, DiscreteMeasure):
        mr = m.restrict(window)
        atoms = mr.support()
        total = mr.total()
        if total == 0.0:
            return PointConfiguration.empty()
        n = int(generator.poisson(total))
        if n == 0:
            return PointConfiguration.empty()
        if len(atoms) == 1:
            return PointConfiguration._trusted({atoms[0]: n}, n)
        probs = np.array([mr.mass(a) for a in atoms]) / total
        draws = generator.choice(len(atoms), size=n, p=probs)
        counts: dict = {}
        for i in draws:
            a = atoms[int(i)]
            counts[a] = counts.get(a, 0) + 1
        return PointConfiguration(counts)
    if isinstance(m, DensityMeasure):
        win = window or m.window()
        mass = m.reference_mass(win)
        if not math.isfinite(mass):
            raise ValueError("window has infinite reference mass")
        if m.density_bound is None:
            raise ValueError("density measure sampling needs a density bound")
        n = int(generator.poisson(m.density_bound * mass))
        if n == 0:
            return PointConfiguration.empty()
        pts = m.reference_sampler(win, generator, n)
        u = generator.random(n)
        kept = [tuple(p) for p, ui in zip(pts, u)
                if ui * m.density_bound < m.density_at(tuple(p))]
        return PointConfiguration.from_points(kept)
    raise TypeError(f"unsupported measure type {type(m)!r}")


def sample_counts(m: DiscreteMeasure, window, rng: RngStream, size: int) -> np.ndarray:
    """Vectorized per-atom Poisson counts, shape (size, n_atoms).

    Same law as ``sample_poisson`` on a discrete measure (independent counts
    per atom), drawn in a layout suited to big replication batteries.
    """
    mr = m.restrict(window)
    masses = np.array([mr.mass(a) for a in mr.support()])
    gen = rng.generator()
    if masses.size == 0:
        return np.zeros((size, 0), dtype=np.int64)
    return gen.poisson(masses, size=(size, masses.size))


@dataclass(frozen=True)
class CoupledPair:
    """Configurations of both intensities plus their shared retained points."""

    phi_lambda: PointConfiguration
    phi_nu: PointConfiguration
    shared: PointConfiguration


def thin_superpose_couple(lam, nu, window=None, rng: RngStream | None = None) -> CoupledPair:
    """Couple Poisson(lam) and Poisson(nu) by independent thinning plus an
    independent superposed remainder.

    On A = {h_lam > h_nu} each point of the lam-configuration survives with
    probability h_nu/h_lam; elsewhere it always survives.  An independent
    Poisson configuration with intensity (h_nu - h_lam)^+ drho is added.  The
    marginals are exactly the two Poisson laws.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    return _couple(lam, nu, window, rng.child(0).generator(), rng.child(1).generator(),
                   rng.child(2).generator())


def _couple(lam, nu, window, gen_base, gen_thin, gen_extra) -> CoupledPair:
    """The coupling drawn from explicit generators: the base configuration,
    the thinning coins and the superposed remainder may share one."""
    if isinstance(lam, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        lam_r, nu_r = lam.restrict(window), nu.restrict(window)
        phi_l = sample_poisson(lam_r, None, generator=gen_base)
        kept: dict = {}
        for a, mult in phi_l.items():
            hl, hn = lam_r.mass(a), nu_r.mass(a)
            if hl > hn:
                p = hn / hl  # hl > hn >= 0, no division hazard
                k = int(gen_thin.binomial(mult, p))
            else:
                k = mult
            if k:
                kept[a] = k
        shared = PointConfiguration(kept)
        extra_masses = {a: nu_r.mass(a) - lam_r.mass(a)
                        for a in set(lam_r.atoms) | set(nu_r.atoms)
                        if nu_r.mass(a) > lam_r.mass(a)}
        extra = sample_poisson(DiscreteMeasure(extra_masses), None, generator=gen_extra)
        phi_n = shared.add(extra.points())
        return CoupledPair(phi_l, phi_n, shared)

    if isinstance(lam, DensityMeasure) and isinstance(nu, DensityMeasure):
        if not lam.same_reference(nu):
            raise MeasureMismatchError("coupling needs a common reference")
        win = window or lam.window()
        phi_l = sample_poisson(lam, win, generator=gen_base)
        kept = {}
        for p, mult in phi_l.items():
            hl, hn = lam.density_at(p), nu.density_at(p)
            if hl > hn:
                k = int(gen_thin.binomial(mult, hn / hl))
            else:
                k = mult
            if k:
                kept[p] = k
        shared = PointConfiguration(kept)
        if lam.density_bound is None or nu.density_bound is None:
            raise ValueError("density bounds required for the superposed part")
        diff_bound = nu.density_bound + lam.density_bound

        def diff_density(point):
            return max(nu.density_at(point) - lam.density_at(point), 0.0)

        extra_measure = DensityMeasure(
            space=lam.space, reference_mass=lam.reference_mass,
            reference_sampler=lam.reference_sampler, density=diff_density,
            density_bound=diff_bound, reference_token=lam.reference_token)
        extra = sample_poisson(extra_measure, win, generator=gen_extra)
        phi_n = shared.add(extra.points())
        return CoupledPair(phi_l, phi_n, shared)
    raise TypeError("coupling requires two measures of the same regime")


def mc_expectation(f, m, window=None, plan: MCPlan | None = None) -> EstimateResult:
    """Monte Carlo E f(Phi) with batch-means standard error."""
    if plan is None:
        raise ValueError("an MCPlan is required")
    return mc_mean(lambda gen: f(sample_poisson(m, window, generator=gen)), plan).estimate()


@dataclass(frozen=True)
class MeckeResult:
    lhs: float
    rhs: float
    stderr: float
    lhs_stderr: float
    rhs_stderr: float

    def __iter__(self):
        yield self.lhs
        yield self.rhs
        yield self.stderr


def mecke_check(f, m, window=None, plan: MCPlan | None = None) -> MeckeResult:
    """Both sides of the Mecke identity, estimated with standard errors.

    lhs: E sum over points x of Phi of f(x, Phi - delta_x).
    rhs: int E f(x, Phi) m(dx).

    f is a callable (point, configuration) -> real.  The two sides use
    independent streams, so the combined standard error is the quadrature sum.
    """
    if plan is None:
        raise ValueError("an MCPlan is required")

    def lhs_draw(gen):
        phi = sample_poisson(m, window, generator=gen)
        total = 0.0
        for x, mult in phi.items():
            total += mult * f(x, phi.remove_one(x))
        return total

    lhs, lhs_se = mc_mean(lhs_draw, plan.split(0)).estimate()

    rhs_plan = plan.split(1)
    if isinstance(m, DiscreteMeasure):
        mr = m.restrict(window)
        rhs_parts, rhs_vars = [], []
        for j, atom in enumerate(mr.support()):
            mean_a, se_a = mc_mean(
                lambda gen, _a=atom: f(_a, sample_poisson(mr, None, generator=gen)),
                rhs_plan.split(j)).estimate()
            rhs_parts.append(mr.mass(atom) * mean_a)
            rhs_vars.append((mr.mass(atom) * se_a) ** 2)
        rhs = math.fsum(rhs_parts)
        rhs_se = math.sqrt(math.fsum(rhs_vars))
    elif isinstance(m, DensityMeasure):
        win = window or m.window()
        mass_ref = m.reference_mass(win)

        def rhs_draw(gen):
            # int E f dm = mass_ref * E_{x ~ ref/mass}[h(x) E f(x, Phi)]
            p = tuple(m.reference_sampler(win, gen, 1)[0])
            phi = sample_poisson(m, win, generator=gen)
            return m.density_at(p) * f(p, phi)

        mean_r, se_r = mc_mean(rhs_draw, rhs_plan).estimate()
        rhs = mass_ref * mean_r
        rhs_se = mass_ref * se_r
    else:
        raise TypeError(f"unsupported measure type {type(m)!r}")

    return MeckeResult(lhs=lhs, rhs=rhs,
                       stderr=math.sqrt(lhs_se**2 + rhs_se**2),
                       lhs_stderr=lhs_se, rhs_stderr=rhs_se)
