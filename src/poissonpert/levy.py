"""Levy processes from characteristic triplets and perturbations of the jump
measure.

A model is (sigma^2, drift, nu) with the jump measure given as a density
``g_nu`` against a reference jump measure built from a small library
(two-sided power tails, gamma tails, compound Poisson).  Paths are simulated
by sampling jumps above a threshold eps exactly and dropping the rest:

* in the compensated parameterization the drift absorbs the correction
  -int_{eps<|x|<=1} x nu(dx), so truncation leaves the mean exact and biases
  only centered small-jump fluctuation;
* for finite-variation jump parts the plain parameterization X = a t + jumps
  is used and no compensator enters.

Small jumps are never Gaussian-approximated, keeping the bias budget a pair
of explicit integrals (reported by ``small_jump_budget``).

The derivative machinery perturbs the jump density along a direction g with
drift adjusted accordingly; the path-difference operator inserts a jump
(t, x) into a path, and first-order sensitivities take the form

    int int (E Delta_{t,x} f(X)) g(x) dt nu_ref(dx)

estimated by sampling (t, x) from dt tensor |g| d nu_ref with signs carried
as weights and the inner difference evaluated on a common path.  The running
supremum admits a closed difference kernel (x - Y_t)^+ - (Y_t)^- with
Y_t the gap between past and future suprema, which the supremum estimator
exploits and cross-checks path by path.

Everything here is univariate; the data model keeps a dimension field for
interface stability and rejects d > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .rng import EstimateResult, MCPlan, RngStream, mc_mean
from .series import SeriesResult, mc_series

CAP = 1e12
Q_BINS = 81  # bins of the Y_t summary of ``supremum_derivative``


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to an acceptable error."""


class ConditionError(RuntimeError):
    """A hypothesis of the requested expansion or derivative fails."""


def _panel_quad(fn, lo: float, hi: float) -> float:
    """Integrate fn over (lo, hi] with geometric panels toward 0 and a tail
    panel to infinity; raises when the accumulated error estimate is poor."""
    panels = []
    if lo <= 0.0:
        anchor = min(1.0, hi if math.isfinite(hi) else 1.0)
        edges = [anchor * 2.0 ** (-k) for k in range(45, -1, -1)]
        edges = [e for e in edges if e < (hi if math.isfinite(hi) else math.inf)]
        prev = 0.0
        for e in edges:
            panels.append((prev, e))
            prev = e
        lo = prev
    if math.isfinite(hi):
        if hi > lo:
            panels.append((lo, hi))
    else:
        step = max(lo, 1.0)
        cur = lo
        for _ in range(6):
            panels.append((cur, cur + 10 * step))
            cur += 10 * step
            step *= 10
        panels.append((cur, np.inf))
    total, err = 0.0, 0.0
    for a, b in panels:
        if not b > a:
            continue
        v, e = _integrate.quad(fn, a, b, limit=200)
        total += v
        err += e
    if err > max(1e-9, 1e-7 * abs(total)):
        raise QuadratureError(f"quadrature error estimate {err:g} too large")
    return total


# ---------------------------------------------------------------------------
# Reference jump measure builders
# ---------------------------------------------------------------------------


class _ReferenceMeasure:
    """Reference jump measures compare by value: builders of one kind with
    equal parameters are the same measure, wherever they were built."""

    def _params(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self):
        return hash((type(self).__name__, self._params()))


class CompoundPoissonJumps(_ReferenceMeasure):
    """Finite jump measure: a discrete law of jump sizes times a total rate."""

    def __init__(self, atoms: dict):
        clean = {}
        for size, mass in atoms.items():
            s, m = float(size), float(mass)
            if s == 0.0:
                raise ValueError("jump size 0 is not allowed")
            if m < 0 or not math.isfinite(m):
                raise ValueError("atom masses must be finite and nonnegative")
            clean[s] = m
        self.sizes = np.array(sorted(clean))
        self.masses = np.array([clean[s] for s in self.sizes])
        self.min_eps = 0.0
        self.finite_variation = True

    def _params(self) -> tuple:
        return tuple(self.sizes.tolist()), tuple(self.masses.tolist())

    @property
    def mom5_ok(self) -> bool:
        return True

    def mass_above(self, eps: float) -> float:
        return float(self.masses[np.abs(self.sizes) > eps].sum())

    def sample_above(self, eps, n, gen) -> np.ndarray:
        keep = np.abs(self.sizes) > eps
        sizes, masses = self.sizes[keep], self.masses[keep]
        if n == 0 or sizes.size == 0:
            return np.empty(0)
        idx = gen.choice(sizes.size, size=n, p=masses / masses.sum())
        return sizes[idx]

    def integrate(self, fn, lo: float, hi: float) -> float:
        keep = (np.abs(self.sizes) > lo) & (np.abs(self.sizes) <= hi)
        if not np.any(keep):
            return 0.0
        return float(np.sum(np.asarray(fn(self.sizes[keep])) * self.masses[keep]))


class StableJumps(_ReferenceMeasure):
    """Two-sided power-tail jump measure c_pos x^(-a-1) dx + c_neg |x|^(-a-1) dx."""

    def __init__(self, alpha: float, c_pos: float = 1.0, c_neg: float = 1.0):
        if not 0.0 < alpha < 2.0:
            raise ValueError("stable index must lie in (0, 2)")
        if c_pos < 0 or c_neg < 0 or c_pos + c_neg == 0:
            raise ValueError("tail weights must be nonnegative with positive sum")
        self.alpha = alpha
        self.c_pos = c_pos
        self.c_neg = c_neg
        self.min_eps = None  # infinite activity: a positive eps is mandatory
        self.finite_variation = alpha < 1.0

    def _params(self) -> tuple:
        return self.alpha, self.c_pos, self.c_neg

    @property
    def mom5_ok(self) -> bool:
        # int_{x>1} x^2 * x^(-alpha-1) dx diverges for alpha < 2
        return self.c_pos == 0.0

    def mass_above(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("power-tail jumps have infinite activity; eps must be positive")
        return (self.c_pos + self.c_neg) / self.alpha * eps ** (-self.alpha)

    def sample_above(self, eps, n, gen) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        r = eps * gen.random(n) ** (-1.0 / self.alpha)
        signs = np.where(gen.random(n) < self.c_pos / (self.c_pos + self.c_neg), 1.0, -1.0)
        return r * signs

    def integrate(self, fn, lo: float, hi: float) -> float:
        total = 0.0
        if self.c_pos > 0:
            total += self.c_pos * _panel_quad(
                lambda r: fn(r) * r ** (-self.alpha - 1.0), lo, hi)
        if self.c_neg > 0:
            total += self.c_neg * _panel_quad(
                lambda r: fn(-r) * r ** (-self.alpha - 1.0), lo, hi)
        return total


class GammaJumps(_ReferenceMeasure):
    """Gamma-process jump measure theta x^(-1) exp(-beta x) dx on x > 0."""

    def __init__(self, theta: float, beta: float, grid_points: int = 4097):
        if theta <= 0 or beta <= 0:
            raise ValueError("theta and beta must be positive")
        self.theta = theta
        self.beta = beta
        self.grid_points = grid_points
        self.min_eps = None
        self.finite_variation = True
        self._cdf_cache: dict = {}

    def _params(self) -> tuple:
        # the grid is part of the sampler, so it is part of the measure's identity
        return self.theta, self.beta, self.grid_points

    @property
    def mom5_ok(self) -> bool:
        return True

    def mass_above(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("gamma jumps have infinite activity; eps must be positive")
        return self.theta * float(_special.exp1(self.beta * eps))

    def _inverse_cdf(self, eps: float):
        key = float(eps)
        if key not in self._cdf_cache:
            x_max = eps + 60.0 / self.beta
            xs = np.geomspace(eps, x_max, self.grid_points)
            tail = _special.exp1(self.beta * xs) / _special.exp1(self.beta * eps)
            cdf = np.clip(1.0 - tail, 0.0, 1.0)
            cdf[0], cdf[-1] = 0.0, 1.0
            self._cdf_cache[key] = (cdf, xs)
        return self._cdf_cache[key]

    def sample_above(self, eps, n, gen) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        cdf, xs = self._inverse_cdf(eps)
        return np.interp(gen.random(n), cdf, xs)

    def integrate(self, fn, lo: float, hi: float) -> float:
        return self.theta * _panel_quad(
            lambda r: fn(r) * math.exp(-self.beta * r) / r, lo, hi)


# ---------------------------------------------------------------------------
# Signed directions g against a reference jump measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpDirection:
    """A signed density direction with its sampling and moment toolkit.

    ``abs_mass_above(eps)`` and ``sample_above`` drive the outer importance
    sampling from |g| d nu_ref; ``min_eps`` is None when |g| d nu_ref is not
    normalizable at the origin and a positive truncation is mandatory.
    ``x_abs_below(eps)`` bounds the truncation bias through
    2 t0 int_{|x|<=eps} |x| |g| d nu_ref.
    """

    g: Callable[[np.ndarray], np.ndarray]
    square_integral: float
    x_wedge_integral: float
    drift_moment: float
    g_bound: float
    abs_mass_above: Callable[[float], float]
    sample_above: Callable[[float, int, np.random.Generator], np.ndarray]
    x_abs_below: Callable[[float], float]
    min_eps: float | None = 0.0


def cp_direction(nu_ref: CompoundPoissonJumps, g_map: dict) -> JumpDirection:
    sizes = nu_ref.sizes
    gvals = np.array([float(g_map.get(float(s), 0.0)) for s in sizes])
    masses = nu_ref.masses
    absw = np.abs(gvals) * masses

    def g(x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(sizes, x)
        idx = np.clip(idx, 0, sizes.size - 1)
        out = np.where(np.isclose(sizes[idx], x), gvals[idx], 0.0)
        return out if out.shape else float(out)

    def abs_mass_above(eps):
        return float(absw[np.abs(sizes) > eps].sum())

    def sample_above(eps, n, gen):
        keep = np.abs(sizes) > eps
        s, w = sizes[keep], absw[keep]
        if n == 0 or s.size == 0 or w.sum() == 0:
            return np.empty(0)
        return s[gen.choice(s.size, size=n, p=w / w.sum())]

    def x_abs_below(eps):
        keep = np.abs(sizes) <= eps
        return float((np.abs(sizes[keep]) * absw[keep]).sum())

    return JumpDirection(
        g=g,
        square_integral=float((gvals ** 2 * masses).sum()),
        x_wedge_integral=float((np.minimum(np.abs(sizes), 1.0) * absw).sum()),
        drift_moment=float((sizes * gvals * masses)[np.abs(sizes) <= 1.0].sum()),
        g_bound=float(np.max(np.abs(gvals))) if gvals.size else 0.0,
        abs_mass_above=abs_mass_above,
        sample_above=sample_above,
        x_abs_below=x_abs_below,
        min_eps=0.0,
    )


def gamma_scale_direction(theta: float, beta0: float, nu_ref: StableJumps) -> JumpDirection:
    """Direction of the scale derivative of a gamma jump component laid over a
    positive power-tail reference: g(x) = -theta x^(alpha+1) exp(-beta0 x).

    Against the reference, |g| d nu_ref collapses to a pure exponential
    theta c_pos exp(-beta0 x) dx, so every moment is closed form.
    """
    if nu_ref.c_pos <= 0:
        raise ValueError("reference needs a positive tail")
    alpha, c = nu_ref.alpha, nu_ref.c_pos

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, -theta * np.power(np.maximum(x, 0), alpha + 1.0)
                       * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
        return out if out.shape else float(out)

    int01 = (1.0 - (1.0 + beta0) * math.exp(-beta0)) / beta0 ** 2  # int_0^1 x e^(-b x)

    return JumpDirection(
        g=g,
        square_integral=theta ** 2 * c * _special.gamma(alpha + 2.0) / (2 * beta0) ** (alpha + 2.0),
        x_wedge_integral=theta * c * (int01 + math.exp(-beta0) / beta0),
        drift_moment=-theta * c * int01,
        g_bound=theta * ((alpha + 1.0) / beta0) ** (alpha + 1.0) * math.exp(-(alpha + 1.0)),
        abs_mass_above=lambda eps: theta * c * math.exp(-beta0 * eps) / beta0,
        sample_above=lambda eps, n, gen: eps + gen.exponential(1.0 / beta0, n),
        x_abs_below=lambda eps: theta * c
        * (1.0 - (1.0 + beta0 * eps) * math.exp(-beta0 * eps)) / beta0 ** 2,
        min_eps=0.0,
    )


def gamma_shape_direction(beta: float, nu_ref: StableJumps) -> JumpDirection:
    """Direction adding a gamma jump component per unit shape:
    g(x) = x^alpha exp(-beta x)/c_pos on x > 0, so |g| d nu_ref is the gamma
    jump measure itself (log-divergent at 0: truncation is mandatory)."""
    if nu_ref.c_pos <= 0:
        raise ValueError("reference needs a positive tail")
    alpha, c = nu_ref.alpha, nu_ref.c_pos
    sampler = GammaJumps(1.0, beta)

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, np.power(np.maximum(x, 0), alpha)
                       * np.exp(-beta * np.maximum(x, 0)) / c, 0.0)
        return out if out.shape else float(out)

    return JumpDirection(
        g=g,
        square_integral=_special.gamma(alpha) / (c * (2 * beta) ** alpha),
        x_wedge_integral=(1.0 - math.exp(-beta)) / beta + float(_special.exp1(beta)),
        drift_moment=(1.0 - math.exp(-beta)) / beta,
        g_bound=(alpha / beta) ** alpha * math.exp(-alpha) / c,
        abs_mass_above=lambda eps: float(_special.exp1(beta * eps)),
        sample_above=lambda eps, n, gen: sampler.sample_above(eps, n, gen),
        x_abs_below=lambda eps: (1.0 - math.exp(-beta * eps)) / beta,
        min_eps=None,
    )


def stable_direction(alpha_dir: float, q_pos: float, q_neg: float,
                     nu_ref: StableJumps) -> JumpDirection:
    """Direction adding a power-tail component supported on |x| <= 1.

    Square integrability against the reference demands alpha_dir < alpha/2,
    which is enforced.
    """
    alpha = nu_ref.alpha
    if not 0.0 < alpha_dir < alpha / 2.0:
        raise ValueError(f"need 0 < alpha_dir < alpha/2 = {alpha / 2:g}")
    qc = []
    for q, cc in ((q_pos, nu_ref.c_pos), (q_neg, nu_ref.c_neg)):
        if q > 0 and cc == 0:
            raise ValueError("direction tail not dominated by the reference")
        qc.append((q, cc))
    qsum = q_pos + q_neg

    def g(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            pos = np.where((x > 0) & (ax <= 1.0) & (nu_ref.c_pos > 0),
                           q_pos / max(nu_ref.c_pos, 1e-300) * ax ** (alpha - alpha_dir), 0.0)
            neg = np.where((x < 0) & (ax <= 1.0) & (nu_ref.c_neg > 0),
                           q_neg / max(nu_ref.c_neg, 1e-300) * ax ** (alpha - alpha_dir), 0.0)
        out = pos + neg
        return out if out.shape else float(out)

    def abs_mass_above(eps):
        if eps <= 0:
            raise ValueError("this direction needs a positive truncation")
        if eps >= 1.0:
            return 0.0
        return qsum * (eps ** (-alpha_dir) - 1.0) / alpha_dir

    def sample_above(eps, n, gen):
        if n == 0:
            return np.empty(0)
        top = eps ** (-alpha_dir)
        u = gen.random(n)
        r = (top - u * (top - 1.0)) ** (-1.0 / alpha_dir)
        signs = np.where(gen.random(n) < q_pos / qsum, 1.0, -1.0)
        return r * signs

    square = 0.0
    for q, cc in qc:
        if q > 0:
            square += q * q / cc / (alpha - 2 * alpha_dir)
    return JumpDirection(
        g=g,
        square_integral=square,
        x_wedge_integral=qsum / (1.0 - alpha_dir),
        drift_moment=(q_pos - q_neg) / (1.0 - alpha_dir),
        g_bound=max(q_pos / nu_ref.c_pos if nu_ref.c_pos else 0.0,
                    q_neg / nu_ref.c_neg if nu_ref.c_neg else 0.0),
        abs_mass_above=abs_mass_above,
        sample_above=sample_above,
        x_abs_below=lambda eps: qsum * min(eps, 1.0) ** (1.0 - alpha_dir) / (1.0 - alpha_dir),
        min_eps=None,
    )


@dataclass(frozen=True)
class JumpPerturbation:
    """theta-family of jump densities g_nu + (theta - theta0)(g + R_theta)."""

    direction: JumpDirection
    theta0: float = 0.0
    interval: tuple[float, float] = (0.0, 1.0)
    remainder: Callable | None = None       # (theta, x array) -> array
    envelope: Callable | None = None        # dominating |R_theta| <= envelope
    envelope_bound: float = 0.0             # sup of the envelope

    def contains(self, theta: float) -> bool:
        lo, hi = self.interval
        return lo <= theta <= hi


# ---------------------------------------------------------------------------
# Model and paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpDensity:
    """A jump density g against the reference that also evaluates its gap
    g - 1 directly.

    Where g is within rounding of 1 (near the origin of a power-tail
    perturbation), forming g - 1 from values of g loses every significant
    digit, so the hypothesis integrals of ``check_pair`` use ``gap``.
    Calling the object returns g itself, which is what thinning uses.
    """

    value: Callable
    gap: Callable

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class LevyModel:
    """Characteristic triplet with simulation controls.

    The jump measure is ``density * jumps``; references compare by value
    (equal builder parameters are one measure).  ``density`` is None for the
    reference itself, a plain callable g, or a ``JumpDensity`` that also
    carries the gap g - 1 (see ``gap``).

    ``drift_form``: "plain" means X = drift*t + W + sum of jumps (valid only
    for finite-variation jump parts); "compensated" means the drift pairs
    with compensated small jumps, and the simulated slope carries the exact
    correction for the retained range (eps, 1].
    """

    jumps: object
    density: Callable | None = None
    density_bound: float = 1.0
    drift: float = 0.0
    drift_form: str = "plain"
    sigma2: float = 0.0
    t0: float = 1.0
    eps: float = 0.0
    grid_n: int = 256
    dimension: int = 1
    slope: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.dimension != 1:
            raise ValueError("only univariate models are supported")
        if self.t0 <= 0:
            raise ValueError("horizon must be positive")
        if self.sigma2 < 0:
            raise ValueError("Wiener variance must be nonnegative")
        if self.drift_form not in ("plain", "compensated"):
            raise ValueError(f"unknown drift form {self.drift_form!r}")
        if self.eps <= 0 and self.jumps.min_eps is None:
            raise ValueError("eps = 0 with an infinite-activity jump measure")
        if self.drift_form == "plain" and not self.jumps.finite_variation:
            raise ValueError("plain drift form requires finite-variation jumps")
        if self.drift_form == "plain":
            slope = self.drift
        else:
            slope = self.drift - self.nu_integral(lambda x: x, self.eps, 1.0)
        object.__setattr__(self, "slope", slope)

    def g(self, x):
        if self.density is None:
            x = np.asarray(x, dtype=float)
            return np.ones_like(x) if x.shape else 1.0
        return self.density(x)

    def gap(self, x):
        """The density gap g(x) - 1: carried by a ``JumpDensity``, otherwise
        formed from g (exactly 0 for the reference itself)."""
        if isinstance(self.density, JumpDensity):
            return self.density.gap(x)
        return np.asarray(self.g(x)) - 1.0

    def nu_integral(self, fn, lo: float, hi: float) -> float:
        """int_{lo<|x|<=hi} fn(x) nu(dx) with nu = g_nu * nu_ref."""
        if self.density is None:
            return self.jumps.integrate(fn, lo, hi)
        return self.jumps.integrate(lambda x: np.asarray(fn(x)) * np.asarray(self.density(x)),
                                    lo, hi)

    def jump_rate(self) -> float:
        """Envelope Poisson rate for jumps above eps over the horizon."""
        return self.t0 * self.density_bound * self.jumps.mass_above(self.eps)

    def moments(self) -> dict:
        """Triplet mean and variance of X_{t0} for the simulated process."""
        if self.drift_form == "plain":
            mean = self.t0 * (self.drift + self.nu_integral(lambda x: x, self.eps, np.inf))
        else:
            mean = self.t0 * (self.drift + self.nu_integral(lambda x: x, 1.0, np.inf))
        var = self.t0 * (self.sigma2 + self.nu_integral(lambda x: x * x, self.eps, np.inf))
        return {"mean": mean, "var": var}

    def small_jump_budget(self) -> dict:
        """Bias budget of the eps truncation: dropped mean (plain form only,
        compensated truncation is mean-exact) and dropped compensated
        variance."""
        var_below = self.nu_integral(lambda x: x * x, 0.0, self.eps) if self.eps > 0 else 0.0
        mean_below = 0.0
        if self.drift_form == "plain" and self.eps > 0:
            mean_below = self.nu_integral(lambda x: x, 0.0, self.eps)
        return {"mean_below": self.t0 * mean_below, "var_below": self.t0 * var_below}


class CadlagPath:
    """A simulated path: linear-plus-Wiener skeleton and a sorted jump list.

    Between jumps the path is the skeleton (piecewise linear between grid
    nodes), so suprema are exact on monotone-drift segments and grid-resolved
    otherwise.  Values are right-continuous: the jump at time t belongs to
    value(t).
    """

    __slots__ = ("t0", "slope", "jump_t", "jump_x", "grid_t", "grid_w", "_cum")

    def __init__(self, t0, slope, jump_t, jump_x, grid_t=None, grid_w=None):
        self.t0 = float(t0)
        self.slope = float(slope)
        jump_t = np.asarray(jump_t, dtype=float)
        jump_x = np.asarray(jump_x, dtype=float)
        if jump_t.size and np.any(np.diff(jump_t) < 0):
            order = np.argsort(jump_t, kind="stable")
            jump_t, jump_x = jump_t[order], jump_x[order]
        self.jump_t = jump_t
        self.jump_x = jump_x
        self.grid_t = grid_t
        self.grid_w = grid_w
        self._cum = np.concatenate(([0.0], np.cumsum(jump_x)))

    @property
    def n_jumps(self) -> int:
        return int(self.jump_t.size)

    def _skeleton(self, ts: np.ndarray) -> np.ndarray:
        base = self.slope * ts
        if self.grid_t is not None:
            base = base + np.interp(ts, self.grid_t, self.grid_w)
        return base

    def values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.jump_t, ts, side="right")
        return self._skeleton(ts) + self._cum[idx]

    def left_values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.jump_t, ts, side="left")
        return self._skeleton(ts) + self._cum[idx]

    def value(self, t: float) -> float:
        return float(self.values(np.array([t]))[0])

    def sup_over(self, a: float, b: float) -> float:
        """Exact supremum of the piecewise model over [a, b]."""
        cands = [a, b]
        if self.grid_t is not None:
            inner = self.grid_t[(self.grid_t > a) & (self.grid_t < b)]
            cands.extend(inner.tolist())
        mask = (self.jump_t > a) & (self.jump_t <= b)
        jt = self.jump_t[mask]
        best = float(np.max(self.values(np.array(cands))))
        if jt.size:
            best = max(best, float(np.max(self.values(jt))),
                       float(np.max(self.left_values(jt))))
        return best

    def supremum(self) -> float:
        return self.sup_over(0.0, self.t0)

    def with_jump(self, t: float, x: float) -> "CadlagPath":
        """Insert a jump (t, x); a zero jump is the identity on path space."""
        if not 0.0 <= t <= self.t0:
            raise ValueError(f"time {t} outside horizon [0, {self.t0}]")
        if x == 0.0:
            return self
        idx = int(np.searchsorted(self.jump_t, t, side="right"))
        new_t = np.insert(self.jump_t, idx, t)
        new_x = np.insert(self.jump_x, idx, x)
        return CadlagPath(self.t0, self.slope, new_t, new_x, self.grid_t, self.grid_w)


def path_shift(path: CadlagPath, t: float, x: float) -> CadlagPath:
    """Functional-form alias for inserting a jump into a path."""
    return path.with_jump(t, x)


@dataclass(frozen=True)
class PathFunctional:
    fn: Callable[[CadlagPath], float]
    name: str = ""

    def __call__(self, path: CadlagPath) -> float:
        val = float(self.fn(path))
        if val != val:
            raise ValueError(f"path functional {self.name!r} returned NaN")
        return val


running_supremum = PathFunctional(lambda w: w.supremum(), name="running_supremum")
terminal_value = PathFunctional(lambda w: w.value(w.t0), name="terminal_value")
no_jump_indicator = PathFunctional(lambda w: 1.0 if w.n_jumps == 0 else 0.0,
                                   name="no_jumps")


def simulate_path(model: LevyModel, rng: RngStream | None = None,
                  generator: np.random.Generator | None = None) -> CadlagPath:
    """Sample one path: Wiener skeleton on the grid, jumps above eps exactly."""
    if generator is None:
        if rng is None:
            raise ValueError("pass an RngStream or an explicit generator")
        generator = rng.generator()
    n = int(generator.poisson(model.jump_rate()))
    times = generator.uniform(0.0, model.t0, n)
    sizes = model.jumps.sample_above(model.eps, n, generator)
    if model.density is not None and n > 0:
        gv = np.asarray(model.density(sizes), dtype=float)
        if np.any(gv > model.density_bound * (1.0 + 1e-9)):
            raise ValueError("jump density exceeds its declared bound")
        keep = generator.random(n) * model.density_bound < gv
        times, sizes = times[keep], sizes[keep]
    order = np.argsort(times, kind="stable")
    times, sizes = times[order], sizes[order]
    grid_t = grid_w = None
    if model.sigma2 > 0:
        grid_t = np.linspace(0.0, model.t0, model.grid_n + 1)
        dw = generator.normal(0.0, math.sqrt(model.sigma2 * model.t0 / model.grid_n),
                              model.grid_n)
        grid_w = np.concatenate(([0.0], np.cumsum(dw)))
    return CadlagPath(model.t0, model.slope, times, sizes, grid_t, grid_w)


def simulate_coupled(model_lo: LevyModel, model_hi: LevyModel,
                     generator: np.random.Generator) -> tuple[CadlagPath, CadlagPath]:
    """Common-random-numbers pair: shared jump proposals thinned to each
    density with one uniform per jump, shared Wiener skeleton."""
    for attr in ("t0", "eps", "sigma2", "grid_n"):
        if getattr(model_lo, attr) != getattr(model_hi, attr):
            raise ValueError(f"coupled models must agree on {attr}")
    if model_lo.jumps != model_hi.jumps:
        raise ValueError("coupled models must share the reference jump measure")
    bound = max(model_lo.density_bound, model_hi.density_bound)
    rate = model_lo.t0 * bound * model_lo.jumps.mass_above(model_lo.eps)
    n = int(generator.poisson(rate))
    times = generator.uniform(0.0, model_lo.t0, n)
    sizes = model_lo.jumps.sample_above(model_lo.eps, n, generator)
    u = generator.random(n)
    g_lo = np.asarray(model_lo.g(sizes), dtype=float) if n else np.empty(0)
    g_hi = np.asarray(model_hi.g(sizes), dtype=float) if n else np.empty(0)
    keep_lo = u * bound < g_lo
    keep_hi = u * bound < g_hi
    order = np.argsort(times, kind="stable")
    times, sizes = times[order], sizes[order]
    keep_lo, keep_hi = keep_lo[order], keep_hi[order]
    grid_t = grid_w = None
    if model_lo.sigma2 > 0:
        grid_t = np.linspace(0.0, model_lo.t0, model_lo.grid_n + 1)
        dw = generator.normal(0.0, math.sqrt(model_lo.sigma2 * model_lo.t0 / model_lo.grid_n),
                              model_lo.grid_n)
        grid_w = np.concatenate(([0.0], np.cumsum(dw)))
    path_lo = CadlagPath(model_lo.t0, model_lo.slope, times[keep_lo], sizes[keep_lo],
                         grid_t, grid_w)
    path_hi = CadlagPath(model_hi.t0, model_hi.slope, times[keep_hi], sizes[keep_hi],
                         grid_t, grid_w)
    return path_lo, path_hi


# ---------------------------------------------------------------------------
# Drift adjustment and hypothesis checks
# ---------------------------------------------------------------------------


def drift_adjust(b: float, direction: JumpDirection, theta_delta: float,
                 nu_ref=None) -> float:
    """b + theta_delta * int_{|x|<=1} x g(x) nu_ref(dx).

    Uses the direction's closed-form moment when available, otherwise
    adaptive quadrature against the reference.
    """
    moment = direction.drift_moment
    if moment is None:
        if nu_ref is None:
            raise ValueError("need the reference measure for quadrature")
        moment = nu_ref.integrate(lambda x: np.asarray(x) * np.asarray(direction.g(x)),
                                  0.0, 1.0)
    return b + theta_delta * moment


def check_direction(direction: JumpDirection, cap: float = CAP) -> dict:
    """Square-integrability and small-jump moment conditions on a direction."""
    vals = {"square_integral": direction.square_integral,
            "x_wedge_integral": direction.x_wedge_integral}
    for name, v in vals.items():
        if not math.isfinite(v) or v >= cap:
            raise ConditionError(f"direction fails {name}: {v:g}")
    return vals


def check_pair(model: LevyModel, target: LevyModel, cap: float = CAP,
               drift_tol: float = 1e-9) -> dict:
    """Hypotheses tying two models to a common reference: square gaps of both
    densities, small-jump first-moment gaps, and the drift relation.

    The reference measures must be equal; they compare by value, so two
    separately built equal builders qualify.  Every integrand is formed from
    the density gaps g - 1 (``LevyModel.gap``), never by subtracting values
    of g, and a quadrature failure names the integral it happened in.
    """
    if model.jumps != target.jumps:
        raise ConditionError("models must share the reference jump measure")

    def integral(name, fn, lo, hi):
        try:
            return model.jumps.integrate(fn, lo, hi)
        except QuadratureError as err:
            raise QuadratureError(f"{name}: {err}") from err

    out = {}
    for tag, m in (("base", model), ("target", target)):
        gap = integral(f"{tag} square gap", lambda x: m.gap(x) ** 2, 0.0, np.inf)
        wedge = integral(f"{tag} small-jump x gap",
                         lambda x: np.minimum(np.abs(x), 1.0) * np.abs(m.gap(x)), 0.0, 1.0)
        out[f"{tag}_square_gap"] = gap
        out[f"{tag}_x_gap"] = wedge
        if not math.isfinite(gap) or gap >= cap:
            raise ConditionError(f"{tag} density fails the square-gap condition: {gap:g}")
        if not math.isfinite(wedge) or wedge >= cap:
            raise ConditionError(f"{tag} density fails the small-jump moment condition")
    if model.drift_form != target.drift_form:
        raise ConditionError("models must use the same drift parameterization")
    if model.drift_form == "plain":
        if abs(model.drift - target.drift) > drift_tol:
            raise ConditionError("plain-form models must share the drift")
    else:
        move = integral(
            "compensation move",
            lambda x: np.asarray(x) * (target.gap(x) - model.gap(x)), 0.0, 1.0)
        if abs((target.drift - model.drift) - move) > max(drift_tol, 1e-7 * abs(move)):
            raise ConditionError("drifts do not satisfy the compensation relation")
    return out


def perturbed_model(model: LevyModel, pert: JumpPerturbation, theta: float) -> LevyModel:
    """The model at parameter theta along a jump perturbation."""
    if not pert.contains(theta):
        raise ValueError(f"theta={theta} outside declared interval {pert.interval}")
    dt = theta - pert.theta0
    d = pert.direction
    rem = pert.remainder

    def extra(x):
        out = np.asarray(d.g(x), dtype=float)
        if rem is not None:
            out = out + np.asarray(rem(theta, x), dtype=float)
        return out

    def clipped(out, floor):
        if np.any(out < floor - 1e-9):
            raise ValueError("perturbed jump density went negative")
        return np.maximum(out, floor)

    # g and g - 1 are each formed from the base's own value and gap, so the
    # gap keeps its digits where g rounds to 1
    def g_theta(x):
        x = np.asarray(x, dtype=float)
        return clipped(np.asarray(model.g(x)) + dt * extra(x), 0.0)

    def gap_theta(x):
        x = np.asarray(x, dtype=float)
        return clipped(np.asarray(model.gap(x)) + dt * extra(x), -1.0)

    bound = model.density_bound + abs(dt) * (d.g_bound + pert.envelope_bound)
    if model.drift_form == "plain":
        drift = model.drift
    else:
        drift = drift_adjust(model.drift, d, dt, model.jumps)
        if rem is not None:
            drift += dt * model.jumps.integrate(
                lambda x: np.asarray(x) * np.asarray(rem(theta, x)), 0.0, 1.0)
    return replace(model, density=JumpDensity(g_theta, gap_theta), density_bound=bound,
                   drift=drift)


# ---------------------------------------------------------------------------
# Derivative, series, and the running-supremum study
# ---------------------------------------------------------------------------


def _direction_eps(direction: JumpDirection, direction_eps: float | None) -> float:
    if direction_eps is not None:
        if direction.min_eps is None and direction_eps <= 0:
            raise ConditionError("|g| d nu_ref is not normalizable at 0; "
                                 "a positive truncation is required")
        return direction_eps
    if direction.min_eps is None:
        raise ConditionError("|g| d nu_ref is not normalizable at 0; "
                             "pass direction_eps > 0")
    return direction.min_eps


JUMP_GROWTH_CAP = 3  # an order-n path sample costs 2^n path evaluations


def jump_draw(f: PathFunctional, model: LevyModel, direction: JumpDirection,
              eps_d: float, mass: float) -> Callable:
    """The Levy backend's order-n term sampler.

    Order n draws n marks (t, x), t uniform on [0, t0] and x from the
    normalized |g| d nu_ref above eps_d, then one path, and returns the
    signed and absolute (t0 mass)^n / n! times the n-fold path difference.
    Order 0 returns f(X).
    """
    t0 = model.t0

    def draw(n: int, gen: np.random.Generator) -> tuple[float, float]:
        pairs = []
        sgn = 1.0
        for _ in range(n):
            t = gen.uniform(0.0, t0)
            x = float(direction.sample_above(eps_d, 1, gen)[0])
            if float(np.asarray(direction.g(x))) < 0:
                sgn = -sgn
            pairs.append((t, x))
        dval = path_difference(f, simulate_path(model, generator=gen), pairs)
        scale = (t0 * mass) ** n / math.factorial(n)
        return scale * sgn * dval, scale * abs(dval)

    return draw


def levy_derivative(f: PathFunctional, model: LevyModel, pert: JumpPerturbation,
                    mc: MCPlan, direction_eps: float | None = None) -> EstimateResult:
    """First-order sensitivity of E f(X) to the jump density along g.

    The order-one draw of ``jump_draw``: one mark (t, x) from uniform time
    tensor the normalized absolute direction, and the one-jump difference on
    a common path.
    """
    d = pert.direction
    check_direction(d)
    eps_d = _direction_eps(d, direction_eps)
    mass = d.abs_mass_above(eps_d)
    if not math.isfinite(mass):
        raise ConditionError("absolute direction mass is not finite")
    if mass == 0.0:
        return EstimateResult(0.0, 0.0)
    draw = jump_draw(f, model, d, eps_d, mass)
    return mc_mean(lambda gen: draw(1, gen)[0], mc).estimate()


def path_difference(f: PathFunctional, path: CadlagPath,
                    pairs: Sequence[tuple[float, float]]) -> float:
    """Iterated path difference over inserted jumps.

    Evaluated through the one-jump recursion so subset paths share prefixes:
    2^n functional evaluations and insertions, equal to the alternating
    subset sum by the symmetry of the operator.
    """
    if not pairs:
        return f(path)
    rest = pairs[1:]
    return (path_difference(f, path.with_jump(*pairs[0]), rest)
            - path_difference(f, path, rest))


def levy_series(f: PathFunctional, model: LevyModel, target: LevyModel,
                mc: MCPlan, n_max: int = 6, delta: JumpDirection | None = None,
                direction_eps: float | None = None, eps_abs: float = 1e-4
                ) -> SeriesResult:
    """Expansion of E f(X) from the base model toward the target jump density.

    Order n integrates the expected n-fold path difference against the
    tensorized signed density gap (``mc_series`` over ``jump_draw``).
    Hypotheses (common reference, square gaps, small-jump moments, drift
    relation) are hard errors.  An order-n sample costs 2^n path
    evaluations, so the per-order budget growth is capped at 2^3 and the stop
    rule accepts either two consecutive terms below their own 2 sigma or
    below the absolute floor ``eps_abs``.
    """
    check_pair(model, target)
    if delta is None:
        if not isinstance(model.jumps, CompoundPoissonJumps):
            raise ConditionError("pass a direction for the density gap on "
                                 "non-atomic references")
        sizes = model.jumps.sizes
        gap = {float(s): float(np.asarray(target.g(s)) - np.asarray(model.g(s)))
               for s in sizes}
        delta = cp_direction(model.jumps, gap)
    eps_d = _direction_eps(delta, direction_eps)
    mass = delta.abs_mass_above(eps_d)
    return mc_series(jump_draw(f, model, delta, eps_d, mass), mass, n_max, mc,
                     JUMP_GROWTH_CAP, eps_abs)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    def to_csv(self) -> str:
        lines = ["bin_left,bin_right,count"]
        for i in range(self.counts.size):
            lines.append(f"{self.edges[i]:.17g},{self.edges[i + 1]:.17g},{int(self.counts[i])}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SupremumDerivativeResult:
    estimate: float
    stderr: float
    q_summary: Histogram
    kernel_max_err: float
    bound_violations: int
    samples: int


def supremum_derivative(model: LevyModel, pert: JumpPerturbation, mc: MCPlan,
                        direction_eps: float | None = None) -> SupremumDerivativeResult:
    """Sensitivity of the expected running supremum to the jump density.

    Per replication: simulate a path, draw t uniform, form the past/future
    supremum gap Y_t, draw a jump size from the normalized absolute
    direction, and evaluate the closed kernel (x - Y_t)^+ - (Y_t)^-.  The
    kernel is cross-checked against the re-evaluated path difference and the
    |difference| <= 2|x| envelope on every sample.  Y_t is summarized in
    ``Q_BINS`` bins over +-(4 scale + 1), with scale the terminal mean and
    standard deviation plus the drift over [0, t0].
    """
    if not model.jumps.mom5_ok:
        raise ConditionError("the upper-tail second moment of the reference "
                             "diverges; the supremum is not square-integrable")
    d = pert.direction
    check_direction(d)
    eps_d = _direction_eps(d, direction_eps)
    mass = d.abs_mass_above(eps_d)
    t0 = model.t0
    mom = model.moments()
    scale = abs(mom["mean"]) + math.sqrt(max(mom["var"], 0.0)) + abs(model.slope) * t0
    edges = np.linspace(-4.0 * scale - 1.0, 4.0 * scale + 1.0, Q_BINS + 1)

    def draw(gen):
        path = simulate_path(model, generator=gen)
        t = gen.uniform(0.0, t0)
        y = path.sup_over(0.0, t) - path.sup_over(t, t0)
        if mass == 0:
            return 0.0, y, 0.0, 0.0
        x = float(d.sample_above(eps_d, 1, gen)[0])
        kernel = max(x - y, 0.0) - max(-y, 0.0)
        delta = path.with_jump(t, x).supremum() - path.supremum()
        sgn = 1.0 if float(np.asarray(d.g(x))) >= 0 else -1.0
        return (t0 * mass * sgn * kernel, y, abs(delta - kernel),
                float(abs(delta) > 2.0 * abs(x) + 1e-12))

    res = mc_mean(draw, mc)
    bins = np.searchsorted(edges, res.values(1), side="right") - 1
    counts = np.bincount(bins[(bins >= 0) & (bins < Q_BINS)], minlength=Q_BINS)
    return SupremumDerivativeResult(
        *res.estimate(), q_summary=Histogram(edges=edges, counts=counts),
        kernel_max_err=float(np.max(res.values(2))),
        bound_violations=int(np.sum(res.values(3))), samples=mc.samples)


def coupled_supremum_fd(model: LevyModel, pert: JumpPerturbation, delta: float,
                        mc: MCPlan, f: PathFunctional = running_supremum
                        ) -> EstimateResult:
    """Central finite difference of theta -> E f(X) at theta0 with coupled
    paths (shared jump proposals and Wiener skeleton)."""
    lo = perturbed_model(model, pert, pert.theta0 - delta)
    hi = perturbed_model(model, pert, pert.theta0 + delta)

    def draw(gen):
        p_lo, p_hi = simulate_coupled(lo, hi, gen)
        return (f(p_hi) - f(p_lo)) / (2.0 * delta)

    return mc_mean(draw, mc).estimate()
