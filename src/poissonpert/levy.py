"""Levy processes from characteristic triplets and perturbations of the jump
measure.

A model is (sigma^2, drift, nu) with the jump measure given as a density
``g_nu`` against a reference jump measure built from a small library
(two-sided power tails, gamma tails, compound Poisson).  A density other
than the reference's own 1 is a ``JumpDensity``, which carries the gap
g_nu - 1 with g_nu, so no hypothesis integral subtracts values of g.  Paths
are simulated by sampling jumps above a threshold eps exactly and dropping
the rest:

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

estimated by sampling (t, x) from dt tensor w |g| d nu_ref with the weight
sgn g / w and the inner difference evaluated on a common path.  The running
supremum admits a closed difference kernel (x - Y_t)^+ - (Y_t)^- with
Y_t the gap between past and future suprema, which the supremum estimator
exploits and cross-checks path by path.

A path is one ``CadlagPath``; the Monte Carlo estimators draw one
``PathBatch`` of n paths per block instead (``simulate_paths``,
``simulate_coupled_paths``).  Its layout is ragged: flat jump times and sizes
sorted by (path, time) with per-path offsets.  ``simulate_path`` is the
one-path form of ``simulate_paths``: it makes the same draws, so
``simulate_paths(model, 1, g).path(0)`` is the same path bit for bit.  Both
classes read a path on its horizon [0, t0] only; a value or supremum at any
other time raises ``ValueError``.  A Wiener part lives on each path's
nodes (0, t0, every jump proposal time and the mark times where an estimator
inserts jumps): W by Gaussian increments, and one Exp(1) draw E
per segment, so that a segment of length h between the path's own end
values u and v has the exact Brownian-bridge maximum
(u + v + sqrt((v - u)^2 + 2 sigma^2 h E))/2, whatever the drift (Glasserman
2004, Monte Carlo Methods in Financial Engineering, 6.4).  Without a Wiener
part that is max(u, v), and nothing is drawn.  Values, suprema over
per-path intervals and jump insertion act on every path at once and
reproduce ``CadlagPath``'s floating-point operations; the built-in path
functionals have array forms, any other functional is evaluated path by
path.  The identity checks run where they did per path:

* ``supremum_derivative`` compares the kernel with the re-evaluated path
  difference, and the difference with the 2|x| envelope, on every sample;
* every estimator passes ``spot`` to ``rng.mc_mean``: the first
  ``rng.SPOT_CHECKS`` paths of block 0 (of every order in ``levy_series``)
  are re-evaluated through ``CadlagPath`` (the suprema of
  ``supremum_derivative``, f on both paths of ``coupled_supremum_fd``, the
  path difference of ``jump_draw``), and a gap above ``SPOT_TOL`` raises
  ``BatchMismatchError``.

``jump_draw`` returns the Levy backend ``(draw, M)`` of ``series``, with
M = t0 Q and Q the mass of the direction's mark law w |g| d nu_ref
(``JumpDirection``): w = 1 where |g| d nu_ref is finite, w = min(|x|, 1)
where it is not, so no direction is truncated.  ``levy_derivative`` is its
order-one ``series.mc_term``, ``levy_series`` its ``series.mc_series``.

Integrals against the power-tail and gamma references (``integrate``) run on
the module's own G7/K15 Gauss-Kronrod quadrature over numpy arrays,
``_panel_quad``; an error estimate above max(1e-9, 1e-7 |total|) raises
``QuadratureError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .measures import DEFAULT_CAP, ConditionError
from .rng import SPOT_CHECKS, EstimateResult, MCPlan, mc_mean
from .series import SeriesResult, _check_order, mc_series, mc_term

DRIFT_TOL = 1e-9  # ``check_pair``: absolute tolerance of the drift relation
GAMMA_GRID_POINTS = 4097  # nodes of the gamma jump sampler's inverse-CDF grid
Q_BINS = 81  # bins of the Y_t summary of ``supremum_derivative``
SPOT_TOL = 1e-12  # largest accepted gap between a batch value and ``CadlagPath``
EPS = float(np.finfo(float).eps)
EULER_GAMMA = 0.57721566490153286061
_E1_SERIES = tuple((-1.0) ** k / (k * math.factorial(k)) for k in range(20, 0, -1))
# _panel_quad: refinement target (1e-3 of the acceptance bound), bisection
# passes, panel cap, and the depth of the geometric panels at 0 and infinity
QUAD_TOL_ABS = 1e-12
QUAD_TOL_REL = 1e-10
QUAD_PASSES = 60
QUAD_MAX_PANELS = 20_000
QUAD_DEPTH_ZERO = 200
QUAD_DEPTH_INF = 64
# G7/K15 on [-1, 1], from the outermost node to the centre: node, Kronrod
# weight, Gauss weight (0 where only the Kronrod rule has a node); the rule
# is symmetric, so the other half mirrors these rows
_GK_HALF = np.array([
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
])
_GK_NODES = np.concatenate((-_GK_HALF[:, 0], _GK_HALF[-2::-1, 0]))
_GK_KRONROD, _GK_GAUSS = (np.concatenate((w, w[-2::-1])) for w in _GK_HALF[:, 1:].T)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to an acceptable error."""


def _panel_quad(fn, lo: float, hi: float) -> tuple[float, float]:
    """Integrate fn over (lo, hi]; return the value and its error estimate.

    The panels' edges are powers of two (of min(1, hi) toward 0, of
    max(1, lo) toward infinity), geometric with ratio 2 down to
    2^-QUAD_DEPTH_ZERO of the anchor when lo <= 0 and up to 2^QUAD_DEPTH_INF
    when hi = inf, plus lo and hi themselves.  One call of fn evaluates the
    G7/K15 Gauss-Kronrod rule on every panel; a panel's error is
    max(|K - G|, 50 eps int |f|).  While the summed error exceeds
    max(QUAD_TOL_ABS, QUAD_TOL_REL |total|), each panel above its equal share
    of that tolerance (and above its rounding floor) is bisected, all of them
    in one further call per pass.

    Beyond an open end the panel integrals of f ~ C x^(-s) near 0 (s < 1) or
    ~ C x^(-1-s) at infinity (s > 0) form a geometric series, so the
    remainder is the series of the last panel's ratio to the one before; its
    error is the gap to the series of the ratio one panel further in.  A
    ratio outside [0, 1) (a divergent or sign-changing end) makes the error
    infinite.  An error above max(1e-9, 1e-7 |total|) raises
    ``QuadratureError``.
    """
    edges, lo_open, hi_open = _panel_edges(lo, hi)
    if edges.size < 2:
        return 0.0, 0.0
    a, b = edges[:-1], edges[1:]
    root = np.arange(a.size)  # the initial panel each panel was bisected from
    val, gap, floor = _kronrod(fn, a, b)
    for _ in range(QUAD_PASSES):
        err = _panel_errors(gap, floor)
        tol = max(QUAD_TOL_ABS, QUAD_TOL_REL * abs(val.sum()))
        if err.sum() <= tol:
            break
        # a panel at its rounding floor gains nothing from bisection
        split = (err > tol / val.size) & ~(gap <= floor)
        if not split.any() or val.size + split.sum() > QUAD_MAX_PANELS:
            break
        mid = 0.5 * (a[split] + b[split])
        keep = ~split
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        new = _kronrod(fn, new_a, new_b)
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        root = np.concatenate((root[keep], root[split], root[split]))
        val, gap, floor = (np.concatenate((old[keep], part)) for old, part in
                           zip((val, gap, floor), new))
    total = val.sum()
    error = _panel_errors(gap, floor).sum()
    for part, part_err in _open_ends(np.bincount(root, val, edges.size - 1), lo_open, hi_open):
        total += part
        error += part_err
    if not (math.isfinite(total) and error <= max(1e-9, 1e-7 * abs(total))):
        raise QuadratureError(f"quadrature error estimate {error:g} too large")
    return float(total), float(error)


def _panel_edges(lo: float, hi: float) -> tuple[np.ndarray, bool, bool]:
    """Panel edges of (lo, hi] for ``_panel_quad``, and whether the ends at 0
    and at infinity are open (left to the remainder series)."""
    lo_open, hi_open = lo <= 0.0, math.isinf(hi)
    if not hi > max(lo, 0.0):
        return np.empty(0), False, False
    left = min(1.0, hi) if lo_open else lo
    right = max(1.0, left) if hi_open else hi
    powers = np.ldexp(1.0, np.arange(math.floor(math.log2(left)),
                                     math.ceil(math.log2(right)) + 1))
    parts = [[left], powers[(powers > left) & (powers < right)]]
    if right > left:
        parts.append([right])
    if lo_open:
        parts.insert(0, left * np.ldexp(1.0, np.arange(-QUAD_DEPTH_ZERO, 0)))
    if hi_open:
        parts.append(right * np.ldexp(1.0, np.arange(1, QUAD_DEPTH_INF + 1)))
    return np.concatenate(parts), lo_open, hi_open


def _kronrod(fn, a: np.ndarray, b: np.ndarray):
    """K15 value, |K15 - G7| and the rounding floor 50 eps int |f| of every
    panel (a, b), from one call of fn on all their nodes."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    f = np.broadcast_to(np.asarray(fn(x.ravel()), dtype=float), (x.size,)).reshape(x.shape)
    kronrod = half * (f @ _GK_KRONROD)
    gauss = half * (f @ _GK_GAUSS)
    return kronrod, np.abs(kronrod - gauss), 50.0 * EPS * half * (np.abs(f) @ _GK_KRONROD)


def _panel_errors(gap, floor) -> np.ndarray:
    """max(|K - G|, rounding floor) per panel; infinite where f is not finite."""
    return np.where(np.isfinite(gap), np.maximum(gap, floor), np.inf)


def _open_ends(sums: np.ndarray, lo_open: bool, hi_open: bool):
    """(remainder, error) beyond each open end, from the integrals of the
    initial panels in order."""
    if lo_open:
        yield _geometric_remainder(sums[2], sums[1], sums[0])
    if hi_open:
        yield _geometric_remainder(sums[-3], sums[-2], sums[-1])


def _geometric_remainder(far: float, mid: float, last: float) -> tuple[float, float]:
    """The integral beyond three panels that shrink by 2 (or grow by 2)
    toward an open end, last the outermost: the geometric series
    last rho/(1 - rho) of rho = last/mid, with its gap to the series of
    mid/far as the error."""
    if last == 0.0:
        return 0.0, 0.0
    if mid == 0.0 or far == 0.0:
        return 0.0, math.inf
    series = []
    for rho in (last / mid, mid / far):
        if not 0.0 <= rho < 1.0:
            return 0.0, math.inf
        series.append(last * rho / (1.0 - rho))
    return series[0], abs(series[0] - series[1])


def _exp1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0,
    elementwise on an array; a float for a scalar x."""
    arr = np.asarray(x, dtype=float)
    out = np.empty(arr.shape)
    small = arr <= 1.0
    out[small] = _exp1_series(arr[small])
    out[~small] = _exp1_fraction(arr[~small])
    return out if isinstance(x, np.ndarray) else float(out)


def _exp1_series(x):
    """E1 for 0 < x <= 1: -gamma - ln x - sum_{k>=1} (-x)^k/(k k!), the sum
    to k = 20 (1/(20 * 20!) < 1e-19) by Horner's rule."""
    total = 0.0
    for c in _E1_SERIES:
        total = total * x + c
    return -EULER_GAMMA - np.log(x) - total * x


def _exp1_fraction(x):
    """E1 for x > 1: its continued fraction, by the modified Lentz method."""
    b = x + 1.0
    c = 1e300
    d = h = 1.0 / b
    for i in range(1, 101):  # within 1 ulp after 90 steps for every x > 1
        an = -float(i * i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * (c * d)
    return h * np.exp(-x)


# ---------------------------------------------------------------------------
# Reference jump measure builders
# ---------------------------------------------------------------------------


def _finite(**values: float) -> None:
    """Raise ``ValueError`` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
            if not math.isfinite(s):
                raise ValueError(f"jump size must be finite, got {s!r}")
            if s == 0.0:
                raise ValueError("jump size 0 is not allowed")
            if m < 0 or not math.isfinite(m):
                raise ValueError("atom masses must be finite and nonnegative")
            clean[s] = m
        self.sizes = np.array(sorted(clean))
        self.masses = np.array([clean[s] for s in self.sizes])
        self.finite_variation = True

    def _params(self) -> tuple:
        return tuple(self.sizes.tolist()), tuple(self.masses.tolist())

    @property
    def mom5_ok(self) -> bool:
        return True

    def mass_above(self, eps: float) -> float:
        return float(self.masses[np.abs(self.sizes) > eps].sum())

    def sample_above(self, eps, n, gen) -> np.ndarray:
        """n draws of the normalized measure above eps; none if it has no mass."""
        keep = np.abs(self.sizes) > eps
        sizes, masses = self.sizes[keep], self.masses[keep]
        if n == 0 or not masses.any():
            return np.empty(0)
        return gen.choice(sizes, size=n, p=masses / masses.sum())

    def integrate(self, fn, lo: float, hi: float) -> float:
        """int_{lo<|x|<=hi} fn d nu: a finite sum over the atoms."""
        keep = (np.abs(self.sizes) > lo) & (np.abs(self.sizes) <= hi)
        if not np.any(keep):
            return 0.0
        return float(np.sum(np.asarray(fn(self.sizes[keep])) * self.masses[keep]))


class StableJumps(_ReferenceMeasure):
    """Two-sided power-tail jump measure c_pos x^(-a-1) dx + c_neg |x|^(-a-1) dx."""

    def __init__(self, alpha: float, c_pos: float = 1.0, c_neg: float = 1.0):
        if not 0.0 < alpha < 2.0:
            raise ValueError("stable index must lie in (0, 2)")
        _finite(c_pos=c_pos, c_neg=c_neg)
        if c_pos < 0 or c_neg < 0 or c_pos + c_neg == 0:
            raise ValueError("tail weights must be nonnegative with positive sum")
        self.alpha = alpha
        self.c_pos = c_pos
        self.c_neg = c_neg
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
        """int_{lo<|x|<=hi} fn d nu, one ``_panel_quad`` per side; fn takes
        arrays."""
        total = 0.0
        for c, sign in ((self.c_pos, 1.0), (self.c_neg, -1.0)):
            if c > 0:
                total += c * _panel_quad(lambda r: fn(sign * r) * r ** (-self.alpha - 1.0),
                                         lo, hi)[0]
        return total


class GammaJumps(_ReferenceMeasure):
    """Gamma-process jump measure theta x^(-1) exp(-beta x) dx on x > 0."""

    def __init__(self, theta: float, beta: float):
        _finite(theta=theta, beta=beta)
        if theta <= 0 or beta <= 0:
            raise ValueError("theta and beta must be positive")
        self.theta = theta
        self.beta = beta
        self.finite_variation = True
        self._cdf_cache: dict = {}

    def _params(self) -> tuple:
        return self.theta, self.beta

    @property
    def mom5_ok(self) -> bool:
        return True

    def mass_above(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError("gamma jumps have infinite activity; eps must be positive")
        return self.theta * float(_exp1(self.beta * eps))

    def _inverse_cdf(self, eps: float):
        key = float(eps)
        if key not in self._cdf_cache:
            x_max = eps + 60.0 / self.beta
            xs = np.geomspace(eps, x_max, GAMMA_GRID_POINTS)
            tail = _exp1(self.beta * xs) / _exp1(self.beta * eps)
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
        """int_{lo<x<=hi} fn d nu by ``_panel_quad``; fn takes arrays."""
        return self.theta * _panel_quad(lambda r: fn(r) * np.exp(-self.beta * r) / r,
                                        lo, hi)[0]


# ---------------------------------------------------------------------------
# Signed directions g against a reference jump measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpDirection:
    """A signed density direction with its sampling and moment toolkit.

    The derivatives draw marks from the law w |g| d nu_ref of mass
    ``mark_mass`` Q (``sample_marks(n, gen)``) and weigh each by
    Q sgn g(x) / w(x).  The tilt w is 1 where |g| d nu_ref is finite, and
    min(|x|, 1) with Q = ``x_wedge_integral`` where it is not: no mark is cut.
    """

    g: Callable[[np.ndarray], np.ndarray]
    square_integral: float
    x_wedge_integral: float
    drift_moment: float
    g_bound: float
    mark_mass: float
    sample_marks: Callable[[int, np.random.Generator], np.ndarray]
    tilt: Callable[[np.ndarray], np.ndarray]


def _wedge_tilt(x):
    return np.minimum(np.abs(x), 1.0)


def cp_direction(nu_ref: CompoundPoissonJumps, g_map: dict) -> JumpDirection:
    """Direction g on the atoms of a compound-Poisson reference, 0 elsewhere.

    ``g`` matches x to an atom by exact equality: marks and jumps are drawn
    from ``nu_ref.sizes`` itself, so a value off an atom by rounding is off
    the support.  The marks are the ``CompoundPoissonJumps`` of masses |g| m
    (tilt 1), so an atom where g = 0 is never drawn.  A size of ``g_map``
    off the atoms raises ``ValueError``.
    """
    sizes = nu_ref.sizes
    off = sorted(set(map(float, g_map)) - set(sizes.tolist()))
    if off:
        raise ValueError(f"direction sizes {off} are not jump sizes of the reference "
                         f"{sizes.tolist()}")
    gvals = np.array([float(g_map.get(float(s), 0.0)) for s in sizes])
    masses = nu_ref.masses
    absw = np.abs(gvals) * masses
    abs_jumps = CompoundPoissonJumps(dict(zip(sizes.tolist(), absw.tolist())))

    def g(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(sizes, x), 0, sizes.size - 1)
        out = np.where(sizes[idx] == x, gvals[idx], 0.0)
        return out if out.shape else float(out)

    return JumpDirection(
        g=g,
        square_integral=float((gvals ** 2 * masses).sum()),
        x_wedge_integral=float((np.minimum(np.abs(sizes), 1.0) * absw).sum()),
        drift_moment=float((sizes * gvals * masses)[np.abs(sizes) <= 1.0].sum()),
        g_bound=float(np.max(np.abs(gvals))) if gvals.size else 0.0,
        mark_mass=abs_jumps.mass_above(0.0),
        sample_marks=lambda n, gen: abs_jumps.sample_above(0.0, n, gen),
        tilt=np.ones_like,
    )


def gamma_scale_direction(theta: float, beta0: float, nu_ref: StableJumps) -> JumpDirection:
    """Direction of the scale derivative of a gamma jump component laid over a
    positive power-tail reference: g(x) = -theta x^(alpha+1) exp(-beta0 x).

    Against the reference, |g| d nu_ref collapses to a pure exponential
    theta c_pos exp(-beta0 x) dx, so every moment is closed form and the
    marks are Exp(beta0) (tilt 1).
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
        square_integral=theta ** 2 * c * math.gamma(alpha + 2.0) / (2 * beta0) ** (alpha + 2.0),
        x_wedge_integral=theta * c * (int01 + math.exp(-beta0) / beta0),
        drift_moment=-theta * c * int01,
        g_bound=theta * ((alpha + 1.0) / beta0) ** (alpha + 1.0) * math.exp(-(alpha + 1.0)),
        mark_mass=theta * c / beta0,
        sample_marks=lambda n, gen: gen.exponential(1.0 / beta0, n),
        tilt=np.ones_like,
    )


def gamma_shape_direction(beta: float, nu_ref: StableJumps) -> JumpDirection:
    """Direction adding a gamma jump component per unit shape:
    g(x) = x^alpha exp(-beta x)/c_pos on x > 0, so |g| d nu_ref is the gamma
    jump measure ``GammaJumps(1, beta)`` itself, of infinite mass.  The
    marks mix e^(-beta x) dx on (0, 1] (inverted) with that measure above 1.
    """
    if nu_ref.c_pos <= 0:
        raise ValueError("reference needs a positive tail")
    alpha, c = nu_ref.alpha, nu_ref.c_pos
    tail = GammaJumps(1.0, beta)
    head = 1.0 - math.exp(-beta)
    head_mass, tail_mass = head / beta, float(_exp1(beta))

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, np.power(np.maximum(x, 0), alpha)
                       * np.exp(-beta * np.maximum(x, 0)) / c, 0.0)
        return out if out.shape else float(out)

    def sample_marks(n, gen):
        small = gen.random(n) < head_mass / (head_mass + tail_mass)
        k = int(small.sum())
        out = np.empty(n)
        # 1 - u lies in (0, 1], so no mark is 0, where the tilt vanishes
        out[small] = -np.log1p(-head * (1.0 - gen.random(k))) / beta
        out[~small] = tail.sample_above(1.0, n - k, gen)
        return out

    return JumpDirection(
        g=g,
        square_integral=math.gamma(alpha) / (c * (2 * beta) ** alpha),
        x_wedge_integral=head_mass + tail_mass,
        drift_moment=head_mass,
        g_bound=(alpha / beta) ** alpha * math.exp(-alpha) / c,
        mark_mass=head_mass + tail_mass,
        sample_marks=sample_marks,
        tilt=_wedge_tilt,
    )


def stable_direction(alpha_dir: float, q_pos: float, q_neg: float,
                     nu_ref: StableJumps) -> JumpDirection:
    """Direction adding a power-tail component supported on |x| <= 1, with
    |g| d nu_ref = q_pos x^(-alpha_dir-1) dx on (0, 1] (q_neg on [-1, 0)).

    Square integrability against the reference demands alpha_dir < alpha/2,
    which is enforced.  The marks |x| |g| d nu_ref have |x| = u^(1/(1 -
    alpha_dir)) for u uniform on (0, 1].
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

    def sample_marks(n, gen):
        r = (1.0 - gen.random(n)) ** (1.0 / (1.0 - alpha_dir))
        return np.where(gen.random(n) < q_pos / qsum, r, -r)

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
        mark_mass=qsum / (1.0 - alpha_dir),
        sample_marks=sample_marks,
        tilt=_wedge_tilt,
    )


@dataclass(frozen=True)
class JumpPerturbation:
    """theta-family of jump densities g_nu + (theta - theta0) g."""

    direction: JumpDirection
    theta0: float = 0.0
    interval: tuple[float, float] = (0.0, 1.0)

    def contains(self, theta: float) -> bool:
        lo, hi = self.interval
        return lo <= theta <= hi


# ---------------------------------------------------------------------------
# Model and paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpDensity:
    """A jump density g against the reference, with its gap g - 1 evaluated
    directly: the one form a non-reference ``LevyModel.density`` takes.

    Where g is within rounding of 1 (near the origin of a power-tail
    perturbation), forming g - 1 from values of g loses every significant
    digit, so every hypothesis integral of ``check_pair`` and the series
    direction of ``levy_series`` are formed from ``gap``, never by
    subtracting values of g.  Calling the object returns g itself, which is
    what thinning uses.
    """

    value: Callable
    gap: Callable

    def __call__(self, x):
        return self.value(x)


@dataclass(frozen=True)
class LevyModel:
    """Characteristic triplet (sigma^2, drift, nu) on [0, t0], with jumps
    simulated above ``eps``.

    The jump measure is ``density * jumps``; references compare by value
    (equal builder parameters are one measure).  ``density`` is None for the
    reference itself or a ``JumpDensity``, which carries the gap g - 1 with
    g; anything else raises ``TypeError``.  ``density_bound``, the thinning
    envelope, must be 1.0 for the reference (never thinned) and positive
    otherwise; a bound below sup g fails ``within_bound`` when thinning.

    ``drift_form``: "plain" means X = drift*t + W + sum of jumps (valid only
    for finite-variation jump parts); "compensated" means the drift pairs
    with compensated small jumps, and the simulated slope carries the exact
    correction for the retained range (eps, 1].
    """

    jumps: object
    density: JumpDensity | None = None
    density_bound: float = 1.0
    drift: float = 0.0
    drift_form: str = "plain"
    sigma2: float = 0.0
    t0: float = 1.0
    eps: float = 0.0
    slope: float = field(init=False, default=0.0)
    jump_rate: float = field(init=False, default=0.0)

    def __post_init__(self):
        _finite(drift=self.drift, sigma2=self.sigma2, t0=self.t0, eps=self.eps,
                density_bound=self.density_bound)
        if self.t0 <= 0:
            raise ValueError("horizon must be positive")
        if self.sigma2 < 0:
            raise ValueError("Wiener variance must be nonnegative")
        if self.drift_form not in ("plain", "compensated"):
            raise ValueError(f"unknown drift form {self.drift_form!r}")
        if self.density is not None and not isinstance(self.density, JumpDensity):
            raise TypeError("density must be None or a JumpDensity, "
                            f"not {type(self.density).__name__}")
        if self.density is None and self.density_bound != 1.0:
            raise ValueError("the reference density is 1: density_bound must be 1.0, "
                             f"got {self.density_bound!r}")
        if self.density_bound <= 0:
            raise ValueError(f"density_bound must be positive, got {self.density_bound!r}")
        if self.drift_form == "plain" and not self.jumps.finite_variation:
            raise ValueError("plain drift form requires finite-variation jumps")
        # the envelope Poisson rate of jumps above eps over the horizon; first,
        # so that eps <= 0 on an infinite-activity reference raises its
        # ValueError before any quadrature near 0
        object.__setattr__(self, "jump_rate",
                           self.t0 * self.density_bound * self.jumps.mass_above(self.eps))
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
        """The density gap g(x) - 1 that the ``JumpDensity`` carries; exactly
        0 for the reference itself."""
        if self.density is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.density.gap(x)

    def nu_integral(self, fn, lo: float, hi: float) -> float:
        """int_{lo<|x|<=hi} fn(x) nu(dx) with nu = g_nu * nu_ref."""
        if self.density is None:
            return self.jumps.integrate(fn, lo, hi)
        return self.jumps.integrate(lambda x: np.asarray(fn(x)) * np.asarray(self.density(x)),
                                    lo, hi)

    def moments(self) -> dict:
        """Triplet mean and variance of X_{t0} for the simulated process.  A
        divergent moment integral (a power tail's x^2 always, its plain-form x at
        alpha <= 1) raises ``ConditionError`` naming the terminal mean or variance.
        """
        def integral(name, fn, lo):
            try:
                return self.nu_integral(fn, lo, np.inf)
            except QuadratureError as err:
                raise ConditionError(f"{name}: {err}") from err

        lo = self.eps if self.drift_form == "plain" else 1.0
        mean = self.t0 * (self.drift + integral("terminal mean", lambda x: x, lo))
        var = self.t0 * (self.sigma2 + integral("terminal variance", lambda x: x * x, self.eps))
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


def _check_time(t: float, t0: float) -> None:
    """Raise ``ValueError`` for a time t outside [0, t0], or NaN."""
    if not 0.0 <= t <= t0:
        raise ValueError(f"time {float(t)!r} outside horizon [0, {t0}]")


def _on_horizon(ts, t0: float) -> np.ndarray:
    """ts as a float array, each time checked by ``_check_time``."""
    ts = np.asarray(ts, dtype=float)
    off = ~((ts >= 0.0) & (ts <= t0))
    if off.any():
        _check_time(ts[off][0], t0)
    return ts


def _bridge_max(u, v, q):
    """The maximum of a Brownian bridge from u to v, q = 2 sigma^2 h E."""
    return 0.5 * (u + v + np.sqrt((v - u) ** 2 + q))


class CadlagPath:
    """A simulated path: drift slope, jumps sorted by time and, with a
    Wiener part, ``nodes`` = (t, w, q): node times from 0 to t0 holding every
    jump time, W at them and q[k] = 2 sigma^2 (t[k+1] - t[k]) E_k per segment.

    Values are right-continuous: the jump at time t belongs to value(t).  The
    supremum over [a, b] is the largest of X(a), X(b), X_t and X_{t-} at the
    jumps in (a, b] and the bridge maxima of the segments inside [a, b].  A
    Wiener path is known at its nodes only; other times raise ``ValueError``,
    and so does any time outside [0, t0].
    """

    __slots__ = ("t0", "slope", "jump_t", "jump_x", "nodes", "_cum")

    def __init__(self, t0, slope, jump_t, jump_x, nodes=None):
        self.t0 = float(t0)
        self.slope = float(slope)
        self.jump_t = np.asarray(jump_t, dtype=float)
        self.jump_x = np.asarray(jump_x, dtype=float)
        self.nodes = nodes
        self._cum = np.zeros(self.jump_x.size + 1)
        np.add.accumulate(self.jump_x, out=self._cum[1:])

    @property
    def n_jumps(self) -> int:
        return int(self.jump_t.size)

    def _skeleton(self, ts: np.ndarray) -> np.ndarray:
        """slope t plus W at ts, each of which must be a node."""
        base = self.slope * ts
        if self.nodes is None:
            return base
        node_t, node_w = self.nodes[:2]
        k = node_t.searchsorted(ts)
        off = node_t.take(k, mode="clip") != ts
        if off.any():
            raise ValueError(f"time {float(ts[off][0])!r} is not a node of this Wiener path")
        return base + node_w[k]

    def _at(self, ts, side: str) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self._skeleton(ts) + self._cum[np.searchsorted(self.jump_t, ts, side=side)]

    def values(self, ts) -> np.ndarray:
        return self._at(_on_horizon(ts, self.t0), "right")

    def left_values(self, ts) -> np.ndarray:
        return self._at(_on_horizon(ts, self.t0), "left")

    def value(self, t: float) -> float:
        """X_t at one time: ``values`` by the same floating-point operations."""
        _check_time(t, self.t0)
        x = self.slope * t
        if self.nodes is not None:
            node_t, node_w = self.nodes[:2]
            k = node_t.searchsorted(t)
            if k == node_t.size or node_t[k] != t:
                raise ValueError(f"time {float(t)!r} is not a node of this Wiener path")
            x = x + node_w[k]
        return float(x + self._cum[self.jump_t.searchsorted(t, "right")])

    def sup_over(self, a: float, b: float) -> float:
        """Exact supremum over [a, b] (see the class docstring)."""
        _check_time(a, self.t0)
        _check_time(b, self.t0)
        jt = self.jump_t[(self.jump_t > a) & (self.jump_t <= b)]
        cands = [self._at(np.array([a, b]), "right"), self._at(jt, "right"),
                 self._at(jt, "left")]
        if self.nodes is not None:
            t, _, q = self.nodes
            inside = (t[:-1] >= a) & (t[1:] <= b)
            cands.append(_bridge_max(self._at(t[:-1], "right"), self._at(t[1:], "left"),
                                     q)[inside])
        return float(np.max(np.concatenate(cands)))

    def supremum(self) -> float:
        return self.sup_over(0.0, self.t0)

    def with_jump(self, t: float, x: float) -> "CadlagPath":
        """Insert a jump (t, x); a zero jump is the identity on path space."""
        _check_time(t, self.t0)
        self._skeleton(np.array([t]))  # raises off the nodes of a Wiener path
        if x == 0.0:
            return self
        idx = int(np.searchsorted(self.jump_t, t, side="right"))
        new_t = np.insert(self.jump_t, idx, t)
        new_x = np.insert(self.jump_x, idx, x)
        return CadlagPath(self.t0, self.slope, new_t, new_x, self.nodes)


class BatchMismatchError(RuntimeError):
    """A path batch disagrees with the same path evaluated as a ``CadlagPath``."""


class PathBatch:
    """n paths of one model in one ragged layout: the batch form of
    ``CadlagPath``.

    Path i owns the jumps ``jump_t[offsets[i]:offsets[i + 1]]``, sorted by
    time, and the matching sizes in ``jump_x``.  ``nodes`` is None or the
    rows of every path's ``CadlagPath`` nodes, padded with +inf times (and
    unread w and q) after its last node.  Per-path arguments (times,
    interval ends, marks) are arrays with one entry per path, or scalars
    shared by all; a time outside [0, t0] raises ``ValueError``.  The kernels
    read a padded ``(n, width)`` copy of the jumps, width the largest jump
    count, with +inf times and zero sizes after each path's own jumps, so a
    per-path search is a row comparison and a segmented maximum a row
    maximum.  Every value is formed by the same floating-point operations as
    in ``CadlagPath`` (row cumsums, ``_bridge_max``), so ``path(i)``
    reproduces it exactly.
    """

    __slots__ = ("t0", "slope", "jump_t", "jump_x", "offsets", "nodes",
                 "_own", "_times", "_cum", "_tops", "_bridges")

    def __init__(self, t0, slope, jump_t, jump_x, offsets, nodes=None):
        self.t0 = float(t0)
        self.slope = float(slope)
        self.jump_t = np.asarray(jump_t, dtype=float)
        self.jump_x = np.asarray(jump_x, dtype=float)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.nodes = nodes
        counts = self.counts
        # slot j of row i holds path i's j-th jump
        self._own = np.arange(counts.max(initial=0)) < counts[:, None]
        self._times = np.full(self._own.shape, np.inf)
        self._times[self._own] = self.jump_t
        self._cum = np.zeros((self.n, self._own.shape[1] + 1))
        sizes = self._cum[:, 1:]
        sizes[self._own] = self.jump_x
        np.cumsum(sizes, axis=1, out=sizes)
        self._tops = self._bridges = None

    @property
    def n(self) -> int:
        return self.offsets.size - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def path(self, i: int) -> CadlagPath:
        a, b = self.offsets[i], self.offsets[i + 1]
        nodes = None
        if self.nodes is not None:
            t, w, q = (part[i] for part in self.nodes)
            m = int(np.isfinite(t).sum())
            nodes = (t[:m], w[:m], q[:m - 1])
        return CadlagPath(self.t0, self.slope, self.jump_t[a:b], self.jump_x[a:b], nodes)

    def _per_path(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return ts if ts.ndim else np.full(self.n, ts)

    def _skeleton(self, ts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """slope t plus W of path ``rows`` at ts, each a node of its path."""
        base = self.slope * ts
        if self.nodes is None:
            return base
        hit = self.nodes[0][rows] == ts[..., None]
        found = hit.any(axis=-1)
        if not found.all():
            raise ValueError(f"time {float(ts[~found][0])!r} is not a node of its Wiener path")
        return base + self.nodes[1][rows, hit.argmax(axis=-1)]

    def _at(self, ts, before: bool) -> np.ndarray:
        """X_t (or X_{t-}) of every path at its own times ts, of shape (n,)
        or (n, m)."""
        ts = self._per_path(ts)
        rows = np.arange(self.n).reshape((-1,) + (1,) * (ts.ndim - 1))
        t = ts[..., None]
        times = self._times.reshape((self.n,) + (1,) * (ts.ndim - 1) + (-1,))
        k = (times < t if before else times <= t).sum(axis=-1)
        return self._skeleton(ts, rows) + self._cum[rows, k]

    def values(self, ts) -> np.ndarray:
        """X_t of every path, the jumps at t included."""
        return self._at(_on_horizon(ts, self.t0), before=False)

    def left_values(self, ts) -> np.ndarray:
        """X_{t-} of every path."""
        return self._at(_on_horizon(ts, self.t0), before=True)

    def _jump_tops(self) -> np.ndarray:
        """max(X_t, X_{t-}) at every jump time, padded with -inf."""
        if self._tops is None:
            t = np.where(self._own, self._times, 0.0)
            tops = np.maximum(self._at(t, before=False), self._at(t, before=True))
            self._tops = np.where(self._own, tops, -np.inf)
        return self._tops

    def _bridge_tops(self) -> np.ndarray:
        """Every segment's bridge maximum; padding is read at t0, never used."""
        if self._bridges is None:
            t = np.minimum(self.nodes[0], self.t0)
            self._bridges = _bridge_max(self._at(t, before=False)[:, :-1],
                                        self._at(t, before=True)[:, 1:], self.nodes[2])
        return self._bridges

    def sup_over(self, a, b) -> np.ndarray:
        """Supremum of every path over its own [a, b]: the ends, X_t and
        X_{t-} at the jumps in (a, b] and the bridge maxima of the segments
        inside [a, b], each reduced by a masked row maximum."""
        ends = _on_horizon(np.stack([self._per_path(a), self._per_path(b)], axis=1), self.t0)
        a, b = ends[:, :1], ends[:, 1:]
        best = self._at(ends, before=False).max(axis=1)
        if self._times.shape[1]:
            inside = (self._times > a) & (self._times <= b)
            best = np.maximum(best, np.where(inside, self._jump_tops(), -np.inf).max(axis=1))
        if self.nodes is not None:
            t = self.nodes[0]
            inside = (t[:, :-1] >= a) & (t[:, 1:] <= b)
            best = np.maximum(best, np.where(inside, self._bridge_tops(), -np.inf).max(axis=1))
        return best

    def supremum(self) -> np.ndarray:
        return self.sup_over(0.0, self.t0)

    def with_jumps(self, t, x) -> "PathBatch":
        """Insert the jump (t[i], x[i]) into path i; a zero jump leaves its
        path as it is."""
        t, x = _on_horizon(self._per_path(t), self.t0), self._per_path(x)
        self._skeleton(t, np.arange(self.n))  # raises off the nodes of a Wiener path
        add = x != 0.0
        at = (self.offsets[:-1] + (self._times <= t[:, None]).sum(axis=1))[add]
        new = np.zeros(self.jump_t.size + at.size, dtype=bool)
        new[at + np.arange(at.size)] = True  # the inserted jumps' places
        jump_t, jump_x = np.empty(new.size), np.empty(new.size)
        jump_t[new], jump_x[new] = t[add], x[add]
        jump_t[~new], jump_x[~new] = self.jump_t, self.jump_x
        offsets = self.offsets + np.concatenate(([0], np.cumsum(add)))
        return PathBatch(self.t0, self.slope, jump_t, jump_x, offsets, self.nodes)


@dataclass(frozen=True)
class PathFunctional:
    fn: Callable[[CadlagPath], float]
    name: str = ""

    def __call__(self, path: CadlagPath) -> float:
        val = float(self.fn(path))
        if val != val:
            raise ValueError(f"path functional {self.name!r} returned NaN")
        return val

    def on_batch(self, batch: PathBatch) -> np.ndarray:
        """f on every path of a batch: a built-in's array form, otherwise
        ``fn`` on each ``batch.path(i)``."""
        form = _BATCH_FORMS.get(self.fn)
        if form is None:
            return np.array([self(batch.path(i)) for i in range(batch.n)], dtype=float)
        vals = form(batch)
        if np.isnan(vals).any():
            raise ValueError(f"path functional {self.name!r} returned NaN")
        return vals


running_supremum = PathFunctional(lambda w: w.supremum(), name="running_supremum")
terminal_value = PathFunctional(lambda w: w.value(w.t0), name="terminal_value")
no_jump_indicator = PathFunctional(lambda w: 1.0 if w.n_jumps == 0 else 0.0,
                                   name="no_jumps")

# The built-ins' array forms, keyed by their ``fn``: a functional around any
# other fn (one ``replace``d from a built-in too) falls back to fn per path,
# so a form can never go stale.
_BATCH_FORMS = {
    running_supremum.fn: PathBatch.supremum,
    terminal_value.fn: lambda b: b.values(b.t0),
    no_jump_indicator.fn: lambda b: (b.counts == 0).astype(float),
}


def _wiener_nodes(model: LevyModel, node_t: np.ndarray, dt: np.ndarray,
                  gen: np.random.Generator):
    """(node_t, W, q) on sorted node times whose segments have lengths dt:
    W by Gaussian increments and q = 2 sigma^2 h E per segment, E an Exp(1)
    draw."""
    node_w = np.zeros(node_t.shape)
    np.add.accumulate(np.sqrt(model.sigma2 * dt) * gen.standard_normal(dt.shape), axis=-1,
                      out=node_w[..., 1:])
    return node_t, node_w, 2.0 * model.sigma2 * dt * gen.standard_exponential(dt.shape)


def _batch_nodes(model: LevyModel, counts: np.ndarray, times: np.ndarray, marks,
                 gen: np.random.Generator):
    """``_wiener_nodes`` of a batch (None, and no draw, without a Wiener part):
    path i's nodes are 0, t0, its ``counts[i]`` proposals and ``marks[:, i]``,
    sorted, then +inf padding, whose segments have h = 0 and add nothing."""
    if model.sigma2 <= 0:
        return None
    n, width = counts.size, counts.max(initial=0)
    node_t = np.full((n, width + 2), np.inf)
    node_t[:, :2] = 0.0, model.t0
    node_t[:, 2:][np.arange(width) < counts[:, None]] = times
    node_t = np.sort(np.concatenate((node_t, np.reshape(marks, (-1, n)).T), axis=1), axis=1)
    ends = np.minimum(node_t, model.t0)
    return _wiener_nodes(model, node_t, ends[:, 1:] - ends[:, :-1], gen)


def within_bound(values, bound: float) -> np.ndarray:
    """Values of a jump density as a float array, checked against its
    declared sup bound up to 1e-9 relative rounding.  Thinning past the bound
    would silently sample a smaller intensity."""
    values = np.asarray(values, dtype=float)
    if np.any(values > bound * (1.0 + 1e-9)):
        raise ValueError("jump density exceeds its declared bound")
    return values


def simulate_path(model: LevyModel, *, generator: np.random.Generator) -> CadlagPath:
    """One path from ``generator``: jumps above eps exactly, then the Wiener
    part on the path's skeleton 0, the sorted proposals, t0.  The one-path
    form of ``simulate_paths``: ``simulate_paths(model, 1, g).path(0)`` draws
    the same numbers and returns the same path, bit for bit."""
    n = int(generator.poisson(model.jump_rate))
    times = generator.random(n) * model.t0  # the doubles of uniform(0, t0, n)
    sizes = model.jumps.sample_above(model.eps, n, generator)
    keep = None
    if model.density is not None and n > 0:
        gv = within_bound(model.density(sizes), model.density_bound)
        keep = generator.random(n) * model.density_bound < gv
    order = times.argsort(kind="stable")
    proposals = times = times[order]
    sizes = sizes[order]
    if keep is not None:
        keep = keep[order]
        times, sizes = times[keep], sizes[keep]
    nodes = None
    if model.sigma2 > 0:
        node_t = np.empty(n + 2)
        node_t[0], node_t[1:-1], node_t[-1] = 0.0, proposals, model.t0
        nodes = _wiener_nodes(model, node_t, node_t[1:] - node_t[:-1], generator)
    return CadlagPath(model.t0, model.slope, times, sizes, nodes)


def simulate_coupled(model_lo: LevyModel, model_hi: LevyModel,
                     generator: np.random.Generator) -> tuple[CadlagPath, CadlagPath]:
    """Common-random-numbers pair: shared jump proposals thinned to each
    density with one uniform per jump, shared Wiener skeleton. One pair of
    ``simulate_coupled_paths``, which consumes the generator the same way."""
    lo, hi = simulate_coupled_paths(model_lo, model_hi, 1, generator)
    return lo.path(0), hi.path(0)


def _batch(model: LevyModel, counts, times, sizes, keep, nodes) -> PathBatch:
    """The batch of the proposals (``counts`` per path, in path order) that
    ``keep`` retains, sorted by (path, time)."""
    if keep is not None:
        counts = np.bincount(np.repeat(np.arange(counts.size), counts)[keep],
                             minlength=counts.size)
        times, sizes = times[keep], sizes[keep]
    offsets = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    # a stable sort of each +inf-padded row: the (path, time) order, ties in draw order
    own = np.arange(counts.max(initial=0)) < counts[:, None]
    rows = np.full(own.shape, np.inf)
    rows[own] = times
    order = (rows.argsort(axis=1, kind="stable") + offsets[:-1, None])[own]
    return PathBatch(model.t0, model.slope, times[order], sizes[order], offsets, nodes)


def simulate_paths(model: LevyModel, n: int, gen: np.random.Generator,
                   marks=()) -> PathBatch:
    """n paths on one generator, the batch form of ``simulate_path``: every
    path's jump count, then all proposal times, sizes and thinning uniforms,
    then the Wiener part.  At n = 1 the draws are those of ``simulate_path``,
    whose path equals ``path(0)`` bit for bit.  ``marks``, a (k, n) array, adds k nodes to each
    path's skeleton (column i to path i), where an estimator inserts jumps."""
    counts = gen.poisson(model.jump_rate, n)
    total = int(counts.sum())
    times = gen.uniform(0.0, model.t0, total)
    sizes = model.jumps.sample_above(model.eps, total, gen)
    keep = None
    if model.density is not None and total > 0:
        gv = within_bound(model.density(sizes), model.density_bound)
        keep = gen.random(total) * model.density_bound < gv
    return _batch(model, counts, times, sizes, keep,
                  _batch_nodes(model, counts, times, marks, gen))


def simulate_coupled_paths(model_lo: LevyModel, model_hi: LevyModel, n: int,
                           gen: np.random.Generator) -> tuple[PathBatch, PathBatch]:
    """n common-random-numbers pairs: shared jump proposals, one thinning
    uniform per proposal, and a shared Wiener part on the shared nodes.  Each
    path takes its bridge maxima from its own end values, so both marginals
    are exact even where the two slopes differ."""
    for attr in ("t0", "eps", "sigma2"):
        if getattr(model_lo, attr) != getattr(model_hi, attr):
            raise ValueError(f"coupled models must agree on {attr}")
    if model_lo.jumps != model_hi.jumps:
        raise ValueError("coupled models must share the reference jump measure")
    bound = max(model_lo.density_bound, model_hi.density_bound)
    # both rates are t0 * density_bound * mass_above(eps): the larger uses the bound
    counts = gen.poisson(max(model_lo.jump_rate, model_hi.jump_rate), n)
    total = int(counts.sum())
    times = gen.uniform(0.0, model_lo.t0, total)
    sizes = model_lo.jumps.sample_above(model_lo.eps, total, gen)
    u = gen.random(total) * bound
    keep = [u < within_bound(m.g(sizes), bound) for m in (model_lo, model_hi)]
    nodes = _batch_nodes(model_lo, counts, times, (), gen)
    return (_batch(model_lo, counts, times, sizes, keep[0], nodes),
            _batch(model_hi, counts, times, sizes, keep[1], nodes))


# ---------------------------------------------------------------------------
# Drift adjustment and hypothesis checks
# ---------------------------------------------------------------------------


def drift_adjust(b: float, direction: JumpDirection, theta_delta: float) -> float:
    """b + theta_delta * int_{|x|<=1} x g(x) nu_ref(dx), from the direction's
    closed-form ``drift_moment``."""
    return b + theta_delta * direction.drift_moment


def check_direction(direction: JumpDirection) -> dict:
    """Square-integrability and small-jump moment conditions on a direction."""
    vals = {"square_integral": direction.square_integral,
            "x_wedge_integral": direction.x_wedge_integral}
    for name, v in vals.items():
        if not math.isfinite(v) or v >= DEFAULT_CAP:
            raise ConditionError(f"direction fails {name}: {v:g}")
    return vals


def check_pair(model: LevyModel, target: LevyModel) -> dict:
    """Hypotheses tying two models to a common reference: square gaps of both
    densities, small-jump first-moment gaps, and the drift relation.

    The reference measures must be equal; they compare by value, so two
    separately built equal builders qualify.  Every integrand is formed from
    the exact density gaps g - 1 (``LevyModel.gap``), never by subtracting
    values of g, and a quadrature failure names the integral it happened in.
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
        if not math.isfinite(gap) or gap >= DEFAULT_CAP:
            raise ConditionError(f"{tag} density fails the square-gap condition: {gap:g}")
        if not math.isfinite(wedge) or wedge >= DEFAULT_CAP:
            raise ConditionError(f"{tag} density fails the small-jump moment condition")
    if model.drift_form != target.drift_form:
        raise ConditionError("models must use the same drift parameterization")
    if model.drift_form == "plain":
        if abs(model.drift - target.drift) > DRIFT_TOL:
            raise ConditionError("plain-form models must share the drift")
    else:
        move = integral("compensation move",
                        lambda x: np.asarray(x) * (target.gap(x) - model.gap(x)), 0.0, 1.0)
        if abs((target.drift - model.drift) - move) > max(DRIFT_TOL, 1e-7 * abs(move)):
            raise ConditionError("drifts do not satisfy the compensation relation")
    return out


def perturbed_model(model: LevyModel, pert: JumpPerturbation, theta: float) -> LevyModel:
    """The model at parameter theta along a jump perturbation."""
    if not pert.contains(theta):
        raise ValueError(f"theta={theta} outside declared interval {pert.interval}")
    dt = theta - pert.theta0
    d = pert.direction

    def clipped(out, floor):
        if np.any(out < floor - 1e-9):
            raise ValueError("perturbed jump density went negative")
        return np.maximum(out, floor)

    # g and g - 1 are each formed from the base's own value and gap, so the
    # gap keeps its digits where g rounds to 1
    def g_theta(x):
        x = np.asarray(x, dtype=float)
        return clipped(np.asarray(model.g(x)) + dt * np.asarray(d.g(x), dtype=float), 0.0)

    def gap_theta(x):
        x = np.asarray(x, dtype=float)
        return clipped(np.asarray(model.gap(x)) + dt * np.asarray(d.g(x), dtype=float), -1.0)

    bound = model.density_bound + abs(dt) * d.g_bound
    if model.drift_form == "plain":
        drift = model.drift
    else:
        drift = drift_adjust(model.drift, d, dt)
    return replace(model, density=JumpDensity(g_theta, gap_theta), density_bound=bound,
                   drift=drift)


def gamma_overlay_model(theta: float, beta0: float, alpha: float, t0: float,
                        eps: float) -> tuple[LevyModel, JumpPerturbation]:
    """A gamma jump component laid over the power-tail reference, and its
    scale perturbation.

    The density g = 1 + theta x^alpha exp(-beta0 x) on x > 0 against
    ``StableJumps(alpha, 1, 1)`` adds the gamma jump measure
    theta x^(-1) exp(-beta0 x) dx; the perturbation moves its scale along
    ``gamma_scale_direction`` around theta0 = beta0, where
    d/dbeta E X_t0 = -theta t0 / beta0^2.  The gap g - 1 is carried exactly.
    theta and beta0 must be finite and positive (``ValueError`` otherwise).
    """
    for name, value in (("theta", theta), ("beta0", beta0)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    st = StableJumps(alpha, 1.0, 1.0)
    gmax = theta * (alpha / beta0) ** alpha * math.exp(-alpha)

    def gap(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, theta * np.power(np.maximum(x, 0), alpha)
                       * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
        return out if out.shape else float(out)

    def g(x):
        out = 1.0 + np.asarray(gap(x))
        return out if out.shape else float(out)

    model = LevyModel(jumps=st, density=JumpDensity(g, gap), density_bound=1.0 + gmax,
                      drift=0.0, drift_form="compensated", t0=t0, eps=eps)
    pert = JumpPerturbation(direction=gamma_scale_direction(theta, beta0, st),
                            theta0=beta0, interval=(beta0 / 2, 3 * beta0 / 2))
    return model, pert


# ---------------------------------------------------------------------------
# Derivative, series, and the running-supremum study
# ---------------------------------------------------------------------------


def _mark_weights(direction: JumpDirection, xs: np.ndarray) -> np.ndarray:
    """sgn g(x) / w(x) of each mark x: times the mark mass Q, the weight
    that makes a mark's difference unbiased for int E Delta_(t,x) f g dnu_ref."""
    return np.where(np.asarray(direction.g(xs)) < 0, -1.0, 1.0) / direction.tilt(xs)


def jump_draw(f: PathFunctional, model: LevyModel,
              direction: JumpDirection) -> tuple[Callable, float]:
    """The Levy backend of ``series``: the order-n term sampler and the
    mark mass M = t0 Q of the direction (``JumpDirection.mark_mass``).

    ``draw(n, gen, k, check=False)`` draws n marks (t, x) for each of k
    replications, t uniform on [0, t0] and x from the direction's mark law
    (``sample_marks``), then one batch of k paths with the mark times as
    nodes, and returns M^n / n! times each path's n-fold path difference
    times the marks' weights sgn g / w (``_mark_weights``), signed and
    absolute, as a (2, k) array; order 0 gives f(X).  With ``check`` every
    path's difference is recomputed through ``CadlagPath``
    (``path_difference``) and a gap above ``SPOT_TOL`` raises
    ``BatchMismatchError``.
    """
    t0 = model.t0
    mass = t0 * direction.mark_mass

    def draw(n: int, gen: np.random.Generator, k: int, check: bool = False) -> np.ndarray:
        ts = gen.uniform(0.0, t0, (n, k))
        xs = direction.sample_marks(n * k, gen).reshape(n, k)
        weight = _mark_weights(direction, xs).prod(axis=0) if n else np.ones(k)
        batch = simulate_paths(model, k, gen, ts)
        dval = _batch_difference(f, batch, ts, xs)
        if check:
            for i in range(k):
                _agree(f"{f.name} path difference", dval[i],
                       path_difference(f, batch.path(i), list(zip(ts[:, i], xs[:, i]))))
        term = mass ** n / math.factorial(n) * weight * dval
        return np.stack([term, np.abs(term)])

    return draw, mass


def levy_derivative(f: PathFunctional, model: LevyModel, pert: JumpPerturbation,
                    mc: MCPlan) -> EstimateResult:
    """First-order sensitivity of E f(X) to the jump density along g.

    The order-one ``series.mc_term`` of ``jump_draw``: one mark (t, x) from
    uniform time tensor the direction's mark law, and the weighted one-jump
    difference on a common path.  The first ``SPOT_CHECKS`` paths of block 0
    are checked against ``CadlagPath``.
    """
    check_direction(pert.direction)
    return mc_term(*jump_draw(f, model, pert.direction), 1, mc, SPOT_CHECKS)


def _agree(name: str, batch_value: float, path_value: float) -> None:
    """The spot cross-check of a batch value against ``CadlagPath``."""
    if not abs(batch_value - path_value) <= SPOT_TOL:
        raise BatchMismatchError(f"{name}: the path batch gives {batch_value!r}, "
                                 f"CadlagPath {path_value!r}")


def _batch_difference(f: PathFunctional, batch: PathBatch, ts: np.ndarray,
                      xs: np.ndarray) -> np.ndarray:
    """``path_difference`` on every path of a batch, path i taking the marks
    (ts[j, i], xs[j, i]); the same recursion, one batch per subset."""
    if not len(ts):
        return f.on_batch(batch)
    return (_batch_difference(f, batch.with_jumps(ts[0], xs[0]), ts[1:], xs[1:])
            - _batch_difference(f, batch, ts[1:], xs[1:]))


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
                mc: MCPlan, n_max: int = 6) -> SeriesResult:
    """Expansion of E f(X) from the base model toward the target jump density
    on a compound-Poisson reference (any other raises ``ConditionError``).

    Order n integrates the expected n-fold path difference against the
    tensorized density gap g_target - g_base on the reference's atoms, formed
    as the difference of the two exact gaps (``LevyModel.gap``):
    ``mc_series`` over ``jump_draw``, with the absolute mass M = t0 int |g| d
    nu_ref setting the Poisson(M) budget of each order.  The series always
    runs to ``n_max``; a path functional declares no bound, so
    ``truncation_budget`` is None (0 for equal densities).  Hypotheses
    (common reference, square gaps, small-jump moments, drift relation) are
    hard errors, and a negative ``n_max`` raises ``ValueError``.
    """
    _check_order(n_max)
    if not isinstance(model.jumps, CompoundPoissonJumps):
        raise ConditionError("the Levy series needs a compound-Poisson reference, "
                             f"not {type(model.jumps).__name__}")
    check_pair(model, target)
    gap = {float(s): float(target.gap(s) - model.gap(s)) for s in model.jumps.sizes}
    return mc_series(*jump_draw(f, model, cp_direction(model.jumps, gap)), n_max, mc)


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


def supremum_derivative(model: LevyModel, pert: JumpPerturbation,
                        mc: MCPlan) -> SupremumDerivativeResult:
    """Sensitivity of the expected running supremum to the jump density.

    Per replication: draw t uniform, simulate a path with t as a node, form
    the past/future supremum gap Y_t, draw a jump size x from the direction's
    mark law, and evaluate the closed kernel (x - Y_t)^+ - (Y_t)^-, weighted
    as in ``jump_draw``.  Each block does this for a whole ``PathBatch``.  The kernel is cross-checked
    against the re-evaluated path difference and the |difference| <= 2|x|
    envelope on every sample; the first ``SPOT_CHECKS`` paths of block 0 are
    re-evaluated through ``CadlagPath`` (both suprema and the supremum after
    the jump), and a gap above ``SPOT_TOL`` raises ``BatchMismatchError``.
    Y_t is summarized in ``Q_BINS`` bins over +-(4 scale + 1), with scale
    the terminal mean and standard deviation plus the drift over [0, t0].
    """
    if not model.jumps.mom5_ok:
        raise ConditionError("the upper-tail second moment of the reference "
                             "diverges; the supremum is not square-integrable")
    d = pert.direction
    check_direction(d)
    t0 = model.t0
    mass = t0 * d.mark_mass
    mom = model.moments()
    scale = abs(mom["mean"]) + math.sqrt(max(mom["var"], 0.0)) + abs(model.slope) * t0
    edges = np.linspace(-4.0 * scale - 1.0, 4.0 * scale + 1.0, Q_BINS + 1)

    def draw(gen, n, check=False):
        t = gen.uniform(0.0, t0, n)
        batch = simulate_paths(model, n, gen, t[None])
        past, future = batch.sup_over(0.0, t), batch.sup_over(t, t0)
        checked = range(n) if check else range(0)
        for i in checked:
            path = batch.path(i)
            _agree("sup_over(0, t)", past[i], path.sup_over(0.0, t[i]))
            _agree("sup_over(t, t0)", future[i], path.sup_over(t[i], t0))
        y = past - future
        if mass == 0:
            return np.stack([np.zeros(n), y, np.zeros(n), np.zeros(n)])
        x = d.sample_marks(n, gen)
        kernel = np.maximum(x - y, 0.0) - np.maximum(-y, 0.0)
        moved = batch.with_jumps(t, x).supremum()
        for i in checked:
            _agree("with_jump(t, x).supremum()", moved[i],
                   batch.path(i).with_jump(t[i], x[i]).supremum())
        delta = moved - batch.supremum()
        return np.stack([mass * _mark_weights(d, x) * kernel, y, np.abs(delta - kernel),
                         np.abs(delta) > 2.0 * np.abs(x) + 1e-12])

    res = mc_mean(draw, mc, spot=SPOT_CHECKS)
    bins = np.searchsorted(edges, res.values(1), side="right") - 1
    counts = np.bincount(bins[(bins >= 0) & (bins < Q_BINS)], minlength=Q_BINS)
    return SupremumDerivativeResult(
        *res.estimate(), q_summary=Histogram(edges=edges, counts=counts),
        kernel_max_err=float(np.max(res.values(2))),
        bound_violations=int(np.sum(res.values(3))), samples=mc.samples)


def coupled_supremum_fd(model: LevyModel, pert: JumpPerturbation, delta: float,
                        mc: MCPlan) -> EstimateResult:
    """Central finite difference of theta -> E sup X at theta0 with coupled
    paths (shared jump proposals, and a shared Wiener part on their nodes),
    one coupled batch per block.  Each path's bridge maxima come from its own
    end values, so each side is exact even where a compensated drift moves
    the slope with theta.  The suprema of the first ``SPOT_CHECKS`` pairs of
    block 0 are checked against ``CadlagPath``.  delta must be finite and
    positive (``ValueError`` otherwise)."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    f = running_supremum
    lo = perturbed_model(model, pert, pert.theta0 - delta)
    hi = perturbed_model(model, pert, pert.theta0 + delta)

    def draw(gen, n, check=False):
        pair = simulate_coupled_paths(lo, hi, n, gen)
        f_lo, f_hi = (f.on_batch(b) for b in pair)
        for i in range(n) if check else range(0):
            _agree(f"{f.name} (theta0 - delta)", f_lo[i], f(pair[0].path(i)))
            _agree(f"{f.name} (theta0 + delta)", f_hi[i], f(pair[1].path(i)))
        return ((f_hi - f_lo) / (2.0 * delta))[None]

    return mc_mean(draw, mc, spot=SPOT_CHECKS).estimate()
