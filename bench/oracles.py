"""Closed-form values the benchmark checks `poissonpert` against.

Everything here is computed with `math`, `scipy.special` and `scipy.stats`
only; nothing imports `poissonpert`.  The discrete functionals all depend on
a configuration only through its count N = phi(W) in one window W, so under
Poisson(lam) they reduce to a Poisson(mu) count with mu = lam(W):

* ``void``      f = 1{N = 0}
* ``count_sq``  f = N^2
* ``at_least``  f = 1{N >= k}
* ``count``     f = N (the Mecke functional)

For such f every expected difference at points of W is a finite difference
in the count, E D^n f = sum_j (-1)^(n-j) C(n, j) E f(N + j), and it vanishes
as soon as one point lies outside W.
"""

from __future__ import annotations

import math

from scipy import special, stats


def shifted_mean(kind: str, k: int, mu: float, j: int = 0) -> float:
    """E f(N + j) for N ~ Poisson(mu)."""
    if kind == "void":
        return math.exp(-mu) if j == 0 else 0.0
    if kind == "count":
        return mu + j
    if kind == "count_sq":
        return mu + mu * mu + 2.0 * j * mu + j * j
    if kind == "at_least":
        return float(stats.poisson.sf(k - j - 1, mu))  # P(N >= k - j)
    raise ValueError(f"unknown functional kind {kind!r}")


def mean(kind: str, k: int, mu: float) -> float:
    return shifted_mean(kind, k, mu)


def derivative(kind: str, k: int, mu: float) -> float:
    """d/dmu E f(N)."""
    if kind == "void":
        return -math.exp(-mu)
    if kind == "count":
        return 1.0
    if kind == "count_sq":
        return 1.0 + 2.0 * mu
    if kind == "at_least":
        # the at-least-k pivotal derivative, m e^(-m) m^(k-1) / (k-1)! at m = mu
        return mu ** (k - 1) * math.exp(-mu) / math.factorial(k - 1)
    raise ValueError(f"unknown functional kind {kind!r}")


def expected_difference(kind: str, k: int, mu: float, n: int) -> float:
    """E D^n f with all n points in the window."""
    return math.fsum((-1.0) ** (n - j) * math.comb(n, j) * shifted_mean(kind, k, mu, j)
                     for j in range(n + 1))


def series_partial_sum(kind: str, k: int, mu: float, delta: float, upto: int) -> float:
    """sum_{n <= upto} delta^n / n! E D^n f: the variational series of E_nu f
    around lam truncated after order ``upto``, where delta = (nu - lam)(W)."""
    return math.fsum(delta ** n / math.factorial(n) * expected_difference(kind, k, mu, n)
                     for n in range(upto + 1))


def scaled_central_difference(kind: str, k: int, mu: float, theta: float,
                              delta: float) -> float:
    """Mean of the central difference of theta -> E_{theta lam} f, which is
    what a coupled finite-difference estimator targets."""
    hi = mean(kind, k, (theta + delta) * mu)
    lo = mean(kind, k, (theta - delta) * mu)
    return (hi - lo) / (2.0 * delta)


def mecke_lhs_sd(mu: float) -> float:
    """Standard deviation of N(N - 1), one sample of the Mecke left side
    sum_x f(x, phi - delta_x) for the count functional: (N(N-1))^2 is
    N_(4) + 4 N_(3) + 2 N_(2) in falling factorials, so the variance is
    4 mu^3 + 2 mu^2."""
    return math.sqrt(4.0 * mu ** 3 + 2.0 * mu ** 2)


def thinned_fd_count_sq_sd(mu: float, theta: float, delta: float) -> float:
    """Standard deviation of one replication (H^2 - L^2) / (2 delta) of the
    coupled central difference of E N^2, where H ~ Poisson((theta + delta) mu)
    and L keeps each point of H with probability (theta - delta) / (theta + delta),
    the thinning coupling of two scaled intensities."""
    hi = (theta + delta) * mu
    keep = (theta - delta) / (theta + delta)
    second = 0.0
    for h in range(int(hi + 20.0 * math.sqrt(hi)) + 40):    # Poisson tail below 1e-20
        inner = math.fsum(math.comb(h, l) * keep ** l * (1.0 - keep) ** (h - l)
                          * (h * h - l * l) ** 2 for l in range(h + 1))
        second += math.exp(-hi) * hi ** h / math.factorial(h) * inner
    mean = scaled_central_difference("count_sq", 0, mu, theta, delta) * 2.0 * delta
    return math.sqrt(max(second - mean * mean, 0.0)) / (2.0 * delta)


def count_sq_times_at_least(k: int, mu: float) -> float:
    """E[N^2 1{N >= k}], the left side of the Fock identity for that pair."""
    head = math.fsum(n * n * float(stats.poisson.pmf(n, mu)) for n in range(k))
    return mu + mu * mu - head


def law_hellinger(lam: dict, nu: dict) -> float:
    """Squared Hellinger distance of two Poisson laws on a finite space,
    1 - exp(-1/2 sum_a (sqrt(lam_a) - sqrt(nu_a))^2)."""
    atoms = set(lam) | set(nu)
    h = 0.5 * math.fsum((math.sqrt(lam.get(a, 0.0)) - math.sqrt(nu.get(a, 0.0))) ** 2
                        for a in atoms)
    return -math.expm1(-h)


# ---------------------------------------------------------------------------
# Levy processes
# ---------------------------------------------------------------------------


def gamma_moments_above(theta: float, beta: float, eps: float, t: float,
                        sigma2: float = 0.0) -> tuple[float, float]:
    """Mean and variance of X_t for gamma jumps theta x^-1 e^(-beta x) dx
    above eps (plain drift 0), plus a Wiener part of variance sigma2 t."""
    tail = math.exp(-beta * eps)
    mean_t = t * theta * tail / beta
    var_t = t * theta * tail * (1.0 + beta * eps) / beta ** 2 + sigma2 * t
    return mean_t, var_t


def gamma_sq_dev_sd(theta: float, beta: float, eps: float, t: float,
                    sigma2: float = 0.0) -> float:
    """Standard deviation of (X_t - E X_t)^2 for the process of
    gamma_moments_above: sqrt(k4 + 2 k2^2) from its cumulants, where
    k4 = t theta Gamma(4, beta eps) / beta^4 and k2 is the variance."""
    z = beta * eps
    k4 = t * theta * 6.0 * math.exp(-z) * (1.0 + z + z * z / 2.0 + z ** 3 / 6.0) / beta ** 4
    _, k2 = gamma_moments_above(theta, beta, eps, t, sigma2)
    return math.sqrt(k4 + 2.0 * k2 * k2)


def gamma_jumps_below(theta: float, beta: float, eps: float, t: float
                      ) -> tuple[float, float]:
    """Mean and second moment of the gamma jumps at or below eps over [0, t]."""
    mean_below = t * theta * -math.expm1(-beta * eps) / beta
    var_below = t * theta * (1.0 - (1.0 + beta * eps) * math.exp(-beta * eps)) / beta ** 2
    return mean_below, var_below


def gamma_scale_derivative(theta: float, beta0: float, t0: float) -> float:
    """d/dbeta E X_t0 at beta0 for gamma jumps theta x^-1 e^(-beta x) dx."""
    return -theta * t0 / beta0 ** 2


def cp_sensitivity(sizes, masses, gvals, t0: float) -> float:
    """t0 sum x g(x) nu(x): the derivative of E X_t0 along the direction g,
    which is also the supremum derivative of a nondecreasing model."""
    return t0 * math.fsum(x * g * m for x, g, m in zip(sizes, gvals, masses))


def cp_terminal_mean(drift: float, sizes, masses, t0: float) -> float:
    """t0 (drift + sum x mass) for a compound-Poisson model in plain form."""
    return t0 * (drift + math.fsum(x * m for x, m in zip(sizes, masses)))


def sup_fd_bias_bound(delta: float, max_abs_jump: float, abs_direction_mass: float,
                      t0: float) -> float:
    """Bound on the bias of a central difference of theta -> E sup X.

    Along a linear jump-density family the third derivative is
    t0^3 int E D^3 sup (g dnu)^3, and |D^3 sup| <= 2 max|x| because each
    one-jump difference of the supremum lies between 0 and the jump.  The
    central difference then misses the derivative by at most
    delta^2 / 6 times that bound.
    """
    return delta ** 2 / 6.0 * 2.0 * max_abs_jump * (t0 * abs_direction_mass) ** 3


def stable_direction_gaps(dt: float, alpha: float, alpha_dir: float,
                          sides) -> dict:
    """check_pair figures for a power-tail reference c |x|^(-alpha-1) moved by
    dt times the direction (q / c) |x|^(alpha - alpha_dir) on |x| <= 1.

    ``sides`` lists (q, c) for the positive and the negative half-line.
    """
    square = dt ** 2 * math.fsum(q * q / (c * (alpha - 2.0 * alpha_dir))
                                 for q, c in sides if q > 0)
    x_gap = abs(dt) * math.fsum(q for q, _ in sides) / (1.0 - alpha_dir)
    (q_pos, _), (q_neg, _) = sides
    move = dt * (q_pos - q_neg) / (1.0 - alpha_dir)
    return {"target_square_gap": square, "target_x_gap": x_gap, "drift_move": move}


def gamma_overlay_gaps(theta: float, beta0: float, alpha: float, dt: float) -> dict:
    """check_pair figures for the density 1 + theta x^alpha e^(-beta0 x) on
    x > 0 against c_pos = 1 power tails, moved by dt along the scale
    direction -theta x^(alpha+1) e^(-beta0 x) (dt < 1, so 1 - dt x > 0 on
    the unit interval)."""
    two_b = 2.0 * beta0
    gam = special.gamma
    base_sq = theta ** 2 * gam(alpha) / two_b ** alpha
    target_sq = theta ** 2 * (gam(alpha) / two_b ** alpha
                              - 2.0 * dt * gam(alpha + 1.0) / two_b ** (alpha + 1.0)
                              + dt ** 2 * gam(alpha + 2.0) / two_b ** (alpha + 2.0))
    e0 = -math.expm1(-beta0) / beta0                                  # int_0^1 e^(-b x)
    e1 = (1.0 - (1.0 + beta0) * math.exp(-beta0)) / beta0 ** 2        # int_0^1 x e^(-b x)
    return {"base_square_gap": base_sq, "target_square_gap": target_sq,
            "base_x_gap": theta * e0, "target_x_gap": theta * (e0 - dt * e1),
            "drift_move": -dt * theta * e1}
