"""Intensity measures, signed perturbations, and admissibility diagnostics.

Perturbations live on a finite discrete ground space: a measure is an
explicit table of atom masses, every integral is a finite sum and every
diagnostic is exact.  Signed perturbations, Hellinger distances, couplings and
parametric families take discrete measures only.  The package's one
non-discrete Poisson process, the jumps of a Levy process on [0, t0] x R, is
``levy``'s.

Conventions
-----------
* Densities use 0/0 = 0: atoms carrying no mass under the dominating measure
  are irrelevant to every integral.
* The default dominating measure for a discrete pair (lam, nu) is lam + nu,
  which is always valid; every reported quantity is invariant under the
  choice of dominating measure.
* Diagnostics never raise on divergence: values at or above ``DEFAULT_CAP``
  (1e12) are clamped, and each verdict compares its value with the cap.
* A failed hypothesis, in this module or any other, raises ``ConditionError``.

The squared Hellinger distance used throughout is
``H(lam, nu) = 1/2 * int (sqrt(h_lam) - sqrt(h_nu))^2 drho`` and the law-level
identity ``H(P_lam, P_nu) = 1 - exp(-H(lam, nu))`` links it to the Poisson
process distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

DEFAULT_CAP = 1e12


class MeasureMismatchError(ValueError):
    """Operands do not share a usable common reference measure."""


class ConditionError(RuntimeError):
    """A hypothesis of an expansion, derivative or change of measure fails."""


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomWindow:
    """A subset of discrete atom identifiers."""

    atoms: frozenset

    def __init__(self, atoms: Iterable):
        object.__setattr__(self, "atoms", frozenset(atoms))

    def contains(self, point) -> bool:
        return point in self.atoms


# ---------------------------------------------------------------------------
# Discrete measures
# ---------------------------------------------------------------------------


class DiscreteMeasure:
    """Finite atomic measure: nonnegative masses on a finite set of atoms.

    Immutable after construction.  Atom order is sorted by identifier so that
    every downstream iteration is deterministic.
    """

    __slots__ = ("_masses", "_atoms", "_total")

    def __init__(self, masses: Mapping):
        clean = {}
        for atom, mass in masses.items():
            m = float(mass)
            if not math.isfinite(m) or m < 0.0:
                raise ValueError(f"mass of atom {atom!r} must be finite and >= 0, got {mass}")
            clean[atom] = m
        self._masses = clean
        self._atoms = tuple(sorted(clean, key=repr))
        self._total = math.fsum(clean.values())

    @property
    def atoms(self) -> tuple:
        return self._atoms

    def mass(self, atom) -> float:
        return self._masses.get(atom, 0.0)

    def total(self, window: AtomWindow | None = None) -> float:
        if window is None:
            return self._total
        return math.fsum(m for a, m in self._masses.items() if window.contains(a))

    def support(self) -> tuple:
        return tuple(a for a in self._atoms if self._masses[a] > 0.0)

    def items(self):
        for a in self._atoms:
            yield a, self._masses[a]

    def restrict(self, window: AtomWindow | None) -> "DiscreteMeasure":
        if window is None:
            return self
        return DiscreteMeasure({a: m for a, m in self._masses.items() if window.contains(a)})

    def plus(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        out = dict(self._masses)
        for a, m in other.items():
            out[a] = out.get(a, 0.0) + m
        return DiscreteMeasure(out)

    def scaled(self, c: float) -> "DiscreteMeasure":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return DiscreteMeasure({a: c * m for a, m in self._masses.items()})

    def density_against(self, rho: "DiscreteMeasure") -> dict:
        """Atom-wise density d(self)/d(rho) with the 0/0 = 0 convention."""
        dens = {}
        for a in sorted(set(self._atoms) | set(rho.atoms), key=repr):
            num, den = self.mass(a), rho.mass(a)
            if den == 0.0:
                if num != 0.0:
                    raise MeasureMismatchError(
                        f"measure not dominated: atom {a!r} has mass {num} but zero reference mass"
                    )
                dens[a] = 0.0
            else:
                dens[a] = num / den
        return dens

    def __eq__(self, other):
        return isinstance(other, DiscreteMeasure) and self._masses == other._masses

    def __repr__(self):
        inner = ", ".join(f"{a!r}: {m:g}" for a, m in self.items())
        return f"DiscreteMeasure({{{inner}}})"

    # plain-text serialization: one "atom-id mass" pair per line
    def to_text(self) -> str:
        lines = []
        for a, m in self.items():
            aid = str(a)
            if any(ch.isspace() for ch in aid):
                raise ValueError(f"atom id {aid!r} contains whitespace, not serializable")
            lines.append(f"{aid} {m!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "DiscreteMeasure":
        return DiscreteMeasure(atom_values(text))


def atom_values(text: str) -> dict:
    """The ``atom value`` lines of a text as {atom id: float}, skipping blank
    lines and ``#`` comments.  Values may be signed (densities); a line that is
    not one pair or repeats an atom raises ``ValueError`` naming the line."""
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'atom value', got {raw!r}")
        atom, value = parts
        if atom in values:
            raise ValueError(f"line {ln}: duplicate atom {atom!r}")
        values[atom] = float(value)
    return values


def discrete(masses: Mapping) -> DiscreteMeasure:
    """Shorthand constructor used all over the tests and the CLI."""
    return DiscreteMeasure(masses)


# ---------------------------------------------------------------------------
# Signed perturbations nu - lam via densities against a common reference
# ---------------------------------------------------------------------------


def _as_density(d) -> Callable:
    if callable(d):
        return d
    table = dict(d)
    return lambda point: table.get(point, 0.0)


@dataclass(frozen=True)
class SignedPerturbation:
    """The signed difference of two measures, held as densities against rho."""

    reference: DiscreteMeasure
    density_low: Callable
    density_high: Callable

    @staticmethod
    def from_discrete(lam: DiscreteMeasure, nu: DiscreteMeasure) -> "SignedPerturbation":
        rho = lam.plus(nu)
        return SignedPerturbation(
            reference=rho,
            density_low=_as_density(lam.density_against(rho)),
            density_high=_as_density(nu.density_against(rho)),
        )

    def signed_density(self, point) -> float:
        return float(self.density_high(point)) - float(self.density_low(point))


def signed_power_integral(g: Callable, pert: SignedPerturbation, n: int) -> float:
    """``int g d(nu - lam)^n`` through the tensorized signed density.

    An exact finite sum over the reference's support.  The order ``n = 0``
    constant term is the caller's business and is rejected here.
    """
    if n < 1:
        raise ValueError("order must be a positive integer; handle the n=0 term yourself")
    rho = pert.reference
    weights = []
    for atom in rho.support():
        w = pert.signed_density(atom) * rho.mass(atom)
        if w != 0.0:
            weights.append((atom, w))
    if not weights:
        return 0.0
    terms = []
    for combo in product(weights, repeat=n):
        xs = tuple(a for a, _ in combo)
        w = 1.0
        for _, wi in combo:
            w *= wi
        terms.append(g(*xs) * w)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Hellinger distance and admissibility
# ---------------------------------------------------------------------------


def hellinger_measures(lam: DiscreteMeasure, nu: DiscreteMeasure,
                       rho: DiscreteMeasure | None = None) -> float:
    """Squared Hellinger distance between two intensity measures.

    Independent of the dominating measure; the default dominating measure is
    lam + nu.
    """
    if rho is None:
        rho = lam.plus(nu)
    h_lam = lam.density_against(rho)
    h_nu = nu.density_against(rho)
    return 0.5 * math.fsum(
        (math.sqrt(h_lam[a]) - math.sqrt(h_nu[a])) ** 2 * rho.mass(a)
        for a in rho.atoms
    )


def hellinger_decomposed(lam: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Same distance through the Lebesgue decomposition of nu along lam.

    Equals ``1/2 * (int (1 - sqrt(d nu_1/d lam))^2 dlam + nu_2(X))`` where
    ``nu_1 << lam`` and ``nu_2`` is the singular part.  A cross-check route
    for :func:`hellinger_measures`.
    """
    nu1, nu2 = lebesgue_decompose(nu, lam)
    acc = []
    for a, m in lam.items():
        if m > 0.0:
            acc.append((1.0 - math.sqrt(nu1.mass(a) / m)) ** 2 * m)
    return 0.5 * (math.fsum(acc) + nu2.total())


def hellinger_poisson(lam: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Squared Hellinger distance between the two Poisson process laws.

    Computed through the identity ``1 - exp(-H(lam, nu))``; the measure-level
    distance is capped at ``DEFAULT_CAP`` first, so a divergent input maps to 1.
    """
    h = min(hellinger_measures(lam, nu), DEFAULT_CAP)
    return -math.expm1(-h)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Square-integrability and Hellinger diagnostics for a measure pair.

    Every value, both sides of ``monotone_up`` included, is clamped at
    ``DEFAULT_CAP``, and each verdict holds when its value is below the cap.
    ``l2_ok``, the series engine's verdict, reads both mean-one density gaps
    ``int (1-h)^2 drho``; ``hellinger_ok`` tracks the weaker necessary
    condition ``H(lam, nu) < inf`` and never drives a verdict on its own.
    ``monotone_ok`` reads the l2 side of ``monotone_up``, or
    ``monotone_down``; it is None when neither applies.
    """

    l2_gap_low: float
    l2_gap_high: float
    hellinger: float
    lebesgue_gap_nu: float
    lebesgue_gap_lam: float
    monotone_up: tuple[float, float] | None = None
    monotone_down: float | None = None

    @property
    def l2_ok(self) -> bool:
        return max(self.l2_gap_low, self.l2_gap_high) < DEFAULT_CAP

    @property
    def hellinger_ok(self) -> bool:
        return self.hellinger < DEFAULT_CAP

    @property
    def lebesgue_nu_ok(self) -> bool:
        return self.lebesgue_gap_nu < DEFAULT_CAP

    @property
    def lebesgue_lam_ok(self) -> bool:
        return self.lebesgue_gap_lam < DEFAULT_CAP

    @property
    def monotone_ok(self) -> bool | None:
        side = self.monotone_down if self.monotone_up is None else self.monotone_up[1]
        return None if side is None else side < DEFAULT_CAP

    def rows(self) -> list[tuple[str, float, bool]]:
        out = [
            ("l2_gap_low", self.l2_gap_low, self.l2_gap_low < DEFAULT_CAP),
            ("l2_gap_high", self.l2_gap_high, self.l2_gap_high < DEFAULT_CAP),
            ("hellinger", self.hellinger, self.hellinger_ok),
            ("lebesgue_gap_nu", self.lebesgue_gap_nu, self.lebesgue_nu_ok),
            ("lebesgue_gap_lam", self.lebesgue_gap_lam, self.lebesgue_lam_ok),
        ]
        if self.monotone_up is not None:
            out.append(("monotone_up_mu_side", self.monotone_up[0], self.monotone_ok))
            out.append(("monotone_up_l2_side", self.monotone_up[1], self.monotone_ok))
        if self.monotone_down is not None:
            out.append(("monotone_down_sq", self.monotone_down, self.monotone_ok))
        return out


def _capped(value: float) -> float:
    return value if math.isfinite(value) and value < DEFAULT_CAP else DEFAULT_CAP


def _gap_term(x: float, m: float) -> float:
    """x ** 2 * m, or x (x m) where Python's ``**`` raises on an overflow."""
    try:
        return x ** 2 * m
    except OverflowError:
        return x * (x * m)


def admissibility_check(lam: DiscreteMeasure, nu: DiscreteMeasure,
                        rho: DiscreteMeasure | None = None) -> AdmissibilityReport:
    """Report every admissibility diagnostic for the pair (lam, nu).

    Nothing is thrown, not even where a squared gap overflows a float:
    divergent quantities are clamped at ``DEFAULT_CAP``, and the report's
    verdicts read the clamped values.  Monotone-direction
    checks are included whenever nu >= lam or nu <= lam atom-wise.
    """
    if rho is None:
        rho = lam.plus(nu)
    h_lam = lam.density_against(rho)
    h_nu = nu.density_against(rho)

    gap_low = math.fsum(_gap_term(1.0 - h_lam[a], rho.mass(a)) for a in rho.atoms)
    gap_high = math.fsum(_gap_term(1.0 - h_nu[a], rho.mass(a)) for a in rho.atoms)

    nu1, nu2 = lebesgue_decompose(nu, lam)
    leb_nu = math.fsum(
        _gap_term(1.0 - nu1.mass(a) / m, m) for a, m in lam.items() if m > 0.0
    ) + nu2.total()
    lam1, lam2 = lebesgue_decompose(lam, nu)
    leb_lam = math.fsum(
        _gap_term(1.0 - lam1.mass(a) / m, m) for a, m in nu.items() if m > 0.0
    ) + lam2.total()

    atoms = sorted(set(lam.atoms) | set(nu.atoms), key=repr)
    up = all(nu.mass(a) >= lam.mass(a) for a in atoms)
    down = all(nu.mass(a) <= lam.mass(a) for a in atoms)

    monotone_up = monotone_down = None
    if up and not down:
        # nu = lam + mu: the gap int (1-h)^2 d(lam+mu) collapses to
        # int (1-h) dmu for h = dlam/d(lam+mu), both reported
        mu = DiscreteMeasure({a: nu.mass(a) - lam.mass(a) for a in atoms})
        lam_plus_mu = lam.plus(mu)
        h = lam.density_against(lam_plus_mu)
        mu_side = math.fsum((1.0 - h[a]) * mu.mass(a) for a in lam_plus_mu.atoms)
        l2_side = math.fsum(_gap_term(1.0 - h[a], lam_plus_mu.mass(a)) for a in lam_plus_mu.atoms)
        monotone_up = (_capped(mu_side), _capped(l2_side))
    elif down and not up:
        # nu = lam - mu: square-integrability of dmu/dlam decides the verdict
        mu = DiscreteMeasure({a: lam.mass(a) - nu.mass(a) for a in atoms})
        h_mu = mu.density_against(lam)
        monotone_down = _capped(math.fsum(_gap_term(h_mu[a], lam.mass(a)) for a in lam.atoms))

    return AdmissibilityReport(
        l2_gap_low=_capped(gap_low), l2_gap_high=_capped(gap_high),
        hellinger=_capped(hellinger_measures(lam, nu, rho=rho)),
        lebesgue_gap_nu=_capped(leb_nu), lebesgue_gap_lam=_capped(leb_lam),
        monotone_up=monotone_up, monotone_down=monotone_down)


def lebesgue_decompose(nu: DiscreteMeasure, lam: DiscreteMeasure
                       ) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Split nu into an absolutely continuous and a singular part along lam."""
    ac, sing = {}, {}
    for a, m in nu.items():
        if lam.mass(a) > 0.0:
            ac[a] = m
        else:
            sing[a] = m
    return DiscreteMeasure(ac), DiscreteMeasure(sing)


# ---------------------------------------------------------------------------
# Parametric families theta -> lam_theta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationFamily:
    """A family of intensities ``(h_lam + (theta-theta0)(h + R_theta)) * rho``.

    ``remainder`` is the possibly non-linear part; it must vanish at theta0
    and stay under the square-integrable ``envelope``.  A linear family has
    ``remainder=None``.  The reference must be a ``DiscreteMeasure``.
    """

    reference: DiscreteMeasure
    base_density: Callable = field(default=lambda x: 1.0)
    direction: Callable = field(default=lambda x: 0.0)
    theta0: float = 0.0
    interval: tuple[float, float] = (0.0, 1.0)
    remainder: Callable | None = None
    envelope: Callable | None = None

    def __post_init__(self):
        if not isinstance(self.reference, DiscreteMeasure):
            raise MeasureMismatchError(
                f"a perturbation family needs a discrete reference, "
                f"got {type(self.reference).__name__}")

    @staticmethod
    def linear(rho, base_density, direction, theta0=0.0, interval=(0.0, 1.0)):
        return PerturbationFamily(
            reference=rho,
            base_density=_as_density(base_density),
            direction=_as_density(direction),
            theta0=theta0,
            interval=interval,
        )

    @property
    def is_linear(self) -> bool:
        return self.remainder is None

    def contains(self, theta: float) -> bool:
        lo, hi = self.interval
        return lo <= theta <= hi

    def density_at(self, theta: float) -> Callable:
        dt = theta - self.theta0
        base, direc, rem = self.base_density, self.direction, self.remainder
        if rem is None:
            return lambda x: base(x) + dt * direc(x)
        return lambda x: base(x) + dt * (direc(x) + rem(theta, x))

    def measure_at(self, theta: float) -> DiscreteMeasure:
        if not self.contains(theta):
            raise ValueError(f"theta={theta} outside declared interval {self.interval}")
        dens = self.density_at(theta)
        masses = {}
        for a, m in self.reference.items():
            val = dens(a)
            if val < -1e-12:
                raise ValueError(f"family density negative ({val:g}) at atom {a!r}, theta={theta}")
            masses[a] = max(val, 0.0) * m
        return DiscreteMeasure(masses)

    def base_measure(self) -> DiscreteMeasure:
        return self.measure_at(self.theta0)

    def validate(self, points: Sequence) -> None:
        """Sampled hypothesis checks on 9 evenly spaced thetas of I:
        nonnegativity, envelope domination, and a remainder vanishing
        pointwise at theta0.  A failed check raises ``ConditionError``."""
        lo, hi = self.interval
        for theta in np.linspace(lo, hi, 9):
            dens = self.density_at(theta)
            for x in points:
                if dens(x) < -1e-12:
                    raise ConditionError(
                        f"family density negative at {x!r} for theta={theta:g}"
                    )
                if self.remainder is not None and self.envelope is not None:
                    if abs(self.remainder(theta, x)) > self.envelope(x) + 1e-12:
                        raise ConditionError(
                            f"remainder exceeds its envelope at {x!r}, theta={theta:g}"
                        )
        if self.remainder is not None:
            for x in points:
                if abs(self.remainder(self.theta0, x)) > 1e-12:
                    raise ConditionError("remainder does not vanish at theta0")
                for sgn in (-1.0, 1.0):
                    span = (hi - self.theta0) if sgn > 0 else (self.theta0 - lo)
                    if span <= 0.0:
                        continue
                    # geometric approach to theta0; |R| must not level off
                    vals = [
                        abs(self.remainder(self.theta0 + sgn * span * 2.0 ** -k, x))
                        for k in range(2, 12)
                    ]
                    if vals[-1] > 1e-9 and vals[-1] > 0.5 * vals[0]:
                        raise ConditionError(
                            f"remainder does not shrink toward theta0 at {x!r}"
                        )
