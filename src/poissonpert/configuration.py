"""Point configurations, functionals of them, and the add-point difference
operators.

A configuration is a finite multiset of ground-space points.  Points compare
by exact identity: atom ids in the discrete regime, full coordinate tuples in
boxes (continuum samples are almost surely distinct, and the discrete regime
needs true multiset semantics).

The n-th difference of a functional f at points x_1..x_n is the alternating
subset sum

    sum over J subset of {1..n} of (-1)^(n-|J|) * f(phi + sum_{j in J} delta_{x_j})

which is symmetric in the points.  ``difference_n`` evaluates it by a
Gray-code walk over subsets; ``difference_n_recursive`` follows the one-point
recursion and exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DIFFERENCE_ORDER_CAP = 20


class FunctionalEvaluationError(RuntimeError):
    """A functional produced NaN; the enclosing estimator must abort."""


class DifferenceOrderError(ValueError):
    """Requested difference order exceeds the configured 2^n cost cap."""


class CountFormMismatchError(ValueError):
    """A functional's count-array form disagrees with its ``fn``."""


class PointConfiguration:
    """Immutable finite multiset of points."""

    __slots__ = ("_counts", "_total")

    def __init__(self, counts: dict | None = None):
        clean = {}
        total = 0
        if counts:
            for point, mult in counts.items():
                m = int(mult)
                if m != mult or m < 1:
                    raise ValueError(f"multiplicity of {point!r} must be a positive integer")
                clean[point] = m
                total += m
        self._counts = clean
        self._total = total

    @classmethod
    def _trusted(cls, counts: dict, total: int) -> "PointConfiguration":
        obj = cls.__new__(cls)
        obj._counts = counts
        obj._total = total
        return obj

    @staticmethod
    def empty() -> "PointConfiguration":
        return PointConfiguration()

    @staticmethod
    def from_points(points: Iterable) -> "PointConfiguration":
        cfg: dict = {}
        for p in points:
            cfg[p] = cfg.get(p, 0) + 1
        return PointConfiguration(cfg)

    def total_points(self) -> int:
        return self._total

    def count(self, point) -> int:
        return self._counts.get(point, 0)

    def count_in(self, window=None) -> int:
        if window is None:
            return self._total
        return sum(m for p, m in self._counts.items() if window.contains(p))

    def items(self):
        return sorted(self._counts.items(), key=lambda kv: repr(kv[0]))

    def points(self):
        """Every point, repeated with multiplicity, in deterministic order."""
        for p, m in self.items():
            for _ in range(m):
                yield p

    def add(self, points: Iterable) -> "PointConfiguration":
        counts = dict(self._counts)
        added = 0
        for p in points:
            counts[p] = counts.get(p, 0) + 1
            added += 1
        return PointConfiguration._trusted(counts, self._total + added)

    def remove_one(self, point) -> "PointConfiguration":
        m = self._counts.get(point, 0)
        if m == 0:
            raise KeyError(f"point {point!r} not in configuration")
        counts = dict(self._counts)
        if m == 1:
            del counts[point]
        else:
            counts[point] = m - 1
        return PointConfiguration._trusted(counts, self._total - 1)

    def restrict(self, window) -> "PointConfiguration":
        if window is None:
            return self
        counts = {p: m for p, m in self._counts.items() if window.contains(p)}
        return PointConfiguration(counts)

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and self._counts == other._counts

    def __bool__(self):
        return self._total > 0

    def __repr__(self):
        inner = ", ".join(f"{p!r}: {m}" for p, m in self.items())
        return f"PointConfiguration({{{inner}}})"


@dataclass(frozen=True)
class Functional:
    """A real functional of point configurations.

    ``window``: optional region outside which the functional ignores points
    (spot-tested, not enforced).  ``bound``: optional sup-norm bound.
    ``growth_degree``: optional polynomial-growth declaration
    |f(phi)| = O((1 + phi(X))^p), used by the exact engine to widen its count
    caps.  ``increasing``: declares f as the indicator of an increasing event,
    a prerequisite of the pivotal estimator.

    ``counts``: optional count-array form of ``fn`` on a discrete lattice,
    called as ``counts(cs, atoms)``.  ``atoms`` lists atom identifiers and
    ``cs[i]`` is an integer array holding the count of ``atoms[i]``; the
    arrays form an open grid (``np.ix_`` style: axis i varies along
    dimension i only), so they broadcast against each other and no dense
    stack of count vectors is ever built.  The result must broadcast to the
    grid and hold, at every node, ``fn`` of the configuration
    {atoms[i]: cs[i]} with no other points.  The exact engine evaluates its
    whole lattice through this form in one call and evaluates ``fn`` on a
    few fixed nodes of every such table (origin, far corner, three interior
    nodes); a disagreement there beyond ``exact.SPOT_RTOL`` relative raises
    ``CountFormMismatchError`` naming the functional, so a copy made with
    ``dataclasses.replace(f, fn=other)`` cannot silently keep a stale count
    form.  Without ``counts`` the engine calls ``fn`` node by node.
    """

    fn: Callable[[PointConfiguration], float]
    window: object = None
    bound: float | None = None
    growth_degree: int | None = None
    increasing: bool = False
    name: str = ""
    counts: Callable | None = None

    def __call__(self, phi: PointConfiguration) -> float:
        val = float(self.fn(phi))
        if val != val:
            raise FunctionalEvaluationError(
                f"functional {self.name or self.fn!r} returned NaN on {phi!r}"
            )
        return val


def _window_count(cs: Sequence, atoms: Sequence, window=None):
    """phi(W) on a count lattice: the summed counts of the atoms in the window."""
    total = np.zeros((), dtype=np.int64)
    for c, a in zip(cs, atoms):
        if window is None or window.contains(a):
            total = total + c
    return total


# common functional factories, also the CLI registry building blocks

def count_functional(window=None, name="count") -> Functional:
    return Functional(lambda phi: float(phi.count_in(window)), window=window,
                      growth_degree=1, name=name,
                      counts=lambda cs, atoms: _window_count(cs, atoms, window)
                      .astype(float))


def count_squared(window=None, name="count_sq") -> Functional:
    return Functional(lambda phi: float(phi.count_in(window)) ** 2, window=window,
                      growth_degree=2, name=name,
                      counts=lambda cs, atoms: _window_count(cs, atoms, window)
                      .astype(float) ** 2)


def void_indicator(window=None, name="void") -> Functional:
    return Functional(lambda phi: 1.0 if phi.count_in(window) == 0 else 0.0,
                      window=window, bound=1.0, name=name,
                      counts=lambda cs, atoms: (_window_count(cs, atoms, window) == 0)
                      .astype(float))


def threshold_indicator(k: int, window=None, name=None) -> Functional:
    return Functional(lambda phi: 1.0 if phi.count_in(window) >= k else 0.0,
                      window=window, bound=1.0, increasing=True,
                      name=name or f"at_least_{k}",
                      counts=lambda cs, atoms: (_window_count(cs, atoms, window) >= k)
                      .astype(float))


def constant_functional(c: float, name="const") -> Functional:
    return Functional(lambda phi: c, bound=abs(c), name=name,
                      counts=lambda cs, atoms: np.array(float(c)))


def difference_n(f: Functional, phi: PointConfiguration, xs: Sequence,
                 cap: int = DIFFERENCE_ORDER_CAP) -> float:
    """n-th difference of f at phi via the symmetric subset sum.

    Subsets are walked in Gray-code order so successive evaluations differ by
    a single added or removed point, and the terms are combined with exact
    compensated summation, making the value invariant under permutations of
    xs at full precision.
    """
    n = len(xs)
    if n == 0:
        return f(phi)
    if n > cap:
        raise DifferenceOrderError(f"difference order {n} above cap {cap} (cost is 2^n)")
    work = {p: m for p, m in phi.items()}
    total = phi.total_points()
    terms = [(-1.0 if n % 2 else 1.0) * f(phi)]
    size = 0
    prev_gray = 0
    for j in range(1, 1 << n):
        gray = j ^ (j >> 1)
        bit = gray ^ prev_gray
        idx = bit.bit_length() - 1
        x = xs[idx]
        if gray & bit:
            work[x] = work.get(x, 0) + 1
            total += 1
            size += 1
        else:
            m = work[x]
            if m == 1:
                del work[x]
            else:
                work[x] = m - 1
            total -= 1
            size -= 1
        prev_gray = gray
        sign = -1.0 if (n - size) % 2 else 1.0
        terms.append(sign * f(PointConfiguration._trusted(dict(work), total)))
    return math.fsum(terms)


def difference_n_recursive(f: Functional, phi: PointConfiguration, xs: Sequence,
                           cap: int = DIFFERENCE_ORDER_CAP) -> float:
    """Same operator through the recursion D^n = D o D^(n-1); cross-check only."""
    n = len(xs)
    if n > cap:
        raise DifferenceOrderError(f"difference order {n} above cap {cap}")
    if n == 0:
        return f(phi)
    rest = xs[1:]
    return (difference_n_recursive(f, phi.add([xs[0]]), rest, cap)
            - difference_n_recursive(f, phi, rest, cap))
