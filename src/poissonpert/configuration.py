"""Point configurations, functionals of them, and the add-point difference
operators.

A configuration is a finite multiset of atoms of a discrete ground space,
which compare by exact identity (true multiset semantics).

The n-th difference of a functional f at points x_1..x_n is the alternating
subset sum

    sum over J subset of {1..n} of (-1)^(n-|J|) * f(phi + sum_{j in J} delta_{x_j})

which is symmetric in the points.  ``difference_n`` sums it over subsets;
``difference_n_recursive`` follows the one-point recursion and exists only
as a cross-check.

On a discrete space a configuration is a vector of per-atom counts:
``count_values`` evaluates f on whole count arrays (exact lattices, Monte
Carlo blocks) and ``difference_counts`` differences every row of a block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import SPOT_CHECKS

DIFFERENCE_ORDER_CAP = 20
NODE_SLICE = 1 << 16  # most count nodes of a Monte Carlo block evaluated in one array
SPOT_RTOL = 1e-12  # count form vs fn on the spot-checked nodes (the built-ins agree exactly)
_FSUM_ARRAY_MIN = 1024  # fewest values _fsum sums in array passes (math.fsum is cheaper below)


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
    def from_counts(atoms: Sequence, counts: Sequence[int]) -> "PointConfiguration":
        """counts[i] copies of atoms[i]; a zero count leaves the atom out."""
        return PointConfiguration._trusted({a: int(c) for a, c in zip(atoms, counts) if c},
                                           int(sum(counts)))

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

    ``bound``: optional sup-norm bound.
    ``growth_degree``: optional polynomial-growth declaration
    |f(phi)| = O((1 + phi(X))^p), used by the exact engine to widen its count
    caps.  ``increasing``: declares f as the indicator of an increasing event,
    a prerequisite of the pivotal estimator.

    ``counts``: optional count-array form of ``fn``, called as
    ``counts(cs, atoms)``.  ``atoms`` lists atom identifiers and ``cs[i]``
    is an integer array holding the count of ``atoms[i]``; the arrays need
    only broadcast together (the exact tables pass an open grid, ``np.ix_``
    style, so no dense stack of count vectors is built; Monte Carlo passes
    one replication axis).  The result must broadcast to their shape and
    hold, at every node, ``fn`` of the configuration {atoms[i]: cs[i]} with
    no other points.  ``count_values`` evaluates it and compares it with
    ``fn`` on a few spot nodes (a table's origin, far corner and three
    interior nodes; the empty configuration and the first nodes of a Monte
    Carlo estimate); a disagreement beyond ``SPOT_RTOL`` relative raises
    ``CountFormMismatchError`` naming the functional, so a copy made with
    ``dataclasses.replace(f, fn=other)`` cannot silently keep a stale count
    form.  Without ``counts``, ``fn`` runs node by node.
    """

    fn: Callable[[PointConfiguration], float]
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
    return Functional(lambda phi: float(phi.count_in(window)), growth_degree=1, name=name,
                      counts=lambda cs, atoms: _window_count(cs, atoms, window)
                      .astype(float))


def count_squared(window=None, name="count_sq") -> Functional:
    return Functional(lambda phi: float(phi.count_in(window)) ** 2, growth_degree=2, name=name,
                      counts=lambda cs, atoms: _window_count(cs, atoms, window)
                      .astype(float) ** 2)


def void_indicator(window=None, name="void") -> Functional:
    return Functional(lambda phi: 1.0 if phi.count_in(window) == 0 else 0.0,
                      bound=1.0, name=name,
                      counts=lambda cs, atoms: (_window_count(cs, atoms, window) == 0)
                      .astype(float))


def threshold_indicator(k: int, window=None, name=None) -> Functional:
    return Functional(lambda phi: 1.0 if phi.count_in(window) >= k else 0.0,
                      bound=1.0, increasing=True,
                      name=name or f"at_least_{k}",
                      counts=lambda cs, atoms: (_window_count(cs, atoms, window) >= k)
                      .astype(float))


def constant_functional(c: float, name="const") -> Functional:
    return Functional(lambda phi: c, bound=abs(c), name=name,
                      counts=lambda cs, atoms: np.array(float(c)))


def count_values(f, cs: Sequence, atoms: Sequence, spot: Iterable = ()) -> np.ndarray:
    """f at every node of the per-atom count arrays ``cs``, broadcast together.

    Through ``f.counts`` in one call when the functional has a count form: a
    NaN raises ``FunctionalEvaluationError``, and at each node index in
    ``spot`` the value is checked against ``fn``.  Otherwise (a plain
    callable, a hand-written ``Functional``) ``fn`` runs node by node.
    """
    values = np.empty(np.broadcast(*cs).shape)
    counts = getattr(f, "counts", None)
    if counts is None:
        spot = np.ndindex(values.shape)
    else:
        values[...] = counts(cs, atoms)
        if np.isnan(values).any():
            spot = [tuple(np.argwhere(np.isnan(values))[0])]
    name, full = getattr(f, "name", "") or repr(f), ()
    for node in spot:
        full = full or np.broadcast_arrays(*cs)
        at = [int(c[node]) for c in full]
        want, got = f(PointConfiguration.from_counts(atoms, at)), float(values[node])
        if counts is None:
            values[node] = want
        elif got != got:
            raise FunctionalEvaluationError(
                f"functional {name} returned NaN at counts {dict(zip(atoms, at))!r}")
        elif not (got == want or abs(got - want) <= SPOT_RTOL * max(abs(got), abs(want))):
            raise CountFormMismatchError(
                f"functional {name}: count form gives {got!r} but fn gives {want!r} "
                f"at counts {dict(zip(atoms, at))!r}")
    return values


def block_values(f, cs: Sequence, atoms: Sequence, check: bool = False) -> np.ndarray:
    """``count_values`` on a Monte Carlo block; ``check`` spot-checks the
    empty configuration and the first ``rng.SPOT_CHECKS`` nodes."""
    if not check:
        return count_values(f, cs, atoms)
    count_values(f, [np.zeros((), dtype=np.int64)] * len(atoms), atoms, [()])
    return count_values(f, cs, atoms, itertools.islice(np.ndindex(np.broadcast(*cs).shape),
                                                       SPOT_CHECKS))


@lru_cache(maxsize=32)
def _subsets(n: int, start: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsets start..start+size-1 of n points as 0/1 columns (row j: point
    j added) and their signs (-1)^(n - |J|)."""
    bits = (np.arange(start, start + size) >> np.arange(n)[:, None]) & 1
    signs = np.where((n - bits.sum(axis=0)) % 2, -1.0, 1.0)
    bits.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return bits, signs


def _extract(r: np.ndarray, mag: np.ndarray, m: int) -> tuple:
    """One error-free extraction pass down axis 0: the exact column sums of
    the high parts q = (r + sigma) - sigma, with sigma 2^m times the least
    power of two above the column's ``mag``, and the remainders r - q with
    their largest magnitudes."""
    sigma = np.ldexp(1.0, np.frexp(mag)[1] + m)
    q = r + sigma
    q -= sigma
    total = q.sum(axis=0)
    r = np.subtract(r, q, out=q)
    return total, r, np.maximum(r.max(axis=0), -r.min(axis=0))


def _fsum(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row (the last axis) of a float array, bit for bit.

    Below ``_FSUM_ARRAY_MIN`` values in all, every row runs ``math.fsum``.
    Otherwise the rows are summed by error-free extraction (Rump, Ogita &
    Oishi, *Accurate floating-point summation I*, SIAM J. Sci. Comput. 31,
    2008).  With n values a row and 2^m >= n + 2, a power of two
    sigma > 2^m max|r| splits each value r into the high part
    q = (r + sigma) - sigma and the exact remainder r - q.  Every q is a
    multiple of 2^-53 sigma and at most 2^-m sigma, so the float sum T of a
    row's q is exact in any order.

    - If one pass leaves no remainder (integer-valued rows, say), T is the sum.
    - Otherwise a second pass leaves the exact sum T1 + T2 + sum(r), and
      s = fl(T1 + T2) is the correctly rounded sum when no r is left.
    - Else the float sum of the r errs by less than 2^(2m - 52) max|r|, so
      the exact residual, the TwoSum error of s plus sum(r), lies within w
      of its float value d.  If s + (d - w) and s + (d + w) both round to
      s, so does the exact sum, since rounding is monotone.

    ``math.fsum`` rounds correctly, so it returns the same s.  A row with
    inf, NaN or a value of 2^(1022 - m) or more, or whose sum is too near a
    rounding boundary (a tie, or an exact zero with remainders), runs
    ``math.fsum`` on its list, so its exceptions and non-finite results stay
    those of ``math.fsum``.
    """
    x = np.asarray(x, dtype=float)
    shape, n = x.shape[:-1], x.shape[-1]
    if x.size == 0:
        return np.zeros(shape)
    rows = x.reshape(-1, n)
    if rows.size < _FSUM_ARRAY_MIN:
        return np.fromiter(map(math.fsum, rows.tolist()), float, len(rows)).reshape(shape)
    r = np.ascontiguousarray(rows.T)  # (n, rows): the reductions run across rows
    m = (n + 1).bit_length()  # 2^m >= n + 2
    mag = np.maximum(r.max(axis=0), -r.min(axis=0))
    sure = mag < 2.0 ** (1022 - m)  # finite (NaN compares false), sigma stays finite
    if not sure.all():
        r = np.where(sure, r, 0.0)
        mag[~sure] = 0.0
    s, r, mag = _extract(r, mag, m)
    if mag.any():
        t1, (t2, r, mag) = s, _extract(r, mag, m)
        s = t1 + t2
        z = s - t1
        d = (t1 - (s - z)) + (t2 - z) + r.sum(axis=0)
        w = np.ldexp(mag, 2 * m - 50) + np.abs(d) * 2.0 ** -50 + 2.0 ** -1072
        sure &= (mag == 0) | ((s + (d + w) == s) & (s + (d - w) == s))
    bad = np.flatnonzero(~sure)
    if bad.size:
        s[bad] = list(map(math.fsum, rows[bad].tolist()))
    return s.reshape(shape)


def difference_counts(f, counts: np.ndarray, atoms: Sequence, picks: np.ndarray,
                      check: bool = False) -> np.ndarray:
    """``difference_n`` on every row of a Monte Carlo block.

    Row r is the configuration ``counts[r]`` over ``atoms`` with the points
    ``atoms[picks[r, j]]``, j < n.  Its 2^n subset configurations form one
    count array, evaluated by ``block_values`` (``check`` on the first slice)
    at most ``NODE_SLICE`` nodes at a time.  The signed values of each row
    are added by ``_fsum``, which returns ``math.fsum`` of the row, as in
    ``difference_n``, from a few array passes.
    """
    rows, n = picks.shape
    hot = picks == np.arange(len(atoms))[:, None, None]  # (atoms, rows, n)
    step = min(1 << n, NODE_SLICE)
    per = NODE_SLICE // step
    out = np.empty(rows)
    for r in range(0, rows, per):
        signed = []
        for start in range(0, 1 << n, step):
            bits, signs = _subsets(n, start, step)
            cs = list(counts[r:r + per].T[:, :, None] + hot[:, r:r + per] @ bits)
            signed.append(block_values(f, cs, atoms, check and start == r == 0) * signs)
        signed = np.concatenate(signed, axis=-1)
        out[r:r + per] = signed[..., 0] if n == 0 else _fsum(signed)
    return out


def difference_n(f: Functional, phi: PointConfiguration, xs: Sequence) -> float:
    """n-th difference of f at phi via the symmetric subset sum.

    The 2^n signed values are combined with exact compensated summation
    (``math.fsum``), which makes the value invariant under permutations of
    xs at full precision.  Orders above ``DIFFERENCE_ORDER_CAP`` raise.
    """
    n = len(xs)
    if n > DIFFERENCE_ORDER_CAP:
        raise DifferenceOrderError(
            f"difference order {n} above cap {DIFFERENCE_ORDER_CAP} (cost is 2^n)")
    return math.fsum((-1.0) ** (n - k) * f(phi.add(sub))
                     for k in range(n + 1) for sub in itertools.combinations(xs, k))


def difference_n_recursive(f: Functional, phi: PointConfiguration, xs: Sequence) -> float:
    """Same operator through the recursion D^n = D o D^(n-1); cross-check only."""
    n = len(xs)
    if n > DIFFERENCE_ORDER_CAP:
        raise DifferenceOrderError(f"difference order {n} above cap {DIFFERENCE_ORDER_CAP}")
    if n == 0:
        return f(phi)
    rest = xs[1:]
    return (difference_n_recursive(f, phi.add([xs[0]]), rest)
            - difference_n_recursive(f, phi, rest))
