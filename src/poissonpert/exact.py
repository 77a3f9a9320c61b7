"""Exact expectations over Poisson laws on finite discrete spaces.

Every result here comes from one lattice of count vectors, truncated by one
rule.  Each atom of the base measure m with positive mass gets a count cap
whose neglected Poisson tail, inflated by the declared polynomial growth of
f, stays below ``_TAIL``.  The cap covers m's mass at that atom and the mass
of each ``cover`` measure there: an integrand weighted by another law (the
likelihood ratio of a change of measure) concentrates where that law does,
so its tail is the cover measure's, not m's.  The functional is evaluated
once over the whole lattice, as array work through its count-array form
(``Functional.counts``), and the Poisson mixture is contracted afterwards:
base-measure axes first, then the shift windows.  Each atom's law is built
once per measure and table, for its cap and its weights.  A plain
expectation is one exactly rounded sum over the lattice, so results are
exact to near machine precision at desk scale.  That sum is
``configuration._fsum``: ``math.fsum`` of the weighted lattice, bit for bit,
from a few array passes of error-free extraction instead of one Python float
at a time.  A functional without a count form (a plain callable, a
hand-written ``Functional``) is evaluated node by node instead: the same
lattice, one ``fn`` call per node, which is the slow fallback.  Cost is the
product of the per-atom cap ranges, so enumeration refuses more than
``MAX_ATOMS`` atoms.

The lattice is a table of shifted expectations

    a(m_1..m_S) = E f(Phi + m_1 delta_{x_1} + ... + m_S delta_{x_S})

and its mixed forward differences equal the expected symmetric differences
E D^k f by the subset-sum identity.  One table serves every order and every
atom of the series and derivative engines; a plain expectation is its
``n_max = 0`` case.  The definitional subset-sum route
(``exact_expected_difference``) stays available as a cross-check.

Poisson probabilities come from the recurrence p_k = p_{k-1} mass / k and
tails from a compensated forward sum of the probabilities beyond k, never
from 1 - cdf.  A law runs only to ``_reach``, past which its terms sum to
less than 2^-70 ``_TAIL``: the caps are those of longer laws unless a tested
tail lies that close to its bound, and every law prefix is unchanged.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configuration import Functional, _fsum, count_values, difference_n
from .measures import DiscreteMeasure

_UNDERFLOW_MASS = 700.0  # e^(-mass) stays a normal float below this
MAX_ATOMS = 6  # widest space enumerated (cost is the product of the cap ranges)
_TAIL = 1e-14  # per-atom Poisson tail mass bound of every cap


def poisson_pmf(mass: float, k_max: int) -> np.ndarray:
    """P(N = k) for k = 0..k_max, N ~ Poisson(mass).

    Forward recurrence p_0 = e^(-mass), p_k = p_{k-1} * mass / k, accurate
    to about one ulp per step.  Past ``_UNDERFLOW_MASS``, where e^(-mass)
    underflows, it starts at the mode from lgamma and runs both ways.
    """
    probs = [0.0] * (k_max + 1)
    if mass <= 0.0:
        probs[0] = 1.0
        return np.array(probs)
    k0 = 0 if mass <= _UNDERFLOW_MASS else min(int(mass), k_max)
    p = math.exp(k0 * math.log(mass) - mass - math.lgamma(k0 + 1))
    probs[k0] = p
    for k in range(k0 + 1, k_max + 1):
        p = p * mass / k
        probs[k] = p
    p = probs[k0]
    for k in range(k0, 0, -1):
        p = p * k / mass
        probs[k - 1] = p
    return np.array(probs)


def _tail_reach(mass: float) -> int:
    """A count past which the Poisson(mass) tail is far below 1e-200: the
    ceiling of ``_reach``, and all of it where 2^-70 ``_TAIL`` underflows."""
    return int(mass + 40.0 * math.sqrt(mass)) + 100


def _reach(mass: float) -> int:
    """How far an atom's law runs: the first k >= 2 mass with p_k < 2^-70
    ``_TAIL``, at most ``_tail_reach`` (all of it where that floor is no
    normal float).  From 2 mass on p_{k+1} / p_k = mass / (k + 1) < 1/2, so
    the terms past it sum to less than p_k: a cap whose tail, times its growth
    factor g, lies further than 2^-70 ``_TAIL`` g above ``_TAIL`` is kept."""
    if mass <= 0.0:
        return 0
    ceiling, floor = _tail_reach(mass), 2.0 ** -70 * _TAIL
    if floor < sys.float_info.min:
        return ceiling
    k = min(math.ceil(2.0 * mass), ceiling)
    p = math.exp(k * math.log(mass) - mass - math.lgamma(k + 1))
    while p >= floor and k < ceiling:
        k += 1
        p *= mass / k
    return k


def _law(mass: float, growth_degree: int | None = None,
         length: int = 0) -> tuple[int, np.ndarray]:
    """The count cap of an atom of this mass and P(N = k) for k = 0 to at
    least max(cap, length), from one ``poisson_pmf``.

    The cap is the smallest count whose tail, inflated by the polynomial
    growth of the integrand when declared, is below ``_TAIL``: it starts one
    past the tail quantile min{k : P(N > k) <= _TAIL} and grows while
    P(N > k) (k + 2)^p >= _TAIL.  P(N > k) is the compensated forward sum of
    the probabilities beyond k, up to ``_reach``; 1 - cdf would lose every
    digit of so small a tail.  Every test reads that ``math.fsum``, computed
    only where it could decide the test: the K positive probabilities summed
    smallest first give each P(N > k) within a relative (K + 3) u, so a test
    whose cumulative sum lies further than K 2^-50 from the bound has the
    same outcome.  A prefix of the law that reaches the mode is ``poisson_pmf``
    to its length bit for bit (same start, same steps); ``length`` extends it
    past the cap.
    """
    if mass <= 0.0:
        return 0, poisson_pmf(mass, length)
    if mass > 1e6:
        raise ValueError(f"atom mass {mass:g} is far beyond enumeration scale")
    reach = _reach(mass)
    law = poisson_pmf(mass, max(reach + 1, length))  # caps <= reach + 1
    probs = law[:reach + 1]
    rough = np.cumsum(probs[:0:-1])[::-1].tolist() + [0.0]  # P(N > j)
    close = len(probs) * 2.0 ** -50 * _TAIL

    def sf(j: int, scale: int = 1) -> float:
        value = rough[min(j, len(rough) - 1)] * scale
        if abs(value - _TAIL) <= close:
            value = math.fsum(probs[j + 1:]) * scale
        return value

    k = bisect.bisect_left(range(len(probs)), True, key=lambda j: sf(j) <= _TAIL) + 1
    p = growth_degree or 0
    while sf(k, (k + 2) ** p) >= _TAIL:
        k += 1
    return k, law


def exact_expectation(f: Functional, m: DiscreteMeasure,
                      cover: Sequence[DiscreteMeasure] = ()) -> float:
    """E f(Phi) under the Poisson law with intensity m: the ``n_max = 0``
    case of :func:`expectation_table`, one compensated sum over the lattice
    whose caps also cover each ``cover`` measure, the laws f is weighted by."""
    return float(expectation_table(f, m, [], 0, cover))


def exact_expected_difference(f: Functional, m: DiscreteMeasure, xs: Sequence) -> float:
    """E D^n f(Phi) at the points xs, via the definitional subset sum.

    A cross-check of the lattice route: every node runs ``difference_n``.
    """
    wrapped = Functional(lambda phi: difference_n(f, phi, xs),
                         bound=None, growth_degree=getattr(f, "growth_degree", None),
                         name=f"D^{len(xs)}[{f.name}]")
    return exact_expectation(wrapped, m)


# ---------------------------------------------------------------------------
# The lattice: shifted-expectation tables and their forward differences
# ---------------------------------------------------------------------------


def _open_grid(shape: tuple) -> list[np.ndarray]:
    """Per-axis count arrays of the lattice, broadcastable against each other."""
    return list(np.ix_(*(np.arange(n) for n in shape)))


def _spot_nodes(shape: tuple) -> list[tuple]:
    """Origin, far corner and three interior nodes staggered across axes."""
    nodes = {tuple(0 for _ in shape), tuple(n - 1 for n in shape)}
    for j in range(3):
        nodes.add(tuple(((i + j) % 3 + 1) * (n - 1) // 4 for i, n in enumerate(shape)))
    return sorted(nodes)


def expectation_table(f: Functional, m: DiscreteMeasure, shift_atoms: Sequence,
                      n_max: int, cover: Sequence[DiscreteMeasure] = ()) -> np.ndarray:
    """Table of E f(Phi + sum_i m_i delta_{x_i}) over the box 0..n_max per axis.

    Axis order follows ``shift_atoms``, which must not repeat an atom.  The
    one truncation rule: an atom with positive m-mass is capped at the
    largest growth-aware cap (``_law``) of m's mass and of each ``cover``
    measure's mass at that atom, and weighted by m's law extended to that
    cap.  ``cover`` names the laws the integrand is weighted by: f = L g
    with L the density of Poisson(nu) against Poisson(m) puts its mass where
    nu does, so its table needs nu's cap.  The functional is evaluated once
    over the total-count lattice by ``configuration.count_values``, with
    the count form spot-checked on ``_spot_nodes``; the Poisson
    mixture over the base measure is contracted afterwards: the unshifted
    axes first, last to first, one matrix-vector product each, then the
    sliding windows of the shift axes over the small table left.  Each
    atom's law is built once per measure.  Without shifts
    (``n_max = 0`` or no shift atoms) the result is a 0-d array, the
    expectation itself: ``math.fsum`` of the weighted lattice, computed by
    ``configuration._fsum``.
    """
    shift_atoms = list(shift_atoms)
    for i, a in enumerate(shift_atoms):
        if a in shift_atoms[:i]:
            raise ValueError(f"shift atom {a!r} is repeated; give each atom once")
    base_atoms = [a for a in m.support()]
    if len(base_atoms) > MAX_ATOMS:
        raise ValueError(f"{len(base_atoms)} atoms exceed enumeration limit {MAX_ATOMS}")
    growth = getattr(f, "growth_degree", None)

    union = shift_atoms + [a for a in base_atoms if a not in shift_atoms]
    pmfs = []
    for a in union:
        mass = m.mass(a)
        covers = [_law(c.mass(a), growth)[0] for c in cover if mass > 0.0]
        cap, law = _law(mass, growth, max(covers, default=0))
        pmfs.append(law[:max([cap] + covers) + 1])
    shifts = [n_max if a in shift_atoms else 0 for a in union]
    shape = tuple(len(pmf) + s for pmf, s in zip(pmfs, shifts))
    table = count_values(f, _open_grid(shape), union, _spot_nodes(shape))

    if not any(shifts):
        weights = np.ones(())
        for pmf, c in zip(pmfs, _open_grid(shape)):
            weights = weights * pmf[c]
        return _fsum((weights * table).ravel())

    # the base axes trail the shift axes: sum each out while it is the last
    for pmf in reversed(pmfs[len(shift_atoms):]):
        table = table @ pmf
    # sliding contraction of each shift axis: out[m] = sum_c pmf[c] * in[m + c]
    for axis, pmf in enumerate(pmfs[:len(shift_atoms)]):
        window = np.zeros((n_max + 1, len(pmf) + n_max))
        for shift in range(n_max + 1):
            window[shift, shift:shift + len(pmf)] = pmf
        moved = np.moveaxis(table, axis, 0)
        table = np.moveaxis(np.tensordot(window, moved, axes=([1], [0])), 0, axis)
    return table


def forward_difference_table(a: np.ndarray) -> np.ndarray:
    """Mixed forward differences of a lattice table, anchored at the origin.

    ``out[k_1..k_S]`` is the order-(k_1..k_S) forward difference of ``a`` at
    zero, which for a shifted-expectation table equals E D^k f with the
    shift atoms repeated k_i times.
    """
    out = a
    for axis in range(a.ndim):
        moved = np.moveaxis(out, axis, 0)
        res = np.empty_like(moved)
        res[0] = moved[0]
        cur = moved
        for k in range(1, moved.shape[0]):
            cur = cur[1:] - cur[:-1]
            res[k] = cur[0]
        out = np.moveaxis(res, 0, axis)
    return out


def weight_table(weights: Sequence[float], n_max: int) -> np.ndarray:
    """Tensor of prod_i w_i^{k_i} / k_i! over the order box."""
    factorials = np.array([math.factorial(k) for k in range(n_max + 1)], dtype=float)
    vecs = [np.power(float(w), np.arange(n_max + 1)) / factorials for w in weights]
    if not vecs:
        return np.ones(())
    out = vecs[0]
    for vec in vecs[1:]:
        out = np.multiply.outer(out, vec)
    return out


def order_sums(table: np.ndarray, n_max: int) -> np.ndarray:
    """Collapse a lattice table to per-total-order sums t_n = sum_{|k|=n}."""
    if table.ndim == 0:
        out = np.zeros(n_max + 1)
        out[0] = float(table)
        return out
    order = np.zeros(table.shape, dtype=np.int64)
    for axis, size in enumerate(table.shape):
        shape = [1] * table.ndim
        shape[axis] = size
        order = order + np.arange(size).reshape(shape)
    flat_ord = order.ravel()
    keep = flat_ord <= n_max
    return np.bincount(flat_ord[keep], weights=table.ravel()[keep], minlength=n_max + 1)


def expected_difference_orders(f: Functional, m: DiscreteMeasure,
                               weights: dict, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-order sums of weighted expected differences.

    Returns ``(terms, abs_terms)`` where

        terms[n]     = sum_{|k|=n} E D^k f * prod w_i^{k_i} / k_i!
        abs_terms[n] = sum_{|k|=n} |E D^k f| * prod |w_i|^{k_i} / k_i!

    with k running over multisets of the weighted atoms.  ``terms[n]`` equals
    ``1/n! * int (E D^n f) w^{tensor n}`` summed over the atom grid, the exact
    per-order ingredient of the variational and parametric series.
    """
    atoms = [a for a, w in sorted(weights.items(), key=lambda kv: repr(kv[0])) if w != 0.0]
    ws = [weights[a] for a in atoms]
    a_table = expectation_table(f, m, atoms, n_max)
    delta = forward_difference_table(a_table)
    terms = order_sums(delta * weight_table(ws, n_max), n_max)
    abs_terms = order_sums(np.abs(delta) * weight_table([abs(w) for w in ws], n_max), n_max)
    return terms, abs_terms


# ---------------------------------------------------------------------------
# Fock-type identity check: E[fg] as a series of difference products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockCheck:
    """E[f g] and the expansion's terms; the other three are derived."""

    lhs: float
    terms: tuple[float, ...]

    @property
    def partials(self) -> tuple[float, ...]:
        return tuple(float(p) for p in np.cumsum(self.terms))

    @property
    def rhs_partial(self) -> float:
        return self.partials[-1]

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs_partial)


def fock_identity_check(f: Functional, g: Functional, m: DiscreteMeasure,
                        n_max: int) -> FockCheck:
    """Compare E[f g] with its truncated difference-product expansion

        sum_n 1/n! int (E D^n f)(E D^n g) dm^n.
    """
    both = Functional(lambda phi: f(phi) * g(phi),
                      growth_degree=(f.growth_degree or 0) + (g.growth_degree or 0) or None,
                      name=f"{f.name}*{g.name}",
                      counts=None if f.counts is None or g.counts is None else
                      lambda cs, atoms: f.counts(cs, atoms) * g.counts(cs, atoms))
    lhs = exact_expectation(both, m)

    atoms = list(m.support())
    table_f = forward_difference_table(expectation_table(f, m, atoms, n_max))
    table_g = forward_difference_table(expectation_table(g, m, atoms, n_max))
    wt = weight_table([m.mass(a) for a in atoms], n_max)
    terms = order_sums(table_f * table_g * wt, n_max)
    return FockCheck(lhs=lhs, terms=tuple(float(t) for t in terms))


def poisson_hellinger_exact(lam: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Squared Hellinger distance between two Poisson laws, by enumeration.

    Counts factorize over atoms, so the Bhattacharyya affinity is a product
    of per-atom sums sum_k sqrt(pmf_lam(k) pmf_nu(k)); the distance is one
    minus that product.  Serves as the independent oracle for the identity
    route in :func:`poissonpert.measures.hellinger_poisson`.  Both laws of an
    atom run to the larger ``_reach`` + 1, which covers both caps.
    """
    affinity = 1.0
    for a in sorted(set(lam.atoms) | set(nu.atoms), key=repr):
        ml, mn = lam.mass(a), nu.mass(a)
        length = max(_reach(ml), _reach(mn)) + 1  # covers both caps
        (kl, pl), (kn, pn) = _law(ml, length=length), _law(mn, length=length)
        cap = max(kl, kn)
        affinity *= math.fsum(np.sqrt(pl[:cap + 1] * pn[:cap + 1]))
    return 1.0 - affinity
