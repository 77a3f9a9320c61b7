"""The array-evaluated exact engine.

Count-array forms of functionals against their per-node ``fn``, lattice
tables against the per-node fallback, the one-table order-one derivative
against the subset-sum route, the spot check, and the Poisson pmf / tail
helpers behind the enumeration caps.
"""

import bisect
import contextlib
import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from scipy import stats

from poissonpert import (AtomWindow, LikelihoodRatio, MCPlan, PointConfiguration, RngStream,
                         constant_functional, count_functional, count_squared, discrete,
                         exact_expectation, exact_expected_difference, fock_identity_check,
                         mc_expectation, poisson_hellinger_exact, reweighted_expectation,
                         second_moment_exact, threshold_indicator, void_indicator)
from poissonpert.configuration import CountFormMismatchError, FunctionalEvaluationError
from poissonpert import exact
from poissonpert.exact import expectation_table, expected_difference_orders, poisson_pmf
from poissonpert.series import order_one

# one fixed profile for every property here: derandomized, no example database,
# and no shrinking (a failing example is reported as drawn, which keeps a
# failure of the subset-sum comparisons from running for minutes)
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=25,
                   phases=[Phase.explicit, Phase.generate],
                   suppress_health_check=[HealthCheck.too_slow])
COARSE = 1e-8  # a tail bound whose small lattices keep the per-node routes fast


@contextlib.contextmanager
def caps_at(bound):
    """Enumeration caps at this per-atom tail bound inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_TAIL", bound)
        yield

ATOMS = ["a", "b", "c", "d"]


@st.composite
def builtins(draw, atoms):
    """A built-in functional over a drawn window (or none) of the atoms."""
    window = draw(st.one_of(st.none(),
                            st.sets(st.sampled_from(atoms)).map(AtomWindow)))
    kind = draw(st.sampled_from(["void", "count", "count_sq", "threshold", "const"]))
    if kind == "void":
        return void_indicator(window)
    if kind == "count":
        return count_functional(window)
    if kind == "count_sq":
        return count_squared(window)
    if kind == "threshold":
        return threshold_indicator(draw(st.integers(0, 4)), window)
    return constant_functional(draw(st.floats(-3.0, 3.0)))


masses = st.floats(0.05, 1.2)


@st.composite
def likelihood_weighted(draw, atoms):
    """L g for a drawn pair (nu, rho) on the atoms, with atoms where h = 0
    and where h = 1, and a built-in g."""
    rho = {a: draw(masses) for a in atoms}
    nu = {a: draw(st.one_of(st.just(0.0), st.just(rho[a]), masses)) for a in atoms}
    L = LikelihoodRatio.from_discrete(discrete(nu), discrete(rho))
    return L.weighted(draw(builtins(atoms)))


@st.composite
def lattices(draw):
    """Atoms (one of them possibly off every measure) and a lattice shape."""
    n = draw(st.integers(1, 4))
    atoms = ATOMS[:n]
    shape = tuple(draw(st.integers(1, 6)) for _ in atoms)
    return atoms, shape


def open_grid(shape):
    return list(np.ix_(*(np.arange(k) for k in shape)))


def fn_on_lattice(f, atoms, shape):
    out = np.empty(shape)
    for node in np.ndindex(shape):
        cfg = {a: c for a, c in zip(atoms, node) if c}
        out[node] = f(PointConfiguration(cfg))
    return out


class TestCountForms:
    @PROFILE
    @given(data=st.data(), lattice=lattices())
    def test_builtin_counts_equal_fn(self, data, lattice):
        atoms, shape = lattice
        f = data.draw(builtins(atoms))
        got = np.broadcast_to(f.counts(open_grid(shape), atoms), shape)
        np.testing.assert_array_equal(got, fn_on_lattice(f, atoms, shape))

    @PROFILE
    @given(data=st.data(), lattice=lattices())
    def test_likelihood_weighted_counts_equal_fn(self, data, lattice):
        atoms, shape = lattice
        f = data.draw(likelihood_weighted(atoms[: max(1, len(atoms) - 1)]))
        got = np.broadcast_to(f.counts(open_grid(shape), atoms), shape)
        assert got.tobytes() == fn_on_lattice(f, atoms, shape).tobytes()

    def test_likelihood_counts_equal_fn_bitwise_on_a_wide_lattice(self):
        # four support atoms and 2,401 nodes: adding the log terms in any
        # other order than likelihood_eval's changes some node's last bit
        rho = discrete({"a": 0.37, "b": 1.13, "c": 0.71, "d": 0.29})
        nu = discrete({"a": 0.83, "b": 0.41, "c": 1.37, "d": 0.53})
        f = LikelihoodRatio.from_discrete(nu, rho).weighted(constant_functional(1.0))
        shape = (7, 7, 7, 7)
        got = np.broadcast_to(f.counts(open_grid(shape), ATOMS), shape)
        assert got.tobytes() == fn_on_lattice(f, ATOMS, shape).tobytes()


class TestLatticeTable:
    @PROFILE
    @given(data=st.data(), n=st.integers(1, 3), n_max=st.integers(0, 2))
    def test_counts_route_equals_per_node_fallback(self, data, n, n_max):
        atoms = ATOMS[:n]
        m = discrete({a: data.draw(masses) for a in atoms})
        f = data.draw(st.one_of(builtins(atoms), likelihood_weighted(atoms)))
        shift = data.draw(st.lists(st.sampled_from(atoms), unique=True))
        with caps_at(COARSE):
            fast = expectation_table(f, m, shift, n_max)
            slow = expectation_table(dataclasses.replace(f, counts=None), m, shift, n_max)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()

    @PROFILE
    @given(data=st.data(), n=st.integers(1, 4))
    def test_order_one_equals_subset_sum_route(self, data, n):
        atoms = ATOMS[:n]
        m = discrete({a: data.draw(masses) for a in atoms})
        f = data.draw(builtins(atoms))
        ws = [data.draw(st.floats(-1.0, 1.0)) for _ in atoms]
        with caps_at(COARSE):
            parts = [w * exact_expected_difference(f, m, [a]) for a, w in zip(atoms, ws)]
            # order_one's exact mode, on the same coarse lattice
            got = expected_difference_orders(f, m, dict(zip(atoms, ws)), 1)[0][1]
            # that route reads E D_a f as T(e_a) - T(0) off one table
            shift = [a for a, w in zip(atoms, ws) if w != 0.0]
            table = expectation_table(f, m, shift, 1)
            caps = [exact._law(m.mass(a), f.growth_degree)[0] for a in atoms]
        # each entry is within one dot product per axis of its slice's
        # absolute sum (test_entries_are_within_a_dot_product_bound_of_fsum),
        # which is |T| for these one-signed built-ins; the difference, its
        # weight and the sum over the n atoms add n + 2 roundings.  Where f
        # ignores an atom its parts are exactly 0, and this alone is the gap.
        slack = (sum(k + 1 for k in caps) + 2 * n + n + 2) * 2.0 ** -53
        origin = (0,) * len(shift)
        rounding = slack * math.fsum(
            abs(ws[atoms.index(a)]) * (abs(table[origin[:i] + (1,) + origin[i + 1:]])
                                       + abs(table[origin]))
            for i, a in enumerate(shift))
        assert abs(got - math.fsum(parts)) <= 1e-12 * math.fsum(map(abs, parts)) + rounding

    @PROFILE
    @given(data=st.data(), n=st.integers(1, 4), n_max=st.integers(1, 3),
           kind=st.sampled_from(["count_sq", "void", "threshold"]))
    def test_entries_are_within_a_dot_product_bound_of_fsum(self, data, n, n_max, kind):
        # base axes are summed out first, then the shift windows: every entry
        # is the Poisson-weighted sum of its lattice slice, to within the
        # rounding of one dot product per axis
        atoms = ATOMS[:n]
        m = discrete({a: data.draw(masses) for a in atoms})
        shift = data.draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=2, unique=True))
        window = data.draw(st.none() | st.sets(st.sampled_from(atoms), min_size=1).map(AtomWindow))
        f = {"count_sq": count_squared(window), "void": void_indicator(window),
             "threshold": threshold_indicator(data.draw(st.integers(0, 4)), window)}[kind]
        union = shift + [a for a in atoms if a not in shift]
        with caps_at(COARSE):
            caps = [exact._law(m.mass(a), f.growth_degree)[0] for a in union]
            table = expectation_table(f, m, shift, n_max)
        weights = np.ones(())
        for a, k in zip(union, caps):
            weights = np.multiply.outer(weights, poisson_pmf(m.mass(a), k))
        shape = tuple(k + 1 + (n_max if a in shift else 0) for a, k in zip(union, caps))
        values = np.broadcast_to(f.counts(open_grid(shape), union), shape)
        slack = (sum(k + 1 for k in caps) + 2 * len(union)) * 2.0 ** -53

        assert table.shape == (n_max + 1,) * len(shift)
        for node in np.ndindex(table.shape):
            corner = node + (0,) * (len(union) - len(shift))
            part = (weights * values[tuple(slice(j, j + k + 1)
                                           for j, k in zip(corner, caps))]).ravel()
            assert abs(table[node] - math.fsum(part)) <= slack * math.fsum(np.abs(part))

    def test_plain_expectation_is_the_unshifted_table(self):
        m = discrete({"a": 0.6, "b": 1.1})
        f = count_squared(AtomWindow({"a"}))
        table = expectation_table(f, m, [], 0)
        assert table.shape == ()
        assert exact_expectation(f, m) == float(table) == pytest.approx(0.6 + 0.36, rel=1e-14)

    def test_fock_product_has_a_count_form(self):
        m = discrete({"a": 0.7, "b": 0.4})
        f, g = count_squared(), threshold_indicator(2)
        fast = fock_identity_check(f, g, m, 6)
        slow = fock_identity_check(dataclasses.replace(f, counts=None),
                                   dataclasses.replace(g, counts=None), m, 6)
        assert fast == slow


class TestSpotCheck:
    @pytest.mark.parametrize("other", [
        lambda phi: float(phi.total_points()),                       # almost everywhere
        lambda phi: 0.5 if phi.total_points() == 0 else 0.0,         # at the origin only
        # past 25 points in all, which among the spot nodes only the far
        # corner of these lattices (30 and 33 points) reaches
        lambda phi: 1.0 if phi.total_points() == 0 or phi.total_points() > 25 else 0.0,
    ])
    def test_stale_count_form_raises_naming_the_functional(self, other):
        f = dataclasses.replace(void_indicator(name="stale_void"), fn=other)
        m = discrete({"a": 0.8, "b": 0.5})
        with pytest.raises(CountFormMismatchError, match="stale_void"):
            exact_expectation(f, m)
        with pytest.raises(CountFormMismatchError, match="stale_void"):
            expectation_table(f, m, ["a"], 3)
        # Monte Carlo checks the empty configuration and the first replications,
        # which reach the cases that differ at the origin
        if other(PointConfiguration.empty()) != 1.0:
            with pytest.raises(CountFormMismatchError, match="stale_void"):
                mc_expectation(f, m, plan=MCPlan(200, RngStream(0)))
            with pytest.raises(CountFormMismatchError, match="stale_void"):
                order_one(f, m, ["a"], [1.0], "mc", MCPlan(200, RngStream(0)))

    def test_nan_in_count_form_raises(self):
        f = dataclasses.replace(count_functional(name="bad"),
                                counts=lambda cs, atoms: np.where(cs[0] == 2, np.nan, 0.0))
        with pytest.raises(FunctionalEvaluationError, match="bad"):
            exact_expectation(f, discrete({"a": 1.0}))
        with pytest.raises(FunctionalEvaluationError, match="bad"):
            mc_expectation(f, discrete({"a": 1.0}), plan=MCPlan(200, RngStream(0)))


def decimal_pmf(mass, k):
    getcontext().prec = 50
    m = Decimal(mass)
    return (m ** k * (-m).exp() / math.factorial(k))


class TestPoissonHelpers:
    def test_pmf_matches_fifty_digit_reference(self):
        worst = 0.0
        for mass in np.geomspace(0.01, 5.0, 25):
            probs = poisson_pmf(float(mass), 34)
            for k in range(35):
                ref = decimal_pmf(float(mass), k)
                worst = max(worst, abs(float((Decimal(probs[k]) - ref) / ref)))
        assert worst < 4e-15

    def test_sf_matches_fifty_digit_reference_deep_in_the_tail(self):
        for mass, k in [(0.3, 12), (1.0, 14), (2.7, 20), (5.0, 30)]:
            ref = sum(decimal_pmf(mass, j) for j in range(k + 1, k + 120))
            sf = math.fsum(poisson_pmf(mass, k + 120)[k + 1:])  # the caps' tail sum
            assert abs(float((Decimal(sf) - ref) / ref)) < 1e-13

    def test_pmf_past_underflow_mass(self):
        probs = poisson_pmf(1000.0, 1300)
        assert math.fsum(probs) == pytest.approx(1.0, rel=1e-12)
        for k in (900, 1000, 1100):
            assert probs[k] == pytest.approx(stats.poisson.pmf(k, 1000.0), rel=1e-11)

    @pytest.mark.parametrize("tail", [1e-14, 1e-10])
    def test_caps_keep_tail_bound_and_never_undercut_scipy(self, tail):
        for mass in np.geomspace(0.01, 40.0, 60):
            mass = float(mass)
            for p in range(5):
                with caps_at(tail):
                    k, _ = exact._law(mass, p or None)
                assert stats.poisson.sf(k, mass) * (k + 2) ** p < tail
                ref = int(stats.poisson.isf(tail, mass)) + 1
                while stats.poisson.sf(ref, mass) * (ref + 2) ** p >= tail:
                    ref += 1
                assert k >= ref

    @settings(max_examples=100)
    @given(mass=st.floats(1e-6, 500.0), p=st.sampled_from([None, 1, 2, 3, 5]),
           tail=st.sampled_from([1e-14, 1e-10, 1e-4, 0.3, 1e-100, 1e-250]),
           tie_at=st.none() | st.integers(0, 80))
    def test_caps_equal_the_fsum_of_every_tail(self, mass, p, tail, tie_at):
        # the cumulative tails decide only where fsum could not change the
        # outcome: the caps are those of fsum at every probe, also when the
        # bound is exactly one of the tails
        probs = poisson_pmf(mass, exact._tail_reach(mass)).tolist()

        def sf(j):
            return math.fsum(probs[j + 1:])

        if tie_at is not None and sf(tie_at) > 0.0:
            tail = sf(tie_at)
        k = bisect.bisect_left(range(len(probs)), True, key=lambda j: sf(j) <= tail) + 1
        while sf(k) * (k + 2) ** (p or 0) >= tail:
            k += 1
        with caps_at(tail):
            assert exact._law(mass, p)[0] == k

    @pytest.mark.parametrize("mass", [0.5, 17.0, 800.0])  # 800 starts at the mode
    @pytest.mark.parametrize("beyond_reach", [False, True])
    def test_law_prefix_is_the_capped_pmf_bit_for_bit(self, mass, beyond_reach):
        # a cover measure's cap past the reach extends the law, never the cap
        covered = exact._tail_reach(mass) + 25 if beyond_reach else 0
        for p in (None, 2):
            cap, law = exact._law(mass, p, covered)
            assert cap == exact._law(mass, p)[0] < exact._tail_reach(mass)
            top = max(cap, covered)
            assert law[:top + 1].tobytes() == poisson_pmf(mass, top).tobytes()

    def test_each_atom_law_is_built_once(self, monkeypatch):
        # at most one law per atom for m and for each cover measure
        built = []
        real = exact.poisson_pmf
        monkeypatch.setattr(exact, "poisson_pmf",
                            lambda mass, k: built.append(mass) or real(mass, k))
        m = discrete({"a": 0.6, "b": 1.1, "c": 0.3, "d": 2.0})
        for shift, n_max in [([], 0), (["a"], 3), (["b", "d"], 2), (ATOMS, 1), (["z"], 2)]:
            built.clear()
            expectation_table(count_squared(), m, shift, n_max)
            assert len(built) <= len(set(shift) | set(ATOMS))
        built.clear()
        expectation_table(void_indicator(), discrete({"a": 0.3}), ["a"], 2,
                          [discrete({"a": 40.0})])
        assert len(built) == 2
        # a 4-atom change of measure, as exact-oracles times it: one law per
        # atom for rho and one for the cover, nu (or h^2 rho for E_rho L^2)
        nu = discrete({"a": 0.9, "b": 0.4, "c": 1.7, "d": 1.2})
        built.clear()
        reweighted_expectation(threshold_indicator(2, AtomWindow({"a", "c"})), nu, m)
        assert len(built) <= 2 * 4
        built.clear()
        second_moment_exact(nu, m)
        assert len(built) <= 2 * 4
        built.clear()
        poisson_hellinger_exact(m, discrete({"a": 0.9, "e": 0.4}))
        assert len(built) <= 2 * 5  # one law per atom and measure

    def test_floor_lifts_caps_of_positive_masses_only(self, monkeypatch):
        # a cover measure's cap floors m's cap at the atoms m charges, and
        # only there; a smaller one leaves it as it is
        shapes = []
        real = exact.count_values
        monkeypatch.setattr(exact, "count_values", lambda f, grid, *rest: shapes.append(
            tuple(c.size for c in grid)) or real(f, grid, *rest))
        f, m = count_functional(), discrete({"a": 0.5})
        wide, narrow = exact._law(20.0, f.growth_degree)[0], exact._law(0.5, f.growth_degree)[0]
        cover = discrete({"a": 20.0, "b": 20.0})
        assert exact_expectation(f, m, [cover]) == pytest.approx(0.5, rel=1e-14)
        exact_expectation(f, m, [discrete({"a": 0.1})])
        expectation_table(f, m, ["b"], 1, [cover])
        assert shapes == [(wide + 1,), (narrow + 1,), (2, wide + 1)]
