"""The exact enumeration engine and the difference-product identity."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from poissonpert import (AtomWindow, Functional, MCPlan,
                         PointConfiguration, constant_functional, count_functional,
                         count_squared, discrete, exact_expectation,
                         exact_expected_difference, fock_identity_check,
                         mc_expectation, poisson_hellinger_exact, void_indicator)
from poissonpert.exact import (_law, expectation_table, expected_difference_orders,
                               forward_difference_table)


class TestEnumerationPlan:
    """The enumeration's truncation: the per-atom caps of ``exact._law``."""

    def test_caps_meet_tail_bound(self):
        for mass in (0.3, 1.0, 2.7):
            k, _ = _law(mass)
            assert poisson.sf(k, mass) < 1e-14

    def test_growth_declaration_widens_caps(self):
        assert _law(1.0, growth_degree=4)[0] > _law(1.0)[0]

    def test_zero_mass(self):
        assert _law(0.0)[0] == 0

    def test_too_many_atoms(self):
        m = discrete({f"a{i}": 0.5 for i in range(7)})
        with pytest.raises(ValueError):
            exact_expectation(constant_functional(1.0), m)


class TestExactExpectation:
    def test_void_probability(self):
        assert exact_expectation(void_indicator(), discrete({"x": 1.0})) == \
            pytest.approx(math.exp(-1.0), abs=1e-13)

    def test_constant(self):
        assert exact_expectation(constant_functional(4.5), discrete({"x": 2.0})) == \
            pytest.approx(4.5, abs=1e-12)

    def test_second_moment(self):
        # oracle: mean + mean^2 for a count with unit mean
        assert exact_expectation(count_squared(), discrete({"x": 1.0})) == \
            pytest.approx(2.0, abs=1e-12)

    def test_count_matches_mass(self, rng):
        gen = rng.child(1).generator()
        for _ in range(5):
            m = discrete({a: gen.uniform(0.0, 3.0) for a in "abc"})
            assert exact_expectation(count_functional(), m) == \
                pytest.approx(m.total(), abs=1e-10)

    def test_agrees_with_monte_carlo(self, rng):
        gen = rng.child(2).generator()
        for trial in range(3):
            m = discrete({a: gen.uniform(0.2, 2.0) for a in "ab"})
            f = void_indicator()
            est = mc_expectation(f, m, plan=MCPlan(30_000, rng.child(10 + trial)))
            assert abs(est.estimate - exact_expectation(f, m)) <= 3 * est.stderr


class TestExpectedDifference:
    def test_first_difference_of_square(self):
        # oracle: E[(N+1)^2 - N^2] = 2 E N + 1 = 3 for unit mean
        val = exact_expected_difference(count_squared(), discrete({"x": 1.0}), ["x"])
        assert val == pytest.approx(3.0, abs=1e-12)

    def test_linear_second_difference_vanishes(self):
        val = exact_expected_difference(count_functional(), discrete({"x": 1.0}),
                                        ["x", "x"])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_void_second_difference(self):
        # oracle: (-1)^2 e^{-1}
        val = exact_expected_difference(void_indicator(), discrete({"x": 1.0}),
                                        ["x", "x"])
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_table_route_matches_subset_sum(self, rng):
        # the fast difference-table path must agree with the definitional route
        gen = rng.child(3).generator()
        m = discrete({"a": 0.8, "b": 1.2})
        f = Functional(lambda phi: math.cos(phi.count("a")) + 0.3 * phi.count("b"),
                       bound=None)
        table = forward_difference_table(expectation_table(f, m, ["a", "b"], 4))
        for ka in range(4):
            for kb in range(4 - ka):
                oracle = exact_expected_difference(f, m, ["a"] * ka + ["b"] * kb)
                assert table[ka, kb] == pytest.approx(oracle, abs=1e-10)

    def test_repeated_shift_atom_raises_naming_it(self):
        # a repeated atom would get a second Poisson axis: E N^2 = 2.64 would read 4.59
        m = discrete({"a": 0.5, "b": 0.7})
        assert expectation_table(count_squared(), m, ["a"], 1)[0] == pytest.approx(2.64,
                                                                                   rel=1e-14)
        with pytest.raises(ValueError, match="shift atom 'a' is repeated"):
            expectation_table(count_squared(), m, ["a", "a"], 1)


class TestFockIdentity:
    def test_void_pair_terms(self):
        # hand value: term n is (e^{-1})^2 / n!, so partial sums approach e^{-1}
        res = fock_identity_check(void_indicator(), void_indicator(),
                                  discrete({"x": 1.0}), n_max=30)
        assert res.lhs == pytest.approx(math.exp(-1.0), abs=1e-12)
        for n in (0, 1, 2, 3):
            assert res.terms[n] == pytest.approx(math.exp(-2.0) / math.factorial(n),
                                                 abs=1e-12)
        assert res.gap < 1e-10

    def test_constant_pair_closes_at_order_zero(self):
        res = fock_identity_check(constant_functional(2.0), constant_functional(3.0),
                                  discrete({"x": 1.0}), n_max=0)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_count_against_constant(self):
        res = fock_identity_check(count_functional(), constant_functional(1.0),
                                  discrete({"x": 1.0}), n_max=1)
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs_partial == pytest.approx(1.0, abs=1e-12)
        assert res.gap < 1e-12

    def test_gap_shrinks_monotonically_for_squares(self):
        res = fock_identity_check(void_indicator(), void_indicator(),
                                  discrete({"x": 1.5, "y": 1.0}), n_max=30)
        gaps = [abs(res.lhs - p) for p in res.partials]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-8


class TestPoissonHellingerExact:
    def test_matches_identity(self):
        lam, nu = discrete({"x": 1.0}), discrete({"x": 4.0})
        assert poisson_hellinger_exact(lam, nu) == pytest.approx(
            1.0 - math.exp(-0.5), abs=1e-10)

    def test_three_atoms_with_singular_part(self):
        lam = discrete({"x": 1.0, "y": 0.5})
        nu = discrete({"x": 2.0, "z": 0.25})
        # independent counts: affinity multiplies across atoms
        from scipy.stats import poisson as po
        ks = np.arange(0, 80)
        aff = 1.0
        for a in ("x", "y", "z"):
            aff *= float(np.sum(np.sqrt(po.pmf(ks, lam.mass(a)) * po.pmf(ks, nu.mass(a)))))
        assert poisson_hellinger_exact(lam, nu) == pytest.approx(1.0 - aff, abs=1e-10)


class TestSeriesOrderHelper:
    def test_orders_match_per_order_integrals(self):
        # weights w: sum_{|k|=n} E D^k f * prod w^k / k! equals the n-th term
        m = discrete({"a": 1.0})
        f = void_indicator()
        terms, abs_terms = expected_difference_orders(f, m, {"a": 1.0}, 6)
        for n in range(7):
            assert terms[n] == pytest.approx(
                math.exp(-1.0) * (-1.0) ** n / math.factorial(n), abs=1e-12)
            assert abs_terms[n] == pytest.approx(
                math.exp(-1.0) / math.factorial(n), abs=1e-12)
