"""Point configurations and the difference operators."""

import math

import pytest

from poissonpert import (AtomWindow, Functional, PointConfiguration,
                         count_functional, count_squared, difference_n,
                         difference_n_recursive, void_indicator)
from poissonpert.configuration import (DifferenceOrderError,
                                       FunctionalEvaluationError)


class TestPointConfiguration:
    def test_add_to_empty(self):
        assert PointConfiguration.empty().add(["x"]) == PointConfiguration({"x": 1})

    def test_multiplicity_accumulates(self):
        phi = PointConfiguration({"x": 1})
        assert phi.add(["x"]) == PointConfiguration({"x": 2})

    def test_mixed_additions(self):
        phi = PointConfiguration({"x": 1})
        assert phi.add(["y", "y"]) == PointConfiguration({"x": 1, "y": 2})

    def test_remove_one(self):
        phi = PointConfiguration({"x": 2})
        assert phi.remove_one("x") == PointConfiguration({"x": 1})
        with pytest.raises(KeyError):
            PointConfiguration.empty().remove_one("x")

    def test_invalid_multiplicity(self):
        with pytest.raises(ValueError):
            PointConfiguration({"x": 0})

    def test_restrict(self):
        phi = PointConfiguration({"x": 1, "y": 2})
        assert phi.restrict(AtomWindow({"y"})) == PointConfiguration({"y": 2})

    def test_immutability_of_add(self):
        phi = PointConfiguration({"x": 1})
        phi.add(["x", "y"])
        assert phi == PointConfiguration({"x": 1})


class TestDifference:
    def test_second_difference_of_linear_functional(self):
        f = count_functional(AtomWindow({"a", "b"}))
        assert difference_n(f, PointConfiguration.empty(), ["a", "b"]) == 0.0

    def test_third_difference_of_void_indicator(self):
        # oracle: explicit subset enumeration; only the empty subset keeps the
        # configuration void, so the sum is (-1)^3 * 1
        f = void_indicator(AtomWindow({"a"}))
        phi = PointConfiguration.empty()
        xs = ["a", "a", "a"]
        oracle = 0.0
        for mask in range(8):
            pts = [xs[j] for j in range(3) if mask >> j & 1]
            sign = (-1.0) ** (3 - len(pts))
            oracle += sign * f(phi.add(pts))
        assert oracle == -1.0
        assert difference_n(f, phi, xs) == pytest.approx(oracle, abs=1e-15)

    def test_first_difference_of_squared_count(self):
        f = count_squared(AtomWindow({"a"}))
        assert difference_n(f, PointConfiguration.empty(), ["a"]) == pytest.approx(1.0)

    def test_order_zero_returns_value(self):
        f = count_functional()
        phi = PointConfiguration({"x": 3})
        assert difference_n(f, phi, []) == 3.0

    def test_cap_enforced(self):
        f = count_functional()
        with pytest.raises(DifferenceOrderError):
            difference_n(f, PointConfiguration.empty(), ["x"] * 21)
        with pytest.raises(DifferenceOrderError):
            difference_n_recursive(f, PointConfiguration.empty(), ["x"] * 21)

    def test_recursive_hand_expansion(self):
        # four-term sum for the squared count: 4 - 1 - 1 + 0 = 2
        f = count_squared(AtomWindow({"a", "b"}))
        phi = PointConfiguration.empty()
        assert difference_n_recursive(f, phi, ["a", "b"]) == pytest.approx(2.0)
        assert difference_n(f, phi, ["a", "b"]) == pytest.approx(2.0)

    def test_recursive_of_constant(self):
        f = Functional(lambda phi: 3.25, bound=3.25)
        assert difference_n_recursive(f, PointConfiguration.empty(), ["x", "y"]) == 0.0

    def test_subset_sum_agrees_with_recursion(self, rng):
        gen = rng.child(1).generator()
        f = Functional(lambda phi: math.sin(phi.count("a")) + phi.count("b") ** 2)
        for trial in range(20):
            n = int(gen.integers(1, 7))
            xs = [("a", "b")[int(gen.integers(2))] for _ in range(n)]
            phi = PointConfiguration({"a": 1 + int(gen.integers(2))})
            assert difference_n(f, phi, xs) == pytest.approx(
                difference_n_recursive(f, phi, xs), abs=1e-12)

    def test_symmetry_under_permutation(self, rng):
        gen = rng.child(2).generator()
        f = Functional(lambda phi: math.exp(-phi.count("a")) * (1 + phi.count("b")))
        for trial in range(20):
            n = int(gen.integers(2, 6))
            xs = [("a", "b")[int(gen.integers(2))] for _ in range(n)]
            phi = PointConfiguration({"b": 1})
            base = difference_n(f, phi, xs)
            perm = list(xs)
            gen.shuffle(perm)
            assert base == pytest.approx(difference_n(f, phi, perm), abs=1e-12)

    def test_locality_outside_window(self):
        window = AtomWindow({"in"})
        f = void_indicator(window)
        phi = PointConfiguration({"in": 2})
        for n in range(1, 5):
            assert difference_n(f, phi, ["out"] * n) == 0.0

    def test_bound_from_declared_sup_norm(self):
        f = void_indicator(AtomWindow({"a"}))
        phi = PointConfiguration.empty()
        for n in range(1, 7):
            assert abs(difference_n(f, phi, ["a"] * n)) <= 2.0 ** n * f.bound

    def test_window_restriction_consistency(self):
        # a windowed functional ignores points outside its window (spot check)
        window = AtomWindow({"a"})
        f = count_functional(window)
        phi = PointConfiguration({"a": 2, "junk": 5})
        assert f(phi) == f(phi.restrict(window))


class TestFunctionalNaN:
    def test_nan_aborts(self):
        f = Functional(lambda phi: float("nan"), name="broken")
        with pytest.raises(FunctionalEvaluationError):
            f(PointConfiguration.empty())
