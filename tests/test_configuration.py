"""Point configurations, the difference operators and the exact array sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonpert import (AtomWindow, Functional, PointConfiguration,
                         count_functional, count_squared, difference_n,
                         difference_n_recursive, void_indicator)
from poissonpert import configuration
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
        assert f(phi) == f(PointConfiguration({"a": 2}))


class TestFunctionalNaN:
    def test_nan_aborts(self):
        f = Functional(lambda phi: float("nan"), name="broken")
        with pytest.raises(FunctionalEvaluationError):
            f(PointConfiguration.empty())


def _summands(gen: np.random.Generator, kind: str, size: int) -> np.ndarray:
    """``size`` doubles of one adversarial family."""
    if kind == "normal":
        return gen.normal(size=size)
    if kind == "wide":  # exponents spread over e^-50..e^50
        return gen.normal(size=size) * np.exp(gen.uniform(-50.0, 50.0, size))
    if kind == "integers":
        return gen.integers(-2**40, 2**40, size).astype(float)
    if kind == "cancel":  # pairs x, -x around a few survivors far below them
        half = gen.normal(size=size // 2) * np.exp(gen.uniform(-30.0, 30.0, size // 2))
        rest = gen.normal(size=size - 2 * (size // 2)) * 1e-20
        return gen.permutation(np.concatenate([half, -half, rest]))
    if kind == "tie":  # 1 + 2^-53 exactly, or 1 + 3 * 2^-53: a rounding tie either way
        head = [1.0, 2.0 ** -53] if gen.random() < 0.5 else [1.0 + 2.0 ** -52, 2.0 ** -53]
        half = gen.normal(size=max(size - 2, 0) // 2)
        pad = np.zeros(max(size - 2, 0) % 2)
        return gen.permutation(np.concatenate([head[:size], half, -half, pad]))
    if kind == "subnormal":  # a normal head and a subnormal tail
        tail = gen.normal(size=size) * 1e-310
        tail[: size // 8] *= 1e300
        return tail
    if kind == "zeros":
        return np.where(gen.random(size) < 0.5, 0.0, -0.0)
    if kind == "huge":  # near the overflow threshold: some rows overflow in fsum
        return gen.choice([-1.0, 1.0], size) * gen.uniform(0.5, 1.0, size) * 1e308
    out = gen.normal(size=size)  # "special": an inf, -inf or NaN somewhere
    if size:
        out[gen.integers(size, size=gen.integers(1, 3))] = gen.choice([np.inf, -np.inf, np.nan])
    return out


def _outcome(run):
    """The bits of a sum (sign of zero and NaN included), or the error raised."""
    try:
        values = run()
    except (OverflowError, ValueError) as err:
        return type(err), str(err)
    return [float(v).hex() for v in np.ravel(values)]


class TestArraySums:
    """``configuration._fsum`` is ``math.fsum`` of each row, bit for bit."""

    KINDS = ["normal", "wide", "integers", "cancel", "tie", "subnormal", "zeros", "huge",
             "special"]

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(KINDS), min_size=1,
                                                        max_size=4),
           n=st.integers(0, 3000), array_path=st.booleans())
    def test_rows_equal_fsum(self, seed, kinds, n, array_path):
        gen = np.random.default_rng(seed)
        x = np.stack([_summands(gen, kind, n) for kind in kinds])
        want = [_outcome(lambda row=row: math.fsum(row)) for row in x.tolist()]
        errors = [w for w in want if isinstance(w, tuple)]
        want = errors[0] if errors else [w[0] for w in want]
        with pytest.MonkeyPatch.context() as mp:
            if array_path:  # below the size switch too
                mp.setattr(configuration, "_FSUM_ARRAY_MIN", 0)
            assert _outcome(lambda: configuration._fsum(x)) == want
            if len(kinds) == 1:
                assert _outcome(lambda: configuration._fsum(x[0])) == want

    @pytest.mark.parametrize("values", [
        [1.0, 2.0 ** -53, -(2.0 ** -106)],  # just below a tie
        [1.0, 2.0 ** -53, 2.0 ** -106],  # just above it
        [1e100, 1.0, -1e100],  # a 1 hidden under a cancelling pair
        [2.0 ** 1020, 2.0 ** 1020, -(2.0 ** 1020)],  # beyond the array passes' range
        [1e308, 1e308, -1e308],  # an intermediate overflow
        [np.inf, -np.inf], [np.nan, 1.0], [np.inf, 1.0],
        [-0.0], [-0.0, -0.0], [0.0, -0.0], [],
        [0.1] * 10 + [-1.0],
    ])
    def test_hand_picked_sums(self, values, monkeypatch):
        monkeypatch.setattr(configuration, "_FSUM_ARRAY_MIN", 0)
        x = np.array(values, dtype=float)
        assert _outcome(lambda: configuration._fsum(x)) \
            == _outcome(lambda: [math.fsum(values)])
