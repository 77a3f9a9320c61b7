"""The Levy layer's own quadrature and special functions: ``_panel_quad``
against closed forms, ``_exp1`` against scipy, and ``check_pair`` on a
density that carries its exact gap."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from poissonpert.levy import (GammaJumps, JumpDensity, LevyModel, QuadratureError,
                              StableJumps, _exp1, _panel_quad, check_pair, stable_direction)


def acceptance_bound(value):
    return max(1e-9, 1e-7 * abs(value))


class TestExp1:
    def test_arrays_match_scipy_on_a_log_grid(self):
        x = np.geomspace(1e-300, 700.0, 4001)
        np.testing.assert_allclose(_exp1(x), special.exp1(x), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("x", [1e-300, 1e-8, 0.5, 1.0, 1.0 + 1e-12, 1.5, 30.0, 700.0])
    def test_scalars_match_scipy(self, x):
        value = _exp1(x)
        assert isinstance(value, float)
        assert value == pytest.approx(float(special.exp1(x)), rel=1e-13)

    def test_gamma_sampler_grid_matches_scipy(self):
        # the inverse-CDF grid of the gamma sampler is built from E1 ratios
        gj = GammaJumps(2.0, 1.0)
        cdf, xs = gj._inverse_cdf(5e-4)
        tail = special.exp1(xs) / special.exp1(5e-4)
        np.testing.assert_allclose(cdf[1:-1], np.clip(1.0 - tail, 0.0, 1.0)[1:-1],
                                   rtol=0.0, atol=1e-13)


class TestPanelQuad:
    @given(s=st.floats(0.0, 0.95), beta=st.floats(0.1, 10.0))
    def test_power_times_exponential_on_the_half_line(self, s, beta):
        # oracle: int_0^inf x^(-s) e^(-beta x) dx = Gamma(1 - s) beta^(s - 1)
        value, err = _panel_quad(lambda x: x ** -s * np.exp(-beta * x), 0.0, np.inf)
        oracle = math.gamma(1.0 - s) * beta ** (s - 1.0)
        assert value == pytest.approx(oracle, rel=1e-9)
        assert err <= acceptance_bound(value)

    @given(s=st.floats(0.0, 0.95), h=st.floats(1e-3, 1e3))
    def test_power_singularity_at_zero(self, s, h):
        # oracle: int_0^h x^(-s) dx = h^(1 - s) / (1 - s)
        value, err = _panel_quad(lambda x: x ** -s, 0.0, h)
        assert value == pytest.approx(h ** (1.0 - s) / (1.0 - s), rel=1e-9)
        assert err <= acceptance_bound(value)

    @pytest.mark.parametrize("fn, lo, hi, oracle", [
        # a kink inside the panel (1/4, 1/2]: int_0^2 |x - 1/3| dx = 13/9
        (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 2.0, 13.0 / 9.0),
        # a peak of width 0.05 inside the panel (2, 4]: 0.05 sqrt(pi)
        (lambda x: np.exp(-((x - 3.0) / 0.05) ** 2), 0.0, np.inf, 0.05 * math.sqrt(math.pi)),
    ])
    def test_bisection_resolves_a_panel(self, fn, lo, hi, oracle):
        value, err = _panel_quad(fn, lo, hi)
        assert value == pytest.approx(oracle, rel=1e-9)
        assert err <= acceptance_bound(value)

    def test_power_tail_to_infinity(self):
        # oracle: int_1^inf x * x^(-2.2) dx = 1 / 0.2
        assert StableJumps(1.2, 1.0, 0.0).integrate(lambda x: x, 1.0, np.inf) == \
            pytest.approx(5.0, rel=1e-9)

    def test_divergent_integral_raises(self):
        # int_{x > 0.05} x^2 x^(-2.2) dx diverges at infinity
        with pytest.raises(QuadratureError, match="error estimate inf"):
            StableJumps(1.2, 1.0, 0.0).integrate(lambda x: x * x, 0.05, np.inf)

    def test_empty_range_is_zero(self):
        assert _panel_quad(lambda x: x, 2.0, 1.0) == (0.0, 0.0)


class TestGapRounding:
    def setup_method(self):
        self.st = StableJumps(1.2, 1.0, 1.0)
        self.direction = stable_direction(0.5, 1.0, 0.0, self.st)
        self.model = LevyModel(jumps=self.st, drift=0.1, drift_form="compensated",
                               t0=1.0, eps=0.05)

    def target(self, density):
        # the compensation relation: the drift moves by 0.5 int_{|x|<=1} x g_dir d nu
        return LevyModel(jumps=self.st, density=density, density_bound=1.5,
                         drift=0.1 + 0.5 * self.direction.drift_moment,
                         drift_form="compensated", t0=1.0, eps=0.05)

    def test_exact_gap_passes(self):
        # the density 1 + 0.5 g_dir, carrying its gap 0.5 g_dir exactly: a
        # gap formed as g - 1 cancels near 0 and spoils the square-gap quadrature
        g_dir = self.direction.g
        density = JumpDensity(lambda x: 1.0 + 0.5 * g_dir(x), lambda x: 0.5 * g_dir(x))
        out = check_pair(self.model, self.target(density))
        # oracle: 0.25 int g_dir^2 d nu_ref = 0.25 / (1.2 - 2 * 0.5)
        assert out["target_square_gap"] == pytest.approx(1.25, rel=1e-9)
        assert out["target_x_gap"] == pytest.approx(0.5 / (1.0 - 0.5), rel=1e-9)

    def test_plain_callable_density_rejected(self):
        # a density without its exact gap is not a model's density
        g_dir = self.direction.g
        with pytest.raises(TypeError, match="JumpDensity"):
            self.target(lambda x: 1.0 + 0.5 * g_dir(x))
