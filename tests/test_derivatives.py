"""Linear, nonlinear, scaled, and pivotal derivative estimators."""

import math

import pytest

from poissonpert import (ConditionError, Functional, MCPlan,
                         PerturbationFamily, coupled_scale_fd, count_functional,
                         count_squared, discrete, exact_expectation,
                         linear_derivative, nonlinear_derivative, parametric_series,
                         pivotal_derivative, richardson_fd, scaled_derivative,
                         scaled_taylor_report, threshold_indicator, void_indicator)


def scale_family(theta0=0.0, hi=2.0):
    """Densities theta against a unit mass: the scaled-intensity family."""
    return PerturbationFamily.linear(discrete({"b": 1.0}), lambda a: theta0,
                                     lambda a: 1.0, theta0=theta0,
                                     interval=(0.0, hi))


class TestLinearDerivative:
    def test_zero_direction(self):
        fam = PerturbationFamily.linear(discrete({"b": 1.0}), lambda a: 1.0,
                                        lambda a: 0.0)
        assert linear_derivative(void_indicator(), fam, 0.5) == 0.0

    def test_threshold_closed_form(self):
        # oracle: d/dtheta (1 - e^{-theta}) = e^{-theta}
        fam = scale_family()
        assert linear_derivative(threshold_indicator(1), fam, 0.5) == \
            pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_squared_count_closed_form(self):
        # oracle: d/dtheta (theta + theta^2) = 2 theta + 1
        fam = scale_family()
        assert linear_derivative(count_squared(), fam, 1.0) == \
            pytest.approx(3.0, abs=1e-10)

    def test_valid_anywhere_in_the_interval(self):
        fam = scale_family()
        for theta in (0.25, 0.5, 1.0, 1.5):
            assert linear_derivative(threshold_indicator(1), fam, theta) == \
                pytest.approx(math.exp(-theta), abs=1e-10)

    def test_theta_outside_interval(self):
        with pytest.raises(ValueError):
            linear_derivative(void_indicator(), scale_family(), 3.0)

    def test_richardson_agreement(self):
        # central differences of the parametric values, Richardson-combined
        fam = scale_family()
        f = threshold_indicator(1)
        exact_d = linear_derivative(f, fam, 0.5)
        fd = richardson_fd(lambda t: parametric_series(f, fam, t, n_max=30).value, 0.5)
        assert abs(exact_d - fd) < 1e-6

    def test_monte_carlo_mode(self, rng):
        fam = scale_family()
        est = linear_derivative(threshold_indicator(1), fam, 0.5, mode="mc",
                                mc=MCPlan(40_000, rng.child(1)))
        assert abs(est.estimate - math.exp(-0.5)) <= 3 * est.stderr


class TestNonlinearDerivative:
    def test_proportional_remainder_matches_linear(self):
        # R_theta = (theta - theta0) r contributes nothing at theta0
        base, direction = 0.9, -0.4
        lam = discrete({"b": 1.0})
        linear_fam = PerturbationFamily.linear(lam, lambda a: base,
                                               lambda a: direction,
                                               theta0=0.0, interval=(-0.5, 0.5))
        nonlinear_fam = PerturbationFamily(
            reference=lam, base_density=lambda a: base, direction=lambda a: direction,
            theta0=0.0, interval=(-0.5, 0.5),
            remainder=lambda t, a: t * 0.3, envelope=lambda a: 0.2)
        f = threshold_indicator(1)
        assert nonlinear_derivative(f, nonlinear_fam) == pytest.approx(
            linear_derivative(f, linear_fam, 0.0), abs=1e-12)

    def test_exponential_caricature_with_negative_direction(self):
        # density H e^{-(theta - theta0)}: direction h = -H < 0, remainder the
        # higher-order expansion terms; oracle is a Richardson difference of
        # exact expectations along the family
        H = 1.25
        lam = discrete({"b": 1.0})

        def remainder(t, a):
            if t == 0.0:
                return 0.0
            return H * (math.expm1(-t) + t) / t

        fam = PerturbationFamily(
            reference=lam, base_density=lambda a: H, direction=lambda a: -H,
            theta0=0.0, interval=(-0.4, 0.4), remainder=remainder,
            envelope=lambda a: H)
        f = threshold_indicator(1)
        value = nonlinear_derivative(f, fam)
        fd = richardson_fd(
            lambda t: exact_expectation(f, fam.measure_at(t)), 0.0,
            deltas=(1e-2, 1e-3))
        assert abs(value - fd) < 1e-6
        # closed form: d/dt (1 - e^{-H e^{-t}}) = -H e^{-H} at t = 0
        assert value == pytest.approx(-H * math.exp(-H), abs=1e-10)

    def test_invariance_to_the_remainder_choice(self):
        lam = discrete({"b": 1.0})
        shared = dict(reference=lam, base_density=lambda a: 0.8,
                      direction=lambda a: -0.5, theta0=0.0, interval=(-0.5, 0.5))
        fam_a = PerturbationFamily(**shared,
                                   remainder=lambda t, a: 0.5 * t * math.exp(-abs(t)),
                                   envelope=lambda a: 0.5)
        fam_b = PerturbationFamily(**shared,
                                   remainder=lambda t, a: 0.25 * math.sin(t),
                                   envelope=lambda a: 0.5)
        f = threshold_indicator(1)
        assert nonlinear_derivative(f, fam_a) == pytest.approx(
            nonlinear_derivative(f, fam_b), abs=1e-10)

    def test_envelope_violation_detected(self):
        lam = discrete({"b": 1.0})
        fam = PerturbationFamily(
            reference=lam, base_density=lambda a: 1.0, direction=lambda a: 0.1,
            theta0=0.0, interval=(-0.5, 0.5),
            remainder=lambda t, a: t, envelope=lambda a: 1e-4)
        with pytest.raises(ConditionError):
            nonlinear_derivative(void_indicator(), fam)


class TestScaledDerivative:
    def test_constant_functional(self):
        assert scaled_derivative(constant(), discrete({"b": 1.0}), 1.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_void_indicator(self):
        # oracle: d/dtheta e^{-theta} at theta = 1
        assert scaled_derivative(void_indicator(), discrete({"b": 1.0}), 1.0) == \
            pytest.approx(-math.exp(-1.0), abs=1e-12)

    def test_count_functional(self):
        for theta in (0.5, 1.0, 2.0):
            assert scaled_derivative(count_functional(), discrete({"b": 1.0}),
                                     theta) == pytest.approx(1.0, abs=1e-10)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            scaled_derivative(void_indicator(), discrete({"b": 1.0}), -0.5)

    def test_taylor_report_reproduces_the_map(self):
        # analyticity: the zero-base expansion reproduces E under theta lam
        lam = discrete({"b": 1.0})
        f = void_indicator()
        for theta in (0.5, 1.0):
            rep = scaled_taylor_report(f, lam, theta, n_max=30)
            assert rep.value == pytest.approx(math.exp(-theta), abs=1e-10)


def constant():
    return Functional(lambda phi: 1.0, bound=1.0, increasing=True, name="one")


class TestPivotalDerivative:
    def test_threshold_one_at_half(self, rng):
        # oracle: theta^{-1} E[1{N = 1}] = e^{-1/2} at theta = 1/2
        est = pivotal_derivative(threshold_indicator(1), discrete({"b": 1.0}), 0.5,
                                 MCPlan(60_000, rng.child(1)))
        assert abs(est.estimate - math.exp(-0.5)) <= 3 * est.stderr

    def test_constant_has_no_pivotal_points(self, rng):
        est = pivotal_derivative(constant(), discrete({"b": 1.0}), 1.0,
                                 MCPlan(2_000, rng.child(2)))
        assert est.estimate == 0.0

    def test_threshold_two_at_one(self, rng):
        # oracle: d/dtheta P(N >= 2) = theta e^{-theta}; pivotal count is
        # 2 * 1{N = 2}
        est = pivotal_derivative(threshold_indicator(2), discrete({"b": 1.0}), 1.0,
                                 MCPlan(60_000, rng.child(3)))
        assert abs(est.estimate - math.exp(-1.0)) <= 3 * est.stderr

    def test_agrees_with_integral_form(self, rng):
        lam = discrete({"b": 1.0})
        f = threshold_indicator(1)
        integral = scaled_derivative(f, lam, 0.5)
        est = pivotal_derivative(f, lam, 0.5, MCPlan(60_000, rng.child(4)))
        assert abs(est.estimate - integral) <= 3 * est.stderr

    def test_weighted_variant(self, rng):
        # weight w on the atom scales the pivotal count linearly
        lam = discrete({"b": 1.0})
        f = threshold_indicator(1)
        est = pivotal_derivative(f, lam, 0.5, MCPlan(40_000, rng.child(5)),
                                 weight=lambda x: 2.0)
        assert abs(est.estimate - 2.0 * math.exp(-0.5)) <= 3 * est.stderr

    def test_undeclared_event_rejected(self, rng):
        with pytest.raises(ConditionError):
            pivotal_derivative(count_functional(), discrete({"b": 1.0}), 1.0,
                               MCPlan(100, rng.child(6)))

    def test_false_declaration_detected(self, rng):
        # the void indicator is decreasing; sampled pivotal terms go negative
        lying = Functional(lambda phi: 1.0 if phi.total_points() == 0 else 0.0,
                           bound=1.0, increasing=True, name="not_increasing")
        with pytest.raises(ConditionError):
            pivotal_derivative(lying, discrete({"b": 2.0}), 1.0,
                               MCPlan(2_000, rng.child(7)))

    def test_nonpositive_theta_rejected(self, rng):
        with pytest.raises(ValueError):
            pivotal_derivative(threshold_indicator(1), discrete({"b": 1.0}), 0.0,
                               MCPlan(100, rng.child(8)))


class TestCoupledFiniteDifference:
    def test_matches_exact_derivative(self, rng):
        # common-random-numbers central difference vs the exact value
        lam = discrete({"b": 1.0})
        f = threshold_indicator(1)
        exact_d = scaled_derivative(f, lam, 0.5)
        fd = coupled_scale_fd(f, lam, 0.5, 0.05, MCPlan(30_000, rng.child(9)))
        # central-difference curvature bias is ~ delta^2/6 * third derivative
        assert abs(fd.estimate - exact_d) <= 3 * fd.stderr + 1e-3

    @pytest.mark.parametrize("delta", [0.0, -0.05, math.nan])
    def test_step_must_be_positive(self, rng, delta):
        # delta = 0 used to divide 0 by 0 into a NaN estimate
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            coupled_scale_fd(threshold_indicator(1), discrete({"b": 1.0}), 0.5, delta,
                             MCPlan(100, rng.child(11)))

    def test_variance_reduction_against_independent_sampling(self, rng):
        # the coupled estimator should beat two independent estimates clearly
        lam = discrete({"b": 1.0})
        f = threshold_indicator(1)
        fd = coupled_scale_fd(f, lam, 0.5, 0.05, MCPlan(20_000, rng.child(10)))
        # independent sampling at delta = 0.05 has sd ~ sqrt(2 p(1-p))/(2 delta
        # sqrt(n)) ~ 0.09; the coupled one must sit well below
        assert fd.stderr < 0.05
