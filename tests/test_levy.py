"""Levy models, path simulation, jump-density perturbations, the supremum."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson as poisson_law

from poissonpert import MCPlan, RngStream
from poissonpert.levy import (CadlagPath, CompoundPoissonJumps, ConditionError,
                              GammaJumps, JumpDensity, JumpPerturbation, LevyModel,
                              QuadratureError, StableJumps,
                              check_direction, check_pair, coupled_supremum_fd,
                              cp_direction, drift_adjust, gamma_scale_direction,
                              gamma_shape_direction, levy_derivative, levy_series,
                              no_jump_indicator, path_difference,
                              perturbed_model, running_supremum, simulate_coupled,
                              simulate_path, simulate_paths, stable_direction,
                              supremum_derivative, terminal_value)


def cp_model(atoms, drift=0.0, t0=1.0, **kw):
    return LevyModel(jumps=CompoundPoissonJumps(atoms), drift=drift,
                     drift_form="plain", t0=t0, eps=0.0, **kw)


# (builder, arguments of the base reference, arguments of the other one);
# each builder is called separately, so equal arguments give equal but
# distinct objects
SAME_REFERENCE = [
    (CompoundPoissonJumps, ({1.0: 1.0, -0.5: 0.5},), ({1.0: 1.0, -0.5: 0.5},)),
    (StableJumps, (1.2, 1.0, 1.0), (1.2, 1.0, 1.0)),
    (GammaJumps, (2.0, 1.0), (2.0, 1.0)),
]
OTHER_REFERENCE = [
    (CompoundPoissonJumps, ({1.0: 1.0, -0.5: 0.5},), ({1.0: 1.0, -0.4: 0.5},)),
    (CompoundPoissonJumps, ({1.0: 1.0, -0.5: 0.5},), ({1.0: 1.0, -0.5: 0.6},)),
    (StableJumps, (1.2, 1.0, 1.0), (1.1, 1.0, 1.0)),
    (GammaJumps, (2.0, 1.0), (2.0, 1.5)),
]
# a direction of each builder and the reference its mark law integrates against
CP_REF = CompoundPoissonJumps({1.0: 0.4, -0.5: 1.0, 2.0: 0.7, 0.3: 0.2, -1.0: 0.9})
HALF, TWO_SIDED = StableJumps(0.5, 1.0, 1.0), StableJumps(1.2, 1.0, 0.5)
MARK_LAWS = [
    pytest.param(cp_direction(CP_REF, {1.0: 0.5, -0.5: -0.25, 0.3: 1.5, 2.0: -2.0}), CP_REF,
                 id="cp"),
    pytest.param(gamma_scale_direction(2.0, 1.0, HALF), HALF, id="gamma_scale"),
    pytest.param(gamma_shape_direction(1.0, HALF), HALF, id="gamma_shape"),
    pytest.param(stable_direction(0.4, 1.0, 0.5, TWO_SIDED), TWO_SIDED, id="stable"),
]


def reference_pair(builder, args_a, args_b):
    a, b = builder(*args_a), builder(*args_b)
    return tuple(LevyModel(jumps=j, drift=0.1, drift_form="compensated", t0=1.0, eps=0.05)
                 for j in (a, b))


class TestBuilders:
    def test_cp_rejects_zero_jump(self):
        with pytest.raises(ValueError):
            CompoundPoissonJumps({0.0: 1.0})

    def test_stable_index_range(self):
        with pytest.raises(ValueError):
            StableJumps(2.5)
        with pytest.raises(ValueError):
            StableJumps(0.5, 0.0, 0.0)

    @pytest.mark.parametrize("build, name", [
        (lambda v: CompoundPoissonJumps({v: 1.0, -0.6: 0.5}), "jump size"),
        (lambda v: StableJumps(0.5, v, 1.0), "c_pos"),
        (lambda v: StableJumps(0.5, 1.0, v), "c_neg"),
        (lambda v: GammaJumps(v, 1.0), "theta"),
        (lambda v: GammaJumps(2.0, v), "beta"),
        (lambda v: cp_model({1.0: 1.0}, drift=v), "drift"),
        (lambda v: cp_model({1.0: 1.0}, sigma2=v), "sigma2"),
        (lambda v: cp_model({1.0: 1.0}, t0=v), "t0"),
        (lambda v: LevyModel(jumps=GammaJumps(2.0, 1.0), eps=v), "eps"),
    ], ids=["cp-size", "stable-c_pos", "stable-c_neg", "gamma-theta", "gamma-beta",
            "model-drift", "model-sigma2", "model-t0", "model-eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
            build(value)

    def test_zero_eps_on_infinite_activity_is_a_value_error(self):
        # jump_rate's mass_above(eps) must reject eps = 0 before the
        # compensated slope integrates down to 0, whose QuadratureError the
        # CLI does not catch
        with pytest.raises(ValueError, match="eps"):
            LevyModel(jumps=StableJumps(1.5), drift_form="compensated", eps=0.0)

    def test_stable_mass_above(self):
        st = StableJumps(0.5, 1.0, 1.0)
        # oracle: (c+ + c-) eps^{-alpha} / alpha
        assert st.mass_above(0.04) == pytest.approx(2.0 / 0.5 * 0.04 ** -0.5, rel=1e-12)
        with pytest.raises(ValueError):
            st.mass_above(0.0)

    def test_gamma_mass_above(self):
        gj = GammaJumps(2.0, 1.0)
        from scipy.special import exp1
        assert gj.mass_above(0.01) == pytest.approx(2.0 * exp1(0.01), rel=1e-12)

    def test_gamma_sampler_mean(self, rng):
        # conditional mean above eps: int_e^inf e^{-bx} dx / E1(b e)
        gj = GammaJumps(1.0, 1.0)
        gen = rng.child(1).generator()
        eps = 0.01
        xs = gj.sample_above(eps, 200_000, gen)
        from scipy.special import exp1
        target = math.exp(-eps) / exp1(eps)
        se = xs.std() / math.sqrt(xs.size)
        assert abs(xs.mean() - target) <= 4 * se

    def test_integrate_against_cp(self):
        cp = CompoundPoissonJumps({1.0: 2.0, -0.5: 1.0})
        assert cp.integrate(lambda x: x, 0.0, np.inf) == pytest.approx(1.5)
        assert cp.integrate(lambda x: x * x, 0.6, np.inf) == pytest.approx(2.0)

    def test_stable_integrate_matches_closed_form(self):
        st = StableJumps(0.5, 1.0, 0.0)
        # oracle: int_a^b x * x^{-1.5} dx = 2 (sqrt b - sqrt a)
        val = st.integrate(lambda x: x, 0.04, 1.0)
        assert val == pytest.approx(2.0 * (1.0 - 0.2), rel=1e-8)


class TestSimulatePath:
    def test_cp_terminal_mean(self, rng):
        model = cp_model({1.0: 1.0})
        gen = rng.child(2).generator()
        vals = np.array([simulate_path(model, generator=gen).value(1.0)
                         for _ in range(30_000)])
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3 * se

    def test_no_jumps_gives_drift_line(self, rng):
        model = cp_model({}, drift=0.7)
        path = simulate_path(model, generator=rng.child(3).generator())
        assert path.n_jumps == 0
        assert path.value(0.5) == pytest.approx(0.35)
        assert path.value(1.0) == pytest.approx(0.7)

    def test_gamma_terminal_mean_with_bias_budget(self, rng):
        # eps chosen so the dropped small-jump mean is well below one sigma/3
        theta, beta = 2.0, 1.0
        n = 20_000
        var = theta / beta ** 2  # int x^2 nu(dx)
        sigma_mean = math.sqrt(var / n)
        eps = 5e-5  # dropped mean ~ theta * eps
        model = LevyModel(jumps=GammaJumps(theta, beta), drift=0.0,
                          drift_form="plain", t0=1.0, eps=eps)
        assert model.small_jump_budget()["mean_below"] < sigma_mean / 3
        gen = rng.child(4).generator()
        vals = np.array([simulate_path(model, generator=gen).value(1.0)
                         for _ in range(n)])
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - theta / beta) <= 3 * se + model.small_jump_budget()["mean_below"]

    def test_compensated_truncation_keeps_mean_exact(self, rng):
        # symmetric power-tail jumps, drift 0: E X_t = t * b regardless of eps
        st = StableJumps(1.2, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.25, drift_form="compensated",
                          t0=1.0, eps=0.05)
        gen = rng.child(5).generator()
        vals = np.array([simulate_path(model, generator=gen).value(1.0)
                         for _ in range(30_000)])
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 0.25) <= 4 * se

    def test_stable_jump_count_law(self, rng):
        st = StableJumps(0.5, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.0, drift_form="compensated",
                          t0=1.0, eps=0.25)
        rate = model.jump_rate
        gen = rng.child(6).generator()
        counts = np.array([simulate_path(model, generator=gen).n_jumps
                           for _ in range(20_000)])
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - rate) <= 3 * se

    def test_jump_rate_is_computed_once_per_model(self, rng, monkeypatch):
        from poissonpert.levy import simulate_coupled_paths, simulate_paths
        gj = GammaJumps(2.0, 1.0)
        model = LevyModel(jumps=gj, density=JumpDensity(lambda x: np.full(np.shape(x), 0.5),
                                                        lambda x: np.full(np.shape(x), -0.5)),
                          density_bound=1.5, t0=2.0, eps=0.01)
        other = LevyModel(jumps=GammaJumps(2.0, 1.0), t0=2.0, eps=0.01)
        assert model.jump_rate == 2.0 * 1.5 * gj.mass_above(0.01)
        calls = []
        monkeypatch.setattr(GammaJumps, "mass_above", lambda self, eps: calls.append(eps))
        gen = rng.child(9).generator()
        simulate_path(model, generator=gen)
        simulate_paths(model, 20, gen)
        simulate_coupled(model, other, gen)
        simulate_coupled_paths(other, model, 20, gen)
        assert calls == []

    def test_wiener_part_variance(self, rng):
        model = LevyModel(jumps=CompoundPoissonJumps({}), drift=0.0,
                          drift_form="plain", sigma2=0.49, t0=1.0, eps=0.0)
        gen = rng.child(7).generator()
        vals = np.array([simulate_path(model, generator=gen).value(1.0)
                         for _ in range(20_000)])
        assert abs(vals.mean()) <= 3 * vals.std() / math.sqrt(vals.size)
        se_var = math.sqrt(2.0 / (vals.size - 1)) * 0.49
        assert abs(vals.var() - 0.49) <= 4 * se_var

    def test_eps_zero_with_infinite_activity_rejected(self):
        with pytest.raises(ValueError):
            LevyModel(jumps=GammaJumps(1.0, 1.0), drift=0.0, drift_form="plain",
                      t0=1.0, eps=0.0)

    def test_plain_form_needs_finite_variation(self):
        with pytest.raises(ValueError):
            LevyModel(jumps=StableJumps(1.5, 1.0, 1.0), drift=0.0,
                      drift_form="plain", t0=1.0, eps=0.1)

    @pytest.mark.parametrize("g, bound, message", [
        # the jump rate used the bound but no proposal was thinned: over
        # 20,000 paths E X_1 read 3.0 against moments()' 1.0
        (None, 3.0, "density_bound must be 1.0, got 3.0"),
        # a zero jump rate: every path was jump-free, E X_1 0 against 2.0
        (2.0, 0.0, "density_bound must be positive"),
        (2.0, -1.0, "density_bound must be positive"),
        (2.0, math.inf, "density_bound must be finite"),
    ])
    def test_density_bound_is_a_usable_envelope(self, g, bound, message):
        density = None if g is None else JumpDensity(
            lambda x: np.full(np.shape(x), g), lambda x: np.full(np.shape(x), g - 1.0))
        with pytest.raises(ValueError, match=message):
            cp_model({1.0: 1.0}, density=density, density_bound=bound)

    def test_jump_density_above_its_bound_raises(self, rng):
        # thinning g = 2 against a bound of 1 would sample half the jump rate
        def flat(g):
            return JumpDensity(lambda x: np.full(np.shape(x), g),
                               lambda x: np.full(np.shape(x), g - 1.0))

        gen = rng.child(16).generator()
        with pytest.raises(ValueError, match="jump density exceeds its declared bound"):
            simulate_paths(cp_model({1.0: 1.0}, density=flat(2.0), density_bound=1.0), 50, gen)
        # a density at its bound up to rounding samples
        at_bound = cp_model({1.0: 1.0}, density=flat(1.0 + 1e-12), density_bound=1.0)
        assert simulate_paths(at_bound, 50, gen).counts.sum()


def drift_wiener_sup_mean(mu, sigma):
    """E sup over [0, 1] of mu t + sigma W_t, in closed form."""
    z = mu / sigma
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return mu * cdf + sigma * pdf + sigma ** 2 / (2.0 * mu) * (2.0 * cdf - 1.0)


class TestWienerSupremum:
    # no jumps: X_t = 0.3 t + 0.5 W_t, each path two nodes and one bridge
    MODEL = LevyModel(jumps=CompoundPoissonJumps({}), drift=0.3, drift_form="plain",
                      sigma2=0.25, t0=1.0)

    def test_supremum_matches_the_closed_form(self, rng):
        target = drift_wiener_sup_mean(0.3, 0.5)
        assert target == pytest.approx(0.572459, abs=5e-7)
        sup = simulate_paths(self.MODEL, 40_000, rng.child(40).generator()).supremum()
        se = sup.std() / math.sqrt(sup.size)
        assert se <= 0.003
        assert abs(sup.mean() - target) <= 3 * se

    def test_mark_nodes_leave_the_law(self, rng):
        # three more nodes split the bridge in four: the same supremum law
        gen = rng.child(41).generator()
        marks = gen.uniform(0.0, 1.0, (3, 40_000))
        sup = simulate_paths(self.MODEL, 40_000, gen, marks).supremum()
        se = sup.std() / math.sqrt(sup.size)
        assert abs(sup.mean() - drift_wiener_sup_mean(0.3, 0.5)) <= 3 * se

    def test_coupled_fd_is_exact_where_the_slopes_differ(self, rng):
        # compensated drift with the only atom below eps: no jump is drawn,
        # and theta moves the slope, 0.3 + 0.5 theta; the pair shares W and
        # E but each side's supremum keeps its own exact law
        cp = CompoundPoissonJumps({0.5: 1.0})
        model = LevyModel(jumps=cp, drift=0.3, drift_form="compensated", sigma2=0.25,
                          t0=1.0, eps=0.75)
        pert = JumpPerturbation(direction=cp_direction(cp, {0.5: 1.0}), theta0=0.0,
                                interval=(-0.5, 0.5))
        slopes = [perturbed_model(model, pert, t).slope for t in (-0.2, 0.2)]
        assert slopes == pytest.approx([0.2, 0.4], abs=1e-15)
        target = (drift_wiener_sup_mean(0.4, 0.5) - drift_wiener_sup_mean(0.2, 0.5)) / 0.4
        fd = coupled_supremum_fd(model, pert, 0.2, MCPlan(40_000, rng.child(42)))
        assert abs(fd.estimate - target) <= 3 * fd.stderr


class TestPathShift:
    def test_zero_jump_is_identity(self, rng):
        path = simulate_path(cp_model({1.0: 1.0}), generator=rng.child(8).generator())
        assert path.with_jump(0.4, 0.0) is path

    def test_terminal_difference_is_the_jump(self, rng):
        path = simulate_path(cp_model({1.0: 1.0}, drift=0.2), generator=rng.child(9).generator())
        for t in (0.0, 0.3, 1.0):
            for x in (0.5, -1.2):
                shifted = path.with_jump(t, x)
                assert shifted.value(1.0) - path.value(1.0) == pytest.approx(x)

    def test_monotone_path_supremum_difference(self, rng):
        # nondecreasing path: sup sits at the end, a positive jump adds x
        model = cp_model({1.0: 1.0, 0.5: 0.5}, drift=0.4)
        for i in range(20):
            path = simulate_path(model, generator=rng.child(10).child(i).generator())
            for t in (0.2, 0.9):
                shifted = path.with_jump(t, 0.75)
                assert shifted.supremum() - path.supremum() == pytest.approx(0.75)

    def test_time_outside_horizon(self, rng):
        path = simulate_path(cp_model({1.0: 1.0}), generator=rng.child(11).generator())
        with pytest.raises(ValueError):
            path.with_jump(1.5, 1.0)

    def test_reads_outside_horizon_rejected(self):
        # no extrapolation past either end: 0.3 t + 1.0 at 5.0 would read 2.5
        path = CadlagPath(1.0, 0.3, [0.4], [1.0])
        for ask in (lambda: path.value(5.0), lambda: path.values([0.5, 5.0]),
                    lambda: path.left_values(np.array([5.0])), lambda: path.sup_over(0.0, 5.0),
                    lambda: path.sup_over(5.0, 1.0)):
            with pytest.raises(ValueError, match=r"time 5\.0 outside horizon \[0, 1\.0\]"):
                ask()
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError, match="outside horizon"):
                path.value(t)
        with pytest.raises(ValueError, match="outside horizon"):
            path.sup_over(-3.0, 1.0)
        assert path.value(1.0) == 1.3 and path.sup_over(0.0, 1.0) == 1.3

    def test_iterated_difference_constant_functional(self, rng):
        path = simulate_path(cp_model({1.0: 1.0}), generator=rng.child(12).generator())
        from poissonpert.levy import PathFunctional
        const = PathFunctional(lambda w: 2.0)
        assert path_difference(const, path, [(0.1, 1.0), (0.2, 1.0)]) == 0.0

    def test_iterated_difference_terminal(self, rng):
        # terminal value is linear in inserted jumps: second difference is 0
        path = simulate_path(cp_model({1.0: 1.0}), generator=rng.child(13).generator())
        assert path_difference(terminal_value, path, [(0.1, 0.5), (0.6, -0.25)]) == \
            pytest.approx(0.0, abs=1e-12)
        assert path_difference(terminal_value, path, [(0.1, 0.5)]) == \
            pytest.approx(0.5, abs=1e-12)


class TestDriftAdjust:
    def test_zero_direction(self):
        st = StableJumps(0.5)
        d = gamma_scale_direction(0.0, 1.0, st)
        assert drift_adjust(0.3, d, 1.0) == pytest.approx(0.3)

    def test_gamma_component_closed_form(self):
        # adding theta gamma-tail jumps moves the drift by
        # theta (1 - e^{-beta})/beta per unit of the parameter
        st = StableJumps(0.5, 1.0, 1.0)
        d = gamma_shape_direction(1.0, st)
        out = drift_adjust(0.0, d, 2.0)
        assert out == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-10)

    def test_symmetric_direction_leaves_drift(self):
        st = StableJumps(1.2, 1.0, 1.0)
        d = stable_direction(0.5, 1.0, 1.0, st)
        assert drift_adjust(0.1, d, 3.0) == pytest.approx(0.1, abs=1e-12)

    def test_quadrature_route(self):
        # the closed-form moment against quadrature of x * g on the reference
        st = StableJumps(0.5, 1.0, 1.0)
        d = gamma_scale_direction(2.0, 1.0, st)
        quad_moment = st.integrate(lambda x: x * d.g(x), 0.0, 1.0)
        assert drift_adjust(0.0, d, 1.0) == pytest.approx(quad_moment, abs=1e-8)


class TestDirections:
    def test_stable_direction_constraint(self):
        st = StableJumps(1.0)
        with pytest.raises(ValueError):
            stable_direction(0.6, 1.0, 1.0, st)  # needs alpha_dir < alpha/2
        ok = stable_direction(0.4, 1.0, 1.0, st)
        check_direction(ok)

    def test_gamma_scale_moments(self):
        st = StableJumps(0.5, 1.0, 1.0)
        d = gamma_scale_direction(2.0, 1.0, st)
        # |g| nu_ref = 2 e^{-x} dx: mass 2, first absolute moment 2
        assert d.mark_mass == pytest.approx(2.0)
        sq, _ = quad(lambda x: (2.0 * x ** 1.5 * math.exp(-x)) ** 2 * x ** -1.5,
                     0, 50)
        assert d.square_integral == pytest.approx(sq, rel=1e-8)

    def test_cp_direction_matches_atoms_exactly(self):
        g_map = {1.0: 0.5, -0.5: -0.25, 2.0: 0.0, 0.3: 1.5}
        d = cp_direction(CompoundPoissonJumps({s: 1.0 for s in g_map}), g_map)
        for atom, value in g_map.items():
            assert d.g(atom) == value
            assert isinstance(d.g(atom), float)
            assert d.g(atom * (1.0 + 1e-9)) == 0.0
        atoms = np.array(sorted(g_map))
        np.testing.assert_array_equal(d.g(atoms), [g_map[a] for a in atoms])
        np.testing.assert_array_equal(d.g(atoms * (1.0 + 1e-9)), np.zeros(atoms.size))
        assert d.g(-3.0) == 0.0 and d.g(5.0) == 0.0  # beyond either end
        # the marks are the compound-Poisson measure with masses |g| m, untilted;
        # the atoms at 2.0 and at -1.0 (off g_map) weigh 0 and are never drawn
        masses = {1.0: 0.4, -0.5: 1.0, 2.0: 0.7, 0.3: 0.2, -1.0: 0.9}
        d = cp_direction(CompoundPoissonJumps(masses), g_map)
        abs_jumps = CompoundPoissonJumps({s: abs(g_map.get(s, 0.0)) * m
                                          for s, m in masses.items()})
        assert d.mark_mass == abs_jumps.mass_above(0.0)
        draws = d.sample_marks(4_000, RngStream(5).generator())
        np.testing.assert_array_equal(
            draws, abs_jumps.sample_above(0.0, 4_000, RngStream(5).generator()))
        assert not np.isin(draws, [2.0, -1.0]).any()
        np.testing.assert_array_equal(d.tilt(draws), np.ones(draws.size))
        assert d.mark_mass == pytest.approx(0.5 * 0.4 + 0.25 + 1.5 * 0.2)

    def test_cp_direction_off_the_reference_sizes_rejected(self):
        # g is 0 off the atoms, so such a direction was silently the zero direction
        with pytest.raises(ValueError, match=r"direction sizes \[3.0\] are not jump sizes"):
            cp_direction(CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5}), {1.0: 0.8, 3.0: 1.0})

    @pytest.mark.parametrize("d, nu_ref", MARK_LAWS)
    def test_mark_law_mass_and_mean(self, d, nu_ref):
        # the mark law is w |g| d nu_ref of mass Q: Q against the reference's
        # own integral (a finite sum for compound Poisson), and the mean mark
        # against int x w |g| d nu_ref / Q
        def law(x):
            return np.asarray(d.tilt(x)) * np.abs(np.asarray(d.g(x)))

        assert d.mark_mass == pytest.approx(nu_ref.integrate(law, 0.0, np.inf), rel=1e-8)
        mean = nu_ref.integrate(lambda x: x * law(x), 0.0, np.inf) / d.mark_mass
        xs = d.sample_marks(20_000, RngStream(9).generator())
        assert np.all(d.tilt(xs) > 0)
        se = xs.std() / math.sqrt(xs.size)
        assert math.isfinite(se) and se > 0
        assert abs(xs.mean() - mean) <= 4 * se



class TestLevyDerivative:
    def test_gamma_shape_derivative_needs_no_cut(self, rng):
        # |g| d nu_ref = x^-1 e^-x dx has infinite mass; oracle
        # t0 int x g d nu_ref = t0 / beta, with no mark cut off
        st = StableJumps(0.5, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.0, drift_form="compensated",
                          t0=1.0, eps=0.1)
        pert = JumpPerturbation(direction=gamma_shape_direction(1.0, st), theta0=0.0)
        est = levy_derivative(terminal_value, model, pert, MCPlan(20_000, rng.child(14)))
        assert math.isfinite(est.stderr) and est.stderr > 0
        assert abs(est.estimate - 1.0) <= 3 * est.stderr

    def test_two_sided_stable_derivative_needs_no_cut(self, rng):
        # oracle: t0 int x g d nu_ref = t0 (q_pos - q_neg) / (1 - alpha_dir); a
        # one-sided direction would give every replication the same value
        st = StableJumps(1.2, 1.0, 0.5)
        d = stable_direction(0.4, 1.0, 0.5, st)
        model = LevyModel(jumps=st, drift=0.0, drift_form="compensated",
                          t0=1.5, eps=0.1)
        pert = JumpPerturbation(direction=d, theta0=0.0)
        est = levy_derivative(terminal_value, model, pert, MCPlan(20_000, rng.child(30)))
        assert math.isfinite(est.stderr) and est.stderr > 0
        assert abs(est.estimate - 1.5 * d.drift_moment) <= 3 * est.stderr

    def test_terminal_value_is_direction_mean(self, rng):
        # oracle: t0 * int x g(x) nu_ref(dx) by quadrature
        cp = CompoundPoissonJumps({1.0: 0.6, -0.5: 0.4})
        model = cp_model({1.0: 0.6, -0.5: 0.4}, drift=0.1)
        d = cp_direction(cp, {1.0: 0.5, -0.5: -0.25})
        _ = check_direction(d)
        pert = JumpPerturbation(direction=d, theta0=0.0, interval=(-0.5, 0.5))
        est = levy_derivative(terminal_value, model, pert,
                              MCPlan(20_000, rng.child(15)))
        oracle = cp.integrate(lambda x: np.asarray(x) * np.asarray(d.g(x)), 0.0, np.inf)
        assert abs(est.estimate - oracle) <= 3 * est.stderr

    def test_gamma_scale_study(self, rng):
        # oracle: -theta t0 / beta0^2 (closed form)
        theta, beta0, alpha = 2.0, 1.0, 0.5
        st = StableJumps(alpha, 1.0, 1.0)
        gmax = theta * (alpha / beta0) ** alpha * math.exp(-alpha)

        def gap(x):
            x = np.asarray(x, dtype=float)
            out = np.where(x > 0, theta * np.power(np.maximum(x, 0), alpha)
                           * np.exp(-beta0 * np.maximum(x, 0)), 0.0)
            return out if out.shape else float(out)

        g_nu = JumpDensity(lambda x: 1.0 + gap(x), gap)
        model = LevyModel(jumps=st, density=g_nu, density_bound=1.0 + gmax,
                          drift=0.0, drift_form="compensated", t0=1.0, eps=0.05)
        pert = JumpPerturbation(direction=gamma_scale_direction(theta, beta0, st),
                                theta0=beta0, interval=(0.5, 1.5))
        # child 16 reads z = -3.16 here, a chance deviation: over children
        # 100-239 the z-scores average 0.04 with spread 0.87, none beyond 3
        est = levy_derivative(terminal_value, model, pert,
                              MCPlan(10_000, rng.child(29)))
        assert abs(est.estimate - (-2.0)) <= 3 * est.stderr

    def test_zero_direction(self, rng):
        cp = CompoundPoissonJumps({1.0: 1.0})
        model = cp_model({1.0: 1.0})
        pert = JumpPerturbation(direction=cp_direction(cp, {}), theta0=0.0)
        est = levy_derivative(terminal_value, model, pert, MCPlan(100, rng.child(17)))
        assert est.estimate == 0.0 and est.stderr == 0.0


class TestLevySeries:
    def test_equal_densities_close_at_order_zero(self, rng):
        model = cp_model({1.0: 1.0})
        res = levy_series(no_jump_indicator, model, model,
                          MCPlan(500, rng.child(18)), n_max=4)
        assert res.truncation_order <= 1
        assert res.terms[1:] == [0.0] * (len(res.terms) - 1)

    def test_negative_order_rejected(self, rng):
        model = cp_model({1.0: 1.0})
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
            levy_series(no_jump_indicator, model, model, MCPlan(100, rng.child(18)), n_max=-1)

    def test_rate_doubling_void_series(self, rng):
        # oracle: truncated alternating series e^{-1} sum (-1)^n/n!
        model = cp_model({1.0: 1.0})
        target = LevyModel(
            jumps=model.jumps,
            density=JumpDensity(lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
                                lambda x: np.ones_like(np.asarray(x, dtype=float))),
            density_bound=2.0, drift=0.0, drift_form="plain", t0=1.0, eps=0.0)
        res = levy_series(no_jump_indicator, model, target,
                          MCPlan(1_500, rng.child(19)), n_max=5)
        upto = res.truncation_order
        oracle = sum(math.exp(-1.0) * (-1.0) ** n / math.factorial(n)
                     for n in range(upto + 1))
        err = 3 * math.sqrt(sum(s ** 2 for s in res.stderrs))
        assert abs(res.value - oracle) <= err
        # and the full limit is the doubled-rate void probability
        assert abs(res.value - math.exp(-2.0)) <= err + math.exp(-1.0) / math.factorial(upto + 1) * 2

    def test_terminal_value_exact_at_order_one(self, rng):
        # linearity: only orders 0 and 1 contribute
        cp = CompoundPoissonJumps({1.0: 1.0, -0.5: 0.5})
        model = cp_model({1.0: 1.0, -0.5: 0.5}, drift=0.2)
        target = LevyModel(
            jumps=cp, density=JumpDensity(lambda x: np.where(np.asarray(x) > 0, 1.5, 1.0),
                                          lambda x: np.where(np.asarray(x) > 0, 0.5, 0.0)),
            density_bound=1.5, drift=0.2, drift_form="plain", t0=1.0, eps=0.0)
        res = levy_series(terminal_value, model, target,
                          MCPlan(2_000, rng.child(20)), n_max=3)
        direct = 0.2 + cp.integrate(
            lambda x: np.asarray(x) * np.asarray(target.g(x)), 0.0, np.inf)
        # an infinite stderr (a single chunk) would make the bound vacuous
        assert all(math.isfinite(s) for s in res.stderrs)
        err = 3 * math.sqrt(sum(s ** 2 for s in res.stderrs)) + 1e-9
        assert abs(res.value - direct) <= err

    @pytest.mark.parametrize("builder, args_a, args_b",
                             [r for r in SAME_REFERENCE if r[0] is not CompoundPoissonJumps])
    def test_non_atomic_reference_rejected(self, rng, builder, args_a, args_b):
        # the series direction is the density gap on the reference's atoms
        model, target = reference_pair(builder, args_a, args_b)
        with pytest.raises(ConditionError, match="compound-Poisson reference"):
            levy_series(terminal_value, model, target, MCPlan(100, rng.child(21)))

    def test_drift_mismatch_rejected(self):
        model = cp_model({1.0: 1.0}, drift=0.0)
        target = cp_model({1.0: 1.0}, drift=0.5)
        with pytest.raises(ConditionError):
            check_pair(model, target)

    @pytest.mark.parametrize("builder, args_a, args_b", SAME_REFERENCE)
    def test_equal_references_built_apart_accepted(self, builder, args_a, args_b):
        model, target = reference_pair(builder, args_a, args_b)
        assert model.jumps is not target.jumps
        assert model.jumps == target.jumps
        assert hash(model.jumps) == hash(target.jumps)
        out = check_pair(model, target)
        assert out["target_square_gap"] == 0.0

    @pytest.mark.parametrize("builder, args_a, args_b", OTHER_REFERENCE)
    def test_unequal_references_rejected(self, builder, args_a, args_b):
        model, target = reference_pair(builder, args_a, args_b)
        with pytest.raises(ConditionError, match="reference jump measure"):
            check_pair(model, target)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_quadrature_failure_names_the_integral(self):
        # the exact gap 0.5 |x|^0.1 on |x| <= 1 has the square gap
        # int 0.25 x^0.2 x^-2.2 dx = int 0.25 x^-2 dx near 0, which diverges
        st = StableJumps(1.2, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.1, drift_form="compensated",
                          t0=1.0, eps=0.05)

        def gap(x):
            ax = np.abs(np.asarray(x, dtype=float))
            return np.where(ax <= 1.0, 0.5 * ax ** 0.1, 0.0)

        target = LevyModel(jumps=st, density=JumpDensity(lambda x: 1.0 + gap(x), gap),
                           density_bound=1.5, drift=0.1, drift_form="compensated",
                           t0=1.0, eps=0.05)
        with pytest.raises(QuadratureError, match="^target square gap: "):
            check_pair(model, target)

    def test_two_sided_direction_with_small_negative_weight(self):
        # a small but valid square-gap integral: each panel's error estimate
        # must sit far below the 1e-9 acceptance bound of _panel_quad
        st = StableJumps(1.2, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.1, drift_form="compensated",
                          t0=1.0, eps=0.05)
        direction = stable_direction(0.5, 1.1184, 0.0028, st)
        pert = JumpPerturbation(direction=direction, theta0=0.0, interval=(0.0, 1.0))
        out = check_pair(model, perturbed_model(model, pert, 0.3668))
        # oracle: theta^2 (q_pos^2 + q_neg^2) / (alpha - 2 alpha_dir) = 0.84144...
        oracle = 0.3668 ** 2 * (1.1184 ** 2 + 0.0028 ** 2) / (1.2 - 2 * 0.5)
        assert out["target_square_gap"] == pytest.approx(oracle, rel=1e-9)

    def test_compensated_drift_relation(self):
        st = StableJumps(1.2, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.1, drift_form="compensated",
                          t0=1.0, eps=0.05)
        # one-sided, so the compensation integral int_{|x|<=1} x g d nu_ref
        # = q_pos / (1 - alpha_dir) = 2 is nonzero (a symmetric one is 0)
        direction = stable_direction(0.5, 1.0, 0.0, st)
        pert = JumpPerturbation(direction=direction, theta0=0.0, interval=(0.0, 1.0))
        shifted = perturbed_model(model, pert, 0.5)
        assert shifted.drift == pytest.approx(model.drift + 0.5 * direction.drift_moment,
                                              rel=1e-12)
        assert shifted.drift != model.drift
        out = check_pair(model, shifted)  # drift moved by the compensation integral
        # oracle: (theta - theta0)^2 int g^2 d nu_ref = 0.25 / (1.2 - 2 * 0.5) = 1.25
        assert out["target_square_gap"] == pytest.approx(
            0.5 ** 2 * direction.square_integral, rel=1e-9)
        bad = LevyModel(jumps=st, density=shifted.density,
                        density_bound=shifted.density_bound, drift=0.1,
                        drift_form="compensated", t0=1.0, eps=0.05)
        with pytest.raises(ConditionError):
            check_pair(model, bad)


class TestSupremumDerivative:
    def test_monotone_case_closed_form(self, rng):
        # nondecreasing paths: Y_t <= 0, kernel = x on positive jumps, so the
        # value is t0 * int x g d nu_ref
        cp = CompoundPoissonJumps({1.0: 0.8, 0.5: 0.4})
        model = cp_model({1.0: 0.8, 0.5: 0.4}, drift=0.3)
        pert = JumpPerturbation(direction=cp_direction(cp, {1.0: 1.0, 0.5: 0.5}),
                                theta0=0.0, interval=(-0.5, 0.5))
        res = supremum_derivative(model, pert, MCPlan(20_000, rng.child(21)))
        assert abs(res.estimate - 0.9) <= 3 * res.stderr
        assert res.kernel_max_err < 1e-12
        assert res.bound_violations == 0

    def test_zero_direction_zero_estimate(self, rng):
        cp = CompoundPoissonJumps({1.0: 1.0})
        model = cp_model({1.0: 1.0}, drift=0.1)
        pert = JumpPerturbation(direction=cp_direction(cp, {}), theta0=0.0)
        res = supremum_derivative(model, pert, MCPlan(2_000, rng.child(22)))
        assert res.estimate == 0.0 and res.stderr == 0.0

    def test_two_sided_vs_coupled_finite_difference(self, rng):
        cp = CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5})
        model = cp_model({1.0: 1.0, -0.6: 0.5}, drift=0.3)
        pert = JumpPerturbation(direction=cp_direction(cp, {1.0: 0.8, -0.6: -0.5}),
                                theta0=0.0, interval=(-0.8, 1.0))
        res = supremum_derivative(model, pert, MCPlan(20_000, rng.child(23)))
        fd = coupled_supremum_fd(model, pert, 0.05, MCPlan(20_000, rng.child(24)))
        combined = math.sqrt(res.stderr ** 2 + fd.stderr ** 2)
        assert abs(res.estimate - fd.estimate) <= 3 * combined
        assert res.kernel_max_err < 1e-12

    @pytest.mark.parametrize("delta", [0.0, -0.05, math.nan])
    def test_coupled_fd_step_must_be_positive(self, rng, delta):
        # delta = 0 used to divide 0 by 0 into a NaN estimate
        cp = CompoundPoissonJumps({1.0: 1.0})
        pert = JumpPerturbation(direction=cp_direction(cp, {1.0: 1.0}), theta0=0.0)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            coupled_supremum_fd(cp_model({1.0: 1.0}), pert, delta, MCPlan(100, rng.child(27)))

    def test_q_histogram_accumulates_all_samples(self, rng):
        cp = CompoundPoissonJumps({1.0: 1.0})
        model = cp_model({1.0: 1.0}, drift=0.1)
        pert = JumpPerturbation(direction=cp_direction(cp, {1.0: 1.0}), theta0=0.0)
        res = supremum_derivative(model, pert, MCPlan(5_000, rng.child(25)))
        assert res.q_summary.counts.sum() == 5_000

    def test_square_tail_condition_enforced(self, rng):
        st = StableJumps(0.5, 1.0, 1.0)
        model = LevyModel(jumps=st, drift=0.0, drift_form="compensated",
                          t0=1.0, eps=0.1)
        pert = JumpPerturbation(direction=stable_direction(0.2, 1.0, 1.0, st),
                                theta0=0.0)
        with pytest.raises(ConditionError):
            supremum_derivative(model, pert, MCPlan(100, rng.child(26)))


class TestCoupledSimulation:
    @pytest.mark.parametrize("builder, args_a, args_b", SAME_REFERENCE)
    def test_equal_references_built_apart_couple(self, rng, builder, args_a, args_b):
        lo, hi = reference_pair(builder, args_a, args_b)
        p_lo, p_hi = simulate_coupled(lo, hi, rng.child(28).generator())
        # equal densities thin the shared proposals identically
        np.testing.assert_array_equal(p_lo.jump_t, p_hi.jump_t)
        np.testing.assert_array_equal(p_lo.jump_x, p_hi.jump_x)

    @pytest.mark.parametrize("builder, args_a, args_b", OTHER_REFERENCE)
    def test_unequal_references_not_coupled(self, rng, builder, args_a, args_b):
        lo, hi = reference_pair(builder, args_a, args_b)
        with pytest.raises(ValueError, match="reference jump measure"):
            simulate_coupled(lo, hi, rng.child(28).generator())

    def test_shared_jumps_thin_consistently(self, rng):
        cp = CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5})
        model = cp_model({1.0: 1.0, -0.6: 0.5}, drift=0.3)
        pert = JumpPerturbation(direction=cp_direction(cp, {1.0: 0.8, -0.6: -0.5}),
                                theta0=0.0, interval=(-0.8, 1.0))
        lo = perturbed_model(model, pert, -0.1)
        hi = perturbed_model(model, pert, 0.1)
        gen = rng.child(27).generator()
        means = []
        for _ in range(5_000):
            p_lo, p_hi = simulate_coupled(lo, hi, gen)
            means.append(p_hi.value(1.0) - p_lo.value(1.0))
        arr = np.array(means)
        # oracle: E X under each model differs by 0.2 * int x g d nu_ref
        target = 0.2 * cp.integrate(
            lambda x: np.asarray(x) * np.asarray(pert.direction.g(x)), 0.0, np.inf)
        se = arr.std() / math.sqrt(arr.size)
        assert abs(arr.mean() - target) <= 3 * se
