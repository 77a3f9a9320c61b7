"""Chunk-batched Levy paths.

``PathBatch`` against the same paths as ``CadlagPath`` on generated jump
sets and on hand-built ties, the invariants of its padded rows after
thinning and jump insertion, the batch simulators (``simulate_path`` is a
batch of one), and the spot cross-check that the estimators run on the
first paths of their first chunk.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_exact_arrays import PROFILE

from poissonpert import MCPlan, RngStream
from poissonpert import levy
from poissonpert.levy import (BatchMismatchError, CadlagPath, CompoundPoissonJumps,
                              GammaJumps, JumpDensity, JumpPerturbation, LevyModel, PathBatch,
                              StableJumps, cp_direction, no_jump_indicator, running_supremum,
                              simulate_coupled_paths, simulate_paths, stable_direction,
                              terminal_value)
from poissonpert.rng import SPOT_CHECKS

TOL = 1e-12
BUILTINS = [running_supremum, terminal_value, no_jump_indicator]


@st.composite
def ragged_paths(draw):
    """Per-path sorted jump lists (some empty, ties likely: times come from
    a few values), a slope and, or not, a Wiener part: per path the nodes 0,
    t0, its jump times and a few more of the values, with W and the bridge
    terms q drawn."""
    t0 = draw(st.sampled_from([1.0, 2.5]))
    n = draw(st.integers(1, 5))
    spots = draw(st.lists(st.floats(0.0, t0), min_size=1, max_size=4)) + [t0]
    paths = []
    for _ in range(n):
        k = draw(st.integers(0, 5))
        times = sorted(draw(st.lists(st.sampled_from(spots), min_size=k, max_size=k)))
        sizes = draw(st.lists(st.floats(-2.0, 2.0).filter(bool), min_size=k, max_size=k))
        paths.append((np.array(times, dtype=float), np.array(sizes, dtype=float)))
    if draw(st.booleans()):
        paths[draw(st.integers(0, n - 1))] = (np.empty(0), np.empty(0))
    slope = draw(st.floats(-1.0, 1.0))
    nodes = None
    if draw(st.booleans()):
        nodes = []
        for t, _ in paths:
            extra = draw(st.lists(st.sampled_from(spots), max_size=3))
            node_t = np.unique(np.concatenate(([0.0, t0], t, extra)))
            m = node_t.size
            w = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
            q = draw(st.lists(st.floats(0.0, 2.0), min_size=m - 1, max_size=m - 1))
            nodes.append((node_t, np.array(w), np.array(q)))
    return t0, slope, paths, nodes


def padded(rows, fills, widths):
    """Per-path tuples of arrays as one ``(n, width)`` array per part, each
    row's values first and then the part's fill."""
    out = [np.full((len(rows), w), fill) for fill, w in zip(fills, widths)]
    for i, row in enumerate(rows):
        for part, values in zip(out, row):
            part[i, :values.size] = values
    return tuple(out)


def as_batch(t0, slope, paths, nodes):
    width = max(t.size for t, _ in paths)
    times, sizes = padded(paths, (np.inf, 0.0), (width, width))
    if nodes is not None:
        m = max(t.size for t, _, _ in nodes)
        nodes = padded(nodes, (np.inf, 0.0, 0.0), (m, m, m - 1))
    return PathBatch(t0, slope, times, sizes, nodes)


def as_paths(t0, slope, paths, nodes):
    return [CadlagPath(t0, slope, t, x, None if nodes is None else nodes[i])
            for i, (t, x) in enumerate(paths)]


def per_path_times(draw, spec):
    """One time per path: one of the path's jump times (when it has one), t0,
    or any other time, which with a Wiener part is one of the path's nodes
    and otherwise any time in [0, t0]."""
    t0, _, paths, nodes = spec
    out = []
    for i, (t, _) in enumerate(paths):
        pick = draw(st.sampled_from(["jump", "end", "other"] if t.size else ["end", "other"]))
        if pick == "jump":
            out.append(float(t[draw(st.integers(0, t.size - 1))]))
        elif pick == "end":
            out.append(t0)
        elif nodes is not None:
            out.append(draw(st.sampled_from(nodes[i][0].tolist())))
        else:
            out.append(draw(st.floats(0.0, t0)))
    return np.array(out)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


def assert_padded_layout(batch, paths):
    """The invariants of the padded rows, and path i equal to ``paths[i]``."""
    finite = np.isfinite(batch.times)
    assert batch.times.shape == batch.sizes.shape and batch.n == len(paths)
    assert np.all(batch.times[:, 1:] >= batch.times[:, :-1])  # nondecreasing
    assert not np.any(~finite[:, :-1] & finite[:, 1:])  # +inf only after the jumps
    assert np.all(np.isposinf(batch.times[~finite]))
    np.testing.assert_array_equal(batch.sizes == 0.0, ~finite)
    np.testing.assert_array_equal(batch.counts, finite.sum(axis=1))
    for i, want in enumerate(paths):
        got = batch.path(i)
        np.testing.assert_array_equal(got.jump_t, want.jump_t)
        np.testing.assert_array_equal(got.jump_x, want.jump_x)
    for f in BUILTINS:
        np.testing.assert_array_equal(f.on_batch(batch), [f(w) for w in paths])


class TestBatchAgainstCadlagPath:
    @PROFILE
    @given(data=st.data(), spec=ragged_paths())
    def test_values_and_suprema(self, data, spec):
        batch, paths = as_batch(*spec), as_paths(*spec)
        t0 = spec[0]
        ts = per_path_times(data.draw, spec)
        same = np.testing.assert_array_equal
        same(batch.values(ts), [p.values(np.array([t]))[0] for p, t in zip(paths, ts)])
        same(batch.left_values(ts), [p.left_values(np.array([t]))[0] for p, t in zip(paths, ts)])
        other = per_path_times(data.draw, spec)
        a, b = np.minimum(ts, other), np.maximum(ts, other)
        same(batch.sup_over(a, b), [p.sup_over(lo, hi) for p, lo, hi in zip(paths, a, b)])
        same(batch.sup_over(0.0, ts), [p.sup_over(0.0, t) for p, t in zip(paths, ts)])
        same(batch.sup_over(ts, t0), [p.sup_over(t, t0) for p, t in zip(paths, ts)])
        for f in BUILTINS:
            same(f.on_batch(batch), [f(p) for p in paths])

    @PROFILE
    @given(data=st.data(), spec=ragged_paths())
    def test_with_jumps(self, data, spec):
        batch, paths = as_batch(*spec), as_paths(*spec)
        ts = per_path_times(data.draw, spec)
        xs = np.array([data.draw(st.sampled_from([0.0, -0.7, 1.3])) for _ in paths])
        assert_padded_layout(batch.with_jumps(ts, xs),
                             [p.with_jump(t, x) for p, t, x in zip(paths, ts, xs)])

    @PROFILE
    @given(spec=ragged_paths())
    def test_path_round_trip(self, spec):
        batch = as_batch(*spec)
        for i, w in enumerate(as_paths(*spec)):
            p = batch.path(i)
            np.testing.assert_array_equal(p.jump_t, w.jump_t)
            np.testing.assert_array_equal(p.jump_x, w.jump_x)
            if w.nodes is not None:
                for got, want in zip(p.nodes, w.nodes):
                    np.testing.assert_array_equal(got, want)

    def test_other_functionals_fall_back_to_fn(self):
        spec = (1.0, 0.2, [(np.array([0.3, 0.6]), np.array([1.0, -2.0])),
                           (np.empty(0), np.empty(0))], None)
        batch = as_batch(*spec)
        n_jumps = levy.PathFunctional(lambda w: float(w.n_jumps), name="n_jumps")
        np.testing.assert_array_equal(n_jumps.on_batch(batch), [2.0, 0.0])
        # a built-in with its fn replaced uses the new fn, not the old array form
        moved = levy.PathFunctional(lambda w: w.value(0.5), name=terminal_value.name)
        assert_close(moved.on_batch(batch), [1.1, 0.1])

    def test_jump_outside_horizon_rejected(self):
        batch = as_batch(1.0, 0.0, [(np.empty(0), np.empty(0))], None)
        with pytest.raises(ValueError, match="horizon"):
            batch.with_jumps(1.5, 1.0)

    def test_times_outside_horizon_rejected(self):
        # no extrapolation past either end: 0.5 t + 1.0 at 5.0 would read 3.5
        batch = as_batch(1.0, 0.5, [(np.array([0.3]), np.array([1.0])),
                                    (np.empty(0), np.empty(0))], None)
        for ask in (lambda: batch.values(5.0), lambda: batch.left_values([0.5, 5.0]),
                    lambda: batch.sup_over(0.0, 5.0), lambda: batch.sup_over([0.0, 5.0], 1.0),
                    lambda: batch.with_jumps(5.0, 1.0)):
            with pytest.raises(ValueError, match=r"time 5\.0 outside horizon \[0, 1\.0\]"):
                ask()
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError, match="outside horizon"):
                batch.values(t)
        assert_close(batch.values(1.0), [1.5, 0.5])

    def test_wiener_paths_are_known_at_their_nodes_only(self):
        nodes = [(np.array([0.0, 0.4, 1.0]), np.array([0.0, 0.3, -0.2]), np.array([0.5, 0.1]))]
        spec = (1.0, 0.2, [(np.array([0.4]), np.array([1.0]))], nodes)
        batch, (path,) = as_batch(*spec), as_paths(*spec)
        for ask in (lambda p: p.values(np.array([0.5])), lambda p: p.sup_over(0.0, 0.5),
                    lambda p: p.with_jumps(0.5, 1.0) if p is batch else p.with_jump(0.5, 1.0)):
            for p in (batch, path):
                with pytest.raises(ValueError, match="not a node"):
                    ask(p)
        # at a node: the inserted jump sits on the bridge's end, and the
        # segment (0, 0.4) keeps its maximum (0 + 0.38 + sqrt(0.38^2 + 0.5))/2
        top = 0.5 * (0.0 + 0.38 + math.sqrt(0.38 ** 2 + 0.5))
        assert path.sup_over(0.0, 0.4) == pytest.approx(max(top, 1.38), abs=TOL)
        assert path.with_jump(0.4, -2.0).sup_over(0.0, 0.4) == pytest.approx(top, abs=TOL)


class TestBatchOrder:
    """``_batch`` sorts each path's kept proposals by time, ties in draw
    order: the order of ``np.lexsort((times, row))``."""

    # path 0: ties at 0.5 and 0.2; path 1: none kept; path 2: a triple tie at 1.0
    COUNTS = np.array([5, 2, 4])
    TIMES = np.array([0.5, 0.2, 0.5, 0.9, 0.2, 0.4, 0.1, 1.0, 1.0, 0.0, 1.0])
    SIZES = np.arange(1.0, 12.0) * np.where(np.arange(11) % 2, -0.5, 1.0)

    @pytest.mark.parametrize("keep", [None, np.array([1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1], bool)])
    def test_ties_keep_draw_order(self, keep):
        model = LevyModel(jumps=CP, drift=0.3, t0=1.0)
        times, sizes = self.TIMES, self.SIZES
        row = np.repeat(np.arange(3), self.COUNTS)
        if keep is not None:
            row, times, sizes = row[keep], times[keep], sizes[keep]
        order = np.lexsort((times, row))
        batch = levy._batch(model, self.COUNTS, self.TIMES, self.SIZES, keep, None)
        counts = np.bincount(row, minlength=3)
        own = np.arange(counts.max()) < counts[:, None]
        want_t, want_x = np.full(own.shape, np.inf), np.zeros(own.shape)
        want_t[own], want_x[own] = times[order], sizes[order]
        np.testing.assert_array_equal(batch.times, want_t)
        np.testing.assert_array_equal(batch.sizes, want_x)
        np.testing.assert_array_equal(batch.counts, counts)
        paths = [CadlagPath(1.0, model.slope, times[order][row[order] == i],
                            sizes[order][row[order] == i]) for i in range(3)]
        ts = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        self.assert_paths_equal(batch, paths, ts)
        # inserted at an existing jump time, a jump goes after the ones there
        moved = batch.with_jumps([0.5, 0.2, 1.0], [2.5, -3.0, 0.25])
        self.assert_paths_equal(moved, [p.with_jump(t, x) for p, t, x in
                                        zip(paths, (0.5, 0.2, 1.0), (2.5, -3.0, 0.25))], ts)

    @staticmethod
    def assert_paths_equal(batch, paths, ts):
        for i, want in enumerate(paths):
            got = batch.path(i)
            np.testing.assert_array_equal(got.jump_t, want.jump_t)
            np.testing.assert_array_equal(got.jump_x, want.jump_x)
            np.testing.assert_array_equal(got.values(ts), want.values(ts))
            np.testing.assert_array_equal(got.left_values(ts), want.left_values(ts))
            assert got.supremum() == want.supremum()
        np.testing.assert_array_equal(batch.supremum(), [p.supremum() for p in paths])


class TestPaddedLayout:
    @PROFILE
    @given(data=st.data())
    def test_invariants_after_thinning_and_insertion(self, data):
        # proposals on a few time values (ties likely), thinned or not, with
        # or without a Wiener part on those values, then jumps inserted a few
        # times over (at existing jump times and at t0 too), some of them
        # zero; each path is compared with the CadlagPath that takes the same
        # jumps one by one
        model = cp_model()
        spots = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [1.0]
        counts = np.array(data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=5)))
        n = counts.size
        nodes = None
        if data.draw(st.booleans()):
            node_t = np.unique([0.0, *spots])
            m = node_t.size
            w = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * m, max_size=n * m))
            q = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n * (m - 1),
                                   max_size=n * (m - 1)))
            nodes = (np.tile(node_t, (n, 1)), np.reshape(w, (n, m)), np.reshape(q, (n, m - 1)))
        total = int(counts.sum())
        times = np.array(data.draw(st.lists(st.sampled_from(spots), min_size=total,
                                            max_size=total)), dtype=float)
        sizes = np.array(data.draw(st.lists(st.floats(-2.0, 2.0).filter(bool), min_size=total,
                                            max_size=total)), dtype=float)
        keep = data.draw(st.none() | st.lists(st.booleans(), min_size=total, max_size=total)
                         .map(lambda k: np.array(k, dtype=bool)))
        batch = levy._batch(model, counts, times, sizes, keep, nodes)
        kept = np.ones(total, dtype=bool) if keep is None else keep
        row = np.repeat(np.arange(n), counts)
        paths = []
        for i in range(n):
            path = CadlagPath(model.t0, model.slope, [], [],
                              None if nodes is None else tuple(part[i] for part in nodes))
            for t, x in zip(times[kept & (row == i)], sizes[kept & (row == i)]):
                path = path.with_jump(t, x)
            paths.append(path)
        assert_padded_layout(batch, paths)
        for _ in range(data.draw(st.integers(1, 3))):
            ts = np.array([data.draw(st.sampled_from(spots)) for _ in paths])
            xs = np.array([data.draw(st.sampled_from([0.0, -0.7, 1.3])) for _ in paths])
            batch = batch.with_jumps(ts, xs)
            paths = [p.with_jump(t, x) for p, t, x in zip(paths, ts, xs)]
            assert_padded_layout(batch, paths)


CP = CompoundPoissonJumps({1.0: 1.0, -0.6: 0.5})
DIRECTION = cp_direction(CP, {1.0: 0.8, -0.6: -0.5})
PERT = JumpPerturbation(direction=DIRECTION, theta0=0.0, interval=(-0.8, 1.0))


def cp_model(sigma2=0.0):
    return LevyModel(jumps=CP, drift=0.3, drift_form="plain", t0=1.0, eps=0.0,
                     sigma2=sigma2)


STABLE = StableJumps(1.2, 1.0, 0.5)
STABLE_PERT = JumpPerturbation(direction=stable_direction(0.4, 1.0, 0.5, STABLE),
                               theta0=0.0, interval=(-0.5, 0.5))
# compound Poisson without and with a Wiener part, gamma with one, and thinned
# compensated power tails with one
ONE_PATH_MODELS = [
    cp_model(), cp_model(0.5),
    LevyModel(jumps=GammaJumps(2.0, 1.0), sigma2=0.5, t0=1.0, eps=0.01),
    levy.perturbed_model(LevyModel(jumps=STABLE, drift=0.1, drift_form="compensated",
                                   sigma2=0.3, t0=1.0, eps=0.1), STABLE_PERT, 0.4),
]


class TestSimulators:
    @pytest.mark.parametrize("sigma2", [0.0, 0.5])
    def test_terminal_moments(self, rng, sigma2):
        model = cp_model(sigma2)
        x = simulate_paths(model, 40_000, rng.child(1).generator()).values(1.0)
        mom = model.moments()
        assert abs(x.mean() - mom["mean"]) <= 3 * x.std() / math.sqrt(x.size)
        sq = (x - mom["mean"]) ** 2
        assert abs(sq.mean() - mom["var"]) <= 3 * sq.std() / math.sqrt(x.size)

    def test_atom_draws_are_generator_choice_draws(self, rng):
        # the per-path simulators keep their draws: sample_above takes the
        # inverse-CDF step of gen.choice itself
        a, b = rng.child(10).generator(), rng.child(10).generator()
        p = CP.masses / CP.masses.sum()
        np.testing.assert_array_equal(CP.sample_above(0.0, 500, a),
                                      CP.sizes[b.choice(CP.sizes.size, size=500, p=p)])
        assert a.random() == b.random()

    def test_jumps_sorted_within_each_path(self, rng):
        batch = simulate_paths(cp_model(), 200, rng.child(2).generator())
        assert batch.n == 200 and batch.times.shape == batch.sizes.shape
        assert np.all(batch.times[:, 1:] >= batch.times[:, :-1])
        for i in range(batch.n):
            assert np.all(np.diff(batch.path(i).jump_t) >= 0)

    def test_thinned_density_bound_checked(self, rng):
        density = JumpDensity(lambda x: 2.0 * np.ones_like(np.asarray(x)),
                              lambda x: np.ones_like(np.asarray(x)))
        model = LevyModel(jumps=CP, density=density, density_bound=1.5, t0=1.0)
        with pytest.raises(ValueError, match="declared bound"):
            simulate_paths(model, 50, rng.child(3).generator())

    def test_coupled_batches_share_proposals_and_nodes(self, rng):
        model = cp_model(0.5)
        lo = levy.perturbed_model(model, PERT, -0.1)
        hi = levy.perturbed_model(model, PERT, 0.1)
        b_lo, b_hi = simulate_coupled_paths(lo, hi, 300, rng.child(4).generator())
        # one skeleton (nodes, W and bridge terms) serves both batches, and
        # every jump of either path is one of its nodes
        assert b_lo.nodes is b_hi.nodes
        for b in (b_lo, b_hi):
            for i in range(b.n):
                p = b.path(i)
                assert np.isin(p.jump_t, p.nodes[0]).all()
        # g_hi >= g_lo on the atom 1.0 and g_hi <= g_lo on -0.6: one uniform
        # per proposal keeps the larger density's jumps a superset
        for i in range(300):
            p_lo, p_hi = b_lo.path(i), b_hi.path(i)
            up_lo, up_hi = p_lo.jump_t[p_lo.jump_x > 0], p_hi.jump_t[p_hi.jump_x > 0]
            down_lo, down_hi = p_lo.jump_t[p_lo.jump_x < 0], p_hi.jump_t[p_hi.jump_x < 0]
            assert set(up_lo) <= set(up_hi) and set(down_hi) <= set(down_lo)

    @PROFILE
    @given(seed=st.integers(0, 2 ** 63 - 1))
    def test_one_path_is_a_batch_of_one(self, seed):
        for model in ONE_PATH_MODELS:
            path = levy.simulate_path(model, generator=RngStream(seed).generator())
            want = simulate_paths(model, 1, RngStream(seed).generator()).path(0)
            np.testing.assert_array_equal(path.jump_t, want.jump_t)
            np.testing.assert_array_equal(path.jump_x, want.jump_x)
            assert (path.nodes is None) == (want.nodes is None) == (model.sigma2 == 0)
            for got, part in zip(path.nodes or (), want.nodes or ()):
                np.testing.assert_array_equal(got, part)
            assert path.value(model.t0) == want.value(model.t0)
            assert path.supremum() == want.supremum()

    def test_equal_models_couple_identically(self, rng):
        model = cp_model()
        b_lo, b_hi = simulate_coupled_paths(model, model, 100, rng.child(5).generator())
        np.testing.assert_array_equal(b_lo.times, b_hi.times)
        np.testing.assert_array_equal(b_lo.sizes, b_hi.sizes)


class TestSpotCheck:
    def test_runs_on_the_first_paths_of_chunk_zero(self, rng, monkeypatch):
        calls = []
        original = CadlagPath.sup_over

        def counted(self, a, b):
            calls.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(CadlagPath, "sup_over", counted)
        levy.supremum_derivative(cp_model(), PERT, MCPlan(240, rng.child(6), chunks=8))
        # per checked path: sup over [0, t] and [t, t0], and the supremum after the jump
        assert len(calls) == 3 * SPOT_CHECKS

    def test_corrupted_supremum_raises(self, rng, monkeypatch):
        # a constant shift of every batch supremum leaves Y_t and the path
        # difference unchanged, so only the cross-check against CadlagPath sees it
        original = PathBatch.sup_over
        monkeypatch.setattr(PathBatch, "sup_over", lambda self, a, b: original(self, a, b) + 1e-9)
        with pytest.raises(BatchMismatchError, match="sup_over"):
            levy.supremum_derivative(cp_model(0.5), PERT, MCPlan(240, rng.child(7), chunks=8))
        with pytest.raises(BatchMismatchError, match="running_supremum"):
            levy.coupled_supremum_fd(cp_model(), PERT, 0.1, MCPlan(240, rng.child(8), chunks=8))

    def test_corrupted_values_raise(self, rng, monkeypatch):
        original = PathBatch.values
        monkeypatch.setattr(PathBatch, "values",
                            lambda self, ts: original(self, ts) * (1.0 + 1e-9))
        with pytest.raises(BatchMismatchError, match="terminal_value"):
            levy.levy_derivative(terminal_value, cp_model(), PERT,
                                 MCPlan(240, rng.child(9), chunks=8))

    @pytest.mark.parametrize("method, estimate, name", [
        ("sup_over", lambda plan: levy.supremum_derivative(cp_model(0.5), PERT, plan),
         "sup_over"),
        ("sup_over", lambda plan: levy.coupled_supremum_fd(cp_model(), PERT, 0.1, plan),
         "running_supremum"),
        ("values", lambda plan: levy.levy_derivative(terminal_value, cp_model(), PERT, plan),
         "terminal_value"),
    ], ids=["supremum_derivative", "coupled_supremum_fd", "jump_draw"])
    def test_one_ulp_off_raises(self, rng, monkeypatch, method, estimate, name):
        # the check is bit for bit: a 1e-12 tolerance let a one-ulp gap pass
        original = getattr(PathBatch, method)
        monkeypatch.setattr(PathBatch, method,
                            lambda self, *args: np.nextafter(original(self, *args), np.inf))
        with pytest.raises(BatchMismatchError, match=name):
            estimate(MCPlan(240, rng.child(11), chunks=8))

    def test_corrupted_series_values_raise(self, rng, monkeypatch):
        # every series stratum checks its first paths, not only order one
        original = PathBatch.values
        monkeypatch.setattr(PathBatch, "values",
                            lambda self, ts: original(self, ts) * (1.0 + 1e-9))
        target = levy.perturbed_model(cp_model(), PERT, 0.5)
        with pytest.raises(BatchMismatchError, match="terminal_value"):
            levy.levy_series(terminal_value, cp_model(), target,
                             MCPlan(240, rng.child(10), chunks=8), n_max=3)
