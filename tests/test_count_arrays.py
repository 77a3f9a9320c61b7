"""Discrete Monte Carlo on count arrays.

The chunk difference kernel against the per-configuration subset sum, its
slicing, and the discrete estimators' independence from the
per-replication routes (``sample_poisson``, ``difference_n``), with and
without count forms.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_exact_arrays import ATOMS, builtins, likelihood_weighted, masses
from test_sampler import ESTIMATORS

import poissonpert as pp
from poissonpert import configuration
from poissonpert.configuration import (CountFormMismatchError, PointConfiguration,
                                       difference_counts, difference_n)

LEVY = {"supremum_derivative", "coupled_supremum_fd", "levy_derivative", "levy_series"}
DISCRETE = sorted(set(ESTIMATORS) - LEVY)
ROWS = 5


@st.composite
def chunks(draw):
    """A 1-4 atom base measure, a functional on its atoms plus one atom off
    the measure, a chunk of count rows and picks of order 0-5."""
    n = draw(st.integers(1, 4))
    axes = (ATOMS + ["e"])[: n + 1]  # the last axis carries no mass: picks may land off the base
    m = pp.discrete({a: draw(masses) for a in axes[:n]})
    f = draw(st.one_of(builtins(axes), likelihood_weighted(axes)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.pad(pp.sample_counts(m, size=ROWS, generator=gen), ((0, 0), (0, 1)))
    picks = gen.integers(n + 1, size=(ROWS, draw(st.integers(0, 5))))
    return f, axes, counts, picks


class TestChunkKernel:
    @given(chunk=chunks())
    def test_equals_difference_n_on_every_replication(self, chunk):
        f, axes, counts, picks = chunk
        got = difference_counts(f, counts, axes, picks, check=True)
        for r in range(ROWS):
            phi = PointConfiguration.from_counts(axes, counts[r].tolist())
            want = difference_n(f, phi, [axes[j] for j in picks[r]])
            assert math.isclose(got[r], want, rel_tol=1e-12, abs_tol=1e-300)

    @given(chunk=chunks())
    def test_slices_do_not_change_the_values(self, chunk):
        f, axes, counts, picks = chunk
        whole = difference_counts(f, counts, axes, picks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(configuration, "NODE_SLICE", 4)  # subset blocks from order 3 on
            sliced = difference_counts(f, counts, axes, picks)
        np.testing.assert_allclose(sliced, whole, rtol=1e-12, atol=1e-300)

    def test_fallback_without_count_form_matches(self):
        f = pp.count_squared()
        counts = np.array([[0, 2], [3, 1], [1, 0]])
        picks = np.array([[0, 1, 1], [1, 1, 0], [0, 0, 0]])
        fast = difference_counts(f, counts, ["a", "b"], picks)
        slow = difference_counts(dataclasses.replace(f, counts=None), counts, ["a", "b"], picks)
        assert fast.tobytes() == slow.tobytes()


def _forbid_per_replication_routes(mp):
    """Make every package binding of sample_poisson and difference_n raise."""
    for name, home in (("sample_poisson", "sampler"), ("difference_n", "configuration")):
        original = getattr(sys.modules[f"poissonpert.{home}"], name)

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called by a discrete Monte Carlo estimator")

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "poissonpert" or mod_name.startswith("poissonpert.")) and \
                    getattr(mod, name, None) is original:
                mp.setattr(mod, name, forbidden)


def _flat(result):
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _flat(item)]
    return [float(result)]


class TestNoPerReplicationRoutes:
    @pytest.mark.parametrize("name", DISCRETE)
    def test_count_forms_and_fallback(self, rng, monkeypatch, name):
        plan = pp.MCPlan(240, rng.child(40), chunks=8)
        _forbid_per_replication_routes(monkeypatch)
        fast = ESTIMATORS[name](plan)
        for factory in ("void_indicator", "count_squared", "threshold_indicator"):
            built = getattr(pp, factory)
            monkeypatch.setattr(pp, factory, lambda *a, _b=built, **k: dataclasses.replace(
                _b(*a, **k), counts=None))
        slow = ESTIMATORS[name](plan)
        assert all(math.isfinite(x) for x in _flat(slow))
        assert fast == slow  # same draws, same values: fn and the count form agree


class TestChunkSpotCheck:
    def test_empty_configuration_is_checked_when_no_draw_is_empty(self):
        # at mass 40 no replication is empty: only the explicit check of the
        # empty configuration sees a count form that is stale there alone
        f = dataclasses.replace(pp.void_indicator(name="stale_void"),
                                fn=lambda phi: 0.5 if phi.total_points() == 0 else 0.0)
        m = pp.discrete({"a": 40.0})
        with pytest.raises(CountFormMismatchError, match="stale_void"):
            pp.mc_expectation(f, m, plan=pp.MCPlan(200, pp.RngStream(0)))
        with pytest.raises(CountFormMismatchError, match="stale_void"):
            pp.variational_series(f, m, pp.discrete({"a": 41.0}), n_max=2, mode="mc",
                                  mc=pp.MCPlan(200, pp.RngStream(0)))

    def test_every_series_stratum_is_checked(self):
        # the count form doubles fn: right on the empty configuration only,
        # so an unchecked series returns 2.9 for the true E_nu N = 1.5
        f = pp.Functional(lambda phi: float(phi.total_points()), name="stale_count",
                          counts=lambda cs, atoms: 2.0 * sum(cs))
        lam, nu = pp.discrete({"a": 1.0}), pp.discrete({"a": 1.5})
        with pytest.raises(CountFormMismatchError, match="stale_count"):
            pp.gateaux_derivative(f, lam, {"a": 0.5})
        with pytest.raises(CountFormMismatchError, match="stale_count"):
            pp.variational_series(f, lam, nu, n_max=4, mode="mc",
                                  mc=pp.MCPlan(200, pp.RngStream(0)))

    def test_first_replications_are_checked(self):
        # right on the empty configuration, stale on every other one
        f = dataclasses.replace(pp.void_indicator(name="stale_void"),
                                fn=lambda phi: 1.0 if phi.total_points() == 0 else -1.0)
        with pytest.raises(CountFormMismatchError, match="stale_void"):
            pp.mc_expectation(f, pp.discrete({"a": 1.0}), plan=pp.MCPlan(200, pp.RngStream(0)))
