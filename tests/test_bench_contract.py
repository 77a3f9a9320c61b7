"""The names and signatures that ``bench/tracing.py`` wraps.

The tracer patches public functions and methods by name; a rename in the
package would make ``bench/run.py --trace 1`` fail at install time.  This
reads the tracer's tables and checks that every name still resolves.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from poissonpert import count_squared, discrete, exact, levy, rng

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_resolve(tracing):
    for span, attr in tracing.FUNCTIONS:
        home = importlib.import_module(f"poissonpert.{span.split('.')[0]}")
        assert callable(getattr(home, attr)), span


def test_wrapped_methods_resolve(tracing):
    for span, owner, method in tracing.METHODS:
        module, cls = owner.split(".")
        assert callable(getattr(getattr(importlib.import_module(f"poissonpert.{module}"),
                                        cls), method)), span


def test_direction_builders_resolve(tracing):
    levy = importlib.import_module("poissonpert.levy")
    for builder in tracing.DIRECTION_BUILDERS:
        assert callable(getattr(levy, builder)), builder


def test_derivatives_call_the_direction_g_field(tracing):
    # the tracer counts levy.direction_g by replacing a built direction's g;
    # a derivative that read a g the builder closed over would count nothing
    cp = levy.CompoundPoissonJumps({1.0: 1.0, -0.5: 0.5})
    st = levy.StableJumps(0.5, 1.0, 1.0)
    args = {"cp_direction": (cp, {1.0: 0.5, -0.5: -1.0}),
            "gamma_scale_direction": (2.0, 1.0, st),
            "gamma_shape_direction": (1.0, st),
            "stable_direction": (0.2, 1.0, 1.0, st)}
    for builder in tracing.DIRECTION_BUILDERS:
        d = getattr(levy, builder)(*args[builder])
        calls = []
        counted = dataclasses.replace(d, g=lambda x, g=d.g: calls.append(1) or g(x))
        ref = cp if builder == "cp_direction" else st
        model = levy.LevyModel(jumps=ref, drift_form="plain", eps=0.1)
        levy.levy_derivative(levy.terminal_value, model, levy.JumpPerturbation(counted),
                             rng.MCPlan(50, rng.RngStream(3)))
        assert calls, builder


def test_run_chunked_keeps_its_signature():
    # the tracer's replacement is run_chunked(fn, total, stream, chunks=32, workers=1)
    params = inspect.signature(rng.run_chunked).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("fn", inspect.Parameter.empty), ("total", inspect.Parameter.empty),
        ("stream", inspect.Parameter.empty), ("chunks", 32), ("workers", 1)]
    seen = []
    out = rng.run_chunked(lambda c, n, s: seen.append((c, n, s)) or c, 10,
                          rng.RngStream(3), chunks=4)
    stream = rng.RngStream(3)
    assert out == [0, 1, 2, 3]
    assert seen == [(c, n, stream.child(c)) for c, n in enumerate(rng.chunk_sizes(10, 4))]


def test_lattice_entry_points_keep_their_leading_parameters(tracing):
    # the tracer wraps expectation_table as wrapper(f, m, xs, *args, **kwargs)
    # and reads len(xs); exact_expectation is traced with any arguments
    for fn, leading in [(exact.expectation_table, ["f", "m", "shift_atoms", "n_max"]),
                        (exact.exact_expectation, ["f", "m"])]:
        params = list(inspect.signature(fn).parameters.values())[:len(leading)]
        assert [p.name for p in params] == leading
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params)
    f, m = count_squared(), discrete({"a": 0.5, "b": 0.7})
    wrapped = tracing.Tracer()._expectation_table("exact.expectation_table",
                                                  exact.expectation_table)
    assert (wrapped(f, m, ["a"], 2, [m]).tobytes()
            == exact.expectation_table(f, m, ["a"], 2, [m]).tobytes())


def test_tracer_installs_and_counts_one_generator_per_chunk(tracing, monkeypatch):
    import poissonpert as pp
    # one row a block: every chunk is a block, with a generator of its own
    monkeypatch.setattr(rng, "BLOCK_ROWS", 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = pp.variational_series(pp.void_indicator(), pp.discrete({"a": 1.0}),
                                    pp.discrete({"a": 1.5}), n_max=6, mode="mc",
                                    mc=pp.MCPlan(60, pp.RngStream(1), chunks=16))
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["rng.generators_built"] == min(16, max(res.samples))
    assert metrics["rng.run_chunked.calls"] == 1
    assert pp.rng.run_chunked is rng.run_chunked and not hasattr(rng.run_chunked,
                                                                 "__wrapped__")


def test_result_attributes_the_benchmark_reads():
    # bench/session.py runs each operation's check outside its try, so a
    # result attribute that went missing would end the whole bench session
    import poissonpert as pp

    def numbers(obj, names):
        for name in names:
            value = getattr(obj, name)
            assert all(isinstance(v, (int, float)) for v in
                       (value if isinstance(value, (list, tuple)) else [value])), name

    lam, nu = pp.discrete({"a": 1.0, "b": 0.5}), pp.discrete({"a": 1.5, "b": 0.4})
    f = pp.void_indicator()
    for kwargs in ({}, {"mode": "mc", "mc": pp.MCPlan(200, pp.RngStream(5), chunks=8)}):
        res = pp.variational_series(f, lam, nu, n_max=6, **kwargs)
        numbers(res, ["value", "terms", "abs_terms", "truncation_order"])
        assert isinstance(res.converged, bool)
        assert kwargs == {} or len(res.stderrs) == res.truncation_order + 1
    numbers(pp.fock_identity_check(pp.count_squared(), pp.threshold_indicator(1), lam, 6),
            ["lhs", "gap"])
    for row in pp.frechet_remainder_check(f, lam, [{"a": 0.1, "b": -0.2}]):
        numbers(row, ["remainder", "bound"])
    mecke = pp.mecke_check(lambda x, phi: float(phi.count_in(None)), lam, None,
                           pp.MCPlan(200, pp.RngStream(6), chunks=8))
    numbers(mecke, ["lhs", "rhs", "lhs_stderr", "rhs_stderr"])
    cp = levy.CompoundPoissonJumps({1.0: 1.0, -0.5: 0.5})
    model = levy.LevyModel(jumps=cp, drift=0.3, drift_form="plain", eps=0.0)
    pert = levy.JumpPerturbation(levy.cp_direction(cp, {1.0: 0.5, -0.5: -1.0}))
    sup = levy.supremum_derivative(model, pert, rng.MCPlan(200, rng.RngStream(7), chunks=8))
    numbers(sup, ["estimate", "stderr", "kernel_max_err", "bound_violations"])
