"""Stratified ``rng.mc_mean``: one block pass over several (draw, K) strata,
and the series and Mecke estimators that run on it."""

import math

import numpy as np
import pytest
from test_path_batch import PERT, cp_model
from test_rng import chunks_of, n_blocks

import poissonpert as pp
from poissonpert import levy
from poissonpert import rng as rng_module
from poissonpert.rng import SPOT_CHECKS, MCPlan, RngStream, chunk_sizes, each, mc_mean
from poissonpert.series import mc_series, series_plan


def one(gen):
    u = gen.random()
    return u, float(gen.poisson(3.0 * u))


def two(gen):
    return float(gen.integers(10)), gen.standard_normal()


def mark(gen):
    return gen.standard_exponential(), -1.0


def marked(draw):
    """The chunk draw of ``draw`` whose checked replications are ``mark``s."""
    return lambda gen, n, check=False: each(mark if check else draw)(gen, n)


# three strata: more, fewer and far fewer replications than chunks
DRAWS = [one, two, one]
STRATA = [(each(one), 103), (each(two), 9), (each(one), 2)]


class TestStratifiedPass:
    def test_equals_hand_written_chunk_draws(self, rng, monkeypatch):
        plan = MCPlan(0, rng.child(1), chunks=7, workers=2)  # samples: unused by strata
        shares = [chunk_sizes(k, 7) for _, k in STRATA]
        assert shares == [chunk_sizes(103, 7), [2] * 2 + [1] * 5, [1, 1]]
        # 7 blocks at 16 rows a block (each chunk a block of its own), 1 at 1,024
        for block_rows, blocks in ((16, 7), (1024, 1)):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            res = mc_mean([(marked(d), k) for d, (_, k) in zip(DRAWS, STRATA)], plan, spot=4)
            assert [r.sizes for r in res] == shares
            rows = [[] for _ in STRATA]
            for b in range(blocks):
                gen = plan.stream.child(b).generator()
                for draw, out, (_, k) in zip(DRAWS, rows, STRATA):
                    sizes = chunk_sizes(k, blocks)
                    n = sizes[b] if b < len(sizes) else 0
                    lead = min(4, n) if b == 0 else 0
                    out += [mark(gen) for _ in range(lead)] + [draw(gen) for _ in range(n - lead)]
            for r, out in zip(res, rows):
                assert r.draws.flags.c_contiguous
                assert np.array_equal(r.draws, np.array(out).T)

    def test_one_stratum_is_the_plain_call(self, rng):
        plan = MCPlan(57, rng.child(2), chunks=6)
        plain = mc_mean(marked(one), plan, spot=3)
        (strat,) = mc_mean([(marked(one), 57)], plan, spot=3)
        assert strat.sizes == plain.sizes
        assert np.array_equal(strat.draws, plain.draws)
        assert strat.estimate(1) == plain.estimate(1)

    def test_each_stratum_keeps_its_own_estimator(self, rng):
        # a stratum's chunk means and stderr are those of a call of its own
        res = mc_mean(STRATA, MCPlan(0, rng.child(3), chunks=7))
        for (_, k), r in zip(STRATA, res):
            assert sum(r.sizes) == k and len(r.sizes) == min(7, k)
            means = [float(np.mean(c[0])) for c in chunks_of(r)]
            assert tuple(r.estimate(0)) == pp.rng.combine_batch_means(means, r.sizes)

    def test_chunk_evaluation_order_does_not_matter(self, rng, monkeypatch):
        # chunks run last to first still reduce in chunk order, as a pool may
        def backwards(fn, total, stream, chunks=32, workers=1):
            tasks = [(c, n, stream.child(c)) for c, n in enumerate(chunk_sizes(total, chunks))]
            done = {t[0]: fn(*t) for t in reversed(tasks)}
            return [done[c] for c in range(len(tasks))]

        lam, nu = pp.discrete({"a": 1.0, "b": 0.5}), pp.discrete({"a": 1.6, "b": 0.2})
        runs = {
            "series": lambda: pp.variational_series(
                pp.void_indicator(), lam, nu, n_max=8, mode="mc",
                mc=MCPlan(80, rng.child(4), chunks=5)),
            "mecke": lambda: tuple(pp.mecke_check(
                lambda x, phi: float(phi.total_points()), lam, window=None,
                plan=MCPlan(60, rng.child(5), chunks=4))),
            "strata": lambda: [tuple(r.estimate(1)) for r in
                               mc_mean(STRATA, MCPlan(0, rng.child(6), chunks=7))],
        }
        forward = {k: run() for k, run in runs.items()}
        monkeypatch.setattr(rng_module, "run_chunked", backwards)
        for k, run in runs.items():
            again = run()
            if k == "series":
                assert again.terms == forward[k].terms and again.stderrs == forward[k].stderrs
            else:
                assert again == forward[k]


def counted(monkeypatch):
    """Count generators built and ``run_chunked`` calls."""
    counts = {"generators": 0, "passes": 0}
    generator, run_chunked = RngStream.generator, rng_module.run_chunked

    def gen(self):
        counts["generators"] += 1
        return generator(self)

    def run(*args, **kwargs):
        counts["passes"] += 1
        return run_chunked(*args, **kwargs)

    monkeypatch.setattr(RngStream, "generator", gen)
    monkeypatch.setattr(rng_module, "run_chunked", run)
    return counts


class TestSeriesPass:
    # weights +0.5 and -0.25: the absolute mass 0.75 is exact in binary
    LAM = pp.discrete({"a": 1.0, "b": 0.5})
    NU = pp.discrete({"a": 1.5, "b": 0.25})

    @pytest.mark.parametrize("samples, chunks", [(60, 64), (100, 32), (7, 32)])
    def test_one_pass_builds_one_generator_per_chunk(self, rng, monkeypatch, samples, chunks):
        # one generator per block: one block at bench sizes, and one per
        # chunk where a block holds a single row
        for block_rows in (rng_module.BLOCK_ROWS, 1):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            counts = counted(monkeypatch)
            res = pp.variational_series(pp.void_indicator(), self.LAM, self.NU, n_max=12,
                                        mode="mc", mc=MCPlan(samples, rng.child(7), chunks=chunks))
            blocks = n_blocks(max(res.samples), chunks)
            assert counts == {"generators": blocks, "passes": 1}
            assert block_rows > 1 or blocks == min(chunks, max(res.samples))

    @pytest.mark.parametrize("samples, n_max", [(60, 12), (100, 8), (5, 3), (2_000, 30)])
    def test_samples_and_tail_follow_the_plan(self, rng, samples, n_max):
        res = pp.variational_series(pp.void_indicator(), self.LAM, self.NU, n_max=n_max,
                                    mode="mc", mc=MCPlan(samples, rng.child(8)))
        budgets, tail = series_plan(samples, 0.75, min(n_max, pp.DIFFERENCE_ORDER_CAP))
        assert res.samples[:len(budgets)] == budgets
        assert sum(res.samples[len(budgets):]) == tail
        assert res.tail_from == (len(budgets) if tail else None)

    def test_every_stratum_leads_with_a_check(self, rng):
        calls = []

        def draw(n, gen, k, check=False):
            calls.append((n, k, check))
            return np.ones((2, k))

        res = mc_series(draw, 1.5, 12, MCPlan(50, rng.child(11), chunks=8))
        checked = [(n, k) for n, k, check in calls if check]
        first = res.tail_from
        blocks = n_blocks(max(res.samples[:first] + [sum(res.samples[first:])]), 8)
        # orders 0..n*: the first SPOT_CHECKS of each block-0 share; the tail's
        # lead is the same count, split over the orders its draws picked
        assert checked[:first] == [(n, min(SPOT_CHECKS, chunk_sizes(k, blocks)[0]))
                                   for n, k in enumerate(res.samples[:first])]
        tail_lead = min(SPOT_CHECKS, chunk_sizes(sum(res.samples[first:]), blocks)[0])
        assert checked[first:] and all(n >= first for n, _ in checked[first:])
        assert sum(k for _, k in checked[first:]) == tail_lead

    def test_mecke_right_side_is_one_pass(self, rng, monkeypatch):
        m = pp.discrete({"a": 1.0, "b": 0.5, "c": 0.25})
        # 300 replications in 16 chunks: one block, or 16 at 16 rows a block
        for block_rows, blocks in ((rng_module.BLOCK_ROWS, 1), (16, 16)):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            counts = counted(monkeypatch)
            res = pp.mecke_check(lambda x, phi: float(phi.total_points()), m,
                                 window=None, plan=MCPlan(300, rng.child(9), chunks=16))
            # the left side and the right
            assert counts == {"generators": 2 * blocks, "passes": 2}
            # E sum_x N(Phi - delta_x) = E N(N - 1) = mu^2 = int E N(Phi) m(dx)
            assert abs(res.lhs - res.rhs) <= 4 * res.stderr and math.isfinite(res.rhs_stderr)


class TestLevySeriesPass:
    def test_one_pass_builds_one_generator_per_chunk(self, rng, monkeypatch):
        target = levy.perturbed_model(cp_model(), PERT, 0.5)
        for block_rows in (rng_module.BLOCK_ROWS, 1):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            counts = counted(monkeypatch)
            res = levy.levy_series(levy.terminal_value, cp_model(), target,
                                   MCPlan(100, rng.child(10), chunks=64), n_max=6)
            blocks = n_blocks(max(res.samples), 64)
            assert counts == {"generators": blocks, "passes": 1}
            assert block_rows > 1 or blocks == min(64, max(res.samples))
