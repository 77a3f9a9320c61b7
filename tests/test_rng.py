"""The chunk contract of ``rng.mc_mean``: one ``draw(gen, n)`` per chunk,
the per-replication adapter ``each``, the checked lead of ``spot``
replications, and the shape check."""

import numpy as np
import pytest

from poissonpert.rng import MCPlan, chunk_sizes, each, mc_mean


def one(gen):
    """A per-replication draw with two fields and a data-dependent number of
    generator calls."""
    u = gen.random()
    return u, float(gen.poisson(3.0 * u))


class TestChunkContract:
    def test_each_equals_a_hand_written_loop(self, rng):
        plan = MCPlan(103, rng.child(1), chunks=7, workers=2)
        res = mc_mean(each(one), plan)
        sizes = chunk_sizes(plan.samples, plan.chunks)
        assert res.sizes == sizes
        for c, (n, block) in enumerate(zip(sizes, res.chunks)):
            gen = plan.stream.child(c).generator()
            rows = [one(gen) for _ in range(n)]
            want = np.array([[r[0] for r in rows], [r[1] for r in rows]])
            assert block.shape == (2, n) and block.flags.c_contiguous
            assert np.array_equal(block, want)

    def test_one_draw_per_chunk(self, rng):
        calls = []

        def draw(gen, n):
            calls.append(n)
            return gen.random(n)[None]

        res = mc_mean(draw, MCPlan(50, rng.child(2), chunks=4))
        assert calls == chunk_sizes(50, 4) and res.sizes == calls

    @pytest.mark.parametrize("samples, k", [(40, 3), (40, 10), (40, 25)])
    def test_lead_runs_k_replications_on_chunk_zero(self, rng, samples, k):
        calls = []

        def draw(gen, n, check=False):
            calls.append(("lead" if check else "draw", n))
            return np.full((1, n), float(check))

        res = mc_mean(draw, MCPlan(samples, rng.child(3), chunks=4), spot=k)
        first = chunk_sizes(samples, 4)[0]
        lead_n = min(k, first)
        assert calls[0] == ("lead", lead_n)
        assert ("lead", lead_n) not in calls[1:]
        assert sum(n for tag, n in calls if tag == "draw") == samples - lead_n
        marks = res.values(0)
        assert marks[:lead_n].tolist() == [1.0] * lead_n and not marks[lead_n:].any()

    def test_lead_continues_the_chunk_generator(self, rng):
        # the lead and the rest of chunk 0 share one generator, as one loop would
        plan = MCPlan(30, rng.child(4), chunks=3)
        led = mc_mean(lambda gen, n, check=False: each(one)(gen, n), plan, spot=4)
        assert np.array_equal(led.chunks[0], mc_mean(each(one), plan).chunks[0])

    @pytest.mark.parametrize("bad", [
        lambda gen, n: gen.random(n),             # 1-D: fields missing
        lambda gen, n: gen.random((2, n + 1)),    # one replication too many
        lambda gen, n: gen.random((n, 2)).T[:, :-1],
        lambda gen, n: gen.random((1, 1, n)),
    ])
    def test_wrong_shape_raises(self, rng, bad):
        with pytest.raises(ValueError, match="chunk draw"):
            mc_mean(bad, MCPlan(20, rng.child(5), chunks=2))
