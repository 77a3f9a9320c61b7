"""The block contract of ``rng.mc_mean``: one ``draw(gen, n)`` per block,
the batch-means chunks cut from the blocks' rows (against a hand-written
per-replication loop), the checked lead of ``spot`` replications, the shape
check, and which thread runs each block; the ``chunk_sizes`` layout, and
``ChunkedDraws``' batch means against per-chunk ``np.mean`` bit for bit."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonpert import rng as rng_module
from poissonpert.rng import (ChunkedDraws, MCPlan, RngStream, chunk_sizes, combine_batch_means,
                             mc_mean)

SWITCH = sys.getswitchinterval()


def each(draw):
    """The block draw that runs the per-replication ``draw(gen)`` n times in
    a row on the block's generator and stacks the fields."""
    def block_draw(gen, n):
        rows = [draw(gen) for _ in range(n)]
        return np.array(rows, dtype=float).reshape(n, -1).T
    return block_draw


def n_blocks(total, chunks):
    """B of ``mc_mean``: min(C, ceil(K / BLOCK_ROWS)), C = min(chunks, K)."""
    return min(chunks, total, -(-total // rng_module.BLOCK_ROWS))


def chunks_of(res):
    """The batch-means chunks of a ``ChunkedDraws``, as ``(fields, n)`` slices."""
    return np.split(res.draws, np.cumsum(res.sizes[:-1]), axis=1)


class TestKeyedGenerator:
    @pytest.mark.parametrize("seed, stream", [
        (0, 0), (20240811, 15), (7, 2**63 + 5), (-1, 2**64 - 1),
        (20240811, RngStream(20240811).child(3).stream)])
    def test_stream_is_the_keyed_philox(self, seed, stream):
        got = RngStream(seed, stream).generator()
        # the key as a uint64 array: numpy converts a plain list holding a
        # word >= 2^63 through float64 and loses its low bits
        key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        masses = np.array([0.05, 1.3, 40.0])
        assert np.array_equal(got.random(17), want.random(17))
        assert np.array_equal(got.poisson(masses, size=(9, 3)), want.poisson(masses, size=(9, 3)))
        assert np.array_equal(got.normal(0.5, 2.0, 13), want.normal(0.5, 2.0, 13))
        assert np.array_equal(got.random(3), want.random(3))

    def test_every_call_is_a_fresh_generator(self):
        stream = RngStream(3, 4)
        a, b = stream.generator(), stream.generator()
        assert a is not b and np.array_equal(a.random(5), b.random(5))


def one(gen):
    """A per-replication draw with two fields and a data-dependent number of
    generator calls."""
    u = gen.random()
    return u, float(gen.poisson(3.0 * u))


class TestChunkContract:
    def test_each_equals_a_hand_written_loop(self, rng, monkeypatch):
        # 103 replications in 7 chunks, drawn in 7 blocks at 16 rows a block
        # (every chunk a block of its own), in 3 at 40 rows and in 1 at 1,024
        plan = MCPlan(103, rng.child(1), chunks=7, workers=2)
        sizes = chunk_sizes(plan.samples, plan.chunks)
        for block_rows, blocks in ((16, 7), (40, 3), (1024, 1)):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            res = mc_mean(each(one), plan)
            rows = []
            for b, n in enumerate(chunk_sizes(plan.samples, blocks)):
                gen = plan.stream.child(b).generator()
                rows += [one(gen) for _ in range(n)]
            want = np.array(rows).T
            assert res.sizes == sizes
            assert res.draws.shape == (2, 103) and res.draws.flags.c_contiguous
            assert np.array_equal(res.draws, want)
            if blocks == len(sizes):  # chunk c: a loop on child stream c
                for c, (n, chunk) in enumerate(zip(sizes, chunks_of(res))):
                    gen = plan.stream.child(c).generator()
                    assert np.array_equal(chunk, np.array([one(gen) for _ in range(n)]).T)
            # batch means over consecutive groups of the rows
            for field in (0, 1):
                means = [float(np.mean(part))
                         for part in np.split(want[field], np.cumsum(sizes[:-1]))]
                assert tuple(res.estimate(field)) == combine_batch_means(means, sizes)

    @pytest.mark.parametrize("workers, pause", [
        (1, 0.0),
        (2, 0.0),      # blocks far under a switch interval: all on the calling thread
        (2, SWITCH),   # block 1 takes a switch interval: blocks 2.. on pool threads
        (64, SWITCH),  # ... on no more threads than CPUs
    ], ids=["one-worker", "short-chunks", "long-chunks", "long-chunks-64-workers"])
    def test_one_draw_per_chunk(self, rng, monkeypatch, workers, pause):
        # at 4 rows a block, 50 replications in 8 chunks are 8 blocks: one
        # draw per chunk, each on its own generator
        monkeypatch.setattr(rng_module, "BLOCK_ROWS", 4)
        calls = []

        def draw(gen, n):
            time.sleep(pause)
            calls.append((n, threading.get_ident()))
            return gen.random(n)[None]

        plan = MCPlan(50, rng.child(2), chunks=8, workers=workers)
        res = mc_mean(draw, plan)
        sizes = chunk_sizes(50, 8)
        here = threading.get_ident()
        assert res.sizes == sizes and calls[:2] == [(n, here) for n in sizes[:2]]
        threads = min(workers, os.cpu_count() or 1)
        if pause and threads > 1:
            pool = {t for _, t in calls[2:]}
            assert here not in pool and len(pool) <= threads
            assert sorted(n for n, _ in calls[2:]) == sorted(sizes[2:])
        else:
            assert calls == [(n, here) for n in sizes]
        serial = mc_mean(lambda gen, n: gen.random(n)[None], MCPlan(50, rng.child(2), chunks=8))
        assert np.array_equal(res.draws, serial.draws)

    @pytest.mark.parametrize("samples, k", [(40, 3), (40, 10), (40, 25)])
    def test_lead_runs_k_replications_on_chunk_zero(self, rng, monkeypatch, samples, k):
        # the lead is the first min(k, n) replications of block 0, n its size:
        # all 40 in one block, or 10 when each of the 4 chunks is a block
        for block_rows in (1024, 10):
            monkeypatch.setattr(rng_module, "BLOCK_ROWS", block_rows)
            calls = []

            def draw(gen, n, check=False):
                calls.append(("lead" if check else "draw", n))
                return np.full((1, n), float(check))

            res = mc_mean(draw, MCPlan(samples, rng.child(3), chunks=4), spot=k)
            first = chunk_sizes(samples, n_blocks(samples, 4))[0]
            lead_n = min(k, first)
            assert calls[0] == ("lead", lead_n)
            assert ("lead", lead_n) not in calls[1:]
            assert sum(n for tag, n in calls if tag == "draw") == samples - lead_n
            marks = res.values(0)
            assert marks[:lead_n].tolist() == [1.0] * lead_n and not marks[lead_n:].any()

    def test_lead_continues_the_chunk_generator(self, rng):
        # the lead and the rest of block 0 share one generator, as one loop would
        plan = MCPlan(30, rng.child(4), chunks=3)
        led = mc_mean(lambda gen, n, check=False: each(one)(gen, n), plan, spot=4)
        assert np.array_equal(led.draws, mc_mean(each(one), plan).draws)

    @pytest.mark.parametrize("bad", [
        lambda gen, n: gen.random(n),             # 1-D: fields missing
        lambda gen, n: gen.random((2, n + 1)),    # one replication too many
        lambda gen, n: gen.random((n, 2)).T[:, :-1],
        lambda gen, n: gen.random((1, 1, n)),
    ])
    def test_wrong_shape_raises(self, rng, bad):
        with pytest.raises(ValueError, match="block draw"):
            mc_mean(bad, MCPlan(20, rng.child(5), chunks=2))


@given(total=st.integers(1, 5000), chunks=st.integers(1, 100))
def test_chunk_sizes_layout(total, chunks):
    # non-increasing and within one of each other: the longer chunks first
    sizes = chunk_sizes(total, chunks)
    assert sum(sizes) == total and len(sizes) == min(chunks, total)
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


def wide(gen, shape):
    """Signed values whose magnitudes span 1e-100 to 1e100."""
    return gen.choice([-1.0, 1.0], shape) * 10.0 ** gen.uniform(-100, 100, shape)


VALUES = {"normal": lambda gen, shape: gen.normal(0.3, 2.0, shape),
          "binary": lambda gen, shape: (gen.random(shape) < 0.3).astype(float),
          "wide": wide}


@settings(max_examples=200)
@given(total=st.integers(1, 5000), chunks=st.integers(1, 70), fields=st.integers(1, 3),
       kind=st.sampled_from(sorted(VALUES)), seed=st.integers(0, 2**32 - 1))
@example(total=5, chunks=64, fields=2, kind="normal", seed=1)       # K < C
@example(total=64, chunks=64, fields=1, kind="wide", seed=2)        # K = C
@example(total=4096, chunks=64, fields=3, kind="binary", seed=3)    # no long chunks
@example(total=4999, chunks=70, fields=3, kind="wide", seed=4)
def test_estimate_is_batch_means_over_per_chunk_means(total, chunks, fields, kind, seed):
    # bit for bit: every chunk mean is np.mean over the chunk's own slice
    draws = VALUES[kind](np.random.default_rng(seed), (fields, total))
    sizes = chunk_sizes(total, chunks)
    res = ChunkedDraws(chunks, draws)
    assert res.sizes == sizes
    for f in range(fields):
        means = [float(np.mean(p)) for p in np.split(draws[f], np.cumsum(sizes[:-1]))]
        assert tuple(res.estimate(f)) == combine_batch_means(means, sizes)


@pytest.mark.parametrize("chunks, draws, match", [
    (2, np.zeros(7), r"\(fields, n\) array"),
], ids=["1-d"])
def test_chunked_draws_rejects_sizes_that_do_not_match(chunks, draws, match):
    # the chunk sizes are computed from the draws, so only their shape can be wrong
    with pytest.raises(ValueError, match=match):
        ChunkedDraws(chunks, draws)
