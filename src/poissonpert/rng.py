"""Counter-based random streams and deterministic chunked Monte Carlo.

Streams are keyed Philox generators: a (seed, stream) pair fully determines
the draw sequence, and distinct stream ids give statistically independent
generators.  Estimators never share a stream between chunks; each chunk owns
a child stream and chunk results are reduced in chunk order, so the output
is byte-identical for any worker count.

A stream's generator is Philox with the 128-bit key [seed, stream] (two
uint64 words) and counter 0, the counter-based generator of Salmon et al.
(2011).  ``Philox(key=...)`` would also seed a ``SeedSequence`` from OS
entropy that it never uses, which costs more than the rest of the
construction.  So the key is passed as the seed sequence itself (see
``_key_sequence``), which answers Philox's one request, 2 uint64 words,
with the key and raises on any other: the state is exactly that of
``Philox(key=...)`` given the same uint64 key array, and a numpy that asked
differently would fail loudly instead of changing the stream.

Threads pay only for long chunks.  A chunk is a short run of numpy calls
that hold the GIL between them, and on Python 3.11 a thread that released
the GIL inside numpy waits up to one ``sys.getswitchinterval()`` (5 ms) to
take it back while another thread runs Python.  So ``run_chunked`` runs
chunks 0 and 1 in the calling thread, times chunk 1 (chunk 0 carries the
spot checks), and hands the rest to at most min(workers, CPUs) pool threads
only when chunk 1 took at least one switch interval; shorter chunks all run
inline.  ``workers`` is an upper bound on threads, never a promise.

Every Monte Carlo estimator in the package is one call of ``mc_mean``.  Its
contract: the estimator supplies a chunk draw ``draw(gen, n)``, which draws n
replications from ``gen`` and returns their values as one ``(fields, n)``
array (row j holds field j of every replication, in replication order), or
strata ``(draw_s, K_s)`` of one estimand (a series' orders, Mecke's atoms).
``mc_mean`` splits the budget into chunks, builds each chunk's generator
from its own child stream, calls every draw once per chunk on that
generator, and reduces every field of every stratum to its pooled mean and
batch-means standard error over the chunk means, taken in chunk order.
With ``spot = k`` the first min(k, n) replications of chunk 0 of every
stratum are drawn first, as ``draw(gen, k, True)`` on the same generator:
the draw cross-checks its fast evaluation on them (f's count form, the path
batch against ``CadlagPath``), once per estimate whatever the plan.
Discrete draws are one Poisson count array per chunk, Levy draws one path
batch.  ``each`` remains only for draws that are truly one replication at a
time (box-density configurations): it loops a per-replication draw
``draw(gen) -> float | tuple`` n times on the chunk's generator, like a
hand-written loop.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

# the checked lead: replications of chunk 0 that ``mc_mean(..., spot=SPOT_CHECKS)``
# draws as ``draw(gen, k, True)``, and the count nodes of a checked chunk
# compared against ``fn``
SPOT_CHECKS = 8
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@cache
def _key_sequence() -> type:
    """The seed sequence of a keyed Philox, which hands over its 2-word uint64
    key as is.  The class is made on first use: ``numpy.random`` is not
    imported until then, so importing the package stays as cheap as before."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is 2 uint64 words, "
                                 f"not {n_words} of {np.dtype(dtype)}")
            return self.words

    return Key


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream id).

    ``generator()`` always restarts the stream from its origin; a stream is
    meant to be handed to exactly one consumer.  Derive further independent
    streams with ``child``.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_key_sequence()(key)))

    def child(self, index: int) -> "RngStream":
        """Independent sub-stream ``index`` (collisions are ~2^-64 events)."""
        if index < 0:
            raise ValueError("stream index must be nonnegative")
        mixed = _splitmix64((_splitmix64(self.stream) + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)


def chunk_sizes(total: int, chunks: int) -> list[int]:
    """Split ``total`` into ``chunks`` near-equal deterministic pieces."""
    if total <= 0 or chunks <= 0:
        raise ValueError("total and chunks must be positive")
    chunks = min(chunks, total)
    base, rem = divmod(total, chunks)
    return [base + (1 if c < rem else 0) for c in range(chunks)]


@dataclass(frozen=True)
class MCPlan:
    """Sample budget plus the stream that owns it."""

    samples: int
    stream: RngStream
    chunks: int = 32
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def split(self, index: int) -> "MCPlan":
        return MCPlan(self.samples, self.stream.child(index), self.chunks, self.workers)


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    stderr: float

    def __iter__(self):
        yield self.estimate
        yield self.stderr


def run_chunked(
    fn: Callable[[int, int, RngStream], object],
    total: int,
    stream: RngStream,
    chunks: int = 32,
    workers: int = 1,
) -> list:
    """Run ``fn(chunk_index, n_chunk, chunk_stream)`` over deterministic chunks.

    Results come back ordered by chunk index regardless of scheduling, which
    is what makes downstream reductions worker-count independent.  Chunks 0
    and 1 run in the calling thread, in order.  The rest go to a pool of
    min(workers, os.cpu_count()) threads only if that is more than one and
    chunk 1 took at least ``sys.getswitchinterval()`` seconds: a shorter
    chunk loses more to waiting for the GIL than a second thread gains, so
    the rest then run inline as well.
    """
    sizes = chunk_sizes(total, chunks)
    tasks = [(c, n, stream.child(c)) for c, n in enumerate(sizes)]
    out = [fn(*tasks[0])]
    start = time.perf_counter()
    out += [fn(*t) for t in tasks[1:2]]
    long_chunks = (workers > 1 and len(tasks) > 2
                   and time.perf_counter() - start >= sys.getswitchinterval())
    threads = min(workers, os.cpu_count() or 1) if long_chunks else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(fn, *t) for t in tasks[2:]]
            return out + [f.result() for f in futures]
    return out + [fn(*t) for t in tasks[2:]]


def combine_batch_means(means: Sequence[float], sizes: Sequence[int]) -> tuple[float, float]:
    """Pooled mean and batch-means standard error from per-chunk means.

    The chunk means are treated as (nearly) exchangeable batches; no
    independence is assumed for summands inside a single replication.
    """
    if len(means) != len(sizes) or not means:
        raise ValueError("means and sizes must be equally sized and nonempty")
    n_total = float(sum(sizes))
    weights = [s / n_total for s in sizes]
    mean = math.fsum(w * m for w, m in zip(weights, means))
    c = len(means)
    if c == 1:
        return mean, float("inf")
    var_between = math.fsum(w * (m - mean) ** 2 for w, m in zip(weights, means))
    se = math.sqrt(var_between / (c - 1))
    return mean, se


@dataclass(frozen=True)
class ChunkedDraws:
    """Every replication's fields, one ``(fields, n)`` array per chunk."""

    sizes: list[int]
    chunks: list[np.ndarray]

    def estimate(self, field: int = 0) -> EstimateResult:
        """Pooled mean and batch-means standard error of one field.

        Each chunk mean is ``np.mean`` over a contiguous 1-D row, the same
        summation order as a per-chunk accumulator array.
        """
        means = [float(np.mean(c[field])) for c in self.chunks]
        return EstimateResult(*combine_batch_means(means, self.sizes))

    def values(self, field: int) -> np.ndarray:
        """One field of every replication, in chunk order."""
        return np.concatenate([c[field] for c in self.chunks])


def each(draw: Callable[[np.random.Generator], object]
         ) -> Callable[[np.random.Generator, int], np.ndarray]:
    """The chunk draw that runs the per-replication ``draw(gen)`` n times in a
    row on the chunk's generator and stacks the fields."""
    def chunk_draw(gen: np.random.Generator, n: int) -> np.ndarray:
        rows = [draw(gen) for _ in range(n)]
        return np.array(rows, dtype=float).reshape(n, -1).T
    return chunk_draw


def _block(draw: Callable, gen: np.random.Generator, n: int, *check) -> np.ndarray:
    out = np.asarray(draw(gen, n, *check), dtype=float)
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"a chunk draw of {n} replications returned shape {out.shape}, "
                         f"not (fields, {n})")
    return out


def mc_mean(draw: Callable | Sequence[tuple[Callable, int]], plan: MCPlan,
            spot: int = 0) -> ChunkedDraws | list[ChunkedDraws]:
    """Run the chunk draw ``draw(gen, n)`` once per chunk of ``plan``.

    The first k = min(spot, n) replications of chunk 0 are drawn as
    ``draw(gen, k, True)``, the checked lead; the rest of that chunk follows
    as ``draw(gen, n - k)`` on the same generator.  A draw that does not
    return a ``(fields, n)`` array raises ``ValueError``.

    Strata ``[(draw_s, K_s), ...]`` in place of ``draw`` run in one pass over
    C = min(plan.chunks, max K_s) chunks: chunk c draws ``chunk_sizes(K_s,
    C)[c]`` replications of every stratum s (none once c >= K_s) in stratum
    order on its generator, each stratum with its own checked lead in chunk
    0.  Each stratum gets its own ``ChunkedDraws``, as from a call of its own.
    """
    single = callable(draw)
    strata = [(draw, plan.samples)] if single else draw
    total = max(k for _, k in strata)
    shares = [chunk_sizes(k, min(plan.chunks, total)) for _, k in strata]

    def chunk(index: int, _: int, stream: RngStream) -> list:
        gen = stream.generator()
        out = []
        for (fn, _), sizes in zip(strata, shares):
            n = sizes[index] if index < len(sizes) else 0
            k = min(spot, n) if index == 0 else 0
            blocks = ([_block(fn, gen, k, True)] if k else []) + (
                [_block(fn, gen, n - k)] if n > k else [])
            out.append(np.ascontiguousarray(np.concatenate(blocks, axis=1)) if n else None)
        return out

    chunks = run_chunked(chunk, total, plan.stream, plan.chunks, plan.workers)
    results = [ChunkedDraws(sizes, [c[s] for c in chunks[:len(sizes)]])
               for s, sizes in enumerate(shares)]
    return results[0] if single else results
