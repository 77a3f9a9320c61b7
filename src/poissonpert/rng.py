"""Counter-based random streams and deterministic chunked Monte Carlo.

Streams are keyed Philox generators: a (seed, stream) pair fully determines
the draw sequence, and distinct stream ids give statistically independent
generators.  Estimators never share a stream between chunks; each chunk owns
a child stream and chunk results are reduced in chunk order, so the output
is byte-identical for any worker count.

Every Monte Carlo estimator in the package is one call of ``mc_mean``.  Its
contract: the estimator supplies ``draw(gen)``, which returns the values of
one replication (a float or a tuple of floats, the fields) drawn from
``gen``.  ``mc_mean`` splits the plan's budget into chunks, builds each
chunk's generator from its own child stream, calls ``draw`` once per
replication on that generator, and reduces every field to its pooled mean
and batch-means standard error over the chunk means, taken in chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


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
        return np.random.Generator(np.random.Philox(key=key))

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
    is what makes downstream reductions worker-count independent.
    """
    sizes = chunk_sizes(total, chunks)
    tasks = [(c, n, stream.child(c)) for c, n in enumerate(sizes)]
    if workers <= 1 or len(tasks) == 1:
        return [fn(*t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


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


def mc_mean(draw: Callable[[np.random.Generator], object], plan: MCPlan,
            lead: tuple[Callable[[np.random.Generator], object], int] | None = None
            ) -> ChunkedDraws:
    """Run ``draw(gen)`` once per replication of ``plan`` on its chunk's generator.

    ``lead = (draw_0, k)`` replaces the draw by ``draw_0`` for the first k
    replications of chunk 0 (spot checks that should run once per estimate).
    """
    def chunk(index: int, n: int, stream: RngStream) -> np.ndarray:
        gen = stream.generator()
        k = min(lead[1], n) if lead is not None and index == 0 else 0
        rows = [lead[0](gen) for _ in range(k)] + [draw(gen) for _ in range(n - k)]
        return np.ascontiguousarray(np.array(rows, dtype=float).reshape(n, -1).T)

    chunks = run_chunked(chunk, plan.samples, plan.stream, plan.chunks, plan.workers)
    return ChunkedDraws([c.shape[1] for c in chunks], chunks)
