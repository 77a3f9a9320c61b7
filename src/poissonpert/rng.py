"""Counter-based random streams and deterministic blocked Monte Carlo.

Streams are keyed Philox generators: a (seed, stream) pair fully determines
the draw sequence, and distinct stream ids give statistically independent
generators.  A stream's generator is ``Philox(key=[seed, stream])`` (two
uint64 words, counter 0), the counter-based generator of Salmon et al.
(2011).  Estimators never share a stream between blocks; each block owns a
child stream and block results are joined in block order, so the output is
byte-identical for any worker count.

Threads pay only for long blocks.  A block is a short run of numpy calls
that hold the GIL between them, and on Python 3.11 a thread that released
the GIL inside numpy waits up to one ``sys.getswitchinterval()`` (5 ms) to
take it back while another thread runs Python.  So ``run_chunked`` runs
blocks 0 and 1 in the calling thread, times block 1 (block 0 carries the
spot checks), and hands the rest to at most min(workers, CPUs) pool threads
only when block 1 took at least one switch interval; shorter blocks all run
inline.  ``workers`` is an upper bound on threads, never a promise.

Every Monte Carlo estimator in the package is one call of ``mc_mean``.  Its
contract: the estimator supplies a block draw ``draw(gen, n)``, which draws n
replications from ``gen`` and returns their values as one ``(fields, n)``
array (row j holds field j of every replication, in replication order), or
strata ``(draw_s, K_s)`` of one estimand (a series' orders, Mecke's atoms).
Two jobs are kept apart.  Drawing runs in B = min(C, ceil(K / BLOCK_ROWS))
blocks, K the largest budget and C = min(chunks, K): each block builds one
generator from its own child stream and calls every draw once on it.  Batch
means run over the C chunks: the replications are i.i.d., so each stratum's
rows, in block order, are cut into C consecutive chunks (Schmeiser 1982), and
every field is reduced to its pooled mean and batch-means standard error
over the chunk means, taken in chunk order.  A ``ChunkedDraws`` stores a
stratum's rows and C, and computes its chunk sizes ``chunk_sizes(K_s, C)``.
The chunk means of a field come from two reshaped row means, one over the
longer chunks and one over the shorter, with no per-chunk call.  B depends
on the budget and C only, never on the workers, and where B = C every chunk
is one block.
With ``spot = k`` the first min(k, n) replications of block 0 of every
stratum are drawn first, as ``draw(gen, k, True)`` on the same generator:
the draw cross-checks its fast evaluation on them (f's count form, the path
batch against ``CadlagPath``), once per estimate whatever the plan.
Discrete draws are one Poisson count array per block, Levy draws one path
batch.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the checked lead: replications of block 0 that ``mc_mean(..., spot=SPOT_CHECKS)``
# draws as ``draw(gen, k, True)``, and the count nodes of a checked block
# compared against ``fn``
SPOT_CHECKS = 8
# the most replications of a stratum that ``mc_mean`` draws in one block
# while it has fewer blocks than chunks
BLOCK_ROWS = 1024
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
    """Split ``total`` into min(``chunks``, ``total``) near-equal pieces.

    With base, rem = divmod(total, pieces) the first rem pieces hold base + 1
    and the rest base, so the sizes are non-increasing and differ by at most
    one.  ``ChunkedDraws.estimate`` relies on this order.
    """
    if total <= 0 or chunks <= 0:
        raise ValueError("total and chunks must be positive")
    chunks = min(chunks, total)
    base, rem = divmod(total, chunks)
    return [base + (1 if c < rem else 0) for c in range(chunks)]


@dataclass(frozen=True)
class MCPlan:
    """Sample budget plus the stream that owns it; ``chunks`` is the number
    of batch-means groups, not of draw calls (see ``mc_mean``)."""

    samples: int
    stream: RngStream
    chunks: int = 32
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    def split(self, index: int) -> "MCPlan":
        return MCPlan(self.samples, self.stream.child(index), self.chunks, self.workers)


def _exact_mode(mode: str, mc: MCPlan | None) -> bool:
    """Every ``mode`` switch: True for "exact", False for "mc" with a plan;
    any other mode, then "mc" without a plan, raises ``ValueError``."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "mc" and mc is None:
        raise ValueError("mc mode needs an MCPlan")
    return mode == "exact"


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
    """Run ``fn(chunk_index, n_chunk, chunk_stream)`` over deterministic chunks
    (``mc_mean`` schedules its blocks as these chunks).

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
        from concurrent.futures import ThreadPoolExecutor  # it loads logging: only here
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
    """Every replication's fields as one ``(fields, n)`` array in draw order,
    grouped for batch means in min(``chunks``, n) consecutive chunks whose
    ``sizes``, ``chunk_sizes(n, chunks)``, are computed, not stored."""

    chunks: int
    draws: np.ndarray

    def __post_init__(self):
        if self.draws.ndim != 2:
            raise ValueError(f"draws must be a (fields, n) array, got shape {self.draws.shape}")

    @property
    def sizes(self) -> list[int]:
        return chunk_sizes(self.draws.shape[1], self.chunks)

    def estimate(self, field: int = 0) -> EstimateResult:
        """Pooled mean and batch-means standard error of one field.

        The row is rem chunks of base + 1 rows followed by chunks of base
        rows (``chunk_sizes``), so the chunk means are two row means of
        reshaped C-contiguous blocks.  numpy reduces each row of such a block
        with the same pairwise sum as a 1-D slice of it, so every chunk mean
        is bit-identical to ``np.mean`` of that chunk's slice.
        """
        row, sizes = self.draws[field], self.sizes
        base, rem = divmod(row.size, len(sizes))
        cut = rem * (base + 1)
        means = (row[:cut].reshape(rem, base + 1).mean(axis=1).tolist()
                 + row[cut:].reshape(-1, base).mean(axis=1).tolist())
        return EstimateResult(*combine_batch_means(means, sizes))

    def values(self, field: int) -> np.ndarray:
        """One field of every replication, in draw order."""
        return self.draws[field]


def _block(draw: Callable, gen: np.random.Generator, n: int, *check) -> np.ndarray:
    out = np.asarray(draw(gen, n, *check), dtype=float)
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"a block draw of {n} replications returned shape {out.shape}, "
                         f"not (fields, {n})")
    return out


def mc_mean(draw: Callable | Sequence[tuple[Callable, int]], plan: MCPlan,
            spot: int = 0) -> ChunkedDraws | list[ChunkedDraws]:
    """Draw the K = ``plan.samples`` replications of ``draw(gen, n)`` in
    blocks and group them in chunks for batch means.

    With C = min(plan.chunks, K) chunks and B = min(C, ceil(K / BLOCK_ROWS))
    blocks, block b builds one generator from ``plan.stream.child(b)`` and
    calls the draw once for its ``chunk_sizes(K, B)[b]`` replications.  The
    first k = min(spot, n) replications of block 0 are drawn as ``draw(gen,
    k, True)``, the checked lead; the rest of that block follows as
    ``draw(gen, n - k)`` on the same generator.  A draw that does not return
    a ``(fields, n)`` array raises ``ValueError``.  The replications, in
    block order, form ``chunk_sizes(K, C)`` consecutive chunks.

    Strata ``[(draw_s, K_s), ...]`` in place of ``draw`` run in one pass, K
    the largest K_s: block b draws ``chunk_sizes(K_s, B)[b]`` replications
    of every stratum s (none once b >= K_s) in stratum order on its
    generator, each stratum with its own checked lead in block 0 and its own
    ``chunk_sizes(K_s, C)`` chunks.  Each stratum gets its own
    ``ChunkedDraws``, as from a call of its own.
    """
    single = callable(draw)
    strata = [(draw, plan.samples)] if single else draw
    total = max(k for _, k in strata)
    chunks = min(plan.chunks, total)
    blocks = min(chunks, -(-total // BLOCK_ROWS))
    shares = [chunk_sizes(k, blocks) for _, k in strata]

    def block(index: int, _: int, stream: RngStream) -> list:
        gen = stream.generator()
        out = []
        for (fn, _), sizes in zip(strata, shares):
            n = sizes[index] if index < len(sizes) else 0
            k = min(spot, n) if index == 0 else 0
            out.append(([_block(fn, gen, k, True)] if k else [])
                       + ([_block(fn, gen, n - k)] if n > k else []))
        return out

    done = run_chunked(block, total, plan.stream, blocks, plan.workers)
    results = [ChunkedDraws(chunks, np.ascontiguousarray(
                   np.concatenate([part for b in done for part in b[s]], axis=1)))
               for s in range(len(strata))]
    return results[0] if single else results
