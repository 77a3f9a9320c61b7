"""The levy-paths estimates at two workers equal a one-worker run of the same
seed, bit for bit.

    python3 -m pytest bench/check_workers.py

The file name keeps it out of a plain ``python -m pytest`` run at the root,
which collects only ``test_*.py``; it runs at a tenth of the benchmark's
sample budgets.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import poissonpert  # noqa: E402
import poissonpert.levy  # noqa: E402,F401
import workloads  # noqa: E402


def numbers(result) -> list[str]:
    """Every number an estimator returned, as exact hex strings."""
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in numbers(item)]
    if hasattr(result, "terms"):                          # SeriesResult
        return numbers(list(result.terms) + list(result.stderrs))
    if hasattr(result, "q_summary"):                      # SupremumDerivativeResult
        return numbers([result.estimate, result.stderr, result.kernel_max_err,
                        result.bound_violations, result.q_summary.counts.tolist()])
    if hasattr(result, "estimate"):                       # EstimateResult
        return numbers([result.estimate, result.stderr])
    return [float(result).hex()]


def run_levy_paths(seed: int, workers: int) -> dict:
    ops = workloads.build_levy_paths(poissonpert, seed, workers=workers, scale=0.1)
    root = poissonpert.RngStream(seed).child(0)
    return {op.name: numbers(op.call(root.child(i))) for i, op in enumerate(ops)}


@pytest.mark.parametrize("seed", [1, 2])
def test_two_workers_match_one_worker(seed):
    one = run_levy_paths(seed, workers=1)
    two = run_levy_paths(seed, workers=2)
    assert one.keys() == two.keys()
    for name in one:
        assert two[name] == one[name], name
