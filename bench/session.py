"""One benchmark process for one workload.

    python3 bench/session.py --workload NAME --seed N --role setup
    python3 bench/session.py --workload NAME --seed N --role run --seconds T --trace 0|1

``setup`` imports `poissonpert` from the checkout's ``src/``, builds the
workload's inputs and reports how long that took.  ``run`` does the same and
then runs whole rounds of the workload's operations until ``--seconds`` have
passed.  With ``--trace 1`` it alternates untraced and traced rounds, so the
tracing overhead is measured in the same process.  The last line of standard
output is one JSON object.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of per cent within seconds and over minutes, and a run cannot
average that away.
So a fixed reference task that does not touch `poissonpert` is timed right
before every call, and a time t is reported as t * REF_TASK_S / (the median
reference-task time of its round).  REF_TASK_S is the task's median time on
the machine of the README's figures, so a reference second is about a wall
second there.  The raw wall times are reported by the traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REF_TASK_S = 0.0031
REF_LOOP = 40_000
SETUP_REF_TASKS = 15


def reference_task() -> float:
    """Time one pass of a fixed pure-Python loop; like most of the package's
    own work, it runs at the speed the interpreter gets from the machine."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def speed(ref_times) -> float:
    """How much slower than the reference machine this one ran."""
    return statistics.median(ref_times) / REF_TASK_S


def import_package():
    """Import `poissonpert` (with its Levy layer) from ``src/`` of this
    checkout, never from anywhere else; return it with the import time."""
    if not (SRC / "poissonpert" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no poissonpert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import poissonpert
    import poissonpert.levy  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(poissonpert.__file__).resolve().parent != (SRC / "poissonpert").resolve():
        raise SystemExit(f"benchmark: poissonpert was imported from {poissonpert.__file__}")
    return poissonpert, import_s


class Round:
    """Timings and verdicts of one pass over the operations."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.quality: dict[str, float] = {}     # max_j (se_j / s*_j)^2, 1 if exact
        self.outcomes: dict = {}
        self.failed: list[str] = []
        self.incorrect: list[str] = []
        self.ref_times: list[float] = []

    @property
    def raw_wall(self) -> float:
        return math.fsum(self.times.values())

    @property
    def wall(self) -> float:
        """The round's call time in reference seconds."""
        return self.raw_wall / speed(self.ref_times)

    def call_time(self, name: str) -> float:
        """One call's time in reference seconds."""
        return self.times[name] / speed(self.ref_times)


def run_round(pp, ops, stream, tracer=None) -> Round:
    rnd = Round()
    results = {}
    for i, op in enumerate(ops):
        op_stream = stream.child(i)
        rnd.ref_times.append(reference_task())
        span = tracer.open(f"op.{op.name}") if tracer else None
        start = time.perf_counter()
        try:
            result = op.call(op_stream)
        except Exception as err:  # an operation that raises counts as failed
            rnd.times[op.name] = time.perf_counter() - start
            rnd.failed.append(f"{op.name}: {type(err).__name__}: {err}")
            continue
        finally:
            if tracer:
                tracer.close(span)
        rnd.times[op.name] = time.perf_counter() - start
        outcome = op.check(result, results)
        results[op.name] = result
        rnd.outcomes[op.name] = outcome
        if not outcome.ok:
            rnd.failed.append(f"{op.name}: " + "; ".join(n for n in outcome.notes
                                                         if n.startswith("FAIL")))
            rnd.incorrect.append(op.name)
        mc = [(e.se / e.target_se) ** 2 for e in outcome.estimates]
        rnd.quality[op.name] = max(mc) if mc else 1.0
    return rnd


def end_to_end(ops, rounds: list[Round]) -> dict:
    """wall_s is the median round; time_to_accuracy_s sums, per operation,
    the median call time times the mean over rounds of (se / s*)^2.  Both
    are in reference seconds."""
    tta = 0.0
    for op in ops:
        times = [r.call_time(op.name) for r in rounds if op.name in r.quality]
        quality = [r.quality[op.name] for r in rounds if op.name in r.quality]
        if times:
            tta += statistics.median(times) * statistics.fmean(quality)
    return {"wall_s": statistics.median(r.wall for r in rounds), "time_to_accuracy_s": tta}


def estimator_metrics(ops, rounds: list[Round]) -> dict:
    """`<metric>.s`, `.se`, `.samples` and `.stop_order` of the estimators,
    per round (the median over rounds), from the untraced rounds."""
    per_round = []
    for r in rounds:
        acc = defaultdict(list)
        for op in ops:
            if op.metric is None or op.name not in r.outcomes:
                continue
            out = r.outcomes[op.name]
            acc[f"{op.metric}.s"].append(r.call_time(op.name))
            for e in out.estimates:
                acc[f"{op.metric}.se"].append(e.se)
            for key, value in out.extra.items():
                acc[f"{op.metric}.{key}"].append(value)
        row = {}
        for key, values in acc.items():
            if key.endswith(".se"):
                row[key] = math.sqrt(statistics.fmean(v * v for v in values))
            elif key.endswith(".stop_order"):
                row[key] = statistics.fmean(values)
            else:
                row[key] = math.fsum(values)
        per_round.append(row)
    keys = {k for row in per_round for k in row}
    return {k: statistics.median(row.get(k, 0.0) for row in per_round) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--role", choices=["setup", "run"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # the machine's speed during set-up: the mean of its speed right before
    # and right after, which varies by tens of per cent within a second
    before = speed([reference_task() for _ in range(SETUP_REF_TASKS)])
    pp, import_s = import_package()
    import workloads
    from tracing import Tracer

    build = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    ops = build(pp, args.seed)
    raw_setup_s = import_s + time.perf_counter() - start
    after = speed([reference_task() for _ in range(SETUP_REF_TASKS)])
    setup_speed = (before + after) / 2.0
    report = {"import_s": import_s / setup_speed, "setup_s": raw_setup_s / setup_speed,
              "raw_setup_s": raw_setup_s}
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_ops = build(pp, args.seed, tracer)
        setup_layers = tracer.layer_metrics()
        tracer.uninstall()
        report["levy.quad.setup_calls"] = setup_layers["levy.quad.calls"]
        report["levy.quad.setup_self_s"] = setup_layers["levy.quad.self_s"]

    root = pp.RngStream(args.seed)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        plain.append(run_round(pp, ops, root.child(index)))
        index += 1
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(pp, traced_ops, root.child(index), tracer))
            finally:
                tracer.uninstall()
            index += 1
            layers.append(tracer.layer_metrics())
        if time.perf_counter() >= deadline:
            break

    rounds = plain + traced
    report.update({
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "correct": not any(r.incorrect for r in rounds),
        "failures": [f for r in rounds for f in r.failed][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": statistics.median(r.raw_wall for r in plain),
        "ref_task_s": statistics.median(t for r in plain for t in r.ref_times),
    })
    report.update(end_to_end(ops, plain))
    if tracer:
        report["layers"] = {k: statistics.median(row[k] for row in layers)
                            for k in layers[0]}
        report["layers"].update(estimator_metrics(ops, plain))
        report["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - report["wall_s"])
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
