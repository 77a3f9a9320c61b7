"""Benchmark of `poissonpert`: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload discrete-mc --seed 1 --seconds 20 --trace 0

Every run starts fresh interpreters: SETUP_PROBES processes that only import
the package and build the inputs, then one process that also runs the timed
rounds (see session.py).  ``setup_s`` is the median set-up time over all of
them.  Times are in reference seconds (see session.py); the traced run also
reports the raw wall times.  The metrics are printed as a table and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["discrete-mc", "levy-paths", "exact-oracles"]
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0     # a single-workload run must end within 180 s
ESTIMATOR_FIELDS = (".s", ".se", ".samples", ".stop_order")


def session(args: list[str], timeout: float) -> dict:
    """Run one session process to its end and return its JSON report."""
    cmd = [sys.executable, str(BENCH_DIR / "session.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"session {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()

    def left() -> float:
        return TIME_LIMIT_S - (time.monotonic() - start)

    base = ["--workload", name, "--seed", str(seed)]
    setups = [session(base + ["--role", "setup"], left()) for _ in range(SETUP_PROBES)]
    main = session(base + ["--role", "run", "--seconds", str(seconds),
                           "--trace", str(trace)], left())
    setups.append(main)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    if trace:
        measured = dict(main["layers"])
        measured["setup.import_s"] = import_s
        for key in ("trace.overhead_s", "levy.quad.setup_calls", "levy.quad.setup_self_s"):
            measured[key] = main[key]
        measured["bench.raw_wall_s"] = main["raw_wall_s"]
        measured["bench.raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        measured["bench.ref_task_s"] = main["ref_task_s"]
    else:
        measured = {"wall_s": main["wall_s"], "time_to_accuracy_s": main["time_to_accuracy_s"],
                    "setup_s": setup_s, "peak_rss_mb": main["peak_rss_mb"]}
    metrics = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        key = spec["name"]
        if key not in measured and not key.endswith(ESTIMATOR_FIELDS):
            raise RuntimeError(f"metric {key} was not measured")
        # an estimator that the workload does not run takes no time
        metrics[key] = measured.get(key, 0.0)
    for failure in main["failures"]:
        sys.stderr.write(f"{name}: {failure}\n")
    machine = {"raw_wall_s": main["raw_wall_s"], "ref_task_s": main["ref_task_s"],
               "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups)}
    return {"correct": main["correct"], "attempted": main["attempted"],
            "failed": main["failed"], "rounds": main["rounds"], "metrics": metrics,
            "machine": machine}


def units(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "poissonpert" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no poissonpert sources under {ROOT / 'src'}\n")
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    unit = units(args.trace)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            sys.stderr.write(f"benchmark: {name}: {err}\n")
            return 1
        print(f"{name}: {res['rounds']} rounds, {res['attempted']} operations attempted, "
              f"{res['failed']} failed, outputs {'correct' if res['correct'] else 'WRONG'}")
        print(f"  machine: reference loop {res['machine']['ref_task_s'] * 1e3:.3f} ms, "
              f"raw wall_s {res['machine']['raw_wall_s']:.4f} s, "
              f"raw setup_s {res['machine']['raw_setup_s']:.4f} s")
        for key in sorted(res["metrics"]):
            print(f"  {name:14s} {key:48s} {res['metrics'][key]:>16.6g} {unit.get(key, '')}")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in res["metrics"].items():
            total["metrics"][prefix + key] = {"value": value, "unit": unit.get(key, "")}
    print(json.dumps(total))
    return 0 if total["correct"] and total["failed"] == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
