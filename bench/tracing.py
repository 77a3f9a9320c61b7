"""Spans and counters recorded from outside `poissonpert`.

The tracer replaces public functions and methods with wrappers wherever
their callers look them up: a function imported into several modules is
replaced in every module namespace that holds it, a method on its class.
Each wrapper records a span (name, start, end, parent, info).  Spans stay in
memory; the parent is the innermost open span of the same thread, except
that a chunk of ``rng.run_chunked`` names the call that scheduled it as its
parent, also when a pool thread runs it.  A span's self time is its duration
minus the part of it that its children cover.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

DIFFERENCE_ORDERS = range(1, 7)

# (span name, module attribute) for plain functions, looked up in every module
FUNCTIONS = [
    ("rng.run_chunked", "run_chunked"),
    ("configuration.difference_n", "difference_n"),
    ("sampler.sample_poisson", "sample_poisson"),
    ("sampler.thin_superpose_couple", "thin_superpose_couple"),
    ("exact.expectation_table", "expectation_table"),
    ("exact.exact_expectation", "exact_expectation"),
    ("measures.admissibility_check", "admissibility_check"),
    ("levy.simulate_path", "simulate_path"),
    ("levy.simulate_coupled", "simulate_coupled"),
]
# span name, "module.Class", method
METHODS = [
    ("levy.CadlagPath.sup_over", "levy.CadlagPath", "sup_over"),
    ("levy.CadlagPath.with_jump", "levy.CadlagPath", "with_jump"),
    ("levy.quad", "levy.StableJumps", "integrate"),
    ("levy.quad", "levy.GammaJumps", "integrate"),
]
DIRECTION_BUILDERS = ["cp_direction", "gamma_scale_direction", "gamma_shape_direction",
                      "stable_direction"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, info]
        self.counts: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None, info: dict | None = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def bump(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] += k

    def traced(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.bump(name)
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted_functional(self, f):
        """A copy of a `Functional` whose evaluations are counted."""
        return dataclasses.replace(f, fn=self.counted("configuration.f_evals", f.fn))

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package's layer boundaries; ``uninstall`` undoes it."""
        import poissonpert.levy  # noqa: F401  (the Levy layer is wrapped too)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "poissonpert"
                                         or name.startswith("poissonpert."))]
        special = {"run_chunked": self._run_chunked, "difference_n": self._difference_n,
                   "expectation_table": self._expectation_table,
                   "simulate_path": self._simulate_path}
        for span, attr in FUNCTIONS:
            home = sys.modules[f"poissonpert.{span.split('.')[0]}"]
            original = getattr(home, attr)
            wrapper = special.get(attr, lambda n, fn: self.traced(n, fn))(span, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapper)
        rng = sys.modules["poissonpert.rng"]
        self._replace(rng.RngStream, "generator",
                      self.counted("rng.generators_built", rng.RngStream.generator))
        for span, owner, method in METHODS:
            mod_name, cls_name = owner.split(".")
            cls = getattr(sys.modules[f"poissonpert.{mod_name}"], cls_name)
            self._replace(cls, method, self.traced(span, getattr(cls, method)))
        levy = sys.modules["poissonpert.levy"]
        for builder in DIRECTION_BUILDERS:
            self._replace(levy, builder, self._direction_builder(getattr(levy, builder)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers that record more than a span -------------------------------

    def _run_chunked(self, name, original):
        def run_chunked(fn, total, stream, chunks=32, workers=1):
            n_chunks = min(chunks, total) if total > 0 and chunks > 0 else 1
            pooled = workers if workers > 1 and n_chunks > 1 else 1
            call = self.open(name, info={"workers": pooled})

            def chunk(*args):
                info = {}
                idx = self.open("rng.chunk", parent=call, info=info)
                cpu = time.thread_time()
                try:
                    return fn(*args)
                finally:
                    info["cpu"] = time.thread_time() - cpu
                    self.close(idx)
            try:
                return original(chunk, total, stream, chunks, workers)
            finally:
                self.close(call)
        return run_chunked

    def _with_f_evals(self, name, original, key):
        def wrapper(f, m, xs, *args, **kwargs):
            before = self.counts["configuration.f_evals"]
            info = {key: len(xs)} if key else {}
            idx = self.open(name, info=info)
            try:
                return original(f, m, xs, *args, **kwargs)
            finally:
                self.close(idx)
                info["f_evals"] = self.counts["configuration.f_evals"] - before
        return wrapper

    def _difference_n(self, name, original):
        return self._with_f_evals(name, original, "order")

    def _expectation_table(self, name, original):
        return self._with_f_evals(name, original, None)

    def _simulate_path(self, name, original):
        def simulate_path(*args, **kwargs):
            info = {}
            idx = self.open(name, info=info)
            try:
                path = original(*args, **kwargs)
                info["jumps"] = path.n_jumps
                return path
            finally:
                self.close(idx)
        return simulate_path

    def _direction_builder(self, original):
        def build(*args, **kwargs):
            d = original(*args, **kwargs)
            return dataclasses.replace(d, g=self.traced("levy.direction_g", d.g))
        return build

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> list[float]:
        children = defaultdict(list)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered, cur_s, cur_e = 0.0, None, None
            for s, e in sorted(children.get(idx, ())):
                s, e = max(s, start), min(e, end)
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append(max(end - start - covered, 0.0))
        return out

    def layer_metrics(self) -> dict:
        """Per-layer figures of the spans and counts recorded since ``reset``."""
        selfs = self.self_times()
        calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
        by_order = defaultdict(lambda: [0, 0])
        nodes = jumps = 0
        busy = capacity = 0.0
        for (name, start, end, _, info), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            if info is None:
                continue
            if name == "configuration.difference_n":
                by_order[info["order"]][0] += 1
                by_order[info["order"]][1] += info.get("f_evals", 0)
            elif name == "exact.expectation_table":
                nodes += info.get("f_evals", 0)
            elif name == "levy.simulate_path":
                jumps += info.get("jumps", 0)
            elif name == "rng.run_chunked":
                capacity += info["workers"] * (end - start)
            elif name == "rng.chunk":
                busy += info.get("cpu", 0.0)

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        out = {
            "rng.generators_built": self.counts["rng.generators_built"],
            "rng.chunk_busy_s": busy,
            "rng.pool_wall_s": total_s["rng.run_chunked"],
            "rng.parallel_efficiency": ratio(busy, capacity),
            "configuration.f_evals": self.counts["configuration.f_evals"],
            "sampler.configs_per_s": ratio(calls["sampler.sample_poisson"],
                                           total_s["sampler.sample_poisson"]),
            "exact.lattice_nodes": nodes,
            "exact.lattice_nodes_per_s": ratio(nodes, total_s["exact.expectation_table"]),
            "levy.paths_per_s": ratio(calls["levy.simulate_path"],
                                      total_s["levy.simulate_path"]),
            "levy.jumps_per_path": ratio(jumps, calls["levy.simulate_path"]),
        }
        for n in DIFFERENCE_ORDERS:
            count, evals = by_order[n]
            out[f"configuration.f_evals_per_difference.order{n}"] = ratio(evals, count)
        for span in [s for s, _ in FUNCTIONS] + [s for s, _, _ in METHODS] + [
                "levy.direction_g"]:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        return out

    def write(self, path: Path) -> None:
        """Write the spans: names once, then [name id, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[ids[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
