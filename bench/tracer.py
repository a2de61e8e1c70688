"""Spans around probterm's layer boundaries, recorded from outside.

`Tracer.install` replaces each public function in `WRAPPED` with a
wrapper that records a span: name, start, end, parent span and the
benchmark operation it ran for. The library looks these functions up as
module globals, so every internal call crosses a wrapper too. Spans stay
in memory until the run ends; `layer_metrics` then derives each layer's
self time (its span minus its child spans) and its work counts.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name). A function imported into a second
# module under its own name is wrapped in both places.
WRAPPED = [
    ("probterm.source", "parse_program", "source.parse"),
    ("probterm.lowering", "lower_to_pcfg", "lowering.lower"),
    ("probterm.synthesis", "synthesize_bsp", "synthesis.synthesize"),
    ("probterm.synthesis", "synthesize_general", "synthesis.synthesize"),
    ("probterm.synthesis", "build_lp", "synthesis.build_lp"),
    ("probterm.synthesis", "check_feasible", "farkas.check_feasible"),
    ("probterm.synthesis", "solve_lp", "farkas.solve_lp"),
    ("probterm.farkas", "check_feasible", "farkas.check_feasible"),
    ("probterm.farkas", "entails", "farkas.entails"),
    ("probterm.checker", "entails", "farkas.entails"),
    ("probterm.simplex", "solve", "simplex.solve"),
    ("probterm.checker", "check_certificate", "checker.check"),
    ("probterm.simulate", "estimate_termination", "simulate.estimate"),
    ("probterm.simulate", "counterexample_process", "simulate.cex"),
]

OP = "bench.op"
SPEED = "bench.speed"
GC = "bench.gc"

# nearest ancestor that says on whose behalf a simplex solve ran
CALLERS = {"farkas.solve_lp": "lp", "farkas.entails": "entails",
           "synthesis.build_lp": "screen"}


def _solve_info(args, result):
    num_vars, _, rows = args[:3]
    return {"cells": len(rows) * num_vars, "status": result.status.name.lower()}


def _build_lp_info(args, result):
    lp = result.lp
    return {"unknowns": lp.num_vars(), "rows": lp.num_constraints(),
            "nonzeros": sum(len(c.form.terms) for c in lp.constraints),
            "screened_out": result.dropped_implications,
            "implications": result.emitted_implications}


def _synthesize_info(args, result):
    return {"iterations": sum(1 for r in result.history if r.ranked)}


def _lower_info(args, result):
    return {"locations": len(result.locations),
            "transitions": len(result.transitions)}


def _check_info(args, result):
    return {"conditions": len(result.conditions),
            "violations": len(result.violations)}


def _estimate_info(args, result):
    return {"runs": result.runs, "steps": round(result.mean_steps * result.runs)}


def _cex_info(args, result):
    return {"samples": result.runs}


INSPECT = {"simplex.solve": _solve_info, "synthesis.build_lp": _build_lp_info,
           "synthesis.synthesize": _synthesize_info, "lowering.lower": _lower_info,
           "checker.check": _check_info, "simulate.estimate": _estimate_info,
           "simulate.cex": _cex_info}


class Tracer:
    """In-memory span recorder; one per traced run.

    A span is `[name, start, end, parent span or None, op id, info]`;
    `end` stays 0.0 while the span is open.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._op = None

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), 0.0, parent, self._op, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        inspect = INSPECT.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if inspect is not None:
                span[5] = inspect(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, op_id: str | None = None):
        """A span of the benchmark's own; with `op_id`, the root span of
        that operation."""
        if op_id is not None:
            self._op = op_id
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            if op_id is not None:
                self._op = None

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span of the benchmark's own work under the
        innermost open span (the speed sampler runs from a timer signal,
        so it may interrupt any span)."""
        parent = next((s for s in reversed(self._stack) if s[2] == 0.0), None)
        self.spans.append([name, start, end, parent, self._op, None])

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": None if parent is None else index[id(parent)],
                                    "op": op, "info": info}) + "\n")


def _caller(span: list) -> str:
    parent = span[3]
    while parent is not None:
        kind = CALLERS.get(parent[0])
        if kind:
            return kind
        parent = parent[3]
    return "other"


def layer_metrics(spans: list[list], wall: float, passes: int) -> dict:
    """Per-layer metrics for one traced run, per pass of the workload.

    Busy time is self time, given as a percentage of the traced wall
    time so that a layer a workload never enters reads 0 %, not 0 s.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    self_time = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            self_time[index[id(parent)]] -= end - start

    busy: dict[str, float] = {}
    count: dict[str, int] = {}
    lp_sizes = {"unknowns": [], "rows": [], "nonzeros": []}

    def add(key: str, n=1) -> None:
        count[key] = count.get(key, 0) + n

    for i, (name, _, _, parent, _, info) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + self_time[i]
        add(name)
        if name == "simplex.solve":
            caller = _caller(spans[i])
            busy[f"simplex.solve.{caller}"] = busy.get(f"simplex.solve.{caller}", 0.0) + self_time[i]
            add(f"simplex.solves.{caller}")
            add("simplex.cells", info["cells"])
            add(f"simplex.cells.{caller}", info["cells"])
            add(f"simplex.status.{info['status']}")
        elif name == "farkas.check_feasible" and _caller(spans[i]) == "screen":
            add("synthesis.screens")
        elif name == "farkas.entails" and parent is not None and parent[0] == "checker.check":
            add("checker.entailments")
        elif info is not None:
            for key, value in info.items():
                add(f"{name}.{key}", value)
            if name == "synthesis.build_lp":
                for key in lp_sizes:
                    lp_sizes[key].append(info[key])

    def pct(key: str) -> float:
        return 100.0 * busy.get(key, 0.0) / wall

    def per_pass(key: str) -> float:
        return count.get(key, 0) / passes

    lps = count.get("farkas.solve_lp", 0)
    metrics = {
        "simplex.solves": per_pass("simplex.solve"),
        "simplex.solve_pct": pct("simplex.solve"),
        "simplex.cells": per_pass("simplex.cells"),
    }
    for caller in ("screen", "lp", "entails"):
        metrics[f"simplex.solves.{caller}"] = per_pass(f"simplex.solves.{caller}")
        metrics[f"simplex.solve_pct.{caller}"] = pct(f"simplex.solve.{caller}")
        metrics[f"simplex.cells.{caller}"] = per_pass(f"simplex.cells.{caller}")
    for status in ("optimal", "infeasible", "unbounded", "pivot_cap"):
        metrics[f"simplex.status.{status}"] = per_pass(f"simplex.status.{status}")
    metrics.update({
        "synthesis.lps": per_pass("farkas.solve_lp"),
        "synthesis.iterations": per_pass("synthesis.synthesize.iterations"),
        "synthesis.lp_yield": count.get("synthesis.synthesize.iterations", 0) / lps if lps else 0.0,
        "synthesis.synthesize_pct": pct("synthesis.synthesize"),
        "synthesis.build_lp_pct": pct("synthesis.build_lp"),
        "synthesis.screens": per_pass("synthesis.screens"),
        "synthesis.screens_infeasible": per_pass("synthesis.build_lp.screened_out"),
        "synthesis.implications": per_pass("synthesis.build_lp.implications"),
    })
    for key, sizes in lp_sizes.items():
        metrics[f"synthesis.lp_{key}.sum"] = sum(sizes) / passes
        metrics[f"synthesis.lp_{key}.max"] = max(sizes, default=0)
    metrics.update({
        "farkas.solve_lp_pct": pct("farkas.solve_lp"),
        "farkas.check_feasible_pct": pct("farkas.check_feasible"),
        "farkas.entails_pct": pct("farkas.entails"),
        "checker.checks": per_pass("checker.check"),
        "checker.check_pct": pct("checker.check"),
        "checker.entailments": per_pass("checker.entailments"),
        "checker.conditions": per_pass("checker.check.conditions"),
        "checker.violations": per_pass("checker.check.violations"),
        "simulate.runs": per_pass("simulate.estimate.runs"),
        "simulate.steps": per_pass("simulate.estimate.steps"),
        "simulate.estimate_pct": pct("simulate.estimate"),
        "simulate.cex_samples": per_pass("simulate.cex.samples"),
        "simulate.cex_pct": pct("simulate.cex"),
        "source.programs": per_pass("source.parse"),
        "source.parse_pct": pct("source.parse"),
        "lowering.lower_pct": pct("lowering.lower"),
        "lowering.locations": per_pass("lowering.lower.locations"),
        "lowering.transitions": per_pass("lowering.lower.transitions"),
        "bench.op_pct": pct(OP),
        "bench.speed_pct": pct(SPEED),
        "bench.gc_pct": pct(GC),
        "trace.spans": sum(s[0] != SPEED for s in spans) / passes,
        "trace.accounted_pct": 100.0 * sum(self_time) / wall,
    })
    return metrics
