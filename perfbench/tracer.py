"""Spans and counts around the calls into each measurefde module.

The tracer replaces functions where their callers look them up (module
attributes and class methods) with wrappers that record one span per call:
name, start, end and the enclosing span.  Spans stay in flat arrays in
memory and are written out once the run ends.  Only the traced child
interpreter installs it; untraced runs never import this module.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array

import numpy as np

# per-layer metrics, in the order BENCHMARK.json lists them, with their units
LAYER_METRICS = (
    ("stieltjes.values_at.calls", "count"), ("stieltjes.values_at.s", "s"),
    ("phase_space.segment.calls", "count"), ("phase_space.segment.s", "s"),
    ("phase_space.eval.calls", "count"), ("phase_space.eval.points", "count"),
    ("phase_space.eval.s", "s"), ("phase_space.history_pieces", "count"),
    ("mfde.solve_picard.s", "s"), ("mfde.solve_picard.self_s", "s"),
    ("mfde.picard_iters", "count"), ("mfde.mesh_points", "count"),
    ("mfde.rhs.calls", "count"), ("mfde.rhs.s", "s"),
    ("mfde.delay.calls", "count"), ("mfde.delay.s", "s"),
    ("mfde.residual.s", "s"), ("mfde.delay_check.s", "s"),
    ("averaging.solve_original.s", "s"), ("averaging.solve_averaged.s", "s"),
    ("averaging.sup_difference.s", "s"), ("averaging.check_problem.s", "s"),
    ("esc.simulate.s", "s"), ("esc.simulate.self_s", "s"),
    ("esc.step.calls", "count"), ("esc.step.p50_us", "us"),
    ("esc.step.p99_us", "us"), ("esc.delay.calls", "count"),
    ("esc.delay.s", "s"), ("esc.delay_grad.calls", "count"),
    ("esc.delay_grad.s", "s"), ("esc.prediction_times.s", "s"),
    ("esc.transport_diagnostic.s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)
# metrics that must repeat exactly between runs of the same code and input
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS
                      if unit in ("count", "bytes"))


class Tracer:
    """Span recorder; `wrap` returns a recording stand-in for a callable."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """Record a span per call of fn; after(result, args) runs past its end."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return spanned

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr in place, as its callers look it up."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def patch_problem(self, module, attr: str) -> None:
        """Wrap a problem constructor so the problems it builds record their
        right-hand side as `mfde.rhs` and their lag as `mfde.delay`."""
        make = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}",
                         getattr(module, attr))

        @functools.wraps(make)
        def build(*args, **kwargs):
            prob = make(*args, **kwargs)
            return dataclasses.replace(
                prob, f=self.wrap("mfde.rhs", prob.f),
                rho_delay=self.wrap("mfde.delay", prob.rho_delay))

        setattr(module, attr, build)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.array(self.name_id), "parent": np.array(self.parent),
                "start": np.array(self.start), "end": np.array(self.end),
                "run_id": np.full(len(self.start), self.run_id),
                "names": np.array(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, output_bytes: int) -> dict:
        """Per-layer metrics of this run; trace.overhead_frac is left to the
        caller, which has the untraced runs."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        own = dur - covered

        def sel(name):
            nid = self._ids.get(name)
            return a["name_id"] == nid if nid is not None else np.zeros(len(dur), bool)

        m = {}
        for name in self.names:
            mask = sel(name)
            m[f"{name}.calls"] = float(mask.sum())
            m[f"{name}.s"] = float(dur[mask].sum())
            m[f"{name}.self_s"] = float(own[mask].sum())
        steps = dur[sel("esc.step")]
        if steps.size:
            m["esc.step.p50_us"], m["esc.step.p99_us"] = \
                (float(v) * 1e6 for v in np.percentile(steps, [50, 99]))
        segments = m.get("phase_space.segment.calls", 0.0)
        m["phase_space.history_pieces"] = \
            self.counts.get("history_pieces", 0.0) / segments if segments else 0.0
        m["phase_space.eval.points"] = self.counts.get("eval_points", 0.0)
        m["mfde.picard_iters"] = self.counts.get("picard_iters", 0.0)
        m["mfde.mesh_points"] = self.counts.get("mesh_points", 0.0)
        m["cli.self_s"] = m.get("cli.main.self_s", 0.0)
        m["cli.output_bytes"] = float(output_bytes)
        return {name: m.get(name, 0.0) for name, _unit in LAYER_METRICS
                if name != "trace.overhead_frac"}


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every measurefde module for one traced run."""
    from measurefde import averaging, cli, esc, mfde, phase_space, stieltjes

    tr = tracer

    def count_points(_result, args):
        tr.add("eval_points", np.size(args[1]))

    def count_pieces(result, _args):
        tr.add("history_pieces", len(result.segments))

    def count_solve(result, _args):
        traj, iters, _delta = result
        tr.add("picard_iters", iters)
        tr.add("mesh_points", len(traj.mesh))

    tr.patch(stieltjes.Integrator, "values_at", "stieltjes.values_at")
    tr.patch(phase_space.RegulatedFn, "eval", "phase_space.eval", count_points)
    for module in (phase_space, mfde):
        tr.patch(module, "segment", "phase_space.segment", count_pieces)
    for module in (mfde, averaging):
        tr.patch(module, "solve_picard", "mfde.solve_picard", count_solve)
    tr.patch(mfde, "residual", "mfde.residual")
    tr.patch(mfde, "_assert_monotone_delay", "mfde.delay_check")
    tr.patch_problem(mfde, "tanh_kernel_problem")
    tr.patch_problem(averaging, "linear_periodic_problem")
    for attr in ("compare", "check_problem", "solve_original", "solve_averaged",
                 "sup_difference"):
        tr.patch(averaging, attr, f"averaging.{attr}")
    for attr in ("simulate", "step", "prediction_times", "transport_diagnostic",
                 "table1_params", "tail_metrics"):
        tr.patch(esc, attr, f"esc.{attr}")
    tr.patch(esc, "sin5sq_delay", "esc.delay")
    tr.patch(esc, "sin5sq_delay_grad", "esc.delay_grad")
    tr.patch(cli, "main", "cli.main")
