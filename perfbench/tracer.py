"""Timing wrappers installed from outside around the public calls into each
tsengsplit layer.

Coarse layer boundaries (a command, config load, problem build, operator
metadata, schedule validation, a solve, trace write/read, a certificate)
are recorded as spans ``[name, start, end, parent]``.  The hot
per-iteration calls (forward map, resolvent, ``SequenceSpec.at`` and the
solver's ``norm``) would make one span each per iteration, so they are
aggregated into a count and a time per enclosing span name instead.
Everything stays in memory until :meth:`Tracer.layer_metrics` reads it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

HOT_CALLS = ("forward", "resolvent", "at", "norm")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        # enclosing span name -> hot call name -> [count, seconds]
        self.hot = defaultdict(lambda: {name: [0, 0.0] for name in HOT_CALLS})
        self._sink = self.hot[""]
        self.forward_cost: dict = {}  # forward fn -> (flop, byte) per call
        self.forward_flop = 0.0
        self.forward_byte = 0.0
        self.iterations = 0
        self.tie_breaks = 0
        self.trace_bytes = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self._sink = self.hot[name]
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()
        self._sink = self.hot[self.spans[self._open[-1]][0] if self._open else ""]

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def command(self, fn, *args):
        """Run ``fn(*args)`` inside a top-level ``command`` span."""
        return self.span("command", fn)(*args)

    def _hot(self, name: str, fn):
        clock = self.clock

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            acc = self._sink[name]
            acc[0] += 1
            acc[1] += clock() - t0
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from tsengsplit import cli, operators, problems, schedules, solver

        self._patch(cli, "load_config", self.span("load_config", cli.load_config))
        self._patch(cli, "build_problem", self.span("build", cli.build_problem))
        for attr in ("validate_c3", "validate_strong"):
            self._patch(cli, attr, self.span("validate", getattr(cli, attr)))
        for attr in ("certify_sqrt_rate", "certify_linear_rate"):
            self._patch(cli, attr, self.span("certify", getattr(cli, attr)))
        self._patch(cli, "read_trace_csv", self.span("read", cli.read_trace_csv))
        for attr in ("write_trace_csv", "write_trace_jsonl"):
            self._patch(cli, attr, self._writer(getattr(cli, attr)))
        self._patch(cli, "solve", self._solve(cli.solve))
        self._patch(problems, "least_squares_gradient", self._metadata(problems.least_squares_gradient, _lsq_cost))
        self._patch(problems, "affine_forward", self._metadata(problems.affine_forward, _affine_cost))

        self._patch(operators.ForwardOperator, "__call__", self._hot("forward", operators.ForwardOperator.__call__))
        self._patch(operators.Resolvent, "__call__", self._hot("resolvent", operators.Resolvent.__call__))
        self._patch(schedules.SequenceSpec, "at", self._hot("at", schedules.SequenceSpec.at))
        self._patch(solver, "norm", self._hot("norm", solver.norm))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _metadata(self, fn, cost):
        timed = self.span("metadata", fn)

        def wrapper(mat, vec):
            op = timed(mat, vec)
            self.forward_cost[op.fn] = cost(mat.shape)
            return op

        return wrapper

    def _solve(self, fn):
        timed = self.span("solve", fn)

        def wrapper(problem, config, *args):
            calls = self.hot["solve"]["forward"]
            before = calls[0]
            try:
                x, trace = timed(problem, config, *args)
            finally:
                # forward maps without a registered matrix are elementwise
                flop, byte = self.forward_cost.get(problem.forward.fn, (problem.dimension, 16 * problem.dimension))
                self.forward_flop += (calls[0] - before) * flop
                self.forward_byte += (calls[0] - before) * byte
            self.iterations += len(trace)
            self.tie_breaks += trace.tie_breaks
            return x, trace

        return wrapper

    def _writer(self, fn):
        timed = self.span("write", fn)

        def wrapper(trace, path, *args, **kwargs):
            timed(trace, path, *args, **kwargs)
            self.trace_bytes += os.path.getsize(path)

        return wrapper

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced passes."""
        busy = defaultdict(float)
        command_children = 0.0
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent >= 0 and self.spans[parent][0] == "command":
                command_children += end - start
        in_solve = self.hot["solve"]
        hot_s = sum(acc[1] for acc in in_solve.values())
        fwd_calls, fwd_s = in_solve["forward"]
        iters = self.iterations
        per = 1.0 / passes
        return {
            "cli.self_s": (busy["command"] - command_children) * per,
            "cli.load_config_s": busy["load_config"] * per,
            "problems.build_s": busy["build"] * per,
            "operators.metadata_s": busy["metadata"] * per,
            "schedules.validate_s": busy["validate"] * per,
            "operators.forward_calls": fwd_calls * per,
            "operators.forward_s": fwd_s * per,
            "operators.forward_us_per_call": 1e6 * fwd_s / fwd_calls if fwd_calls else 0.0,
            "operators.forward_calls_per_iter": fwd_calls / iters if iters else 0.0,
            "operators.forward_gflop": self.forward_flop * 1e-9 * per,
            "operators.forward_gbyte": self.forward_byte * 1e-9 * per,
            "operators.resolvent_calls": in_solve["resolvent"][0] * per,
            "operators.resolvent_s": in_solve["resolvent"][1] * per,
            "schedules.at_calls": in_solve["at"][0] * per,
            "schedules.at_s": in_solve["at"][1] * per,
            "linalg.norm_calls": in_solve["norm"][0] * per,
            "linalg.norm_s": in_solve["norm"][1] * per,
            "solver.self_s": (busy["solve"] - hot_s) * per,
            "solver.self_us_per_iter": 1e6 * (busy["solve"] - hot_s) / iters if iters else 0.0,
            "solver.iterations": iters * per,
            "solver.tie_break_fraction": self.tie_breaks / iters if iters else 0.0,
            "solver.trace_write_s": busy["write"] * per,
            "solver.trace_bytes": self.trace_bytes * per,
            "solver.trace_read_s": busy["read"] * per,
            "solver.certify_s": busy["certify"] * per,
        }


# Computed per-call cost models of the built-in matrix forward maps (float64).
def _lsq_cost(shape):
    m, n = shape  # x -> A^T (A x - y): two matvecs over A plus a subtraction
    return 4.0 * m * n + m, 8.0 * (2 * m * n + 2 * m + 2 * n)


def _affine_cost(shape):
    m = shape[0]  # x -> M x + q
    return 2.0 * m * m + m, 8.0 * (m * m + 3 * m)
