"""Per-layer spans for the traced benchmark run.

Wrappers around koblab's public functions and domain methods count calls
and accumulate self time: a layer's span minus the spans of the layers it
called.  koblab imports functions by name into ``solver``,
``diagnostics``, ``cases`` and ``cli``, so every module attribute bound to
a wrapped function is rebound, not only the defining one.  ``installed``
patches on entry and restores the originals on exit, so untraced rounds
run koblab's own code with no wrapper in the way.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

GEOMETRY_METHODS = ("contains", "inner_radius_fast", "boundary_distance",
                    "nearest_boundary_point", "directional_distance")
PSI_METHODS = ("value", "derivative", "inverse")


class Tracer:
    """Call counts and self time per layer, plus solver and tube tallies."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sweeps = 0
        self.tube_runs = 0
        self.tube_wins = 0
        self._stack = []          # child time of each open span
        self._targets = None

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.sweeps = self.tube_runs = self.tube_wins = 0

    def _wrap(self, layer, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += dt - child
                if stack:
                    stack[-1] += dt
            return out

        span.__wrapped__ = fn
        return span

    def _solve_layer(self, fn):
        inner = self._wrap("solver.solve", fn)

        def solve(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.sweeps += result.iterations
            return result

        solve.__wrapped__ = fn
        return solve

    def _lower_bound_layer(self, fn):
        inner = self._wrap("metric.lower_bound", fn)

        def lower_bound(*args, **kwargs):
            # the tube ran when pair_tube_bound was entered during this
            # call; it won when its value is at least every other branch
            tubes_before = self.calls["metric.pair_tube"]
            best, branches = out = inner(*args, **kwargs)
            if self.calls["metric.pair_tube"] > tubes_before:
                self.tube_runs += 1
                tube = branches.get("pair-tube")
                if tube is not None and tube >= best:
                    self.tube_wins += 1
            return out

        lower_bound.__wrapped__ = fn
        return lower_bound

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patch site."""
        from koblab import (cases, cli, diagnostics, geometry, metric,
                            solver, svg)

        functions = {
            metric.distance_lower_bound_detailed:
                self._lower_bound_layer(metric.distance_lower_bound_detailed),
            metric.pair_tube_bound:
                self._wrap("metric.pair_tube", metric.pair_tube_bound),
            metric.distance_bracket:
                self._wrap("metric.bracket", metric.distance_bracket),
            solver.solve_geodesic: self._solve_layer(solver.solve_geodesic),
            cli.main: self._wrap("cli", cli.main),
            svg.render_report_svg: self._wrap("svg", svg.render_report_svg),
        }
        for module, layer in ((diagnostics, "diagnostics"), (cases, "cases")):
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    functions[fn] = self._wrap(layer, fn)

        plan = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "koblab" or
                                      name.startswith("koblab.")):
                continue
            for attr, val in list(vars(module).items()):
                if callable(val) and not isinstance(val, type) \
                        and val in functions:
                    plan.append((module, attr, val, functions[val]))

        for cls in vars(geometry).values():
            if not (isinstance(cls, type)
                    and issubclass(cls, geometry.Domain)):
                continue
            for attr in GEOMETRY_METHODS:
                if attr in vars(cls):
                    fn = vars(cls)[attr]
                    plan.append((cls, attr, fn,
                                 self._wrap(f"geometry.{attr}", fn)))
        for attr in PSI_METHODS:
            fn = vars(geometry.PsiSpec)[attr]
            plan.append((geometry.PsiSpec, attr, fn,
                         self._wrap("geometry.psi", fn)))
        return plan

    @contextlib.contextmanager
    def installed(self):
        if self._targets is None:
            self._targets = self._plan()
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)
