"""Per-layer trace of one workload, taken from outside the program.

Public functions of the madelung modules (and the numpy.fft transforms they
call) are replaced by timing wrappers for the duration of one operation.
Modules bind some names at import time (``harness`` does
``from .diagnostics import expectations``), so each wrapper is installed in
every madelung namespace that holds the original object, not only in the
module that defines it.

Each wrapped call opens a span.  A span's self time is its duration minus
the time covered by the wrapped calls it made.  Observers passed to
``evolve`` are callbacks of the caller, so their time is charged to the span
that called ``evolve`` instead of to the propagator.  FFT calls are counted,
never timed, so the propagator's self time still holds its transforms.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child_time, fft_calls_at_entry]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)  # counted units of work (steps, points, bytes)
        self.by_size = defaultdict(lambda: [0, 0.0, 0.0])  # (layer, n) -> calls, incl, self
        self.fft_calls = 0
        self.fft_points = 0
        self.field_eval_ffts = 0
        self.flow_bytes = weakref.WeakKeyDictionary()  # FlowHistory -> bytes held
        self.flow_bytes_max = 0
        self.checks_s = 0.0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0, self.fft_calls])

    def _exit(self, counted=True, n=None):
        name, start, child, fft0 = self.stack.pop()
        d = time.perf_counter() - start
        self.self_s[name] += d - child
        if counted:
            self.calls[name] += 1
            self.incl[name] += d
            if n is not None:
                row = self.by_size[(name, n)]
                row[0] += 1
                row[1] += d
                row[2] += d - child
        if self.stack:
            self.stack[-1][2] += d
        return d, self.fft_calls - fft0

    def owner(self) -> str:
        return self.stack[-1][0] if self.stack else "bench"

    def span(self, name, fn, size=None, after=None):
        """Wrap fn in a span; size(args, kwargs) gives the grid size of the
        call, after(args, kwargs, result, seconds, ffts) records its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = size(args, kwargs) if size is not None else None
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                d, ffts = self._exit(n=n)
            if after is not None:
                after(args, kwargs, result, d, ffts)
            return result

        return wrapper

    def charged_to(self, owner, fn):
        """Wrap a callback so its self time lands on ``owner``'s span."""

        def wrapper(*args, **kwargs):
            self._enter(owner)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(counted=False)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def replace_everywhere(self, module, attr, make_wrapper):
        """Swap module.attr for its wrapper in every madelung namespace."""
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "madelung" or mod_name.startswith("madelung.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapper)

    def install(self):
        from madelung import cli, diagnostics, grid, harness, propagator, special, states
        from madelung import trajectories

        t = self

        def grid_n(args, kwargs):
            # every sized layer takes the wavefunction first, as ``wf``
            return (args[0] if args else kwargs["wf"]).grid.n

        # propagator
        def evolve_done(args, kwargs, result, d, ffts):
            config = args[2] if len(args) > 2 else kwargs["config"]
            t.work["propagator.steps"] += config.n_steps
            t.work["propagator.point_steps"] += config.n_steps * grid_n(args, kwargs)

        def wrap_evolve(orig):
            timed = t.span("propagator.evolve", orig, size=grid_n, after=evolve_done)

            @functools.wraps(orig)
            def evolve(wf, U, config, observers=()):
                owner = t.owner()
                return timed(wf, U, config, [t.charged_to(owner, o) for o in observers])

            return evolve

        t.replace_everywhere(propagator, "evolve", wrap_evolve)
        t.replace_everywhere(propagator, "step",
                             lambda f: t.span("propagator.step", f, size=grid_n))

        # diagnostics
        def field_eval(args, kwargs, result, d, ffts):
            t.field_eval_ffts += ffts

        t.replace_everywhere(diagnostics, "madelung_fields",
                             lambda f: t.span("diagnostics.madelung_fields", f,
                                              size=grid_n, after=field_eval))
        t.replace_everywhere(diagnostics, "expectations",
                             lambda f: t.span("diagnostics.expectations", f,
                                              size=grid_n, after=field_eval))
        for name in ("bernoulli_residual", "nonspreading_residual"):
            t.replace_everywhere(diagnostics, name,
                                 lambda f, name=name: t.span(f"diagnostics.{name}", f))

        # states and grid
        t.replace_everywhere(states, "polar_decompose",
                             lambda f: t.span("states.polar_decompose", f, size=grid_n))
        t.replace_everywhere(grid, "nearest_fill",
                             lambda f: t.span("grid.nearest_fill", f))
        for cls in (grid.RealField, grid.ComplexField):
            t._set(cls, "__post_init__", t.span("grid.field", cls.__post_init__))

        # trajectories
        def advect_n_steps(args, kwargs):
            return args[3] if len(args) > 3 else kwargs["n_steps"]

        def advect_done(args, kwargs, result, d, ffts):
            t.work["trajectories.advect_steps"] += advect_n_steps(args, kwargs)

        def csv_done(args, kwargs, result, d, ffts):
            path = args[1] if len(args) > 1 else kwargs["path"]
            t.work["trajectories.csv_bytes"] += os.path.getsize(path)

        t.replace_everywhere(trajectories, "advect",
                             lambda f: t.span("trajectories.advect", f, size=advect_n_steps,
                                              after=advect_done))
        t.replace_everywhere(trajectories, "seed_parcels",
                             lambda f: t.span("trajectories.seed_parcels", f))
        t.replace_everywhere(trajectories, "write_trajectory_csv",
                             lambda f: t.span("trajectories.write_csv", f, after=csv_done))
        history = trajectories.FlowHistory
        for name in ("sample_at", "velocity_at"):
            t._set(history, name, t.span("trajectories.flow_lookup", getattr(history, name)))

        def flow_add(orig):
            @functools.wraps(orig)
            def add(self_, sample):
                orig(self_, sample)
                t.work["harness.flow_samples"] += 1
                held = t.flow_bytes.get(self_, 0) + sum(
                    v.values.nbytes for v in vars(sample).values()
                    if isinstance(v, grid.RealField))
                t.flow_bytes[self_] = held
                t.flow_bytes_max = max(t.flow_bytes_max, held)

            return add

        t._set(history, "add", flow_add(history.add))

        # harness
        def scenario_done(args, kwargs, result, d, ffts):
            t.work["harness.checks_judged"] += len(result.checks)

        build = harness.ScenarioRun.__init__
        t._set(harness.ScenarioRun, "__init__", t.span("harness.scenario_build", build))

        def wrap_run_scenario(orig):
            timed = t.span("harness.run_scenario", orig, after=scenario_done)

            @functools.wraps(orig)
            def run_scenario(scenario):
                built = t.incl["harness.scenario_build"]
                start = time.perf_counter()
                try:
                    return timed(scenario)
                finally:
                    # checks are evaluated lazily: everything but the build
                    t.checks_s += (time.perf_counter() - start) - (
                        t.incl["harness.scenario_build"] - built)

            return run_scenario

        t.replace_everywhere(harness, "run_scenario", wrap_run_scenario)
        t.replace_everywhere(harness, "collect_flow",
                             lambda f: t.span("harness.collect_flow", f))

        # cli and special
        t.replace_everywhere(cli, "main", lambda f: t.span("cli.main", f))
        t.replace_everywhere(special, "airy_ai", lambda f: t.span("special.airy_ai", f))

        # numpy.fft, looked up as np.fft.<name> at call time by every module
        for name in FFT_NAMES:
            t._set(np.fft, name, t._count_fft(getattr(np.fft, name)))

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.fft_calls += 1
            self.fft_points += int(np.size(a))
            return fn(a, *args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._patches:
            holder, attr, orig = self._patches.pop()
            setattr(holder, attr, orig)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        c, incl, self_s, w = self.calls, self.incl, self.self_s, self.work

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        field_calls = c["diagnostics.madelung_fields"] + c["diagnostics.expectations"]
        return {
            "propagator.evolve_calls": (c["propagator.evolve"], "count"),
            "propagator.steps": (w["propagator.steps"], "count"),
            "propagator.evolve_self_s": (self_s["propagator.evolve"], "s"),
            "propagator.ns_per_point_step": (
                ratio(self_s["propagator.evolve"], w["propagator.point_steps"], 1e9), "ns"),
            "propagator.step_calls": (c["propagator.step"], "count"),
            "propagator.step_s": (incl["propagator.step"], "s"),
            "diagnostics.madelung_fields_calls": (c["diagnostics.madelung_fields"], "count"),
            "diagnostics.madelung_fields_s": (incl["diagnostics.madelung_fields"], "s"),
            "diagnostics.madelung_fields_us_per_point": (
                ratio(incl["diagnostics.madelung_fields"],
                      sum(n * row[0] for (name, n), row in self.by_size.items()
                          if name == "diagnostics.madelung_fields"), 1e6), "us"),
            "diagnostics.expectations_calls": (c["diagnostics.expectations"], "count"),
            "diagnostics.expectations_s": (incl["diagnostics.expectations"], "s"),
            "diagnostics.bernoulli_residual_s": (incl["diagnostics.bernoulli_residual"], "s"),
            "diagnostics.nonspreading_residual_s": (
                incl["diagnostics.nonspreading_residual"], "s"),
            "fft.calls": (self.fft_calls, "count"),
            "fft.points": (self.fft_points, "count"),
            "diagnostics.ffts_per_field_eval": (ratio(self.field_eval_ffts, field_calls),
                                                "fft/call"),
            "states.polar_decompose_calls": (c["states.polar_decompose"], "count"),
            "states.polar_decompose_s": (incl["states.polar_decompose"], "s"),
            "grid.field_constructions": (c["grid.field"], "count"),
            "grid.field_validation_s": (incl["grid.field"], "s"),
            "grid.nearest_fill_calls": (c["grid.nearest_fill"], "count"),
            "grid.nearest_fill_s": (incl["grid.nearest_fill"], "s"),
            "trajectories.advect_steps": (w["trajectories.advect_steps"], "count"),
            "trajectories.advect_s": (incl["trajectories.advect"], "s"),
            "trajectories.advect_us_per_step": (
                ratio(incl["trajectories.advect"], w["trajectories.advect_steps"], 1e6), "us"),
            "trajectories.flow_lookups": (c["trajectories.flow_lookup"], "count"),
            "trajectories.flow_lookup_s": (incl["trajectories.flow_lookup"], "s"),
            "trajectories.seed_parcels_s": (incl["trajectories.seed_parcels"], "s"),
            "trajectories.write_csv_s": (incl["trajectories.write_csv"], "s"),
            "trajectories.csv_bytes": (w["trajectories.csv_bytes"], "B"),
            "harness.scenario_runs": (c["harness.scenario_build"], "count"),
            "harness.collect_flow_calls": (c["harness.collect_flow"], "count"),
            "harness.collect_flow_self_s": (self_s["harness.collect_flow"], "s"),
            "harness.flow_samples": (w["harness.flow_samples"], "count"),
            "harness.flow_history_mib": (self.flow_bytes_max / 2**20, "MiB"),
            "harness.checks_judged": (w["harness.checks_judged"], "count"),
            "harness.checks_s": (self.checks_s, "s"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "special.airy_ai_calls": (c["special.airy_ai"], "count"),
            "special.airy_ai_s": (incl["special.airy_ai"], "s"),
        }

    def sizes(self) -> list:
        """Per-call cost of each sized layer, one row per (layer, size); the
        size is the grid size, or the step count for advection."""
        rows = []
        for (name, n), (calls, incl, self_s) in sorted(self.by_size.items()):
            rows.append({"layer": name, "size": n, "calls": calls,
                         "us_per_call": incl / calls * 1e6 if calls else 0.0,
                         "self_us_per_call": self_s / calls * 1e6 if calls else 0.0})
        return rows
