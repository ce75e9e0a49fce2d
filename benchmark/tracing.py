"""Per-layer tracing of one `egorov` command, from outside the program.

`Tracer.install()` replaces public functions of each `egorov` module with
wrappers that record a span (id, name, start, end, parent, thread) around
every call.  A name is replaced in the namespace where its caller looks it up,
for example `egorov.experiments.propagate_snapshots`, which is where
`run_corrected` finds it.  Spans stay in memory; `layer_metrics()` reduces
them to the per-layer metrics and `write()` dumps them as JSON.
`Tracer.remove()` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import Counter

import egorov.cli
import egorov.correction
import egorov.experiments
import egorov.flow
import egorov.reference
from egorov.potentials import TorsionalPotential
from egorov.reference import WaveFunctionGrid


def _steps(times, tau) -> int:
    """Whole steps of nominal size tau over the snapshot segments from 0."""
    bounds = [0.0] + [float(t) for t in times]
    return sum(round((b - a) / tau) for a, b in zip(bounds, bounds[1:]))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident())
            )

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced wrapper; `count(args, result)`
        returns extra work counts to add."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, args, kwargs)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        self._replace(owner, attr, traced)

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        cli, exp, ref = egorov.cli, egorov.experiments, egorov.reference
        corr, flow = egorov.correction, egorov.flow
        self.wrap(cli, "load_config", "cli.parse")
        self.wrap(cli, "write_rows_csv", "cli.write")
        self.wrap(cli, "write_metadata", "cli.write")
        self.wrap(exp, "sample_points", "sampling.sample_points",
                  lambda a, r: {"sampling.points": len(r)})
        self.wrap(exp, "propagate_snapshots", "flow.propagate_snapshots",
                  lambda a, r: {"flow.sample_steps": len(a[0]) * _steps(a[1], a[2])})
        self.wrap(flow, "drift", "flow.drift")
        self.wrap(flow, "kick", "flow.kick")
        for order in ("gradient", "hessian", "third", "fourth"):
            self.wrap(TorsionalPotential, order, f"potentials.{order}")
        self.wrap(exp, "evolve_correction_snapshots",
                  "correction.evolve_correction_snapshots",
                  lambda a, r: {"correction.sample_steps": len(a[0]) * _steps(a[1], a[2])})
        for sub in ("psi1", "psi2", "psi3"):
            self.wrap(corr, f"sub_flow_{sub}", f"correction.sub_flow_{sub}")
        self.wrap(exp, "a2_eval", "correction.a2_eval")
        self.wrap(corr, "tilde_d3", "tensor_ops.tilde_d3")
        self._replace(exp, "make_observable", self._traced_observables(exp.make_observable))
        self.wrap(exp, "reference_expectations", "reference.reference_expectations",
                  lambda a, r: {"reference.steps": _steps(a[3], a[4])})
        self.wrap(ref, "fftn", "reference.fftn")
        self.wrap(ref, "ifftn", "reference.ifftn")
        self.wrap(ref, "expectation", "reference.expectation")
        self.wrap(WaveFunctionGrid, "norm", "reference.monitor")
        self.wrap(WaveFunctionGrid, "boundary_mass", "reference.monitor")
        self._replace(exp, "ThreadPoolExecutor", self._traced_pool(exp.ThreadPoolExecutor))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _traced_observables(self, make_observable):
        """make_observable whose observables time value() and derivatives."""

        def traced(name, potential):
            obs = make_observable(name, potential)

            def timed(label, fn):
                return lambda *args: self.call(label, fn, args, {})

            return dataclasses.replace(
                obs,
                value=timed("observables.value", obs.value),
                grad=timed("observables.derivatives", obs.grad),
                hess=timed("observables.derivatives", obs.hess),
                third=timed("observables.derivatives", obs.third),
            )

        return traced

    def _traced_pool(self, pool_class):
        """The executor class with each task in a chunk span (parented to the
        span that submitted it) and its worker capacity recorded."""
        tracer = self

        class TracedPool(pool_class):
            def __enter__(self):
                self._traced_start = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                result = super().__exit__(*exc)
                wall = time.perf_counter() - self._traced_start
                tracer.counts["experiments.capacity_s"] += self._max_workers * wall
                return result

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(
                    lambda: tracer.call("experiments.chunk", fn, args, kwargs, parent)
                )

        return TracedPool

    def _totals(self) -> dict:
        """{span name: [seconds, calls]}; seconds count only spans with no
        ancestor of the same name, so recursion is not counted twice."""
        by_id = {span[0]: span for span in self.spans}
        totals = {}
        for span_id, name, start, end, parent, _ in self.spans:
            entry = totals.setdefault(name, [0.0, 0])
            entry[1] += 1
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent is None:
                entry[0] += end - start
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        totals = self._totals()
        out = {}

        def busy(span):
            return totals.get(span, (0.0, 0))

        def seconds(metric, span):
            out[metric] = (busy(span)[0], "s")

        def calls(metric, span):
            out[metric] = (busy(span)[1], "count")

        def counted(metric):
            out[metric] = (self.counts[metric], "count")

        def per_step(metric, span, steps, scale, unit):
            total, work = busy(span)[0], self.counts[steps]
            out[metric] = (total / work * scale if work else 0.0, unit)

        seconds("sampling.sample_points_s", "sampling.sample_points")
        counted("sampling.points")
        seconds("flow.propagate_snapshots_s", "flow.propagate_snapshots")
        counted("flow.sample_steps")
        per_step("flow.us_per_sample_step", "flow.propagate_snapshots",
                 "flow.sample_steps", 1e6, "us")
        calls("flow.drift_calls", "flow.drift")
        calls("flow.kick_calls", "flow.kick")
        for order in ("gradient", "hessian", "third", "fourth"):
            seconds(f"potentials.{order}_s", f"potentials.{order}")
            calls(f"potentials.{order}_calls", f"potentials.{order}")
        seconds("correction.evolve_correction_snapshots_s",
                "correction.evolve_correction_snapshots")
        counted("correction.sample_steps")
        per_step("correction.us_per_sample_step", "correction.evolve_correction_snapshots",
                 "correction.sample_steps", 1e6, "us")
        for sub in ("psi1", "psi2", "psi3"):
            calls(f"correction.sub_flow_{sub}_calls", f"correction.sub_flow_{sub}")
        seconds("correction.sub_flow_psi2_s", "correction.sub_flow_psi2")
        seconds("correction.sub_flow_psi3_s", "correction.sub_flow_psi3")
        seconds("correction.a2_eval_s", "correction.a2_eval")
        calls("correction.a2_eval_calls", "correction.a2_eval")
        seconds("tensor_ops.tilde_d3_s", "tensor_ops.tilde_d3")
        calls("tensor_ops.tilde_d3_calls", "tensor_ops.tilde_d3")
        seconds("observables.value_s", "observables.value")
        seconds("observables.derivatives_s", "observables.derivatives")
        chunk_s, chunks = busy("experiments.chunk")
        out["experiments.chunks"] = (chunks, "count")
        out["experiments.busy_s"] = (chunk_s, "s")
        out["experiments.idle_s"] = (self.counts["experiments.capacity_s"] - chunk_s, "s")
        seconds("reference.reference_expectations_s", "reference.reference_expectations")
        counted("reference.steps")
        per_step("reference.ms_per_step", "reference.reference_expectations",
                 "reference.steps", 1e3, "ms")
        calls("reference.fftn_calls", "reference.fftn")
        calls("reference.ifftn_calls", "reference.ifftn")
        seconds("reference.expectation_s", "reference.expectation")
        seconds("reference.monitor_s", "reference.monitor")
        seconds("cli.parse_s", "cli.parse")
        seconds("cli.write_s", "cli.write")
        return out

    def write(self, path):
        t0 = min((s[2] for s in self.spans), default=0.0)
        fields = ("id", "name", "start", "end", "parent", "thread")
        records = [
            dict(zip(fields, (i, n, s - t0, e - t0, p, th)))
            for i, n, s, e, p, th in self.spans
        ]
        path.write_text(json.dumps(records) + "\n")
