"""Per-layer instruments for the traced leg, all on the benchmark side.

Layers that already open a span (the trial phases, ``script``,
``sim.run``, ``collect.parse``) are read from the span tree that a
``Tracer`` on the process's CPU clock leaves on every ``TrialResult``.
Public calls that open no span are wrapped here, by rebinding the name
the caller looks up:

- ``spec.tbl.parse`` and ``load_resource_model`` as the campaign calls
  them, and ``VirtualCluster(...)``;
- ``ResultsDatabase.insert_many`` and ``provenance.build_run_card``;
- ``render_request_log``, ``summarize_log`` and
  ``summarize_log_by_state`` at the runner's call site;
- ``analytic.solve_model`` and ``analytic.solve_open``;
- ``Simulator.schedule`` and ``Event.cancel``, counted but not timed.

Nothing under ``src/`` changes; the wrappers are installed in the
campaign process before the campaign is built.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from proc import CLOCK


class Probes:
    """Accumulates wrapper timings, counts and span-tree totals."""

    def __init__(self):
        self.seconds = defaultdict(float)   # wrapper metric -> seconds
        self.values = defaultdict(float)    # counts and sizes
        self.span_self = defaultdict(float)  # span name -> self seconds
        self.span_total = defaultdict(float)  # span name -> duration
        self.span_count = defaultdict(int)
        self._depth = defaultdict(int)

    def timed(self, metric, fn, after=None):
        """*fn* timed into ``seconds[metric]``; an inner call of the
        same metric is not counted twice."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[metric]:
                return fn(*args, **kwargs)
            self._depth[metric] += 1
            start = CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[metric] += CLOCK() - start
                self._depth[metric] -= 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, metric, fn):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        from repro import provenance
        from repro.core import campaign
        from repro.experiments import runner
        from repro.results.database import ResultsDatabase
        from repro.sim import analytic, engine

        values = self.values

        def rows(args, _out):
            values["results.rows"] += len(args[1])
            values["results.batches"] += 1

        def log_bytes(_args, text):
            values["monitoring.log_bytes"] += len(text.encode())

        def solved(_args, result):
            values["analytic.solves"] += 1
            values["analytic.iterations"] += result.iterations
            values["analytic.converged"] += bool(result.converged)

        campaign.parse_tbl = self.timed("spec.parse", campaign.parse_tbl)
        campaign.load_resource_model = self.timed(
            "spec.parse", campaign.load_resource_model)
        campaign.VirtualCluster = self.timed("vcluster.build",
                                             campaign.VirtualCluster)
        ResultsDatabase.insert_many = self.timed(
            "results.insert", ResultsDatabase.insert_many, after=rows)
        provenance.build_run_card = self.timed("provenance.card",
                                               provenance.build_run_card)
        runner.render_request_log = self.timed(
            "monitoring.render_log", runner.render_request_log,
            after=log_bytes)
        for name in ("summarize_log", "summarize_log_by_state"):
            setattr(runner, name, self.timed("monitoring.summarize",
                                             getattr(runner, name)))
        for name in ("solve_model", "solve_open"):
            setattr(analytic, name, self.timed(
                "analytic.solve", getattr(analytic, name), after=solved))
        engine.Simulator.schedule = self.counted(
            "sim.scheduled", engine.Simulator.schedule)
        engine.Event.cancel = self.counted("sim.cancelled",
                                           engine.Event.cancel)

    def add_spans(self, records):
        """Fold one trial's flattened span tree into the totals.

        A span's self time is its duration minus the time its
        children cover (children never overlap at ``jobs=1``).
        """
        covered = defaultdict(float)
        for record in records:
            covered[record.parent_id] += record.duration_s
        for record in records:
            name = record.name
            self.span_total[name] += record.duration_s
            self.span_self[name] += record.duration_s \
                - covered[record.span_id]
            self.span_count[name] += 1
            attributes = record.attributes
            if name == "generate":
                self.values["generator.files"] += attributes.get("files", 0)
            elif name == "sim.run":
                self.values["sim.events"] += attributes.get("events", 0)
                self.values["sim.requests"] += attributes.get("requests", 0)

    def snapshot(self):
        return {"seconds": dict(self.seconds), "values": dict(self.values),
                "span_self": dict(self.span_self),
                "span_total": dict(self.span_total),
                "span_count": dict(self.span_count)}
