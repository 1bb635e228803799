"""One campaign process of the benchmark: a fresh interpreter with cold
caches, as a ``repro run`` user pays them.

Usage: ``python3 perfbench/proc.py '<json config>'`` with the keys
``workload``, ``seed``, ``mode`` (``"setup"`` or ``"run"``), ``traced``
and ``caches``.  The last line of standard output is one JSON object.

``setup`` mode imports ``repro``, builds the workload's first
``ObservationCampaign`` and reports the process's CPU time at that
point, which counts interpreter start-up too.  ``run`` mode also runs
the workload at ``jobs=1``, timing every ``on_result`` callback, and
reports per-campaign observation digests and output checks; traced, it
also reports the per-layer totals of :mod:`probes`.

All times here are read from :data:`CLOCK`, the main thread's CPU
clock: at ``jobs=1`` the campaign runs in this thread and never waits on
I/O (its database is in memory), so CPU time is its host time minus the
time other processes on a shared host held the CPU.  (The process-wide
CPU clock only advances at scheduler ticks while a profiling timer is
armed, so it cannot time a sample.)  Throughout, a
:class:`SpeedSampler` times a fixed piece of Python work, so the
host's speed can be normalized out as well.
"""

from __future__ import annotations

import gc
import heapq
import json
import pathlib
import resource
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

CLOCK = time.thread_time
#: CPU time between two speed samples.
SAMPLE_PERIOD_S = 0.05


class _Item:
    __slots__ = ("key", "seq")

    def __init__(self, key, seq):
        self.key = key
        self.seq = seq


def speed_sample():
    """A fixed slice of pure-Python work shaped like the program's own:
    arithmetic, object construction and attribute reads, heap and dict
    traffic, string formatting and parsing."""
    total = 0
    for i in range(1000):
        total += i * i % 7
    heap = []
    counts = {}
    for i in range(150):
        item = _Item(i * 7919 % 1009, i)
        heapq.heappush(heap, (item.key, item.seq, item))
        counts[i & 63] = counts.get(i & 63, 0) + item.seq
        if len(heap) > 32:
            heapq.heappop(heap)
    fields = []
    for i in range(100):
        line = f"{i} GET /item?id={i * 31} 200 {total % 97}"
        fields.append(line.split(" ")[2].partition("=")[2])
    return len(counts) + len(fields)


class SpeedSampler:
    """Times :func:`speed_sample` every :data:`SAMPLE_PERIOD_S` of CPU
    time (``SIGPROF``).  A shared host's speed drifts by up to 2x within
    seconds; the mean sample time over a measurement is the reference
    its CPU time is normalized by."""

    def __init__(self):
        self.samples = []

    def _tick(self, _signum, _frame):
        # A garbage collection the sample's allocations happen to
        # trigger would charge the program's heap to the sample.
        collecting = gc.isenabled()
        gc.disable()
        start = CLOCK()
        speed_sample()
        self.samples.append((start, CLOCK() - start))
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def take(self):
        """The ``(start, seconds)`` samples since the last take."""
        if not self.samples:
            # A span shorter than one period: sample once now.
            self._tick(None, None)
        samples, self.samples = self.samples, []
        return samples


def import_repro():
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"no repro sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SOURCE / "repro":
        sys.exit(f"imported repro from {repro.__file__}, not {SOURCE}")


class Ticker:
    """``on_result`` callback: the ``(start, end)`` interval between
    consecutive stored trials, the first one starting when the campaign
    run starts."""

    def __init__(self, intervals, probes):
        self.intervals = intervals
        self.probes = probes
        self.trials = 0
        self.failed = 0
        self.last = CLOCK()

    def __call__(self, result):
        now = CLOCK()
        self.intervals.append((self.last, now))
        self.last = now
        self.trials += 1
        if result.failures:
            self.failed += 1
        if self.probes is not None:
            self.probes.add_spans(result.spans)


def observation_digests(database):
    """SHA-256 of each observation table of *database*."""
    from loads import OBSERVATION_TABLES
    from repro import provenance

    tables = provenance.table_digests(database)
    return {table: tables[table]["sha256"] for table in OBSERVATION_TABLES}


def campaign_summary(name, report, ticker, problems):
    from repro import provenance

    database = report.database
    problems = list(problems)
    cards = database.run_cards()
    if cards:
        problems += provenance.verify_run_card(cards[-1], database)
    else:
        problems.append("campaign stored no run card")
    if ticker.trials != report.trials:
        problems.append(f"{ticker.trials} on_result callbacks for "
                        f"{report.trials} stored trials")
    return {"name": name, "trials": ticker.trials, "failed": ticker.failed,
            "digests": observation_digests(database),
            "problems": problems}


def main(config):
    import loads

    sampler = SpeedSampler().start()
    workload = loads.WORKLOADS[config["workload"]]
    seed = config["seed"]
    import_repro()
    from repro.core.campaign import ObservationCampaign

    if config["mode"] == "setup":
        if workload.seeded:
            tbl = workload.tbl(seed)
        else:
            from repro.scenarios import compile_scenario, get_scenario

            tbl = compile_scenario(get_scenario(loads.SCENARIO_NAMES[0]))
        ObservationCampaign(tbl)
        ready = CLOCK()
        sampler.stop()
        return {"ready": ready, "speed": sampler.take()}

    from contextlib import nullcontext

    from repro import Tracer, api, hotpath

    probes = tracer = None
    if config["traced"]:
        from probes import Probes

        probes = Probes()
        probes.install()
        tracer = Tracer(clock=CLOCK)
    intervals = []
    finished = []       # (name, report, ticker, problems)
    caches = nullcontext() if config["caches"] \
        else hotpath.caches_disabled()
    with caches:
        if workload.seeded:
            campaign = ObservationCampaign(workload.tbl(seed), tracer=tracer)
            ready = CLOCK()
            sampler.take()
            ticker = Ticker(intervals, probes)
            report = campaign.run(on_result=ticker,
                                  fidelity=workload.fidelity)
            finished.append((workload.name, report, ticker, ()))
        else:
            ready = CLOCK()
            sampler.take()
            for name in loads.SCENARIO_NAMES:
                ticker = Ticker(intervals, probes)
                outcome = api.run_scenario(name, tracer=tracer,
                                           on_result=ticker)
                finished.append((name, outcome.report, ticker,
                                 outcome.failures))
        end = CLOCK()
    sampler.stop()
    out = {
        "ready": ready,
        "end": end,
        "speed": sampler.take(),
        "intervals": intervals,
        "campaigns": [campaign_summary(*item) for item in finished],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache_stats": hotpath.stats(),
    }
    if probes is not None:
        out["probes"] = probes.snapshot()
        out["counters"] = dict(tracer.counters)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
