"""The repository's benchmark: one command, end-to-end or per-layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads are defined in :mod:`loads`.  Every campaign runs in a fresh
campaign process (:mod:`proc`) at ``jobs=1``; campaigns run back to
back, each starting when the previous one has stored its last trial,
until ``--seconds`` of wall time have been spent.

Host time is read from each campaign process's CPU clock and reported
in *reference seconds*: CPU seconds times :data:`REF_SAMPLE_S` over the
mean time of ``proc.speed_sample``, a fixed piece of Python work timed
every 50 ms of the same measurement.  On a shared host whose speed
drifts by up to 2x within seconds, this keeps a run's figures within a
few percent of the next run's; the unnormalized figures are printed in
the ledger lines too.

``--trace 0`` prints the end-to-end metrics, measured untraced:

- ``setup_s``: median over several fresh processes of the time from
  process start to a constructed ``ObservationCampaign``;
- ``trials_per_s``: median over campaign processes of trials stored per
  second after set-up;
- ``trial_s.p50`` / ``trial_s.p90``: seconds between consecutive
  ``on_result`` callbacks (``p99`` too in the ledger lines, from 1000
  samples);
- ``peak_rss_mb``: median peak resident memory of a campaign process.

``--trace 1`` prints the per-layer metrics of :mod:`probes`, from a
traced leg, an untraced leg of half as many campaigns (for the tracing
overhead) and one traced campaign with the hot-path caches disabled.

Every campaign's observation digests must agree across all campaign
processes of the run, with the committed ``golden.json`` where it holds
the seed's digests (``loads.GOLDEN_SEEDS``; the scenario matrix does not
depend on the seed), and with its run card; every scenario must meet its
expected ranges.  At any other seed the digests are printed.  A
miss fails the campaign's trials, prints ``"correct": false`` and makes
the command exit 1.  The last line of standard output is the JSON
result; the lines before it are the human-readable ledger.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loads  # noqa: E402

#: Fresh set-up processes timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Nominal time of one ``proc.speed_sample`` call (about its mean on a
#: quiet 2.1 GHz x86-64 host under CPython 3.11): a reference second is
#: the CPU time in which the sample would run 1 / REF_SAMPLE_S times.
REF_SAMPLE_S = 300e-6
#: Speed samples a trial interval must hold to be normalized by the
#: speed measured during it rather than over its whole process.
LOCAL_SAMPLES = 5
#: Wall seconds a whole run may take: a process still running when they
#: are spent is killed and counted failed, so the command always ends
#: within three minutes.
RUN_BUDGET_S = 170
CACHE_NAMES = ("generator.bundle", "generator.chassis", "shellvm.parse",
               "shellvm.compile", "vcluster.archive", "vcluster.unarchive",
               "vcluster.extract")


class Ledger:
    """Correctness bookkeeping shared by every leg of one run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        golden = json.loads((HERE / "golden.json").read_text())
        by_seed = golden[workload.name]
        self.expected = by_seed.get(str(seed), by_seed.get("*", {}))
        self.seen = {}      # campaign name -> digests of the first run
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def crashed(self, why):
        self.attempted += 1
        self.failed += 1
        self.problems.append(why)

    def check(self, proc):
        for campaign in proc["campaigns"]:
            name = campaign["name"]
            problems = list(campaign["problems"])
            digests = campaign["digests"]
            reference = self.expected.get(name) or self.seen.get(name)
            if self.expected and name not in self.expected:
                problems.append(f"{name}: no golden digests")
            if reference is not None and digests != reference:
                problems.append(f"{name}: observation digests {digests} "
                                f"differ from {reference}")
            self.seen.setdefault(name, digests)
            self.attempted += campaign["trials"]
            if problems:
                self.failed += campaign["trials"]
                self.problems.extend(problems)
            else:
                self.failed += campaign["failed"]
        if not proc["campaigns"]:
            self.crashed("campaign process ran no campaign")

    @property
    def correct(self):
        return not self.problems and self.failed == 0 and self.attempted > 0


def spawn(ledger, mode, traced=False, caches=True):
    config = {"workload": ledger.workload.name, "seed": ledger.seed,
              "mode": mode, "traced": traced, "caches": caches}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "proc.py"), json.dumps(config)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, ledger.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        ledger.crashed(f"{mode} process timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        ledger.crashed(f"{mode} process exited {done.returncode}")
        return None
    proc = json.loads(lines[-1])
    if mode == "run":
        ledger.check(proc)
    return proc


def run_leg(ledger, seconds=None, count=None, setups=None, **kwargs):
    """Campaign processes back to back: for *seconds* of wall time (at
    least one), or exactly *count* of them.  With a *setups* list, one
    set-up process is timed before each campaign process, so set-up
    samples spread over the whole run."""
    procs = []
    deadline = time.monotonic() + (seconds or 0)
    while True:
        if setups is not None:
            time_setup(ledger, setups)
        proc = spawn(ledger, "run", **kwargs)
        if proc is None:
            break
        procs.append(proc)
        if count is not None and len(procs) >= count:
            break
        if count is None and time.monotonic() >= deadline:
            break
    return procs


def time_setup(ledger, setups):
    proc = spawn(ledger, "setup")
    if proc is not None:
        setups.append(proc)


def cpu_seconds(proc, start, end, normalize=True):
    """CPU seconds the program spent between *start* and *end* of one
    process's clock: the speed samples taken in between are subtracted,
    and the rest is scaled to reference seconds by the mean sample time
    measured in between (or over the whole process when fewer than
    :data:`LOCAL_SAMPLES` fall in between)."""
    samples = proc["speed"]
    inside = samples[bisect.bisect_left(samples, [start]):
                     bisect.bisect_left(samples, [end])]
    spent = end - start - sum(d for _, d in inside)
    if not normalize:
        return spent
    return spent * ref_scale(inside if len(inside) >= LOCAL_SAMPLES
                             else samples)


def ref_scale(samples):
    """Reference seconds per CPU second while *samples* were taken."""
    return REF_SAMPLE_S * len(samples) / sum(d for _, d in samples)


def run_seconds(procs, normalize=True):
    """Seconds after set-up, summed over campaign processes."""
    return sum(cpu_seconds(p, p["ready"], p["end"], normalize) for p in procs)


def interval_seconds(procs, normalize=True):
    """Every trial interval of *procs*."""
    return [cpu_seconds(p, start, end, normalize)
            for p in procs for start, end in p["intervals"]]


def trial_count(procs):
    return sum(c["trials"] for p in procs for c in p["campaigns"])


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ledger, seconds):
    setups = []
    procs = run_leg(ledger, seconds, setups=setups)
    while len(setups) < SETUP_SAMPLES and procs:
        time_setup(ledger, setups)
    if not procs or not setups:
        return {}
    trials = trial_count(procs)
    intervals = interval_seconds(procs)
    raw = interval_seconds(procs, normalize=False)
    metrics = {
        "setup_s": metric(statistics.median(
            cpu_seconds(p, 0.0, p["ready"]) for p in setups), "s"),
        "trials_per_s": metric(statistics.median(
            trial_count([p]) / run_seconds([p]) for p in procs), "1/s"),
        "trial_s.p50": metric(statistics.median(intervals), "s"),
        "trial_s.p90": metric(percentile(intervals, 90), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in procs),
                              "MB"),
    }
    print(f"campaign processes: {len(procs)}, trials: {trials}, "
          f"set-up samples: {len(setups)}")
    print(f"host.ref_loop_s: {speed(procs):.6g} (nominal {REF_SAMPLE_S})")
    raw_setup = statistics.median(cpu_seconds(p, 0.0, p["ready"], False)
                                  for p in setups)
    print(f"unnormalized: setup_s {raw_setup:.6g} s, trials_per_s "
          f"{trials / run_seconds(procs, False):.6g} 1/s, "
          f"trial_s.p50 {statistics.median(raw):.6g} s, "
          f"trial_s.p90 {percentile(raw, 90):.6g} s")
    if len(intervals) >= 1000:
        print(f"trial_s.p99: {percentile(intervals, 99):.6g} s "
              f"({len(intervals)} samples)")
    return metrics


def speed(procs):
    """Mean speed-sample time over every sample of *procs*."""
    samples = [d for p in procs for _, d in p["speed"]]
    return sum(samples) / len(samples)


def per_layer(ledger, seconds):
    traced = run_leg(ledger, seconds, traced=True)
    if not traced:
        return {}
    plain = run_leg(ledger, count=(len(traced) + 1) // 2)
    cold = run_leg(ledger, count=1, traced=True, caches=False)
    if not plain or not cold:
        return {}
    wall = run_seconds(traced, normalize=False)

    def per_proc(pick):
        return statistics.median(pick(p) for p in traced)

    def total(section, key):
        return sum(p["probes"][section].get(key, 0.0) for p in traced)

    def count(section, key, unit="count"):
        return metric(per_proc(lambda p: p["probes"][section].get(key, 0)),
                      unit)

    def ref_seconds(pick):
        """Median per campaign process, in reference seconds."""
        return metric(per_proc(lambda p: pick(p) * ref_scale(p["speed"])),
                      "s")

    def probe_seconds(key):
        return ref_seconds(lambda p: p["probes"]["seconds"].get(key, 0.0))

    def share(seconds_total):
        return metric(100.0 * seconds_total / wall, "%")

    metrics = {
        "spec.parse_s": probe_seconds("spec.parse"),
        "vcluster.build_s": probe_seconds("vcluster.build"),
        "generator.files": count("values", "generator.files"),
        "shellvm.script_pct": share(total("span_self", "script")),
        "shellvm.scripts": count("span_count", "script"),
        "sim.run_pct": share(total("span_total", "sim.run")),
        "monitoring.render_log_pct": share(
            total("seconds", "monitoring.render_log")),
        "monitoring.summarize_pct": share(
            total("seconds", "monitoring.summarize")),
        "monitoring.log_bytes": count("values", "monitoring.log_bytes",
                                      "bytes"),
        "collect.parse_pct": share(total("span_self", "collect.parse")),
        "analytic.solve_pct": share(total("seconds", "analytic.solve")),
        "analytic.iterations": count("values", "analytic.iterations"),
        "results.insert_s": probe_seconds("results.insert"),
        "results.batches": count("values", "results.batches"),
        "results.rows": count("values", "results.rows"),
        "provenance.card_s": probe_seconds("provenance.card"),
        "campaign.unattributed_s": ref_seconds(unattributed),
    }
    for phase in ("allocate", "generate", "deploy", "verify", "simulate",
                  "collect", "analyze", "teardown"):
        metrics[f"{phase}.self_pct"] = share(total("span_self", phase))
    for key in ("sim.events", "sim.scheduled", "sim.cancelled",
                "sim.requests"):
        metrics[key] = count("values", key)
    run_s = sum(p["probes"]["span_total"].get("sim.run", 0.0)
                * ref_scale(p["speed"]) for p in traced)
    metrics["sim.events_per_s"] = metric(
        total("values", "sim.events") / run_s if run_s else 0.0, "1/s")
    scheduled = total("values", "sim.scheduled")
    metrics["sim.tombstone_ratio"] = metric(
        total("values", "sim.cancelled") / scheduled if scheduled else 0.0,
        "ratio")
    solves = total("values", "analytic.solves")
    metrics["analytic.converged_ratio"] = metric(
        total("values", "analytic.converged") / solves if solves else 0.0,
        "ratio")
    for name in CACHE_NAMES:
        hits, misses = (per_proc(lambda p: p["cache_stats"].get(
            name, {}).get(key, 0)) for key in ("hits", "misses"))
        metrics[f"cache.{name}.hits"] = metric(hits, "count")
        metrics[f"cache.{name}.misses"] = metric(misses, "count")
        metrics[f"cache.{name}.hit_ratio"] = metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["hotpath.saved_s"] = metric(
        run_seconds(cold) - per_proc(lambda p: run_seconds([p])), "s")
    metrics["runner.attempts_failed"] = metric(per_proc(
        lambda p: p["counters"].get("runner.attempts_failed", 0)), "count")
    metrics["runner.node_wait_pct"] = share(sum(
        p["counters"].get("runner.node_wait_s", 0.0) for p in traced))
    metrics["trace.overhead_ratio"] = metric(
        (run_seconds(traced) / trial_count(traced))
        / (run_seconds(plain) / trial_count(plain)), "ratio")
    metrics["host.ref_loop_s"] = metric(speed(traced), "s")
    print(f"traced campaign processes: {len(traced)}, trials: "
          f"{trial_count(traced)}; untraced: {len(plain)}; caches off: 1")
    print("where the traced host time after set-up went:")
    shares = {key: value["value"] for key, value in metrics.items()
              if value["unit"] == "%"}
    for key in ("results.insert", "provenance.card"):
        shares[f"{key} (s)"] = 100.0 * total("seconds", key) / wall
    shares["campaign.unattributed (s)"] = 100.0 * sum(
        unattributed(p) for p in traced) / wall
    for key in sorted(shares, key=lambda k: -shares[k]):
        if shares[key] >= 0.05:
            print(f"  {key:30s} {shares[key]:6.2f}%")
    return metrics


def unattributed(proc):
    """CPU seconds after set-up outside trial spans, inserts and the run
    card."""
    probes = proc["probes"]
    return run_seconds([proc], normalize=False) \
        - probes["span_total"].get("trial", 0.0) \
        - probes["seconds"].get("results.insert", 0.0) \
        - probes["seconds"].get("provenance.card", 0.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=loads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ledger = Ledger(loads.WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    measure = per_layer if args.trace else end_to_end
    metrics = measure(ledger, args.seconds)
    if not metrics:
        ledger.problems.append("no measurement completed")
    if not ledger.expected:
        print(f"digests at seed {args.seed}: "
              f"{json.dumps(ledger.seen, sort_keys=True)}")
    for problem in ledger.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"attempted {ledger.attempted}, failed {ledger.failed}, "
          f"failed_ratio {ledger.failed / max(ledger.attempted, 1):.6g}")
    correct = ledger.correct
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
