"""Render the trace plane of an observation database.

``repro trace <run-db>`` prints three sections built from the ``spans``
table: a per-trial breakdown of the eight lifecycle phases, a ranking
of the slowest phases across the whole run, and per-worker utilization
(how busy each scheduler worker was over the run's wall-clock window).
"""

from __future__ import annotations

from repro.errors import ResultsError
from repro.obs.tracer import TRIAL_PHASES, TRIAL_SPAN


def _ms(seconds):
    return seconds * 1000.0


def phase_durations(spans):
    """``{phase: seconds}`` for one trial's spans (direct phases only)."""
    durations = {}
    for span in spans:
        if span.name in TRIAL_PHASES:
            durations[span.name] = durations.get(span.name, 0.0) \
                + span.duration_s
    return durations


def trial_label(info):
    label = (f"{info['experiment_name']} {info['topology']} "
             f"u={info['workload']} wr={info['write_ratio']:.0%} "
             f"s{info['seed']}")
    # Scenario identity joins the label only when set, so plain-sweep
    # (and pre-scenario) traces render exactly as before.
    scenario = info.get("scenario")
    if scenario:
        label += f" [{scenario}]"
    return label


def render_phase_breakdown(traced, limit=None):
    """Per-trial table: one row per trial, one column per phase (ms),
    plus the fidelity tier each trial ran at (``des``/``analytic``)."""
    rows = []
    label_width = max([len(trial_label(info)) for info, _ in traced]
                      + [len("trial")])
    header = f"{'trial':<{label_width}} {'tier':<8}"
    for phase in TRIAL_PHASES:
        header += f" {phase[:8]:>9}"
    header += f" {'total':>9}"
    rows.append(header)
    rows.append("-" * len(header))
    shown = traced if limit is None else traced[:limit]
    for info, spans in shown:
        durations = phase_durations(spans)
        total = next((s.duration_s for s in spans
                      if s.name == TRIAL_SPAN), 0.0)
        tier = info.get("fidelity") or "des"
        line = f"{trial_label(info):<{label_width}} {tier:<8}"
        for phase in TRIAL_PHASES:
            line += f" {_ms(durations.get(phase, 0.0)):>9.2f}"
        line += f" {_ms(total):>9.2f}"
        rows.append(line)
    if limit is not None and len(traced) > limit:
        rows.append(f"... and {len(traced) - limit} more trials")
    return "\n".join(rows)


def render_phase_ranking(traced):
    """Phases ranked by mean duration across every traced trial."""
    totals = {phase: 0.0 for phase in TRIAL_PHASES}
    trials = len(traced)
    for _info, spans in traced:
        for phase, duration in phase_durations(spans).items():
            totals[phase] = totals.get(phase, 0.0) + duration
    grand = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
    rows = [f"{'phase':<10} {'mean ms':>10} {'total s':>10} {'share':>7}",
            "-" * 40]
    for phase, total in ranked:
        rows.append(f"{phase:<10} {_ms(total) / max(trials, 1):>10.2f} "
                    f"{total:>10.3f} {total / grand:>6.1%}")
    return "\n".join(rows)


def render_worker_utilization(traced):
    """Per-worker busy time over the run's wall-clock window.

    The worker identity is the ``worker`` attribute the runner stamps
    on every trial span (``pid/thread``); utilization is that worker's
    summed trial time over the whole run's first-start..last-end span
    window, so idle gaps (waiting for tasks or cluster nodes) show up
    as missing utilization.
    """
    by_worker = {}
    window_start = None
    window_end = None
    for _info, spans in traced:
        for span in spans:
            if span.name != TRIAL_SPAN:
                continue
            worker = span.attributes.get("worker", "?")
            busy, trials = by_worker.get(worker, (0.0, 0))
            by_worker[worker] = (busy + span.duration_s, trials + 1)
            end = span.start_s + span.duration_s
            window_start = span.start_s if window_start is None \
                else min(window_start, span.start_s)
            window_end = end if window_end is None \
                else max(window_end, end)
    if not by_worker:
        return "no trial spans recorded"
    wall = max((window_end - window_start), 1e-9)
    rows = [f"{'worker':<24} {'trials':>7} {'busy s':>9} {'util':>7}",
            "-" * 50]
    for worker in sorted(by_worker):
        busy, trials = by_worker[worker]
        rows.append(f"{worker:<24} {trials:>7} {busy:>9.3f} "
                    f"{busy / wall:>6.1%}")
    rows.append(f"wall-clock window: {wall:.3f} s across "
                f"{len(by_worker)} worker(s)")
    return "\n".join(rows)


def render_slowest_scripts(traced, limit=10):
    """The generated scripts that cost the most interpreter time."""
    totals = {}
    for _info, spans in traced:
        for span in spans:
            if span.name != "script":
                continue
            path = span.attributes.get("path", "?")
            name = path.rsplit("/", 1)[-1]
            total, count = totals.get(name, (0.0, 0))
            totals[name] = (total + span.duration_s, count + 1)
    if not totals:
        return None
    ranked = sorted(totals.items(), key=lambda kv: kv[1][0], reverse=True)
    rows = [f"{'script':<34} {'runs':>6} {'total ms':>10} {'mean ms':>9}",
            "-" * 62]
    for name, (total, count) in ranked[:limit]:
        rows.append(f"{name:<34} {count:>6} {_ms(total):>10.2f} "
                    f"{_ms(total) / count:>9.2f}")
    return "\n".join(rows)


def render_injected_faults(traced):
    """Fault and quarantine spans the chaos plane recorded, per trial.

    Returns ``None`` for fault-free runs so the section only appears
    when a :class:`~repro.faults.FaultPlan` actually fired something.
    """
    rows = []
    quarantines = []
    for info, spans in traced:
        label = trial_label(info)
        for span in spans:
            if span.name == "fault":
                attrs = span.attributes
                rows.append((label, attrs.get("kind", "?"),
                             attrs.get("point", "?"),
                             attrs.get("host", "") or "-",
                             attrs.get("attempt", 1)))
            elif span.name == "quarantine":
                attrs = span.attributes
                quarantines.append(
                    f"quarantined {attrs.get('host', '?')}: "
                    f"{attrs.get('reason', 'no reason recorded')}")
    if not rows and not quarantines:
        return None
    out = []
    if rows:
        label_width = max([len(r[0]) for r in rows] + [len("trial")])
        out.append(f"{'trial':<{label_width}} {'fault':<16} "
                   f"{'point':<18} {'host':<10} {'attempt':>7}")
        out.append("-" * (label_width + 55))
        for label, kind, point, host, attempt in rows:
            out.append(f"{label:<{label_width}} {kind:<16} "
                       f"{point:<18} {host:<10} {attempt:>7}")
    out.extend(quarantines)
    return "\n".join(out)


def render_planner_decisions(database, limit=40):
    """The planner plane's decision log, round by round.

    Returns ``None`` when the database holds no planner decisions (the
    run was a fixed-grid campaign), so the section only appears for
    adaptive explorations.  A database written before the planner plane
    existed has no ``planner_decisions`` table at all; that renders as
    an explicit note rather than an error, so ``repro trace`` keeps
    working on old observation files.
    """
    if not database.has_table("planner_decisions"):
        return ("no planner decisions recorded (database predates the "
                "planner plane)")
    decisions = database.planner_decisions()
    if not decisions:
        return None
    policy = decisions[0]["policy"]
    rounds = decisions[-1]["round"]
    out = [f"policy {policy!r}: {len(decisions)} decision(s) across "
           f"{rounds} round(s)",
           f"{'round':>5} {'action':<17} {'tier':<8} {'point':<22} reason",
           "-" * 81]
    for decision in decisions[:limit]:
        if decision["topology"] is None:
            point = "-"
        elif decision["workload"] is None:
            point = decision["topology"]
        else:
            point = f"{decision['topology']} u={decision['workload']}"
        tier = decision.get("fidelity") or "des"
        out.append(f"{decision['round']:>5} {decision['action']:<17} "
                   f"{tier:<8} {point:<22} {decision['reason']}")
    if len(decisions) > limit:
        out.append(f"... and {len(decisions) - limit} more decisions")
    return "\n".join(out)


def render_scenarios(database, limit=20):
    """Scenario-matrix accounting: one row per scenario in the trials
    table, with open-loop backlog and DNF counts.

    Returns ``None`` when every trial is a plain sweep point (the
    section only appears for scenario runs).
    """
    by_scenario = {}
    for result in database.query():
        if not result.scenario:
            continue
        stats = by_scenario.setdefault(
            result.scenario, {"trials": 0, "dnf": 0, "backlog": 0})
        stats["trials"] += 1
        if not result.completed:
            stats["dnf"] += 1
        stats["backlog"] = max(stats["backlog"], result.metrics.backlog)
    if not by_scenario:
        return None
    name_width = max([len(name) for name in by_scenario]
                     + [len("scenario")])
    rows = [f"{'scenario':<{name_width}} {'trials':>7} {'dnf':>5} "
            f"{'max backlog':>12}",
            "-" * (name_width + 27)]
    for name in sorted(by_scenario)[:limit]:
        stats = by_scenario[name]
        rows.append(f"{name:<{name_width}} {stats['trials']:>7} "
                    f"{stats['dnf']:>5} {stats['backlog']:>12}")
    if len(by_scenario) > limit:
        rows.append(f"... and {len(by_scenario) - limit} more scenarios")
    return "\n".join(rows)


def render_interference(database, limit=20):
    """Colocated-tenant saturation: which saturated hosts share a
    physical machine, and with whom.

    Built from the synthetic ``physical``-tier ``host_cpu`` rows the
    runner records for consolidated trials; returns ``None`` when no
    trial recorded any (dedicated runs, or old databases).
    """
    from repro.core.bottleneck import interference_attribution

    rows = []
    for result in database.query():
        for found in interference_attribution(result):
            rows.append((
                f"{result.experiment_name} {result.topology_label} "
                f"u={result.workload}",
                found["host"], found["physical"],
                ",".join(found["cotenants"]), found["cpu"]))
    if not rows:
        return None
    label_width = max([len(r[0]) for r in rows] + [len("trial")])
    out = [f"{'trial':<{label_width}} {'host':<10} {'physical':<10} "
           f"{'cotenants':<20} {'cpu %':>6}",
           "-" * (label_width + 50)]
    for label, host, physical, cotenants, cpu in rows[:limit]:
        out.append(f"{label:<{label_width}} {host:<10} {physical:<10} "
                   f"{cotenants:<20} {cpu:>6.1f}")
    if len(rows) > limit:
        out.append(f"... and {len(rows) - limit} more saturated tenants")
    return "\n".join(out)


def render_cache_stats(database):
    """Hot-path cache effectiveness, from the run's persisted counters.

    Returns ``None`` when the run recorded no cache stats (it predates
    the planner plane or every counter is zero).
    """
    import json

    raw = database.get_meta("hotpath_stats")
    if raw is None:
        return None
    stats = json.loads(raw)
    if not any(c.get("hits", 0) or c.get("misses", 0)
               for c in stats.values()):
        return None
    rows = [f"{'cache':<28} {'entries':>8} {'hits':>8} {'misses':>8} "
            f"{'hit rate':>9}",
            "-" * 64]
    total_hits = total_misses = 0
    for name in sorted(stats):
        cache = stats[name]
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        total_hits += hits
        total_misses += misses
        lookups = hits + misses
        rate = f"{hits / lookups:.1%}" if lookups else "-"
        rows.append(f"{name:<28} {cache.get('entries', 0):>8} "
                    f"{hits:>8} {misses:>8} {rate:>9}")
    lookups = total_hits + total_misses
    rows.append(f"{'total':<28} {'':>8} {total_hits:>8} "
                f"{total_misses:>8} "
                f"{(total_hits / lookups if lookups else 0):>9.1%}")
    return "\n".join(rows)


def render_trace_report(database, experiment_name=None, limit=20):
    """The full ``repro trace`` report for one observation database."""
    traced = database.traced_trials(experiment_name=experiment_name)
    if not traced:
        raise ResultsError(
            "no spans recorded in this database; rerun with --trace "
            "(repro run --trace / repro figure --trace)"
        )
    span_total = sum(len(spans) for _info, spans in traced)
    sections = [
        f"Trace report: {len(traced)} traced trial(s), "
        f"{span_total} spans",
        "",
        "Per-trial phase breakdown (ms)",
        render_phase_breakdown(traced, limit=limit),
        "",
        "Slowest phases",
        render_phase_ranking(traced),
        "",
        "Worker utilization",
        render_worker_utilization(traced),
    ]
    scripts = render_slowest_scripts(traced)
    if scripts is not None:
        sections.extend(["", "Slowest generated scripts", scripts])
    faults = render_injected_faults(traced)
    if faults is not None:
        sections.extend(["", "Injected faults", faults])
    decisions = render_planner_decisions(database)
    if decisions is not None:
        sections.extend(["", "Planner decisions", decisions])
    scenarios = render_scenarios(database)
    if scenarios is not None:
        sections.extend(["", "Scenarios", scenarios])
    interference = render_interference(database)
    if interference is not None:
        sections.extend(["", "Colocation interference", interference])
    caches = render_cache_stats(database)
    if caches is not None:
        sections.extend(["", "Hot-path caches", caches])
    return "\n".join(sections)
