"""Observation campaigns: the package's top-level façade.

An :class:`ObservationCampaign` owns the whole pipeline for one TBL
document: resource MOF -> validation -> per-point generation ->
deployment -> trial -> results database.  It is the programmatic form of
the paper's workflow ("we modify Mulini's input specification once, and
the necessary modifications are propagated automatically").

A campaign is resilient by construction: give it a
:class:`~repro.faults.FaultPlan` and a :class:`~repro.faults.RetryPolicy`
and transient failures are retried (and recorded) instead of aborting
the sweep; give :meth:`run` ``resume=True`` and trials already in the
database are skipped, so an interrupted campaign finishes from its
checkpoint — the database itself — running exactly the missing trials.

Since the campaign service plane landed, a campaign is explicitly two
halves:

- :class:`CampaignState` — the *state*: parsed spec, resource model,
  validation warnings, fault/retry identity, the task frontier and the
  ``campaign_meta`` checkpoint.  A controller can hold hundreds of
  these for queued campaigns; none of them owns a cluster or a worker.
- :class:`ObservationCampaign` — the *execution*: a cluster, a runner,
  and the run loops.  Execution may be delegated wholesale to an
  *executor* (anything with ``run_tasks(tasks, on_result)`` returning
  results in task order) — the seam the ``repro serve`` daemon uses to
  run many campaigns' trials on one shared worker fleet.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field

import time

from repro import hotpath, provenance
from repro.core.characterization import PerformanceMap
from repro.deprecation import absorb_positional
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.faults.retry import QUARANTINED, RetryPolicy, as_policy
from repro.obs.tracer import as_tracer
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import (
    TrialScheduler,
    calc_parallel_jobs,
    enumerate_tasks,
)
from repro.experiments.trial import trial_key
from repro.results.database import ResultsDatabase
from repro.sim import ANALYTIC, AUTO, DES, check_fidelity
from repro.sim.analytic import require_analytic_support
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import parse as parse_tbl
from repro.spec.validation import validate
from repro.vcluster import VirtualCluster
from repro.workloads.arrivals import analytic_supported

#: Trials buffered before the write-behind store flushes them to the
#: database in one transaction (one commit, one fsync when file-backed).
#: Results always flush in submission order — the scheduler already
#: delivers them that way — so jobs=N rows stay byte-identical to a
#: jobs=1 run; the campaign flushes the tail on every exit path, so an
#: interrupted run still checkpoints everything it was handed.
INGEST_BATCH = 16

#: campaign_meta keys a campaign persists for `repro resume`.
META_TBL = "tbl_text"
META_MOF = "mof_text"
META_NODE_COUNT = "node_count"
META_FAULT_PLAN = "fault_plan"
META_RETRY = "retry_policy"
#: ... plus the planner plane's identity, so `repro resume` knows an
#: adaptive exploration (policy, budget, target experiment) is what it
#: is resuming, and the trace report can show cache effectiveness.
META_PLANNER_POLICY = "planner_policy"
META_PLANNER_BUDGET = "planner_budget"
META_PLANNER_EXPERIMENT = "planner_experiment"
META_CACHE_STATS = "hotpath_stats"
#: ... and the fidelity tier the campaign ran at, so `repro resume`
#: re-runs an analytic or tiered campaign at the tier it started with.
META_FIDELITY = "fidelity"


@dataclass
class CampaignReport:
    """What one campaign run produced."""

    trials: int = 0
    completed: int = 0
    dnf: int = 0
    experiments: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    #: experiment name -> number of trials stored for it
    by_experiment: dict = field(default_factory=dict)
    #: the ResultsDatabase the trials were stored in
    database: object = None
    #: trials skipped by resume (already in the database)
    skipped: int = 0
    #: trials that needed more than one attempt but completed
    retried: int = 0
    #: failed attempts recorded across the whole campaign
    failed_attempts: int = 0
    #: host name -> quarantine reason, aggregated across workers
    quarantined: dict = field(default_factory=dict)
    #: planner plane (run_adaptive only): policy name, rounds walked,
    #: points pruned as inferable, and the full AdaptiveOutcome
    policy: str = None
    rounds: int = 0
    pruned: int = 0
    outcome: object = None
    #: hot-path cache hit/miss counters captured at campaign end
    #: (``repro.hotpath.stats()`` shape: name -> entries/hits/misses;
    #: a daemon-hosted campaign records its own tenant's attribution)
    cache_stats: dict = field(default_factory=dict)

    def cache_totals(self):
        """Aggregate (hits, misses) across every hot-path cache."""
        hits = sum(c.get("hits", 0) for c in self.cache_stats.values())
        misses = sum(c.get("misses", 0) for c in self.cache_stats.values())
        return hits, misses

    def summary(self):
        text = (f"{self.trials} trials ({self.completed} completed, "
                f"{self.dnf} DNF) across {len(self.experiments)} "
                f"experiments")
        extras = []
        if self.skipped:
            extras.append(f"{self.skipped} resumed-skipped")
        if self.retried:
            extras.append(f"{self.retried} recovered by retry")
        if self.quarantined:
            extras.append(
                f"{len(self.quarantined)} host(s) quarantined"
            )
        if self.policy:
            extras.append(
                f"policy {self.policy}: {self.rounds} round(s), "
                f"{self.pruned} point(s) pruned"
            )
        hits, misses = self.cache_totals()
        if hits or misses:
            extras.append(f"caches: {hits} hit / {misses} miss")
        if extras:
            text += "; " + ", ".join(extras)
        return text


class _AnalyticExploration:
    """Policy adapter pinning every proposal to the analytic tier.

    ``run_adaptive(fidelity="analytic")`` explores with whatever policy
    the caller chose, but every trial (and every logged decision) runs
    on the fluid fast path — the no-confirmation mode for when the
    caller wants the millisecond sweep and will validate elsewhere.
    """

    def __init__(self, policy):
        self._policy = policy

    @property
    def name(self):
        return self._policy.name

    def propose(self, frontier):
        return [dataclasses.replace(decision, fidelity=ANALYTIC)
                for decision in self._policy.propose(frontier)]


class CampaignState:
    """The separable state of one campaign — no cluster, no workers.

    Everything a controller must hold for a queued, running or
    interrupted campaign: the parsed spec and resource model, the
    validation warnings, the fault/retry identity, and the operations
    over them — experiment selection, task enumeration, resume
    filtering, and the ``campaign_meta`` checkpoint.  Execution state
    (worker leases, clusters, runners) deliberately lives elsewhere;
    see :class:`ObservationCampaign`.
    """

    def __init__(self, tbl_text, *, mof_text=None, node_count=36,
                 tbl_source="<campaign>", faults=None, retry=None):
        self.tbl_text = tbl_text
        self.spec = parse_tbl(tbl_text, source=tbl_source)
        if mof_text is None:
            mof_text = render_resource_mof(
                self.spec.benchmark, self.spec.platform,
                app_server=self.spec.app_server,
            )
        self.mof_text = mof_text
        self.node_count = node_count
        self.fault_plan = faults
        self.retry_policy = as_policy(retry) if retry is not None else None
        self.resource_model = load_resource_model(mof_text)
        self.validation_warnings = validate(self.resource_model, self.spec)
        needed = max(e.max_machine_count() for e in self.spec.experiments)
        if needed > node_count:
            raise ExperimentError(
                f"spec needs up to {needed} machines but the campaign "
                f"cluster has only {node_count} nodes"
            )

    def select_experiments(self, experiment_names=None):
        """The experiments a fixed-grid run covers (all by default)."""
        experiments = self.spec.experiments
        if experiment_names is not None:
            experiments = [self.spec.experiment(name)
                           for name in experiment_names]
        if not experiments:
            raise ExperimentError("campaign selects no experiments")
        return experiments

    def select_experiment(self, name=None):
        """The one experiment an adaptive exploration targets."""
        if name is not None:
            return self.spec.experiment(name)
        if len(self.spec.experiments) == 1:
            return self.spec.experiments[0]
        names = ", ".join(e.name for e in self.spec.experiments)
        raise ExperimentError(
            f"spec declares {len(self.spec.experiments)} experiments "
            f"({names}); an adaptive exploration targets one — pass "
            f"experiment_name"
        )

    def enumerate_plan(self, experiments, fidelity=DES):
        """Every trial of *experiments* as TrialTasks, in sweep order."""
        tasks = []
        for experiment in experiments:
            tasks.extend(enumerate_tasks(experiment,
                                         start_index=len(tasks),
                                         fidelity=fidelity))
        return tasks

    def pending(self, tasks, database):
        """``(remaining, skipped)`` after resume-filtering *tasks*
        against what *database* already stores."""
        done = set(database.trial_keys())
        remaining = [t for t in tasks if trial_key(t) not in done]
        return remaining, len(tasks) - len(remaining)

    def record_meta(self, database):
        """Persist the campaign's identity so ``repro resume <db>`` (or
        a daemon restart) can rebuild it from the database alone."""
        database.set_meta(META_TBL, self.tbl_text)
        database.set_meta(META_MOF, self.mof_text)
        database.set_meta(META_NODE_COUNT, self.node_count)
        if isinstance(self.fault_plan, FaultPlan):
            database.set_meta(META_FAULT_PLAN, self.fault_plan.to_json())
        if isinstance(self.retry_policy, RetryPolicy):
            database.set_meta(META_RETRY,
                              json.dumps(self.retry_policy.to_dict(),
                                         sort_keys=True))

    @classmethod
    def from_database(cls, database):
        """Rebuild campaign state from a database's persisted meta."""
        tbl_text = database.get_meta(META_TBL)
        if tbl_text is None:
            raise ExperimentError(
                "database carries no campaign meta; it predates the "
                "fault plane or was not produced by run_campaign"
            )
        plan_json = database.get_meta(META_FAULT_PLAN)
        retry_json = database.get_meta(META_RETRY)
        return cls(
            tbl_text,
            mof_text=database.get_meta(META_MOF),
            node_count=int(database.get_meta(META_NODE_COUNT, 36)),
            tbl_source="<resume>",
            faults=FaultPlan.from_json(plan_json) if plan_json else None,
            retry=RetryPolicy.from_dict(json.loads(retry_json))
            if retry_json else None,
        )


class ObservationCampaign:
    """End-to-end campaign bound to one TBL spec and one cluster.

    Everything after *tbl_text* is keyword-only (the legacy positional
    form is deprecated); a *tracer* makes every trial of the campaign
    record its lifecycle span tree into the database's ``spans`` table.

    *faults* arms a :class:`~repro.faults.FaultPlan` on every runner of
    the campaign (the chaos mode); *retry* sets the
    :class:`~repro.faults.RetryPolicy` governing failed attempts — an
    int is shorthand for "this many attempts".  Without *retry*, any
    trial failure propagates exactly as before the fault plane existed.

    *tenant* names the campaign on a shared cache plane (the daemon
    sets it to the campaign id): hot-path statistics recorded at the
    end of a run are then the campaign's own attribution, not the
    plane-wide totals.
    """

    def __init__(self, tbl_text, *args, mof_text=None, database=None,
                 node_count=36, tbl_source="<campaign>", tracer=None,
                 faults=None, retry=None, state=None, tenant=None):
        merged = absorb_positional(
            "ObservationCampaign",
            ("mof_text", "database", "node_count", "tbl_source"), args,
            {"mof_text": mof_text, "database": database,
             "node_count": node_count, "tbl_source": tbl_source})
        database = merged["database"]
        self.tracer = as_tracer(tracer)
        self.tenant = tenant
        if state is None:
            state = CampaignState(tbl_text,
                                  mof_text=merged["mof_text"],
                                  node_count=merged["node_count"],
                                  tbl_source=merged["tbl_source"],
                                  faults=faults, retry=retry)
        self.state = state
        self.cluster = VirtualCluster(self.spec.platform,
                                      node_count=self.node_count)
        self.runner = ExperimentRunner(cluster=self.cluster,
                                       resource_model=self.resource_model,
                                       tracer=self.tracer,
                                       faults=self.fault_plan,
                                       retry=self.retry_policy,
                                       tenant=tenant)
        self.database = database if database is not None \
            else ResultsDatabase()

    # The state half is the source of truth for campaign identity;
    # these properties keep the historical attribute surface intact.

    @property
    def tbl_text(self):
        return self.state.tbl_text

    @property
    def mof_text(self):
        return self.state.mof_text

    @property
    def spec(self):
        return self.state.spec

    @property
    def node_count(self):
        return self.state.node_count

    @property
    def fault_plan(self):
        return self.state.fault_plan

    @property
    def retry_policy(self):
        return self.state.retry_policy

    @property
    def resource_model(self):
        return self.state.resource_model

    @property
    def validation_warnings(self):
        return self.state.validation_warnings

    def run(self, experiment_names=None, *, on_result=None, replace=True,
            jobs=1, backend=None, on_progress=None, resume=False,
            executor=None, fidelity=DES):
        """Run the spec's experiments, storing every trial.

        *experiment_names* restricts to a subset; *on_result* is a
        progress callback receiving each :class:`TrialResult` (its
        ``experiment_name`` identifies the producing experiment, since
        with ``jobs>1`` trials from different experiments interleave on
        the pool); *on_progress* receives human-readable one-liners,
        each tagged with the producing experiment's name.

        ``jobs=N`` executes the whole campaign's trial tasks — across
        all selected experiments — on a worker pool; results are stored
        in enumeration order, so the resulting database rows match a
        ``jobs=1`` run exactly.  An *executor* overrides the worker
        plane entirely: anything with ``run_tasks(tasks, on_result)``
        delivering results in task order (the daemon passes a fleet
        lease here, so many campaigns share one pool).

        ``resume=True`` skips every task whose trial key is already in
        the database, so an interrupted campaign completes exactly its
        missing trials — no duplicate rows, no re-runs.  (The skipped
        count lands in the report.)  With resume the stored rows keep
        their original positions; only the remainder is executed.
        """
        check_fidelity(fidelity)
        if fidelity == AUTO:
            raise ExperimentError(
                "fidelity 'auto' is an adaptive-exploration mode; a "
                "fixed-grid run takes 'des' or 'analytic' — use "
                "run_adaptive (repro explore) for tiered exploration")
        started = time.perf_counter()
        report = CampaignReport(warnings=list(self.validation_warnings),
                                database=self.database)
        experiments = self.state.select_experiments(experiment_names)
        if fidelity == ANALYTIC:
            # Fail before any trial runs: a time-varying arrival makes
            # the whole grid DES-only, and the typed refusal belongs to
            # the campaign, not to whichever task hits it first.
            for experiment in experiments:
                require_analytic_support(
                    getattr(experiment, "arrival", None))
        report.experiments.extend(e.name for e in experiments)
        tasks = self.state.enumerate_plan(experiments, fidelity=fidelity)
        jobs = self._resolve_jobs(jobs, trial_count=len(tasks))
        self._preflight(jobs)
        if resume:
            tasks, report.skipped = self.state.pending(tasks,
                                                       self.database)
            self.tracer.count("campaign.trials_skipped", report.skipped)
        self.state.record_meta(self.database)
        self.database.set_meta(META_FIDELITY, fidelity)
        store, flush_tail = self._ingest(report, replace=replace,
                                         on_result=on_result,
                                         on_progress=on_progress,
                                         total=len(tasks))
        try:
            if executor is not None:
                executor.run_tasks(tasks, store)
            elif jobs == 1:
                for task in tasks:
                    store(self.runner.run_task(task))
            else:
                scheduler = TrialScheduler(self._worker_runner, jobs=jobs,
                                           backend=backend,
                                           tracer=self.tracer)
                scheduler.run(tasks, on_result=store)
        finally:
            # The tail batch — and, on an aborted campaign, everything
            # delivered so far, so resume finds every stored trial.
            flush_tail()
        self._record_cache_stats(report)
        self._record_run_card(report, jobs=jobs, fidelity=fidelity,
                              wall_s=time.perf_counter() - started)
        return report

    def _ingest(self, report, *, replace, on_result, on_progress, total):
        """The write-behind store shared by :meth:`run` and
        :meth:`run_adaptive`: a ``store(result)`` closure plus the
        ``flush_tail()`` the caller must invoke on every exit path.

        Counts are aggregated under a lock because scheduler
        configurations may invoke ``store`` from worker threads.
        Results buffer in arrival (= submission) order and flush to the
        database in single-transaction batches of :data:`INGEST_BATCH`.
        *total* may be None (adaptive campaigns don't know theirs up
        front); progress lines then show the running count alone.
        """
        lock = threading.Lock()
        pending = []

        def flush_pending():
            # Caller holds `lock`.
            if pending:
                self.database.insert_many(pending, replace=replace)
                del pending[:]

        def flush_tail():
            with lock:
                flush_pending()

        def store(result):
            with lock:
                pending.append(result)
                if len(pending) >= INGEST_BATCH:
                    flush_pending()
                report.trials += 1
                report.by_experiment[result.experiment_name] = \
                    report.by_experiment.get(result.experiment_name, 0) + 1
                if result.completed:
                    report.completed += 1
                else:
                    report.dnf += 1
                if result.retried and result.completed:
                    report.retried += 1
                for failure in result.failures:
                    if failure.resolution == QUARANTINED:
                        report.quarantined[failure.host] = failure.cause
                    else:
                        report.failed_attempts += 1
                stored = report.trials
            if on_result is not None:
                on_result(result)
            if on_progress is not None:
                progress = f"trial {stored}/{total}" if total is not None \
                    else f"trial {stored}"
                on_progress(
                    f"[{result.experiment_name}] {progress}: "
                    f"{result.topology_label} u={result.workload} "
                    f"wr={result.write_ratio:.0%} -> {result.status}"
                    + (f" ({result.attempts} attempts)"
                       if result.retried else "")
                )

        return store, flush_tail

    def _resolve_jobs(self, jobs, trial_count=None):
        """``"auto"`` -> a topology-aware worker count; ints pass
        through.  Resolution happens here (not in the CLI) so every
        entry point — api, daemon, service submits — gets the same
        sizing."""
        if jobs == "auto":
            return calc_parallel_jobs(node_count=self.node_count,
                                      trial_count=trial_count)
        return jobs

    def _preflight(self, jobs):
        """Fail fast on misconfigurations no trial should pay for."""
        problems = provenance.preflight(
            self.state, jobs=jobs, database_path=self.database.path)
        if problems:
            raise ExperimentError(
                "campaign preflight failed: " + "; ".join(problems))

    def _record_run_card(self, report, *, jobs, fidelity, wall_s):
        """Persist this run's provenance record.

        The card lands in the database's ``run_cards`` table and — for
        file-backed databases — beside the file as
        ``<db>.run_card.json``, making every campaign database a
        self-describing reproducibility bundle: campaign_meta holds the
        inputs to re-run, the card certifies what one run produced.
        """
        from repro.shellvm.interpreter import ShellInterpreter

        card = provenance.build_run_card(
            report=report, state=self.state, engine=ShellInterpreter.engine,
            jobs=jobs, fidelity=fidelity, wall_s=wall_s)
        self.database.insert_run_card(card)
        provenance.export_run_card(card, self.database.path)

    def _record_cache_stats(self, report):
        """Capture hot-path cache counters into the report and the
        database meta, so cache effectiveness is observable per run.
        A tenant-scoped campaign records its own attribution — on a
        shared daemon the plane-wide totals belong to no one campaign.
        """
        report.cache_stats = hotpath.stats(tenant=self.tenant)
        self.database.set_meta(
            META_CACHE_STATS,
            json.dumps(report.cache_stats, sort_keys=True))

    def run_adaptive(self, policy="knee", *, experiment_name=None,
                     budget=None, jobs=1, backend=None, on_result=None,
                     on_progress=None, replace=True, resume=False,
                     executor=None, fidelity=DES):
        """Run one experiment family as a closed exploration loop.

        Instead of the fixed grid :meth:`run` executes, a planner
        *policy* (a name from ``repro.planner.POLICY_NAMES`` or a
        :class:`~repro.planner.Policy` instance) proposes trial batches
        round by round, observing each round's results before choosing
        the next — the paper's "observations steer the next
        configuration" methodology.  *budget* caps executed trials.

        Every decision lands in the ``planner_decisions`` table and the
        policy/budget/experiment identity in ``campaign_meta``, so
        ``repro resume`` on a killed exploration replays the loop: the
        decisions are pure functions of recorded observations, trials
        already stored are fed back from the database instead of
        re-running (``resume=True``), and the finished database is
        byte-identical to an uninterrupted run's at any worker count.

        An *executor* (see :meth:`run`) replaces the private scheduler
        session: each planner round's batch runs on it instead.
        """
        from repro.planner import AdaptivePlanner, BudgetedExplorer, \
            make_policy

        check_fidelity(fidelity)
        started = time.perf_counter()
        jobs = self._resolve_jobs(jobs)
        self._preflight(jobs)
        report = CampaignReport(warnings=list(self.validation_warnings),
                                database=self.database)
        experiment = self.state.select_experiment(experiment_name)
        report.experiments.append(experiment.name)
        if fidelity == AUTO and not analytic_supported(
                getattr(experiment, "arrival", None)):
            # Time-varying arrivals are DES-only: the tiered
            # composition's analytic exploration pass cannot model
            # them, so "auto" degrades to a pure-DES exploration
            # rather than crashing mid-campaign.
            if isinstance(policy, str):
                fidelity = DES
                if on_progress is not None:
                    on_progress(
                        f"[{experiment.name}] arrival "
                        f"{experiment.arrival.kind!r} is DES-only; "
                        f"fidelity auto degrades to des")
            else:
                require_analytic_support(experiment.arrival)
        if fidelity == AUTO and isinstance(policy, str):
            # "auto" is the tiered composition: explore analytically,
            # confirm at the knee with DES.
            if policy not in ("knee", "tiered"):
                raise ExperimentError(
                    f"fidelity 'auto' explores with the tiered knee "
                    f"policy; policy {policy!r} does not support it — "
                    f"pass fidelity 'des' or 'analytic'")
            policy = "tiered"
        if isinstance(policy, str):
            policy_obj = make_policy(policy, budget=budget)
        else:
            policy_obj = policy if budget is None \
                else BudgetedExplorer(policy, budget)
        if fidelity == AUTO and policy_obj.name != "tiered":
            raise ExperimentError(
                f"fidelity 'auto' needs a tiered policy; "
                f"{policy_obj.name!r} proposes a single tier")
        if fidelity == ANALYTIC:
            policy_obj = _AnalyticExploration(policy_obj)
        self.state.record_meta(self.database)
        db = self.database
        db.set_meta(META_PLANNER_POLICY, policy_obj.name)
        db.set_meta(META_PLANNER_EXPERIMENT, experiment.name)
        db.set_meta(META_FIDELITY, fidelity)
        if budget is not None:
            db.set_meta(META_PLANNER_BUDGET, budget)
        # The loop replays from scratch on resume (decisions are pure
        # functions of observations), so the log is rewritten wholesale
        # — a resumed exploration's log matches an uninterrupted one.
        db.clear_planner_decisions()
        done = {}
        if resume:
            done = {trial_key(result): result for result in
                    db.query(experiment_name=experiment.name)}
        store, flush_tail = self._ingest(report, replace=replace,
                                         on_result=on_result,
                                         on_progress=on_progress,
                                         total=None)
        session = None
        if executor is None and jobs != 1:
            scheduler = TrialScheduler(self._worker_runner, jobs=jobs,
                                       backend=backend,
                                       tracer=self.tracer)
            session = scheduler.session()

        def execute(tasks):
            keys = [trial_key(task) for task in tasks]
            missing = [task for task, key in zip(tasks, keys)
                       if key not in done]
            skipped = len(tasks) - len(missing)
            if skipped:
                report.skipped += skipped
                self.tracer.count("campaign.trials_skipped", skipped)
            delivered = {}
            if missing:
                if executor is not None:
                    results = executor.run_tasks(missing, store)
                elif session is None:
                    results = []
                    for task in missing:
                        results.append(self.runner.run_task(task))
                        store(results[-1])
                else:
                    results = session.run_batch(missing, on_result=store)
                delivered = dict(zip(map(trial_key, missing), results))
            return [done[key] if key in done else delivered[key]
                    for key in keys]

        def record_round(round_no, decisions):
            db.insert_decisions(
                (round_no, seq, policy_obj.name, experiment.name,
                 decision.action, decision.topology, decision.workload,
                 decision.write_ratio, decision.reason,
                 decision.fidelity)
                for seq, decision in enumerate(decisions))
            if on_progress is not None:
                measures = sum(1 for d in decisions
                               if d.action == "measure")
                on_progress(
                    f"[{experiment.name}] planner round {round_no}: "
                    f"{measures} point(s) proposed, "
                    f"{len(decisions) - measures} other decision(s)")

        planner = AdaptivePlanner(experiment, policy_obj,
                                  tracer=self.tracer)
        try:
            outcome = planner.run(execute, on_round=record_round)
        finally:
            flush_tail()
            if session is not None:
                session.close()
        report.policy = policy_obj.name
        report.rounds = outcome.rounds
        report.pruned = outcome.pruned_points
        report.outcome = outcome
        self._record_cache_stats(report)
        self._record_run_card(report, jobs=jobs, fidelity=fidelity,
                              wall_s=time.perf_counter() - started)
        return report

    def _select_experiment(self, name):
        """The one experiment an adaptive exploration targets."""
        return self.state.select_experiment(name)

    def _record_meta(self):
        """Persist the campaign's identity so ``repro resume <db>`` can
        rebuild it from the database alone."""
        self.state.record_meta(self.database)

    @classmethod
    def from_database(cls, database, *, tracer=None, tenant=None):
        """Rebuild a campaign from a database's persisted meta — the
        engine behind ``repro resume <db>`` and the daemon's resume."""
        return cls(
            None,
            state=CampaignState.from_database(database),
            database=database,
            tracer=tracer,
            tenant=tenant,
        )

    def _worker_runner(self):
        """A fresh runner on a fresh cluster for one scheduler worker."""
        return self.runner.clone()

    def performance_map(self, experiment_name=None):
        """A :class:`PerformanceMap` over this campaign's observations."""
        return PerformanceMap.from_database(
            self.database, experiment_name=experiment_name,
        )
