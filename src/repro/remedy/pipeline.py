"""The closed remediation loop: detect -> propose -> verify -> apply.

``heal_campaign`` reads a finished (possibly faulted) campaign
database, diagnoses it, and loops: propose candidate patches, verify
the best ones with shadow trials on cloned clusters, apply the winner,
re-measure, and diagnose again — until the ladder is healthy, nothing
more can be proposed, or the trial budget runs out.

Resumability is the planner plane's contract re-applied: every
decision is a pure function of recorded observations, the
``remediations`` log is cleared and rewritten wholesale on every run,
shadow trials already stored in the database are fed back instead of
re-run, and the budget counts *scheduled* DES trials (reused or not) —
so a killed ``repro heal`` resumed at any cut point, at any worker
count, converges on byte-identical ``remediations`` and trial tables.

Two fidelity rules keep the verification honest and cheap:

- injected faults fire only at DES fire points, so fault-removal
  patches are confirmed directly on DES — the analytic tier literally
  cannot observe the problem they fix;
- topology promotions get an analytic pre-screen (a free predicted
  supported-load ladder) that feeds the scorer, and only the ranked
  winner pays for DES confirmation.

Shadow runners disable quarantine (per-runner, order-dependent state)
so jobs=1 and jobs=N shadow trials are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.core.campaign import CampaignState
from repro.core.capacity import CapacityPlanner
from repro.core.characterization import PerformanceMap
from repro.errors import AllocationError, RemedyError, ResultsError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scheduler import THREAD, TrialScheduler, TrialTask
from repro.experiments.trial import trial_key
from repro.obs.tracer import as_tracer
from repro.remedy.diagnosis import Detector
from repro.remedy.propose import PROMOTE_TIER, Proposer, apply_patch
from repro.remedy.verify import (
    improves,
    progression_supported,
    score_candidates,
)
from repro.sim import ANALYTIC, DES
from repro.spec.topology import Topology
from repro.vcluster import VirtualCluster

#: campaign_meta keys a heal persists, so re-running ``repro heal``
#: on the same database replays with the same parameters.
META_HEAL_EXPERIMENT = "heal_experiment"
META_HEAL_TARGET = "heal_target"
META_HEAL_BUDGET = "heal_budget"
META_HEAL_ROUNDS = "heal_rounds"
META_HEAL_OUTCOME = "heal_outcome"
META_HEAL_PATCHES = "heal_patches"

DEFAULT_BUDGET = 32
DEFAULT_ROUNDS = 3

#: Terminal outcomes.
HEALTHY = "healthy"                  # nothing was wrong to begin with
HEALED = "healed"                    # applied patch(es); ladder now clean
NO_CANDIDATE = "no-candidate"        # diagnosed, but no rule applies
UNVERIFIED = "unverified"            # candidates failed DES confirmation
BUDGET_EXHAUSTED = "budget-exhausted"
ROUNDS_EXHAUSTED = "rounds-exhausted"

#: Quarantine is per-runner, order-dependent state; shadow runners get
#: a threshold no campaign reaches, so worker count never shows.
_NO_QUARANTINE = 10 ** 6


@dataclass
class HealReport:
    """What one ``repro heal`` run decided and measured."""

    outcome: str = None
    experiment: str = None
    rounds: int = 0
    diagnoses: int = 0
    candidates: int = 0
    #: CandidatePatch objects applied, in application order
    applied: list = field(default_factory=list)
    #: human-readable reasons nothing (more) could be done
    reasons: list = field(default_factory=list)
    trials: int = 0          # shadow trials executed this run
    reused: int = 0          # shadow trials fed back from the database
    budget: int = 0
    spent: int = 0           # DES shadow trials scheduled (incl. reused)
    target: int = 0
    baseline_supported: int = 0
    healed_supported: int = 0
    #: experiment name holding the final (possibly healed) ladder
    final_experiment: str = None
    database: object = None

    @property
    def healthy(self):
        return self.outcome in (HEALTHY, HEALED)

    def summary(self):
        text = (f"heal {self.outcome}: {self.rounds} round(s), "
                f"{len(self.applied)} patch(es) applied, "
                f"{self.trials} shadow trial(s) "
                f"({self.reused} reused), budget {self.spent}/{self.budget}")
        if self.applied:
            text += (f"; supported {self.baseline_supported} -> "
                     f"{self.healed_supported} of {self.target} users")
        return text

    def describe(self):
        lines = [self.summary()]
        for patch in self.applied:
            lines.append(f"  applied: {patch.describe()}")
        for reason in self.reasons:
            lines.append(f"  why not: {reason}")
        return "\n".join(lines)


def _capacity_reason(results, experiment, target):
    """The capacity planner's verdict on the heal target — the explicit
    "why nothing could be done" a no-candidate/unverified heal surfaces
    (:class:`~repro.core.capacity.InfeasiblePlan` reasons included)."""
    try:
        performance = PerformanceMap(results)
    except ResultsError:
        return "no observations to plan capacity from"
    plan = CapacityPlanner(
        performance, write_ratio=experiment.write_ratios[0],
    ).plan(target, experiment.slo)
    if plan.feasible:
        return (f"capacity planning still finds {target} users feasible "
                f"on {plan.topology}; the observations above disagree")
    return plan.describe()


def heal_campaign(database, *, jobs=1, budget=None, rounds=None,
                  target=None, experiment=None, tracer=None,
                  on_progress=None, on_trial=None):
    """Run the remediation loop over *database*; returns a
    :class:`HealReport`.

    *budget* caps DES shadow trials (default ``32``), *rounds* the
    apply/re-measure cycles (default ``3``), *target* the workload the
    heal aims to support (default: the ladder's top rung).  Omitted
    parameters are recovered from a previous heal's persisted meta, so
    resuming a killed heal replays it identically.  *on_progress*
    receives human-readable one-liners; *on_trial* every shadow
    :class:`TrialResult` actually executed (not reused).
    """
    tracer = as_tracer(tracer)
    state = CampaignState.from_database(database)
    if experiment is None:
        experiment = database.get_meta(META_HEAL_EXPERIMENT)
    exp = state.select_experiment(experiment)

    def resolved(value, key, fallback, floor):
        if value is None:
            stored = database.get_meta(key)
            value = int(stored) if stored is not None else fallback
        value = int(value)
        if value < floor:
            raise RemedyError(f"{key} must be at least {floor}, "
                              f"got {value}")
        database.set_meta(key, value)
        return value

    budget = resolved(budget, META_HEAL_BUDGET, DEFAULT_BUDGET, 1)
    rounds = resolved(rounds, META_HEAL_ROUNDS, DEFAULT_ROUNDS, 1)
    target = resolved(target, META_HEAL_TARGET, max(exp.workloads), 1)
    database.set_meta(META_HEAL_EXPERIMENT, exp.name)
    workloads = tuple(w for w in exp.workloads if w <= target)
    if not workloads:
        raise RemedyError(
            f"heal target {target} sits below the ladder's lowest rung "
            f"({min(exp.workloads)})")

    report = HealReport(experiment=exp.name, budget=budget, target=target,
                        database=database)
    topologies = tuple(exp.topologies)
    fault_plan = state.fault_plan
    retry_policy = state.retry_policy
    detector = Detector(exp.slo, target=target)

    # The log replays from scratch (decisions are pure functions of
    # observations), exactly like planner_decisions on `repro resume`.
    database.clear_remediations()
    seq_by_round = {}

    def record(round_no, stage, kind, target_name, detail, score=None,
               accepted=0):
        seq = seq_by_round.get(round_no, 0)
        seq_by_round[round_no] = seq + 1
        database.insert_remediations([
            (round_no, seq, stage, kind, target_name, exp.name,
             json.dumps(detail, sort_keys=True), score, accepted)])

    def progress(text):
        if on_progress is not None:
            on_progress(text)
        tracer.count("remedy.progress_lines", 1)

    done = {trial_key(stored): stored for stored in database.query()}

    def execute(tasks, plan, retry):
        """Run *tasks* under a candidate configuration, reusing stored
        trials; results return in task order, new ones stored as they
        arrive (the kill-anywhere checkpoint)."""
        missing = [t for t in tasks if trial_key(t) not in done]
        report.reused += len(tasks) - len(missing)
        if retry is not None:
            retry = dataclasses.replace(retry,
                                        quarantine_after=_NO_QUARANTINE)

        def runner_factory():
            cluster = VirtualCluster(state.spec.platform,
                                     node_count=state.node_count)
            return ExperimentRunner(cluster=cluster,
                                    resource_model=state.resource_model,
                                    tracer=tracer, faults=plan,
                                    retry=retry)

        def store(result):
            database.insert(result, replace=True)
            done[trial_key(result)] = result
            report.trials += 1
            if on_trial is not None:
                on_trial(result)

        if missing:
            if jobs == 1:
                runner = runner_factory()
                for task in missing:
                    store(runner.run_task(task))
            else:
                # Thread backend explicitly: the factory closes over
                # this heal's candidate configuration and database.
                scheduler = TrialScheduler(runner_factory, jobs=jobs,
                                           backend=THREAD, tracer=tracer)
                scheduler.run(missing, on_result=store)
        return [done[trial_key(task)] for task in tasks]

    def shadow_tasks(name, topology, points, fidelity):
        shadow = dataclasses.replace(exp, name=name)
        return [TrialTask(index, shadow, topology, workload, write_ratio,
                          fidelity=fidelity)
                for index, (workload, write_ratio) in enumerate(points)]

    # Promotions must fit the platform's *typed* node pool, not just
    # the machine count — probe against a throwaway cluster.
    probe = VirtualCluster(state.spec.platform,
                           node_count=state.node_count)
    tier_node_types = {}
    if exp.db_node_type is not None:
        tier_node_types["db"] = probe.platform.node_type(
            exp.db_node_type).name

    def allocatable(topology):
        try:
            probe.preview_allocation(topology,
                                     tier_node_types=tier_node_types)
            return None
        except AllocationError as error:
            return str(error)

    current_name = exp.name
    outcome = None
    round_no = 0
    while True:
        round_no += 1
        baseline = [r for r in database.query(experiment_name=current_name,
                                              fidelity=DES)
                    if r.workload <= target]
        if not baseline:
            raise RemedyError(
                f"no DES observations for experiment {current_name!r}; "
                f"run the campaign before healing it")
        baseline_supported = progression_supported(baseline, exp.slo,
                                                   target)
        if round_no == 1:
            report.baseline_supported = baseline_supported

        diagnoses = detector.diagnose(baseline)
        report.diagnoses += len(diagnoses)
        for diagnosis in diagnoses:
            record(round_no, "diagnosis", diagnosis.kind,
                   diagnosis.host or diagnosis.tier or diagnosis.topology,
                   diagnosis.to_dict())
            progress(f"round {round_no}: {diagnosis.describe()}")
        if not diagnoses:
            outcome = HEALED if report.applied else HEALTHY
            break
        if round_no > rounds:
            outcome = ROUNDS_EXHAUSTED
            report.reasons.append(
                f"{rounds} round(s) spent; "
                f"{len(diagnoses)} diagnosis(es) remain")
            break

        proposer = Proposer(exp, fault_plan, state.node_count,
                            allocatable=allocatable)
        candidates, rejections = proposer.propose(diagnoses)
        report.candidates += len(candidates)
        for candidate in candidates:
            record(round_no, "candidate", candidate.kind,
                   candidate.target, candidate.to_dict())
        for rejection in rejections:
            record(round_no, "infeasible", rejection.kind,
                   rejection.target, rejection.to_dict())
            report.reasons.append(rejection.reason)
        if not candidates:
            outcome = NO_CANDIDATE
            report.reasons.append(_capacity_reason(baseline, exp, target))
            break

        # Analytic pre-screen: predicted supported load per promotion.
        # Free (analytic trials cost no budget) and blind to faults —
        # which is fine, promotions address saturation, not faults.
        predictions = {}
        for seq, candidate in enumerate(candidates):
            if candidate.kind != PROMOTE_TIER:
                continue
            prescreened = execute(
                shadow_tasks(f"{exp.name}@r{round_no}.c{seq}",
                             Topology.parse(candidate.new_topology),
                             [(w, candidate.write_ratio)
                              for w in workloads],
                             ANALYTIC),
                fault_plan, retry_policy)
            predictions[seq] = progression_supported(prescreened,
                                                     exp.slo, target)
        verdicts = score_candidates(candidates,
                                    baseline_supported=baseline_supported,
                                    target=target, predictions=predictions)
        for verdict in verdicts:
            record(round_no, "verdict", verdict.candidate.kind,
                   verdict.candidate.target, verdict.to_dict(),
                   score=verdict.score)

        # DES confirmation, best-ranked first; the decision point the
        # analytic tier is never trusted with.
        winner = None
        budget_hit = False
        for verdict in verdicts:
            candidate = verdict.candidate
            workload = candidate.workload if candidate.workload is not None \
                else target
            confirm_topology = Topology.parse(
                candidate.new_topology or candidate.topology)
            cand_topos, cand_plan, cand_retry = apply_patch(
                candidate, topologies, fault_plan, retry_policy)
            tasks = shadow_tasks(
                f"{exp.name}@r{round_no}.c{verdict.seq}",
                confirm_topology, [(workload, candidate.write_ratio)],
                DES)
            if report.spent + len(tasks) > budget:
                budget_hit = True
                break
            report.spent += len(tasks)
            confirmed = execute(tasks, cand_plan, cand_retry)
            reference = next(
                (r for r in baseline
                 if r.topology_label == candidate.topology
                 and abs(r.write_ratio - candidate.write_ratio) < 1e-9
                 and r.workload == workload), None)
            verdict.confirmed = all(
                improves(result, reference, exp.slo)
                for result in confirmed)
            verdict.confirm_detail = (
                f"u={workload}: "
                + ", ".join(f"{r.status} {r.metrics.throughput:.1f} req/s"
                            for r in confirmed)
                + (f" vs baseline {reference.status} "
                   f"{reference.metrics.throughput:.1f} req/s"
                   if reference is not None else " vs no baseline"))
            record(round_no, "confirm", candidate.kind, candidate.target,
                   verdict.to_dict(), score=verdict.score,
                   accepted=1 if verdict.confirmed else 0)
            progress(f"round {round_no}: {candidate.describe()} -> "
                     + ("confirmed" if verdict.confirmed else "refuted")
                     + f" ({verdict.confirm_detail})")
            if verdict.confirmed:
                winner = verdict
                break
        if budget_hit:
            outcome = BUDGET_EXHAUSTED
            report.reasons.append(
                f"budget {budget} cannot fund another DES confirmation")
            break
        if winner is None:
            outcome = UNVERIFIED
            report.reasons.append(
                f"{len(verdicts)} candidate(s) failed DES confirmation")
            report.reasons.append(_capacity_reason(baseline, exp, target))
            break

        topologies, fault_plan, retry_policy = apply_patch(
            winner.candidate, topologies, fault_plan, retry_policy)
        report.applied.append(winner.candidate)
        record(round_no, "apply", winner.candidate.kind,
               winner.candidate.target, winner.to_dict(),
               score=winner.score, accepted=1)
        progress(f"round {round_no}: applying "
                 f"{winner.candidate.describe()}")

        healed_name = f"{exp.name}@healed.r{round_no}"
        points = [(w, wr) for wr in exp.write_ratios for w in workloads]
        remeasure = []
        for topology in topologies:
            remeasure.extend(shadow_tasks(healed_name, topology, points,
                                          DES))
        # Re-index across topologies so task identity stays unique.
        remeasure = [dataclasses.replace(task, index=index)
                     for index, task in enumerate(remeasure)]
        if report.spent + len(remeasure) > budget:
            outcome = BUDGET_EXHAUSTED
            report.reasons.append(
                f"budget {budget} cannot fund the {len(remeasure)}-trial "
                f"re-measurement")
            break
        report.spent += len(remeasure)
        measured = execute(remeasure, fault_plan, retry_policy)
        record(round_no, "remeasure", "ladder", healed_name,
               {"experiment": healed_name, "trials": len(remeasure),
                "supported": progression_supported(measured, exp.slo,
                                                   target)})
        current_name = healed_name

    report.outcome = outcome
    report.rounds = round_no
    report.final_experiment = current_name
    final = [r for r in database.query(experiment_name=current_name,
                                       fidelity=DES)
             if r.workload <= target]
    report.healed_supported = progression_supported(final, exp.slo,
                                                    target)
    record(round_no, "outcome", outcome, current_name, {
        "outcome": outcome,
        "applied": [patch.to_dict() for patch in report.applied],
        "baseline_supported": report.baseline_supported,
        "healed_supported": report.healed_supported,
        "target": target,
        "reasons": report.reasons,
    }, accepted=1 if report.healthy else 0)
    database.set_meta(META_HEAL_OUTCOME, outcome)
    database.set_meta(META_HEAL_PATCHES, json.dumps(
        [patch.to_dict() for patch in report.applied], sort_keys=True))
    tracer.count("remedy.heals_run", 1)
    return report
