"""Trial protocol and results (Section III.B).

"Each trial consists of a warm-up period, a run period, and a cool-down
period.  The warm-up period brings system resource utilization to a
stable state.  Then measurements are taken during the run period."
A :class:`TrialResult` carries everything one trial observed, including
the management-scale accounting its bundle contributed to Table 3 —
and, since the fault plane landed, how hard the trial was to obtain:
every failed attempt rides along as an :class:`AttemptFailure` and
lands in the database's ``failures`` table, because the paper treats
experiments that "could not complete" as observations, not noise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

COMPLETED = "completed"
DNF = "dnf"          # did not finish: exceeded the error budget (Table 7)


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt of a trial: what broke, where, what happened.

    *attempt* is 1-based; *phase* is the lifecycle phase that raised;
    *resolution* says what the runner did next (``retried``,
    ``gave-up``, or ``quarantined`` for the synthetic record a host
    quarantine emits).  *fault_kind*/*host* are filled when the failure
    traces back to an injected fault event.
    """

    attempt: int
    phase: str
    cause: str
    error_type: str
    transient: bool
    resolution: str
    fault_kind: str = None
    host: str = None
    backoff_s: float = 0.0

    def describe(self):
        kind = f" [{self.fault_kind}]" if self.fault_kind else ""
        where = f" on {self.host}" if self.host else ""
        return (f"attempt {self.attempt} failed in {self.phase}{kind}"
                f"{where}: {self.cause} -> {self.resolution}")


@dataclass
class TrialResult:
    """One experiment point's observation."""

    experiment_name: str
    benchmark: str
    platform: str
    topology_label: str
    workload: int
    write_ratio: float
    seed: int
    status: str
    metrics: object                      # monitoring.TrialMetrics
    host_cpu: dict = field(default_factory=dict)     # host -> mean CPU %
    tier_of_host: dict = field(default_factory=dict) # host -> tier
    #: per-interaction breakdown: state -> {count, errors, mean_response_s}
    per_state: dict = field(default_factory=dict)
    collected_bytes: int = 0
    script_lines: int = 0
    config_lines: int = 0
    generated_files: int = 0
    machine_count: int = 0
    #: lifecycle tracing spans (obs.tracer.SpanRecord), populated when
    #: the producing runner traced; rides along so spans survive
    #: process-pool workers and land in the database's spans table.
    spans: list = field(default_factory=list)
    #: how many attempts it took to obtain this result (1 = first try)
    attempts: int = 1
    #: AttemptFailure records for every attempt that did not produce
    #: this result; ride along like spans and land in the database's
    #: ``failures`` table.
    failures: list = field(default_factory=list)
    #: which solver tier produced this observation ("des" per-request
    #: simulation or the "analytic" fluid fast path); part of the
    #: trial's identity so a tiered exploration can hold both.
    fidelity: str = "des"
    #: scenario-matrix entry this trial belongs to ("" for plain
    #: sweeps); part of the trial's identity so one database can hold
    #: the same operating point under different consolidation/arrival
    #: regimes side by side.
    scenario: str = ""

    @property
    def completed(self):
        return self.status == COMPLETED

    @property
    def retried(self):
        return self.attempts > 1

    def response_time_ms(self):
        return self.metrics.mean_response_s * 1000.0

    def throughput(self):
        return self.metrics.throughput

    def tier_cpu(self, tier):
        """Mean CPU utilization (%) across the hosts of *tier*."""
        values = [cpu for host, cpu in self.host_cpu.items()
                  if self.tier_of_host.get(host) == tier]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def bottleneck_tier(self):
        """The tier with the highest mean CPU utilization."""
        tiers = {self.tier_of_host.get(h) for h in self.host_cpu}
        tiers.discard(None)
        if not tiers:
            return None
        return max(tiers, key=self.tier_cpu)

    def key(self):
        """(topology, workload, write_ratio) — a sweep point's identity
        within one experiment; :func:`trial_key` is the full trial's."""
        return (self.topology_label, self.workload,
                round(self.write_ratio, 6))

    def heaviest_interactions(self, limit=5):
        """The slowest interaction states by mean response time."""
        ranked = sorted(
            ((state, stats) for state, stats in self.per_state.items()
             if stats["count"] > 0),
            key=lambda item: item[1]["mean_response_s"], reverse=True,
        )
        return ranked[:limit]


class TrialColumn(NamedTuple):
    """One column of the results database's ``trials`` table.

    *attribute* is the :class:`TrialResult` attribute the column stores
    (dotted for a measurement, ``metrics.<name>``); *migrated* is the
    value a row written before the column existed takes when its
    database is migrated, ``None`` for the seed-era columns.
    """

    column: str
    attribute: str
    sql_type: str
    migrated: object = None


#: A trial's identity — the one place it is declared.  The ``trials``
#: table's UNIQUE key, the replace-by-key lookup, resume's checkpoint
#: keys, every done-dict and the export columns derive from this tuple,
#: so a new identity axis is one entry here plus the attribute it names
#: on :class:`TrialResult` and the scheduler's ``TrialTask``.  (The
#: fault plane's draw key is deliberately the seed-era five fields; see
#: :meth:`ExperimentRunner.run_point`.)
TRIAL_IDENTITY = (
    TrialColumn("experiment_name", "experiment_name", "TEXT"),
    TrialColumn("topology", "topology_label", "TEXT"),
    TrialColumn("workload", "workload", "INTEGER"),
    TrialColumn("write_ratio", "write_ratio", "REAL"),
    TrialColumn("seed", "seed", "INTEGER"),
    TrialColumn("fidelity", "fidelity", "TEXT", "des"),
    TrialColumn("scenario", "scenario", "TEXT", ""),
)

#: The identity key of a :class:`TrialResult` or a scheduler
#: ``TrialTask``, as a tuple in :data:`TRIAL_IDENTITY` order.
trial_key = operator.attrgetter(
    *(column.attribute for column in TRIAL_IDENTITY))


def measurement_window(trial_phases):
    """The run-period window measurements are taken in (Section III.B)."""
    return (trial_phases.warmup, trial_phases.warmup + trial_phases.run)


def empty_metrics():
    """All-zero TrialMetrics for a DNF row whose attempts never got a
    measurement window (the paper's truly-missing squares)."""
    from repro.monitoring.metrics import TrialMetrics

    return TrialMetrics(completed=0, errors=0, timeouts=0, rejections=0,
                        duration_s=0.0, throughput=0.0,
                        mean_response_s=0.0, p50_response_s=0.0,
                        p90_response_s=0.0, p99_response_s=0.0)


def failed_result(experiment, topology, workload, write_ratio, seed,
                  failures, attempts, partial=None, machine_count=0):
    """The enriched DNF row for a trial whose retry budget ran out.

    *partial* carries measurements salvaged from a failed attempt
    (:attr:`~repro.errors.TrialFailed.partial`) so an attempt that died
    *after* its run window still contributes its observations, exactly
    like the paper's could-not-complete cells contribute theirs.
    """
    return TrialResult(
        experiment_name=experiment.name,
        benchmark=experiment.benchmark,
        platform=experiment.platform,
        topology_label=topology.label(),
        workload=workload,
        write_ratio=write_ratio,
        seed=seed,
        status=DNF,
        metrics=partial if partial is not None else empty_metrics(),
        machine_count=machine_count,
        attempts=attempts,
        failures=list(failures),
        scenario=experiment.scenario,
    )
