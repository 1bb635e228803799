"""Export observed trials to CSV and JSON.

The observation database is the system of record; exports exist so the
characterization data can leave the toolchain (spreadsheets, plotting,
the paper-writing pipeline).  Exports are lossless for the trial-level
fields; per-host CPU figures are flattened per row.
"""

from __future__ import annotations

import csv
import io
import json

from repro.errors import ResultsError
from repro.experiments.trial import TRIAL_IDENTITY

#: Identity columns that postdate the first export format.
_LATER_IDENTITY = tuple(column for column in TRIAL_IDENTITY
                        if column.migrated is not None)

#: Columns appended after the first export format, with the value an
#: older export's rows imply for them (the database's migration
#: defaults).  Appending keeps every earlier column's position; the
#: identity columns come last so a new identity axis appends too.
_APPENDED = {"backlog": 0,
             **{column.column: column.migrated
                for column in _LATER_IDENTITY}}

#: Trial-level columns, in export order.
TRIAL_FIELDS = (
    "experiment_name", "benchmark", "platform", "topology", "workload",
    "write_ratio", "seed", "status", "completed", "errors", "timeouts",
    "rejections", "duration_s", "throughput", "mean_response_ms",
    "p50_response_ms", "p90_response_ms", "p99_response_ms",
    "error_ratio", "app_cpu_percent", "db_cpu_percent", "web_cpu_percent",
    "collected_bytes", "script_lines", "config_lines", "machine_count",
    "attempts", *_APPENDED,
)


def trial_row(result):
    """Flatten one TrialResult into an export dict."""
    metrics = result.metrics
    return {
        "experiment_name": result.experiment_name,
        "benchmark": result.benchmark,
        "platform": result.platform,
        "topology": result.topology_label,
        "workload": result.workload,
        "write_ratio": round(result.write_ratio, 6),
        "seed": result.seed,
        "status": result.status,
        "completed": metrics.completed,
        "errors": metrics.errors,
        "timeouts": metrics.timeouts,
        "rejections": metrics.rejections,
        "duration_s": round(metrics.duration_s, 3),
        "throughput": round(metrics.throughput, 4),
        "mean_response_ms": round(metrics.mean_response_s * 1000, 3),
        "p50_response_ms": round(metrics.p50_response_s * 1000, 3),
        "p90_response_ms": round(metrics.p90_response_s * 1000, 3),
        "p99_response_ms": round(metrics.p99_response_s * 1000, 3),
        "error_ratio": round(metrics.error_ratio, 6),
        "app_cpu_percent": round(result.tier_cpu("app"), 2),
        "db_cpu_percent": round(result.tier_cpu("db"), 2),
        "web_cpu_percent": round(result.tier_cpu("web"), 2),
        "collected_bytes": result.collected_bytes,
        "script_lines": result.script_lines,
        "config_lines": result.config_lines,
        "machine_count": result.machine_count,
        "attempts": result.attempts,
        "backlog": metrics.backlog,
        **{column.column: getattr(result, column.attribute)
           for column in _LATER_IDENTITY},
    }


def to_csv(results):
    """Render TrialResults as CSV text (header + one row per trial)."""
    if not results:
        raise ResultsError("nothing to export")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=TRIAL_FIELDS,
                            lineterminator="\n")
    writer.writeheader()
    for result in results:
        writer.writerow(trial_row(result))
    return buffer.getvalue()


def to_json(results, indent=2):
    """Render TrialResults as a JSON array, host CPU included.

    Trials the fault plane retried (or gave up on) additionally carry
    their ``failures`` list — attempt, phase, cause, resolution — so
    the DNF record survives the trip out of the toolchain intact.
    """
    if not results:
        raise ResultsError("nothing to export")
    rows = []
    for result in results:
        row = trial_row(result)
        row["host_cpu"] = {host: round(cpu, 2)
                           for host, cpu in sorted(result.host_cpu.items())}
        row["tier_of_host"] = dict(sorted(result.tier_of_host.items()))
        failures = getattr(result, "failures", None)
        if failures:
            row["failures"] = [
                {"attempt": f.attempt, "phase": f.phase,
                 "cause": f.cause, "error_type": f.error_type,
                 "transient": f.transient, "resolution": f.resolution,
                 "fault_kind": f.fault_kind, "host": f.host,
                 "backoff_s": f.backoff_s}
                for f in failures
            ]
        rows.append(row)
    return json.dumps(rows, indent=indent) + "\n"


def from_csv(text):
    """Parse an exported CSV back into plain dict rows (typed).

    An export written before the :data:`_APPENDED` columns existed
    still parses; its rows take those columns' default values.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or \
            set(TRIAL_FIELDS) - set(_APPENDED) - set(reader.fieldnames):
        raise ResultsError("not a repro trial export (missing columns)")
    int_fields = {"workload", "seed", "completed", "errors", "timeouts",
                  "rejections", "collected_bytes", "script_lines",
                  "config_lines", "machine_count", "attempts", "backlog"}
    rows = []
    for raw in reader:
        row = {}
        for key, value in raw.items():
            if key in int_fields:
                row[key] = int(value)
            else:
                try:
                    row[key] = float(value)
                except ValueError:
                    row[key] = value
        for key, default in _APPENDED.items():
            row.setdefault(key, default)
        rows.append(row)
    return rows
