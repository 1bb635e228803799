"""SQLite-backed observation database.

"After each set of experiments, performance data collected from the
participating hosts is put into a database for analysis" (Section II).
Every trial lands here; the characterization and capacity-planning APIs
and the figure/table reproductions all query this database rather than
holding results in ad-hoc lists.
"""

from __future__ import annotations

import json
import operator
import sqlite3
import threading

from repro.errors import ResultsError
from repro.experiments.trial import (
    TRIAL_IDENTITY,
    AttemptFailure,
    TrialColumn,
    TrialResult,
    trial_key,
)
from repro.faults.retry import GAVE_UP, QUARANTINED
from repro.monitoring.metrics import TrialMetrics
from repro.obs.tracer import SpanRecord

_IDENTITY = {column.column: column for column in TRIAL_IDENTITY}

#: The seed schema's ``trials`` columns (after ``id``), in table order.
_SEED_COLUMNS = (
    _IDENTITY["experiment_name"],
    TrialColumn("benchmark", "benchmark", "TEXT"),
    TrialColumn("platform", "platform", "TEXT"),
    _IDENTITY["topology"],
    _IDENTITY["workload"],
    _IDENTITY["write_ratio"],
    _IDENTITY["seed"],
    TrialColumn("status", "status", "TEXT"),
    TrialColumn("completed_requests", "metrics.completed", "INTEGER"),
    TrialColumn("errors", "metrics.errors", "INTEGER"),
    TrialColumn("timeouts", "metrics.timeouts", "INTEGER"),
    TrialColumn("rejections", "metrics.rejections", "INTEGER"),
    TrialColumn("duration_s", "metrics.duration_s", "REAL"),
    TrialColumn("throughput", "metrics.throughput", "REAL"),
    TrialColumn("mean_response_s", "metrics.mean_response_s", "REAL"),
    TrialColumn("p50_response_s", "metrics.p50_response_s", "REAL"),
    TrialColumn("p90_response_s", "metrics.p90_response_s", "REAL"),
    TrialColumn("p99_response_s", "metrics.p99_response_s", "REAL"),
    TrialColumn("collected_bytes", "collected_bytes", "INTEGER"),
    TrialColumn("script_lines", "script_lines", "INTEGER"),
    TrialColumn("config_lines", "config_lines", "INTEGER"),
    TrialColumn("generated_files", "generated_files", "INTEGER"),
    TrialColumn("machine_count", "machine_count", "INTEGER"),
)

#: Columns appended to ``trials`` after the seed schema, in landing
#: order.  They are deliberately the LAST columns, so a migrated older
#: database and a freshly created one share one column order —
#: dump_rows comparisons stay meaningful across both — and a database
#: from any earlier era is missing a *suffix* of this list.  Identity
#: entries neither tuple places are appended last, in declaration
#: order, so a new identity axis needs no edit here.
_TRIAL_SUFFIX = (
    _IDENTITY["fidelity"],
    TrialColumn("backlog", "metrics.backlog", "INTEGER", 0),
    _IDENTITY["scenario"],
)
_TRIAL_SUFFIX += tuple(column for column in TRIAL_IDENTITY
                       if column not in _SEED_COLUMNS + _TRIAL_SUFFIX)

_TRIAL_SCHEMA = _SEED_COLUMNS + _TRIAL_SUFFIX
_TRIAL_COLUMNS = tuple(column.column for column in _TRIAL_SCHEMA)
_IDENTITY_COLUMNS = ", ".join(column.column for column in TRIAL_IDENTITY)


def _sql_literal(value):
    return f"'{value}'" if isinstance(value, str) else str(value)


def _column_ddl(column):
    default = "" if column.migrated is None \
        else f" DEFAULT {_sql_literal(column.migrated)}"
    return f"{column.column} {column.sql_type} NOT NULL{default}"


# The trials table's own DDL is split out because schema migrations
# must recreate it verbatim (SQLite cannot ALTER a UNIQUE constraint in
# place).
_TRIALS_TABLE = (
    "CREATE TABLE IF NOT EXISTS trials (\n"
    "    id INTEGER PRIMARY KEY AUTOINCREMENT,\n"
    + "".join(f"    {_column_ddl(column)},\n" for column in _TRIAL_SCHEMA)
    + f"    UNIQUE ({_IDENTITY_COLUMNS})\n)\n")

#: Child tables hanging off ``trials.id``, with their columns after
#: ``trial_id``.
_CHILD_COLUMNS = {
    "host_cpu": ("host", "tier", "cpu_percent"),
    "state_metrics": ("state", "count", "errors", "mean_response_s"),
    "spans": ("span_id", "parent_id", "name", "start_s", "duration_s",
              "status", "attributes"),
    "failures": ("attempt", "phase", "cause", "error_type", "transient",
                 "resolution", "fault_kind", "host", "backoff_s"),
}

#: The planner and remedy logs' columns, in their tuple order.
_DECISION_COLUMNS = ("round", "seq", "policy", "experiment_name",
                     "action", "topology", "workload", "write_ratio",
                     "reason", "fidelity")
_REMEDIATION_COLUMNS = ("round", "seq", "stage", "kind", "target",
                        "experiment_name", "detail", "score", "accepted")


def _insert_sql(table, columns, verb="INSERT"):
    return (f"{verb} INTO {table} ({', '.join(columns)}) "
            f"VALUES ({','.join('?' * len(columns))})")


def _select_sql(table, columns, order):
    return f"SELECT {', '.join(columns)} FROM {table} ORDER BY {order}"


# Statements built once, not per insert.
_INSERT_TRIAL = _insert_sql("trials", _TRIAL_COLUMNS)
_INSERT_CHILD = {table: _insert_sql(table, ("trial_id",) + columns)
                 for table, columns in _CHILD_COLUMNS.items()}
_INSERT_DECISION = _insert_sql("planner_decisions", _DECISION_COLUMNS,
                               "INSERT OR REPLACE")
_SELECT_DECISIONS = _select_sql("planner_decisions", _DECISION_COLUMNS,
                                "round, seq")
_INSERT_REMEDIATION = _insert_sql("remediations", _REMEDIATION_COLUMNS,
                                  "INSERT OR REPLACE")
_SELECT_REMEDIATIONS = _select_sql("remediations", _REMEDIATION_COLUMNS,
                                   "round, seq")
_SELECT_BY_KEY = ("SELECT id FROM trials WHERE "
                  + " AND ".join(f"{column.column} = ?"
                                 for column in TRIAL_IDENTITY))
#: A TrialResult's ``trials`` row values, in :data:`_TRIAL_COLUMNS` order.
_trial_values = operator.attrgetter(
    *(column.attribute for column in _TRIAL_SCHEMA))
#: ``(column, TrialMetrics field)`` and ``(column, TrialResult field)``
#: pairs that rebuild a result from its row.
_METRIC_FIELDS = tuple((column.column, column.attribute[len("metrics."):])
                       for column in _TRIAL_SCHEMA
                       if column.attribute.startswith("metrics."))
_RESULT_FIELDS = tuple((column.column, column.attribute)
                       for column in _TRIAL_SCHEMA
                       if "." not in column.attribute)

_SCHEMA = _TRIALS_TABLE + """;
CREATE TABLE IF NOT EXISTS host_cpu (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    host TEXT NOT NULL,
    tier TEXT,
    cpu_percent REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS state_metrics (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    state TEXT NOT NULL,
    count INTEGER NOT NULL,
    errors INTEGER NOT NULL,
    mean_response_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    span_id INTEGER NOT NULL,
    parent_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    start_s REAL NOT NULL,
    duration_s REAL NOT NULL,
    status TEXT NOT NULL,
    attributes TEXT NOT NULL
);
-- The fault plane's failure record: one row per failed attempt (plus
-- one synthetic row per host quarantine).  Deliberately a separate
-- table so the observation tables (trials/host_cpu/state_metrics)
-- stay byte-identical between a fault-free campaign and one that
-- recovered from transient faults.
CREATE TABLE IF NOT EXISTS failures (
    trial_id INTEGER NOT NULL REFERENCES trials(id) ON DELETE CASCADE,
    attempt INTEGER NOT NULL,
    phase TEXT NOT NULL,
    cause TEXT NOT NULL,
    error_type TEXT NOT NULL,
    transient INTEGER NOT NULL,
    resolution TEXT NOT NULL,
    fault_kind TEXT,
    host TEXT,
    backoff_s REAL NOT NULL DEFAULT 0.0
);
-- Campaign identity for checkpoint/resume: the TBL/MOF text and knobs
-- that produced this database, so `repro resume <db>` can rebuild the
-- campaign and run exactly the missing trials.
CREATE TABLE IF NOT EXISTS campaign_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
-- The planner plane's decision log: one row per planner decision, in
-- (round, seq) order.  Decisions are pure functions of observations,
-- so resuming an adaptive campaign replays the loop and regenerates
-- exactly these rows — the log is cleared and rewritten on every
-- run_adaptive, and byte-compared across worker counts by the tests.
CREATE TABLE IF NOT EXISTS planner_decisions (
    round INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    policy TEXT NOT NULL,
    experiment_name TEXT NOT NULL,
    action TEXT NOT NULL,
    topology TEXT,
    workload INTEGER,
    write_ratio REAL,
    reason TEXT NOT NULL,
    fidelity TEXT NOT NULL DEFAULT 'des',
    PRIMARY KEY (round, seq)
);
-- The remedy plane's log: one row per remediation-pipeline event
-- (diagnosis, candidate, verdict, apply, outcome) in (round, seq)
-- order.  Like planner_decisions, the rows are pure functions of
-- recorded observations: `repro heal` clears and rewrites the log
-- wholesale on every run, so a killed-and-resumed heal reproduces
-- exactly the rows an uninterrupted one writes.  ``detail`` is the
-- event's canonical JSON (sorted keys) and ``accepted`` marks the
-- winning candidate / applied patch rows.
CREATE TABLE IF NOT EXISTS remediations (
    round INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    stage TEXT NOT NULL,
    kind TEXT NOT NULL,
    target TEXT,
    experiment_name TEXT NOT NULL,
    detail TEXT NOT NULL,
    score REAL,
    accepted INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (round, seq)
);
-- The provenance plane: one run card per campaign run — the canonical
-- JSON record of what produced this database (command, environment,
-- resolved parameters, input and table digests, cache stats).  Where
-- campaign_meta stores the inputs a resume needs verbatim, run_cards
-- stores the observation of each run that wrote here, so the database
-- is a self-describing reproducibility bundle.
CREATE TABLE IF NOT EXISTS run_cards (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created TEXT NOT NULL,
    card TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_state_metrics_trial
    ON state_metrics (trial_id);
CREATE INDEX IF NOT EXISTS idx_trials_sweep
    ON trials (experiment_name, topology, workload, write_ratio);
CREATE INDEX IF NOT EXISTS idx_host_cpu_trial ON host_cpu (trial_id);
CREATE INDEX IF NOT EXISTS idx_spans_trial ON spans (trial_id);
CREATE INDEX IF NOT EXISTS idx_failures_trial ON failures (trial_id);
"""


class ResultsDatabase:
    """Observation store with insert/query/replace semantics.

    Safe for concurrent use by scheduler workers: one connection is
    shared (``check_same_thread=False``) behind a single writer lock,
    so inserts serialize while keeping the UNIQUE-key replace
    semantics; file-backed databases run in WAL mode so a reader (a
    live report) never blocks the campaign's writer.
    """

    def __init__(self, path=":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.executescript(_SCHEMA)
        self._migrate()

    def _column_names(self, table):
        return [row[1] for row in
                self._conn.execute(f"PRAGMA table_info({table})")]

    def _migrate(self):
        """Bring an older database file up to this schema in place.

        ``CREATE TABLE IF NOT EXISTS`` is a no-op on an existing file,
        so an old database reaches here with its old shape.  The
        decision log just grows a defaulted column; ``trials`` must be
        rebuilt because its UNIQUE key changes — the rename/copy dance
        preserves every row id, so child-table references stay valid.
        Post-seed columns only ever append (:data:`_TRIAL_SUFFIX`), so
        whatever era the file comes from, the missing columns are a
        suffix and one ``SELECT *, <defaults>`` copy fills them: every
        pre-fidelity trial was a DES observation and every pre-scenario
        trial was a plain (closed-loop, dedicated-host) sweep point by
        construction.
        """
        if "fidelity" not in self._column_names("planner_decisions"):
            self._conn.execute(
                "ALTER TABLE planner_decisions ADD COLUMN fidelity "
                "TEXT NOT NULL DEFAULT 'des'")
            self._conn.commit()
        present = self._column_names("trials")
        missing = [column for column in _TRIAL_SUFFIX
                   if column.column not in present]
        if missing:
            defaults = ", ".join(_sql_literal(column.migrated)
                                 for column in missing)
            # legacy_alter_table keeps the child tables' REFERENCES
            # pointing at "trials" through the rename, so they bind to
            # the rebuilt table rather than following trials_legacy.
            self._conn.execute("PRAGMA foreign_keys = OFF")
            self._conn.execute("PRAGMA legacy_alter_table = ON")
            try:
                self._conn.execute(
                    "ALTER TABLE trials RENAME TO trials_legacy")
                self._conn.execute(_TRIALS_TABLE)
                self._conn.execute(
                    f"INSERT INTO trials SELECT *, {defaults} "
                    f"FROM trials_legacy")
                self._conn.execute("DROP TABLE trials_legacy")
                # The rename carried the trials indexes off to the
                # legacy table and the drop took them with it.
                self._conn.executescript(_SCHEMA)
            finally:
                self._conn.execute("PRAGMA legacy_alter_table = OFF")
                self._conn.execute("PRAGMA foreign_keys = ON")
            self._conn.commit()

    @property
    def _db(self):
        if self._conn is None:
            raise ResultsError(
                f"results database {self.path!r} is closed"
            )
        return self._conn

    def close(self):
        """Close the connection; idempotent."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # -- writes -----------------------------------------------------------

    def insert(self, result, replace=False):
        """Store a :class:`TrialResult`; returns its row id.

        Thread-safe: the whole multi-statement insert (trial row, host
        CPU rows, per-state rows, commit) happens under the writer
        lock, so concurrent workers never interleave half-inserted
        trials.
        """
        with self._lock:
            try:
                trial_id = self._insert_locked(result, replace)
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()
        return trial_id

    def _insert_locked(self, result, replace):
        """Write one trial and its children; caller commits."""
        if replace:
            # Replace by natural key *before* the insert.  The old
            # INSERT OR REPLACE path deleted children keyed on the new
            # row's id — a no-op that orphaned the replaced trial's
            # children whenever foreign-key enforcement was off (which
            # is SQLite's per-connection default; our own connections
            # enable it, but the database file must stay consistent
            # for any reader).
            row = self._db.execute(_SELECT_BY_KEY,
                                   trial_key(result)).fetchone()
            if row is not None:
                old_id = row[0]
                for table in _CHILD_COLUMNS:
                    self._db.execute(
                        f"DELETE FROM {table} WHERE trial_id = ?",
                        (old_id,))
                self._db.execute("DELETE FROM trials WHERE id = ?",
                                 (old_id,))
        try:
            cursor = self._db.execute(_INSERT_TRIAL, _trial_values(result))
        except sqlite3.IntegrityError as error:
            raise ResultsError(
                f"duplicate trial {result.experiment_name}/"
                f"{result.topology_label}/u{result.workload}: {error}"
            ) from error
        trial_id = cursor.lastrowid
        self._db.executemany(
            _INSERT_CHILD["host_cpu"],
            [
                (trial_id, host, result.tier_of_host.get(host), cpu)
                for host, cpu in sorted(result.host_cpu.items())
            ],
        )
        self._db.executemany(
            _INSERT_CHILD["state_metrics"],
            [
                (trial_id, state, stats["count"], stats["errors"],
                 stats["mean_response_s"])
                for state, stats in sorted(result.per_state.items())
            ],
        )
        spans = getattr(result, "spans", None)
        if spans:
            self._db.executemany(
                _INSERT_CHILD["spans"],
                [
                    (trial_id, span.span_id, span.parent_id, span.name,
                     span.start_s, span.duration_s, span.status,
                     span.attributes_json())
                    for span in spans
                ],
            )
        failures = getattr(result, "failures", None)
        if failures:
            self._db.executemany(
                _INSERT_CHILD["failures"],
                [
                    (trial_id, f.attempt, f.phase, f.cause, f.error_type,
                     int(f.transient), f.resolution, f.fault_kind,
                     f.host, f.backoff_s)
                    for f in failures
                ],
            )
        return trial_id

    def insert_many(self, results, replace=False):
        """Store many :class:`TrialResult`\\ s in **one** transaction.

        Every trial's statements run back-to-back and a single commit
        (one fsync on file-backed databases) covers the whole batch —
        the campaign hot path.  Row ids and contents are exactly what
        the same sequence of :meth:`insert` calls would produce; on
        error the entire batch rolls back, so the database never holds
        a partial batch.
        """
        ids = []
        with self._lock:
            try:
                for result in results:
                    ids.append(self._insert_locked(result, replace))
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()
        return ids

    def integrity_check(self):
        """Scan for child rows orphaned from ``trials`` — the damage
        the replace-path bug used to leave behind.  Returns a list of
        problem descriptions (empty when consistent).  Works without
        foreign-key enforcement, so it validates the file itself, not
        this connection's pragma state.
        """
        problems = []
        with self._lock:
            for table in _CHILD_COLUMNS:
                count = self._db.execute(
                    f"SELECT COUNT(*) FROM {table} c WHERE NOT EXISTS "
                    f"(SELECT 1 FROM trials t WHERE t.id = c.trial_id)"
                ).fetchone()[0]
                if count:
                    problems.append(
                        f"{table}: {count} row(s) orphaned from trials"
                    )
        return problems

    # -- reads -------------------------------------------------------------

    def query(self, experiment_name=None, benchmark=None, topology=None,
              workload=None, write_ratio=None, status=None,
              fidelity=None, scenario=None):
        """Fetch trials matching all given filters, as TrialResults.

        ``scenario=""`` selects plain (non-scenario) sweep trials;
        ``scenario=None`` (the default) applies no scenario filter.
        """
        clauses = []
        params = []
        for column, value in (
                ("experiment_name", experiment_name),
                ("benchmark", benchmark),
                ("topology", topology),
                ("workload", workload),
                ("status", status),
                ("fidelity", fidelity),
                ("scenario", scenario)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if write_ratio is not None:
            clauses.append("ABS(write_ratio - ?) < 1e-9")
            params.append(write_ratio)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._db.execute(
                f"SELECT * FROM trials {where} "
                f"ORDER BY topology, write_ratio, workload",
                params,
            ).fetchall()
            columns = [d[0] for d in self._db.execute(
                "SELECT * FROM trials LIMIT 0").description]
            return [self._to_result(dict(zip(columns, row)))
                    for row in rows]

    def count(self):
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM trials").fetchone()[0]

    def experiments(self):
        with self._lock:
            rows = self._db.execute(
                "SELECT DISTINCT experiment_name FROM trials ORDER BY 1"
            ).fetchall()
        return [row[0] for row in rows]

    def topologies(self, experiment_name=None):
        with self._lock:
            if experiment_name is None:
                rows = self._db.execute(
                    "SELECT DISTINCT topology FROM trials "
                    "ORDER BY 1").fetchall()
            else:
                rows = self._db.execute(
                    "SELECT DISTINCT topology FROM trials "
                    "WHERE experiment_name = ? ORDER BY 1",
                    (experiment_name,)).fetchall()
        return [row[0] for row in rows]

    def total_collected_bytes(self, experiment_name=None):
        """Table 3's collected-data accounting, from the database."""
        with self._lock:
            if experiment_name is None:
                row = self._db.execute(
                    "SELECT SUM(collected_bytes) FROM trials").fetchone()
            else:
                row = self._db.execute(
                    "SELECT SUM(collected_bytes) FROM trials "
                    "WHERE experiment_name = ?",
                    (experiment_name,)).fetchone()
        return row[0] or 0

    def trial_keys(self):
        """The identity key of every stored trial — the campaign's
        checkpoint: a resume skips exactly these."""
        with self._lock:
            return self._db.execute(
                f"SELECT {_IDENTITY_COLUMNS} FROM trials ORDER BY id"
            ).fetchall()

    def dump_rows(self, table):
        """Every row of *table*, ordered by rowid — the raw comparison
        surface the determinism tests diff (tracing must never change
        what lands in the observation tables)."""
        if table not in ("trials", "host_cpu", "state_metrics", "spans",
                         "failures", "planner_decisions", "remediations",
                         "run_cards"):
            raise ResultsError(f"unknown table {table!r}")
        if not self.has_table(table):
            return []
        with self._lock:
            return self._db.execute(
                f"SELECT * FROM {table} ORDER BY rowid").fetchall()

    # -- planner decisions (the planner plane's log) ------------------------

    def has_table(self, name):
        """Whether *name* exists in this database file.

        Opening a database normally creates every schema table, but a
        pre-planner-plane file opened read-only (or handed to us by an
        older tool) may genuinely lack one — readers that want to
        degrade gracefully check here instead of catching
        ``OperationalError``.
        """
        with self._lock:
            row = self._db.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' "
                "AND name = ?", (name,)).fetchone()
        return row is not None

    def insert_decisions(self, rows):
        """Store planner-decision tuples (in :data:`_DECISION_COLUMNS`
        order) in one transaction.  ``INSERT OR REPLACE`` keyed on
        ``(round, seq)`` makes re-logging a replayed round idempotent."""
        rows = list(rows)
        if not rows:
            return
        with self._lock:
            try:
                self._db.executemany(_INSERT_DECISION, rows)
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()

    def clear_planner_decisions(self):
        """Drop the decision log — run_adaptive rewrites it wholesale,
        so a resumed exploration's log matches an uninterrupted one."""
        if not self.has_table("planner_decisions"):
            return
        with self._lock:
            self._db.execute("DELETE FROM planner_decisions")
            self._db.commit()

    def planner_decisions(self):
        """Every decision as a dict, in (round, seq) order.

        A database that predates the planner plane simply recorded no
        decisions, so a missing table reads as an empty log rather than
        an error.
        """
        if not self.has_table("planner_decisions"):
            return []
        with self._lock:
            rows = self._db.execute(_SELECT_DECISIONS).fetchall()
        return [dict(zip(_DECISION_COLUMNS, row)) for row in rows]

    def decision_count(self):
        if not self.has_table("planner_decisions"):
            return 0
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM planner_decisions").fetchone()[0]

    # -- remediations (the remedy plane's log) ------------------------------

    def insert_remediations(self, rows):
        """Store remediation tuples (in :data:`_REMEDIATION_COLUMNS`
        order) in one transaction.  ``INSERT OR REPLACE`` keyed on
        ``(round, seq)`` makes re-logging a replayed round idempotent —
        the same property :meth:`insert_decisions` gives the planner."""
        rows = list(rows)
        if not rows:
            return
        with self._lock:
            try:
                self._db.executemany(_INSERT_REMEDIATION, rows)
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()

    def clear_remediations(self):
        """Drop the remediation log — ``repro heal`` rewrites it
        wholesale, so a resumed heal's log matches an uninterrupted
        one."""
        if not self.has_table("remediations"):
            return
        with self._lock:
            self._db.execute("DELETE FROM remediations")
            self._db.commit()

    def remediations(self):
        """Every remediation event as a dict, in (round, seq) order.
        A pre-remedy-plane database reads as an empty log."""
        if not self.has_table("remediations"):
            return []
        with self._lock:
            rows = self._db.execute(_SELECT_REMEDIATIONS).fetchall()
        return [dict(zip(_REMEDIATION_COLUMNS, row)) for row in rows]

    def remediation_count(self):
        if not self.has_table("remediations"):
            return 0
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM remediations").fetchone()[0]

    # -- failures (the fault plane's record) -------------------------------

    def failure_count(self):
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM failures").fetchone()[0]

    def failures_for(self, trial_id):
        """Every :class:`AttemptFailure` of one trial, in attempt order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT attempt, phase, cause, error_type, transient, "
                "resolution, fault_kind, host, backoff_s FROM failures "
                "WHERE trial_id = ? ORDER BY rowid", (trial_id,)).fetchall()
        return [
            AttemptFailure(attempt=attempt, phase=phase, cause=cause,
                           error_type=error_type, transient=bool(transient),
                           resolution=resolution, fault_kind=fault_kind,
                           host=host, backoff_s=backoff_s)
            for (attempt, phase, cause, error_type, transient, resolution,
                 fault_kind, host, backoff_s) in rows
        ]

    def quarantined_hosts(self):
        """Hosts the campaign quarantined, with their failure record."""
        with self._lock:
            rows = self._db.execute(
                "SELECT DISTINCT host, cause FROM failures "
                "WHERE resolution = ? ORDER BY host",
                (QUARANTINED,)).fetchall()
        return {host: cause for host, cause in rows}

    # -- run cards (the provenance plane) ----------------------------------

    def insert_run_card(self, card):
        """Append one run card (a JSON-ready dict) to ``run_cards``.

        The stored text is the canonical serialized form (sorted keys),
        so equal cards store equal bytes.  Returns the card's row id.
        """
        from repro.provenance import canonical_json

        created = card.get("created", "")
        with self._lock:
            cursor = self._db.execute(
                "INSERT INTO run_cards (created, card) VALUES (?, ?)",
                (created, canonical_json(card)))
            self._db.commit()
            return cursor.lastrowid

    def run_cards(self):
        """Every stored run card as a dict, oldest first.  A database
        that predates the provenance plane reads as an empty list."""
        if not self.has_table("run_cards"):
            return []
        with self._lock:
            rows = self._db.execute(
                "SELECT card FROM run_cards ORDER BY id").fetchall()
        return [json.loads(card) for (card,) in rows]

    def run_card_count(self):
        if not self.has_table("run_cards"):
            return 0
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM run_cards").fetchone()[0]

    # -- campaign meta (checkpoint/resume) ---------------------------------

    def set_meta(self, key, value):
        """Store a campaign-identity string under *key*."""
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO campaign_meta (key, value) "
                "VALUES (?, ?)", (key, str(value)))
            self._db.commit()

    def get_meta(self, key, default=None):
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM campaign_meta WHERE key = ?",
                (key,)).fetchone()
        return default if row is None else row[0]

    def meta(self):
        with self._lock:
            rows = self._db.execute(
                "SELECT key, value FROM campaign_meta ORDER BY key"
            ).fetchall()
        return dict(rows)

    # -- spans (the trace plane) -------------------------------------------

    def span_count(self):
        with self._lock:
            return self._db.execute(
                "SELECT COUNT(*) FROM spans").fetchone()[0]

    def spans_for(self, trial_id):
        """All spans of one trial, in span-id (DFS preorder) order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT span_id, parent_id, name, start_s, duration_s, "
                "status, attributes FROM spans WHERE trial_id = ? "
                "ORDER BY span_id", (trial_id,)).fetchall()
        return [
            SpanRecord(span_id=sid, parent_id=pid, name=name,
                       start_s=start, duration_s=duration, status=status,
                       attributes=json.loads(attributes))
            for sid, pid, name, start, duration, status, attributes in rows
        ]

    def traced_trials(self, experiment_name=None):
        """Every traced trial with its spans, in trial-row order.

        Returns ``[(trial_info_dict, [SpanRecord, ...]), ...]`` where
        the info dict carries the trial's identity columns — the join
        the ``repro trace`` report renders.
        """
        clause = ""
        params = ()
        if experiment_name is not None:
            clause = "AND t.experiment_name = ?"
            params = (experiment_name,)
        names = ("trial_id", *(column.column for column in TRIAL_IDENTITY),
                 "status")
        with self._lock:
            rows = self._db.execute(
                f"""SELECT t.id, {_IDENTITY_COLUMNS}, t.status
                    FROM trials t
                    WHERE EXISTS (SELECT 1 FROM spans s
                                  WHERE s.trial_id = t.id) {clause}
                    ORDER BY t.id""", params).fetchall()
        return [(dict(zip(names, row)), self.spans_for(row[0]))
                for row in rows]

    # -- shards (the campaign service plane) --------------------------------

    def absorb_shard(self, shard, *, meta_prefix=None, round_base=0):
        """Copy every row of *shard* into this database, in shard order.

        The ingest half of :func:`merge_shards`: trials are re-inserted
        in their shard id order (so a single shard absorbed into an
        empty database reproduces its ids exactly), child rows follow
        their trial in the same grouping the campaign ingest wrote
        them, planner decisions land with their rounds offset by
        *round_base*, and campaign meta is copied under *meta_prefix*
        (``None`` copies keys verbatim).  The whole absorption is one
        transaction.  Returns the number of trials absorbed.
        """
        src = shard._db
        absorbed = 0
        with self._lock, shard._lock:
            try:
                for key, value in src.execute(
                        "SELECT key, value FROM campaign_meta "
                        "ORDER BY key").fetchall():
                    name = key if meta_prefix is None \
                        else f"{meta_prefix}{key}"
                    self._db.execute(
                        "INSERT OR REPLACE INTO campaign_meta (key, value) "
                        "VALUES (?, ?)", (name, value))
                for row in src.execute(
                        f"SELECT id, {', '.join(_TRIAL_COLUMNS)} "
                        f"FROM trials ORDER BY id").fetchall():
                    old_id, values = row[0], row[1:]
                    cursor = self._db.execute(_INSERT_TRIAL, values)
                    new_id = cursor.lastrowid
                    for table, columns in _CHILD_COLUMNS.items():
                        for child in src.execute(
                                f"SELECT {', '.join(columns)} FROM {table} "
                                f"WHERE trial_id = ? ORDER BY rowid",
                                (old_id,)).fetchall():
                            self._db.execute(_INSERT_CHILD[table],
                                             (new_id,) + tuple(child))
                    absorbed += 1
                if shard.has_table("planner_decisions"):
                    for row in src.execute(_SELECT_DECISIONS).fetchall():
                        self._db.execute(
                            _INSERT_DECISION,
                            (row[0] + round_base,) + tuple(row[1:]))
                if shard.has_table("remediations"):
                    for row in src.execute(
                            _SELECT_REMEDIATIONS).fetchall():
                        self._db.execute(
                            _INSERT_REMEDIATION,
                            (row[0] + round_base,) + tuple(row[1:]))
                if shard.has_table("run_cards"):
                    # Provenance travels with the rows: the merged
                    # database records every shard's run card, oldest
                    # first, so "what produced these trials" survives
                    # the merge.
                    for created, card in src.execute(
                            "SELECT created, card FROM run_cards "
                            "ORDER BY id").fetchall():
                        self._db.execute(
                            "INSERT INTO run_cards (created, card) "
                            "VALUES (?, ?)", (created, card))
            except Exception:
                self._db.rollback()
                raise
            self._db.commit()
        return absorbed

    def max_planner_round(self):
        """The highest recorded planner round (0 when none)."""
        if not self.has_table("planner_decisions"):
            return 0
        with self._lock:
            row = self._db.execute(
                "SELECT MAX(round) FROM planner_decisions").fetchone()
        return row[0] or 0

    def _to_result(self, row):
        metrics = TrialMetrics(**{field: row[column]
                                  for column, field in _METRIC_FIELDS})
        cpu_rows = self._db.execute(
            "SELECT host, tier, cpu_percent FROM host_cpu "
            "WHERE trial_id = ?", (row["id"],)).fetchall()
        state_rows = self._db.execute(
            "SELECT state, count, errors, mean_response_s "
            "FROM state_metrics WHERE trial_id = ?",
            (row["id"],)).fetchall()
        per_state = {
            state: {"count": count, "errors": errors,
                    "mean_response_s": mean_response_s}
            for state, count, errors, mean_response_s in state_rows
        }
        failures = self.failures_for(row["id"])
        # Failed-attempt rows reconstruct the attempt count: a trial
        # that gave up made exactly as many attempts as it failed; a
        # recovered (or clean) trial made one more.
        attempt_rows = [f for f in failures if f.resolution != QUARANTINED]
        gave_up = any(f.resolution == GAVE_UP for f in attempt_rows)
        attempts = len(attempt_rows) + (0 if gave_up else 1)
        return TrialResult(
            **{field: row[column] for column, field in _RESULT_FIELDS},
            metrics=metrics,
            host_cpu={host: cpu for host, _tier, cpu in cpu_rows},
            tier_of_host={host: tier for host, tier, _cpu in cpu_rows},
            per_state=per_state,
            attempts=attempts,
            failures=failures,
        )


def shard_path(db_path):
    """Where a campaign's write-behind shard lives while it runs.

    The shard sits next to the campaign's final database so a killed
    daemon leaves its checkpoint where a ``resume`` submit will look
    for it — derivable from the final path alone, with no knowledge of
    the campaign id the old daemon assigned; :func:`merge_shards`
    turns it into the final database.
    """
    return f"{db_path}.shard"


def merge_shards(shards, destination, *, namespace_meta=None):
    """Merge per-campaign shard databases into *destination*, in order.

    *shards* is a sequence of :class:`ResultsDatabase` instances or
    paths; *destination* likewise (a path is created).  Rows are copied
    shard by shard in the given order, trials in shard id order with
    their child rows regrouped exactly as the campaign ingest wrote
    them — so merging one campaign's single shard into a fresh
    destination produces tables byte-identical to the campaign having
    written the destination directly, and :meth:`ResultsDatabase.
    integrity_check` holds on the merged file by construction.

    Merging *several* campaigns into one combined database namespaces
    their ``campaign_meta`` keys (``<label>:<key>``) and offsets each
    shard's planner rounds past the previous maximum so the
    ``(round, seq)`` primary key never collides.  *namespace_meta*
    supplies the per-shard labels (default: ``shard1``, ``shard2``,
    ...); a single-shard merge copies meta verbatim.

    Returns the destination :class:`ResultsDatabase` (open; the caller
    closes it).
    """
    shards = list(shards)
    owned = []
    try:
        opened = []
        for shard in shards:
            if isinstance(shard, ResultsDatabase):
                opened.append(shard)
            else:
                database = ResultsDatabase(shard)
                owned.append(database)
                opened.append(database)
        if isinstance(destination, ResultsDatabase):
            merged = destination
        else:
            merged = ResultsDatabase(destination)
        if namespace_meta is None:
            namespace_meta = [f"shard{i + 1}" for i in range(len(opened))]
        elif len(namespace_meta) != len(opened):
            raise ResultsError(
                f"{len(opened)} shard(s) but {len(namespace_meta)} "
                f"namespace label(s)")
        single = len(opened) == 1
        for label, shard in zip(namespace_meta, opened):
            merged.absorb_shard(
                shard,
                meta_prefix=None if single else f"{label}:",
                round_base=0 if single else merged.max_planner_round())
        return merged
    finally:
        for database in owned:
            database.close()
