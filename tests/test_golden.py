"""Golden-digest corpus: committed table digests of small fixed campaigns.

Refactors of the results plumbing are checked against these recorded
digests rather than against a second copy of the code.  Each campaign
drives one path that stores or reuses trials by their identity key:

* ``chaos-retries`` — injected transient faults with retries, so the
  ``failures`` table fills;
* ``tiered-resume`` — a ``fidelity="auto"`` knee exploration killed
  part-way and resumed (the exploration's done-dict);
* ``heal`` — a faulted campaign healed in place (the remedy plane's
  done-dicts and replace-by-key inserts);
* ``scenario-flash-crowd`` — one scenario-matrix row (scenario identity,
  open-loop backlog).

The schema of a fresh database is recorded too, and databases from the
pre-fidelity and pre-scenario eras must migrate to exactly that shape.

The digests change only when a change is meant to alter observations;
re-record them from the repository root with
``PYTHONPATH=src python -m tests.test_golden``.
"""

import json
import pathlib

import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, resume_campaign, \
    run_campaign
from repro.api import heal_campaign, run_scenario
from repro.core.campaign import ObservationCampaign
from repro.faults import EVERY_ATTEMPT
from repro.provenance import DIGEST_TABLES, table_digests
from repro.results.database import ResultsDatabase
from repro.sim import AUTO
from tests.conftest import trials_schema
from tests.test_analytic import _downgrade_to_legacy
from tests.test_scenarios import _downgrade_to_pre_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "digests.json"

CHAOS_TBL = """
benchmark rubis; platform emulab;
experiment "chaos" {
    topology 1-1-1, 1-2-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

CHAOS_PLAN = FaultPlan([
    FaultSpec(kind="host-crash", target="node-*", rate=0.5),
    FaultSpec(kind="monitor-truncate", rate=0.4),
], seed=11)

CHAOS_RETRY = RetryPolicy(max_attempts=3, quarantine_after=10)

KNEE_TBL = """
benchmark rubis; platform emulab;
experiment "adaptive" {
    topology 1-1-1;
    workload 100, 200, 300, 400, 500, 600, 700, 800;
    write_ratio 15%;
    trial { warmup 2s; run 10s; cooldown 2s; }
    slo { response_time 1.0s; error_ratio 10%; }
}
"""

HEAL_TBL = """
benchmark rubis; platform emulab;
experiment "healdemo" {
    topology 1-1-1;
    workload 50, 100, 150, 200;
    write_ratio 15%;
    trial { warmup 3s; run 15s; cooldown 3s; }
}
"""

CRASH_PLAN = FaultPlan([FaultSpec(kind="host-crash", target="node-1",
                                  rate=1.0, attempts=EVERY_ATTEMPT,
                                  transient=False)], seed=3)

CRASH_RETRY = RetryPolicy(max_attempts=2, quarantine_after=2)


class _Killed(Exception):
    pass


def chaos_retries(database):
    run_campaign(CHAOS_TBL, database=database, faults=CHAOS_PLAN,
                 retry=CHAOS_RETRY)


def tiered_resume(database):
    seen = []

    def killer(result):
        seen.append(result)
        if len(seen) == 3:
            raise _Killed

    campaign = ObservationCampaign(KNEE_TBL, database=database,
                                   node_count=8)
    with pytest.raises(_Killed):
        campaign.run_adaptive(policy="knee", fidelity=AUTO,
                              on_result=killer)
    resume_campaign(database)


def heal(database):
    run_campaign(HEAL_TBL, database=database, faults=CRASH_PLAN,
                 retry=CRASH_RETRY)
    heal_campaign(database, jobs=1)


def scenario_flash_crowd(database):
    run_scenario("flash-crowd-slo", database=database)


CAMPAIGNS = {
    "chaos-retries": chaos_retries,
    "tiered-resume": tiered_resume,
    "heal": heal,
    "scenario-flash-crowd": scenario_flash_crowd,
}


def campaign_digests(name):
    database = ResultsDatabase()
    try:
        CAMPAIGNS[name](database)
        assert database.integrity_check() == []
        return table_digests(database)
    finally:
        database.close()


def fresh_schema(directory):
    path = pathlib.Path(directory) / "fresh.db"
    ResultsDatabase(path).close()
    return trials_schema(path)


def _as_json(value):
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_matches_its_golden_digests(golden, name):
    assert campaign_digests(name) == golden["campaigns"][name]


def test_fresh_schema_matches_golden(golden, tmp_path):
    assert _as_json(fresh_schema(tmp_path)) == golden["schema"]


def _observations(database, backlog_at):
    """Every digest table's rows, with the trials' ``backlog`` column
    (which no older era recorded) left out."""
    rows = {table: database.dump_rows(table) for table in DIGEST_TABLES}
    rows["trials"] = [row[:backlog_at] + row[backlog_at + 1:]
                      for row in rows["trials"]]
    return rows


@pytest.mark.parametrize("era", ["pre-fidelity", "pre-scenario"])
def test_older_database_migrates_to_the_fresh_schema(tmp_path, era):
    downgrade = {"pre-fidelity": _downgrade_to_legacy,
                 "pre-scenario": _downgrade_to_pre_scenario}[era]
    columns, _keys = fresh_schema(tmp_path)
    backlog_at = [column[1] for column in columns].index("backlog")
    path = tmp_path / "old.db"
    with ResultsDatabase(path) as database:
        chaos_retries(database)
        before = _observations(database, backlog_at)
    downgrade(path)
    assert trials_schema(path) != fresh_schema(tmp_path)
    with ResultsDatabase(path) as migrated:
        # Every row of an older era was a plain DES sweep point, so the
        # migration's defaults restore the rows.
        assert _observations(migrated, backlog_at) == before
        assert {row.metrics.backlog for row in migrated.query()} == {0}
        assert migrated.integrity_check() == []
    assert trials_schema(path) == fresh_schema(tmp_path)


def record():
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        schema = fresh_schema(directory)
    golden = {
        "campaigns": {name: campaign_digests(name)
                      for name in sorted(CAMPAIGNS)},
        "schema": _as_json(schema),
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    print(f"recorded {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
