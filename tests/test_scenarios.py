"""Scenario-plane tests: the matrix, its compiler, the interference-
shifted knee, open-loop SLO accounting, and the identity contracts
(jobs, kill+resume, schema migration)."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_results, resume_campaign, run_scenario
from repro.core.bottleneck import colocation_of, interference_attribution
from repro.errors import ScenarioError
from repro.results.database import ResultsDatabase
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    compile_scenario,
    get_scenario,
    list_scenarios,
    measured_knee,
    scenario_slo,
)
from repro.spec.tbl import parse as parse_tbl
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    arrival_trace,
)
from tests.conftest import trials_schema

OBSERVATION_TABLES = ("trials", "host_cpu", "state_metrics")


def observation_dump(database):
    assert database.integrity_check() == []
    return {table: database.dump_rows(table)
            for table in OBSERVATION_TABLES}


class TestMatrix:
    def test_table_has_the_headline_pair(self):
        names = [s.name for s in list_scenarios()]
        assert "dedicated-baseline" in names
        assert "consolidated-2x" in names
        assert "flash-crowd-slo" in names

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ScenarioError, match="dedicated-baseline"):
            get_scenario("no-such-scenario")

    def test_every_row_compiles_and_round_trips_identity(self):
        for scenario in list_scenarios():
            spec = parse_tbl(compile_scenario(scenario))
            experiment = spec.experiments[0]
            assert experiment.scenario == scenario.name
            assert experiment.consolidation_ratio == \
                scenario.consolidation
            if scenario.arrival is None:
                assert experiment.arrival is None
            else:
                assert experiment.arrival.kind == \
                    scenario.arrival["kind"]
            assert experiment.workloads == scenario.workloads
            assert experiment.slo.response_time == pytest.approx(
                scenario.slo_response_ms / 1000.0)

    def test_adding_a_scenario_is_a_data_edit(self, monkeypatch):
        # The zero-code contract: one new table entry makes the name
        # resolvable, compilable, and checkable.
        entry = {
            "name": "added-by-table-entry",
            "description": "data-only addition",
            "topology": "1-2-1",
            "consolidation": 3,
            "arrival": {"kind": "bursty", "burst": 2.0},
            "workloads": (30,),
            "expects": {"knee_min": 0},
        }
        monkeypatch.setattr("repro.scenarios.SCENARIOS",
                            SCENARIOS + (entry,))
        scenario = get_scenario("added-by-table-entry")
        text = compile_scenario(scenario)
        assert 'scenario "added-by-table-entry";' in text
        assert "consolidation 3;" in text
        assert "arrival bursty" in text

    def test_unknown_expectation_key_is_rejected(self):
        with pytest.raises(ScenarioError, match="knee_mim"):
            Scenario(name="typo", description="x",
                     expects={"knee_mim": 10})

    def test_bad_arrival_is_rejected_at_the_table(self):
        with pytest.raises(ScenarioError, match="unknown arrival kind"):
            Scenario(name="bad", description="x",
                     arrival={"kind": "meteor"})


class _Killed(Exception):
    pass


@pytest.fixture(scope="module")
def headline():
    """The dedicated/consolidated pair, run once for the module."""
    return {
        "dedicated": run_scenario("dedicated-baseline"),
        "consolidated": run_scenario("consolidated-2x"),
    }


class TestInterferenceShiftedKnee:
    def test_both_scenarios_meet_their_expected_ranges(self, headline):
        assert headline["dedicated"].ok, headline["dedicated"].failures
        assert headline["consolidated"].ok, \
            headline["consolidated"].failures

    def test_consolidation_shifts_the_knee_left(self, headline):
        # The assertion comes from the scenario table itself: the two
        # expected ranges are disjoint, so a run that satisfies both
        # has demonstrated the interference-shifted knee.
        dedicated = get_scenario("dedicated-baseline")
        consolidated = get_scenario("consolidated-2x")
        assert consolidated.expects["knee_max"] < \
            dedicated.expects["knee_min"]
        knees = {}
        for key, scenario in (("dedicated", dedicated),
                              ("consolidated", consolidated)):
            rows = headline[key].report.database.query(
                scenario=scenario.name)
            knees[key] = measured_knee(rows, scenario_slo(scenario))
        assert knees["consolidated"] < knees["dedicated"]

    def test_colocation_lands_in_the_observation_rows(self, headline):
        rows = headline["consolidated"].report.database.query(
            scenario="consolidated-2x")
        top = max(rows, key=lambda r: r.workload)
        placement = colocation_of(top)
        assert placement, "consolidated trial recorded no physical rows"
        assert all(physical.startswith("phys-")
                   for physical, _cotenants in placement.values())
        # Three servers packed two-per-host: one pair shares, the odd
        # one out sits alone on its own physical host.
        assert any(cotenants
                   for _physical, cotenants in placement.values())
        dedicated_top = max(
            headline["dedicated"].report.database.query(
                scenario="dedicated-baseline"),
            key=lambda r: r.workload)
        assert colocation_of(dedicated_top) == {}

    def test_saturation_is_attributed_to_the_cotenant(self, headline):
        rows = headline["consolidated"].report.database.query(
            scenario="consolidated-2x")
        top = max(rows, key=lambda r: r.workload)
        attributions = interference_attribution(top)
        assert attributions
        assert all(a["cotenants"] for a in attributions)

    def test_query_filters_on_scenario(self, headline):
        database = headline["dedicated"].report.database
        named = database.query(scenario="dedicated-baseline")
        assert named and all(
            r.scenario == "dedicated-baseline" for r in named)
        assert database.query(scenario="consolidated-2x") == []


class TestOpenLoopScenarios:
    def test_flash_crowd_breaks_the_slo_with_backlog(self):
        outcome = run_scenario("flash-crowd-slo")
        assert outcome.ok, outcome.failures
        (row,) = outcome.report.database.query(
            scenario="flash-crowd-slo")
        assert row.metrics.backlog >= 100
        assert row.metrics.error_ratio > 0

    def test_sustainable_diurnal_meets_the_slo(self):
        outcome = run_scenario("diurnal-open-loop")
        assert outcome.ok, outcome.failures

    def test_jobs_do_not_change_the_bytes(self):
        serial = run_scenario("consolidated-burst")
        parallel = run_scenario("consolidated-burst", jobs=4)
        assert observation_dump(parallel.report.database) == \
            observation_dump(serial.report.database)

    def test_check_false_skips_the_verdicts(self):
        outcome = run_scenario("diurnal-open-loop", check=False)
        assert outcome.failures == []


class TestKillResume:
    @pytest.mark.parametrize("after", [1, 3])
    def test_killed_scenario_resumes_byte_identically(self, headline,
                                                      after):
        reference = observation_dump(
            headline["consolidated"].report.database)
        database = ResultsDatabase()
        seen = []

        def killer(result):
            seen.append(result)
            if len(seen) == after:
                raise _Killed

        with pytest.raises(_Killed):
            run_scenario("consolidated-2x", database=database,
                         on_result=killer)
        assert database.count() == after
        # The checkpointed TBL text carries the scenario settings, so
        # the ordinary resume path reproduces the remaining trials
        # without the scenario plane being involved at all.
        resume_campaign(database)
        assert observation_dump(database) == reference
        assert all(r.scenario == "consolidated-2x"
                   for r in database.query())


def _downgrade_to_pre_scenario(path):
    """Strip backlog+scenario, reproducing a pre-scenario file."""
    kept = ("id, experiment_name, benchmark, platform, topology, "
            "workload, write_ratio, seed, status, "
            "completed_requests, errors, timeouts, rejections, "
            "duration_s, throughput, mean_response_s, "
            "p50_response_s, p90_response_s, p99_response_s, "
            "collected_bytes, script_lines, config_lines, "
            "generated_files, machine_count, fidelity")
    connection = sqlite3.connect(path)
    with connection:
        connection.execute("PRAGMA foreign_keys=OFF")
        connection.execute("PRAGMA legacy_alter_table=ON")
        connection.execute(
            "ALTER TABLE trials RENAME TO trials_current")
        connection.execute("""
            CREATE TABLE trials (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                experiment_name TEXT NOT NULL,
                benchmark TEXT NOT NULL, platform TEXT NOT NULL,
                topology TEXT NOT NULL, workload INTEGER NOT NULL,
                write_ratio REAL NOT NULL, seed INTEGER NOT NULL,
                status TEXT NOT NULL,
                completed_requests INTEGER NOT NULL,
                errors INTEGER NOT NULL, timeouts INTEGER NOT NULL,
                rejections INTEGER NOT NULL,
                duration_s REAL NOT NULL, throughput REAL NOT NULL,
                mean_response_s REAL NOT NULL,
                p50_response_s REAL NOT NULL,
                p90_response_s REAL NOT NULL,
                p99_response_s REAL NOT NULL,
                collected_bytes INTEGER NOT NULL,
                script_lines INTEGER NOT NULL,
                config_lines INTEGER NOT NULL,
                generated_files INTEGER NOT NULL,
                machine_count INTEGER NOT NULL,
                fidelity TEXT NOT NULL DEFAULT 'des',
                UNIQUE (experiment_name, topology, workload,
                        write_ratio, seed, fidelity)
            )""")
        connection.execute(
            f"INSERT INTO trials SELECT {kept} FROM trials_current")
        connection.execute("DROP TABLE trials_current")
    connection.close()


class TestSchemaMigration:
    def test_pre_scenario_database_migrates_in_place(self, tmp_path):
        path = tmp_path / "legacy.db"
        with open_results(path) as database:
            run_scenario("diurnal-open-loop", database=database)
            before = [(r.experiment_name, r.workload, r.fidelity)
                      for r in database.query()]
        _downgrade_to_pre_scenario(path)
        with open_results(path) as migrated:
            rows = migrated.query()
            assert [(r.experiment_name, r.workload, r.fidelity)
                    for r in rows] == before
            # Pre-scenario rows were plain sweep points by construction.
            assert {r.scenario for r in rows} == {""}
            assert {r.metrics.backlog for r in rows} == {0}
            assert all(len(key) == 7
                       for key in migrated.trial_keys())
            assert migrated.integrity_check() == []
        fresh = tmp_path / "fresh.db"
        ResultsDatabase(fresh).close()
        assert trials_schema(path) == trials_schema(fresh)

    def test_trial_keys_carry_scenario_identity(self, headline):
        keys = headline["dedicated"].report.database.trial_keys()
        assert keys and all(
            key[-1] == "dedicated-baseline" for key in keys)


class TestScenarioCli:
    def test_list_shows_the_matrix(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "dedicated-baseline" in out
        assert "flash-crowd-slo" in out
        assert "knee_min=240" in out

    def test_run_checks_and_stores(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "scenario.db"
        assert main(["scenarios", "run", "diurnal-open-loop",
                     "--db", str(db), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "expectations met" in out
        with open_results(db, create=False) as database:
            rows = database.query(scenario="diurnal-open-loop")
            assert rows and rows[0].scenario == "diurnal-open-loop"
            cards = database.run_cards()
            assert cards[-1]["parameters"]["scenarios"] == \
                ["diurnal-open-loop"]

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "run", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err


# -- arrival-process determinism (property tests) -----------------------

@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(ARRIVAL_KINDS),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       rate=st.floats(min_value=0.5, max_value=20.0))
def test_arrival_trace_is_a_pure_function_of_seed(kind, seed, rate):
    spec = ArrivalSpec(kind=kind)
    first = arrival_trace(spec, base_rate=rate, seed=seed, span=60.0)
    second = arrival_trace(spec, base_rate=rate, seed=seed, span=60.0)
    assert first == second
    assert all(b > a for a, b in zip(first, first[1:]))
    assert all(0.0 <= t < 60.0 for t in first)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(ARRIVAL_KINDS),
       seed=st.integers(min_value=0, max_value=2**20))
def test_arrival_trace_depends_on_the_seed(kind, seed):
    spec = ArrivalSpec(kind=kind)
    first = arrival_trace(spec, base_rate=5.0, seed=seed, span=60.0)
    second = arrival_trace(spec, base_rate=5.0, seed=seed + 1, span=60.0)
    assert first != second
