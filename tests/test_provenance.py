"""Tests for the provenance plane: run cards, preflight, auto-sizing.

A campaign database must describe its own production — the tentpole
property is that nothing but the database is needed to see what ran
and to re-run it to the same bytes.  These tests drive
:mod:`repro.provenance` through real (tiny) campaigns: card recorded,
sidecar exported, digests verifiable, and a re-derivation from the
stored ``campaign_meta`` reproducing every digest the card certifies.
"""

import json
import os

import pytest

from repro import provenance, run_campaign
from repro.cli import main
from repro.core.campaign import META_TBL
from repro.errors import ExperimentError
from repro.experiments.scheduler import calc_parallel_jobs
from repro.obs.tracer import Tracer
from repro.results import ResultsDatabase

SMALL_TBL = """
benchmark rubis;
platform emulab;

experiment "prov-small" {
    topology 1-1-1;
    workload 10;
    write_ratio 10%;
    trial { warmup 1s; run 2s; cooldown 1s; }
}
"""


def frozen_tracer():
    return Tracer(clock=lambda: 0.0)


def run_small(database=None, **kwargs):
    return run_campaign(SMALL_TBL, database=database,
                        tracer=frozen_tracer(), **kwargs)


# -- run cards ----------------------------------------------------------


class TestRunCard:
    def test_campaign_records_exactly_one_card(self):
        report = run_small()
        database = report.database
        assert database.run_card_count() == 1
        card = database.run_cards()[0]
        assert card["version"] == provenance.RUN_CARD_VERSION
        assert card["engine"] in ("compiled", "interp")
        assert card["parameters"]["jobs"] == 1
        assert card["parameters"]["experiments"] == ["prov-small"]
        assert card["results"]["trials"] == 1
        assert card["results"]["completed"] == 1
        assert card["inputs"]["tbl_sha256"] == \
            provenance._sha256(SMALL_TBL)

    def test_card_digests_verify_against_database(self):
        report = run_small()
        card = report.database.run_cards()[-1]
        assert provenance.verify_run_card(card, report.database) == []
        for table in provenance.DIGEST_TABLES:
            assert card["tables"][table]["rows"] == \
                len(report.database.dump_rows(table))

    def test_verify_detects_tampering(self):
        report = run_small()
        database = report.database
        card = database.run_cards()[-1]
        with database._lock:
            database._db.execute(
                "UPDATE trials SET throughput = throughput + 1")
            database._db.commit()
        problems = provenance.verify_run_card(card, database)
        assert any(p.startswith("trials:") for p in problems)

    def test_file_backed_database_exports_sidecar(self, tmp_path):
        path = tmp_path / "campaign.sqlite"
        run_small(database=str(path))
        sidecar = tmp_path / "campaign.sqlite.run_card.json"
        assert sidecar.is_file()
        card = json.loads(sidecar.read_text())
        assert provenance.verify_run_card(
            card, ResultsDatabase(str(path))) == []

    def test_canonical_json_is_stable(self):
        card = {"b": 1, "a": {"z": 2, "y": 3}}
        first = provenance.canonical_json(card)
        second = provenance.canonical_json(
            json.loads(first))
        assert first == second
        assert first.index('"a"') < first.index('"b"')

    def test_rederivation_reproduces_digests(self, tmp_path):
        """The tentpole property: rebuild the campaign from the
        database's own meta and re-run — every table digest the card
        certifies comes out identical."""
        first = run_small(database=str(tmp_path / "one.sqlite"))
        card = first.database.run_cards()[-1]
        stored_tbl = first.database.get_meta(META_TBL)
        assert provenance._sha256(stored_tbl) == \
            card["inputs"]["tbl_sha256"]
        second = run_campaign(
            stored_tbl, database=str(tmp_path / "two.sqlite"),
            jobs=card["parameters"]["jobs"],
            fidelity=card["parameters"]["fidelity"],
            tracer=frozen_tracer())
        assert provenance.table_digests(second.database) == \
            card["tables"]


class TestRunCardStorage:
    def test_run_cards_survive_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        run_small(database=path)
        reopened = ResultsDatabase(path)
        assert reopened.run_card_count() == 1
        assert reopened.run_cards()[0]["results"]["trials"] == 1

    def test_absorb_shard_copies_cards(self, tmp_path):
        shard = run_small(database=str(tmp_path / "shard.sqlite")) \
            .database
        target = ResultsDatabase(str(tmp_path / "target.sqlite"))
        target.absorb_shard(shard, meta_prefix="round-0")
        assert target.run_card_count() == 1


# -- preflight ----------------------------------------------------------


class TestPreflight:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_small(jobs=0)

    def test_missing_database_directory_rejected(self, tmp_path):
        state = _small_state()
        problems = provenance.preflight(
            state, jobs=1,
            database_path=str(tmp_path / "missing" / "db.sqlite"))
        assert any("does not exist" in p for p in problems)

    def test_node_budget_checked(self):
        # The campaign constructor rejects an undersized cluster up
        # front; preflight re-checks so resumed/rebuilt states get the
        # same guard.  Shrink after construction to reach it.
        state = _small_state()
        state.node_count = 2
        problems = provenance.preflight(state, jobs=1)
        assert any("machines" in p for p in problems)

    def test_clean_state_has_no_problems(self, tmp_path):
        problems = provenance.preflight(
            _small_state(), jobs=4,
            database_path=str(tmp_path / "db.sqlite"))
        assert problems == []


def _small_state(node_count=36):
    from repro.core.campaign import ObservationCampaign

    campaign = ObservationCampaign(SMALL_TBL, node_count=node_count)
    return campaign.state


# -- worker auto-sizing -------------------------------------------------


class TestAutoJobs:
    def test_bounded_by_cpus_and_node_budget(self):
        cpus = os.cpu_count() or 1
        assert 1 <= calc_parallel_jobs() <= max(1, cpus - 1)
        # A huge per-trial cluster caps concurrency at the host budget.
        assert calc_parallel_jobs(node_count=512) == 1
        assert calc_parallel_jobs(node_count=100000) == 1

    def test_never_more_workers_than_trials(self):
        assert calc_parallel_jobs(trial_count=1) == 1
        assert calc_parallel_jobs(trial_count=0) == 1

    def test_campaign_accepts_auto(self):
        report = run_small(jobs="auto")
        card = report.database.run_cards()[-1]
        assert isinstance(card["parameters"]["jobs"], int)
        assert card["parameters"]["jobs"] >= 1


# -- CLI surface --------------------------------------------------------


class TestCardCommand:
    def test_card_prints_and_verifies(self, tmp_path, capsys):
        path = tmp_path / "cli.sqlite"
        tbl = tmp_path / "spec.tbl"
        tbl.write_text(SMALL_TBL)
        assert main(["run", "--tbl", str(tbl), "--db", str(path),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["card", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        card = json.loads(out[:out.rindex("}") + 1])
        assert card["results"]["trials"] == 1

    def test_card_without_cards_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.sqlite"
        ResultsDatabase(str(path)).close()
        assert main(["card", str(path)]) == 1

    def test_jobs_auto_flag_parses(self, tmp_path, capsys):
        tbl = tmp_path / "spec.tbl"
        tbl.write_text(SMALL_TBL)
        assert main(["run", "--tbl", str(tbl), "--jobs", "auto",
                     "--db", str(tmp_path / "a.sqlite"),
                     "--quiet"]) == 0

    def test_jobs_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--tbl", "x.tbl", "--jobs", "many"])
