"""Tests for the command-line interface and the export module."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.errors import ResultsError
from repro.results.export import from_csv, to_csv, to_json
from tests.test_results import make_result

SMALL_TBL = """
benchmark rubis;
platform emulab;
experiment "cli-test" {
    topology 1-1-1;
    workload 100, 200;
    write_ratio 15%;
    trial { warmup 14s; run 15s; cooldown 3s; }
}
"""


@pytest.fixture
def tbl_file(tmp_path):
    path = tmp_path / "spec.tbl"
    path.write_text(SMALL_TBL)
    return path


class TestExport:
    def test_csv_roundtrip(self):
        results = [make_result(workload=100), make_result(workload=200)]
        text = to_csv(results)
        rows = from_csv(text)
        assert len(rows) == 2
        assert rows[0]["workload"] == 100
        assert rows[0]["topology"] == "1-1-1"
        assert rows[0]["app_cpu_percent"] == pytest.approx(50.0)

    def test_json_includes_host_cpu(self):
        payload = json.loads(to_json([make_result()]))
        assert payload[0]["host_cpu"]["node-1"] == 50.0
        assert payload[0]["tier_of_host"]["node-2"] == "db"

    def test_empty_export_rejected(self):
        with pytest.raises(ResultsError):
            to_csv([])

    def test_from_csv_rejects_garbage(self):
        with pytest.raises(ResultsError):
            from_csv("a,b\n1,2\n")

    def test_trials_differing_only_in_identity_export_distinctly(self):
        des = make_result()
        trials = [des, dataclasses.replace(des, fidelity="analytic"),
                  dataclasses.replace(des, scenario="consolidated-2x")]
        csv_rows = to_csv(trials).splitlines()[1:]
        assert len(set(csv_rows)) == 3
        objects = {json.dumps(row, sort_keys=True)
                   for row in json.loads(to_json(trials))}
        assert len(objects) == 3
        assert [(row["fidelity"], row["scenario"])
                for row in from_csv(to_csv(trials))] == [
            ("des", ""), ("analytic", ""), ("des", "consolidated-2x")]

    def test_export_without_the_appended_columns_still_parses(self):
        # Written before fidelity, scenario and backlog were exported.
        older = (
            "experiment_name,benchmark,platform,topology,workload,"
            "write_ratio,seed,status,completed,errors,timeouts,rejections,"
            "duration_s,throughput,mean_response_ms,p50_response_ms,"
            "p90_response_ms,p99_response_ms,error_ratio,app_cpu_percent,"
            "db_cpu_percent,web_cpu_percent,collected_bytes,script_lines,"
            "config_lines,machine_count,attempts\n"
            "exp,rubis,emulab,1-1-1,100,0.15,42,completed,428,0,0,0,30.0,"
            "14.2857,50.0,50.0,100.0,150.0,0.0,50.0,20.0,0.0,100000,1000,"
            "60,5,1\n")
        (row,) = from_csv(older)
        assert row == from_csv(to_csv([make_result()]))[0]
        assert (row["fidelity"], row["scenario"], row["backlog"]) == \
            ("des", "", 0)


class TestCli:
    def test_validate(self, tbl_file, capsys):
        assert main(["validate", "--tbl", str(tbl_file)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out
        assert "cli-test" in out

    def test_validate_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.tbl"
        bad.write_text("benchmark rubis;\nexperiment oops\n")
        assert main(["validate", "--tbl", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_bundle_to_disk(self, tbl_file, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        status = main([
            "generate", "--tbl", str(tbl_file),
            "--experiment", "cli-test", "--out", str(out_dir),
        ])
        assert status == 0
        roots = list(out_dir.iterdir())
        assert len(roots) == 1
        root = roots[0]
        assert (root / "run.sh").is_file()
        assert (root / "manifest.txt").is_file()
        assert (root / "scripts" / "TOMCAT1_install.sh").is_file()
        assert (root / "config" / "driver.properties").is_file()

    def test_generate_with_point_override(self, tbl_file, tmp_path):
        out_dir = tmp_path / "bundle"
        status = main([
            "generate", "--tbl", str(tbl_file),
            "--experiment", "cli-test", "--topology", "1-2-1",
            "--workload", "500", "--out", str(out_dir),
        ])
        assert status == 0
        root = next(out_dir.iterdir())
        assert "1-2-1" in root.name and "u500" in root.name

    def test_generate_smartfrog(self, tbl_file, tmp_path):
        out_dir = tmp_path / "sf"
        status = main([
            "generate", "--tbl", str(tbl_file),
            "--experiment", "cli-test", "--backend", "smartfrog",
            "--out", str(out_dir),
        ])
        assert status == 0
        text = (out_dir / "deployment.sf").read_text()
        assert "sfConfig extends Compound" in text

    def test_run_and_report_text(self, tbl_file, tmp_path, capsys):
        db_path = tmp_path / "obs.sqlite"
        status = main([
            "run", "--tbl", str(tbl_file), "--db", str(db_path),
            "--nodes", "10", "--quiet",
        ])
        assert status == 0
        assert db_path.is_file()
        capsys.readouterr()
        status = main(["report", "--db", str(db_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "1-1-1 @ wr=15%" in out
        assert "rt_ms" in out

    def test_report_csv_export(self, tbl_file, tmp_path, capsys):
        db_path = tmp_path / "obs.sqlite"
        main(["run", "--tbl", str(tbl_file), "--db", str(db_path),
              "--nodes", "10", "--quiet"])
        out_file = tmp_path / "trials.csv"
        capsys.readouterr()
        status = main(["report", "--db", str(db_path), "--format", "csv",
                       "--out", str(out_file)])
        assert status == 0
        rows = from_csv(out_file.read_text())
        assert len(rows) == 2
        assert {row["workload"] for row in rows} == {100, 200}

    def test_report_empty_db(self, tmp_path, capsys):
        from repro.results import ResultsDatabase
        db_path = tmp_path / "empty.sqlite"
        ResultsDatabase(str(db_path)).close()
        assert main(["report", "--db", str(db_path)]) == 1

    def test_figure_table5(self, tmp_path, capsys):
        status = main(["figure", "--id", "table5", "--out",
                       str(tmp_path)])
        assert status == 0
        assert (tmp_path / "table5.txt").is_file()
        assert "workers2.properties" in capsys.readouterr().out

    def test_figure_unknown_id(self, capsys):
        assert main(["figure", "--id", "figure99"]) == 1
        assert "unknown figure id" in capsys.readouterr().err

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "mysql" in out and "emulab" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2


class TestTraceCommand:
    def test_run_with_trace_then_trace_report(self, tbl_file, tmp_path,
                                              capsys):
        db_path = tmp_path / "traced.sqlite"
        status = main([
            "run", "--tbl", str(tbl_file), "--db", str(db_path),
            "--nodes", "10", "--trace", "--quiet",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "repro trace" in out
        status = main(["trace", str(db_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "Per-trial phase breakdown" in out
        for phase in ("allocate", "generate", "deploy", "verify",
                      "simulate", "collect", "analyze", "teardown"):
            assert phase in out
        assert "Worker utilization" in out

    def test_trace_on_untraced_db_errors(self, tbl_file, tmp_path,
                                         capsys):
        db_path = tmp_path / "plain.sqlite"
        main(["run", "--tbl", str(tbl_file), "--db", str(db_path),
              "--nodes", "10", "--quiet"])
        capsys.readouterr()
        status = main(["trace", str(db_path)])
        assert status == 1
        assert "--trace" in capsys.readouterr().err

    def test_trace_missing_db_errors(self, tmp_path, capsys):
        status = main(["trace", str(tmp_path / "nope.sqlite")])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_figure_trace_stores_spans(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status = main(["figure", "--id", "table6", "--scale", "0.02",
                       "--trace"])
        assert status == 0
        out = capsys.readouterr().out
        assert "trace.sqlite" in out
        from repro.api import open_results
        with open_results(str(tmp_path / "trace.sqlite"),
                          create=False) as database:
            assert database.span_count() > 0
            assert database.count() > 0
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "trace.sqlite")]) == 0
        assert "Slowest phases" in capsys.readouterr().out
