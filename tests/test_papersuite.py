"""Tests for the whole-suite driver and the ASCII chart renderer."""

import pytest

from repro.api import reproduce_all, reproduce_figure
from repro.errors import ExperimentError, SimulationError
from repro.experiments.figures import FIGURE_IDS, FIGURES, reproduce
from repro.results import ResultsDatabase
from repro.results.report import render_ascii_chart


class TestSuiteInventory:
    def test_every_paper_artifact_covered(self):
        for expected in (
                "figure1", "figure2", "figure3", "figure4", "figure5",
                "figure6", "figure7", "figure8", "table1", "table2",
                "table3", "table4", "table5", "table6", "table7"):
            assert expected in FIGURE_IDS

    def test_supplemental_sets_included(self):
        assert "supplemental_rubbos_scaleout" in FIGURE_IDS
        assert "supplemental_weblogic_scaleout" in FIGURE_IDS

    def test_ids_unique(self):
        assert len(set(FIGURE_IDS)) == len(FIGURE_IDS)

    def test_entries_well_formed(self):
        for name, figure in FIGURES.items():
            assert figure.figure_id == name
            if figure.sweep is None:
                assert callable(figure.build)
            else:
                assert figure.title and figure.heading
                assert callable(figure.view) and callable(figure.render)


class TestReproduce:
    def test_single_cheap_reproduction(self):
        figure = reproduce("table5")
        assert figure.figure_id == "table5"
        assert "workers2" in figure.rendered

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            reproduce("figure99")

    def test_reproduce_all_subset(self, tmp_path):
        messages = []
        with ResultsDatabase() as db:
            results = reproduce_all(
                output_dir=tmp_path, database=db,
                on_progress=messages.append,
                only=("table4", "table5"),
            )
            assert set(results) == {"table4", "table5"}
            assert (tmp_path / "table4.txt").is_file()
            assert (tmp_path / "table5.txt").is_file()
            # Generation-only tables contribute no trials.
            assert db.count() == 0
        assert any("running table4" in m for m in messages)

    def test_unknown_fidelity_rejected_by_catalog_tables(self):
        with pytest.raises(SimulationError, match="unknown fidelity"):
            reproduce("table1", fidelity="bogus")

    @pytest.mark.parametrize("reproduce_fn", [
        lambda out: reproduce_all(output_dir=out, fidelity="auto"),
        lambda out: reproduce_figure("table1", output_dir=out,
                                     fidelity="auto"),
    ])
    def test_auto_fidelity_rejected_before_any_figure_runs(
            self, tmp_path, reproduce_fn):
        with pytest.raises(ExperimentError, match="adaptive-exploration"):
            reproduce_fn(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_all_stores_trials(self, tmp_path):
        with ResultsDatabase() as db:
            results = reproduce_all(
                database=db, scale=0.04, only=("table6",),
            )
            assert db.count() == len(results["table6"].results) > 0


class TestAsciiChart:
    def test_chart_contains_axes_and_legend(self):
        chart = render_ascii_chart(
            "demo", {"1-1-1": [(100, 10.0), (200, 50.0), (300, 400.0)]},
        )
        assert "demo" in chart
        assert "* 1-1-1" in chart
        assert "400" in chart          # y max label
        assert "100" in chart and "300" in chart

    def test_chart_multiple_series_distinct_glyphs(self):
        chart = render_ascii_chart(
            "demo", {"a": [(1, 1.0)], "b": [(1, 2.0)]},
        )
        assert "* a" in chart and "o b" in chart

    def test_chart_empty(self):
        assert "(no data)" in render_ascii_chart("demo", {"a": []})

    def test_chart_monotone_series_descends_visually(self):
        series = {"s": [(i, float(i)) for i in range(1, 11)]}
        chart = render_ascii_chart("demo", series, width=20, height=8)
        lines = chart.splitlines()[1:9]
        first_star = [line.index("*") for line in lines if "*" in line]
        # Higher values render on earlier (upper) rows at later columns.
        assert first_star == sorted(first_star, reverse=True)


class TestCliIntegration:
    def test_cli_figure_all_subset_smoke(self, tmp_path, capsys):
        # 'all' is exercised through the library path above; here the
        # CLI single-figure path with --out.
        from repro.cli import main
        status = main(["figure", "--id", "table4", "--out",
                       str(tmp_path)])
        assert status == 0
        assert (tmp_path / "table4.txt").is_file()

    def test_cli_report_chart(self, tmp_path, capsys):
        from repro.cli import main
        tbl = tmp_path / "spec.tbl"
        tbl.write_text("""
        benchmark rubis; platform emulab;
        experiment "c" { topology 1-1-1; workload 100, 200;
                         trial { warmup 14s; run 10s; cooldown 2s; } }
        """)
        db = tmp_path / "obs.sqlite"
        main(["run", "--tbl", str(tbl), "--db", str(db), "--nodes", "8",
              "--quiet"])
        capsys.readouterr()
        status = main(["report", "--db", str(db), "--chart"])
        assert status == 0
        out = capsys.readouterr().out
        assert "* 1-1-1" in out
