"""The paper's claims at test scale, and the figure plumbing under them.

Every test-tier row of :data:`repro.experiments.claims.CLAIMS` is one
``test_claim`` case — who wins, by roughly what factor, where crossovers
fall — on reduced sweeps that run once per module.  The benchmark
harness checks the full-tier rows on the figures' default sweeps.
"""

import json
import re

import pytest

from repro.experiments.claims import (
    CLAIMS,
    FULL,
    PREDICATES,
    SCALES,
    TEST,
    reproduce_claimed,
)
from repro.experiments.figures import FIGURE_IDS, FIGURES, OVERRIDABLE, reproduce
from tests.test_golden import GOLDEN_PATH, claims_digest

TEST_CLAIMS = [claim for claim in CLAIMS if claim.tier == TEST]


def _claim_id(claim):
    words = re.findall(r"[\w.\-]+", repr(claim.operands))
    return f"{claim.figure_id}-{claim.predicate}-{'_'.join(words)}"


@pytest.fixture(scope="module")
def figures():
    return reproduce_claimed(TEST)


def _test_figure(figures, figure_id):
    return next(figures[claim.key] for claim in TEST_CLAIMS
                if claim.figure_id == figure_id)


@pytest.mark.parametrize("claim", TEST_CLAIMS, ids=_claim_id)
def test_claim(figures, claim):
    figure = figures[claim.key]
    assert claim.holds(figure), f"{claim}: values {claim.values(figure)}"


class TestClaimsTable:
    def test_rows_are_well_formed(self):
        for claim in CLAIMS:
            assert claim.figure_id in FIGURES, claim
            assert claim.tier in SCALES, claim
            assert claim.predicate in PREDICATES, claim
            assert claim.operands and claim.section, claim

    def test_every_suite_id_has_a_full_scale_row(self):
        claimed = {claim.figure_id for claim in CLAIMS
                   if claim.tier == FULL}
        assert claimed == set(FIGURE_IDS)

    def test_only_grid_knobs_are_overridable(self):
        assert OVERRIDABLE <= set(vars(FIGURES["figure5"].sweep))
        with pytest.raises(TypeError, match="overrides only"):
            reproduce("figure5", benchmark="rubbos")

    def test_table_matches_its_golden_digest(self):
        # No claim may be dropped, loosened or flipped unnoticed: any
        # edit to the table re-records its digest in the same change
        # (PYTHONPATH=src python -m tests.test_golden).
        golden = json.loads(GOLDEN_PATH.read_text())
        assert claims_digest() == golden["claims"]


class TestFigure1and2:
    def test_figure1_tbl_recorded(self, figures):
        fig = _test_figure(figures, "figure1")
        assert "benchmark rubis" in fig.tbl_source

    def test_figures_1_and_2_share_observations(self, figures):
        rt = _test_figure(figures, "figure1").data
        cpu = _test_figure(figures, "figure2").data
        assert set(rt) == set(cpu)


class TestTable7:
    def test_rendering_marks_dnf(self, figures):
        assert "-" in _test_figure(figures, "table7").rendered


class TestGenerationTables:
    def test_store_figure_in_database(self):
        from repro.results import ResultsDatabase
        fig = reproduce("figure1", scale=0.02, workload_step=200,
                        ratio_step=0.9)
        with ResultsDatabase() as db:
            fig.store(db)
            assert db.count() == len(fig.results)
