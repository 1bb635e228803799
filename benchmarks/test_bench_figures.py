"""Every paper figure and table at bench scale, checked against its claims.

Runs each figure's default sweep once (Figures 1/2 and 7/8 share
theirs), writes each rendering to ``benchmarks/output/<id>.txt`` and
checks every full-tier row of :data:`repro.experiments.claims.CLAIMS`.
"""

from repro.experiments.claims import CLAIMS, FULL, reproduce_claimed


def test_bench_figures(once, emit):
    figures = once(reproduce_claimed, FULL)
    for figure in figures.values():
        emit(figure)
    failed = [f"{claim}: values {claim.values(figures[claim.key])}"
              for claim in CLAIMS if claim.tier == FULL
              and not claim.holds(figures[claim.key])]
    assert not failed, "\n".join(failed)
