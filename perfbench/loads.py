"""The benchmark's four workloads: the inputs each one generates.

Every workload is a function of the benchmark's ``--seed`` alone.  The
TBL workloads put the seed into the TBL ``seed`` setting, so the program
receives nothing but the generated TBL text.  The scenario matrix runs
the five committed rows, in table order, through ``api.run_scenario`` at
the seeds their expected ranges were calibrated at, so its inputs are
the same at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The benchmark's default seed: the TBL language's own default.
DEFAULT_SEED = 42
#: Seeds whose observation digests are committed in ``golden.json``; at
#: any other seed a run checks only that its campaigns agree.
GOLDEN_SEEDS = tuple(range(32)) + (DEFAULT_SEED,)

#: Scenario-matrix rows, in table order.
SCENARIO_NAMES = ("dedicated-baseline", "consolidated-2x",
                  "diurnal-open-loop", "flash-crowd-slo",
                  "consolidated-burst")

#: The observation tables whose digests certify a campaign's output.
#: ``spans`` is left out: span timings are host time, not observations.
OBSERVATION_TABLES = ("trials", "host_cpu", "state_metrics", "failures")

_PAPER_DES = """\
benchmark rubbos; platform emulab;
experiment "paper-des" {{
    topology 1-2-1;
    workload 1500;
    write_ratio 15%;
    repetitions 2;
    trial {{ warmup 15s; run 90s; cooldown 15s; }}
    seed {seed};
}}
"""

_APPARATUS_SMOKE = """\
benchmark rubis; platform emulab;
experiment "apparatus-smoke" {{
    topology 1-1-1, 1-2-1, 1-4-1, 1-8-1, 1-12-1;
    workload 10, 20;
    write_ratio 0%, 15%;
    repetitions 16;
    trial {{ warmup 1s; run 2s; cooldown 1s; }}
    seed {seed};
}}
"""

_ANALYTIC_FLEET = """\
benchmark rubbos; platform emulab;
experiment "analytic-fleet" {{
    topology 1-1-1 to 1-12-3;
    workload 100 to 3000 step 100;
    write_ratio 0%, 15%, 30%;
    seed {seed};
}}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    #: TBL template with a ``{seed}`` field; None for the scenario matrix
    template: str | None
    fidelity: str = "des"

    @property
    def seeded(self):
        """Whether the seed changes the observations (and so whether
        the golden digests only hold at :data:`DEFAULT_SEED`)."""
        return self.template is not None

    def tbl(self, seed):
        return self.template.format(seed=seed)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("paper-des", _PAPER_DES),
        Workload("apparatus-smoke", _APPARATUS_SMOKE),
        Workload("scenario-matrix", None),
        Workload("analytic-fleet", _ANALYTIC_FLEET, fidelity="analytic"),
    )
}
