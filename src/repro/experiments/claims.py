"""The paper's claims about its figures, declared once.

Each :class:`Claim` row reads one figure of :data:`FIGURES` at one scale
tier and checks one named predicate over cells of the figure's data,
like the rows of a Gherkin ``Examples:`` table.  The ``test`` tier runs
reduced sweeps at scale 0.05 in tier-1 (``tests/test_figures.py``); the
``full`` tier runs every figure's default sweep at bench scale
(``benchmarks/test_bench_figures.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from repro.experiments.figures import BENCH_SCALE, FIGURES, Sweep

TEST, FULL = "test", "full"

#: Trial-phase scale of each tier.
SCALES = {TEST: 0.05, FULL: BENCH_SCALE}

#: The operand naming a figure's rendered text instead of a data cell.
RENDERED = "rendered"


def _spread_below(values, bound):
    present = [value for value in values if value is not None]
    return max(present) - min(present) < bound * max(present)


#: Predicates over the operand values ``v`` and the row's bound.  A
#: ratio's divisor is floored at 1 so a near-zero cell cannot make the
#: claim vacuous.
PREDICATES = {
    "above": lambda v, bound: v[0] > bound,
    "below": lambda v, bound: v[0] < bound,
    "at_most": lambda v, bound: v[0] <= bound,
    "within": lambda v, bound: bound[0] <= v[0] <= bound[1],
    "abs_below": lambda v, bound: abs(v[0]) < bound,
    "times_above": lambda v, bound: v[0] > bound * max(v[1], 1.0),
    "times_below": lambda v, bound: v[0] < v[1] / bound,
    # The gain v0 - v1 exceeds bound times the gain v0 - v2.
    "gain_times_above": lambda v, bound: v[0] - v[1] > bound * max(v[0] - v[2], 1.0),
    "not_below": lambda v, bound: v[0] >= v[1],
    "diff_below": lambda v, bound: v[0] - v[1] < bound,
    # bound = (k, floor): |v0 - v1| < k * max(v0, floor).
    "near": lambda v, bound: abs(v[0] - v[1]) < bound[0] * max(v[0], bound[1]),
    "missing": lambda v, bound: all(value is None for value in v),
    "present": lambda v, bound: all(value is not None for value in v),
    "spread_below": _spread_below,
    "contains": lambda v, bound: bound in v[0],
}


def cell(data, path):
    """The value at *path* in a figure's data.

    A surface's ``(workload, write_ratio)`` key is a single step.  A
    list of rows is keyed by each row's first field: a series point's
    workload, a script entry's file name, a Table 3 set's name.  On any
    other object a step calls the named method.
    """
    if isinstance(data, dict) and path in data:
        return data[path]
    for key in path:
        if isinstance(data, list):
            data = {row["set"]: row for row in data} if isinstance(data[0], dict) \
                else {row[0]: row[1] for row in data}
        data = data[key] if isinstance(data, dict) else getattr(data, key)()
    return data


@dataclass(frozen=True)
class Claim:
    """One paper claim: *predicate* over *operands* of a figure."""

    figure_id: str
    tier: str
    overrides: dict
    predicate: str
    operands: tuple
    bound: object
    section: str

    @property
    def key(self):
        """The reproduction the claim reads: figure id plus overrides."""
        return self.figure_id, tuple(sorted(self.overrides.items()))

    def values(self, figure):
        return [figure.rendered if path == RENDERED else cell(figure.data, path)
                for path in self.operands]

    def holds(self, figure):
        return PREDICATES[self.predicate](self.values(figure), self.bound)

    def __str__(self):
        operands = ", ".join(map(repr, self.operands))
        return f"{self.figure_id} ({self.section}): {self.predicate}({operands}; {self.bound!r})"


def reproduce_claimed(tier):
    """Every figure the *tier*'s claims read, keyed by :attr:`Claim.key`.

    Each distinct sweep runs once: Figures 1/2 share one run, and so do
    Figures 7/8.
    """
    run = lru_cache(maxsize=None)(partial(Sweep.run, scale=SCALES[tier]))
    figures = {}
    for claim in CLAIMS:
        if claim.tier == tier and claim.key not in figures:
            figures[claim.key] = FIGURES[claim.figure_id].reproduce(run, **claim.overrides)
    return figures


# Reduced sweeps of the test tier.
_BASELINE = {"workload_step": 100, "ratio_step": 0.3}
_WEBLOGIC = {"workload_step": 250, "ratio_step": 0.45}
_SCALEOUT = {"topologies": ("1-1-1", "1-1-2", "1-2-1", "1-2-2", "1-3-1", "1-3-2"),
             "max_workload": 900}
_GENERATION = {"paper_scale": False}

# Operands.
_READ, _MIX = "100% read", "85% read / 15% write"
_1V2, _2V3 = "1DB-2DB (8 app)", "2DB-3DB (8 app)"
_JONAS_SCRIPTS = ("Baseline RUBiS on JOnAS", "script_lines")
_SCALEOUT_SET = "Scale-out RUBiS on JOnAS"
_LOW_LOAD = tuple((topology, 300) for topology in FIGURES["table7"].sweep.topologies)
_RUN_SH, _INSTALL, _STOP, _IGNITION = (("entries", f"{name}.sh") for name in (
    "run", "scripts/TOMCAT1_install", "scripts/TOMCAT1_stop", "scripts/TOMCAT1_ignition"))
_WORKERS2, _CJDBC, _MONITOR = (("entries", f"config/{name}") for name in (
    "APACHE1_workers2.properties", "CJDBC1_mysqldb-raidb1-elba.xml",
    "JONAS1_monitor-local.properties"))
_RUBBOS_DB, _WEBLOGIC_OUT = "supplemental_rubbos_scaleout", "supplemental_weblogic_scaleout"

CLAIMS = tuple(Claim(*row) for row in (
    # figure   tier  overrides  predicate  operands  bound  section
    ("table1", FULL, {}, "contains", (RENDERED,), "mysql", "IV"),
    ("table1", FULL, {}, "contains", (RENDERED,), "jonas", "IV"),
    ("table2", FULL, {}, "contains", (RENDERED,), "emulab", "IV"),
    ("table2", FULL, {}, "contains", (RENDERED,), "warp", "IV"),
    # The paper's Table 4 lists install 54 / configure 48 / ignition 16 /
    # stop 12 lines, Table 5 workers2 22 / C-JDBC XML 16 / monitor 6.
    ("table4", TEST, {}, "above", (_RUN_SH,), 30, "III.C"),
    ("table4", TEST, {}, "within", (_IGNITION,), (5, 25), "III.C"),
    ("table4", TEST, {}, "times_above", (_INSTALL, _STOP), 1, "III.C"),
    ("table4", FULL, {}, "above", (_RUN_SH,), 30, "III.C"),
    ("table4", FULL, {}, "times_above", (_INSTALL, _STOP), 1, "III.C"),
    ("table4", FULL, {}, "above", (("bundle", "script_line_total"),), 400, "III.C"),
    ("table5", TEST, {}, "within", (_WORKERS2,), (10, 35), "III.C"),
    ("table5", TEST, {}, "within", (_CJDBC,), (10, 25), "III.C"),
    ("table5", TEST, {}, "at_most", (_MONITOR,), 8, "III.C"),
    ("table5", FULL, {}, "within", (_WORKERS2,), (10, 35), "III.C"),
    ("table5", FULL, {}, "within", (_CJDBC,), (10, 25), "III.C"),
    ("table5", FULL, {}, "at_most", (_MONITOR,), 8, "III.C"),
    # "The number of script lines ... reach hundreds of thousands";
    # gigabytes collected; the scale-out sets dwarf the baselines.
    ("table3", TEST, _GENERATION, "above", ((_SCALEOUT_SET, "script_lines"),), 100_000, "III.C"),
    ("table3", TEST, _GENERATION, "above", ((_SCALEOUT_SET, "machine_count"),), 1000, "III.C"),
    ("table3", TEST, _GENERATION, "above", ((_SCALEOUT_SET, "collected_mb"),), 100, "III.C"),
    ("table3", TEST, _GENERATION, "times_below",
     (_JONAS_SCRIPTS, (_SCALEOUT_SET, "script_lines")), 1, "III.C"),
    ("table3", FULL, {}, "above", ((_SCALEOUT_SET, "script_lines"),), 300_000, "III.C"),
    ("table3", FULL, {}, "above", ((_SCALEOUT_SET, "machine_count"),), 2000, "III.C"),
    ("table3", FULL, {}, "above", ((_SCALEOUT_SET, "collected_mb"),), 1000, "III.C"),
    ("table3", FULL, {}, "times_below", (_JONAS_SCRIPTS, (_SCALEOUT_SET, "script_lines")), 5,
     "III.C"),
    # RT grows toward the low-write, high-user corner, a high write ratio
    # keeps it short (the inversion), and app CPU saturates where RT peaks.
    ("figure1", TEST, _BASELINE, "times_above", ((250, 0.0), (50, 0.0)), 4, "IV.A"),
    ("figure1", TEST, _BASELINE, "times_below", ((250, 0.9), (250, 0.0)), 4, "IV.A"),
    ("figure1", TEST, _BASELINE, "contains", (RENDERED,), "Figure 1", "IV.A"),
    ("figure1", FULL, {}, "times_above", ((250, 0.0), (50, 0.0)), 4, "IV.A"),
    ("figure1", FULL, {}, "times_below", ((250, 0.9), (250, 0.0)), 3, "IV.A"),
    ("figure2", TEST, _BASELINE, "above", ((250, 0.0),), 85.0, "IV.A"),
    ("figure2", TEST, _BASELINE, "below", ((50, 0.9),), 35.0, "IV.A"),
    ("figure2", FULL, {}, "above", ((250, 0.0),), 85.0, "IV.A"),
    ("figure2", FULL, {}, "below", ((50, 0.9),), 35.0, "IV.A"),
    # JOnAS saturates at ~250 users; Weblogic on Warp is comfortable at
    # 350-400 and saturates toward 600 (about twice).
    ("figure3", TEST, _WEBLOGIC, "below", ((350, 0.0),), 1000.0, "IV.B"),
    ("figure3", TEST, _WEBLOGIC, "times_above", ((600, 0.0), (350, 0.0)), 2, "IV.B"),
    ("figure3", FULL, {}, "below", ((400, 0.2),), 500.0, "IV.B"),
    ("figure3", FULL, {}, "times_above", ((600, 0.0), (300, 0.0)), 3, "IV.B"),
    # The read-only mix knees at ~2000 users, the 85/15 mix at ~3200.
    ("figure4", TEST, {"workload_step": 1500}, "times_above", ((_READ, 3500), (_MIX, 3500)), 2,
     "IV.C"),
    ("figure4", TEST, {"workload_step": 1500}, "below", ((_READ, 500),), 300.0, "IV.C"),
    ("figure4", TEST, {"workload_step": 1500}, "below", ((_MIX, 500),), 300.0, "IV.C"),
    ("figure4", FULL, {}, "times_above", ((_READ, 3000), (_MIX, 3000)), 3, "IV.C"),
    ("figure4", FULL, {}, "below", ((_READ, 1000),), 400.0, "IV.C"),
    # +1 app server => 84.3% improvement, +1 DB => 13%; 3-4 app servers
    # "match well" 500 users, so the gains flatten.
    ("table6", TEST, {}, "above", (("app", 2),), 60.0, "V.B"),
    ("table6", TEST, {}, "below", (("db", 2),), 30.0, "V.B"),
    ("table6", TEST, {}, "times_above", (("app", 2), ("db", 2)), 3, "V.B"),
    ("table6", TEST, {}, "not_below", (("app", 3), ("app", 2)), None, "V.B"),
    ("table6", TEST, {}, "diff_below", (("app", 4), ("app", 3)), 10.0, "V.B"),
    ("table6", FULL, {}, "above", (("app", 2),), 60.0, "V.B"),
    ("table6", FULL, {}, "below", (("db", 2),), 30.0, "V.B"),
    ("table6", FULL, {}, "times_above", (("app", 2), ("db", 2)), 3, "V.B"),
    # "The throughput at low workloads is the same across the multiple
    # servers"; 1-2-1 (capacity ~490) leaves missing squares.
    ("table7", TEST, {"workload_step": 350}, "present", _LOW_LOAD, None, "V.B"),
    ("table7", TEST, {"workload_step": 350}, "spread_below", _LOW_LOAD, 0.15, "V.B"),
    ("table7", TEST, {"workload_step": 350}, "missing", (("1-2-1", 1000),), None, "V.B"),
    ("table7", TEST, {"workload_step": 350}, "present", (("1-4-3", 1000),), None, "V.B"),
    ("table7", FULL, {}, "present", _LOW_LOAD, None, "V.B"),
    ("table7", FULL, {}, "spread_below", _LOW_LOAD, 0.15, "V.B"),
    ("table7", FULL, {}, "missing", (("1-2-1", 1000),), None, "V.B"),
    ("table7", FULL, {}, "present", (("1-4-3", 1000),), None, "V.B"),
    # Each app server buys ~250 users; below the 1700-user DB knee a
    # second DB is nearly worthless (the overlapping lines).
    ("figure5", TEST, _SCALEOUT, "times_below", (("1-3-1", 600), ("1-2-1", 600)), 3, "V.B"),
    ("figure5", TEST, _SCALEOUT, "gain_times_above",
     (("1-1-1", 300), ("1-2-1", 300), ("1-1-2", 300)), 4, "V.B"),
    ("figure5", FULL, {}, "near", (("1-2-1", 300), ("1-2-3", 300)), (0.3, 50), "V.B"),
    ("figure5", FULL, {}, "times_below", (("1-5-1", 1200), ("1-3-1", 1200)), 3, "V.B"),
    # With 12 app servers the single-DB knee at ~1700 shows cleanly; two
    # and three DBs overlap below the ~2950-user two-DB knee.
    ("figure6", FULL, {}, "times_below", (("1-12-2", 2500), ("1-12-1", 2500)), 4, "V.B"),
    ("figure6", FULL, {}, "near", (("1-8-2", 2100), ("1-8-3", 2100)), (0.5, 300), "V.B"),
    # 1DB-2DB is flat, then jumps once one DB saturates (~1700); a third
    # DB buys almost nothing at 8 app servers.  One DB's CPU saturates by
    # 2000 users (paper: 1700), two near the top of the range, three never.
    ("figure7", TEST, {"workload_step": 900}, "abs_below", ((_1V2, 1100),), 200.0, "V.B"),
    ("figure7", TEST, {"workload_step": 900}, "above", ((_1V2, 2000),), 500.0, "V.B"),
    ("figure7", TEST, {"workload_step": 900}, "abs_below", ((_2V3, 1100),), 200.0, "V.B"),
    ("figure7", TEST, {"workload_step": 900}, "abs_below", ((_2V3, 2000),), 400.0, "V.B"),
    ("figure7", FULL, {}, "abs_below", ((_1V2, 1100),), 200.0, "V.B"),
    ("figure7", FULL, {}, "above", ((_1V2, 2000),), 500.0, "V.B"),
    ("figure7", FULL, {}, "abs_below", ((_2V3, 2000),), 400.0, "V.B"),
    ("figure8", TEST, {"workload_step": 900}, "above", (("1-8-1", 2000),), 85.0, "V.B"),
    ("figure8", TEST, {"workload_step": 900}, "below", (("1-12-2", 2000),), 80.0, "V.B"),
    ("figure8", FULL, {}, "above", (("1-8-1", 2000),), 85.0, "V.B"),
    ("figure8", FULL, {}, "below", (("1-12-2", 2000),), 85.0, "V.B"),
    ("figure8", FULL, {}, "above", (("1-12-2", 2900),), 85.0, "V.B"),
    ("figure8", FULL, {}, "below", (("1-12-3", 2900),), 80.0, "V.B"),
    # Pure reads let RAIDb-1 scale nearly linearly (one DB knees at ~2000
    # users, two at ~4000); past ~3500 users the single Tomcat is the
    # bottleneck and 2 and 3 DBs overlap.
    (_RUBBOS_DB, FULL, {}, "times_below", (("1-1-2", 3000), ("1-1-1", 3000)), 4, "conclusion"),
    (_RUBBOS_DB, FULL, {}, "near", (("1-1-2", 4000), ("1-1-3", 4000)), (0.2, 0), "conclusion"),
    (_RUBBOS_DB, FULL, {}, "times_below", (("1-1-2", 4000), ("1-1-1", 4000)), 4, "conclusion"),
    # ~490 users per dual-CPU Weblogic server: knees near 1000/2000/2900.
    (_WEBLOGIC_OUT, FULL, {}, "times_above", (("1-2-1", 1500), ("1-2-1", 600)), 4, "III.C"),
    (_WEBLOGIC_OUT, FULL, {}, "times_below", (("1-4-1", 1500), ("1-2-1", 1500)), 3, "III.C"),
    (_WEBLOGIC_OUT, FULL, {}, "below", (("1-6-1", 2400),), 1000.0, "III.C"),
))
