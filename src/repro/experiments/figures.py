"""Every figure and table of the paper, declared once.

A :class:`Sweep` is one experiment grid the paper ran; a :class:`Figure`
names the sweep it reads, the view that derives its data from the
trials and the renderer that prints the rows/series the paper reports.
:data:`FIGURES` lists them in suite order and :func:`reproduce` runs one
by id.  ``scale`` shrinks trial phases (the paper's 60/300/60 s RUBiS
trials at ``scale=1.0``); the workload strides default to bench-friendly
values and widen to the paper's grids by override.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from repro.errors import ExperimentError
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import build_experiment
from repro.generator import Mulini
from repro.results import analysis, report
from repro.sim import AUTO, DES, check_fidelity
from repro.spec.mof import load_resource_model, render_resource_mof
from repro.spec.tbl import expand_range
from repro.spec.topology import Topology, topology_grid
from repro.vcluster import VirtualCluster

#: Default trial-phase scale for the benchmark harness: 10% of the
#: paper's periods (6 s warm-up / 30 s run / 6 s cool-down for RUBiS).
BENCH_SCALE = 0.1


@dataclass
class FigureResult:
    """One reproduced figure/table: data, rendering and raw trials."""

    figure_id: str
    title: str
    data: object
    rendered: str
    results: list = field(default_factory=list)
    tbl_source: str = ""

    def store(self, database, replace=True):
        for result in self.results:
            database.insert(result, replace=replace)
        return database


def make_runner(platform, benchmark, app_server=None, db_node_type=None,
                cluster=None, node_count=36, tracer=None):
    node_types = {"db": db_node_type} if db_node_type else None
    model = load_resource_model(render_resource_mof(
        benchmark, platform, app_server=app_server, node_types=node_types,
    ))
    cluster = cluster or VirtualCluster(platform, node_count=node_count)
    return ExperimentRunner(cluster=cluster, resource_model=model,
                            tracer=tracer)


#: The sweep fields a reproduction may override: the grid knobs the paper's
#: sweeps have always taken.
OVERRIDABLE = frozenset({"topologies", "workload", "max_workload", "workload_step", "ratio_step",
                         "seed"})


@dataclass(frozen=True)
class Sweep:
    """One experiment grid: topologies x workloads x write ratios.

    Workloads run from *workload* to *max_workload* by *workload_step*
    (just *workload* when there is no maximum); write ratios likewise.
    A reproduction may override the fields in :data:`OVERRIDABLE`.
    """

    name: str
    benchmark: str
    platform: str
    topologies: tuple
    workload: int
    max_workload: int = None
    workload_step: int = None
    write_ratio: float = 0.15
    max_write_ratio: float = None
    ratio_step: float = None
    app_server: str = None
    db_node_type: str = None
    node_count: int = 36
    seed: int = 42

    @property
    def workloads(self):
        return expand_range(self.workload, self.max_workload, self.workload_step)

    @property
    def write_ratios(self):
        return expand_range(self.write_ratio, self.max_write_ratio, self.ratio_step)

    def experiment(self, scale=1.0):
        """The grid as one TBL experiment; returns ``(experiment, tbl)``."""
        return build_experiment(
            name=self.name, benchmark=self.benchmark, platform=self.platform,
            topologies=[Topology.parse(label) for label in self.topologies],
            workloads=self.workloads, write_ratios=self.write_ratios, app_server=self.app_server,
            db_node_type=self.db_node_type, scale=scale, seed=self.seed)

    def run(self, *, scale=BENCH_SCALE, jobs=1, tracer=None, fidelity=DES):
        """Run every trial of the grid; returns ``(results, tbl)``."""
        experiment, tbl = self.experiment(scale)
        runner = make_runner(self.platform, self.benchmark, app_server=self.app_server,
                             db_node_type=self.db_node_type, node_count=self.node_count,
                             tracer=tracer)
        return runner.run_experiment(experiment, jobs=jobs, fidelity=fidelity), tbl


@dataclass(frozen=True)
class Figure:
    """One paper artifact: the sweep it reads and how it reads it.

    *view* derives the figure's data from ``(results, sweep)``;
    *render* prints it under *heading*, which may name sweep fields
    (``{workload}``).  A catalog or generation table has no sweep and is
    *build* called with the overrides instead.
    """

    figure_id: str
    title: str = ""
    sweep: Sweep = None
    view: object = None
    render: object = None
    heading: str = ""
    build: object = None

    def reproduce(self, run, **overrides):
        """The figure over its sweep with *overrides*; *run* executes a
        :class:`Sweep` and returns its ``(results, tbl)``."""
        if self.sweep is None:
            return self.build(**overrides)
        if not OVERRIDABLE.issuperset(overrides):
            raise TypeError(f"{self.figure_id} overrides only {sorted(OVERRIDABLE)}, "
                            f"not {sorted(set(overrides) - OVERRIDABLE)}")
        sweep = replace(self.sweep, **overrides)
        results, tbl = run(sweep)
        data = self.view(results, sweep)
        rendered = self.render(self.heading.format_map(vars(sweep)), data)
        return FigureResult(self.figure_id, self.title, data, rendered, results, tbl)


def _grid(app_range, db_range):
    return tuple(topology.label() for topology in topology_grid(1, app_range, db_range))


def _surface(value, results, sweep):
    return analysis.response_surface(results, "1-1-1", value=value)


def _mixes(results, sweep):
    return {"100% read": analysis.response_time_series(results, "1-1-1", write_ratio=0.0),
            "85% read / 15% write": analysis.response_time_series(results, "1-1-1",
                                                                  write_ratio=0.15)}


def _every_topology(results, sweep):
    return {topology: analysis.response_time_series(results, topology)
            for topology in sorted({r.topology_label for r in results})}


def _db_differences(results, sweep):
    return {label: analysis.response_time_difference(results, more, fewer)
            for label, more, fewer in (("1DB-2DB (8 app)", "1-8-1", "1-8-2"),
                                       ("2DB-3DB (8 app)", "1-8-2", "1-8-3"),
                                       ("2DB-3DB (12 app)", "1-12-2", "1-12-3"))}


def _db_cpu(results, sweep):
    # The paper's three curves show "gradual saturation of the database servers'
    # CPU utilization at 1700 users (1 server) and 2700 users (2 servers) ... the
    # third curve shows the non-saturation": with 12 app servers the app tier no
    # longer caps the load before the DB knees.
    return {topology: analysis.db_cpu_series(results, topology)
            for topology in ("1-8-1", "1-12-2", "1-12-3")}


def _improvement(results, sweep):
    return analysis.improvement_table(results, "1-1-1", sweep.workload, sweep.write_ratio,
                                      app_range=range(2, 5), db_range=range(2, 4))


def _throughput(results, sweep):
    return analysis.throughput_table(results, list(sweep.topologies), sweep.workloads)


# ---------------------------------------------------------------------------
# Tables 1 and 2: software and hardware catalogs.
# ---------------------------------------------------------------------------

def table1():
    """Table 1: summary of software configurations, from the catalog."""
    from repro.spec import catalog
    lines = ["Table 1. Summary of software configurations",
             f"{'benchmark':<10} {'tier':<6} {'package':<10} "
             f"{'version':<14} {'daemon':<22}"]
    rows = []
    for benchmark, stack in sorted(catalog.BENCHMARK_STACKS.items()):
        for tier in ("web", "app", "db"):
            for name in stack.get(tier, ()):
                package = catalog.get_package(name)
                rows.append((benchmark, tier, package))
                lines.append(
                    f"{benchmark:<10} {tier:<6} {package.name:<10} "
                    f"{package.version:<14} {package.daemon:<22}"
                )
    return FigureResult("table1", "Software configurations", rows,
                        "\n".join(lines))


def table2():
    """Table 2: summary of hardware platforms, from the catalog."""
    from repro.spec import catalog
    lines = ["Table 2. Summary of hardware platforms",
             f"{'platform':<9} {'node type':<13} {'description':<58}"]
    rows = []
    for name, platform in sorted(catalog.PLATFORMS.items()):
        for type_name, node_type in sorted(platform.node_types.items()):
            rows.append((name, node_type))
            lines.append(
                f"{name:<9} {type_name:<13} {node_type.describe():<58}"
            )
        lines.append(f"{'':9} {'os':<13} {platform.os_name}, "
                     f"kernel {platform.kernel}")
    return FigureResult("table2", "Hardware platforms", rows,
                        "\n".join(lines))


# ---------------------------------------------------------------------------
# Tables 3-5: management-scale accounting (generation, no execution).
# ---------------------------------------------------------------------------

def _generation_set(sweep):
    experiment, _tbl = sweep.experiment()
    model = load_resource_model(render_resource_mof(
        sweep.benchmark, sweep.platform, app_server=sweep.app_server,
    ))
    mulini = Mulini(model)
    script_lines = config_lines = files = machines = 0
    bundles = 0
    estimated_bytes = 0
    for topology, workload, _ratio, bundle in \
            mulini.generate_sweep(experiment):
        script_lines += bundle.script_line_total()
        config_lines += bundle.config_line_total()
        files += bundle.file_count()
        machines += topology.machine_count()
        bundles += 1
        estimated_bytes += estimate_collected_bytes(experiment, topology,
                                                    workload)
    return {
        "set": sweep.name,
        "experiments": bundles,
        "script_lines": script_lines,
        "config_lines": config_lines,
        "generated_files": files,
        "machine_count": machines,
        "collected_mb": estimated_bytes / 1e6,
    }


def estimate_collected_bytes(experiment, topology, workload):
    """Estimated monitor + driver data volume for one trial.

    sysstat: one line of ~22 bytes per metric per interval per monitored
    host; driver log: ~45 bytes per request at roughly N/Z requests per
    second over the run period.  Used by the Table 3 reproduction, where
    executing the full paper-scale sweeps is generation-bound.
    """
    hosts = topology.total_servers() + 1          # + client
    duration = experiment.trial.total()
    samples = duration / experiment.monitor.interval
    sysstat_bytes = hosts * samples * len(experiment.monitor.metrics) * 22
    request_rate = workload / experiment.think_time
    driver_bytes = request_rate * experiment.trial.run * 45
    return int(sysstat_bytes + driver_bytes)


def table3(paper_scale=True):
    """Table 3: the management scale of the four experiment sets.

    Generates every bundle of every sweep point (no execution) and sums
    the script/config lines, file and machine counts; data volume is
    estimated per trial (see :func:`estimate_collected_bytes`).
    """
    step = 50 if paper_scale else 100
    scaleout_step = 200 if paper_scale else 400
    sets = [_generation_set(sweep) for sweep in (
        replace(JONAS_BASELINE, name="Baseline RUBiS on JOnAS", workload_step=step),
        replace(WEBLOGIC_BASELINE, name="Baseline RUBiS on Weblogic", workload_step=step),
        Sweep("Scale-out RUBiS on JOnAS", "rubis", "emulab", _grid(range(2, 13), range(1, 4)), 300,
              max_workload=2900, workload_step=scaleout_step),
        replace(WEBLOGIC_SCALEOUT, name="Scale-out RUBiS on Weblogic", max_workload=1500,
                workload_step=scaleout_step),
    )]
    rendered = report.render_management_scale(
        "Table 3. Scale of experiments run (regenerated)", sets,
    )
    return FigureResult("table3", "Scale of experiments", sets, rendered)


def _bundle_table(figure_id, title, heading, topology, files):
    """Line counts of *files* in the RUBiS bundle of *topology* at 500 users (Tables 4, 5)."""
    model = load_resource_model(render_resource_mof("rubis", "emulab"))
    experiment, _tbl = Sweep(f"rubis-{figure_id}", "rubis", "emulab", (topology.label(),),
                             500).experiment()
    bundle = Mulini(model).generate(experiment, topology, 500, 0.15)
    entries = [(name, bundle.line_count(name), comment) for name, comment in files]
    return FigureResult(figure_id, title, {"entries": entries, "bundle": bundle},
                        report.render_bundle_table(heading, entries))


def table4(topology=Topology(1, 2, 2)):
    """Table 4: example generated scripts with line counts (1-2-2)."""
    return _bundle_table(
        "table4", "Examples of generated scripts",
        "Table 4. Examples of generated scripts (1-2-2 configuration)",
        topology, [
            ("run.sh", "Calls all the other subscripts to install, "
                       "configure and execute a RUBiS experiment"),
            ("scripts/TOMCAT1_install.sh", "Installs Tomcat server #1"),
            ("scripts/TOMCAT1_configure.sh", "Configures Tomcat server #1"),
            ("scripts/TOMCAT1_ignition.sh", "Starts Tomcat server #1"),
            ("scripts/TOMCAT1_stop.sh", "Stops Tomcat server #1"),
            ("scripts/SYS_MON_APP1_install.sh",
             "Installs system monitoring tools on app server #1"),
            ("scripts/SYS_MON_APP1_ignition.sh",
             "Starts system monitoring tools on app server #1"),
        ])


def table5(topology=Topology(1, 2, 2)):
    """Table 5: example configuration files modified by Mulini (1-2-2)."""
    return _bundle_table(
        "table5", "Examples of configuration files",
        "Table 5. Examples of configuration files modified (1-2-2)",
        topology, [
            ("config/APACHE1_workers2.properties",
             "Configures Apache to connect to application server tier"),
            ("config/CJDBC1_mysqldb-raidb1-elba.xml",
             "Configures C-JDBC controller to connect to databases"),
            ("config/JONAS1_monitor-local.properties",
             "Configures the application-level probe monitor"),
        ])


#: Figures 1/2: RUBiS on JOnAS, 50..250 users x 0..90% writes (IV.A), on
#: Emulab's deliberately slow DB host.
JONAS_BASELINE = Sweep("rubis-jonas-baseline", "rubis", "emulab", ("1-1-1",), 50,
                       max_workload=250, workload_step=50, write_ratio=0.0, max_write_ratio=0.9,
                       ratio_step=0.1, db_node_type="emulab_low", node_count=12)

#: Figure 3: Weblogic replaces JOnAS on Warp's dual-CPU nodes (IV.B).
WEBLOGIC_BASELINE = Sweep("rubis-weblogic-baseline", "rubis", "warp", ("1-1-1",), 100,
                          max_workload=600, workload_step=100, write_ratio=0.0,
                          max_write_ratio=0.9, ratio_step=0.1, app_server="weblogic",
                          node_count=12)

#: Table 3's fourth experiment set, 1-2-1 .. 1-6-2 on Warp ("figure omitted"
#: in the paper): with two CPUs per node each Weblogic server carries ~490
#: users, so the app-tier ladder climbs twice as fast as JOnAS's.
WEBLOGIC_SCALEOUT = Sweep("rubis-weblogic-scaleout", "rubis", "warp",
                          _grid(range(2, 7), range(1, 3)), 300, max_workload=2700,
                          workload_step=300, app_server="weblogic", node_count=14)

#: Figures 7/8: the five DB-tier configurations the paper plots (V.B).
DB_SCALEOUT = Sweep("rubis-db-scaleout", "rubis", "emulab",
                    ("1-8-1", "1-8-2", "1-8-3", "1-12-2", "1-12-3"), 1100, max_workload=2900,
                    workload_step=300)

_response_surface = partial(_surface, "response")

FIGURES = {figure.figure_id: figure for figure in (
    # Catalog and generation tables first, then the baselines, then the
    # big scale-out sweeps.
    Figure("table1", build=table1),
    Figure("table2", build=table2),
    Figure("table4", build=table4),
    Figure("table5", build=table5),
    Figure("table3", build=table3),
    Figure("figure1", "RUBiS on JOnAS response time", JONAS_BASELINE, _response_surface,
           report.render_surface, "Figure 1. RUBiS on JOnAS response time (ms), 1-1-1 on Emulab"),
    Figure("figure2", "RUBiS on JOnAS app-server CPU", JONAS_BASELINE,
           partial(_surface, "app_cpu"), report.render_surface,
           "Figure 2. RUBiS on JOnAS app-server CPU utilization (%), 1-1-1"),
    Figure("figure3", "RUBiS on Weblogic response time", WEBLOGIC_BASELINE, _response_surface,
           report.render_surface, "Figure 3. RUBiS on Weblogic response time (ms), 1-1-1 on Warp"),
    # RUBBoS 100% read vs 85/15, 500..5000 users (IV.C).
    Figure("figure4", "RUBBoS baseline response time",
           Sweep("rubbos-baseline", "rubbos", "emulab", ("1-1-1",), 500, max_workload=5000,
                 workload_step=500, write_ratio=0.0, max_write_ratio=0.15, ratio_step=0.15,
                 node_count=12),
           _mixes, report.render_multi_series,
           "Figure 4. RUBBoS baseline response time (ms), 1-1-1 on Emulab"),
    # % response-time improvement from 1-1-1 at 500 users (V.B).
    Figure("table6", "Improvement of adding servers",
           Sweep("rubis-table6", "rubis", "emulab",
                 ("1-1-1", "1-2-1", "1-3-1", "1-4-1", "1-1-2", "1-1-3"), 500, node_count=12),
           _improvement, report.render_improvement_table,
           "Table 6. % response-time improvement over 1-1-1 at {workload} users (wr=15%)"),
    # Throughput for 1-2-1..1-4-3 at loads 300..1000 (V.B).
    Figure("table7", "RUBiS throughput table",
           Sweep("rubis-table7", "rubis", "emulab", _grid(range(2, 5), range(1, 4)), 300,
                 max_workload=1000, workload_step=100, node_count=12),
           _throughput, report.render_throughput_table,
           "Table 7. RUBiS measured average throughput (req/s); "
           "'-' marks trials that could not complete"),
    Figure("figure5", "RUBiS scale-out RT (2-8 app)",
           Sweep("rubis-scaleout-2to8", "rubis", "emulab", _grid(range(2, 9), range(1, 4)), 300,
                 max_workload=2100, workload_step=300),
           _every_topology, report.render_multi_series,
           "Figure 5. RUBiS on JOnAS scale-out response time (ms), "
           "2-8 app servers x 1-3 DB servers, wr=15%"),
    Figure("figure6", "RUBiS scale-out RT (8-12 app)",
           Sweep("rubis-scaleout-8to12", "rubis", "emulab", _grid(range(8, 13), range(1, 4)),
                 1700, max_workload=2900, workload_step=400),
           _every_topology, report.render_multi_series,
           "Figure 6. RUBiS on JOnAS scale-out response time (ms), "
           "8-12 app servers x 1-3 DB servers, wr=15%"),
    Figure("figure7", "DB-config response-time differences", DB_SCALEOUT, _db_differences,
           report.render_multi_series,
           "Figure 7. RUBiS scale-out response-time difference (ms) between DB configurations"),
    Figure("figure8", "DB-tier CPU utilization", DB_SCALEOUT, _db_cpu,
           partial(report.render_multi_series, y_format="{:>10.0f}"),
           "Figure 8. RUBiS scale-out DB-tier CPU utilization (%)"),
    # The conclusion mentions "the scale-out experiments ... for RUBBoS
    # also on the bottleneck the database server" without a figure.  With
    # the read-only mix RAIDb-1 read-balancing scales almost linearly: the
    # 2000-user single-DB knee moves to ~4000 with two replicas.
    Figure("supplemental_rubbos_scaleout", "RUBBoS DB scale-out",
           Sweep("rubbos-db-scaleout", "rubbos", "emulab", ("1-1-1", "1-1-2", "1-1-3"), 1000,
                 max_workload=4500, workload_step=500, write_ratio=0.0, node_count=14),
           _every_topology, report.render_multi_series,
           "Supplemental: RUBBoS DB scale-out response time (ms), read-only mix"),
    Figure("supplemental_weblogic_scaleout", "Weblogic scale-out", WEBLOGIC_SCALEOUT,
           _every_topology, report.render_multi_series,
           "Supplemental: RUBiS on Weblogic scale-out response time (ms), "
           "2-6 app servers x 1-2 DB servers (Warp), wr=15%"),
)}

FIGURE_IDS = tuple(FIGURES)


def reproduce(figure_id, *, scale=None, jobs=1, tracer=None, fidelity=DES,
              **overrides):
    """Run one reproduction by id; returns its :class:`FigureResult`.

    *overrides* replace :data:`OVERRIDABLE` fields of the figure's
    :class:`Sweep` (say ``workload_step=900``), or are a catalog table's
    own arguments.
    ``jobs=N`` runs the sweep on N scheduler workers; the derived data
    is identical to a sequential run.  A *tracer* records every trial's
    lifecycle spans.  *fidelity* selects the solver tier for the
    figure's trials (``"des"`` or ``"analytic"``); it is checked even
    for the catalog tables, which ignore it.
    """
    figure = FIGURES[figure_id]
    check_fidelity(fidelity)
    if fidelity == AUTO:
        raise ExperimentError(
            "fidelity 'auto' is an adaptive-exploration mode; a figure "
            "reproduction takes 'des' or 'analytic'")
    return figure.reproduce(
        partial(Sweep.run, scale=BENCH_SCALE if scale is None else scale,
                jobs=jobs, tracer=tracer, fidelity=fidelity),
        **overrides)
