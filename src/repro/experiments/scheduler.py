"""Trial scheduling: sweep points as tasks, executed on a worker pool.

The paper ran its "very large families of experiments" concurrently
across three clusters (Warp, Rohan, Emulab); this module is the
package's form of that: every ``(topology, workload, write_ratio,
repetition)`` point of an experiment becomes an immutable
:class:`TrialTask`, and a :class:`TrialScheduler` executes the tasks on
the caller's runner (``jobs=1``) or on ``jobs`` workers, each worker
owning a clone of that runner and its virtual cluster so no
virtual-host state ever crosses workers.  It is the only code that
loops over tasks: every sweep, campaign, exploration round and heal
batch runs through it.

Determinism is the contract: every trial derives its random streams
from ``(seed + repetition)`` alone, and the scheduler delivers results
to the caller in task-enumeration order regardless of completion order,
so a ``jobs=8`` campaign stores exactly the rows (in exactly the order)
a ``jobs=1`` campaign would.

Backends: ``"thread"`` shares the interpreter (cheap, but serialized by
the GIL for this CPU-bound simulation) and ``"process"`` forks one
interpreter per worker (true parallelism on multi-core hosts).  The
default picks ``"process"`` where ``fork`` is available.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro import hotpath
from repro.errors import ExperimentError
from repro.obs.tracer import as_tracer

THREAD = "thread"
PROCESS = "process"
BACKENDS = (THREAD, PROCESS)


@dataclass(frozen=True)
class TrialTask:
    """One schedulable trial: a sweep point plus its repetition."""

    index: int                 # position in enumeration order
    experiment: object         # spec.tbl ExperimentDef (frozen)
    topology: object
    workload: int
    write_ratio: float
    repetition: int = 0
    fidelity: str = "des"      # solver tier this trial runs under

    # The identity attributes a TrialResult carries, so
    # ``trial_key(task)`` equals the key of the result it produces.

    @property
    def experiment_name(self):
        return self.experiment.name

    @property
    def topology_label(self):
        return self.topology.label()

    @property
    def seed(self):
        """The seed this repetition replays under (seed, seed+1, ...)."""
        return self.experiment.seed + self.repetition

    @property
    def scenario(self):
        return self.experiment.scenario


def enumerate_tasks(experiment, start_index=0, fidelity="des"):
    """Every trial of *experiment* as :class:`TrialTask`\\ s, in the
    canonical sweep order (points outer, repetitions inner) that a
    sequential :meth:`ExperimentRunner.run_experiment` executes."""
    tasks = []
    index = start_index
    for topology, workload, write_ratio in experiment.points():
        for repetition in range(experiment.repetitions):
            tasks.append(TrialTask(index, experiment, topology, workload,
                                   write_ratio, repetition,
                                   fidelity=fidelity))
            index += 1
    return tasks


#: Total virtual hosts the auto-sized pool may hold live at once; each
#: worker owns a full cluster, so huge topologies shrink the pool.
_HOST_BUDGET = 512


def calc_parallel_jobs(node_count=None, trial_count=None):
    """Auto-size the worker pool (the ``--jobs auto`` resolution).

    One core is reserved for the campaign's main/ingest thread — the
    write-behind store and progress callbacks run there, and starving
    it stalls every worker at the results barrier.  *node_count* makes
    the sizing topology-aware: each worker clones the campaign's whole
    virtual cluster, so large topologies cap the pool to keep the
    total live host count bounded.  *trial_count* caps the pool at the
    work available.  Always at least 1.
    """
    cpus = os.cpu_count() or 1
    jobs = max(1, cpus - 1)
    if node_count:
        jobs = min(jobs, max(1, _HOST_BUDGET // node_count))
    if trial_count is not None:
        jobs = min(jobs, max(1, trial_count))
    return jobs


def default_backend():
    """Process workers where ``fork`` exists, threads otherwise.

    Every task and result crosses the process boundary by pickle.
    Results are plain data (spans travel as :class:`SpanRecord`\\ s), so
    a result that cannot pickle is a bug inside the trial and raises.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return PROCESS
    return THREAD


# Per-process worker state for the process backend.  The initializer
# runs once in each forked worker; the runner it builds (cluster and
# all) lives for the worker's lifetime and never crosses processes.
_WORKER_RUNNER = None


def _process_init(runner):
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner.clone()


def _process_run(task, health):
    return _run_from(_WORKER_RUNNER, task, health)


def _run_from(runner, task, health):
    """Run *task* on a worker's *runner* starting from host *health*;
    returns the result and the health the trial left."""
    runner.set_health(health)
    return runner.run_task(task), runner.health()


class TrialScheduler:
    """Executes :class:`TrialTask`\\ s on a runner or a worker pool.

    *runner* is the caller's ExperimentRunner.  With ``jobs=1`` every
    batch runs inline on that runner, so its quarantine and probation
    state and its cluster carry from trial to trial exactly as in a
    hand-written loop.  Pool workers each run on ``runner.clone()``,
    starting every trial from the host health the batch started with;
    in task order, a trial that could have run differently from the
    caller's runner's health re-runs on that runner (see
    :mod:`repro.experiments.health`), so quarantine decisions match
    ``jobs=1``.  The fleet builds a scheduler without a runner: every
    task it :meth:`~SchedulerSession.submit`\\ s names its tenant's
    factory.

    :meth:`run` returns results in task order and invokes *on_result*
    in task order from the calling thread, buffering out-of-order
    completions, so downstream stores see a deterministic sequence.

    A *tracer* records scheduler counters on the submitting side
    (``scheduler.tasks_queued`` / ``tasks_running`` / ``tasks_done`` /
    ``tasks_failed`` / ``tasks_rerun``) regardless of backend; per-trial
    spans come from the workers' runners and travel on the results
    themselves.
    """

    def __init__(self, runner=None, *, jobs=1, backend=None, tracer=None):
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown scheduler backend {backend!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        self.runner = runner
        self.jobs = jobs
        self.backend = backend or default_backend()
        self.tracer = as_tracer(tracer)

    def _template(self):
        """The caller's runner, which batches run on (or clone)."""
        if self.runner is None:
            raise ExperimentError(
                "this scheduler has no runner: build it from one, or "
                "submit() each task with a runner_factory")
        return self.runner

    def run(self, tasks, on_result=None):
        """Execute *tasks* as a one-batch session; returns their
        TrialResults in task order."""
        with self.session() as session:
            return session.run_batch(tasks, on_result)

    def session(self):
        """A :class:`SchedulerSession`: a live pool fed batch by batch.

        The closed-loop planner's entry point — each planner round
        submits one batch to the same warm workers, so no pool (or
        worker cluster) is torn down between rounds.  ``run()`` is just
        a one-batch session.
        """
        return SchedulerSession(self)


#: Session execution modes.  ``inline`` is the jobs=1 degenerate pool:
#: the caller's runner, reused batch after batch, on the calling thread.
_INLINE = "inline"


class SchedulerSession:
    """A live worker pool accepting successive task batches.

    Built by :meth:`TrialScheduler.session`.  Pools — and each worker's
    runner, with its virtual cluster — are created lazily on the first
    batch and persist until :meth:`close`, so streaming callers (the
    adaptive planner's rounds) pay worker start-up once, not per round.

    Per batch, the delivery contract is exactly :meth:`TrialScheduler.
    run`'s: results return (and *on_result* fires, on the calling
    thread) in task-submission order regardless of completion order.
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self._mode = _INLINE if scheduler.jobs == 1 else scheduler.backend
        self._pool = None
        self._local = None           # thread mode's per-thread runners
        self._generations = {}       # tenant -> runner-cache generation
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Shut the pool down (waiting for in-flight work) and forget
        all worker runners.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._local = None

    # -- batches ----------------------------------------------------------

    def run_batch(self, tasks, on_result=None):
        """Execute one batch; returns TrialResults in task order."""
        if self._closed:
            raise ExperimentError(
                "scheduler session is closed; create a new session")
        tasks = list(tasks)
        runner = self.scheduler._template()
        self.scheduler.tracer.count("scheduler.tasks_queued", len(tasks))
        if not tasks:
            return []
        if self._mode == _INLINE or (len(tasks) == 1
                                     and self._pool is None):
            # A one-task batch runs inline too: starting a pool costs
            # more than the trial.
            return self._inline_batch(runner, tasks, on_result)
        health = runner.health()
        if self._mode == THREAD:
            self._ensure_thread_pool()
            run = self._thread_replay
        else:
            self._ensure_process_pool()
            run = _process_run
        futures = [self._pool.submit(run, task, health) for task in tasks]
        return self._drain(runner, tasks, futures, health, on_result)

    def _inline_batch(self, runner, tasks, on_result):
        tracer = self.scheduler.tracer
        results = []
        for task in tasks:
            tracer.count("scheduler.tasks_running", 1)
            try:
                result = runner.run_task(task)
            finally:
                tracer.count("scheduler.tasks_running", -1)
            results.append(result)
            tracer.count("scheduler.tasks_done", 1)
            if on_result is not None:
                on_result(result)
        return results

    def _ensure_thread_pool(self):
        if self._pool is None:
            self._local = threading.local()
            self._pool = ThreadPoolExecutor(
                max_workers=self.scheduler.jobs)
        return self._pool

    def _worker_runner(self, tenant, runner_factory):
        """The calling pool thread's runner for *tenant*.

        Worker threads cache one runner *per tenant* — a shared fleet
        session multiplexes many campaigns over the same threads, and
        each campaign's trials must run on that campaign's cluster.
        The single-campaign path is just the ``tenant=None`` slot.
        A runner built before its tenant was retired (see
        :meth:`forget_tenant`) is discarded and rebuilt.
        """
        runners = getattr(self._local, "runners", None)
        if runners is None:
            runners = self._local.runners = {}
        generation = self._generations.get(tenant, 0)
        cached = runners.get(tenant)
        runner = cached[1] if cached is not None \
            and cached[0] == generation else None
        if runner is None:
            factory = runner_factory or self.scheduler._template().clone
            runner = factory()
            runners[tenant] = (generation, runner)
        return runner

    def _thread_run(self, task, tenant, runner_factory):
        """Execute one submitted task on the calling pool thread."""
        runner = self._worker_runner(tenant, runner_factory)
        tracer = self.scheduler.tracer
        tracer.count("scheduler.tasks_running", 1)
        try:
            with hotpath.tenant(tenant):
                return runner.run_task(task)
        finally:
            tracer.count("scheduler.tasks_running", -1)

    def _thread_replay(self, task, health):
        """Execute one batch task on the calling pool thread."""
        runner = self._worker_runner(None, None)
        tracer = self.scheduler.tracer
        tracer.count("scheduler.tasks_running", 1)
        try:
            return _run_from(runner, task, health)
        finally:
            tracer.count("scheduler.tasks_running", -1)

    def submit(self, task, *, tenant=None, runner_factory=None,
               on_done=None):
        """Submit one task asynchronously; returns its Future.

        The fleet plane's entry point: unlike :meth:`run_batch`, which
        blocks until a whole batch is delivered, ``submit`` hands a
        single task to the live pool and returns immediately, so a
        dispatcher can interleave tasks from many campaigns on one set
        of workers.  *tenant* keys the worker-side runner cache (and
        scopes hot-path cache attribution to the campaign);
        *runner_factory* builds that tenant's runner on first use.
        Thread workers only — the fleet owns ordering, so the process
        backend's pickling round-trip buys nothing here.
        """
        if self._closed:
            raise ExperimentError(
                "scheduler session is closed; create a new session")
        if self._mode not in (THREAD, _INLINE):
            raise ExperimentError(
                f"submit() requires the thread backend, not "
                f"{self._mode!r}")
        if runner_factory is None:
            self.scheduler._template()   # fail here, not on a worker
        self._mode = THREAD
        self._ensure_thread_pool()
        self.scheduler.tracer.count("scheduler.tasks_queued", 1)
        future = self._pool.submit(self._thread_run, task, tenant,
                                   runner_factory)
        if on_done is not None:
            future.add_done_callback(on_done)
        return future

    def forget_tenant(self, tenant):
        """Retire *tenant*'s cached worker runners.

        Runner caches live in each worker thread's local storage, so
        they cannot be purged from the outside; instead the tenant's
        generation is bumped and every thread discards its stale runner
        (and that runner's cluster) at the next lookup.  The fleet
        calls this when a campaign detaches, so a long-lived daemon
        doesn't accumulate one cluster per finished campaign per
        worker.
        """
        self._generations[tenant] = self._generations.get(tenant, 0) + 1

    def _ensure_process_pool(self):
        # Worker state is inherited by fork (initargs never pickle);
        # every task and every result crosses the boundary by pickle.
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.scheduler.jobs, mp_context=context,
                initializer=_process_init,
                initargs=(self.scheduler.runner,))

    def _drain(self, runner, tasks, futures, health, on_result):
        """Deliver a pool batch in task order.

        Every worker trial started from *health*, the caller's runner's
        host health when the batch began.  At its turn, a trial stands
        if the runner can adopt the health it left; otherwise it re-runs
        inline on the runner, as ``jobs=1`` would have run it.  A
        worker's error stands only if the runner's health is still
        *health*.
        """
        tracer = self.scheduler.tracer
        results = []
        try:
            for task, future in zip(tasks, futures):
                try:
                    result, after = future.result()
                except Exception:
                    if runner.health() == health:
                        raise
                    after = None
                if after is None or not runner.adopt_health(health, after):
                    tracer.count("scheduler.tasks_rerun", 1)
                    result = runner.run_task(task)
                results.append(result)
                tracer.count("scheduler.tasks_done", 1)
                if on_result is not None:
                    on_result(result)
        except BaseException:
            tracer.count("scheduler.tasks_failed", 1)
            for future in futures:
                future.cancel()
            raise
        return results
