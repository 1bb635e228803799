"""Trial scheduling: sweep points as tasks, executed on a worker pool.

The paper ran its "very large families of experiments" concurrently
across three clusters (Warp, Rohan, Emulab); this module is the
package's form of that: every ``(topology, workload, write_ratio,
repetition)`` point of an experiment becomes an immutable
:class:`TrialTask`, and a :class:`TrialScheduler` executes the tasks on
``jobs`` workers, each worker owning its own virtual cluster and runner
so no virtual-host state ever crosses workers.

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
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro import hotpath
from repro.deprecation import absorb_positional
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

    This is a static choice: it cannot see whether the campaign's
    results will actually survive the worker→parent pickle (a tracer or
    fault hook configured with a lambda or a lock-bearing closure will
    not).  The scheduler therefore treats the process backend as a
    best-effort default and falls back to threads at run time when
    result pickling fails — see :meth:`TrialScheduler._run_processes`.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return PROCESS
    return THREAD


# Per-process worker state for the process backend.  The initializer
# runs once in each forked worker; the runner it builds (cluster and
# all) lives for the worker's lifetime and never crosses processes.
_WORKER_RUNNER = None


def _process_init(runner_factory):
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner_factory()


def _process_run(task):
    return _WORKER_RUNNER.run_task(task)


class TrialScheduler:
    """Executes :class:`TrialTask`\\ s on ``jobs`` pooled workers.

    *runner_factory* builds one ExperimentRunner (with its own
    VirtualCluster) per worker; with ``jobs=1`` a single runner executes
    the tasks inline, preserving strictly sequential behaviour.

    :meth:`run` returns results in task order and invokes *on_result*
    in task order from the calling thread, buffering out-of-order
    completions, so downstream stores see a deterministic sequence.

    A *tracer* records scheduler counters on the submitting side
    (``scheduler.tasks_queued`` / ``tasks_running`` / ``tasks_done`` /
    ``tasks_failed``) regardless of backend; per-trial spans come from
    the workers' runners and travel on the results themselves.
    """

    def __init__(self, runner_factory, *args, jobs=1, backend=None,
                 tracer=None):
        merged = absorb_positional(
            "TrialScheduler", ("jobs", "backend"), args,
            {"jobs": jobs, "backend": backend})
        jobs = merged["jobs"]
        backend = merged["backend"]
        if jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {jobs}")
        if backend is not None and backend not in BACKENDS:
            raise ExperimentError(
                f"unknown scheduler backend {backend!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        self.runner_factory = runner_factory
        self.jobs = jobs
        self.backend = backend or default_backend()
        self.tracer = as_tracer(tracer)

    def run(self, tasks, on_result=None):
        """Execute *tasks*; returns their TrialResults in task order."""
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            self.tracer.count("scheduler.tasks_queued", len(tasks))
            return self._run_inline(tasks, on_result)
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

    # -- backends ---------------------------------------------------------

    def _run_inline(self, tasks, on_result):
        runner = self.runner_factory()
        results = []
        for task in tasks:
            self.tracer.count("scheduler.tasks_running", 1)
            try:
                result = runner.run_task(task)
            finally:
                self.tracer.count("scheduler.tasks_running", -1)
            results.append(result)
            self.tracer.count("scheduler.tasks_done", 1)
            if on_result is not None:
                on_result(result)
        return results

    def _drain(self, futures, on_result):
        results = []
        try:
            for future in futures:
                result = future.result()
                results.append(result)
                self.tracer.count("scheduler.tasks_done", 1)
                if on_result is not None:
                    on_result(result)
        except BaseException:
            self.tracer.count("scheduler.tasks_failed", 1)
            for future in futures:
                future.cancel()
            raise
        return results


#: Session execution modes.  ``inline`` is the jobs=1 degenerate pool:
#: one runner, reused batch after batch, on the calling thread.
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
    A process-backend session whose results cannot pickle falls back to
    the thread backend *permanently* — the remaining tasks of the
    failing batch and every later batch run on threads, with the same
    submission-order splice the one-shot scheduler performs.
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self._mode = _INLINE if scheduler.jobs == 1 else scheduler.backend
        self._pool = None
        self._runner = None          # inline mode's persistent runner
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
        self._teardown_pool()
        self._runner = None
        self._local = None

    def _teardown_pool(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- batches ----------------------------------------------------------

    def run_batch(self, tasks, on_result=None):
        """Execute one batch; returns TrialResults in task order."""
        if self._closed:
            raise ExperimentError(
                "scheduler session is closed; create a new session")
        tasks = list(tasks)
        self.scheduler.tracer.count("scheduler.tasks_queued", len(tasks))
        if not tasks:
            return []
        if self._mode == _INLINE:
            return self._inline_batch(tasks, on_result)
        if self._mode == THREAD:
            return self._thread_batch(tasks, on_result)
        return self._process_batch(tasks, on_result)

    def _inline_batch(self, tasks, on_result):
        if self._runner is None:
            self._runner = self.scheduler.runner_factory()
        tracer = self.scheduler.tracer
        results = []
        for task in tasks:
            tracer.count("scheduler.tasks_running", 1)
            try:
                result = self._runner.run_task(task)
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

    def _thread_run(self, task, tenant, runner_factory):
        """Execute one task on the calling pool thread.

        Worker threads cache one runner *per tenant* — a shared fleet
        session multiplexes many campaigns over the same threads, and
        each campaign's trials must run on that campaign's cluster.
        The single-campaign path is just the ``tenant=None`` slot.
        A runner built before its tenant was retired (see
        :meth:`forget_tenant`) is discarded and rebuilt.
        """
        scheduler = self.scheduler
        runners = getattr(self._local, "runners", None)
        if runners is None:
            runners = self._local.runners = {}
        generation = self._generations.get(tenant, 0)
        cached = runners.get(tenant)
        runner = cached[1] if cached is not None \
            and cached[0] == generation else None
        if runner is None:
            factory = runner_factory or scheduler.runner_factory
            runner = factory()
            runners[tenant] = (generation, runner)
        scheduler.tracer.count("scheduler.tasks_running", 1)
        try:
            if tenant is None:
                return runner.run_task(task)
            with hotpath.tenant(tenant):
                return runner.run_task(task)
        finally:
            scheduler.tracer.count("scheduler.tasks_running", -1)

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

    def _thread_batch(self, tasks, on_result):
        self._ensure_thread_pool()
        futures = [self._pool.submit(self._thread_run, task, None, None)
                   for task in tasks]
        return self.scheduler._drain(futures, on_result)

    def _process_batch(self, tasks, on_result):
        # Worker state is inherited by fork (initargs never pickle), but
        # every task and every result crosses the process boundary via
        # pickle.  A runner configured with an unpicklable callback — a
        # lambda tracer clock, say — only fails when its first result
        # comes back, so catch that here and finish on the thread
        # backend.  Results are delivered strictly in submission order,
        # so `delivered` tells us exactly which tasks are still owed;
        # trials are deterministic, so the splice is byte-identical to
        # an all-thread run.
        scheduler = self.scheduler
        delivered = []

        def deliver(result):
            delivered.append(result)
            if on_result is not None:
                on_result(result)

        try:
            if self._pool is None:
                context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(
                    max_workers=scheduler.jobs, mp_context=context,
                    initializer=_process_init,
                    initargs=(scheduler.runner_factory,))
            futures = [self._pool.submit(_process_run, task)
                       for task in tasks]
            scheduler._drain(futures, deliver)
            return delivered
        except (TypeError, pickle.PicklingError, AttributeError) as error:
            warnings.warn(
                f"process backend cannot pickle trial results ({error}); "
                f"falling back to the thread backend for the remaining "
                f"{len(tasks) - len(delivered)} task(s)",
                RuntimeWarning, stacklevel=3,
            )
            scheduler.tracer.count("scheduler.backend_fallbacks", 1)
            self._teardown_pool()
            self._mode = THREAD
            rest = self._thread_batch(tasks[len(delivered):], on_result)
            return delivered + rest
