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
batch runs through it, and the daemon's worker fleet delivers its
campaigns' batches through the same :func:`drain`.

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
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass

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
    return run_from(_WORKER_RUNNER, task, health)


def run_from(runner, task, health):
    """Run *task* on a worker's *runner* starting from host *health*;
    returns the result and the health the trial left."""
    runner.set_health(health)
    return runner.run_task(task), runner.health()


def drain(runner, tasks, futures, health, on_result, tracer):
    """Deliver a batch run ahead on workers, in task order.

    Each future yields ``run_from(clone, task, health)``: every worker
    trial started from *health*, the caller's *runner*'s host health
    when the batch began.  At its turn, a trial stands if the runner
    can adopt the health it left; otherwise it re-runs inline on the
    runner, as ``jobs=1`` would have run it.  A worker's error stands
    only if the runner's health is still *health*.  Results return
    (and *on_result*, if given, fires on the calling thread) in task
    order; *tracer* counts ``scheduler.tasks_done`` / ``tasks_failed``
    / ``tasks_rerun``.

    On any exception the batch's remaining futures are cancelled.  A
    future cancelled before it started raises
    :class:`~concurrent.futures.CancelledError` here once everything
    ahead of it has been delivered.
    """
    results = []
    try:
        for task, future in zip(tasks, futures):
            try:
                result, after = future.result()
            except CancelledError:
                raise
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


class TrialScheduler:
    """Executes :class:`TrialTask`\\ s on a runner or a worker pool.

    *runner* is the caller's ExperimentRunner.  With ``jobs=1`` every
    batch runs inline on that runner, so its quarantine and probation
    state and its cluster carry from trial to trial exactly as in a
    hand-written loop.  Pool workers each run on ``runner.clone()``,
    starting every trial from the host health the batch started with;
    in task order, a trial that could have run differently from the
    caller's runner's health re-runs on that runner (see
    :func:`drain` and :mod:`repro.experiments.health`), so quarantine
    decisions match ``jobs=1``.

    :meth:`run` returns results in task order and invokes *on_result*
    in task order from the calling thread, buffering out-of-order
    completions, so downstream stores see a deterministic sequence.

    A *tracer* records scheduler counters on the submitting side
    (``scheduler.tasks_queued`` / ``tasks_running`` / ``tasks_done`` /
    ``tasks_failed`` / ``tasks_rerun``) regardless of backend; per-trial
    spans come from the workers' runners and travel on the results
    themselves.
    """

    def __init__(self, runner, *, jobs=1, backend=None, tracer=None):
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
        self._local = None           # thread mode's per-thread clones
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
        runner = self.scheduler.runner
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
            run = self._thread_run
        else:
            self._ensure_process_pool()
            run = _process_run
        futures = [self._pool.submit(run, task, health) for task in tasks]
        return drain(runner, tasks, futures, health, on_result,
                     self.scheduler.tracer)

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

    def _thread_run(self, task, health):
        """Execute one batch task on the calling pool thread, on the
        clone of the caller's runner that thread keeps."""
        runner = getattr(self._local, "runner", None)
        if runner is None:
            runner = self._local.runner = self.scheduler.runner.clone()
        tracer = self.scheduler.tracer
        tracer.count("scheduler.tasks_running", 1)
        try:
            return run_from(runner, task, health)
        finally:
            tracer.count("scheduler.tasks_running", -1)

    def _ensure_process_pool(self):
        # Worker state is inherited by fork (initargs never pickle);
        # every task and every result crosses the boundary by pickle.
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.scheduler.jobs, mp_context=context,
                initializer=_process_init,
                initargs=(self.scheduler.runner,))
