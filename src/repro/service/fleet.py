"""The shared worker fleet: one pool, many campaigns, fair shares.

A :class:`WorkerFleet` owns two thread pools — the main lane and the
analytic fast lane — and decides only *admission*: which queued trial
of which attached campaign runs next.  The dispatcher enforces the
service plane's scheduling invariants:

- **round-robin fair share** — each dispatch sweep admits at most one
  task per campaign, walking campaigns in attach order, so a campaign
  with thousands of queued trials cannot starve one with ten;
- **per-campaign ceilings** — a campaign never holds more in-flight
  workers than its submitted ``jobs`` ceiling;
- **fleet backpressure** — admissions stop at the fleet's worker
  count; queued tasks simply wait;
- **analytic fast lane** — trials carrying ``fidelity="analytic"``
  dispatch onto a small dedicated worker pool, so millisecond-scale
  analytic sweeps never queue behind seconds-scale DES simulations
  from other tenants (or their own campaign's confirmation trials).

Delivery is the scheduler's: a campaign's :class:`FleetLease` queues
its batch as ``(task, Future)`` pairs and drains them in task order on
the campaign's own thread with :func:`repro.experiments.scheduler.
drain` — the code that delivers a ``repro run --jobs N`` batch, host
health replay included.  Workers run each trial on a clone of the
campaign's runner from the health the batch began with, so a
campaign's shard rows are byte-identical to a sequential run's no
matter how its tasks interleave with other tenants, fault plans that
quarantine hosts included.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

from repro.errors import CampaignCancelled, ServiceError
from repro.experiments.scheduler import drain, run_from
from repro.obs.tracer import as_tracer
from repro.sim import ANALYTIC, DES


class _TenantQueue:
    """One campaign's seat on the fleet: runner, queue, ceiling."""

    def __init__(self, runner, ceiling):
        self.runner = runner
        self.ceiling = max(1, ceiling)
        self.pending = deque()       # (task, future, health) not admitted
        self.in_flight = 0           # admitted, not yet completed
        self.free = []               # idle clones of runner, <= ceiling
        self.cancelled = False

    def admissible(self):
        return (not self.cancelled and self.pending
                and self.in_flight < self.ceiling)

    def cancel(self):
        """Drop the queued tasks, cancelling their futures."""
        self.cancelled = True
        for _task, future, _health in self.pending:
            future.cancel()
        self.pending.clear()


class FleetLease:
    """A campaign's handle on the fleet — its executor.

    ``run_batch(tasks, on_result)`` is the
    :class:`~repro.experiments.scheduler.SchedulerSession` protocol:
    it blocks until every task is delivered, in task order, and returns
    the results.  ``cancel()`` drops the campaign's queued tasks and
    makes the blocked ``run_batch`` raise :class:`CampaignCancelled`
    once the in-flight prefix is delivered; ``close()`` detaches the
    campaign and drops its runner clones.
    """

    def __init__(self, fleet, campaign_id, runner):
        self.fleet = fleet
        self.campaign_id = campaign_id
        self.runner = runner

    def run_batch(self, tasks, on_result=None):
        tasks = list(tasks)
        health = self.runner.health()
        futures = self.fleet._enqueue(self.campaign_id, tasks, health)
        try:
            return drain(self.runner, tasks, futures, health, on_result,
                         self.fleet.tracer)
        except CancelledError:
            raise CampaignCancelled(
                f"campaign {self.campaign_id!r} was cancelled") from None

    def cancel(self):
        self.fleet.cancel(self.campaign_id)

    def close(self):
        self.fleet.detach(self.campaign_id)


class WorkerFleet:
    """``jobs`` persistent thread workers shared by every campaign."""

    def __init__(self, *, jobs=4, tracer=None):
        if jobs < 1:
            raise ServiceError(f"fleet needs at least 1 worker, got {jobs}")
        self.jobs = jobs
        # The analytic fast lane: a small second pool sized off the
        # main one.  Analytic trials take ~1ms each, so a handful of
        # workers absorbs any tenant's exploration round.
        self.fast_jobs = max(2, min(4, jobs))
        self.tracer = as_tracer(tracer)
        self._pool = ThreadPoolExecutor(max_workers=jobs)
        self._fast_pool = ThreadPoolExecutor(max_workers=self.fast_jobs)
        self._cond = threading.Condition()
        self._queues = {}            # campaign_id -> _TenantQueue
        self._in_flight = 0          # main-lane admitted tasks
        self._fast_in_flight = 0     # fast-lane admitted tasks
        self._dispatched = 0         # lifetime admission counter
        self._closed = False
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="fleet-dispatcher",
                                            daemon=True)
        self._dispatcher.start()

    # -- campaign lifecycle ------------------------------------------------

    def attach(self, campaign_id, runner, *, ceiling=1):
        """Give *campaign_id* a seat on the fleet; returns its lease.

        Workers run the campaign's trials on clones of *runner* (at
        most *ceiling* of them, kept until the campaign detaches);
        *ceiling* is the campaign's ``jobs`` cap — how many fleet
        workers it may hold at once, regardless of how idle the fleet
        is.
        """
        with self._cond:
            if self._closed:
                raise ServiceError("worker fleet is shut down")
            if campaign_id in self._queues:
                raise ServiceError(
                    f"campaign {campaign_id!r} is already attached")
            self._queues[campaign_id] = _TenantQueue(runner, ceiling)
        return FleetLease(self, campaign_id, runner)

    def detach(self, campaign_id):
        """Remove the campaign's seat and drop its runner clones."""
        with self._cond:
            queue = self._queues.pop(campaign_id, None)
            if queue is not None:
                queue.cancel()
                queue.free.clear()

    def cancel(self, campaign_id):
        """Drop the campaign's queued tasks; in-flight trials finish
        (and are delivered), then its blocked ``run_batch`` raises
        :class:`CampaignCancelled`."""
        with self._cond:
            queue = self._queues.get(campaign_id)
            if queue is not None:
                queue.cancel()

    # -- execution ---------------------------------------------------------

    def _enqueue(self, campaign_id, tasks, health):
        """Queue *tasks*, each to start from *health*; returns their
        futures in task order."""
        futures = [Future() for _ in tasks]
        with self._cond:
            queue = self._queues.get(campaign_id)
            if queue is None:
                raise ServiceError(
                    f"campaign {campaign_id!r} is not attached")
            if queue.cancelled:
                raise CampaignCancelled(
                    f"campaign {campaign_id!r} was cancelled")
            queue.pending.extend((task, future, health)
                                 for task, future in zip(tasks, futures))
            self._cond.notify_all()
        return futures

    def _dispatch_loop(self):
        """Round-robin admission: at most one task per campaign per
        sweep, in attach order, until the fleet is saturated."""
        while True:
            with self._cond:
                if self._closed:
                    return
                if not self._admit_locked():
                    # Nothing admissible: wait for a completion, a new
                    # batch, a cancel, or shutdown.  The timeout is a
                    # liveness backstop, not a scheduling quantum.
                    self._cond.wait(timeout=0.5)

    def _admit_locked(self):
        """One full round-robin sweep; returns how many queued tasks
        left their queues (admitted, or skipped as cancelled).

        Each queue's *head* task picks its lane: analytic trials go to
        the fast pool, everything else to the main pool.  A lane at
        capacity skips the queue for this sweep (the task waits for its
        own lane rather than crossing over and queueing behind the
        other tier's work).  A head whose future a failed drain
        cancelled is dropped unrun."""
        admitted = skipped = 0
        for queue in list(self._queues.values()):
            if self._in_flight >= self.jobs \
                    and self._fast_in_flight >= self.fast_jobs:
                break
            if not queue.admissible():
                continue
            task, future, health = queue.pending[0]
            fast = getattr(task, "fidelity", DES) == ANALYTIC
            if fast:
                if self._fast_in_flight >= self.fast_jobs:
                    continue
            elif self._in_flight >= self.jobs:
                continue
            queue.pending.popleft()
            if not future.set_running_or_notify_cancel():
                skipped += 1
                continue
            queue.in_flight += 1
            if fast:
                self._fast_in_flight += 1
            else:
                self._in_flight += 1
            self._dispatched += 1
            admitted += 1
            pool = self._fast_pool if fast else self._pool
            pool.submit(self._run, queue, task, future, health, fast)
        if admitted:
            self.tracer.count("fleet.tasks_admitted", admitted)
        return admitted + skipped

    def _run(self, queue, task, future, health, fast):
        """One admitted trial, on a pool thread: a free clone of the
        campaign's runner (a new one while fewer than the ceiling
        exist) runs *task* from *health*; the outcome settles
        *future* for the campaign's drain."""
        clone = outcome = error = None
        try:
            with self._cond:
                if queue.free:
                    clone = queue.free.pop()
            if clone is None:
                clone = queue.runner.clone()
            outcome = run_from(clone, task, health)
        except BaseException as caught:  # noqa: BLE001 — the drain
            error = caught               # raises it or re-runs the task
        with self._cond:
            queue.in_flight -= 1
            if fast:
                self._fast_in_flight -= 1
            else:
                self._in_flight -= 1
            if clone is not None and not queue.cancelled:
                queue.free.append(clone)
            self._cond.notify_all()
        # Only the free list may hold the clone once the campaign sees
        # its result, so a detach right after the drain drops it.
        del clone
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(outcome)

    # -- observability and lifecycle ---------------------------------------

    def stats(self):
        """A snapshot of the fleet's scheduling state."""
        with self._cond:
            return {
                "workers": self.jobs,
                "in_flight": self._in_flight,
                "fast_workers": self.fast_jobs,
                "fast_in_flight": self._fast_in_flight,
                "dispatched": self._dispatched,
                "campaigns": {
                    cid: {
                        "pending": len(q.pending),
                        "in_flight": q.in_flight,
                        "ceiling": q.ceiling,
                        "cancelled": q.cancelled,
                    }
                    for cid, q in self._queues.items()
                },
            }

    def saturated(self):
        """Whether every fleet worker is currently held."""
        with self._cond:
            return self._in_flight >= self.jobs

    def close(self):
        """Stop the dispatcher and shut the worker pools down."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for queue in self._queues.values():
                queue.cancel()
            self._cond.notify_all()
        self._dispatcher.join(timeout=5)
        self._pool.shutdown(wait=True)
        self._fast_pool.shutdown(wait=True)
