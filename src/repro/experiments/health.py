"""Host health: the runner state that carries from trial to trial.

A runner blames hosts for failed attempts, quarantines a host once its
blame count reaches the retry policy's ``quarantine_after``, and may
release it on probation later.  At ``jobs=1`` that state flows through
the trials in enumeration order.  Pool workers run trials ahead of
time, each from the health the batch started with, so a worker's trial
may have seen a different health than the sequential run would have
given it.  :func:`merge_health` decides, in enumeration order, whether
a worker's trial stands; a trial that does not stand re-runs on the
caller's runner, which makes the quarantine decision a function of
enumeration order at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class HostHealth:
    """One runner's host health at a trial boundary."""

    counts: dict = field(default_factory=dict)       # host -> blames
    quarantined: dict = field(default_factory=dict)  # host -> reason
    probation: dict = field(default_factory=dict)    # host -> trials left


def merge_health(current, before, after, quarantine_after):
    """The health *current* reaches by one trial that took *before* to
    *after*; ``None`` when the trial could have run differently from
    *current*.

    A trial reads the quarantined set (allocation), the probation
    sentences (released after a completed trial) and the blame count
    of each host it blames.  Those must agree, except that a count
    may differ when the trial's blames keep it below
    *quarantine_after* from either start: then the only effect is the
    increment.
    """
    if (current.quarantined != before.quarantined
            or current.probation != before.probation):
        return None
    counts = dict(current.counts)
    for host in before.counts.keys() | after.counts.keys():
        was = before.counts.get(host, 0)
        now = after.counts.get(host, 0)
        if was == now:
            continue
        if host in before.quarantined and host not in after.quarantined:
            counts[host] = now       # a probation release resets it
            continue
        base = current.counts.get(host, 0)
        if base != was and (host in after.quarantined
                            or max(base, was) + now - was
                            >= quarantine_after):
            return None
        counts[host] = base + now - was
    return HostHealth(counts, after.quarantined, after.probation)
