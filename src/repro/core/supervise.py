"""Process lifecycle shared by the serve pool, the ingest shards and the
experiment runner's isolated retries; each keeps its own message protocol.

A child bumps a shared beat counter (:class:`Beat`) and the parent
(:class:`Slot`) timestamps each change on its own monotonic clock, so
no clock reading crosses a process boundary.  A child is hung after no
beat for the liveness deadline (judged only once it reported ready) and
dead once it exited, after an optional grace for a final message still
in a queue.  A slot respawns a lost child after ``base·2^(k-1)`` until
its restart budget is spent.  ``Beat(counter, die_at=N)`` is chaos by
progress: the child SIGKILLs itself exactly at beat N, the same on a
fast host as on a slow one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "STARTING", "LIVE", "RESTARTING", "FAILED", "STOPPED", "HUNG", "DEAD",
    "mp_context", "spawn", "halt", "restart_delay_s", "Beat", "Slot",
]

#: Slot lifecycle states (strings: they travel through JSON).
STARTING = "starting"
LIVE = "live"
RESTARTING = "restarting"
FAILED = "failed"
STOPPED = "stopped"
#: Verdicts on a child besides ``LIVE``.
HUNG = "hung"
DEAD = "dead"


def mp_context(method: str) -> Any:
    """The ``multiprocessing`` context of ``method``, else the default."""
    try:
        return multiprocessing.get_context(method)
    except ValueError:  # pragma: no cover - e.g. no fork outside POSIX
        return multiprocessing.get_context()


def spawn(ctx: Any, target: Callable, args: Sequence = (), kwargs=None, name=None) -> Any:
    """Start ``target(*args, **kwargs)`` as a daemon child under ``ctx``."""
    process = ctx.Process(target=target, args=args, kwargs=kwargs or {}, name=name, daemon=True)
    process.start()
    return process


def halt(process: Any, grace_s: Optional[float] = 0.0) -> bool:
    """Give ``process`` ``grace_s`` to exit (``None``: forever), then
    SIGKILL and reap it; returns whether it had to be killed."""
    process.join(grace_s)
    if not process.is_alive():
        return False
    process.kill()
    process.join(5.0)
    return True


def restart_delay_s(base_s: float, restart: int) -> float:
    """Delay before the ``restart``-th consecutive restart (1-based)."""
    return base_s * 2 ** (restart - 1)


class Beat:
    """Child side: one call per unit of progress on ``counter`` (any
    object with a numeric ``.value``); SIGKILLs the process right after
    beat ``die_at`` when that is set (chaos by progress)."""

    __slots__ = ("counter", "die_at")

    def __init__(self, counter: Any, die_at: Optional[int] = None) -> None:
        self.counter = counter
        self.die_at = die_at

    def __call__(self) -> None:
        beats = self.counter.value + 1
        self.counter.value = beats
        if beats == self.die_at:
            os.kill(os.getpid(), signal.SIGKILL)


class Slot:
    """One restartable child position: process, beats, state and budget.

    ``boot(slot)`` returns the ``(target, args, kwargs)`` to run; the
    child is called as ``target(*args, heartbeat=counter, **kwargs)`` and
    wraps ``counter`` in a :class:`Beat`.  ``slot.restarts`` tells the
    first boot (0) from the k-th respawn.  ``policy`` is any object with
    ``liveness_deadline_s``, ``max_restarts`` and ``restart_backoff_s``.
    The caller's protocol moves the slot to ``LIVE`` (:meth:`mark_ready`)
    or a terminal ``STOPPED``/``FAILED``; :meth:`poll` does the rest.
    """

    def __init__(self, ctx: Any, slot_id: int, name: str, boot: Callable, policy: Any) -> None:
        self.slot_id = slot_id
        self.name = name
        self.policy = policy
        self.state = STARTING
        self.restarts = 0
        self.respawn_at = 0.0
        self.process: Any = None
        self.beats: Any = None
        self._ctx = ctx
        self._boot = boot

    def spawn(self) -> None:
        """Boot (or re-boot) the slot's child."""
        target, args, kwargs = self._boot(self)
        # One writer (the child), so the counter needs no lock.
        self.beats = self._ctx.Value("q", 0, lock=False)
        self.state = STARTING
        self._seen, self._seen_at, self._dead_since = 0, time.monotonic(), None
        self.process = spawn(self._ctx, target, args, dict(kwargs, heartbeat=self.beats), self.name)

    def mark_ready(self) -> None:
        """The child reported ready: from now on silence means a hang."""
        if self.state == STARTING:
            self.state = LIVE
            self._seen_at = time.monotonic()

    def verdict(self, now: float, grace_s: float = 0.0) -> str:
        """``LIVE``, ``HUNG`` or ``DEAD`` as of the parent's time ``now``.

        A child that exited less than ``grace_s`` ago still reads
        ``LIVE``, so the caller drains a final message the child queued
        just before exiting instead of counting the exit as a crash.
        """
        beats = self.beats.value
        if beats != self._seen:
            self._seen, self._seen_at = beats, now
        if self.process.is_alive():
            self._dead_since = None
            hung = self.state == LIVE and now - self._seen_at > self.policy.liveness_deadline_s
            return HUNG if hung else LIVE
        if self._dead_since is None:
            self._dead_since = now
        return LIVE if now - self._dead_since < grace_s else DEAD

    def poll(self, now: float, grace_s: float = 0.0) -> Optional[str]:
        """Advance the lifecycle one step; what happened, if anything.

        ``"respawned"`` when a due restart booted a new child; ``HUNG``
        (the child is then killed) or ``DEAD`` when the child was lost,
        which leaves the slot ``RESTARTING`` — or ``FAILED`` once
        ``max_restarts`` respawns are spent.
        """
        if self.state in (FAILED, STOPPED) or self.process is None:
            return None
        if self.state == RESTARTING:
            if now < self.respawn_at:
                return None
            self.spawn()
            return "respawned"
        verdict = self.verdict(now, grace_s)
        if verdict == LIVE:
            return None
        if verdict == HUNG:
            halt(self.process)
        if self.restarts >= self.policy.max_restarts:
            self.state = FAILED
        else:
            self.restarts += 1
            self.state = RESTARTING
            self.respawn_at = now + restart_delay_s(self.policy.restart_backoff_s, self.restarts)
        return verdict
