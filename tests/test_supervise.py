"""The shared process-lifecycle policy (:mod:`repro.core.supervise`).

Every verdict is taken at an explicit parent time ``now`` after the
child's state is settled (joined, or known never to beat), so no
assertion depends on how fast the host is.  Child targets live at
module level so the ``spawn`` start method can import them.
"""

import signal
import time
from types import SimpleNamespace

import pytest

from repro.core import supervise
from repro.core.supervise import (
    DEAD,
    FAILED,
    HUNG,
    LIVE,
    RESTARTING,
    STARTING,
    STOPPED,
    Beat,
    Slot,
    halt,
    restart_delay_s,
)

CTX = supervise.mp_context("spawn")


def _exit_at_once(heartbeat):
    """A child that exits immediately, without a beat."""


def _sleep_forever(heartbeat):
    """A child that never beats."""
    time.sleep(600)


def _say_bye(queue, heartbeat):
    """A child that queues its final message and exits right after."""
    Beat(heartbeat)()
    queue.put(("done", 0, {"completed": True}))


def _beat_until_killed(die_at, heartbeat):
    """A child that beats as fast as it can; chaos stops it at ``die_at``."""
    beat = Beat(heartbeat, die_at)
    while True:
        beat()


def _slot(target, *args, max_restarts=3, backoff_s=0.5):
    policy = SimpleNamespace(
        liveness_deadline_s=1.0, max_restarts=max_restarts, restart_backoff_s=backoff_s
    )
    return Slot(CTX, 0, "test-supervise-child", lambda slot: (target, args, {}), policy)


def _join(process):
    process.join(timeout=120.0)
    assert not process.is_alive()


class TestRestartSchedule:
    def test_delay_doubles_from_the_base(self):
        assert [restart_delay_s(0.1, k) for k in (1, 2, 3, 4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8]
        )

    def test_first_delay_equals_the_base(self):
        # The runner's default single retry waits exactly backoff_s.
        assert restart_delay_s(0.25, 1) == 0.25

    def test_budget_is_exhausted_after_max_restarts(self):
        slot = _slot(_exit_at_once, max_restarts=2, backoff_s=0.5)
        slot.spawn()
        now = time.monotonic()
        events, delays = [], []
        while slot.state != FAILED:
            _join(slot.process)
            events.append(slot.poll(now))
            if slot.state == RESTARTING:
                delays.append(slot.respawn_at - now)
                assert slot.poll(now) is None  # not due yet
                now = slot.respawn_at
                assert slot.poll(now) == "respawned"
                assert slot.state == STARTING
        assert events == [DEAD, DEAD, DEAD]
        assert slot.restarts == 2
        assert delays == pytest.approx([0.5, 1.0])
        assert slot.poll(now + 100.0) is None


class TestVerdict:
    def test_silence_is_a_hang_only_after_ready(self):
        slot = _slot(_sleep_forever)
        slot.spawn()
        try:
            assert slot.verdict(time.monotonic() + 1000.0) == LIVE
            slot.mark_ready()
            assert slot.state == LIVE
            assert slot.poll(time.monotonic() + 1000.0) == HUNG
            assert not slot.process.is_alive()  # a hung child is killed
            assert slot.state == RESTARTING and slot.restarts == 1
        finally:
            halt(slot.process)

    def test_a_beat_resets_the_parent_clock(self):
        slot = _slot(_sleep_forever)
        slot.spawn()
        try:
            slot.mark_ready()
            now = time.monotonic()
            slot.beats.value += 1  # a beat, first seen at `now`
            assert slot.verdict(now) == LIVE
            assert slot.verdict(now + 0.5) == LIVE
            assert slot.verdict(now + 2.0) == HUNG
        finally:
            halt(slot.process)

    def test_final_message_in_the_queue_is_not_a_crash(self):
        queue = CTX.Queue()
        slot = _slot(_say_bye, queue)
        slot.spawn()
        _join(slot.process)
        now = time.monotonic()
        # Dead, but within the grace: the caller drains its queue first.
        assert slot.poll(now, grace_s=1.0) is None
        kind, _, stats = queue.get(timeout=30.0)
        assert kind == "done" and stats["completed"]
        slot.state = STOPPED
        assert slot.poll(now + 100.0, grace_s=1.0) is None
        assert slot.restarts == 0

    def test_exit_past_the_grace_is_a_crash(self):
        slot = _slot(_exit_at_once)
        slot.spawn()
        _join(slot.process)
        now = time.monotonic()
        assert slot.verdict(now, grace_s=1.0) == LIVE
        assert slot.verdict(now + 1.0, grace_s=1.0) == DEAD


class TestChaosBeat:
    def test_child_dies_at_exactly_beat_n(self):
        slot = _slot(_beat_until_killed, 250)
        slot.spawn()
        _join(slot.process)
        assert slot.process.exitcode == -signal.SIGKILL
        assert slot.beats.value == 250

    def test_beat_counts_on_any_object_with_a_value(self):
        counter = SimpleNamespace(value=0.0)
        beat = Beat(counter)
        for _ in range(3):
            beat()
        assert counter.value == 3


class TestHalt:
    def test_kills_and_reaps_a_child_that_will_not_exit(self):
        process = supervise.spawn(CTX, _sleep_forever, (None,))
        assert halt(process, grace_s=0.0) is True
        assert process.exitcode == -signal.SIGKILL

    def test_leaves_an_exited_child_alone(self):
        process = supervise.spawn(CTX, _exit_at_once, (None,))
        assert halt(process, grace_s=120.0) is False
        assert process.exitcode == 0
