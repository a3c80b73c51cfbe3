"""Measurement primitives shared by every workload of the benchmark.

Nothing here imports the ``repro`` package: the harness measures the
program from outside, and the traced children install their spans via
:mod:`instrument`.  The pieces are:

* order statistics: the median and the tail-percentile rule;
* :class:`Tracer` — nested spans with self time, an explicit
  ``unattributed_s`` remainder and Chrome trace-event export;
* the serving ladder search with its invalid-rung rule;
* child processes measured with their whole-subtree peak RSS, killed as a
  process group so nothing outlives a run;
* per-run artifact-cache isolation by hard-linked copies of a pristine
  cache, with a guard that the pristine copy never changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: Percentiles the tail rule may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one input stream of a workload."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples (float-safe)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(pct, value, n)``: the highest percentile with >= 10 samples beyond it.

    "Beyond" counts the samples ranked strictly above the nearest-rank
    position, so p99 needs 1000 samples and p95 needs 200.  ``None`` when
    even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = _rank(pct, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Single-threaded nested spans on the monotonic clock.

    Every span names the metric bucket its self time is charged to.  The
    root span's own self time is the ``unattributed_s`` remainder, so the
    bucket totals plus that remainder sum to the root's duration.
    """

    ROOT = "unattributed"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}

    def open(self, name: str, bucket: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, bucket, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close in the order they opened")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration_s

    @contextmanager
    def span(self, name: str, bucket: str) -> Iterator[int]:
        index = self.open(name, bucket)
        try:
            yield index
        finally:
            self.close(index)

    def inside(self, bucket: str) -> bool:
        """Whether an open span is charged to ``bucket``."""
        return any(self.spans[i].bucket == bucket for i in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> Dict[str, float]:
        """Self seconds per bucket; the root's own share is ``unattributed``."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.bucket] = totals.get(span.bucket, 0.0) + span.self_s
        return totals

    def inclusive_times(self, bucket: str) -> Dict[str, float]:
        """Inclusive seconds of ``bucket``'s outermost spans, per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.bucket != bucket:
                continue
            parent = span.parent
            nested = False
            while parent is not None:
                if self.spans[parent].bucket == bucket:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    def chrome_events(self, pid: int = 1, tid: int = 1) -> List[Dict[str, Any]]:
        """Complete ("X") trace events, loadable in Perfetto / chrome://tracing."""
        if not self.spans:
            return []
        origin = min(s.start for s in self.spans)
        return [
            {
                "name": s.name,
                "cat": s.bucket,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration_s * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"self_us": s.self_s * 1e6},
            }
            for s in self.spans
        ]


def check_coverage(root_s: float, child_wall_s: float, slack_s: float) -> bool:
    """Whether a traced child's root span covers its externally timed life.

    Bucket self times plus ``unattributed`` sum to the root span by
    construction, so what can break attribution is work outside the root:
    at interpreter exit, in ``atexit`` hooks or in threads and processes
    joined after it closed.  The parent's wall time of the child may
    exceed the root span only by ``slack_s`` (interpreter start-up and the
    trace file write).
    """
    return 0.0 <= child_wall_s - root_s <= slack_s


# ---------------------------------------------------------------------------
# Serving ladder
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
INVALID = "invalid"


@dataclass
class Rung:
    """Outcome of one window of requests: an open-loop rate or a closed loop."""

    rate_rps: float
    sent: int = 0
    served: int = 0
    shed: int = 0
    errored: int = 0
    lost: int = 0
    mismatched: int = 0
    #: Latencies from each request's due time, seconds, served only.
    latencies_s: List[float] = field(default_factory=list)
    #: Clock readings at which each served answer arrived.
    answered_at: List[float] = field(default_factory=list)
    first_due: float = 0.0
    last_due: float = 0.0
    max_late_s: float = 0.0
    #: Share of a closed-loop window's wall time the client spent on the CPU.
    client_busy: float = 0.0

    def tail(self) -> Optional[Tuple[float, float, int]]:
        return tail_percentile(self.latencies_s)

    def throughput(self) -> float:
        """Answers per second from the first send to the last answer."""
        if not self.answered_at:
            return 0.0
        return len(self.answered_at) / (max(self.answered_at) - self.first_due)


def judge_rung(rung: Rung, p99_limit_s: float, max_late_s: float) -> str:
    """``pass``/``fail``/``invalid`` for one rung.

    A rung whose client ran more than ``max_late_s`` behind schedule did
    not offer the rate it names, so it is *invalid*: neither a pass nor a
    server failure.  Otherwise it passes only if every request sent was
    served (none shed, errored or lost) and the p99 latency from due time
    is within the limit; with fewer than 1000 samples the tail rule's
    highest resolvable percentile stands in for p99.
    """
    if rung.max_late_s > max_late_s:
        return INVALID
    if rung.sent == 0 or rung.served != rung.sent:
        return FAIL
    tail = rung.tail()
    if tail is None:
        return FAIL
    return PASS if tail[1] <= p99_limit_s else FAIL


def valid_window(
    run_window: Callable[[], Rung],
    problem: Callable[[Rung], Optional[str]],
    invalid: List[Rung],
    max_invalid: int,
) -> Rung:
    """Run a timed window until it is valid.

    ``problem`` names why a window does not measure the server (``None``
    when it does): an open-loop client that ran late did not offer the
    rate it names, and a closed-loop client that was busy most of the
    window may have set the pace itself.  Such a window goes to ``invalid``
    (its requests still count and are still checked) and is run again.
    More than ``max_invalid`` invalid windows in all raise
    ``RuntimeError``: the host cannot drive the load.
    """
    while True:
        window = run_window()
        why = problem(window)
        if why is None:
            return window
        invalid.append(window)
        if len(invalid) > max_invalid:
            raise RuntimeError(f"{len(invalid)} invalid windows, the last because {why}")


def late_problem(rung: Rung, max_late_s: float) -> Optional[str]:
    """Why an open-loop window is invalid: its client ran late."""
    if rung.max_late_s <= max_late_s:
        return None
    return f"the client ran {rung.max_late_s * 1e3:.1f} ms behind at {rung.rate_rps:g} req/s"


def busy_client_problem(rung: Rung, max_busy: float) -> Optional[str]:
    """Why a closed-loop window is invalid: the client may have set the pace.

    A client on the CPU for at most ``max_busy`` of the window spent the
    rest waiting for answers, so the answer rate is the server's.
    """
    if rung.client_busy <= max_busy:
        return None
    return f"the client was on the CPU for {rung.client_busy:.0%} of the window, over {max_busy:.0%}"


def climb(
    rates: Sequence[float],
    run_rung: Callable[[float], Rung],
    judge: Callable[[Rung], str],
) -> Tuple[Optional[Rung], List[Tuple[Rung, str]]]:
    """Climb a fixed ladder up to the first rate that does not pass.

    Returns the highest passing rung (``None`` if the first rate missed)
    and every rung run with its verdict.
    """
    best: Optional[Rung] = None
    history: List[Tuple[Rung, str]] = []
    for rate in rates:
        rung = run_rung(rate)
        verdict = judge(rung)
        history.append((rung, verdict))
        if verdict != PASS:
            break
        best = rung
    return best, history


def ladder_search(
    coarse: Sequence[float],
    subdivisions: int,
    run_rung: Callable[[float], Rung],
    judge: Callable[[Rung], str],
) -> Tuple[Optional[Rung], List[Tuple[Rung, str]]]:
    """Coarse climb, then a fine climb above the best pass.

    The fine rungs split the ratio between the best passing coarse rate
    and the coarse rate above it into ``subdivisions + 1`` equal geometric
    steps.  Every rate is fixed by the coarse ladder and the outcomes, so
    the search is repeatable; its resolution is the coarse ratio's
    ``subdivisions + 1``-th root.
    """
    best, history = climb(coarse, run_rung, judge)
    if best is None:
        return best, history
    i = list(coarse).index(best.rate_rps)
    if i + 1 < len(coarse):
        ratio = coarse[i + 1] / coarse[i]
        fine = [coarse[i] * ratio ** (j / (subdivisions + 1)) for j in range(1, subdivisions + 1)]
        fine_best, fine_history = climb(fine, run_rung, judge)
        history += fine_history
        best = fine_best or best
    return best, history


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def kill_group(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """SIGKILL ``proc``'s process group, reap ``proc`` if it is not reaped
    yet, and wait until no member of the group is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if proc.returncode is None:
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def wait_rusage(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float]:
    """Reap ``proc``; ``(returncode, peak RSS in MB of its whole subtree)``.

    ``wait4`` reports the child's own maximum resident set together with
    that of every descendant it reaped, which covers worker pools.  On
    timeout the child's process group is killed and ``TimeoutError``
    raised.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            kill_group(proc)
            raise TimeoutError(f"{proc.args[:3]} exceeded {timeout_s:g} s")
        time.sleep(0.005)


def run_child(
    argv: Sequence[str], env: Dict[str, str], cwd: Path, log_dir: Path, timeout_s: float
) -> ChildResult:
    """Run one child in its own process group, timed, with its peak RSS.

    Output goes to files rather than pipes, so a grandchild that keeps a
    descriptor open can never stall the wait.  Whatever is left of the
    group afterwards is killed.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), env=env, cwd=str(cwd), stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            code, rss = wait_rusage(proc, timeout_s)
            wall = time.perf_counter() - start
        finally:
            kill_group(proc)
    return ChildResult(code, wall, rss, out_path.read_text(), err_path.read_text())


# ---------------------------------------------------------------------------
# Artifact-cache isolation
# ---------------------------------------------------------------------------


def tree_listing(root: Path) -> Dict[str, int]:
    """Relative path -> size of every regular file under ``root``."""
    listing: Dict[str, int] = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            listing[str(path.relative_to(root))] = path.stat().st_size
    return listing


def link_copy(pristine: Path, target: Path) -> None:
    """Hard-link every file of ``pristine`` into a fresh ``target`` tree.

    Safe because the artifact cache only ever replaces a file atomically
    (temp file + ``os.replace``) or unlinks it: neither writes through a
    shared inode, so the pristine copy cannot change.
    """
    target.mkdir(parents=True)
    for path in sorted(pristine.rglob("*")):
        dest = target / path.relative_to(pristine)
        if path.is_dir():
            dest.mkdir(exist_ok=True)
        else:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.link(path, dest)


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
