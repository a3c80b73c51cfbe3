"""Load-test client for the multi-worker prediction server.

Drives a running :mod:`repro.streaming.server` instance with concurrent
JSON-lines connections at a fixed request rate, optionally injecting a
worker kill just before request N (``{"control": "kill-worker"}``), and
accounts for every single request: served, shed, errored or *lost*.
"Lost" means the server accepted a line and never answered it — the
number the robustness contract says must be zero even while a worker is
being SIGKILLed.

Used by ``repro loadtest`` (operator CLI) and
``benchmarks/bench_serve.py`` (the serving section of
``BENCH_report.json``); both layers only format what
:func:`run_loadtest` returns.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServingError

__all__ = [
    "LoadTestConfig",
    "LoadTestResult",
    "run_loadtest",
]


@dataclass(frozen=True)
class LoadTestConfig:
    """What to throw at the server, and how fast."""

    host: str = "127.0.0.1"
    port: int = 7781
    #: Total requests to send across all connections.
    n_requests: int = 100
    #: Aggregate send rate; 0 sends as fast as possible.
    rate_rps: float = 0.0
    n_connections: int = 4
    #: Horizon of each predict-ahead request, ticks.
    horizon_ticks: int = 8
    #: Send a kill-worker control command just before request number
    #: N (0-based) goes out (``None``: no fault injection).
    kill_worker_after_requests: Optional[int] = None
    #: How long to keep retrying the initial connect (server boot time).
    connect_timeout_s: float = 30.0
    #: How long to wait for outstanding responses after the last send.
    response_timeout_s: float = 60.0
    #: Whether to ask the server to shut down after the run.
    shutdown_after: bool = False

    def __post_init__(self) -> None:
        if self.n_requests < 1 or self.n_connections < 1:
            raise ServingError("n_requests and n_connections must be positive")
        if self.horizon_ticks < 1:
            raise ServingError("horizon_ticks must be positive")
        kill_at = self.kill_worker_after_requests
        if kill_at is not None and not 0 <= kill_at < self.n_requests:
            raise ServingError(
                f"kill_worker_after_requests={kill_at} is outside [0, {self.n_requests}): "
                "the kill would never be sent"
            )


@dataclass
class LoadTestResult:
    """Full accounting of one load-test run."""

    sent: int = 0
    #: Requests answered with predictions.
    served: int = 0
    #: Requests answered with a structured ``overloaded`` error.
    shed: int = 0
    #: Requests answered with any other structured error.
    errors: int = 0
    #: Requests the server never answered — must be zero.
    lost: int = 0
    #: Worker id reported killed by fault injection (None: no kill).
    killed_worker: Optional[int] = None
    elapsed_s: float = 0.0
    #: Client-side send-to-answer latencies of served requests.
    latencies_s: List[float] = field(default_factory=list)
    #: ``id`` → response payload, for byte-parity checks by callers.
    responses: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Requests that got any structured response line."""
        return self.served + self.shed + self.errors

    def req_per_s(self) -> float:
        """Served requests per wall-clock second of the run."""
        return self.served / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_percentile_s(self, percentile: float) -> float:
        """Client-side latency percentile over served requests."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(
            len(ordered) - 1, max(0, int(round(percentile / 100.0 * (len(ordered) - 1))))
        )
        return ordered[rank]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (used by the serving benchmark section)."""
        return {
            "sent": self.sent,
            "served": self.served,
            "shed": self.shed,
            "errors": self.errors,
            "lost": self.lost,
            "killed_worker": self.killed_worker,
            "elapsed_s": self.elapsed_s,
            "req_per_s": self.req_per_s(),
            "p50_latency_s": self.latency_percentile_s(50),
            "p95_latency_s": self.latency_percentile_s(95),
            "p99_latency_s": self.latency_percentile_s(99),
        }


async def _connect_with_retry(
    config: LoadTestConfig,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open one connection, retrying while the server boots."""
    deadline = time.monotonic() + config.connect_timeout_s
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            return await asyncio.open_connection(config.host, config.port)
        except (ConnectionRefusedError, OSError) as exc:
            last_error = exc
            await asyncio.sleep(0.1)
    raise ServingError(
        f"could not connect to {config.host}:{config.port} "
        f"within {config.connect_timeout_s:g}s: {last_error}"
    )


async def _read_loop(
    reader: asyncio.StreamReader,
    result: LoadTestResult,
    send_times: Dict[str, float],
    controls: List[Dict[str, Any]],
) -> None:
    """Collect responses from one connection until EOF."""
    async for raw in reader:
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            result.errors += 1
            continue
        if not isinstance(payload, dict):
            result.errors += 1
            continue
        if "control" in payload:
            controls.append(payload)
            continue
        rid = str(payload.get("id"))
        result.responses[rid] = payload
        if "predictions" in payload:
            result.served += 1
            sent_at = send_times.get(rid)
            if sent_at is not None:
                result.latencies_s.append(time.monotonic() - sent_at)
        elif payload.get("error") == "overloaded":
            result.shed += 1
        else:
            result.errors += 1


async def _run_async(config: LoadTestConfig) -> LoadTestResult:
    result = LoadTestResult()
    send_times: Dict[str, float] = {}
    controls: List[Dict[str, Any]] = []
    connections = [
        await _connect_with_retry(config) for _ in range(config.n_connections)
    ]
    readers = [
        asyncio.ensure_future(_read_loop(reader, result, send_times, controls))
        for reader, _ in connections
    ]
    started = time.monotonic()
    interval_s = 1.0 / config.rate_rps if config.rate_rps > 0 else 0.0
    for i in range(config.n_requests):
        rid = f"lt-{i}"
        writer = connections[i % config.n_connections][1]
        if i == config.kill_worker_after_requests:
            # On request i's own connection, so the server sees it first.
            writer.write(json.dumps({"control": "kill-worker"}).encode() + b"\n")
        send_times[rid] = time.monotonic()
        writer.write(
            json.dumps({"id": rid, "horizon_ticks": config.horizon_ticks}).encode()
            + b"\n"
        )
        await writer.drain()
        result.sent += 1
        if interval_s > 0:
            # Pace against the schedule, not the last send, so slow
            # drains don't silently lower the offered rate.
            next_at = started + (i + 1) * interval_s
            delay = next_at - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
    # Wait until every request has some answer, or the timeout passes.
    flush_deadline = time.monotonic() + config.response_timeout_s
    while time.monotonic() < flush_deadline:
        if result.answered >= result.sent:
            break
        await asyncio.sleep(0.02)
    result.elapsed_s = time.monotonic() - started
    if config.shutdown_after:
        writer = connections[0][1]
        try:
            writer.write(json.dumps({"control": "shutdown"}).encode() + b"\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
    for _, writer in connections:
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    await asyncio.wait(readers, timeout=10.0)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for control in controls:
        if control.get("control") == "kill-worker" and control.get("killed") is not None:
            result.killed_worker = int(control["killed"])
    for _, writer in connections:
        try:
            writer.close()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    result.lost = result.sent - result.answered
    return result


def run_loadtest(config: Optional[LoadTestConfig] = None) -> LoadTestResult:
    """Run one load test against a live server; blocking entry point."""
    return asyncio.run(_run_async(config or LoadTestConfig()))
