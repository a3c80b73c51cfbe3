"""Load generator for ``repro serve --workers N``.

One process, one asyncio loop, at most two persistent connections.  In
the open loop (:meth:`ServeClient.run_rate`) requests go out on a
fixed schedule whatever the server does, and each latency is measured
from the request's *due* time, so a stall is charged to every request
it delays, not hidden in a late send; the generator records how far
behind schedule it ever ran.  The closed loop
(:meth:`ServeClient.run_closed`) keeps a fixed number of requests
outstanding, which measures how fast the server answers when it sets
the pace.

The server answers each connection in arrival order, so responses are
matched to requests by order per connection and then checked against
the request id.  Response bodies are parsed and compared only after a
rung ends, keeping the client's own work off the timed path.
"""

from __future__ import annotations

import asyncio
import collections
import json
import random
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from harness import Rung

#: Longest a rung waits for its last responses after the final send.
DRAIN_TIMEOUT_S = 20.0
#: Sends without an intervening sleep before the sender yields anyway.
YIELD_EVERY = 16
#: Horizons of the mix: the 8 ticks ``repro loadtest`` and the serving
#: bench send, and the week ahead (``ServiceConfig.max_horizon_ticks``).
SHORT_TICKS = 8
WEEK_TICKS = 672
#: Share of week-ahead requests (1/85): the share at which both kinds ask
#: for the same number of predicted ticks.  No request log fixes the real
#: mix, so this is an assumption, derived from the two horizons alone.
WEEK_SHARE = SHORT_TICKS / (SHORT_TICKS + WEEK_TICKS)


class _Conn:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        #: In-flight requests, oldest first: (kind, id, due, horizon).
        self.pending: Deque[Tuple[str, str, float, int]] = collections.deque()


class ServeClient:
    """Sends seeded request mixes, open or closed loop, and accounts for each one."""

    def __init__(self, host: str, port: int, n_connections: int = 2) -> None:
        if not 1 <= n_connections <= 2:
            raise ValueError("the client uses one or two connections")
        self.host = host
        self.port = port
        self.n_connections = n_connections
        self._conns: List[_Conn] = []
        self._readers: List[asyncio.Task] = []
        self._answers: Dict[str, Tuple[float, float, bytes, int]] = {}
        self._controls: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self._outstanding = 0
        self._settled = asyncio.Event()
        self._next_id = 0
        #: Called on every answer while a closed loop runs.
        self._on_answer: Optional[Callable[[], None]] = None

    async def connect(self) -> None:
        for _ in range(self.n_connections):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=1 << 24
            )
            conn = _Conn(reader, writer)
            self._conns.append(conn)
            self._readers.append(asyncio.ensure_future(self._read_loop(conn)))

    async def close(self) -> None:
        for conn in self._conns:
            conn.writer.close()
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)

    async def _read_loop(self, conn: _Conn) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            now = loop.time()
            if not conn.pending:
                continue  # nothing outstanding: an unsolicited line is ignored
            kind, rid, due, horizon = conn.pending.popleft()
            if kind == "control":
                self._controls.put_nowait(json.loads(line))
                continue
            self._answers[rid] = (now, due, line, horizon)
            self._outstanding -= 1
            if self._on_answer is not None:
                self._on_answer()
            if self._outstanding == 0:
                self._settled.set()

    async def control(self, command: str) -> Dict[str, Any]:
        """Send one ``{"control": ...}`` line and wait for its answer."""
        conn = self._conns[0]
        conn.pending.append(("control", command, 0.0, 0))
        conn.writer.write(json.dumps({"control": command}).encode() + b"\n")
        await conn.writer.drain()
        return await asyncio.wait_for(self._controls.get(), timeout=DRAIN_TIMEOUT_S)

    async def run_rate(
        self,
        rate_rps: float,
        horizons: Sequence[int],
        expected: Dict[int, Dict[str, Any]],
        poll_stats: Optional[List[Dict[str, Any]]] = None,
    ) -> Rung:
        """Open loop: send ``horizons`` as requests at ``rate_rps``; account
        for each, timing it from when it was due."""
        loop = asyncio.get_running_loop()
        rung = Rung(rate_rps=rate_rps)
        sent_ids = self._begin()
        stop_polling = asyncio.Event()
        poller = (
            asyncio.ensure_future(self._poll(poll_stats, stop_polling))
            if poll_stats is not None else None
        )
        start = loop.time() + 0.02
        unslept = 0
        for i, horizon in enumerate(horizons):
            due = start + i / rate_rps
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                unslept = 0
            else:
                unslept += 1
                if unslept >= YIELD_EVERY:
                    await asyncio.sleep(0)
                    unslept = 0
            rung.max_late_s = max(rung.max_late_s, loop.time() - due)
            sent_ids.append(self._send(i, horizon, due))
        rung.first_due, rung.last_due = start, start + (len(sent_ids) - 1) / rate_rps
        await self._settle()
        if poller is not None:
            # Stopped by a flag, not cancelled: cancelling a task inside
            # asyncio.wait_for can be swallowed on Python 3.11.
            stop_polling.set()
            await poller
        self._account(rung, sent_ids, expected)
        return rung

    async def run_closed(
        self, in_flight: int, horizons: Sequence[int], expected: Dict[int, Dict[str, Any]]
    ) -> Rung:
        """Closed loop: keep ``in_flight`` requests outstanding, sending the
        next as each answer arrives, so the server sets the pace and never
        has to shed.  Latencies run from each actual send; the share of the
        window this process spent on the CPU goes to ``client_busy``."""
        loop = asyncio.get_running_loop()
        rung = Rung(rate_rps=0.0)
        sent_ids = self._begin()
        slots = asyncio.Semaphore(in_flight)
        self._on_answer = slots.release
        cpu_start = time.process_time()
        try:
            rung.first_due = loop.time()
            for i, horizon in enumerate(horizons):
                try:
                    await asyncio.wait_for(slots.acquire(), timeout=DRAIN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    break  # nothing answered for that long: the rest count as lost
                sent_ids.append(self._send(i, horizon, loop.time()))
            rung.last_due = loop.time()
            await self._settle()
        finally:
            self._on_answer = None
        rung.client_busy = (time.process_time() - cpu_start) / (loop.time() - rung.first_due)
        self._account(rung, sent_ids, expected)
        return rung

    def _begin(self) -> List[str]:
        self._answers = {}
        self._settled.clear()
        return []

    def _send(self, i: int, horizon: int, due: float) -> str:
        rid = f"q{self._next_id}"
        self._next_id += 1
        conn = self._conns[i % len(self._conns)]
        conn.pending.append(("request", rid, due, horizon))
        self._outstanding += 1
        conn.writer.write(json.dumps({"id": rid, "horizon_ticks": horizon}).encode() + b"\n")
        return rid

    async def _settle(self) -> None:
        """Flush the sends and wait (bounded) for every answer."""
        for conn in self._conns:
            await conn.writer.drain()
        if self._outstanding > 0:
            # An earlier lull may have set the event; no reader runs
            # between this check and the clear.
            self._settled.clear()
            try:
                await asyncio.wait_for(self._settled.wait(), timeout=DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass

    async def _poll(self, sink: List[Dict[str, Any]], stop: asyncio.Event) -> None:
        while True:
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.1)
                return
            except asyncio.TimeoutError:
                sink.append(await self.control("stats"))

    def _account(
        self, rung: Rung, sent_ids: List[str], expected: Dict[int, Dict[str, Any]]
    ) -> None:
        rung.sent = len(sent_ids)
        for rid in sent_ids:
            answer = self._answers.get(rid)
            if answer is None:
                rung.lost += 1
                continue
            answered_at, due, line, horizon = answer
            payload = json.loads(line)
            if "predictions" in payload:
                payload.pop("latency_s", None)
                want = dict(expected[horizon], id=rid)
                if payload != want:
                    rung.mismatched += 1
                rung.served += 1
                rung.latencies_s.append(answered_at - due)
                rung.answered_at.append(answered_at)
            elif payload.get("error") == "overloaded":
                rung.shed += 1
            else:
                rung.errored += 1
        # Responses that never arrived stay queued; forget them so the
        # next rung's order-matching starts clean.
        self._outstanding = 0
        for conn in self._conns:
            conn.pending = collections.deque(p for p in conn.pending if p[0] == "control")


def request_mix(seed: int, n: int) -> List[int]:
    """``n`` horizons, ``round(n * WEEK_SHARE)`` of them week-ahead, at
    seeded positions: every window of one size asks for the same work."""
    mix = [WEEK_TICKS] * round(n * WEEK_SHARE)
    mix += [SHORT_TICKS] * (n - len(mix))
    random.Random(seed).shuffle(mix)
    return mix
