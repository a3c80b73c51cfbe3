"""Multi-worker serving benchmark → ``serving`` section of
``BENCH_report.json``.

Boots the supervised prediction server (``repro serve --workers N``)
on an ephemeral port over a sealed snapshot of the analysis trace, then
load-tests it twice with :func:`repro.streaming.loadtest.run_loadtest`:

* ``steady``          — fixed request count across concurrent
  connections, no faults,
* ``fault_injection`` — same load with one worker SIGKILLed mid-run.

Both runs are *gated* before any number is reported, exactly like the
simulator benchmark gates on trace bit-identity:

* every served response must be byte-identical (modulo the wall-clock
  ``latency_s`` field) to the single-process ``PredictionService``
  answering the same requests, and
* zero accepted requests may be lost — including across the mid-run
  worker kill.

Environment knobs:

* ``REPRO_BENCH_SERVE_DAYS``     — trace days behind the snapshot (default 7),
* ``REPRO_BENCH_SERVE_REQUESTS`` — requests per run (default 200),
* ``REPRO_BENCH_SERVE_WORKERS``  — worker processes (default 2),
* ``REPRO_BENCH_SERVE_RATE``     — offered rate in req/s, 0 = max (default 0).

Run via ``make bench-json`` (or directly:
``PYTHONPATH=src python benchmarks/bench_serve.py``).  The section is
merged into an existing ``BENCH_report.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.artifacts import default_cache  # noqa: E402
from repro.data.synth import default_output  # noqa: E402
from repro.streaming import (  # noqa: E402
    OnlinePipeline,
    PredictionServer,
    PredictionService,
    ReplaySource,
    ServerConfig,
    ServiceConfig,
    WorkerPoolConfig,
    build_request,
    load_snapshot,
    save_snapshot,
)
from repro.streaming.loadtest import LoadTestConfig, run_loadtest  # noqa: E402

SERVE_DAYS = float(os.environ.get("REPRO_BENCH_SERVE_DAYS", "7"))
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "200"))
N_WORKERS = int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", "2"))
RATE_RPS = float(os.environ.get("REPRO_BENCH_SERVE_RATE", "0"))

SNAPSHOT = "bench-serve"
HORIZON_TICKS = 8
MAX_HORIZON = 64


def _seal_snapshot() -> None:
    """Stream the analysis trace into the shared serving snapshot."""
    if load_snapshot(SNAPSHOT) is not None:
        print(f"snapshot {SNAPSHOT!r} already sealed; reusing it")
        return
    print(f"sealing snapshot {SNAPSHOT!r} from a {SERVE_DAYS:g}-day trace ...")
    dataset = default_output(days=SERVE_DAYS).analysis_dataset
    pipeline = OnlinePipeline(
        dataset.sensor_ids, dataset.channels.n_channels, order=2
    )
    pipeline.run(ReplaySource(dataset))
    if save_snapshot(SNAPSHOT, pipeline) is None:
        raise SystemExit(
            "ERROR: the artifact cache is disabled (REPRO_CACHE=off); "
            "multi-worker serving needs it for the shared snapshot"
        )


def _expected_payloads(n_requests: int):
    """What the single-process service answers for the load-test ids."""
    pipeline = load_snapshot(SNAPSHOT, required=True)
    service = PredictionService(
        pipeline, ServiceConfig(max_queue=64, max_horizon_ticks=MAX_HORIZON)
    )
    held = pipeline.estimator.last_inputs()
    expected = {}
    for i in range(n_requests):
        rid = f"lt-{i}"
        service.submit(
            build_request(
                {"id": rid, "horizon_ticks": HORIZON_TICKS}, held, rid, MAX_HORIZON
            )
        )
        for response in service.drain():
            payload = response.to_payload()
            payload.pop("latency_s")
            expected[payload["id"]] = payload
    return expected


def _byte_identical(result, expected) -> bool:
    """Whether every served response matches the single-process answer."""
    for rid, payload in result.responses.items():
        if "predictions" not in payload:
            continue
        stripped = {k: v for k, v in payload.items() if k != "latency_s"}
        if expected.get(rid) != stripped:
            return False
    return True


def _start_server():
    """Boot the server in a thread; returns (thread, holder with port)."""
    config = ServerConfig(
        port=0,
        pool=WorkerPoolConfig(n_workers=N_WORKERS, snapshot_name=SNAPSHOT),
        allow_chaos=True,
    )
    started = threading.Event()
    holder = {}

    def _serve():
        async def _main():
            server = PredictionServer(config)
            holder["port"] = await server.start()
            started.set()
            holder["summary"] = await server.serve_until_shutdown()

        try:
            asyncio.run(_main())
        except Exception as exc:  # surfaced to the caller after the wait
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    started.wait(timeout=180.0)
    if "error" in holder:
        raise holder["error"]
    return thread, holder


def main() -> int:
    if not default_cache().enabled:
        print(
            "ERROR: REPRO_CACHE=off; the serving benchmark needs the artifact cache",
            file=sys.stderr,
        )
        return 1
    _seal_snapshot()
    expected = _expected_payloads(N_REQUESTS)

    print(f"booting {N_WORKERS} workers ...")
    thread, holder = _start_server()
    port = holder["port"]

    print(f"steady run: {N_REQUESTS} requests ...")
    steady = run_loadtest(
        LoadTestConfig(
            port=port,
            n_requests=N_REQUESTS,
            rate_rps=RATE_RPS,
            n_connections=4,
            horizon_ticks=HORIZON_TICKS,
        )
    )
    print(
        f"  served {steady.served}/{steady.sent} at {steady.req_per_s():.0f} req/s "
        f"(p50 {steady.latency_percentile_s(50) * 1000:.1f} ms, "
        f"p99 {steady.latency_percentile_s(99) * 1000:.1f} ms)"
    )

    print(f"fault-injection run: {N_REQUESTS} requests, one worker killed mid-run ...")
    # The kill goes out just before a quarter of the requests have been
    # sent, so it lands mid-run on any host.  The run is paced so that
    # the lone survivor absorbs the load while its peer respawns: it
    # measures recovery, not shedding.
    fault_rate = RATE_RPS if RATE_RPS > 0 else N_REQUESTS / 2.0
    fault = run_loadtest(
        LoadTestConfig(
            port=port,
            n_requests=N_REQUESTS,
            rate_rps=fault_rate,
            n_connections=4,
            horizon_ticks=HORIZON_TICKS,
            kill_worker_after_requests=N_REQUESTS // 4,
            shutdown_after=True,
        )
    )
    thread.join(timeout=120.0)
    summary = holder.get("summary", {})
    print(
        f"  served {fault.served}/{fault.sent}, lost {fault.lost}, "
        f"killed worker {fault.killed_worker}, pool restarts {summary.get('restarts')}"
    )

    byte_identical = _byte_identical(steady, expected) and _byte_identical(
        fault, expected
    )
    zero_lost = steady.lost == 0 and fault.lost == 0
    if not byte_identical:
        print(
            "ERROR: multi-worker responses disagree with the single-process "
            "service; refusing to report timings",
            file=sys.stderr,
        )
        return 1
    if not zero_lost:
        print(
            "ERROR: accepted requests were lost; refusing to report timings",
            file=sys.stderr,
        )
        return 1

    section = {
        "workers": N_WORKERS,
        "days": SERVE_DAYS,
        "requests_per_run": N_REQUESTS,
        "offered_rate_rps": RATE_RPS,
        "steady": steady.as_dict(),
        "fault_injection": fault.as_dict(),
        "byte_identical": True,
        "zero_lost": True,
        "drain_clean": bool(summary.get("drain_clean")),
        "pool": {
            key: summary.get(key)
            for key in ("served", "shed", "retried", "restarts", "deadline_misses")
        },
    }

    target = ROOT / "BENCH_report.json"
    try:
        payload = json.loads(target.read_text())
        if not isinstance(payload, dict):
            payload = {}
    except (OSError, ValueError):
        payload = {}
    payload["serving"] = section
    target.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote the serving section of {target}")
    print(
        json.dumps(
            {
                "steady_req_per_s": section["steady"]["req_per_s"],
                "fault_req_per_s": section["fault_injection"]["req_per_s"],
                "p99_latency_s": section["steady"]["p99_latency_s"],
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
