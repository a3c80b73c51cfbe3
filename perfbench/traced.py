"""Child-process entry for the benchmark's in-process runs.

    python3 perfbench/traced.py [--trace CHROME_JSON] MODE [ARGS...]

Modes:

* ``report ARGS`` — ``repro report ARGS`` through ``repro.cli.main``;
* ``warm DAYS SEED`` — seal the paper trace and the ext-fleet fleet in
  the artifact cache, and check the trace sits under the key
  ``repro report --days DAYS`` will look up;
* ``service SNAPSHOT MIX_JSON EXPECTED_JSON`` — restore a serving
  snapshot and answer every request of the mix with a single-process
  ``PredictionService``, one submit+drain per request (the reference the
  server's answers are checked against);
* ``serial PLAN_JSON OUT_DIR`` — ``run_serial``, the ingest reference;
* ``ingest PLAN_JSON OUT_DIR SERIAL_DIR`` — ``run_ingest`` over its shard
  processes, then ``verify_parity`` against the reference logs;
* ``shards PLAN_JSON OUT_DIR SERIAL_DIR`` — every shard of the plan in
  this process through ``shard_main``, one after another, then
  ``verify_parity``.

With ``--trace`` the layers' public entry points are wrapped in spans
(:mod:`instrument`) and the spans are written as Chrome trace events.
The last stdout line is a JSON summary: wall time of the traced body,
self time per bucket, counters and per-experiment inclusive times.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import queue  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from harness import Tracer, median, write_json  # noqa: E402


def _report(argv: List[str], summary: Dict[str, Any]) -> int:
    from repro.cli import main

    code = int(main(["report", *argv]))
    days = float(argv[argv.index("--days") + 1])
    seed = int(argv[argv.index("--seed") + 1])
    summary["trace_key"] = _trace_key(days, seed)
    return code


def _trace_key(days: float, seed: int) -> str:
    """Artifact key of the paper trace exactly as ``repro report`` looks it up."""
    from repro.data.synth import SynthConfig
    from repro.simulation.simulator import SimulationConfig

    return SynthConfig(simulation=SimulationConfig(days=days, seed=seed), seed=seed).artifact_key()


def _warm(argv: List[str], summary: Dict[str, Any]) -> int:
    """Seal the paper trace and the ext-fleet fleet for a later report."""
    from repro.core.artifacts import default_cache
    from repro.data.synth import default_output, generate_fleet
    from repro.experiments.ext_fleet import FLEET_BUILDINGS, FLEET_DAYS
    from repro.simulation.fleet import FleetConfig

    days, seed = float(argv[0]), int(argv[1])
    default_output(days=days, seed=seed)
    generate_fleet(FleetConfig(n_buildings=FLEET_BUILDINGS, days=FLEET_DAYS, seed=seed))
    key = _trace_key(days, seed)
    summary["trace_key"] = key
    # The report parses --days as a float; fingerprint() renders 98 and
    # 98.0 differently, so a set-up keyed any other way would leave the
    # report to regenerate the trace.
    summary["trace_cached"] = default_cache().contains(key)
    return 0 if summary["trace_cached"] else 1


def _service(argv: List[str], summary: Dict[str, Any]) -> int:
    from repro.streaming import PredictionService, ServiceConfig, build_request, load_snapshot

    snapshot, mix_path, expected_path = argv
    horizons = json.loads(Path(mix_path).read_text())
    pipeline = load_snapshot(snapshot, required=True)
    service = PredictionService(pipeline, ServiceConfig(max_queue=64, max_batch=8))
    held = pipeline.estimator.last_inputs()
    expected: Dict[str, Any] = {}
    per_request_s: List[float] = []
    for i, horizon in enumerate(horizons):
        request = build_request(
            {"id": f"q{i}", "horizon_ticks": horizon}, held, f"q{i}",
            service.config.max_horizon_ticks,
        )
        start = time.perf_counter()
        service.submit(request)
        (response,) = service.drain()
        per_request_s.append(time.perf_counter() - start)
        payload = response.to_payload()
        payload.pop("latency_s")
        payload.pop("id")
        expected.setdefault(str(horizon), payload)
    write_json(Path(expected_path), expected)
    summary["service_median_ms"] = median(per_request_s) * 1e3
    summary["service_requests"] = len(per_request_s)
    return 0


def _plan(path: str) -> Any:
    from repro.streaming import IngestPlan

    return IngestPlan(**json.loads(Path(path).read_text()))


def _serial(argv: List[str], summary: Dict[str, Any]) -> int:
    from repro.streaming import run_serial

    plan = _plan(argv[0])
    counts = run_serial(plan, argv[1])
    summary["ticks"] = sum(counts.values())
    summary["topics"] = [spec.topic for spec in plan.partitions()]
    summary["routing"] = {
        str(shard): [spec.topic for spec in specs]
        for shard, specs in plan.assignment().items()
    }
    return 0


def _ingest(argv: List[str], summary: Dict[str, Any]) -> int:
    from repro.streaming import run_ingest, verify_parity

    plan_path, out_dir, serial_dir = argv
    report = run_ingest(_plan(plan_path), out_dir)
    summary["report"] = report.as_dict()
    summary["mismatched"] = list(verify_parity(out_dir, serial_dir, report.topics))
    return 0 if report.completed else 1


def _shards(argv: List[str], summary: Dict[str, Any]) -> int:
    from repro.streaming import verify_parity
    from repro.streaming.shards import shard_main

    plan_path, out_dir, serial_dir = argv
    plan = _plan(plan_path)
    results: "queue.Queue[tuple]" = queue.Queue()
    stats: Dict[str, Any] = {}
    for shard_id in range(plan.n_shards):
        shard_main(
            shard_id, plan, out_dir, False, SimpleNamespace(value=0.0), results,
            threading.Event(),
        )
        while not results.empty():
            message = results.get()
            if message[0] == "fatal":
                print(f"shard {shard_id}: {message[2]}", file=sys.stderr)
                return 1
            if message[0] == "done":
                stats[str(shard_id)] = message[2]
    summary["shards"] = stats
    topics = tuple(spec.topic for spec in plan.partitions())
    summary["mismatched"] = list(verify_parity(out_dir, serial_dir, topics))
    return 0


MODES = {
    "report": _report,
    "warm": _warm,
    "service": _service,
    "serial": _serial,
    "ingest": _ingest,
    "shards": _shards,
}


def main(argv: List[str]) -> int:
    chrome_path = None
    if argv[:1] == ["--trace"]:
        chrome_path, argv = Path(argv[1]), argv[2:]
    mode, args = argv[0], argv[1:]
    summary: Dict[str, Any] = {"mode": mode}
    tracer = Tracer()
    root = tracer.open("traced." + mode, Tracer.ROOT)
    tracer.spans[root].start = _T0
    if chrome_path is not None:
        import instrument

        with tracer.span("import+install", "trace.setup"):
            summary["wrapped"] = instrument.install(tracer)
    code = MODES[mode](args, summary)
    tracer.close(root)
    wall_s = tracer.spans[root].duration_s
    summary.update(exit_code=code, wall_s=wall_s)
    if chrome_path is not None:
        summary.update(
            self_times=tracer.self_times(),
            counts=tracer.counts,
            experiments=tracer.inclusive_times("experiments.busy"),
            keys_loaded=tracer.keys_loaded,  # type: ignore[attr-defined]
            keys_stored=tracer.keys_stored,  # type: ignore[attr-defined]
        )
        chrome_path.parent.mkdir(parents=True, exist_ok=True)
        chrome_path.write_text(
            json.dumps(
                {
                    "traceEvents": tracer.chrome_events(pid=os.getpid()),
                    "displayTimeUnit": "ms",
                    "otherData": {"mode": mode, "nproc": os.cpu_count()},
                }
            )
        )
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
