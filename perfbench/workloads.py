"""The benchmark's four workloads.

Each workload function takes a :class:`Bench` (paths, seed, run length,
trace flag) and returns a :class:`Outcome`: operations attempted and
failed, whether every correctness gate held, and its metrics.  Every
program run happens in a child process started here, so the program is
measured from outside and its peak memory is read from ``wait4``.
"""

from __future__ import annotations

import asyncio
import fcntl
import hashlib
import json
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import (
    INVALID,
    ChildResult,
    Rung,
    check_coverage,
    derive_seed,
    judge_rung,
    busy_client_problem,
    ladder_search,
    kill_group,
    link_copy,
    late_problem,
    median,
    run_child,
    tail_percentile,
    tree_listing,
    valid_window,
    wait_rusage,
    write_json,
)

HERE = Path(__file__).resolve().parent
TRACED = str(HERE / "traced.py")
CLI = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = (
    "import json, time; t = time.perf_counter(); import repro.cli, repro.experiments as e; "
    "print(json.dumps({'import_s': time.perf_counter() - t, 'ids': list(e.EXPERIMENTS)}))"
)
#: Every child must end this long after the benchmark started, so a run
#: (clean-up included) stays under three minutes.
RUN_BUDGET_S = 170.0

REPORT_COLD_DAYS = 28
REPORT_RERUN_DAYS = 28
#: Fresh-interpreter import probes per set-up measurement.
PROBES = 2
#: How much longer than its root span a traced child may live: interpreter
#: start-up before the root opens, and the trace write and interpreter
#: teardown after it closes (0.1-0.5 s on a 2-CPU host).
COVERAGE_SLACK_S = 2.0

SERVE_DAYS = 7
SERVE_WORKERS = 2
#: Server launches per run, each on an empty cache; set-up is their median.
SERVE_LAUNCHES = 2
REFERENCE_RPS = 200.0
REFERENCE_S = 1.0
#: Requests outstanding in the closed-loop saturation windows: enough to
#: keep both workers' micro-batches (8) full, and no more than one
#: worker's queue (64), so the server is never asked to shed.
SATURATE_IN_FLIGHT = 64
#: Requests per saturation window: about 2 s at the 1.5-2.5k req/s a
#: 2-CPU host answers.
SATURATE_REQUESTS = 4000
#: A saturation window counts only if the client spent at most this share
#: of it on the CPU, and so the rest waiting on the server (about a
#: quarter is typical on a 2-CPU host).
CLIENT_MAX_BUSY = 0.5
#: Fixed coarse ladder (traced runs): geometric from 300 req/s in steps of
#: 25 %, then three fine rungs between the best pass and the next rate.
LADDER_RPS = tuple(300.0 * 1.25 ** k for k in range(14))
FINE_RUNGS = 3
RUNG_S = 1.0
#: Pause between windows, so one window's backlog never spills into the next.
RUNG_GAP_S = 0.2
P99_LIMIT_S = 0.050
#: A window whose client ran later than this behind schedule is invalid:
#: it did not offer the rate it names.
MAX_LATE_S = 0.020
#: Invalid timed windows of one kind (late or busy-client) a run may set
#: aside before it gives up.
MAX_INVALID_WINDOWS = 8

INGEST_BUILDINGS = 8
INGEST_SHARDS = 2
INGEST_DAYS = 2
#: Serial-reference builds per run, each on an empty cache.
SERIAL_REFERENCES = 2


@dataclass
class Bench:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path = field(init=False)
    out: Path = field(init=False)

    def __post_init__(self) -> None:
        self.out = self.root / ".bench_build" / "perfbench"
        self.work = self.out / f"run-{self.workload}-{self.seed}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.lines: List[str] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def another(self, start: float, done: int) -> bool:
        """Whether to measure once more: always a first time, then while
        one more repetition of the mean length fits in ``--seconds``."""
        if done == 0:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / done <= self.seconds

    def remaining_s(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run exceeded its time budget")
        return left

    def env(self, cache: Path) -> Dict[str, str]:
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k != "PYTHONPATH"
        }
        env.update(
            PYTHONPATH=str(self.root / "src"),
            REPRO_CACHE_DIR=str(cache),
            # One BLAS thread: the report runs at --jobs 1, and a shared
            # two-CPU host gives steadier numbers without thread fan-out.
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def child(self, name: str, argv: List[str], cache: Path) -> ChildResult:
        result = run_child(
            [sys.executable, *argv], self.env(cache), self.root, self.work / "logs" / name,
            self.remaining_s(),
        )
        self.rss_mb = max(self.rss_mb, result.peak_rss_mb)
        return result

    def say(self, line: str) -> None:
        self.lines.append(line)

    def trace_path(self, label: str) -> Path:
        return self.out / "traces" / f"{self.workload}-seed{self.seed}-{label}.json"

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return max(self.rss_mb, own)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(problem)


def _last_json(text: str) -> Dict[str, Any]:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("child printed no JSON summary")


# ---------------------------------------------------------------------------
# Tracing output shared by every workload
# ---------------------------------------------------------------------------


def _layer_metrics(bench: Bench, out: Outcome, summary: Dict[str, Any], traced: ChildResult,
                   untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced child's summary, after checking
    that its root span covers the child's externally timed life."""
    import instrument

    bench.say(f"traced {summary['mode']}: root span {summary['wall_s']:.3f} s of the child's "
              f"{traced.wall_s:.3f} s, overhead {traced.wall_s - untraced_wall_s:+.3f} s")
    out.require(
        check_coverage(summary["wall_s"], traced.wall_s, COVERAGE_SLACK_S),
        f"the traced root span does not cover the child's wall time within {COVERAGE_SLACK_S:g} s",
    )
    self_times = summary["self_times"]
    metrics: Dict[str, float] = {f"{b}_s": float(self_times.get(b, 0.0)) for b in instrument.BUCKETS}
    metrics["trace.wall_s"] = float(summary["wall_s"])
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall_s
    counts = summary["counts"]
    for name in instrument.COUNTERS:
        metrics[name] = float(counts.get(name, 0))
    busy = metrics["simulation.busy_s"]
    metrics["simulation.steps_per_s"] = metrics["simulation.steps"] / busy if busy > 0 else 0.0
    return metrics


def _experiment_metrics(summary: Optional[Dict[str, Any]], ids: List[str]) -> Dict[str, float]:
    times = summary["experiments"] if summary else {}
    return {f"experiments.{i}_s": float(times.get(i, 0.0)) for i in ids}


def _import_probes(bench: Bench, n: int) -> Tuple[List[float], List[float], List[str]]:
    """(set-up walls, import times, registry ids) of ``n`` fresh probes."""
    walls, imports, ids = [], [], []
    for i in range(n):
        start = time.perf_counter()
        pristine = bench.work / f"pristine-{i}"
        pristine.mkdir()
        probe = bench.child(f"probe-{i}", ["-c", PROBE], pristine)
        walls.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError(f"repro does not import: {probe.stderr[-2000:]}")
        summary = _last_json(probe.stdout)
        imports.append(summary["import_s"])
        ids = summary["ids"]
    return walls, imports, ids


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _report_sections(text: str) -> List[str]:
    return [line[3:].split(":", 1)[0] for line in text.splitlines() if line.startswith("== ")]


def _check_report(out: Outcome, result: ChildResult, text: str, ids: List[str]) -> None:
    """Exit code 0, every registered experiment rendered, none listed as failed."""
    rendered = set(_report_sections(text))
    failed = {i for i in ids if i not in rendered}
    in_failures = False
    for line in text.splitlines():
        if line.startswith("== FAILED experiments"):
            in_failures = True
        elif in_failures and line.startswith("  "):
            failed.add(line.strip().split(":", 1)[0].split("/", 1)[0])
    out.attempted += len(ids)
    out.failed += len(failed)
    out.require(result.returncode == 0, f"report exited {result.returncode}: {result.stderr[-500:]}")
    out.require(not failed, f"experiments failed: {sorted(failed)}")


def _source_digest(root: Path) -> str:
    """Digest of every file under ``src/``: the program's identity."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _digest_guard(bench: Bench, out: Outcome, inputs: str, digests: List[str]) -> None:
    """Report bytes must agree across every run of the same program on the
    same inputs: within this run, and with earlier runs in this checkout.

    Earlier digests are keyed by the source digest, so a changed program
    never meets the bytes of another; the store is updated under a lock.
    """
    out.require(len(set(digests)) == 1, "report bytes differ between runs")
    key = f"{_source_digest(bench.root)}:{inputs}"
    store = bench.out / "report-digests.json"
    with open(bench.out / "report-digests.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        known = json.loads(store.read_text()) if store.exists() else {}
        if key in known:
            out.require(known[key] == digests[0], "report bytes differ from an earlier run of this program")
        else:
            known[key] = digests[0]
            partial = store.with_suffix(f".{os.getpid()}.tmp")
            write_json(partial, known)
            os.replace(partial, store)


def _report_workload(bench: Bench, days: int, pristine: Path, setup_s: float, ids: List[str],
                     import_s: float, warm: bool) -> Outcome:
    out = Outcome()
    trace_seed = derive_seed(bench.seed, "report-trace")
    args = ["--days", str(days), "--seed", str(trace_seed), "--jobs", "1"]
    before = tree_listing(pristine)

    def one_run(label: str, traced: bool) -> Tuple[ChildResult, str]:
        cache = bench.work / f"cache-{label}"
        link_copy(pristine, cache)
        report = bench.work / f"report-{label}.txt"
        if traced:
            argv = [TRACED, "--trace", str(bench.trace_path(label)), "report", *args]
        else:
            argv = ["-c", CLI, "report", *args]
        result = bench.child(label, [*argv, "--output", str(report)], cache)
        text = report.read_text() if report.exists() else ""
        out.require(tree_listing(pristine) == before, "the pristine cache changed during a run")
        shutil.rmtree(cache)
        return result, text

    walls: List[float] = []
    digests: List[str] = []
    start = time.perf_counter()
    while bench.another(start, len(walls)):
        result, text = one_run(f"run{len(walls)}", traced=False)
        _check_report(out, result, text, ids)
        walls.append(result.wall_s)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    wall = median(walls)
    summary = None
    if bench.trace:
        result, text = one_run("traced", traced=True)
        _check_report(out, result, text, ids)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        summary = _last_json(result.stdout)
        loaded = {key for key, hit in summary["keys_loaded"] if hit}
        if warm:
            # The rerun must read the paper trace, never regenerate it.
            out.require(summary["trace_key"] in loaded, "the rerun did not load the trace from cache")
            out.require(summary["trace_key"] not in summary["keys_stored"],
                        "the rerun regenerated the paper trace")
        out.per_layer = _layer_metrics(bench, out, summary, result, wall)
        share = out.per_layer["simulation.busy_s"] / summary["wall_s"]
        bench.say(f"traced report: simulation share {share:.1%}")
    _digest_guard(bench, out, f"{bench.workload}:{days}:{trace_seed}", digests)
    if bench.trace:
        out.per_layer.update(_experiment_metrics(summary, ids))
        out.per_layer["startup.import_s"] = import_s
    name = "report_cold_s" if not warm else "report_rerun_s"
    bench.say(f"{name} = {wall:.3f} s (median of {len(walls)}: "
              f"{', '.join(f'{w:.3f}' for w in walls)})")
    out.end_to_end = {
        "latency_ms": wall * 1e3,
        "ops_per_s": len(ids) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": bench.peak_rss_mb(),
    }
    return out


def report_cold(bench: Bench) -> Outcome:
    """``repro report --days 28 --jobs 1`` on an empty artifact cache."""
    walls, imports, ids = _import_probes(bench, PROBES)
    setup_s = median(walls)
    bench.say(f"setup_s = {setup_s:.3f} s (empty cache + import probe, median of {len(walls)})")
    pristine = bench.work / "pristine-0"
    return _report_workload(bench, REPORT_COLD_DAYS, pristine, setup_s, ids, median(imports), warm=False)


def report_rerun(bench: Bench) -> Outcome:
    """``repro report --days 28 --jobs 1`` over a cache holding the trace and fleet."""
    _, imports, ids = _import_probes(bench, 1)
    pristine = bench.work / "pristine-0"
    trace_seed = derive_seed(bench.seed, "report-trace")
    warm = bench.child("warm", [TRACED, "warm", str(REPORT_RERUN_DAYS), str(trace_seed)], pristine)
    if warm.returncode != 0:
        raise RuntimeError(f"warming the cache failed: {warm.stderr[-2000:]}")
    bench.say(f"setup_s = {warm.wall_s:.3f} s ({REPORT_RERUN_DAYS}-day trace + ext-fleet fleet into an empty cache)")
    return _report_workload(bench, REPORT_RERUN_DAYS, pristine, warm.wall_s, ids, imports[0], warm=True)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


class _Server:
    """``repro serve --workers N`` in its own process group."""

    def __init__(self, bench: Bench, cache: Path, label: str) -> None:
        log = bench.work / "logs" / label
        log.mkdir(parents=True, exist_ok=True)
        self.bench = bench
        self.cache = cache
        self._err = open(log / "stderr.txt", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CLI, "serve", "--workers", str(SERVE_WORKERS),
             "--days", str(SERVE_DAYS), "--port", "0"],
            env=bench.env(cache), cwd=str(bench.root), stdout=subprocess.PIPE,
            stderr=self._err, text=True, start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], bench.remaining_s())
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - start
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def stop(self, graceful: Optional[Callable[[], None]] = None) -> int:
        """Exit code after ``graceful`` (or a kill), reaping the whole group."""
        try:
            if graceful is None:
                kill_group(self.proc)
                return self.proc.returncode
            graceful()
            code, rss = wait_rusage(self.proc, min(60.0, self.bench.remaining_s()))
            self.bench.rss_mb = max(self.bench.rss_mb, rss)
            return code
        finally:
            kill_group(self.proc)
            self.proc.stdout.close()
            self._err.close()

    def shutdown(self) -> int:
        async def _shutdown() -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            writer.write(b'{"control": "shutdown"}\n')
            await writer.drain()
            await reader.readline()
            writer.close()

        return self.stop(lambda: asyncio.run(_shutdown()))


def serve_ladder(bench: Bench) -> Outcome:
    """Request mix against a 2-worker server: open-loop reference windows
    alternate with closed-loop saturation windows; traced runs also climb
    the open-loop p99 ladder."""
    from serve_client import SHORT_TICKS, WEEK_TICKS, ServeClient, request_mix

    out = Outcome()
    setups: List[float] = []
    server = None
    try:
        for i in range(SERVE_LAUNCHES):
            cache = bench.work / f"serve-cache-{i}"
            cache.mkdir()
            if server is not None:
                out.require(server.shutdown() == 0, "a set-up server did not drain cleanly")
            server = _Server(bench, cache, f"serve-{i}")
            setups.append(server.setup_s)
        setup_s = median(setups)
        bench.say(f"setup_s = {setup_s:.3f} s (launch to 'serving on', median of {len(setups)})")

        mix_seed = derive_seed(bench.seed, "serve-mix")
        probe_mix = [SHORT_TICKS, WEEK_TICKS] + request_mix(mix_seed, 254)
        mix_path = bench.work / "service-mix.json"
        write_json(mix_path, probe_mix)
        expected_path = bench.work / "expected.json"
        service = bench.child("service", [TRACED, "service", "serve", str(mix_path), str(expected_path)], server.cache)
        if service.returncode != 0:
            raise RuntimeError(f"single-process service failed: {service.stderr[-2000:]}")
        expected = {int(k): v for k, v in json.loads(expected_path.read_text()).items()}

        stats: List[Dict[str, Any]] = []
        poll = stats if bench.trace else None
        refs: List[Rung] = []
        saturated: List[Rung] = []
        late: List[Rung] = []
        busy: List[Rung] = []
        rungs: List[Tuple[Rung, str]] = []
        knee = None
        loop = asyncio.new_event_loop()
        try:
            client = ServeClient("127.0.0.1", server.port, n_connections=2)
            loop.run_until_complete(client.connect())

            def run_at(rate: float, seconds: float, label: str) -> Rung:
                time.sleep(RUNG_GAP_S)
                horizons = request_mix(derive_seed(mix_seed, label), round(rate * seconds))
                return loop.run_until_complete(client.run_rate(rate, horizons, expected, poll))

            def on_time(rate: float, seconds: float, label: str) -> Rung:
                return valid_window(lambda: run_at(rate, seconds, label),
                                    lambda r: late_problem(r, MAX_LATE_S), late, MAX_INVALID_WINDOWS)

            def closed_window(label: str) -> Rung:
                time.sleep(RUNG_GAP_S)
                horizons = request_mix(derive_seed(mix_seed, label), SATURATE_REQUESTS)
                return loop.run_until_complete(client.run_closed(SATURATE_IN_FLIGHT, horizons, expected))

            def saturate(label: str) -> Rung:
                return valid_window(lambda: closed_window(label),
                                    lambda r: busy_client_problem(r, CLIENT_MAX_BUSY), busy, MAX_INVALID_WINDOWS)

            # Reference and saturation windows alternate for --seconds; the
            # p50 pools the reference windows and the capacity is the
            # median throughput of the saturation windows.
            start = time.perf_counter()
            while len(refs) < 2 or bench.another(start, len(refs)):
                refs.append(on_time(REFERENCE_RPS, REFERENCE_S, f"reference-{len(refs)}"))
                saturated.append(saturate(f"saturate-{len(saturated)}"))
            if bench.trace:
                knee, rungs = ladder_search(
                    LADDER_RPS, FINE_RUNGS,
                    lambda rate: run_at(rate, RUNG_S, f"rung-{rate:.0f}"),
                    lambda r: judge_rung(r, P99_LIMIT_S, MAX_LATE_S),
                )
            final = loop.run_until_complete(client.control("stats"))
            loop.run_until_complete(client.close())
        finally:
            loop.close()
        code = server.shutdown()
        server = None
        out.require(code == 0, f"server exited {code}")
    finally:
        if server is not None:
            server.stop()

    all_rungs = refs + saturated + late + busy + [r for r, _ in rungs]
    for rung in all_rungs:
        out.attempted += rung.sent
        out.failed += rung.lost + rung.mismatched + rung.errored
    out.require(all(r.lost == 0 for r in all_rungs), "accepted requests were lost")
    out.require(all(r.mismatched == 0 for r in all_rungs), "served answers differ from the single-process service")
    out.require(all(r.errored == 0 for r in all_rungs), "requests were answered with errors")
    out.require(all(r.served == r.sent for r in refs), "a reference window did not serve every request")
    for label, rung in [("late", r) for r in late] + [("busy", r) for r in busy] + [(v, r) for r, v in rungs]:
        tail = rung.tail()
        bench.say(
            f"{label:8s} {rung.rate_rps:6.0f} req/s: served {rung.served}/{rung.sent} "
            f"({rung.throughput():.0f}/s) shed {rung.shed} "
            f"p50 {median(rung.latencies_s) * 1e3 if rung.latencies_s else float('nan'):.2f} ms "
            f"{'p%g %.1f ms (n=%d)' % (tail[0], tail[1] * 1e3, tail[2]) if tail else 'no tail'} "
            f"late {rung.max_late_s * 1e3:.1f} ms"
        )
    ref_latencies = [x for r in refs for x in r.latencies_s]
    p50_ms = median(ref_latencies) * 1e3
    ref_tail = tail_percentile(ref_latencies)
    capacity = median([r.throughput() for r in saturated])
    bench.say(f"serve_p50_ms = {p50_ms:.3f} ms at {REFERENCE_RPS:g} req/s "
              f"({'p%g %.2f ms' % (ref_tail[0], ref_tail[1] * 1e3) if ref_tail else 'no tail'}, n={len(ref_latencies)}; "
              f"client at most {max(r.max_late_s for r in refs) * 1e3:.1f} ms late, limit {MAX_LATE_S * 1e3:g} ms, "
              f"{len(late)} late window(s) set aside and re-run)")
    bench.say(f"serve_capacity_rps = {capacity:.1f} req/s (median of "
              f"{', '.join(f'{r.throughput():.0f}' for r in saturated)}: closed loop, "
              f"{SATURATE_IN_FLIGHT} in flight, {sum(r.shed for r in saturated)} shed; client on the CPU for "
              f"{', '.join(f'{r.client_busy:.0%}' for r in saturated)} of each window, limit {CLIENT_MAX_BUSY:.0%}, "
              f"{len(busy)} busy-client window(s) set aside and re-run)")
    if bench.trace:
        bench.say(f"serve_max_rps = {knee.rate_rps if knee else 0.0:.1f} req/s (p99 <= {P99_LIMIT_S * 1e3:g} ms ladder)")
    out.end_to_end = {
        "latency_ms": p50_ms,
        "ops_per_s": capacity,
        "setup_s": setup_s,
        "peak_rss_mb": bench.peak_rss_mb(),
    }
    if bench.trace:
        # Both service runs go after the server is down, on a quiet host.
        service = bench.child("service-untraced", [TRACED, "service", "serve", str(mix_path), str(expected_path)], bench.work / "serve-cache-0")
        untraced = _last_json(service.stdout)
        traced = bench.child(
            "service-traced",
            [TRACED, "--trace", str(bench.trace_path("service")), "service", "serve",
             str(mix_path), str(bench.work / "expected-traced.json")],
            bench.work / "serve-cache-0",
        )
        summary = _last_json(traced.stdout)
        out.require(traced.returncode == 0, "traced service run failed")
        out.per_layer = _layer_metrics(bench, out, summary, traced, service.wall_s)
        pool = final["stats"]
        depths = [
            max((w["queue_depth"] for w in s["stats"]["per_worker"].values()), default=0)
            for s in stats
        ]
        out.per_layer.update({
            "service.busy_ms_per_req": untraced["service_median_ms"],
            "server.front_ms": p50_ms - untraced["service_median_ms"],
            "pool.shed": float(pool["shed"]),
            "pool.retried": float(pool["retried"]),
            "pool.restarts": float(pool["restarts"]),
            "pool.deadline_misses": float(pool["deadline_misses"]),
            "pool.queue_depth_max": float(max(depths, default=0)),
            "loadgen.max_late_ms": max(r.max_late_s for r in all_rungs) * 1e3,
            "loadgen.invalid_rungs": float(len(late) + len(busy) + sum(v == INVALID for _, v in rungs)),
            "serve.max_rps": knee.rate_rps if knee else 0.0,
            "serve.ref_tail_pct": ref_tail[0] if ref_tail else 0.0,
            "serve.ref_tail_ms": ref_tail[1] * 1e3 if ref_tail else 0.0,
            "serve.ref_samples": float(len(ref_latencies)),
            "startup.import_s": median(_import_probes(bench, 1)[1]),
        })
    return out


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def ingest_fleet(bench: Bench) -> Outcome:
    """``run_ingest`` of an 8-building fleet on 2 shards, parity-checked."""
    out = Outcome()
    # The fleet is the plan's default-seed fleet (routed 2:6 over the two
    # shards).  Fleets drawn per workload seed differ in size and routing
    # enough to move throughput by a fifth between seeds, which would
    # bury any change under the bound.
    plan = {"n_buildings": INGEST_BUILDINGS, "days": float(INGEST_DAYS), "n_shards": INGEST_SHARDS}
    plan_path = bench.work / "plan.json"
    write_json(plan_path, plan)
    # The serial reference is built SERIAL_REFERENCES times, each into an
    # empty cache: set-up is their median, and their logs must agree.
    serial_walls: List[float] = []
    logs: List[Dict[str, bytes]] = []
    for i in range(SERIAL_REFERENCES):
        cache = bench.work / f"ingest-cache-serial{i}"
        cache.mkdir()
        serial_dir = bench.work / f"serial{i}"
        serial = bench.child(f"serial{i}", [TRACED, "serial", str(plan_path), str(serial_dir)], cache)
        if serial.returncode != 0:
            raise RuntimeError(f"serial reference failed: {serial.stderr[-2000:]}")
        serial_walls.append(serial.wall_s)
        logs.append({p.name: p.read_bytes() for p in sorted(serial_dir.glob("*.records.jsonl"))})
    # The first reference and its cache are the ones every run starts from.
    cache, serial_dir = bench.work / "ingest-cache-serial0", bench.work / "serial0"
    out.require(bool(logs[0]) and all(log == logs[0] for log in logs), "serial reference logs differ between builds")
    setup_s = median(serial_walls)
    reference = _last_json(serial.stdout)
    ticks = reference["ticks"]
    routing = {k: len(v) for k, v in reference["routing"].items()}
    bench.say(f"setup_s = {setup_s:.3f} s (serial reference, median of {len(serial_walls)}; "
              f"{ticks} building-ticks, routing {routing})")

    walls: List[float] = []
    reports: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while bench.another(start, len(walls)):
        run_cache = bench.work / f"ingest-cache-{len(walls)}"
        before = tree_listing(cache)
        link_copy(cache, run_cache)
        sharded = bench.work / f"sharded-{len(walls)}"
        result = bench.child(f"ingest-{len(walls)}", [TRACED, "ingest", str(plan_path), str(sharded), str(serial_dir)], run_cache)
        summary = _last_json(result.stdout) if result.returncode == 0 else None
        out.attempted += ticks
        if summary is None:
            out.failed += ticks
            out.require(False, f"run_ingest failed: {result.stderr[-500:]}")
            break
        report = summary["report"]
        bad = set(summary["mismatched"])
        out.failed += sum(
            p["n_ticks"] for s in report["shards"].values()
            for topic, p in s["partitions"].items() if topic in bad
        )
        out.require(not bad, f"record logs differ from the serial reference: {sorted(bad)}")
        out.require(report["completed"], "ingest did not complete")
        out.require(report["restarts"] == 0, f"{report['restarts']} shard restarts")
        out.require(report["ticks"] == ticks, "sharded tick count differs from the serial reference")
        out.require(tree_listing(cache) == before, "the pristine cache changed during a run")
        walls.append(result.wall_s)
        reports.append(report)
        shutil.rmtree(run_cache)
        shutil.rmtree(sharded)
    wall = median(walls)
    rate = ticks / wall
    bench.say(f"ingest_ticks_per_s = {rate:.1f} building-ticks/s (median wall {wall:.3f} s of {len(walls)})")
    out.end_to_end = {
        "latency_ms": wall * 1e3,
        "ops_per_s": rate,
        "setup_s": setup_s,
        "peak_rss_mb": bench.peak_rss_mb(),
    }
    if bench.trace:
        runs = {}
        for label, extra in (("untraced", []), ("traced", ["--trace", str(bench.trace_path("shards"))])):
            run_cache = bench.work / f"shards-cache-{label}"
            link_copy(cache, run_cache)
            runs[label] = bench.child(
                f"shards-{label}",
                [TRACED, *extra, "shards", str(plan_path), str(bench.work / f"shards-{label}"), str(serial_dir)],
                run_cache,
            )
            ok = runs[label].returncode == 0 and not _last_json(runs[label].stdout)["mismatched"]
            out.require(ok, f"in-process shards ({label}) broke parity or failed")
        summary = _last_json(runs["traced"].stdout)
        out.per_layer = _layer_metrics(bench, out, summary, runs["traced"], runs["untraced"].wall_s)
        last = reports[-1]
        partitions = [p for s in last["shards"].values() for p in s["partitions"].values()]
        shard_ticks = [sum(p["n_ticks"] for p in s["partitions"].values()) for s in last["shards"].values()]
        serial_rate = ticks / setup_s
        out.per_layer.update({
            "bus.blocked": float(sum(p["blocked"] for p in partitions)),
            "bus.dropped": float(sum(p["dropped"] for p in partitions)),
            "bus.high_water": float(max(p["high_water"] for p in partitions)),
            "shards.skew": max(shard_ticks) / (sum(shard_ticks) / len(shard_ticks)),
            "shards.restarts": float(last["restarts"]),
            "ingest.serial_ticks_per_s": serial_rate,
            "shards.speedup_vs_serial": rate / serial_rate,
            "startup.import_s": median(_import_probes(bench, 1)[1]),
        })
    return out


WORKLOADS: Dict[str, Callable[[Bench], Outcome]] = {
    "report-cold": report_cold,
    "report-rerun": report_rerun,
    "serve-ladder": serve_ladder,
    "ingest-fleet": ingest_fleet,
}
