"""Spans around the public entry points of each ``repro`` layer.

:func:`install` replaces each target function or method with a wrapper
that opens a :class:`harness.Tracer` span, in every loaded ``repro``
module that holds a reference to it, so callers that imported the name
directly are traced too.  Modules imported later bind the wrapped
object from its defining module.  Nothing in ``repro`` changes on disk;
the wrappers live only in the traced child process.

Each target names the bucket its self time is charged to; a bucket
``b`` is reported as the per-layer metric ``b_s``.  A wrapper around a
generator function opens one span per ``next()``, so a lazily consumed
simulator is charged for the time it actually runs.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Tracer

# Counters: called as hook(tracer, args, kwargs, result) after a call,
# or hook(tracer, item) for each item a generator yields.


def _solo_steps(tracer: Tracer, chunk: Any) -> None:
    tracer.count("simulation.steps", chunk.stop - chunk.start)


def _fleet_steps(tracer: Tracer, chunk: Any) -> None:
    tracer.count("simulation.steps", (chunk.stop - chunk.start) * chunk.co2.shape[0])


def _load(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("artifacts.loads")
    if result is not None:
        tracer.count("artifacts.hits")
    key = args[1] if len(args) > 1 else kwargs.get("key")
    tracer.keys_loaded.append((key, result is not None))


def _store(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("artifacts.stores")
    key = args[1] if len(args) > 1 else kwargs.get("key")
    tracer.keys_stored.append(key)
    if result is not None:
        try:
            tracer.count("artifacts.bytes_written", result.stat().st_size)
        except OSError:
            pass


def _calls(name: str) -> Callable[..., None]:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count(name)

    return hook


def _simulate_steps(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("sysid.simulate_steps", len(result))


def _record_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("partition.record_bytes", len(result))


def _experiment_name(args: tuple) -> str:
    return args[0].experiment_id


# (bucket or None for a counter-only wrapper, module, qualname,
#  per-call hook, per-item hook, span-name function)
Target = Tuple[Optional[str], str, str, Optional[Callable], Optional[Callable], Optional[Callable]]

TARGETS: List[Target] = [
    ("simulation.busy", "repro.simulation.simulator", "AuditoriumSimulator.run", None, None, None),
    ("simulation.busy", "repro.simulation.simulator", "AuditoriumSimulator.iter_chunks", None, _solo_steps, None),
    ("simulation.busy", "repro.simulation.fleet", "FleetSimulator.run", None, None, None),
    ("simulation.busy", "repro.simulation.fleet", "FleetSimulator.iter_building_chunks", None, None, None),
    # The shards' batched producers drive the fleet's cohorts directly.
    ("simulation.busy", "repro.simulation.fleet", "_Cohort.iter_chunks", None, _fleet_steps, None),
    ("sensing.busy", "repro.sensing.deployment", "Deployment.observe", None, None, None),
    ("data.busy", "repro.data.assemble", "assemble_dataset", None, None, None),
    ("data.busy", "repro.data.screening", "screen_sensors", None, None, None),
    ("data.busy", "repro.data.synth", "preprocess", None, None, None),
    ("artifacts.load", "repro.core.artifacts", "ArtifactCache.load", _load, None, None),
    ("artifacts.store", "repro.core.artifacts", "ArtifactCache.store", _store, None, None),
    ("cluster.busy", "repro.cluster.spectral", "cluster_sensors", None, None, None),
    ("cluster.busy", "repro.cluster.spectral", "cluster_sensors_cached", None, None, None),
    ("cluster.busy", "repro.cluster.spectral", "spectral_clustering", None, None, None),
    ("cluster.quality.busy", "repro.cluster.quality", "cluster_mean_trace", _calls("cluster.quality.mean_trace_calls"), None, None),
    ("cluster.quality.busy", "repro.cluster.quality", "cluster_quality", None, None, None),
    ("cluster.quality.busy", "repro.cluster.quality", "cluster_mean_temperatures", None, None, None),
    ("selection.busy", "repro.selection.stratified", "near_mean_selection", None, None, None),
    ("selection.busy", "repro.selection.stratified", "stratified_random_selection", None, None, None),
    ("selection.busy", "repro.selection.random_sel", "random_selection", None, None, None),
    ("selection.busy", "repro.selection.placement", "thermostat_selection", None, None, None),
    ("selection.busy", "repro.selection.placement", "gp_selection", None, None, None),
    ("selection.busy", "repro.selection.evaluate", "cluster_mean_errors", None, None, None),
    ("selection.busy", "repro.selection.evaluate", "reduced_model_errors", None, None, None),
    ("sysid.identify", "repro.sysid.identify", "identify", None, None, None),
    ("sysid.identify", "repro.sysid.identify", "identify_cached", None, None, None),
    ("sysid.simulate", "repro.sysid.models", "ThermalModel.simulate", _simulate_steps, None, None),
    ("control.busy", "repro.control.closed_loop", "run_closed_loop", None, None, None),
    ("experiments.busy", "repro.experiments.graph", "Task.execute", None, None, _experiment_name),
    ("experiments.runner_overhead", "repro.experiments.runner", "run_experiments_detailed", None, None, None),
    ("ingest.source", "repro.streaming.ingest", "LiveSensing.ticks", None, None, None),
    ("ingest.gate", "repro.streaming.ingest", "TickGate.check", None, None, None),
    ("rls.update", "repro.streaming.rls", "RecursiveLeastSquares.update", _calls("rls.updates"), None, None),
    ("drift.update", "repro.streaming.drift", "CusumDriftDetector.update", None, None, None),
    ("drift.update", "repro.streaming.drift", "ClusterConsistencyMonitor.update", None, None, None),
    ("state.reseal", "repro.streaming.state", "save_snapshot", _calls("state.reseals"), None, None),
    ("service.busy", "repro.streaming.service", "PredictionService.submit", None, None, None),
    ("service.busy", "repro.streaming.service", "PredictionService.drain", None, None, None),
    (None, "repro.streaming.partition", "record_line", _record_bytes, None, None),
]

#: Every bucket a trace can charge time to, the root remainder included.
BUCKETS = sorted({t[0] for t in TARGETS if t[0] is not None} | {"trace.setup", Tracer.ROOT})
#: Counters the hooks can raise.
COUNTERS = (
    "simulation.steps",
    "artifacts.loads",
    "artifacts.hits",
    "artifacts.stores",
    "artifacts.bytes_written",
    "cluster.calls",
    "cluster.quality.mean_trace_calls",
    "sysid.identify_calls",
    "sysid.simulate_steps",
    "rls.updates",
    "state.reseals",
    "partition.record_bytes",
)
#: Buckets whose outermost calls are counted as ``<layer>.calls``.
CALL_COUNTED = {"cluster.busy": "cluster.calls", "sysid.identify": "sysid.identify_calls"}


def _wrap(
    tracer: Tracer,
    fn: Callable,
    bucket: Optional[str],
    label: str,
    on_call: Optional[Callable],
    on_item: Optional[Callable],
    name_of: Optional[Callable],
) -> Callable:
    calls_counter = CALL_COUNTED.get(bucket or "")

    def traced_generator(gen: Any, name: str):
        while True:
            index = tracer.open(name, bucket)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            if on_item is not None:
                on_item(tracer, item)
            yield item

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if bucket is None:
            result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result
        name = name_of(args) if name_of is not None else label
        if calls_counter is not None and not tracer.inside(bucket):
            tracer.count(calls_counter)
        with tracer.span(name, bucket):
            result = fn(*args, **kwargs)
        if on_call is not None:
            on_call(tracer, args, kwargs, result)
        if isinstance(result, types.GeneratorType):
            return traced_generator(result, name)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", label)
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every target; returns how many references were replaced."""
    tracer.keys_loaded = []  # type: ignore[attr-defined]
    tracer.keys_stored = []  # type: ignore[attr-defined]
    replaced = 0
    for bucket, module_name, qualname, on_call, on_item, name_of in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        label = f"{module_name.split('.', 1)[1]}.{qualname}"
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, bucket, label, on_call, on_item, name_of))
            replaced += 1
            continue
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, bucket, label, on_call, on_item, name_of)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            namespace: Dict[str, Any] = vars(loaded)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    replaced += 1
    return replaced
