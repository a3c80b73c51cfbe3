"""Self-tests of the benchmark harness (no ``repro`` import needed).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import instrument  # noqa: E402
import serve_client  # noqa: E402
import workloads  # noqa: E402
from harness import FAIL, INVALID, PASS, Rung, Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (20, 50.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    got_pct, value, count = harness.tail_percentile(values)
    assert (got_pct, count) == (pct, n)
    rank = -(-int(pct * n) // 100)  # ceil(pct / 100 * n) for these exact cases
    assert value == values[rank - 1]
    assert n - rank >= 10


def test_tail_percentile_needs_ten_beyond_the_median():
    assert harness.tail_percentile([1.0] * 19) is None
    assert harness.tail_percentile([]) is None


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 200
    assert harness.tail_percentile(values) == (99.0, 5.0, 1000)


# -- spans -------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_self_times_and_unattributed_remainder():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.open("run", Tracer.ROOT)
    clock.now = 1.0
    with tracer.span("outer", "a"):
        clock.now = 2.0
        with tracer.span("inner", "b"):
            clock.now = 5.0
        with tracer.span("inner-again", "a"):
            clock.now = 6.0
        clock.now = 7.0
    clock.now = 10.0
    tracer.close(root)
    self_times = tracer.self_times()
    assert self_times == {Tracer.ROOT: 4.0, "a": 3.0, "b": 3.0}
    assert sum(self_times.values()) == tracer.spans[root].duration_s
    # Inclusive time counts only the outermost span of a bucket.
    assert tracer.inclusive_times("a") == {"outer": 6.0}


def test_coverage_allows_only_start_up_slack_outside_the_root_span():
    assert harness.check_coverage(10.0, 10.4, 0.5)
    # Work after the root closed (exit hooks, joined threads) shows as a gap.
    assert not harness.check_coverage(10.0, 12.0, 0.5)
    # A root span longer than the child's life is a clock or bookkeeping fault.
    assert not harness.check_coverage(10.0, 9.0, 0.5)


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    outer = tracer.open("outer", "a")
    tracer.open("inner", "b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_chrome_events_are_complete_events_relative_to_the_first_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    clock.now = 3.0
    root = tracer.open("run", Tracer.ROOT)
    with tracer.span("work", "a"):
        clock.now = 3.5
    tracer.close(root)
    events = tracer.chrome_events(pid=7)
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0.0 and events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["cat"] == "a" and events[1]["pid"] == 7
    json.dumps({"traceEvents": events})


def test_instrumented_generator_is_charged_per_item():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for i in range(3):
            clock.now += 1.0
            yield i

    wrapped = instrument._wrap(tracer, produce, "gen", "produce", None, None, None)
    root = tracer.open("run", Tracer.ROOT)
    items = []
    for item in wrapped():
        clock.now += 10.0  # consumer time stays outside the producer's spans
        items.append(item)
    tracer.close(root)
    assert items == [0, 1, 2]
    assert tracer.self_times()["gen"] == pytest.approx(3.0)


# -- serving ladder ------------------------------------------------------------


def _rung(rate, latency_s=0.001, late_s=0.0, shed=0, n=1000):
    rung = Rung(rate_rps=rate, sent=n, served=n - shed, shed=shed, max_late_s=late_s)
    rung.latencies_s = [latency_s] * (n - shed)
    return rung


def test_judge_rung_rules():
    limit, late = 0.05, 0.02
    assert harness.judge_rung(_rung(100), limit, late) == PASS
    assert harness.judge_rung(_rung(100, latency_s=0.06), limit, late) == FAIL
    assert harness.judge_rung(_rung(100, shed=1), limit, late) == FAIL
    # A client that fell behind makes the rung invalid, not a server failure.
    assert harness.judge_rung(_rung(100, latency_s=0.06, late_s=0.03), limit, late) == INVALID
    # Too few samples to resolve any tail percentile cannot pass.
    assert harness.judge_rung(_rung(100, n=5), limit, late) == FAIL


def test_p99_decides_when_resolvable():
    rung = _rung(1000)
    rung.latencies_s[-10:] = [0.5] * 10  # beyond p99: does not move it
    assert harness.judge_rung(rung, 0.05, 0.02) == PASS
    rung.latencies_s[-11:] = [0.5] * 11
    assert harness.judge_rung(rung, 0.05, 0.02) == FAIL


def test_late_windows_are_set_aside_and_run_again():
    script = iter([0.05, 0.001, 0.03, 0.002])
    late = []

    def run():
        return _rung(4000, late_s=next(script))

    problem = lambda r: harness.late_problem(r, 0.02)  # noqa: E731
    assert harness.valid_window(run, problem, late, 4).max_late_s == 0.001
    assert harness.valid_window(run, problem, late, 4).max_late_s == 0.002
    assert [r.max_late_s for r in late] == [0.05, 0.03]


def test_too_many_invalid_windows_give_up():
    late = []
    with pytest.raises(RuntimeError):
        harness.valid_window(lambda: _rung(4000, late_s=0.5), lambda r: harness.late_problem(r, 0.02), late, 2)
    assert len(late) == 3


def test_a_closed_loop_window_with_a_busy_client_is_invalid():
    rung = Rung(rate_rps=0.0, client_busy=0.25)
    assert harness.busy_client_problem(rung, 0.5) is None
    rung.client_busy = 0.8
    assert harness.busy_client_problem(rung, 0.5) is not None


def _scripted(verdicts):
    """run/judge pair replaying ``verdicts`` in order; records rates run."""
    script = iter(verdicts)
    ran = []

    def run(rate):
        ran.append(round(rate))
        return Rung(rate_rps=rate)

    return ran, run, lambda rung: next(script)


def test_climb_stops_at_the_first_rate_that_does_not_pass():
    ran, run, judge = _scripted([PASS, PASS, INVALID, PASS])
    best, history = harness.climb([100, 200, 300, 400], run, judge)
    assert ran == [100, 200, 300]
    assert best.rate_rps == 200
    assert [v for _, v in history] == [PASS, PASS, INVALID]


def test_climb_without_any_pass():
    best, history = harness.climb([1, 2, 3], lambda r: Rung(rate_rps=r), lambda r: FAIL)
    assert best is None and len(history) == 1


# -- cache isolation -------------------------------------------------------------


def test_link_copy_keeps_the_pristine_cache_unchanged(tmp_path):
    pristine = tmp_path / "pristine"
    (pristine / "ab").mkdir(parents=True)
    (pristine / "ab" / "one.pkl").write_bytes(b"one")
    (pristine / "cd").mkdir()
    (pristine / "cd" / "two.pkl").write_bytes(b"two!")
    before = harness.tree_listing(pristine)
    copy = tmp_path / "copy"
    harness.link_copy(pristine, copy)
    assert harness.tree_listing(copy) == before
    # What the artifact cache does: replace atomically, unlink.
    tmp = copy / "ab" / "tmp"
    tmp.write_bytes(b"rewritten")
    os.replace(tmp, copy / "ab" / "one.pkl")
    os.unlink(copy / "cd" / "two.pkl")
    assert harness.tree_listing(pristine) == before
    assert (pristine / "ab" / "one.pkl").read_bytes() == b"one"


def test_derive_seed_is_stable_and_label_specific():
    assert harness.derive_seed(3, "a") == harness.derive_seed(3, "a")
    assert harness.derive_seed(3, "a") != harness.derive_seed(3, "b")
    assert 0 <= harness.derive_seed(3, "a") < 2**31


# -- names -----------------------------------------------------------------------


def test_every_declared_name_is_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(harness.NAME_RE.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_traced_metric_names_are_declared():
    summary = {"mode": "report", "self_times": {}, "counts": {}, "wall_s": 1.0, "experiments": {}}
    out = workloads.Outcome()
    traced = harness.ChildResult(0, 1.1, 50.0, "", "")
    bench = workloads.Bench.__new__(workloads.Bench)
    bench.lines = []
    names = set(workloads._layer_metrics(bench, out, summary, traced, 1.0))
    assert out.correct
    assert names <= PER_LAYER
    ids = [n[len("experiments."):-2] for n in PER_LAYER if n.startswith("experiments.") and n.endswith("_s")]
    assert set(workloads._experiment_metrics(None, ids)) <= PER_LAYER


def _literal_keys(attribute):
    """Constant keys of dict literals assigned to / merged into ``out.<attribute>``."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    keys = []
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            target, value = node.targets[0], node.value
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update" and node.args and isinstance(node.args[0], ast.Dict)
        ):
            target, value = node.func.value, node.args[0]
        if isinstance(target, ast.Attribute) and target.attr == attribute:
            keys.append({k.value for k in value.keys})
    return keys


def test_workload_literal_names_are_declared():
    for keys in _literal_keys("end_to_end"):
        assert keys == END_TO_END
    per_layer = _literal_keys("per_layer")
    assert per_layer and all(keys <= PER_LAYER for keys in per_layer)


def test_ladder_search_refines_between_best_pass_and_next_rung():
    limit = 700.0
    ran = []

    def run(rate):
        ran.append(round(rate))
        return Rung(rate_rps=rate)

    best, history = harness.ladder_search(
        [100.0, 200.0, 400.0, 800.0, 1600.0], 3, run,
        lambda r: PASS if r.rate_rps <= limit else FAIL,
    )
    # Coarse: 100..400 pass, 800 fails; fine: 476, 566, 673 pass.
    assert ran == [100, 200, 400, 800, 476, 566, 673]
    assert round(best.rate_rps) == 673
    assert len(history) == len(ran)


def test_ladder_search_fine_climb_stops_at_the_first_rate_that_misses():
    ran, run, judge = _scripted([PASS, FAIL, FAIL, PASS])
    best, history = harness.ladder_search([100.0, 200.0, 400.0], 3, run, judge)
    assert best.rate_rps == 100.0
    assert ran == [100, 200, 119]  # 100 pass, 200 fails, first fine rung fails


def test_layers_json_describes_every_metric_and_workload():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers["per_layer"]) == PER_LAYER
    assert set(layers["end_to_end"]) == END_TO_END
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert set(layers["workloads"]) == workload_names
    for entry in layers["per_layer"].values():
        assert set(entry["workloads"]) <= workload_names and entry["should_move"]


def test_throughput_runs_from_the_first_send_to_the_last_answer():
    rung = Rung(rate_rps=0.0, first_due=100.0)
    assert rung.throughput() == 0.0
    rung.answered_at = [100.5, 101.0, 101.5, 102.0]
    assert rung.throughput() == pytest.approx(4 / 2.0)


def test_request_mix_holds_exactly_its_share_at_seeded_positions():
    mix = serve_client.request_mix(5, 4000)
    assert mix.count(serve_client.WEEK_TICKS) == round(4000 * serve_client.WEEK_SHARE) == 47
    assert set(mix) == {serve_client.SHORT_TICKS, serve_client.WEEK_TICKS}
    assert mix == serve_client.request_mix(5, 4000)
    assert mix != serve_client.request_mix(6, 4000)
