"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Runs one workload (see
``workloads.py`` and ``BENCHMARK.json``), gates it on the program's
outputs being correct, and prints as its last stdout line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
read from a separate traced run, and the spans are written as Chrome
trace events under ``.bench_build/perfbench/traces/``.

Every name printed must be declared in ``BENCHMARK.json``; a layer the
workload does not exercise reads 0.  Exits non-zero without a result
when the program is missing or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path
from typing import Dict, List

from harness import NAME_RE

ROOT = Path(__file__).resolve().parent.parent


def declared(spec: Dict, section: str) -> Dict[str, str]:
    """name -> unit of one metric section of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in spec[section]}


def result_line(outcome, spec: Dict, trace: bool) -> Dict:
    units = declared(spec, "per_layer" if trace else "end_to_end")
    produced = outcome.per_layer if trace else outcome.end_to_end
    # An experiment registered after BENCHMARK.json was written has no
    # declared metric; it is left out rather than failing the run.
    undeclared = sorted(n for n in set(produced) - set(units) if not n.startswith("experiments."))
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    missing = sorted(set(units) - set(produced))
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": float(produced.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    bad = [m["name"] for s in ("end_to_end", "per_layer") for m in spec[s] if not NAME_RE.match(m["name"])]
    if bad:
        print(f"perfbench: malformed metric names {bad}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Bench

    bench = Bench(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = WORKLOADS[args.workload](bench)
        line = result_line(outcome, spec, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported, and no result is printed
        traceback.print_exc()
        print("\n".join(bench.lines), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for text in bench.lines:
        print(text)
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    print(f"ops: attempted {outcome.attempted}, failed {outcome.failed}")
    for name, metric in line["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
