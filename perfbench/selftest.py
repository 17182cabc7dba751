"""Self-test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:

    python3 perfbench/selftest.py

It fails (exit 1) unless, for every workload:

* the untraced run prints every end-to-end metric, with its unit, both as a
  text line and in the final JSON object, and the traced run every
  per-layer metric;
* ``fail_ratio`` is 0 and ``correct`` is true;
* every wrapped function listed for the workload in ``EXPECTED_CALLS`` was
  called at least once, so that a renamed or moved function fails here
  instead of reading as zero.

It also checks that ``BENCHMARK.json`` names the same workloads and metrics,
with the same units, as the benchmark's own tables, and that the benchmark
refuses to run (non-zero exit, no result) where the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent

_SCHED = {
    "scheduler.build_pipeline", "linegraph.conflict_graph", "linegraph.line_graph",
    "linegraph.graph_power", "linegraph.recognize_line_graph", "elehot.elehot",
    "elehot.contract_twins", "elehot.expand_root", "elehot.verify_root",
    "graphcore.true_twin_classes", "scheduler.simulate", "scheduler.schedule_slot",
    "matching.reduce_multigraph", "matching.max_weight_matching",
}
EXPECTED_CALLS = {
    "accept": {
        "graphcore.parse_graph", "graphcore.serialize_graph", "graphcore.true_twin_classes",
        "linegraph.line_graph", "linegraph.recognize_line_graph", "elehot.elehot",
        "elehot.contract_twins", "elehot.expand_root", "elehot.verify_root",
    },
    "reject": {
        "graphcore.parse_graph", "graphcore.true_twin_classes", "graphcore.find_induced",
        "linegraph.recognize_line_graph", "elehot.elehot", "elehot.contract_twins",
        "forbidden.load_catalog",
    },
    "sched-light": _SCHED,
    "sched-heavy": _SCHED,
    "hops2": {
        "scheduler.build_pipeline", "linegraph.conflict_graph", "linegraph.line_graph",
        "linegraph.graph_power", "elehot.elehot", "graphcore.find_induced",
        "forbidden.load_catalog", "scheduler.schedule_slot", "scheduler.greedy_mwis",
    },
}


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    seed = 1
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = run.END_TO_END if trace == 0 else tuple((n, u) for n, u, _, _ in spans.PER_LAYER)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != dict(expected):
        problems.append(f"{where}: metrics {sorted(got)} differ from {sorted(dict(expected))}")
    for name, unit in expected:
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: no '{name} <value> {unit}' line")
    if not any(line.startswith("fail_ratio 0 ") for line in lines):
        problems.append(f"{where}: fail_ratio is not 0")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if trace:
        path = run.OUT / f"spans-{workload}-{seed}.jsonl"
        called = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        missing = EXPECTED_CALLS[workload] - called
        if missing:
            problems.append(f"{where}: never called: {sorted(missing)}")


def check_manifest(problems: list[str]) -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in manifest["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    if [(m["name"], m["unit"]) for m in manifest["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    per_layer = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if per_layer != [p[:3] for p in spans.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    wrapped = {f"{module}.{fn}" for module, fns in spans.TARGETS.items() for fn in fns}
    expected = set().union(*EXPECTED_CALLS.values())
    if wrapped != expected:
        problems.append(f"spans.TARGETS and EXPECTED_CALLS differ: {sorted(wrapped ^ expected)}")


def check_refuses_without_package(problems: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "accept", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("ran without the package in the checkout")


def main() -> int:
    problems: list[str] = []
    run.OUT.mkdir(exist_ok=True)
    check_manifest(problems)
    for workload in workloads.NAMES:
        for trace in (0, 1):
            check_run(workload, trace, problems)
    check_refuses_without_package(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
