"""Benchmark for linemg: one workload per process, in-process library calls,
a closed loop with one caller in one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload accept --seed 1 --seconds 12 --trace 0

Workloads: accept, reject, sched-light, sched-heavy, hops2 (see
``workloads.py`` for what each exercises and why).  Inputs come from the
seed alone.  The run measures whole rounds of operations until ``--seconds``
seconds of operation time have passed (and at least ``MIN_OPS``
operations), checks every output with the
benchmark's own routines (``check.py``) and prints, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  Times are
at reference machine speed (``calibrate.py``): each round, and each set-up,
is bracketed by a fixed calibration kernel and scaled by its timing.  The
unscaled figures are printed too, as ``raw.<name>`` lines.

* ``ops_per_s``: operations per second, the median over rounds (every round
  holds the same mix of inputs).
* ``op_p50_ms``, ``op_p90_ms``: operation latency percentiles.
* ``setup_s``: the median over nine set-ups, each in a fresh process: the
  import of ``linemg`` plus everything before the first timed operation,
  including one warm-up operation, so lazy imports and cold caches
  (``load_catalog``) are paid there.  Generating inputs is not included.
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` instead alternates untraced rounds with rounds that record
spans around every call into a layer, reports the per-layer metrics
(``spans.PER_LAYER``, unscaled) and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linemg"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9
MIN_OPS = 100  # so that at least ten operations lie beyond the p90


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def use_checkout_package() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: {PACKAGE} not found; run from a checkout of the repository")
    sys.path.insert(0, str(PACKAGE.parent))


def set_up(wl, seed: int, tracer: spans.Tracer | None):
    """Import the package and run the workload's set-up.
    Returns (raw seconds, scale to reference speed, workload state)."""
    prepared = wl.prepare(seed)
    before = calibrate.kernel_seconds()
    t0 = perf_counter()
    importlib.import_module("linemg")
    if tracer is not None:
        tracer.install()
    state = wl.setup(prepared)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    after = calibrate.kernel_seconds()
    loaded = Path(sys.modules["linemg"].__file__).resolve().parent
    if loaded != PACKAGE.resolve():
        sys.exit(f"perfbench: imported linemg from {loaded}, not {PACKAGE}")
    return elapsed, calibrate.scale(before, after), state


def set_up_in_fresh_process(args) -> tuple[float, float]:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    raw, factor = done.stdout.split()[-2:]
    return float(raw), float(factor)


class Measurement:
    """Latencies and per-round throughputs, raw and at reference speed."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.raw_rates: list[float] = []
        self.rates: list[float] = []

    def add_round(self, latencies: list[float], factor: float) -> None:
        self.raw += latencies
        self.scaled += [x * factor for x in latencies]
        self.raw_rates.append(len(latencies) / sum(latencies))
        self.rates.append(self.raw_rates[-1] / factor)


def measure(wl, state, seed: int, seconds: float, tracer: spans.Tracer | None = None):
    """Run whole rounds until ``seconds`` of operation time have passed and
    at least ``MIN_OPS`` operations were timed, checking each round's
    outputs after it.  With a tracer, every second round is traced, so
    traced and untraced rounds see the same machine.  Returns (untraced,
    traced, failed checks)."""
    plain, traced = Measurement(), Measurement()
    failed = 0
    busy = 0.0
    k = 0
    while busy < seconds or len(plain.raw) + len(traced.raw) < MIN_OPS:
        items = wl.make_round(seed, k)
        traced_round = tracer is not None and k % 2 == 1
        before = calibrate.kernel_seconds()
        if traced_round:
            tracer.install()
        try:
            results = wl.run_round(state, items)
        finally:
            if traced_round:
                tracer.uninstall()
        after = calibrate.kernel_seconds()
        k += 1
        latencies = [latency for latency, _, _ in results]
        (traced if traced_round else plain).add_round(latencies, calibrate.scale(before, after))
        busy += sum(latencies)
        failed += sum(not wl.check(state, record, item) for _, record, item in results)
    return plain, traced, failed


def stamp() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = []
    for dist in ("networkx", "numpy"):
        try:
            versions.append(f"{dist}={metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist}=absent")
    return (
        f"python={sys.version.split()[0]} {' '.join(versions)} nproc={os.cpu_count()} "
        f"commit={commit} src_sha256={digest.hexdigest()[:16]}"
    )


def end_to_end(rates: list[float], latencies: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_package()
    wl = workloads.make(args.workload, args.tiny)
    if args.setup_only:
        raw, factor, _ = set_up(wl, args.seed, None)
        print(raw, factor)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    tracer = spans.Tracer() if args.trace else None
    setups = [] if args.trace else [set_up_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    raw_setup, factor, state = set_up(wl, args.seed, tracer)
    setups.append((raw_setup, factor))
    setup_end = len(tracer.names) if tracer else 0

    plain, traced, failed = measure(wl, state, args.seed, args.seconds, tracer)
    attempted = len(plain.raw) + len(traced.raw)
    if args.trace:
        overhead = statistics.median(traced.rates) / statistics.median(plain.rates)
        metrics = spans.layer_metrics(tracer, setup_end, len(traced.raw), overhead)
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans {len(tracer.names)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain.rates, plain.scaled, [raw * f for raw, f in setups])
        raw = end_to_end(plain.raw_rates, plain.raw, [raw for raw, _ in setups])
        units = dict(END_TO_END)

    print("stamp " + stamp())
    print(f"ops {attempted} rounds {len(plain.rates) + len(traced.rates)} "
          f"measured_s {sum(plain.raw) + sum(traced.raw):.3f}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s"):
            print(f"raw.{name} {raw[name]:.6g} {units[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    for name, (value, unit) in wl.summary(state).items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
