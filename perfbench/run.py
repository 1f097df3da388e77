#!/usr/bin/env python3
"""Benchmark of the hyperchrome package, run from outside it.

    python3 perfbench/run.py --workload tight-joins --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Loads the package from ``src/`` of the checkout this file sits in, sets
the chosen workload up from its seed, then runs whole passes over the
workload's items until ``--seconds`` have gone by (a closed loop, one
caller).  Every output is checked outside the timed region.  Times are
wall times scaled to a reference machine speed (see speed.py); each
item's time is the median over the passes.  Progress, unscaled figures
and a digest of the first pass's canonical outputs go to standard
output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the run spends half its time untraced and half with a
span recorder set on the package's modules, and reports per-layer
counts and self times per pass, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = (
    "hypercore", "connectivity", "coloring", "shapes", "constructions",
    "classifier", "corpus", "cli",
)
SETUP_REPS = 7

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FAILURE_KINDS = ("RecursionError", "GuardExceeded", "other_exception", "check")
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in tracer.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "coloring.find_k_coloring.found_ratio": "ratio",
    "hypercore.values_built": "count",
    "classifier.certificate_nodes": "count",
    **{f"ops.failed.{kind}": "count" for kind in FAILURE_KINDS},
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.slowdown": "ratio",
}


def load_program() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "hyperchrome" or m.startswith("hyperchrome.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hyperchrome")
    if Path(pkg.__file__).resolve().parent != SRC / "hyperchrome":
        raise ImportError(f"hyperchrome was imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"hyperchrome.{name}") for name in MODULES}
    return SimpleNamespace(modules=[pkg, *mods.values()], **mods)


class Tally:
    """Op timings and outcomes of one phase of a run."""

    def __init__(self, item_count: int, threads: int = 1) -> None:
        self.item_count = item_count
        self.ops: list[tuple[int, float, float]] = []  # (item, start, end)
        self.failed: Counter[str] = Counter()
        self.passes = 0
        self.elapsed = 0.0  # wall seconds of the phase, checks included
        self.clock = speed.SpeedClock(threads)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def ok(self) -> int:
        return self.attempted - sum(self.failed.values())

    def item_times(self, scaled: bool = True) -> list[float]:
        """Each item's median op time over the passes, in seconds."""
        per_item: list[list[float]] = [[] for _ in range(self.item_count)]
        for index, start, end in self.ops:
            per_item[index].append(self.clock.scaled(start, end) if scaled else end - start)
        return [statistics.median(times) for times in per_item]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ops with a correct output per second spent in ops."""
        return self.ok / self.passes / sum(self.item_times(scaled))

    def scale(self) -> float:
        """The phase's median factor from wall to reference speed."""
        return speed.REFERENCE_S / statistics.median(self.clock.loop_s)


def _failure_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    return name if name in FAILURE_KINDS else "other_exception"


def _checked(wl, index: int, item, out, trace) -> str | None:
    """The output's canonical JSON, or None (reported) if it is wrong."""
    try:
        if trace is None:
            return json.dumps(wl.check(item, out), sort_keys=True)
        with trace.paused():
            return json.dumps(wl.check(item, out), sort_keys=True)
    except Exception as exc:  # a wrong output, or one too malformed to check
        print(f"check failed: {wl.name} item {index}: {type(exc).__name__}: {exc}")
        return None


def run_pass(wl, tally: Tally, canon: list[str], trace=None) -> None:
    """One op per item.  Each output is checked after the op's timer
    stops, and must equal the first pass's output for the same item."""
    first = not canon
    for index, item in enumerate(wl.items):
        tally.clock.tick()
        start = time.perf_counter()
        try:
            out = wl.op(item)
        except Exception as exc:  # every failed op is counted, by type
            tally.ops.append((index, start, time.perf_counter()))
            tally.failed[_failure_kind(exc)] += 1
            form = f"error {type(exc).__name__}"
        else:
            tally.ops.append((index, start, time.perf_counter()))
            form = _checked(wl, index, item, out, trace)
            if form is None:
                tally.failed["check"] += 1
                form = "check failed"
            elif not first and form != canon[index]:
                tally.failed["check"] += 1
                print(f"check failed: {wl.name} item {index}: differs from the first pass")
        if first:
            canon.append(form)
    tally.passes += 1


def run_for(wl, seconds: float, canon: list[str], trace=None) -> Tally:
    """Whole passes, at least one, until `seconds` have gone by."""
    tally = Tally(len(wl.items), wl.threads)
    start = time.perf_counter()
    tally.clock.tick(force=True)
    while not tally.passes or tally.elapsed < seconds:
        run_pass(wl, tally, canon, trace)
        tally.elapsed = time.perf_counter() - start
    tally.clock.tick(force=True)
    return tally


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(samples: int) -> int:
    """The highest of a few round percentiles with at least ten samples
    beyond it.  It depends only on the number of items in a pass, so a
    faster program does not move the metric to another percentile."""
    return next((p for p in (99, 95, 90, 80, 75) if samples - math.ceil(p / 100 * samples) >= 10), 50)


def setup(name: str, seed: int, run_dir: Path):
    """Set the workload up SETUP_REPS times; keep the last.  Returns
    each repetition's time, scaled and unscaled."""
    clock = speed.SpeedClock()
    spans = []
    for rep in range(SETUP_REPS):
        clock.tick(force=True)
        t0 = time.perf_counter()
        prog = load_program()
        tmp = Path(tempfile.mkdtemp(prefix=f"setup{rep}-", dir=run_dir))
        wl = workloads.WORKLOADS[name](prog, seed, tmp)
        spans.append((t0, time.perf_counter()))
    clock.tick(force=True)
    return prog, wl, [clock.scaled(*s) for s in spans], [e - s for s, e in spans]


def _failures(tally: Tally) -> str:
    return json.dumps(dict(sorted(tally.failed.items())))


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat = sorted(t * 1e3 for t in tally.item_times())
    pct = tail_percentile(len(lat))
    raw = sorted(t * 1e3 for t in tally.item_times(scaled=False))
    print(f"latency_tail_ms is p{pct} of {len(lat)} items "
          f"({len(lat) - math.ceil(pct / 100 * len(lat))} beyond it); "
          f"each item's time is its median over {tally.passes} passes")
    print(f"unscaled: ops_per_s {tally.ops_per_s(scaled=False):.4f} "
          f"latency_p50_ms {statistics.median(raw):.4f} latency_tail_ms {nearest_rank(raw, pct):.4f}; "
          f"calibration loop median {statistics.median(tally.clock.loop_s) * 1e3:.4f} ms, "
          f"min {min(tally.clock.loop_s) * 1e3:.4f} ms, reference {speed.REFERENCE_S * 1e3} ms")
    return {
        "ops_per_s": tally.ops_per_s(),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": nearest_rank(lat, pct),
        "ops_ok_frac": tally.ok / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(trace: tracer.Tracer, untraced: Tally, traced: Tally) -> dict:
    """Per pass of the traced phase; self times at reference speed."""
    passes, scale = traced.passes, traced.scale()
    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.calls"] = trace.calls[layer] / passes
        out[f"{layer}.self_s"] = trace.self_s[layer] * scale / passes
    calls = trace.calls["coloring.find_k_coloring"]
    found = trace.counts["coloring.find_k_coloring.found"]
    out["coloring.find_k_coloring.found_ratio"] = found / calls if calls else 0.0
    out["hypercore.values_built"] = trace.counts["hypercore.values_built"] / passes
    out["classifier.certificate_nodes"] = trace.counts["classifier.certificate_nodes"] / passes
    for kind in FAILURE_KINDS:
        out[f"ops.failed.{kind}"] = traced.failed[kind] / passes
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    out["trace.traced_ops_per_s"] = traced.ops_per_s()
    out["trace.slowdown"] = untraced.ops_per_s() / traced.ops_per_s()
    return out


def measure(args, run_dir: Path) -> dict:
    prog, wl, setup_times, setup_raw = setup(args.workload, args.seed, run_dir)
    print(f"workload {wl.name} seed {args.seed}: {len(wl.items)} ops per pass; setup "
          f"{statistics.median(setup_times):.4f} s scaled, {statistics.median(setup_raw):.4f} s "
          f"unscaled (medians of {SETUP_REPS})")
    canon: list[str] = []
    if not args.trace:
        tally = run_for(wl, args.seconds, canon)
        metrics = end_to_end(tally, statistics.median(setup_times))
        units = END_TO_END
    else:
        untraced = run_for(wl, args.seconds / 2, canon)
        trace = tracer.Tracer()
        with trace.installed(prog):
            traced = run_for(wl, args.seconds / 2, canon, trace)
        metrics = layer_metrics(trace, untraced, traced)
        units = PER_LAYER
        print(f"traced {traced.passes} passes after {untraced.passes} untraced; "
              f"layer figures are per traced pass")
        tally = Tally(len(wl.items))
        for phase in (untraced, traced):
            tally.ops += phase.ops
            tally.failed += phase.failed
            tally.passes += phase.passes
            tally.elapsed += phase.elapsed
    failed = sum(tally.failed.values())
    print(f"{tally.passes} passes in {tally.elapsed:.1f} s, {tally.attempted} ops attempted, "
          f"{failed} failed (ops_failed_frac {failed / tally.attempted:.4f}), "
          f"failures by type {_failures(tally)}")
    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    print(f"digest {wl.name} seed {args.seed} sha256:{digest}")
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    return {
        "correct": tally.failed["check"] == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperchrome" / "__init__.py").is_file():
        print(f"error: no hyperchrome package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
