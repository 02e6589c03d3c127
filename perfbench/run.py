"""Benchmark of the multiobserver package; see perfbench/README.md.

    python3 perfbench/run.py --workload bundled-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # the four workloads in one process
    python3 perfbench/run.py --smoke             # tiny sizes; checks metric names

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is ``{"report": ...}``: the environment, sample counts and the
workload's own figures.  Exit code 0 means every output matched its
pinned or brute-force value; 1 means a mismatch; 2 means the package
could not be found next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pass_s_p50": "s", "peak_rss_mb": "MB"}

# per-layer time metric -> the spans whose self time it sums
_TIMES = {
    "config.load_s": ("config.load",),
    "config.build_bank_s": ("config.build_bank",),
    "combinatorics.bank_index_s": ("combinatorics.bank_index",),
    "model.simulate_s": ("model.simulate",),
    "observers.bank_run_s": ("observers.bank_run",),
    "observers.bank_run_s.example1": ("observers.bank_run.example1",),
    "observers.bank_run_s.example2": ("observers.bank_run.example2",),
    "observers.bank_run_s.example3": ("observers.bank_run.example3",),
    "observers.bank_run_s.example4": ("observers.bank_run.example4",),
    "estimator.run_estimator_s": ("estimator.run_estimator",),
    "isolation.compute_thresholds_s": ("isolation.compute_thresholds",),
    "isolation.windowed_isolation_s": ("isolation.windowed_isolation",),
    "calibration.estimate_iss_gains_s": ("calibration.estimate_iss_gains",),
    "calibration.calibrate_estimator_s": ("calibration.calibrate_estimator",),
    "harness.write_s": ("harness.write",),
    "harness.self_s": ("harness.run_scenario", "harness.calibrate"),
}
# per-layer count metric -> unit
_COUNTS = {
    "config.observers_built": "count",
    "combinatorics.subsets": "count",
    "combinatorics.containment_pairs": "count",
    "model.plant_steps": "count",
    "model.diverged_runs": "count",
    "observers.observer_steps": "count",
    "observers.diverged_tracks": "count",
    "estimator.deviation_pairs": "count",
    "estimator.selection_switches": "count",
    "isolation.windows": "count",
    "isolation.no_quorum_windows": "count",
    "calibration.plant_sims": "count",
    "calibration.observer_steps": "count",
    "calibration.failures": "count",
    "harness.artifact_bytes": "B",
}
PER_LAYER = {**{k: "s" for k in _TIMES}, **_COUNTS, "trace.overhead_s": "s"}


def _import_workloads():
    """Import the benchmark against the package in ``src/`` beside it."""
    if not (SRC / "multiobserver" / "__init__.py").is_file():
        print(f"perfbench: no multiobserver package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]
    import multiobserver
    import workloads

    if Path(multiobserver.__file__).resolve().parent != SRC / "multiobserver":
        print(f"perfbench: imported multiobserver from {multiobserver.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return workloads


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(fn, seconds: float, min_runs: int, clock) -> list[tuple[float, float, float]]:
    """Calls ``fn`` for ``seconds``; one (seconds it counts, start, end) per call."""
    runs = []
    clock.tick(force=True)
    t0 = perf_counter()
    while len(runs) < min_runs or perf_counter() - t0 < seconds:
        start = perf_counter()
        dt = fn()
        runs.append((dt, start, perf_counter()))
        clock.tick()
    clock.tick(force=True)
    return runs


def _layer_metrics(tracer, setup_times, setup_counts, units: int) -> dict:
    """One set-up plus the per-unit mean of everything traced after it."""
    times, counts = tracer.self_times(), tracer.counts

    def per_unit(total, setup_part):
        return setup_part + (total - setup_part) / units

    out = {}
    for metric, spans in _TIMES.items():
        out[metric] = sum(per_unit(times.get(n, 0.0), setup_times.get(n, 0.0)) for n in spans)
    for metric in _COUNTS:
        out[metric] = per_unit(counts.get(metric, 0.0), setup_counts.get(metric, 0.0))
    return out


def run_workload(wl_mod, name: str, seed: int, seconds: float, trace: bool, size) -> dict:
    from multiobserver import MultiObserverError
    from refclock import NullClock, RefClock
    from tracing import Tracer

    work_dir = OUT / f"work-{os.getpid()}" / name
    wl = wl_mod.WORKLOADS[name](seed, size, work_dir)
    report = {"workload": name, "seconds": seconds, "trace": int(trace),
              "env": environment(seed)}
    try:
        if not trace:
            wl.clock = setup_clock = RefClock(every_s=0.1)
            setup_clock.tick(force=True)
            setups = wl.timed_setups()
            setup_clock.tick(force=True)
            wl.clock = pass_clock = RefClock(every_s=0.25)
            passes = _measure(wl.run_pass, seconds, wl.min_passes(), pass_clock)
            report.update(wl.finish())
            report["raw_setup_s"] = wl_mod.percentile_report([dt for dt, _, _ in setups])
            report[wl.pass_label] = wl_mod.percentile_report([dt for dt, _, _ in passes])
            report["host_speed"] = {
                phase: {"ref_samples": len(c.samples), "ref_s_p50": statistics.median(c.samples)}
                for phase, c in (("setup", setup_clock), ("passes", pass_clock))
            }
            metrics = {"setup_s": statistics.median(setup_clock.scaled(setups)),
                       "pass_s_p50": statistics.median(pass_clock.scaled(passes)),
                       "peak_rss_mb": _peak_rss_mb()}
        else:
            wl.timed_setups()
            untraced = [dt for dt, _, _ in _measure(wl.untraced_unit, seconds / 2, 1, NullClock())]
            tracer = Tracer()
            wl.state = wl.setup(tracer)
            setup_times, setup_counts = tracer.self_times(), dict(tracer.counts)
            traced = [dt for dt, _, _ in
                      _measure(lambda: wl.trace_unit(tracer), seconds / 2, 1, NullClock())]
            report.update(wl.finish())
            metrics = _layer_metrics(tracer, setup_times, setup_counts, len(traced))
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics["trace.overhead_s"] = overhead
            report["trace_units"] = {"untraced": len(untraced), "traced": len(traced),
                                     "untraced_s_p50": statistics.median(untraced),
                                     "traced_s_p50": statistics.median(traced)}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.dump(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            report["spans"] = len(tracer.spans)
    except MultiObserverError as exc:
        wl.failed += 1
        wl.mismatch(f"unexpected {type(exc).__name__}: {exc}")
        traceback.print_exc()
        metrics = {}
    finally:
        shutil.rmtree(work_dir.parent, ignore_errors=True)
    report.setdefault("failed_frac", wl.raised / wl.attempted if wl.attempted else None)
    report["mismatches"] = wl.mismatches
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not wl.mismatches and set(metrics) == set(units),
        "attempted": max(wl.attempted, 1),
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "report": report,
    }


def _emit(result: dict, prefix: str = "") -> None:
    for k, m in result["metrics"].items():
        print(f"{prefix}{k} = {m['value']!r} {m['unit']}", file=sys.stderr)
    for msg in result["report"].get("mismatches", []):
        print(f"MISMATCH {msg}", file=sys.stderr)


def smoke(wl_mod) -> int:
    """Every workload at a tiny size, untraced and traced; names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_workloads = [w["name"] for w in spec["workloads"]]
    if want_workloads != list(wl_mod.WORKLOADS):
        problems.append(f"workloads {list(wl_mod.WORKLOADS)} != BENCHMARK.json {want_workloads}")
    for key, trace, names in (("end_to_end", False, END_TO_END), ("per_layer", True, PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != names:
            problems.append(f"{key} in BENCHMARK.json differs from the metrics produced: "
                            f"{sorted(set(listed) ^ set(names))}")
        for name in wl_mod.WORKLOADS:
            res = run_workload(wl_mod, name, 0, 0.0, trace, wl_mod.SMOKE)
            _emit(res, f"[smoke {name} trace={int(trace)}] ")
            if not res["correct"] or set(res["metrics"]) != set(listed):
                problems.append(f"{name} trace={int(trace)}: correct={res['correct']}, "
                                f"metrics {sorted(res['metrics'])}")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    wl_mod = _import_workloads()
    if args.smoke:
        return smoke(wl_mod)
    names = list(wl_mod.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl_mod.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {list(wl_mod.WORKLOADS)} or all")
    results = {}
    for name in names:
        results[name] = run_workload(wl_mod, name, args.seed, args.seconds, bool(args.trace),
                                     wl_mod.FULL)
        _emit(results[name], f"[{name}] ")
    if len(names) == 1:
        final = results[names[0]]
    else:
        # one process: peak_rss_mb of a later workload includes the earlier ones
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
            "report": {n: r["report"] for n, r in results.items()},
        }
    print(json.dumps({"report": final.pop("report")}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
