"""End-to-end and per-layer benchmark of the CPPE simulator and its harness.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload shootout --seed 0 --trace 1

``--trace 0`` repeats cold passes (and warm replays) of the workload until
``--seconds`` have passed and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` makes one untraced and one traced pass and
reports the per-layer metrics.  Human-readable lines go to stdout first; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A full report (and, traced, the span file) is written under
``perfbench/out/``.  The exit code is 1 when any correctness check failed.
See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Cold passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Warm replays after each cold pass.
WARM_REPLAYS = 5
#: Fresh-process set-ups per run (their median is ``setup_s``).
SETUP_PROBES = 7
#: Calibration drift (after / before - 1) flagged as machine-speed change.
DRIFT_FLAG = 0.10

#: Units of the printed metrics that BENCHMARK.json does not declare.
UNITS = {"warm_s": "s", "failed_frac": "ratio", "paper_err_75": "ratio",
         "paper_err_50": "ratio"}


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop (context only)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probe_s(workload: str, seed: int) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return time.perf_counter() - t0


class Ledger:
    """Attempted operations and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: List[str] = []

    def add(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)


def host_context(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    from repro.config import SimConfig
    from repro.harness.cache import config_fingerprint

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": SimConfig().backend,
        "config_fingerprint": config_fingerprint(SimConfig()),
        "workload": args.workload,
        "seed": args.seed,
    }


def measure(case, args, ledger: Ledger, report: Dict[str, Any]) -> Dict[str, float]:
    """Untraced run: cold passes and warm replays for ``args.seconds``."""
    import cases

    colds: List[List[float]] = []  # per cold pass: its unit times
    warms: List[List[float]] = []
    metrics: Dict[str, float] = {}
    start = time.perf_counter()
    while True:
        try:
            cold = case.cold()
            ledger.add(len(cold.results), case.check_cold(cold))
            digests = cases.result_digests(cold.results)
            digest = cases.results_digest(digests)
            if not colds:
                counts = cases.totals(r.stats for r in cold.results.values())
                report["counts"] = {k: counts[k] for k in cases.COUNT_FIELDS}
                report["results_digest"] = digest
                metrics["accesses"] = counts["accesses"]
                if isinstance(case, cases.Fig8):
                    metrics.update(cases.paper_errors(cold.results, case.specs))
            elif digest != report["results_digest"]:
                ledger.fail("cold results digest changed between passes")
            colds.append(cold.units)
            del cold
            for _ in range(WARM_REPLAYS if case.has_warm else 0):
                warm = case.warm()
                ledger.add(len(warm.results), case.check_warm(warm, digests))
                warms.append(warm.units)
                del warm
        except Exception:  # a failed spec ends the run; it is reported
            ledger.fail(traceback.format_exc())
            break
        elapsed = time.perf_counter() - start
        if len(colds) >= MIN_PASSES and elapsed >= args.seconds:
            break
    if not colds:
        return {}
    if len({len(units) for units in colds + warms}) > 1:
        ledger.fail("passes split into different numbers of units")
    report["cold_pass_s"] = [sum(units) for units in colds]
    report["warm_pass_s"] = [sum(units) for units in warms]
    cold_s = cases.fastest_units_s(colds)
    metrics["cold_s"] = cold_s
    metrics["sim_accesses_per_s"] = metrics.pop("accesses") / cold_s
    if warms:
        metrics["warm_s"] = cases.fastest_units_s(warms)
    return metrics


def trace_layers(case, args, ledger: Ledger, report: Dict[str, Any]) -> Dict[str, float]:
    """Traced run: one untraced serial pass, then one traced pass."""
    import cases
    from spans import LayerTrace, SpanRecorder

    def digest_of(p) -> str:
        return cases.results_digest(cases.result_digests(p.results))

    untraced = case.cold(jobs=1)
    ledger.add(len(untraced.results), case.check_cold(untraced))
    digest = digest_of(untraced)
    expected = cases.totals(r.stats for r in untraced.results.values())
    report["results_digest"] = digest
    report["counts"] = {k: expected[k] for k in cases.COUNT_FIELDS}
    first_pass = untraced
    if case.pool_jobs > 1:  # a pass on the pool, for first_result_s
        first_pass = case.cold(jobs=case.pool_jobs)
        ledger.add(len(first_pass.results), case.check_cold(first_pass))
        if digest_of(first_pass) != digest:
            ledger.fail("pool pass results differ from the serial pass")

    rec = SpanRecorder()
    layers = LayerTrace(rec)
    layers.install()
    case.label_sink = lambda label: setattr(rec, "label", label)
    batches = []
    rec.start()
    traced = case.cold(jobs=1)
    batches.extend(traced.batches)
    if case.has_warm:
        warm = case.warm()
        batches.extend(warm.batches)
    rec.stop()

    ledger.add(len(traced.results), case.check_cold(traced))
    if case.has_warm:
        ledger.add(len(warm.results),
                   case.check_warm(warm, cases.result_digests(traced.results)))
    if digest_of(traced) != digest:
        ledger.fail("traced results differ from the untraced results")
    sim = cases.totals(layers.run_stats)
    if sim != expected:
        ledger.fail(f"traced simulated totals {sim} != untraced {expected}")

    metrics = layers.metrics(sim)
    metrics.update({
        "harness.parallel.first_result_s": (
            statistics.median(first_pass.first_result_s)
            if first_pass.first_result_s else 0.0),
        "harness.parallel.simulated": sum(b.simulated for b in batches),
        "harness.parallel.cache_hits": sum(b.cache_hits for b in batches),
        "harness.parallel.memo_hits": sum(b.memo_hits for b in batches),
        "trace.overhead_frac": traced.seconds / untraced.seconds - 1.0,
    })
    metrics.update({f"sim.{k}": sim[k] for k in cases.COUNT_FIELDS})
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
    rec.write(spans_path, {"workload": args.workload, "seed": args.seed})
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_CACHE"] = "0"  # never touch a cache outside the checkout
    import cases

    if args.workload not in cases.CASES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(cases.CASES)}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
    case = None
    try:
        case = cases.make_case(args.workload, args.seed, workdir)
        if args.setup_probe:
            return 0
        declared = declared_metrics(bool(args.trace))
        ledger = Ledger()
        report: Dict[str, Any] = {"context": host_context(args)}
        report["duplicate_traces"] = case.duplicates()
        calibration = [calibrate()]
        if args.trace:
            metrics = trace_layers(case, args, ledger, report)
        else:
            metrics = measure(case, args, ledger, report)
        calibration.append(calibrate())
        if not args.trace:
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = statistics.median(
                setup_probe_s(args.workload, args.seed)
                for _ in range(SETUP_PROBES))
            metrics["failed_frac"] = ledger.failed / max(1, ledger.attempted)
    finally:
        if case is not None:
            case.close()
        shutil.rmtree(workdir, ignore_errors=True)

    drift = calibration[1] / calibration[0] - 1.0
    report["context"].update({
        "calibration_before_s": calibration[0],
        "calibration_after_s": calibration[1],
        "calibration_drift": drift,
        "drift_flagged": abs(drift) > DRIFT_FLAG,
    })
    report["metrics"] = metrics
    report["problems"] = ledger.problems
    mode = "trace" if args.trace else "e2e"
    (OUT / f"{args.workload}-s{args.seed}-{mode}.json").write_text(
        json.dumps(report, indent=1, default=str))

    print("context " + json.dumps(report["context"]))
    for group in report["duplicate_traces"]:
        print(f"duplicate traces (byte-identical): {' = '.join(group)}")
    print("counts " + json.dumps(report.get("counts", {})))
    for name, value in metrics.items():
        unit = declared.get(name) or UNITS[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    correct = ledger.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
