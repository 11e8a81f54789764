"""Benchmark of virtlev: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep_banded --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Each workload runs in its own fresh interpreter (``bench/worker.py``), one
after another, closed loop with one item at a time; the benchmark starts no
thread pool, clears ``VIRTLEV_THREADS`` and never passes ``--threads``.  The
worker repeats passes over the seeded item list while they fit in
``--seconds``.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median over untraced passes of the summed item latencies;
  output checks and oracles are outside it.
* ``item_p50_s`` / ``item_tail_s``: median, and highest percentile with ten
  items beyond it, of the per-item latencies (each item's median over
  passes); the percentile and item count are printed.
* ``peak_rss_mb``: ``ru_maxrss`` of the worker process after its first pass.
* ``setup_s``: median over eleven fresh interpreters, five started before
  the timed worker and five after it, of the time from interpreter start to
  the start of the timed phase (imports, generation).
* ``ok_frac``: share of attempted items that returned and passed their
  check; ``failed_frac`` = 1 - ``ok_frac`` is printed too.  Items of the
  known-defect family fail today and count here; ``correct`` is false only
  for an unexpected failure.

``--trace 1`` is a separate run whose passes alternate untraced and traced
and reports the per-layer metrics (calls and self time per wrapped function,
sweep points, eigen-solves per verdict, per-module import times, tracing
overhead).  Every metric is printed with its unit; the last stdout line is
one JSON object.  The full report (environment, families, per-item latencies
and problems, output digest, per-family self-time shares) and the spans go
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_INTERPRETERS = 11  # the timed worker plus ten set-up-only interpreters
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (pure data, no virtlev import)


class BenchError(RuntimeError):
    pass


def spawn(cmd: list, env: dict, deadline: float) -> tuple:
    """Run a worker to completion; (spawn time, parsed last stdout line)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the deadline: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple:
    """(value, percentile, items beyond) of the highest percentile that has
    TAIL_BEYOND items above it (the maximum for shorter lists)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = workloads.TAIL_BEYOND if n > workloads.TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.pop("VIRTLEV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    tag = f"{name}-seed{seed}-trace{trace}"
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
            "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    # set-up probes before and after the timed worker, so that a slow or
    # fast spell of the host does not fall on all of them
    probes = 1 if smoke else SETUP_INTERPRETERS - 1
    setups, imports = [], []

    def probe():
        started, data = spawn(base + ["--setup-only"], env, deadline)
        setups.append(data["ready"] - started)
        imports.append(data["imports"])

    for _ in range(probes // 2):
        probe()
    started, report = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)],
                            env, deadline)
    setups.append(report["ready"] - started)
    imports.append(report["imports"])
    for _ in range(probes - probes // 2):
        probe()

    untraced = [p for p in report["passes"] if not p["traced"]]
    traced = [p for p in report["passes"] if p["traced"]]
    per_item = [it["latency_s"] for it in report["items"]]
    tail_value, tail_pct, beyond = tail(per_item)
    wall = statistics.median(p["wall_s"] for p in untraced)
    end_to_end = {
        "wall_s": wall,
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": tail_value,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - report["failed"] / report["attempted"],
    }
    per_layer = dict(report.get("layers", {}))
    for module in imports[0]:
        per_layer[f"import.{module}_s"] = statistics.median(i.get(module, 0.0) for i in imports)
    if traced:
        per_layer["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / wall - 1.0)
    self_sum_ok = report.get("self_sum_error_s", 0.0) <= 1e-6
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": report["unexpected_failures"] == 0 and self_sum_ok,
        "attempted": report["attempted"], "failed": report["failed"],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "tail": {"percentile": tail_pct, "items": len(per_item), "beyond": beyond},
        "setup_samples_s": setups, "report": report, "tag": tag,
    }


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(result: dict, declared: list, prefix: str = "") -> dict:
    """Print each declared metric with its unit; return them as JSON metrics."""
    got = result["end_to_end"] if result["trace"] == 0 else result["per_layer"]
    metrics, absent = {}, []
    for m in declared:
        value = got.get(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0.0
        metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if m["name"] == "item_tail_s":
            t = result["tail"]
            note = (f"  (p{t['percentile']:.1f} of {t['items']} items, "
                    f"{t['beyond']} beyond)")
        print(f"{prefix}{m['name']} = {value:.6g} {m['unit']}{note}")
    if absent:
        print(f"{prefix}absent (reported as 0): {', '.join(absent)}")
    return metrics


def describe(result: dict) -> None:
    report = result["report"]
    env = report["environment"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{len(report['items'])} items x {len(report['passes'])} passes")
    print(f"environment: nproc={env['nproc']} affinity={env['affinity']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads']} "
          f"VIRTLEV_THREADS={env['VIRTLEV_THREADS']}")
    print("families: " + ", ".join(f"{k}x{v['count']}" for k, v in report["families"].items()))
    print(f"output digest: {report['digest']}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} attempted items)")
    if "self_sum_error_s" in report:
        print(f"largest |sum of span self times - item time| = "
              f"{report['self_sum_error_s']:.3g} s")
    for it in report["items"]:
        if it["problems"]:
            kind = "known defect" if it["known_defect"] else "FAILED"
            print(f"{kind}: {it['label'][:120]}: {'; '.join(it['problems'])[:300]}")
    for fam, shares in report.get("family_shares", {}).items():
        top = ", ".join(f"{name} {share:.0%}" for name, share in list(shares.items())[:3])
        print(f"self time {fam}: {top}")
    if "absent" in report and report["absent"]:
        print(f"wrapped names absent from the program: {', '.join(report['absent'])}")


def save(result: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{result['tag']}.json").write_text(json.dumps(result, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one item per family, one pass (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "virtlev" / "cli.py").is_file():
        print(f"bench: no virtlev sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        save(result)
        describe(result)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update(emit(result, declared, prefix))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
