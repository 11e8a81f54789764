"""One workload in a fresh interpreter: import, generate, time, check.

Started by ``bench/run.py``; prints one JSON object as its last stdout line.
With ``--setup-only`` it stops where the timed phase would start, so the
parent can take the median set-up time of several fresh interpreters.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"


class ImportClock(importlib.abc.MetaPathFinder):
    """Self time of each virtlev module's import: its own body and the
    third-party imports it starts, less the virtlev modules it imports."""

    def __init__(self):
        self.times = {}
        self._nested = []  # per open import: time of the virtlev imports inside it

    def find_spec(self, name, path, target=None):
        if name != "virtlev" and not name.startswith("virtlev."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self, name.rpartition(".")[2])
        return spec


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, clock: ImportClock, key: str):
        self.loader, self.clock, self.key = loader, clock, key

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        module.__loader__ = module.__spec__.loader = self.loader
        nested = self.clock._nested
        nested.append(0.0)
        t = time.perf_counter()
        try:
            self.loader.exec_module(module)
        finally:
            elapsed = time.perf_counter() - t
            self.clock.times[self.key] = elapsed - nested.pop()
            if nested:
                nested[-1] += elapsed


def timed_imports() -> dict:
    """Import numpy, then ``virtlev.cli``, timing each virtlev module's share.

    Every module's time is its increment in that one import (the package's
    ``__init__`` is ``virtlev``); together they are ``import virtlev.cli``.
    """
    times = {}
    t = time.perf_counter()
    importlib.import_module("numpy")
    times["numpy"] = time.perf_counter() - t
    clock = ImportClock()
    sys.meta_path.insert(0, clock)
    try:
        importlib.import_module("virtlev.cli")
    finally:
        sys.meta_path.remove(clock)
    return times | clock.times


def run_pass(items, tracer, first_text: list, number: int) -> dict:
    """Each item once: timed call, then (untimed) its output check."""
    start = time.perf_counter()
    latency, problems = [], []
    for i, item in enumerate(items):
        args = item.prepare()
        if tracer is not None:
            tracer.begin_item(i)
        t = time.perf_counter()
        try:
            out, found = item.call(*args), []
        except Exception as exc:  # an item that raises is a counted failure
            out, found = None, [f"raised {type(exc).__name__}: {exc}"]
        latency.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.end_item()
        if not found:
            try:
                found = item.check(out)
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
        text = item.captured(out)
        if number == 0:
            first_text[i] = text
        elif text != first_text[i]:
            found.append("captured output differs from the first pass")
        problems.append(found)
        del args, out
    return {"traced": tracer is not None, "latency": latency, "problems": problems,
            "elapsed": time.perf_counter() - start}


def timed_phase(items, seconds: float, trace: bool, max_passes: int | None):
    """Passes over the item list until `seconds` would be exceeded.

    With tracing, passes alternate untraced / traced, and at least one of
    each runs.  Peak RSS is read after the first pass: later passes repeat
    the same work, and heap fragmentation would make the high-water mark
    depend on how many passes fit.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    passes, first_text = [], [None] * len(items)
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            p = run_pass(items, tracer if traced else None, first_text, len(passes))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p["spans"] = tracer.spans
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(p)
        if max_passes is not None and len(passes) >= max_passes:
            break
        # the first pass also computes the oracles; later passes only compare
        estimate = passes[-1]["elapsed"] if len(passes) > 1 else sum(p["latency"])
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() - start + estimate > seconds:
            break
    return passes, (tracer.absent if tracer else []), first_text, peak_rss_mb


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "VIRTLEV_THREADS": os.environ.get("VIRTLEV_THREADS")}


def summarise(items, passes, absent, captured, spans_path) -> dict:
    from tracer import family_shares, layer_metrics, median_metrics, self_sum_error

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digest = hashlib.sha256()
    for i, (item, text) in enumerate(zip(items, captured)):
        if text is not None:
            digest.update(f"{i}\t{item.label}\n{text}".encode())
    failed = unexpected = 0
    records = []
    for i, item in enumerate(items):
        seen = [tuple(p["problems"][i]) for p in passes if p["problems"][i]]
        failed += len(seen)
        if not item.known_defect:
            unexpected += len(seen)
        records.append({"family": item.family, "label": item.label,
                        "known_defect": item.known_defect,
                        "latency_s": statistics.median(p["latency"][i] for p in untraced),
                        "problems": sorted({msg for probs in seen for msg in probs})})
    out = {"attempted": len(items) * len(passes), "failed": failed,
           "unexpected_failures": unexpected, "digest": digest.hexdigest(),
           "passes": [{"traced": p["traced"], "wall_s": sum(p["latency"]),
                       "elapsed_s": p["elapsed"]} for p in passes],
           "items": records}
    if traced:
        families = [item.family for item in items]
        out["layers"] = median_metrics([layer_metrics(p["spans"]) for p in traced])
        out["family_shares"] = family_shares(traced[0]["spans"], families)
        out["self_sum_error_s"] = max(self_sum_error(p["spans"]) for p in traced)
        out["absent"] = absent
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump([[vars(s) for s in p["spans"]] for p in traced], fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="one item per family and one pass of each kind")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    imports = timed_imports()
    import items as item_calls
    import workloads

    specs = workloads.generate(args.workload, args.seed, 1 if args.smoke else None)
    items = [item_calls.build(spec) for spec in specs]
    ready = time.perf_counter()
    result = {"ready": ready, "in_process_setup_s": ready - STARTED, "imports": imports}
    if not args.setup_only:
        passes, absent, captured, peak_rss_mb = timed_phase(
            items, args.seconds, bool(args.trace), 1 + args.trace if args.smoke else None)
        spans = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-spans.json"
        result.update(summarise(items, passes, absent, captured, spans))
        result["families"] = {f.name: {"count": sum(s["family"] == f.name for s in specs),
                                       "why": f.why, "known_defect": f.known_defect}
                              for f in workloads.WORKLOADS[args.workload]}
        result["peak_rss_mb"] = peak_rss_mb
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
