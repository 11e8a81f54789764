"""In-memory span tracer for the benchmark's traced passes.

`Tracer.install` replaces each function of `WRAPPED` in every ``virtlev.*``
module namespace that binds the same object (so ``from .lap_sweep import
classify`` in another module and the recursive refinement call inside
``classify`` are both caught) and wraps the QuadraticForm eigen-solve
methods on the class.  A name missing from the program is reported as
absent, never as an error.  Spans are recorded only inside an item and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute); "Class.method" wraps the method on the class
WRAPPED = (
    ("lap_sweep", "sweep"),
    ("lap_sweep", "classify"),
    ("lap_sweep", "discrete_hamiltonian"),
    ("lap_sweep", "resolvent_matrix"),
    ("free_resolvent", "radial_reduced_kernel_2d"),
    ("free_resolvent", "build_free_kernel_operator"),
    ("weighted_space", "operator_norm_weighted"),
    ("discrete_ops", "build_shift_virtual_level"),
    ("discrete_ops", "virtual_state_space_dimension"),
    ("discrete_ops", "truncated_resolvent_matrix"),
    ("jost", "green_kernel"),
    ("jost", "jost_solve"),
    ("jost", "classify_threshold_1d"),
    ("criticality", "QuadraticForm.smallest_eigenvalue"),
    ("criticality", "QuadraticForm.smallest_eigenpair"),
    ("criticality", "null_state_iteration"),
)
ITEM = "item"  # root span the benchmark opens around each item call
PACKAGE = "virtlev"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    item: int | None = None
    extra: dict = field(default_factory=dict)


def _sweep_counts(result) -> dict:
    points = getattr(result, "points", None)
    if points is None:
        return {}
    return {"points": len(points), "aborted": int(getattr(result, "aborted", None) is not None)}


_AFTER = {"lap_sweep.sweep": _sweep_counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._item: int | None = None
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for module, attr in WRAPPED:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, method = attr.rpartition(".")
            target = getattr(owner, cls_name, None) if cls_name else owner
            original = getattr(target, method, None) if target is not None else None
            if original is None:
                self.absent.append(span_name(module, attr))
                continue
            wrapper = self._wrap(span_name(module, attr), original)
            if cls_name:
                self._rebind(target, method, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    def _rebind(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._restore.append((holder, key, original))

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                self.spans[idx].extra = after(result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, item=self._item))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item: int) -> None:
        self._item = item
        self._open(ITEM)

    def end_item(self) -> None:
        self._close(self._stack[-1])  # only the item's root span is still open
        self._item = None


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times of one traced pass."""
    selfs = self_times(spans)
    out = {}
    for module, attr in WRAPPED:
        name = span_name(module, attr)
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for s, self_s in zip(spans, selfs):
        if s.name != ITEM:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += self_s
    sweeps = [s for s in spans if s.name == "lap_sweep.sweep"]
    points = sum(s.extra.get("points", 0) for s in sweeps)
    out["lap_sweep.sweep.points"] = points
    out["lap_sweep.sweep.aborted"] = sum(s.extra.get("aborted", 0) for s in sweeps)
    out["lap_sweep.sweep.s_per_point"] = (
        sum(s.end - s.start for s in sweeps) / points if points else 0.0)
    out["lap_sweep.points_per_verdict"] = _per_verdict(
        spans, "lap_sweep.classify", lambda s: s.extra.get("points", 0))
    eigen = ("criticality.smallest_eigenvalue", "criticality.smallest_eigenpair")
    out["criticality.eigensolves_per_verdict"] = _per_verdict(
        spans, "criticality.null_state_iteration", lambda s: int(s.name in eigen))
    return out


def _per_verdict(spans: list, verdict: str, weight) -> float:
    """Sum of `weight` over items that reach a top-level `verdict` call,
    divided by the number of those calls."""
    verdicts = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name == verdict and not _has_ancestor(spans, i, verdict):
            verdicts[s.item] += 1
    total = sum(weight(s) for s in spans if s.item in verdicts)
    count = sum(verdicts.values())
    return total / count if count else 0.0


def family_shares(spans: list, families: list) -> dict:
    """Per family: share of traced item time in each span name's self time."""
    selfs = self_times(spans)
    by_family = defaultdict(lambda: defaultdict(float))
    item_time = defaultdict(float)
    for s, self_s in zip(spans, selfs):
        fam = families[s.item]
        by_family[fam][s.name] += self_s
        if s.name == ITEM:
            item_time[fam] += s.end - s.start
    return {fam: dict(sorted(((name, t / item_time[fam]) for name, t in names.items()),
                             key=lambda kv: -kv[1]))
            for fam, names in by_family.items()}


def self_sum_error(spans: list) -> float:
    """Largest |sum of self times in an item - the item's root span|, in s."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    roots = {}
    for s, self_s in zip(spans, selfs):
        totals[s.item] += self_s
        if s.name == ITEM:
            roots[s.item] = s.end - s.start
    return max((abs(totals[k] - roots[k]) for k in roots), default=0.0)


def median_metrics(per_pass: list) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
