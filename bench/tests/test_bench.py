"""The benchmark's own tests: generator, checks, span arithmetic, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import ITEM, Span  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_items(name):
    for seed in (0, 1, 7):
        first = json.dumps(workloads.generate(name, seed))
        assert json.dumps(workloads.generate(name, seed)) == first
    assert workloads.generate(name, 1) != workloads.generate(name, 2)


# families whose cases fix every input, so the seed only orders them
UNSEEDED = {"free1d_bulk", "free3d_bulk", "embedded", "free2d_classify",
            "jost_virtual", "critical_free1d", "critical_free3d"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_family_counts_follow_the_rule_and_cover_every_case(name):
    for family in workloads.WORKLOADS[name]:
        want = max(len(family.cases), family.repeat,
                   workloads.TAIL_BEYOND + 3 if family.tail else 0)
        assert family.count == want
        assert family.repeat == 1 or family.known_defect
    for seed in (0, 1, 2):
        specs = workloads.generate(name, seed)
        counts = Counter(s["family"] for s in specs)
        assert counts == {f.name: f.count for f in workloads.WORKLOADS[name]}
        assert sum(f.tail for f in workloads.WORKLOADS[name]) <= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_draws_the_inputs_of_every_seeded_family(name):
    def inputs(seed, family):
        return sorted(json.dumps(s, sort_keys=True)
                      for s in workloads.generate(name, seed) if s["family"] == family)

    for family in workloads.WORKLOADS[name]:
        same = inputs(1, family.name) == inputs(2, family.name)
        assert same == (family.name in UNSEEDED), family.name


def test_sweep_start_radius_lies_between_the_battery_windows():
    for seed in range(20):
        for spec in workloads.generate("sweep_banded", seed):
            if "--r0" in spec["argv"]:
                r0 = float(spec["argv"][spec["argv"].index("--r0") + 1])
                assert 1e-2 <= r0 <= 3e-2


def test_every_family_has_an_output_check():
    import items

    assert set(items.FAMILY_ITEMS) == set(workloads.FAMILIES)
    for name in workloads.WORKLOADS:
        for spec in workloads.generate(name, 3):
            item = items.build(spec)
            assert callable(item.call) and callable(item.check)


def test_known_defect_is_only_the_positive_axis_2d_family():
    defects = [f.name for f in workloads.FAMILIES.values() if f.known_defect]
    assert defects == ["kernel2d_positive_axis"]


def _span(name, start, end, parent=None, item=0, **extra):
    return Span(name, start, end, parent, item, extra)


def test_self_times_subtract_covered_child_time():
    spans = [
        _span(ITEM, 0.0, 10.0),
        _span("lap_sweep.classify", 1.0, 8.0, parent=0),
        _span("lap_sweep.sweep", 1.5, 4.0, parent=1, points=7),
        _span("lap_sweep.discrete_hamiltonian", 2.0, 3.0, parent=2),
        _span("lap_sweep.sweep", 4.0, 7.5, parent=1, points=7),
        _span("jost.jost_solve", 8.5, 9.0, parent=0),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 1.0, 1.5, 1.0, 3.5, 0.5])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)
    assert tracer.self_sum_error(spans) == pytest.approx(0.0, abs=1e-12)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [_span(ITEM, 0.0, 4.0),
             _span("a", 1.0, 3.0, parent=0),
             _span("b", 2.0, 5.0, parent=0)]  # overlaps a and ends past the parent
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_ratios_count_only_items_with_a_top_level_verdict():
    spans = [
        _span(ITEM, 0.0, 10.0, item=0),
        _span("lap_sweep.sweep", 0.5, 1.0, parent=0, item=0, points=7),
        _span("lap_sweep.classify", 1.0, 9.0, parent=0, item=0),
        _span("lap_sweep.sweep", 1.0, 2.0, parent=2, item=0, points=7),
        _span("lap_sweep.classify", 2.0, 9.0, parent=2, item=0),
        _span("lap_sweep.sweep", 2.0, 9.0, parent=4, item=0, points=7, aborted=1),
        _span(ITEM, 10.0, 11.0, item=1),
        _span("lap_sweep.sweep", 10.0, 11.0, parent=6, item=1, points=5),
        _span(ITEM, 11.0, 12.0, item=2),
        _span("criticality.null_state_iteration", 11.0, 12.0, parent=8, item=2),
        _span("criticality.smallest_eigenvalue", 11.0, 11.5, parent=9, item=2),
        _span("criticality.smallest_eigenpair", 11.5, 12.0, parent=9, item=2),
    ]
    layers = tracer.layer_metrics(spans)
    assert layers["lap_sweep.points_per_verdict"] == 21  # item 1 has no verdict
    assert layers["lap_sweep.sweep.points"] == 26
    assert layers["lap_sweep.sweep.aborted"] == 1
    assert layers["lap_sweep.classify.calls"] == 2
    assert layers["criticality.eigensolves_per_verdict"] == 2
    assert layers["lap_sweep.sweep.s_per_point"] == pytest.approx(9.5 / 26)


def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    from virtlev import criticality, lap_sweep, perturbation

    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + (("jost", "no_such"),))
    original = lap_sweep.classify
    eigen = criticality.QuadraticForm.smallest_eigenvalue
    t = tracer.Tracer()
    t.install()
    try:
        assert perturbation.classify is lap_sweep.classify is not original
        assert criticality.QuadraticForm.smallest_eigenvalue is not eigen
        assert t.absent == ["jost.no_such"]
        assert t.spans == []  # nothing is recorded outside an item
        form = criticality.QuadraticForm.free_line(20.0, 801)
        t.begin_item(0)
        form.smallest_eigenvalue()
        t.end_item()
        assert [s.name for s in t.spans].count("criticality.smallest_eigenvalue") == 1
    finally:
        t.uninstall()
    assert perturbation.classify is original
    assert criticality.QuadraticForm.smallest_eigenvalue is eigen


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    value, pct, beyond = run.tail(list(range(1, 41)))
    assert (value, pct, beyond) == (30, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_import_times_cover_every_module_of_one_import():
    code = ("import json, sys, time; sys.path[:0] = sys.argv[1:]; import worker; "
            "t = time.perf_counter(); times = worker.timed_imports(); "
            "print(json.dumps([times, time.perf_counter() - t]))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    times, total = json.loads(proc.stdout)
    modules = {p.stem for p in (ROOT / "src" / "virtlev").glob("*.py")} - {"__init__"}
    assert set(times) == modules | {"numpy", "virtlev"}
    assert all(t > 0 for t in times.values())
    assert sum(times.values()) <= total


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.WORKLOADS[name])
    defects = sum(f.known_defect for f in workloads.WORKLOADS[name])
    assert result["failed"] == defects
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _bench("--workload", "sweep_banded", "--seed", "5", "--seconds", "1",
                  "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert "absent" not in proc.stdout
    assert result["metrics"]["lap_sweep.sweep.calls"]["value"] > 0
    assert result["metrics"]["import.lap_sweep_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "sweep_banded", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_gives_byte_identical_captured_output():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "sweep_banded", "--seed", "6", "--seconds", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests.append(next(line for line in proc.stdout.splitlines()
                            if line.startswith("output digest:")))
    assert digests[0] == digests[1]
