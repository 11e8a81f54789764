"""Acceptance battery: one test per criterion, each printing its PASS/FAIL
line with the measured values at the stated tolerances.

Criterion 2 is expected red: the stated 5%/alpha<=0.05 envelope at radii
1e-5..1e-2 with s = s' = 1.1 contradicts the slow |z|^0.1 approach of the
3D weighted resolvent norm to its threshold limit (see the criterion's
docstring and the sweep artifacts); it runs verbatim and reports honestly.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import virtlev
from virtlev import acceptance
from virtlev.errors import ConfigError


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in acceptance.run_all()}


@pytest.mark.parametrize("only", [{11}, {0, 3}])
def test_run_all_rejects_unknown_criterion_numbers(only):
    with pytest.raises(ConfigError, match="outside 1..10"):
        acceptance.run_all(only=only)


@pytest.mark.parametrize("number", [
    1,
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True,
        reason="stated tolerances contradict the |z|^0.1 approach of the 3D "
               "weighted norm to its threshold limit at s = s' = 1.1; the "
               "criterion runs verbatim and reports the measured 66.7% "
               "variation (see the virtlev.acceptance.criterion_2 docstring)")),
    3, 4, 5, 6, 7, 8, 9, 10,
])
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.details


def test_runtime_budgets(results):
    # stated per-criterion budgets (seconds)
    budgets = {1: 30.0, 2: 60.0, 3: 1.0, 4: 60.0}
    for number, budget in budgets.items():
        assert results[number].runtime < budget, (
            f"criterion {number} took {results[number].runtime:.1f}s "
            f"(budget {budget}s)")


def test_full_suite_under_ten_minutes(results):
    total = sum(res.runtime for res in results.values())
    print(f"total acceptance runtime: {total:.1f}s")
    assert total < 600.0


def test_criterion_10_memory_stays_linear():
    # a fresh interpreter, so the peak belongs to criterion 10 alone; its
    # 4001-point inverse residuals once built two dense kernels (~620 MB)
    code = ("import resource; from virtlev import acceptance; "
            "res = acceptance.criterion_10(); "
            "print(res.passed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    # Linux carries the peak RSS across exec: a child started straight from
    # this test process would report the test process's own peak.  A small
    # intermediate interpreter gives the measured one a clean start.
    hop = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {code!r}], check=True)"
    src = os.path.dirname(os.path.dirname(virtlev.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", hop], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    passed, peak_kb = out[-2], int(out[-1])  # ru_maxrss is in KB on Linux
    print(f"criterion 10 peak RSS: {peak_kb / 1024:.0f} MB")
    assert passed == "True"
    assert peak_kb < 200 * 1024
