"""Acceptance battery: one test per criterion, each printing its PASS/FAIL
line with the measured values at the stated tolerances, and the SHA-256 of
every line and artifact the battery emits, from the same run.

Criterion 2 is expected red: the stated 5%/alpha<=0.05 envelope at radii
1e-5..1e-2 with s = s' = 1.1 contradicts the slow |z|^0.1 approach of the
3D weighted resolvent norm to its threshold limit (see the criterion's
docstring and the sweep artifacts); it runs verbatim and reports honestly.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import virtlev
from virtlev import acceptance
from virtlev.errors import ConfigError, SamplingFailure


# criterion -> (sha256 of its res.line(), {artifact name: sha256 of its text});
# a change to any printed number, verdict or artifact byte fails here
BATTERY_DIGESTS = {
    1: ("4ca58e63776d72288bbe147470110ad35bbb591cc51d0c0d28720b1c3afa43d3", {
        "sweep_1d.csv":
            "b5c434236eb96bda716508e54182c2dbba15fc950321d7ed119c9e2539102450",
    }),
    2: ("586fa7ac51f27c7a5cb029fa3f826bb8e5fccbbff3d9694e147f1b83aab4f2bf", {
        "sweep_3d.csv":
            "570b06126fe5d779e1dc8223c008b27c07b1096950739239340cc48d7699abbc",
    }),
    3: ("8f610f0a442d92db6c3fd0033bd1949c417756ae0cc2d4a1dd8b72b72dedfaf2", {
        "bifurcation.csv":
            "3b28ccf8fb288c31550696432d38020a587a97f794b1e30cbcae2ad905388c03",
    }),
    4: ("999d43a202d454261a498841cb97fbcd76d3ea85e3e315f7698ddb78bae29ce4", {}),
    5: ("4e55bbaec46cfcb7e4a005f7059da86603a2cbde494183bea8ed789b363c2472", {}),
    6: ("af890f514b7d5152511c864c283d37f0902a1f871f01a43b1c6eed7a8dc24d67", {}),
    7: ("737f9752bc9b25a7680b68b97766a5303f6e2d49e3e8472fb1bb404196c09276", {
        "embedded_family_zeta0.csv":
            "e0d1f2d96eb7172a812f2084ba688c68c200544f7dbef20603a66a4642801be0",
        "embedded_family_zeta1.csv":
            "51798fadf929f820f4cbc47a935f19fa9cf5dd5965771ea894f58a5f6689721c",
        "embedded_sweep_zeta0.csv":
            "a85624a7dbe5ae52da1668af2d46f7599cfdf50a57117eac23c367a82f0f9db6",
        "embedded_sweep_zeta1.csv":
            "cbc7fd2aabd465b4f7c09b2914896e5ba992965b39e608195298931826241b82",
    }),
    8: ("808db17b6fdf6e345d5b8554a10d40a684e51e18eafe851b39bc6bcbf62e51d2", {
        "null_state_trace.csv":
            "ccdca95a67b324db04259e272b011dc0c6592b858e8141aae18d6451a9664a67",
    }),
    9: ("67869cc2c05744575ef3ef20afd99759854cd2b66d15bd23bd41777ae7ea0aff", {}),
    10: ("3dd7c4b1f5d196a8902e996955eef9a7ea8a5be441ad7a3c24ebb1a6d8500192", {}),
}


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in acceptance.run_all()}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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


@pytest.mark.parametrize("number", sorted(BATTERY_DIGESTS))
def test_battery_output_digests(results, number):
    res = results[number]
    line_digest, artifact_digests = BATTERY_DIGESTS[number]
    assert _digest(res.line()) == line_digest, res.line()
    assert {name: _digest(text) for name, text in (res.artifacts or {}).items()} == (
        artifact_digests)


def test_passed_is_a_python_bool(results):
    assert {type(res.passed) for res in results.values()} == {bool}


def _nullity_stub(error):
    """matrix_nullity_by_perturbation that answers the Jordan block (the
    default trials) and raises `error` on every planted matrix."""
    def stub(m, trials=64, rng_seed=0):
        if trials == 64:
            return 1
        raise error

    return stub


def test_criterion_9_counts_sampling_failures(monkeypatch):
    monkeypatch.setattr(acceptance.pt, "matrix_nullity_by_perturbation",
                        _nullity_stub(SamplingFailure("marginal draw")))
    res = acceptance.criterion_9()
    assert not res.passed
    assert res.details == "agreement on 0/100 planted matrices, Jordan block -> 1"


def test_criterion_9_lets_programming_errors_through(monkeypatch):
    monkeypatch.setattr(acceptance.pt, "matrix_nullity_by_perturbation",
                        _nullity_stub(TypeError("a bug, not a draw")))
    with pytest.raises(TypeError, match="a bug"):
        acceptance.criterion_9()


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
