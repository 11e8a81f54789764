"""O(n) semiseparable kernels: free 1D / radial 2D / radial 3D resolvents and Jost Green kernels."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from virtlev.errors import DimensionMismatch, InvalidOperator
from virtlev.free_resolvent import (
    SpectralParameter,
    kernel_1d,
    radial_reduced_kernel_2d,
)
from virtlev.jost import Potential1D, classify_threshold_1d, green_kernel, jost_pair
from virtlev.lap_sweep import OperatorSpec, _make_engine
from virtlev.reports import Classification
from virtlev.weighted_space import (
    Grid1D,
    KernelOperator,
    RadialGrid,
    SemiseparableKernel,
    decay_band,
    first_order_recursion,
    operator_norm_weighted,
)

GRID = Grid1D(4.0, 801)  # h = 0.01, the engines' resolution limit
RADIAL = RadialGrid(4.0, 400)
# real ray, complex ray and a bulk point of the positive axis
POINTS = (-1e-4, -1e-3 + 1e-3j, 1.0 + 1e-4j)


def kernels(z):
    """The free engines at z, the threshold Jost Green kernel of a bump, and
    the decay-1 kernel exp(w x_<) exp(-w x_>) / (2w), w = sqrt(-z), whose
    generators oscillate where Im w != 0."""
    yield "free1d", _make_engine(OperatorSpec.free1d(GRID), z)
    yield "free2d", _make_engine(OperatorSpec.free2d_radial(RADIAL), z)
    yield "free3d", _make_engine(OperatorSpec.free3d_radial(RADIAL), z)
    yield "jost", green_kernel(jost_pair(Potential1D.bump(GRID, amplitude=1.0)))
    w, x = np.sqrt(complex(-z)), GRID.points
    yield "decay1", SemiseparableKernel(GRID, np.exp(w * x) / (2 * w), np.exp(-w * x), 1.0)


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("z", POINTS)
def test_apply_matches_dense_entries(z):
    rng = np.random.default_rng(7)
    for name, k in kernels(z):
        n = k.grid.n_points
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = k.entries
        assert rel_err(k.matvec(f), m @ f) <= 1e-12, name
        assert rel_err(k.rmatvec(f), m.conj().T @ f) <= 1e-12, name
        assert rel_err(k.apply(f), k.grid.spacing * (m @ f)) <= 1e-12, name


@pytest.mark.parametrize("z", POINTS)
def test_free_entries_match_closed_form(z):
    p = SpectralParameter.interior(z)
    w = np.sqrt(complex(-z))
    x, r = GRID.points[:, None], RADIAL.points[:, None]
    r_lo, r_hi = np.minimum(r, r.T), np.maximum(r, r.T)
    cases = ((OperatorSpec.free1d(GRID), kernel_1d(x, x.T, p)),
             (OperatorSpec.free2d_radial(RADIAL), radial_reduced_kernel_2d(r, r.T, w)),
             (OperatorSpec.free3d_radial(RADIAL), np.sinh(w * r_lo) * np.exp(-w * r_hi) / w))
    for op, ref in cases:
        assert rel_err(_make_engine(op, z).entries, ref) <= 1e-12, op.kind


def test_jost_entries_match_min_max_formula():
    grid = Grid1D(8.0, 801)
    pair = jost_pair(Potential1D.square_well(-1.0, grid))
    idx = np.arange(grid.n_points)
    lo, hi = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    ref = pair.theta_minus[lo] * pair.theta_plus[hi] / pair.wronskian
    assert rel_err(green_kernel(pair).entries, ref) <= 1e-14


def test_norms_through_entries_match_dense_operator():
    k = green_kernel(jost_pair(Potential1D.bump(GRID, amplitude=2.5)))
    dense = KernelOperator(GRID, GRID, k.entries)
    assert operator_norm_weighted(k, 2.0, 2.0) == operator_norm_weighted(dense, 2.0, 2.0)
    assert k.max_abs_entry() == np.max(np.abs(dense.entries))


@pytest.mark.parametrize("d", (0.0, 0.5, -0.3 + 0.9j, np.exp(0.7j)))
def test_first_order_recursion_matches_loop(d):
    x = np.random.default_rng(3).standard_normal(40) * (1 + 0.5j)
    band = decay_band(d, x.size)
    fwd = np.zeros_like(x)
    bwd = np.zeros_like(x)
    acc = 0.0
    for i in range(x.size):
        acc = d * acc + x[i]
        fwd[i] = acc
    acc = 0.0
    for i in range(x.size - 1, -1, -1):
        acc = d * acc + x[i]
        bwd[i] = acc
    assert np.max(np.abs(first_order_recursion(band, x) - fwd)) <= 1e-14 * np.max(np.abs(fwd))
    assert (np.max(np.abs(first_order_recursion(band, x, backward=True) - bwd))
            <= 1e-14 * np.max(np.abs(bwd)))


def test_rejects_bad_generators():
    ones = np.ones(GRID.n_points)
    with pytest.raises(DimensionMismatch):
        SemiseparableKernel(GRID, ones[:-1], ones)
    with pytest.raises(InvalidOperator):
        SemiseparableKernel(GRID, ones, ones, 1.5)
    bad = ones.copy()
    bad[3] = np.nan
    with pytest.raises(InvalidOperator):
        SemiseparableKernel(GRID, bad, ones)
    with pytest.raises(InvalidOperator):
        SemiseparableKernel(GRID, 1e200 * ones, 1e200 * ones)


def test_regular_classification_memory_stays_linear():
    # a dense 6401^2 complex Green kernel alone is 655 MB
    pot = Potential1D.square_well(-1.0, Grid1D(16.0, 6401))
    tracemalloc.start()
    try:
        report = classify_threshold_1d(pot)
        green_kernel(report.diagnostics["jost_pair"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.classification is Classification.REGULAR
    assert peak < 50e6


def test_cli_import_skips_scipy_signal():
    # scipy.special is imported only when a 2D kernel is evaluated
    code = ("import sys, virtlev.cli; "
            "print('scipy.signal' in sys.modules, 'scipy.special' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False False"
