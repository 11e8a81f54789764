"""Grids, weights and operator-norm estimation."""

import tracemalloc

import numpy as np
import pytest

from virtlev import lap_sweep, weighted_space
from virtlev.errors import ConfigError, DimensionMismatch, InvalidOperator
from virtlev.free_resolvent import SpectralParameter, build_free_kernel_operator
from virtlev.jost import Potential1D
from virtlev.weighted_space import (
    Grid1D,
    KernelOperator,
    RadialGrid,
    SemiseparableKernel,
    _power_iteration_norm,
    operator_norm_weighted,
    weight,
)


def test_grid_center_is_exact_zero():
    g = Grid1D(7.3, 101)
    assert g.points[50] == 0.0
    assert np.allclose(np.diff(g.points), g.spacing)
    assert g.points[0] == -7.3 and g.points[-1] == 7.3


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 100)  # even
    with pytest.raises(ValueError):
        Grid1D(-1.0, 101)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 10)
    # an infinite extent made inf - inf points and a RuntimeWarning downstream
    for grid_type in (Grid1D, RadialGrid):
        for extent in (np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite and positive"):
                grid_type(extent, 101)


@pytest.mark.parametrize("grid, want", [
    (Grid1D(40.0, 1601), Grid1D(80.0, 3201)),
    (RadialGrid(40.0, 1600), RadialGrid(80.0, 3200)),
], ids=["line", "radial3d"])
def test_doubled_grid_has_twice_the_extent_and_the_same_spacing(grid, want):
    assert grid.doubled() == want
    assert grid.doubled().spacing == grid.spacing


def test_radial_grid_excludes_origin():
    g = RadialGrid(5.0, 500)
    assert g.points[0] == pytest.approx(g.spacing)
    assert g.points[-1] == pytest.approx(5.0)


def test_weight_values():
    assert weight(0.0, 2.0) == 1.0
    assert weight(1.0, 2.0) == pytest.approx(2.0)
    # (1 + 9)^{-1/2}
    assert weight(3.0, -1.0) == pytest.approx(10.0 ** -0.5, rel=1e-14)


def test_weight_inverse_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = 20 * rng.random() - 10
        s = 8 * rng.random() - 4
        assert weight(x, s) * weight(x, -s) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_discrete_identity():
    g = Grid1D(2.0, 41)
    k = KernelOperator(g, g, np.eye(41) / g.spacing)
    assert operator_norm_weighted(k, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_rank_one_closed_form():
    rng = np.random.default_rng(1)
    g = Grid1D(3.0, 61)
    u = rng.standard_normal(61) + 1j * rng.standard_normal(61)
    v = rng.standard_normal(61) + 1j * rng.standard_normal(61)
    k = KernelOperator(g, g, np.outer(u, np.conj(v)))
    expected = np.linalg.norm(u) * np.linalg.norm(v) * g.spacing
    assert operator_norm_weighted(k, 0.0, 0.0) == pytest.approx(expected, rel=1e-10)


def test_operator_norm_grid_refinement_stability():
    vals = []
    for n in (1500, 3000):
        g = Grid1D(30.0, n + 1)
        k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
        sigma, _, _, _, converged = _power_iteration_norm(k, 1.0, 1.0)
        assert converged
        vals.append(sigma)
    assert vals[1] == pytest.approx(vals[0], rel=0.01)


LINE, RADIAL = Grid1D(2.0, 401), RadialGrid(2.0, 200)  # h = 0.01
SWEPT_OPS = (
    lap_sweep.OperatorSpec.free1d(LINE),
    lap_sweep.OperatorSpec.free3d_radial(RADIAL),
    lap_sweep.OperatorSpec.schrodinger1d(Potential1D.square_well(1.0 + 0.5j, LINE)),
    lap_sweep.OperatorSpec.rank_one_perturbed_1d(LINE),
)


def test_power_iteration_matches_svd():
    # the power iteration on the engines sweeps build, against the SVD of
    # their entries
    rng = np.random.default_rng(2)
    for case in range(12):
        z = complex(-rng.random(), rng.random())
        engine = lap_sweep._make_engine(SWEPT_OPS[case % len(SWEPT_OPS)], z)
        s_in, s_out = 3 * rng.random(), 3 * rng.random()
        a = operator_norm_weighted(engine, s_in, s_out)
        sigma, _, _, _, converged = _power_iteration_norm(engine, s_in, s_out)
        assert converged, case
        assert sigma == pytest.approx(a, rel=1e-8), case


def test_power_norm_stays_linear_in_memory():
    # the power iteration runs on matvec/rmatvec, never on an n x n matrix
    g = Grid1D(10.0, 4001)
    k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
    tracemalloc.start()
    try:
        norm, _, _, _, converged = _power_iteration_norm(k, 1.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert converged and norm > 0
    assert peak < 10e6


def test_dense_norm_refuses_grids_above_its_limit(monkeypatch):
    limit = weighted_space._DENSE_NORM_MAX_POINTS
    assert limit == 2000
    g = RadialGrid(20.0, limit)
    k = KernelOperator(g, g, np.eye(limit) / g.spacing)
    assert operator_norm_weighted(k, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def forbidden(self):
        raise AssertionError("dense entries read")

    # the refusal comes before any n x n matrix is built
    monkeypatch.setattr(SemiseparableKernel, "entries", property(forbidden))
    big = build_free_kernel_operator(1, Grid1D(20.0, limit + 1),
                                     SpectralParameter.interior(-1.0))
    with pytest.raises(ConfigError, match="at most 2000 grid points, not 2001"):
        operator_norm_weighted(big, 1.0, 1.0)


@pytest.mark.parametrize("d", [1, 3])
def test_svd_norm_same_for_dense_and_semiseparable(d):
    g = Grid1D(8.0, 401) if d == 1 else RadialGrid(8.0, 400)
    k = build_free_kernel_operator(d, g, SpectralParameter.interior(-0.3 + 0.2j))
    assert isinstance(k, SemiseparableKernel)
    dense = KernelOperator(g, g, k.entries)
    assert operator_norm_weighted(k, 1.5, 1.0) == operator_norm_weighted(dense, 1.5, 1.0)


def test_power_iteration_reports_convergence(monkeypatch):
    engine = lap_sweep._make_engine(SWEPT_OPS[0], -0.5 + 0.1j)
    sigma, v, u, its, ok = _power_iteration_norm(engine, 1.0, 1.0)
    assert ok and 2 < its < 100
    # the weighted matrix M of the norm, and its leading singular pair
    w = weight(LINE.points, -1.0)
    m = (w[:, None] * engine.entries) * (w[None, :] * LINE.spacing)
    left, sv, _ = np.linalg.svd(m)
    assert sigma == pytest.approx(sv[0], rel=1e-8)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.vdot(left[:, 0], u)) == pytest.approx(1.0, rel=1e-8)
    monkeypatch.setattr(weighted_space, "_POWER_MAX_ITER", 2)
    capped = _power_iteration_norm(engine, 1.0, 1.0)
    assert capped[3:] == (2, False)


def test_norm_monotone_under_domination():
    rng = np.random.default_rng(3)
    g = Grid1D(4.0, 81)
    for _ in range(20):
        a = rng.random((81, 81))
        b = a + rng.random((81, 81))  # entrywise dominates, both nonnegative
        ka = KernelOperator(g, g, a)
        kb = KernelOperator(g, g, b)
        assert operator_norm_weighted(ka, 1.0, 0.5) <= (
            operator_norm_weighted(kb, 1.0, 0.5) * (1 + 1e-12))


def test_l1_linf_norm_values():
    g = Grid1D(2.0, 41)
    assert np.max(np.abs(KernelOperator(g, g, np.zeros((41, 41))).entries)) == 0.0
    gg = Grid1D(20.0, 2001)
    k = build_free_kernel_operator(1, gg, SpectralParameter.interior(-1.0))
    assert k.max_abs_entry() == pytest.approx(0.5, rel=1e-12)
    # the threshold singularity forces sup = 1/(2 sqrt(eps))
    eps = 1e-4
    k2 = build_free_kernel_operator(1, gg, SpectralParameter.interior(-eps))
    assert k2.max_abs_entry() == pytest.approx(1.0 / (2 * np.sqrt(eps)), rel=1e-12)


def test_bounded_entries_bound_l1_linf():
    rng = np.random.default_rng(4)
    g = Grid1D(1.0, 21)
    for _ in range(20):
        bound = 10 * rng.random()
        m = bound * (2 * rng.random((21, 21)) - 1)
        assert np.max(np.abs(KernelOperator(g, g, m).entries)) <= bound + 1e-15


def test_kernel_operator_validation():
    g = Grid1D(1.0, 11)
    with pytest.raises(DimensionMismatch, match="does not match grid"):
        KernelOperator(g, g, np.zeros((11, 10)))
    bad = np.zeros((11, 11))
    bad[3, 4] = np.nan
    with pytest.raises(InvalidOperator):
        KernelOperator(g, g, bad)


@pytest.mark.parametrize("other", [Grid1D(1.0, 13), Grid1D(2.0, 11), RadialGrid(1.0, 11)])
def test_kernel_operator_refuses_two_grids(other):
    g = Grid1D(1.0, 11)
    assert KernelOperator(g, Grid1D(1.0, 11), np.zeros((11, 11))).grid == g
    with pytest.raises(DimensionMismatch, match="maps one grid to itself"):
        KernelOperator(g, other, np.zeros((11, 11)))


def test_apply_matches_quadrature():
    g = Grid1D(10.0, 2001)
    k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
    f = np.exp(-g.points**2)
    direct = g.spacing * (k.entries @ f)
    assert np.allclose(k.apply(f), direct)
