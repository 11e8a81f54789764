"""Grids, weights, weighted norms and operator-norm estimation."""

import tracemalloc

import numpy as np
import pytest

from virtlev import weighted_space
from virtlev.errors import DimensionMismatch, DiscretizationFailure, InvalidOperator
from virtlev.free_resolvent import SpectralParameter, build_free_kernel_operator
from virtlev.weighted_space import (
    Grid1D,
    KernelOperator,
    RadialGrid,
    SemiseparableKernel,
    _power_iteration_norm,
    l1_to_linf_norm,
    operator_norm_weighted,
    weight,
    weighted_l2_norm,
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


def test_weighted_norm_zero_and_constant():
    g = Grid1D(1.0, 2001)
    assert weighted_l2_norm(np.zeros(g.n_points), g) == 0.0
    ones = np.ones(g.n_points)
    # int_{-1}^{1} 1 dx = 2, up to the uniform-rule endpoint term
    assert weighted_l2_norm(ones, g, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-3)


def test_weighted_norm_exponential_analytic():
    # int exp(-2|x|) dx = 1 exactly
    g = Grid1D(20.0, 24001)
    f = np.exp(-np.abs(g.points))
    assert weighted_l2_norm(f, g, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_weighted_norm_dimension_error():
    g = Grid1D(1.0, 11)
    with pytest.raises(DimensionMismatch):
        weighted_l2_norm(np.ones(10), g)


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
        vals.append(operator_norm_weighted(k, 1.0, 1.0))
    assert vals[1] == pytest.approx(vals[0], rel=0.01)


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(2)
    g = Grid1D(5.0, 101)
    for _ in range(10):
        m = rng.standard_normal((101, 101)) + 1j * rng.standard_normal((101, 101))
        k = KernelOperator(g, g, m)
        s_in, s_out = 3 * rng.random(), 3 * rng.random()
        a = operator_norm_weighted(k, s_in, s_out)  # n <= 2000: the SVD
        b = _power_iteration_norm(k, s_in, s_out)[0]
        assert b == pytest.approx(a, rel=1e-6)


def test_power_norm_at_its_cap_raises(monkeypatch):
    # n > 2000 takes the power iteration; the default cap converges, and a cap
    # of 3 cannot meet the two-hit stopping test
    g = Grid1D(10.0, 2001)
    k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
    assert operator_norm_weighted(k, 1.0, 1.0) > 0
    monkeypatch.setattr(weighted_space, "_POWER_MAX_ITER", 3)
    with pytest.raises(DiscretizationFailure, match="cap of 3 iterations"):
        operator_norm_weighted(k, 1.0, 1.0)


def test_power_norm_stays_linear_in_memory():
    # beyond 2000 points the norm runs on matvec/rmatvec, never on an n x n matrix
    g = Grid1D(10.0, 4001)
    k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
    tracemalloc.start()
    try:
        norm = operator_norm_weighted(k, 1.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norm > 0
    assert peak < 10e6


@pytest.mark.parametrize("d", [1, 3])
def test_svd_norm_same_for_dense_and_semiseparable(d):
    g = Grid1D(8.0, 401) if d == 1 else RadialGrid(8.0, 400)
    k = build_free_kernel_operator(d, g, SpectralParameter.interior(-0.3 + 0.2j))
    assert isinstance(k, SemiseparableKernel)
    dense = KernelOperator(g, g, k.entries)
    assert operator_norm_weighted(k, 1.5, 1.0) == operator_norm_weighted(dense, 1.5, 1.0)


def test_power_iteration_reports_convergence(monkeypatch):
    g = Grid1D(1.0, 3)  # unit spacing; s = 0 makes every weight 1
    k = KernelOperator(g, g, np.diag([3.0, 1.0, 0.5]))
    sigma, v, u, its, ok = _power_iteration_norm(k, 0.0, 0.0)
    assert ok and 2 < its < 100
    assert sigma == pytest.approx(3.0, rel=1e-8)
    assert abs(u[0]) == pytest.approx(1.0, rel=1e-8)
    monkeypatch.setattr(weighted_space, "_POWER_MAX_ITER", 2)
    capped = _power_iteration_norm(k, 0.0, 0.0)
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
    assert l1_to_linf_norm(KernelOperator(g, g, np.zeros((41, 41)))) == 0.0
    gg = Grid1D(20.0, 2001)
    k = build_free_kernel_operator(1, gg, SpectralParameter.interior(-1.0))
    assert l1_to_linf_norm(k) == pytest.approx(0.5, rel=1e-12)
    # the threshold singularity forces sup = 1/(2 sqrt(eps))
    eps = 1e-4
    k2 = build_free_kernel_operator(1, gg, SpectralParameter.interior(-eps))
    assert l1_to_linf_norm(k2) == pytest.approx(1.0 / (2 * np.sqrt(eps)), rel=1e-12)


def test_bounded_entries_bound_l1_linf():
    rng = np.random.default_rng(4)
    g = Grid1D(1.0, 21)
    for _ in range(20):
        bound = 10 * rng.random()
        m = bound * (2 * rng.random((21, 21)) - 1)
        assert l1_to_linf_norm(KernelOperator(g, g, m)) <= bound + 1e-15


def test_kernel_operator_validation():
    g = Grid1D(1.0, 11)
    with pytest.raises(DimensionMismatch):
        KernelOperator(g, g, np.zeros((11, 10)))
    bad = np.zeros((11, 11))
    bad[3, 4] = np.nan
    with pytest.raises(InvalidOperator):
        KernelOperator(g, g, bad)


def test_apply_matches_quadrature():
    g = Grid1D(10.0, 2001)
    k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
    f = np.exp(-g.points**2)
    direct = g.spacing * (k.entries @ f)
    assert np.allclose(k.apply(f), direct)
