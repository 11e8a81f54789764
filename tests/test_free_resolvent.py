"""Branch conventions, kernel formulas, reduced radial operators."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from virtlev.errors import (
    BranchAmbiguity,
    OnDiagonalSingularity,
    ThresholdSingularity,
    UnsupportedSpectralPoint,
)
from virtlev.free_resolvent import (
    Approach,
    SpectralParameter,
    _generators,
    build_free_kernel_operator,
    free_semiseparable_kernel,
    kernel_1d,
    kernel_2d,
    kernel_3d,
    radial_reduced_kernel_2d,
    sqrt_minus_z,
)
from virtlev.weighted_space import Grid1D, RadialGrid


class TestBranchRoot:
    def test_negative_axis(self):
        assert sqrt_minus_z(SpectralParameter.interior(-1.0)) == pytest.approx(1.0)

    def test_boundary_values(self):
        above, below = Approach.FROM_UPPER_HALF_PLANE, Approach.FROM_LOWER_HALF_PLANE
        assert sqrt_minus_z(SpectralParameter(1.0, above)) == pytest.approx(-1j)
        assert sqrt_minus_z(SpectralParameter(1.0, below)) == pytest.approx(1j)
        assert sqrt_minus_z(SpectralParameter(4.0, above)) == pytest.approx(-2j)

    def test_off_axis_value(self):
        w = sqrt_minus_z(SpectralParameter.interior(2j))
        assert w == pytest.approx(1.0 - 1.0j, rel=1e-14)
        assert w * w == pytest.approx(-2j)

    def test_positive_real_part_off_cut(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = complex(4 * rng.random() - 2, 4 * rng.random() - 2)
            if z.imag == 0 and z.real >= 0:
                continue
            assert sqrt_minus_z(SpectralParameter.interior(z)).real > 0

    def test_cut_requires_side(self):
        with pytest.raises(BranchAmbiguity):
            sqrt_minus_z(SpectralParameter.interior(1.0))
        with pytest.raises(BranchAmbiguity):
            sqrt_minus_z(SpectralParameter.interior(0.0))

    def test_continuity_toward_upper_boundary(self):
        # along rays z0 (1 + t e^{i theta}), theta in (0, pi), the principal
        # root approaches the upper-boundary value -i sqrt(z0)
        z0 = 2.5
        target = sqrt_minus_z(SpectralParameter(z0, Approach.FROM_UPPER_HALF_PLANE))
        for theta in (0.3 * np.pi, 0.5 * np.pi, 0.9 * np.pi):
            prev = None
            for t in (1e-2, 1e-4, 1e-6):
                w = sqrt_minus_z(SpectralParameter.interior(z0 * (1 + t * np.exp(1j * theta))))
                gap = abs(w - target)
                if prev is not None:
                    assert gap < prev
                prev = gap
            assert prev < 1e-5


class TestKernel1D:
    def test_values(self):
        p = SpectralParameter.interior(-1.0)
        assert kernel_1d(0.0, 0.0, p) == pytest.approx(0.5)
        assert kernel_1d(1.0, 0.0, p) == pytest.approx(np.exp(-1.0) / 2.0, rel=1e-14)
        assert kernel_1d(1.0, 0.0, p) == kernel_1d(0.0, 1.0, p)

    def test_threshold_blowup_forced_by_formula(self):
        p = SpectralParameter.interior(-1e-4)
        assert kernel_1d(0.0, 0.0, p) == pytest.approx(50.0, rel=1e-12)

    def test_no_kernel_at_zero(self):
        with pytest.raises(ThresholdSingularity):
            kernel_1d(0.0, 1.0, SpectralParameter(0.0, Approach.ALONG_NEGATIVE_AXIS))


class TestKernel3D:
    def test_threshold_limit(self):
        p0 = SpectralParameter(0.0, Approach.ALONG_NEGATIVE_AXIS)
        assert kernel_3d(1.0, p0) == pytest.approx(1.0 / (4 * np.pi), rel=1e-14)

    def test_value_at_minus_one(self):
        p = SpectralParameter.interior(-1.0)
        assert kernel_3d(1.0, p) == pytest.approx(np.exp(-1.0) / (4 * np.pi), rel=1e-14)

    def test_outgoing_boundary_value(self):
        p = SpectralParameter(1.0, Approach.FROM_UPPER_HALF_PLANE)
        val = kernel_3d(2.0, p)
        assert val == pytest.approx(np.exp(2j) / (8 * np.pi), rel=1e-14)
        assert abs(val) == pytest.approx(1.0 / (8 * np.pi), rel=1e-14)

    def test_diagonal_rejected(self):
        with pytest.raises(OnDiagonalSingularity):
            kernel_3d(0.0, SpectralParameter.interior(-1.0))


class TestKernel2D:
    def test_value_from_bessel_oracle(self):
        # K0(1) from the independent quadrature oracle in test_bessel
        val = kernel_2d(1.0, SpectralParameter.interior(-1.0))
        assert val == pytest.approx(0.42102443824070834 / (2 * np.pi), rel=1e-10)

    def test_log_divergence_near_threshold(self):
        gamma = 0.5772156649015329
        z = -1e-8
        val = kernel_2d(1.0, SpectralParameter.interior(z))
        expected = (-np.log(1e-4 / 2.0) - gamma) / (2 * np.pi)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_real_positive_for_negative_z(self):
        for z in (-0.1, -1.0, -25.0):
            v = complex(kernel_2d(0.7, SpectralParameter.interior(z)))
            assert v.imag == 0.0 and v.real > 0.0

    def test_positive_axis_unsupported(self):
        with pytest.raises(UnsupportedSpectralPoint):
            kernel_2d(1.0, SpectralParameter(1.0, Approach.FROM_UPPER_HALF_PLANE))
        with pytest.raises(UnsupportedSpectralPoint):
            kernel_2d(1.0, SpectralParameter(0.0, Approach.ALONG_NEGATIVE_AXIS))


def test_kernel_symmetry_and_conjugation_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = complex(3 * rng.random() - 3.5, 2 * rng.random() - 1)
        if z.imag == 0:
            z += 0.1j
        p = SpectralParameter.interior(z)
        pc = SpectralParameter.interior(np.conj(z))
        x, y = 5 * rng.random(), 5 * rng.random()
        r = 0.1 + 4 * rng.random()
        assert kernel_1d(x, y, p) == kernel_1d(y, x, p)
        assert np.conj(kernel_1d(x, y, p)) == pytest.approx(kernel_1d(x, y, pc), rel=1e-12)
        assert np.conj(kernel_3d(r, p)) == pytest.approx(kernel_3d(r, pc), rel=1e-12)
        assert np.conj(kernel_2d(r, p)) == pytest.approx(kernel_2d(r, pc), rel=1e-12)


def reduced_3d_entries(grid, w):
    """Dense s-wave reduced 3D kernel on a RadialGrid, from the O(n) generators."""
    return free_semiseparable_kernel(3, grid, w).entries


class TestReducedRadialKernels:
    def test_3d_reduction_matches_interval_integral(self):
        # the s-wave kernel equals (1/2) int_{|r-rho|}^{r+rho} e^{-w t} dt;
        # (r, rho) are sampled among the points of the grid
        grid = RadialGrid(5.0, 500)
        rng = np.random.default_rng(7)
        for _ in range(40):
            i, j = rng.integers(0, grid.n_points, 2)
            r, rho = grid.points[i], grid.points[j]
            w = complex(2 * rng.random() + 0.01, rng.random() - 0.5)
            lo, hi = abs(r - rho), r + rho
            re, _ = quad(lambda t: np.real(np.exp(-w * t)) / 2, lo, hi)
            im, _ = quad(lambda t: np.imag(np.exp(-w * t)) / 2, lo, hi)
            assert complex(reduced_3d_entries(grid, w)[i, j]) == pytest.approx(
                complex(re, im), rel=1e-10, abs=1e-12)

    def test_3d_reduction_threshold_is_min(self):
        k = reduced_3d_entries(RadialGrid(4.0, 4), 0.0)  # points 1, 2, 3, 4
        assert k[1, 2] == pytest.approx(2.0)
        assert k[2, 1] == pytest.approx(2.0)

    def test_3d_small_argument_branch_is_smooth(self):
        # expm1 keeps the kernel accurate on both sides of |2 w r_<| = 1e-4
        for u in (0.99e-4, 1.01e-4):
            w = u / 2.0
            a = complex(reduced_3d_entries(RadialGrid(3.0, 3), w)[0, 1])  # r = 1, rho = 2
            exact = np.sinh(w) * np.exp(-2 * w) / w
            assert a == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("w", [0.01 - 20.0j, 30.0 - 20.0j, 50.0])
    def test_3d_grid_against_mpmath(self, w):
        # sinh(w r_<) exp(-w r_>) / w with Im(w) dominant or Re(w) R = 2000
        grid = RadialGrid(40.0, 1000)
        r = grid.points
        k = reduced_3d_entries(grid, w)
        assert np.all(np.isfinite(k))
        rng = np.random.default_rng(9)
        i = rng.integers(0, 1000, 48)
        j = np.r_[rng.integers(0, 1000, 24), np.clip(i[24:] + rng.integers(-4, 5, 24), 0, 999)]
        with mpmath.workdps(30):
            wm = mpmath.mpc(complex(w).real, complex(w).imag)
            ref = np.array([complex(mpmath.sinh(wm * min(r[a], r[b]))
                                    * mpmath.exp(-wm * max(r[a], r[b])) / wm)
                            for a, b in zip(i, j)])
        got = k[i, j]
        normal = np.abs(ref) > 1e-290
        assert np.sum(normal) >= 24
        assert np.all(np.abs(got - ref)[normal] <= 1e-12 * np.abs(ref[normal]))
        assert np.all(np.abs(got[~normal]) <= 1e-280)

    def test_2d_reduction_symmetry(self):
        vals1 = radial_reduced_kernel_2d(1.3, 0.4, 0.5)
        vals2 = radial_reduced_kernel_2d(0.4, 1.3, 0.5)
        assert complex(vals1) == pytest.approx(complex(vals2), rel=1e-14)


def _pairwise_reference(r, rho, w):
    """The unfolded formula: both generator products, selected by r <= rho,
    times the complex exp(-w |r - rho|) of every pair."""
    r, rho, w = np.asarray(r, dtype=float), np.asarray(rho, dtype=float), complex(w)
    left_r, right_r = _generators(2, r, w)
    left_rho, right_rho = _generators(2, rho, w)
    near = np.where(r <= rho, left_r * right_rho, left_rho * right_r)
    return near * np.exp(-w * np.abs(r - rho))


# real, complex, on the positive cut (Re w = 0) and Im(w)-dominant; Im(w) R <= 15
FOLD_WS = (1e-3, 5.0, 0.5 - 0.5j, 1.2 + 1.5j, -0.8j, 1e-2 + 0.7j)


class TestFoldedPhase:
    @pytest.mark.parametrize("w", FOLD_WS)
    def test_full_grid_matches_pairwise_formula(self, w):
        r = RadialGrid(10.0, 1000).points
        got = radial_reduced_kernel_2d(r[:, None], r[None, :], w)
        ref = _pairwise_reference(r[:, None], r[None, :], w)
        assert got.dtype == complex and got.shape == (1000, 1000)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_shapes(self):
        w = 0.7 - 1.1j
        rng = np.random.default_rng(2)
        for r, rho in ((1.3, 0.4), (np.array(0.4), np.array(1.3)),
                       (4 * rng.random(7) + 0.01, 4 * rng.random(7) + 0.01),
                       ((4 * rng.random(5) + 0.01)[:, None], (4 * rng.random(3) + 0.01)[None, :])):
            got = radial_reduced_kernel_2d(r, rho, w)
            ref = _pairwise_reference(r, rho, w)
            assert np.shape(got) == np.shape(ref) and np.asarray(got).dtype == complex
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # unsorted radii: every entry depends on its own pair only
        r = RadialGrid(10.0, 200).points
        perm = rng.permutation(r.size)
        full = radial_reduced_kernel_2d(r[:, None], r[None, :], w)
        shuffled = radial_reduced_kernel_2d(r[perm][:, None], r[None, :], w)
        assert np.max(np.abs(shuffled - full[perm])) <= 1e-15 * np.max(np.abs(full))

    def test_grid_build_keeps_one_block_of_scratch(self):
        # peak: the complex output and one block of exponents and r > rho
        # flags (32 rows of 1000 here, 1.02x the output); the pairwise
        # formula peaks at 3x
        r = RadialGrid(10.0, 1000).points
        radial_reduced_kernel_2d(r[:2], r[:2], 0.5)  # import scipy.special outside the trace
        tracemalloc.start()
        try:
            k = radial_reduced_kernel_2d(r[:, None], r[None, :], 0.5 - 0.5j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * k.nbytes

    @pytest.mark.parametrize("w", FOLD_WS)
    def test_blocks_match_rows_bit_for_bit(self, w):
        # 70 rows of 1000 pairs run as blocks of 32, 32 and 6 rows; each row
        # alone is one block, so block edges must not change a single bit
        r = RadialGrid(10.0, 1000).points
        rows = r[::13][:70, None]
        got = radial_reduced_kernel_2d(rows, r[None, :], w)
        ref = np.concatenate([radial_reduced_kernel_2d(x[None], r[None, :], w) for x in rows])
        assert got.shape == (70, 1000)
        assert got.tobytes() == ref.tobytes()
        # empty broadcasts keep their shape
        assert radial_reduced_kernel_2d(np.zeros((5, 0)), 1.0, w).shape == (5, 0)
        assert radial_reduced_kernel_2d(np.array([]), np.array([]), w).shape == (0,)


class TestBuildOperator:
    def test_1d_l1_linf(self):
        g = Grid1D(20.0, 2001)
        k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
        assert k.max_abs_entry() == pytest.approx(0.5, rel=1e-13)

    def test_kernel_matrix_symmetric(self):
        g = RadialGrid(10.0, 200)
        for d in (2, 3):
            k = build_free_kernel_operator(d, g, SpectralParameter.interior(-0.5))
            assert np.allclose(k.entries, k.entries.T)

    def test_resolvent_identity_second_order(self):
        # (-d^2/dx^2 - z)(K f) = f to O(h^2) on interior points
        errs = []
        for n in (2001, 4001):
            g = Grid1D(12.0, n)
            h = g.spacing
            k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
            f = np.exp(-g.points**2)
            u = k.apply(f)
            resid = (-(u[2:] - 2 * u[1:-1] + u[:-2]) / h**2 + u[1:-1]) - f[1:-1]
            errs.append(np.max(np.abs(resid)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] < 1e-5

    def test_dimension_grid_mismatch(self):
        with pytest.raises(TypeError):
            build_free_kernel_operator(1, RadialGrid(5.0, 50),
                                       SpectralParameter.interior(-1.0))
        with pytest.raises(TypeError):
            build_free_kernel_operator(3, Grid1D(5.0, 51),
                                       SpectralParameter.interior(-1.0))
        with pytest.raises(ValueError):
            build_free_kernel_operator(4, RadialGrid(5.0, 50),
                                       SpectralParameter.interior(-1.0))

    def test_build_and_apply_stay_linear_in_memory(self):
        # a dense 4001-point kernel is 128 MB; the semiseparable one is O(n)
        g = Grid1D(10.0, 4001)
        f = np.exp(-g.points**2)
        tracemalloc.start()
        try:
            k = build_free_kernel_operator(1, g, SpectralParameter.interior(-1.0))
            u = k.apply(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.shape == (4001,) and np.all(np.isfinite(u))
        assert peak < 5e6

    def test_3d_threshold_operator_is_finite(self):
        g = RadialGrid(10.0, 500)
        k = build_free_kernel_operator(3, g, SpectralParameter(0.0, Approach.ALONG_NEGATIVE_AXIS))
        assert np.all(np.isfinite(k.entries))
        r = g.points
        assert np.allclose(k.entries, np.minimum.outer(r, r))


def test_along_negative_axis_validation():
    with pytest.raises(ValueError):
        SpectralParameter(1.0, Approach.ALONG_NEGATIVE_AXIS)
    with pytest.raises(ValueError):
        SpectralParameter(1j, Approach.ALONG_NEGATIVE_AXIS)
    assert SpectralParameter(-2.0, Approach.ALONG_NEGATIVE_AXIS).z == -2.0


def test_1d_weighted_norm_diverges_like_inverse_sqrt():
    # L2_1 -> L2_-1 norms of the free kernel grow like eps^{-1/2}
    from virtlev.weighted_space import _power_iteration_norm
    g = Grid1D(20.0, 2001)
    radii = (1e-2, 1e-3, 1e-4, 1e-5)
    norms = []
    for eps in radii:
        k = build_free_kernel_operator(1, g, SpectralParameter.interior(-eps))
        sigma, _, _, _, converged = _power_iteration_norm(k, 1.0, 1.0)
        assert converged
        norms.append(sigma)
    slope = np.polyfit(-np.log(radii), np.log(norms), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_1d_outgoing_oscillation_on_the_cut():
    # from the upper half-plane the kernel carries exp(i sqrt(z0) |x-y|)
    p = SpectralParameter(4.0, Approach.FROM_UPPER_HALF_PLANE)
    for d in (0.0, 0.7, 2.3):
        val = kernel_1d(d, 0.0, p)
        assert val == pytest.approx(np.exp(2j * d) / (-4j), rel=1e-14)
        assert abs(val) == pytest.approx(0.25, rel=1e-14)
