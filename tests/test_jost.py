"""Jost solutions, Wronskians, Green kernels, 1D classification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from virtlev import jost as jost_module
from virtlev.cli import parse_potential
from virtlev.errors import (
    ConfigError,
    DiscretizationFailure,
    InvalidOperator,
    VirtualLevelError,
)
from virtlev.jost import (
    Potential1D,
    _rk4,
    _wronskian_profile,
    classify_threshold_1d,
    green_kernel,
    jost_pair,
    jost_solve,
    wronskian,
)
from virtlev.lap_sweep import OperatorSpec, _dtn_root, _make_engine, discrete_hamiltonian
from virtlev.reports import Classification
from virtlev.weighted_space import Grid1D, zero_potential

GRID = Grid1D(16.0, 6401)  # h = 0.005
GSTAR = np.pi**2 / 4.0  # zero-resonance coupling of the unit square well


def free_potential(grid=GRID):
    return Potential1D(1.0, zero_potential, grid)


def indicator_barrier(grid=GRID):
    return Potential1D.square_well(-1.0, grid)  # V = +1 on [-1, 1]


class TestJostSolve:
    def test_free_equation_constant(self):
        theta = jost_solve(free_potential())[0]
        assert np.max(np.abs(theta - 1.0)) < 1e-12

    def test_barrier_closed_form(self):
        # theta+ = cosh(x-1) inside, cosh2 - sinh2 (x+1) to the left
        theta = jost_solve(indicator_barrier())[0]
        x = GRID.points
        exact = np.where(x >= 1, 1.0,
                         np.where(x >= -1, np.cosh(x - 1),
                                  np.cosh(2.0) - np.sinh(2.0) * (x + 1)))
        assert np.max(np.abs(theta - exact)) < 1e-7
        center = np.argmin(np.abs(x + 1.0))
        assert theta[center] == pytest.approx(np.cosh(2.0), rel=1e-9)

    def test_even_potential_mirror_symmetry(self):
        tp, tm = jost_solve(indicator_barrier())
        assert np.max(np.abs(tm - tp[::-1])) < 1e-10

    def test_nonfinite_potential_rejected(self):
        bad = Potential1D(1.0, lambda x: np.full(np.shape(x), np.nan), GRID)
        with pytest.raises(InvalidOperator):
            jost_solve(bad)


class TestWronskian:
    def test_free_is_zero(self):
        pair = jost_pair(free_potential())
        assert abs(pair.wronskian) <= 1e-10

    def test_barrier_sinh2(self):
        pair = jost_pair(indicator_barrier())
        assert pair.wronskian == pytest.approx(np.sinh(2.0), rel=1e-6)
        assert wronskian(pair) == pytest.approx(np.sinh(2.0), rel=1e-6)

    def test_constancy_for_smooth_potential(self):
        pair = jost_pair(Potential1D.bump(GRID, amplitude=1.0))
        assert pair.wronskian_deviation <= 1e-6 * (1 + abs(pair.wronskian))

    def test_square_well_closed_form(self):
        # W(g) = -sqrt(g) sin(2 sqrt(g)) for the well -g 1_[-1,1]
        for g in (0.5, 2.0, 1.0 + 1.0j):
            pair = jost_pair(Potential1D.square_well(g, GRID))
            expected = -np.sqrt(complex(g)) * np.sin(2 * np.sqrt(complex(g)))
            assert pair.wronskian == pytest.approx(expected, rel=1e-8)

    def test_translation_invariance(self):
        base = jost_pair(Potential1D.square_well(0.7, GRID))
        shifted = jost_pair(Potential1D.square_well(0.7, GRID, center=3.0))
        assert shifted.wronskian == pytest.approx(base.wronskian, rel=1e-8)

    def test_drift_guard_raises(self):
        # 101 points on [-16, 16] resolve the unit well too coarsely: the
        # recorded drift is 3.7e-4, above the 1e-4 tolerance
        pair = jost_pair(Potential1D.square_well(1.0, Grid1D(16.0, 101)))
        assert pair.wronskian_deviation > 1e-4 * max(1.0, abs(pair.wronskian))
        with pytest.raises(DiscretizationFailure, match="Wronskian drifts by"):
            wronskian(pair)

    def test_drift_guard_floor_and_scale(self):
        # |W| = 0.89 < 1 with a drift of 1.8e-4: the floor max(1, |W|) makes
        # 1.8e-4 a failure, where a floor of 2 would accept it
        small = jost_pair(Potential1D.square_well(1.0, Grid1D(16.0, 121)))
        assert abs(small.wronskian) < 1.0
        assert 1e-4 < small.wronskian_deviation < 2e-4
        with pytest.raises(DiscretizationFailure):
            wronskian(small)
        # |W| = 3.6 > 1 with a drift of 2.3e-4: the tolerance grows with |W|
        large = jost_pair(Potential1D.square_well(-1.0, Grid1D(16.0, 161)))
        assert 2.0e-4 < large.wronskian_deviation < 3.0e-4 < 1e-4 * abs(large.wronskian)
        assert wronskian(large) == large.wronskian

    @pytest.mark.parametrize("g,n", [(1.0, 3), (1.0, 5), (1.0, 7), (1.0, 23), (0.0, 5)])
    def test_grid_without_a_drift_point_is_refused(self, g, n):
        # on [-2, 2] the kinks at x = +-1 of the unit well leave no point
        # besides x = 0 up to n = 23; g = 0 has no kinks, and its 5-point grid
        # has x = 0 alone, where a drift is 0 whatever the grid resolves
        with pytest.raises(ConfigError, match=f"the grid of n = {n} points"):
            jost_pair(Potential1D.square_well(g, Grid1D(2.0, n)))

    def test_first_grid_with_a_drift_point_measures_one(self):
        pair = jost_pair(Potential1D.square_well(1.0, Grid1D(2.0, 25)))
        assert 2e-5 < pair.wronskian_deviation < 4e-5

    def test_finite_solutions_whose_wronskian_overflows_are_refused(self):
        # h sqrt(g) = 12.6: theta stays finite (sup 1.6e305), but W(0) and
        # the scale overflow; an inf scale made any |W| count as small
        pot = Potential1D.square_well(4e5, Grid1D(16.0, 1601))
        assert all(np.isfinite(theta).all() for theta in jost_solve(pot))
        with pytest.raises(InvalidOperator, match=r"the Jost data overflow: W\(0\) = -inf"):
            jost_pair(pot)

    def test_overflowing_wronskian_under_a_finite_scale_is_refused(self, monkeypatch):
        # theta-, 6e153 everywhere, doubles just right of x = 0: its centered
        # derivative there is 2e155, so W(0) = 1.2e309 overflows while the
        # scale 1 + sup|theta+| sup|theta-| = 7.2e307 is finite.  Accepted,
        # W = inf would pass as regular with an all-zero Green kernel.
        grid = Grid1D(16.0, 1601)
        theta_plus = np.full(grid.n_points, 6e153 + 0j)
        theta_minus = theta_plus.copy()
        theta_minus[grid.n_points // 2 + 1] *= 2
        monkeypatch.setattr(jost_module, "jost_solve", lambda pot: (theta_plus, theta_minus))
        with pytest.raises(InvalidOperator, match=r"W\(0\) = inf\+0j, .* = 7.2e\+307$"):
            jost_pair(free_potential(grid))

    def test_pair_samples_the_potential_once_per_stencil(self, monkeypatch):
        # both sides step through one set of samples: below, above and midway
        calls = []
        sample = Potential1D.sample

        def counted(self, x):
            calls.append(np.shape(x))
            return sample(self, x)

        monkeypatch.setattr(Potential1D, "sample", counted)
        jost_pair(Potential1D.square_well(1.0, GRID))
        assert calls == [(GRID.n_points,)] * 3

    def test_pair_carries_the_scale(self):
        pair = jost_pair(indicator_barrier())
        sup = np.max(np.abs(pair.theta_plus)) * np.max(np.abs(pair.theta_minus))
        assert pair.scale == 1.0 + sup
        report = classify_threshold_1d(indicator_barrier())
        assert report.diagnostics.keys() == {"jost_pair"}


class TestKinkMask:
    """The curvature-jump detector of `_wronskian_profile`: 1e-7 * max(1,
    sup|theta|) on |Delta^4 theta|, per side, and the 2 points either side
    of a flagged stencil left out of the drift."""

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("base,other,thresh", [(0.5, 1.0, 1e-7), (10.0, 1.0, 1e-6),
                                                   (0.5, 10.0, 1e-7)])
    def test_threshold_scales_with_the_sup_above_one(self, side, base, other, thresh):
        # a bump of d at index 10 of one side gives fourth differences d, 4d,
        # 6d, 4d, d at interior indices 6..10; only the centre stencil crosses
        # 1.2 * thresh, and the threshold follows that side's own sup.  The
        # other side is constant, so W(x) is +-other * theta'(x), which the
        # bump makes nonzero at interior indices 6, 7, 9 and 10: the drift is
        # 0 exactly when all four are left out, and not 0 when none is.
        # W(0) (interior index 18) is 0.
        for frac in (1.2, 0.8):
            thetas = [np.full(41, other, dtype=complex)] * 2
            thetas[side] = np.full(41, base, dtype=complex)
            thetas[side][10] += frac * thresh / 6
            w0, dev = _wronskian_profile(*thetas, 1.0)
            assert w0 == 0
            assert (dev == 0.0) is (frac > 1), (base, frac)

    def test_the_exclusion_stops_two_points_from_a_flag(self):
        # theta+ flags its stencil at interior index 8, which leaves 6..10
        # out; a bump below the threshold at index 11 of theta- moves
        # theta-'(x) at interior indices 7, 8, 10 and 11, so the drift is
        # read at 11 alone: theta+ * theta-' = 0.5 * d / 12 there
        d = 0.8e-7 / 6
        tp = np.full(41, 0.5, dtype=complex)
        tp[10] += 1.2e-7 / 6
        tm = np.ones(41, dtype=complex)
        tm[11] += d
        w0, dev = _wronskian_profile(tp, tm, 1.0)
        assert w0 == 0
        assert dev == pytest.approx(0.5 * d / 12, rel=1e-6)

    def test_weak_well_keeps_its_drift_at_roundoff(self):
        # sup|theta| = 1 for the weak well, so the floor sets the threshold:
        # a floor of 2, or a threshold of 2e-7, lets the jumps at x = +-1
        # into the drift, which then reads 2.8e-10 instead of 2.9e-14
        pair = jost_pair(Potential1D.square_well(0.01, GRID))
        assert pair.wronskian_deviation < 1e-12

    def test_bump_drift_away_from_its_kinks(self):
        # sup|theta| = 26: a threshold of 2e-7 * 26 leaves stencils on the
        # steep flanks (0.84 <= |x| <= 0.94) in, and the drift reads 2.5e-7,
        # not 9.8e-8
        pair = jost_pair(Potential1D.bump(Grid1D(16.0, 1601), amplitude=1.0))
        assert pair.wronskian_deviation < 1.5e-7


class TestGreenKernel:
    def test_solves_inhomogeneous_problem_smooth_potential(self):
        errs = []
        for n in (1601, 3201):
            grid = Grid1D(16.0, n)
            pot = Potential1D.bump(grid, amplitude=1.0)
            pair = jost_pair(pot)
            gk = green_kernel(pair)
            x = grid.points
            h = grid.spacing
            f = np.exp(-(x**2))
            u = gk.apply(f)
            v = pot.sample(x).real
            resid = (-(u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
                     + v[1:-1] * u[1:-1] - f[1:-1])
            errs.append(np.max(np.abs(resid)))
        assert errs[0] / errs[1] > 3.0  # O(h^2)
        assert errs[1] < 1e-3

    def test_solves_inhomogeneous_problem_square_well(self):
        # pointwise FD residuals at the potential jumps are discretization
        # limited; the O(h^2) bound holds off a 2h band around them
        grid = Grid1D(16.0, 3201)
        pot = Potential1D.square_well(-1.0, grid)
        gk = green_kernel(jost_pair(pot))
        x = grid.points
        h = grid.spacing
        f = np.exp(-(x**2))
        u = gk.apply(f)
        v = pot.sample(x).real
        resid = (-(u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
                 + v[1:-1] * u[1:-1] - f[1:-1])
        xi = x[1:-1]
        keep = (np.abs(np.abs(xi) - 1.0) > 2 * h)
        assert np.max(np.abs(resid[keep])) < 1e-4

    def test_virtual_level_error_for_free(self):
        with pytest.raises(VirtualLevelError):
            green_kernel(jost_pair(free_potential()))

    def test_range_is_bounded(self):
        gk = green_kernel(jost_pair(indicator_barrier()))
        assert np.all(np.isfinite(gk.entries))
        assert np.max(np.abs(gk.entries)) < 60.0


class TestClassification:
    def test_free_is_virtual_with_constant_state(self):
        report = classify_threshold_1d(free_potential())
        assert report.classification is Classification.VIRTUAL
        assert report.rank == 1
        assert np.max(np.abs(report.states[0] - 1.0)) < 1e-10

    def test_barrier_is_regular(self):
        report = classify_threshold_1d(indicator_barrier())
        assert report.classification is Classification.REGULAR
        green_kernel(report.diagnostics["jost_pair"])  # a Regular verdict admits one

    def test_nonnegative_bump_family_regular(self):
        for amp in (0.3, 1.0, 2.5):
            report = classify_threshold_1d(Potential1D.bump(GRID, amplitude=amp))
            assert report.classification is Classification.REGULAR
            assert abs(report.diagnostics["jost_pair"].wronskian) > 0

    def test_critical_well_is_virtual(self):
        report = classify_threshold_1d(Potential1D.square_well(GSTAR, GRID))
        assert report.classification is Classification.VIRTUAL
        state = report.states[0]
        # bounded oscillatory profile, sup-normalized
        assert np.max(np.abs(state)) == pytest.approx(1.0)

    def test_near_critical_is_inconclusive(self):
        # W ~ (g - g*) near the resonance; pick a coupling in the gray band
        delta = 5e-5
        report = classify_threshold_1d(Potential1D.square_well(GSTAR + delta, GRID))
        assert report.classification is Classification.INCONCLUSIVE

    def test_complex_wells_classify(self):
        report = classify_threshold_1d(Potential1D.square_well(1.0 + 1.0j, GRID))
        assert report.classification is Classification.REGULAR

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_meaningless_tolerance_is_a_config_error(self, tol, monkeypatch):
        # nan read Regular and inf Virtual for a regular well; nothing is solved
        monkeypatch.setattr("virtlev.jost.jost_pair", None)
        with pytest.raises(ConfigError, match="must be finite and nonnegative"):
            classify_threshold_1d(Potential1D.square_well(1.0, GRID), tol=tol)


def critical_square_well_coupling(grid, lo=1.0, hi=4.0, tol=1e-10):
    """Coupling g* where the square well -g 1_[-1,1] acquires a zero-energy
    resonance, located by bisection on the zero-energy Wronskian."""
    def w_of(g):
        return jost_pair(Potential1D.square_well(g, grid)).wronskian.real

    flo = w_of(lo)
    assert flo * w_of(hi) <= 0, "bracket does not straddle a Wronskian zero"
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        fm = w_of(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_critical_coupling_matches_closed_form():
    g = critical_square_well_coupling(Grid1D(16.0, 3201))
    assert g == pytest.approx(GSTAR, abs=1e-7)


def test_potential_requires_room_on_grid():
    with pytest.raises(ValueError):
        Potential1D(1.0, zero_potential, Grid1D(1.0, 101))


def test_translation_shifts_jost_solution():
    # shifting the potential shifts theta+ by the same amount at z = 0
    base = jost_solve(Potential1D.square_well(0.7, GRID))[0]
    shifted = jost_solve(Potential1D.square_well(0.7, GRID, center=2.0))[0]
    x = GRID.points
    window = np.abs(x) <= 10.0
    interp = np.interp(x[window] - 2.0, x, base.real)
    assert np.max(np.abs(shifted[window].real - interp)) < 1e-6


def _rk4_step(th, dth, h, c_start, c_mid, c_end):
    """One RK4 step for theta'' = V theta on NumPy scalars."""
    k1t, k1d = dth, c_start * th
    k2t, k2d = dth + (h / 2) * k1d, c_mid * (th + (h / 2) * k1t)
    k3t, k3d = dth + (h / 2) * k2d, c_mid * (th + (h / 2) * k2t)
    k4t, k4d = dth + h * k3d, c_end * (th + h * k3t)
    return (th + (h / 6) * (k1t + 2 * k2t + 2 * k3t + k4t),
            dth + (h / 6) * (k1d + 2 * k2d + 2 * k3d + k4d))


def numpy_scalar_jost_solve(pot, side):
    """jost_solve's recurrence stepped one NumPy scalar `_rk4_step` at a time,
    each step indexing the sampled potential: the reference for its bits."""
    kappa = 0j
    x, h, n = pot.grid.points, pot.grid.spacing, pot.grid.n_points
    v_lo, v_hi = pot.sample(x - 1e-9 * h), pot.sample(x + 1e-9 * h)
    v_half = pot.sample(x - h / 2.0)
    theta = np.empty(n, dtype=complex)
    guard = 1e-12 * max(1.0, pot.support_radius)
    if side == "plus":
        i0 = min(int(np.searchsorted(x, pot.support_radius - guard)), n - 1)
        theta[i0:] = np.exp(-kappa * x[i0:])
        th, dth = theta[i0], -kappa * theta[i0]
        for i in range(i0, 0, -1):
            th, dth = _rk4_step(th, dth, -h, v_lo[i], v_half[i], v_hi[i - 1])
            theta[i - 1] = th
    else:
        i0 = max(int(np.searchsorted(x, -pot.support_radius + guard, side="right")) - 1, 0)
        theta[: i0 + 1] = np.exp(kappa * x[: i0 + 1])
        th, dth = theta[i0], kappa * theta[i0]
        for i in range(i0, n - 1):
            th, dth = _rk4_step(th, dth, h, v_hi[i], v_half[i + 1], v_lo[i + 1])
            theta[i + 1] = th
    return theta


@pytest.mark.parametrize("grid", [Grid1D(2.0, 3), Grid1D(3.0, 61), Grid1D(8.0, 801)],
                         ids=lambda g: f"n={g.n_points}")
@pytest.mark.parametrize("spec", ["well:g=1", "well:g=1+1j", "bump:amp=0.5+0.5j",
                                  "well:g=2,a=0.5,center=0.75"])
def test_jost_solve_is_bitwise_the_numpy_scalar_recurrence(spec, grid):
    pot = parse_potential(spec, grid)
    for side, ours in zip(("plus", "minus"), jost_solve(pot)):
        assert ours.tobytes() == numpy_scalar_jost_solve(pot, side).tobytes(), side


def reference_rk4(th, dth, h, steps) -> list:
    """The plain Python-complex RK4 loop, every step taken: the reference for
    the bits of `_rk4`, which takes runs of exact-zero coefficients at once."""
    th, dth, h2, h6 = complex(th), complex(dth), h / 2, h / 6
    out = []
    for c_start, c_mid, c_end in zip(*steps.tolist()):
        k1t, k1d = dth, c_start * th
        k2t, k2d = dth + h2 * k1d, c_mid * (th + h2 * k1t)
        k3t, k3d = dth + h2 * k2d, c_mid * (th + h2 * k2t)
        k4t, k4d = dth + h * k3d, c_end * (th + h * k3t)
        th, dth = (th + h6 * (k1t + 2 * k2t + 2 * k3t + k4t),
                   dth + h6 * (k1d + 2 * k2d + 2 * k3d + k4d))
        out.append(th)
    return out


# the benchmark's jost potentials; well:g=0 has V = -0.0 - 0.0i on its
# support and +0.0 outside, and theta+ of well:g=4 changes sign at x = -1.43
JOST_SPECS = ["well:g=-1", "well:g=0.5", "well:g=4", "bump:amp=1", "bump:amp=0.5+0.5j",
              "well:g=1+1j", "well:g=0.5,center=3", "bump:amp=0.3", "bump:amp=2.5",
              "well:g=0", f"well:g={GSTAR!r}"]


@pytest.mark.parametrize("grid", [GRID, Grid1D(8.0, 801), Grid1D(6.0, 241)],
                         ids=lambda g: f"n={g.n_points}")
@pytest.mark.parametrize("spec", JOST_SPECS)
def test_jost_solve_is_bitwise_the_plain_loop(spec, grid, monkeypatch):
    pot = parse_potential(spec, grid)
    ours = jost_solve(pot)
    monkeypatch.setattr(jost_module, "_rk4", reference_rk4)
    for side, theta, plain in zip(("plus", "minus"), ours, jost_solve(pot)):
        assert theta.tobytes() == plain.tobytes(), side


# Off the threshold the resolvent of a Jost potential is the sweep's solver
# engine; these are the z the Jost solver once took, on a grid it accepts.
OFF_THRESHOLD_LINE = Grid1D(6.0, 1201)  # h = 0.01


@pytest.mark.parametrize("z", [-0.3 + 0.2j, -2.0, 1e-3j, -0.5 + 0.1j])
@pytest.mark.parametrize("spec", JOST_SPECS + ["well:g=1", "well:g=2,a=0.5,center=0.75"])
def test_resolvent_off_the_threshold_is_the_sweep_engine(spec, z):
    pot = parse_potential(spec, OFF_THRESHOLD_LINE)
    op = OperatorSpec.schrodinger1d(pot)
    engine = _make_engine(op, z)
    x, h = OFF_THRESHOLD_LINE.points, OFF_THRESHOLD_LINE.spacing
    t = discrete_hamiltonian(op, z)
    g = np.random.default_rng(11).standard_normal((x.size, 2)) @ [1.0, 1.0j]
    ref = spsolve(t, g) / h
    assert np.linalg.norm(engine.matvec(g) - ref) <= 1e-10 * np.linalg.norm(ref)
    # a point source in the support decays by the lattice root of the free
    # difference equation outside it, the discrete e^{-kappa |x|} of theta+-
    centre, lam = x.size // 2, _dtn_root(z, h)
    assert abs(lam) < 1.0
    col = engine.solve(np.eye(x.size, 1, -centre, dtype=complex))[:, 0]
    right = np.flatnonzero(x > pot.support_radius + 3 * h)
    left = np.flatnonzero(x < -pot.support_radius - 3 * h)[::-1]
    for side in (right, left):
        assert np.max(np.abs(col[side[1:]] - lam * col[side[:-1]])
                      / np.abs(col[side[:-1]])) <= 1e-9
    # complex symmetric, as theta+(x>) theta-(x<) / W is, up to the LU's
    # rounding: T has condition ~1e5 at h = 0.01, more near g* at z = 1e-3i
    far = engine.solve(np.eye(x.size, 1, -right[0], dtype=complex))[:, 0]
    assert abs(far[centre] - col[right[0]]) <= 1e-10 * abs(col[right[0]])


def test_free_region_zero_crossing_is_kept():
    # theta+ of well:g=4 is cos(2(x - 1)) on the well, so it leaves x = -1
    # with theta = cos 4 and theta' = 2 sin 4 and crosses zero at x = -1.43
    theta = jost_solve(Potential1D.square_well(4.0, GRID))[0]
    x = GRID.points
    crossing = x[np.flatnonzero(np.diff(np.signbit(theta.real)))]
    expected = -1.0 - 0.5 / np.tan(4.0)
    assert crossing[crossing < -1.0] == pytest.approx([expected], abs=GRID.spacing)


ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]


def test_rk4_signed_zero_runs_are_bitwise_the_plain_loop():
    # with theta and theta' made of +-0 and +-1, the signs of zero decide
    # the bits: every such start, through a run of one signed zero, a step
    # that mixes two and a run of the other; then runs that overflow
    parts = [0.0, -0.0, 1.0, -1.0]
    starts = [complex(re, im) for re in parts for im in parts]
    cases = [(th, dth, -0.25, [[c1] * 3] * 3 + [[c1, c2, c1]] + [[c2] * 3] * 3)
             for th, dth, c1, c2 in itertools.product(starts, starts, ZEROS, ZEROS)]
    cases += [(th, 1.5e308 + 1j, 0.25, [[c] * 3] * 6)
              for th, c in itertools.product(starts, ZEROS)]
    for th, dth, h, rows in cases:
        steps = np.array(rows, dtype=complex).T
        want = np.array(reference_rk4(th, dth, h, steps), dtype=complex)
        assert _rk4(th, dth, h, steps).tobytes() == want.tobytes(), (th, dth, rows)


# signed zeros decide the bits of a zero coefficient's products, and 1.5e308
# overflows within a few steps
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.5e308])
PARTS = st.one_of(SPECIAL, SPECIAL, SPECIAL, st.floats(-1e3, 1e3, allow_subnormal=False))
START = st.builds(complex, PARTS, PARTS)


@st.composite
def rk4_problems(draw):
    """A start, a signed step and coefficients in segments: runs of one exact
    zero, steps of mixed zeros and steps of any values."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["zero", "mixed", "values"]))
        if kind == "zero":
            rows += [[draw(st.sampled_from(ZEROS))] * 3] * draw(st.integers(1, 40))
        else:
            pool = st.sampled_from(ZEROS) if kind == "mixed" else START
            rows += draw(st.lists(st.lists(pool, min_size=3, max_size=3), min_size=1,
                                  max_size=4))
    h = draw(st.sampled_from([0.25, -0.25, -1.0 / 3.0]))
    return draw(START), draw(START), h, np.array(rows, dtype=complex).T


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rk4_problems())
def test_rk4_is_bitwise_the_plain_loop(problem):
    th, dth, h, steps = problem
    want = np.array(reference_rk4(th, dth, h, steps), dtype=complex)
    assert _rk4(th, dth, h, steps).tobytes() == want.tobytes()


def test_default_jost_loops_over_the_support_only(monkeypatch, capsys):
    # `jost --potential well:g=1` on Grid1D(16, 6401): 400 steps per side
    # cross the well, and the 3000 per side outside it go by cumsum
    from virtlev.cli import main

    counted = {"steps": 0}
    plain, zero_step = jost_module._steps, jost_module._zero_step

    def steps(th, dth, h, coeffs, out):
        counted["steps"] += coeffs.shape[1]
        return plain(th, dth, h, coeffs, out)

    def one_step(*args):
        counted["steps"] += 1
        return zero_step(*args)

    monkeypatch.setattr(jost_module, "_steps", steps)
    monkeypatch.setattr(jost_module, "_zero_step", one_step)
    assert main(["jost", "--potential", "well:g=1"]) == 0
    assert '"classification": "regular"' in capsys.readouterr().out
    support_steps = round(2.0 / GRID.spacing)
    assert 2 * support_steps <= counted["steps"] <= 2 * (support_steps + 4)
