"""Jost solutions, Wronskians, Green kernels, 1D classification."""

import numpy as np
import pytest

from virtlev.errors import (
    DiscretizationFailure,
    InvalidOperator,
    UnsupportedSpectralPoint,
    VirtualLevelError,
)
from virtlev.jost import (
    Potential1D,
    classify_threshold_1d,
    green_kernel,
    jost_pair,
    jost_solve,
    wronskian,
)
from virtlev.reports import Classification
from virtlev.weighted_space import Grid1D

GRID = Grid1D(16.0, 6401)  # h = 0.005
GSTAR = np.pi**2 / 4.0  # zero-resonance coupling of the unit square well


def zero_potential(grid=GRID):
    return Potential1D(1.0, lambda x: np.zeros(np.shape(x)), grid)


def indicator_barrier(grid=GRID):
    return Potential1D.square_well(-1.0, grid)  # V = +1 on [-1, 1]


class TestJostSolve:
    def test_free_equation_constant(self):
        theta = jost_solve(zero_potential(), 0.0, "plus")
        assert np.max(np.abs(theta - 1.0)) < 1e-12

    def test_barrier_closed_form(self):
        # theta+ = cosh(x-1) inside, cosh2 - sinh2 (x+1) to the left
        theta = jost_solve(indicator_barrier(), 0.0, "plus")
        x = GRID.points
        exact = np.where(x >= 1, 1.0,
                         np.where(x >= -1, np.cosh(x - 1),
                                  np.cosh(2.0) - np.sinh(2.0) * (x + 1)))
        assert np.max(np.abs(theta - exact)) < 1e-7
        center = np.argmin(np.abs(x + 1.0))
        assert theta[center] == pytest.approx(np.cosh(2.0), rel=1e-9)

    def test_even_potential_mirror_symmetry(self):
        tp = jost_solve(indicator_barrier(), 0.0, "plus")
        tm = jost_solve(indicator_barrier(), 0.0, "minus")
        assert np.max(np.abs(tm - tp[::-1])) < 1e-10

    def test_negative_energy_exponentials(self):
        theta = jost_solve(zero_potential(), -1.0, "plus")
        exact = np.exp(-GRID.points)
        assert np.max(np.abs(theta - exact) / exact) < 1e-9

    def test_positive_axis_rejected(self):
        with pytest.raises(UnsupportedSpectralPoint):
            jost_solve(zero_potential(), 1.0, "plus")

    def test_nonfinite_potential_rejected(self):
        bad = Potential1D(1.0, lambda x: np.full(np.shape(x), np.nan), GRID)
        with pytest.raises(InvalidOperator):
            jost_solve(bad, 0.0, "plus")


class TestWronskian:
    def test_free_is_zero(self):
        pair = jost_pair(zero_potential())
        assert abs(pair.wronskian) <= 1e-10

    def test_barrier_sinh2(self):
        pair = jost_pair(indicator_barrier())
        assert pair.wronskian == pytest.approx(np.sinh(2.0), rel=1e-6)
        assert wronskian(pair) == pytest.approx(np.sinh(2.0), rel=1e-6)

    def test_free_negative_energy_is_two(self):
        pair = jost_pair(zero_potential(), -1.0)
        assert pair.wronskian == pytest.approx(2.0, rel=1e-6)

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
        pair = jost_pair(indicator_barrier())
        ragged = pair.theta_plus + 1e-2 * np.sin(37.0 * GRID.points)
        with pytest.raises(DiscretizationFailure):
            wronskian((ragged, pair.theta_minus), GRID)


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
            green_kernel(jost_pair(zero_potential()))

    def test_range_is_bounded(self):
        gk = green_kernel(jost_pair(indicator_barrier()))
        assert np.all(np.isfinite(gk.entries))
        assert np.max(np.abs(gk.entries)) < 60.0


class TestClassification:
    def test_free_is_virtual_with_constant_state(self):
        report = classify_threshold_1d(zero_potential())
        assert report.classification is Classification.VIRTUAL
        assert report.rank == 1
        assert np.max(np.abs(report.states[0] - 1.0)) < 1e-10

    def test_barrier_is_regular(self):
        report = classify_threshold_1d(indicator_barrier())
        assert report.classification is Classification.REGULAR
        assert "green_kernel" in report.diagnostics

    def test_nonnegative_bump_family_regular(self):
        for amp in (0.3, 1.0, 2.5):
            report = classify_threshold_1d(Potential1D.bump(GRID, amplitude=amp))
            assert report.classification is Classification.REGULAR
            assert abs(report.diagnostics["wronskian"]) > 0

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
        Potential1D(1.0, lambda x: np.zeros(np.shape(x)), Grid1D(1.0, 101))


def test_translation_shifts_jost_solution():
    # shifting the potential shifts theta+ by the same amount at z = 0
    base = jost_solve(Potential1D.square_well(0.7, GRID), 0.0, "plus")
    shifted = jost_solve(Potential1D.square_well(0.7, GRID, center=2.0), 0.0, "plus")
    x = GRID.points
    window = np.abs(x) <= 10.0
    interp = np.interp(x[window] - 2.0, x, base.real)
    assert np.max(np.abs(shifted[window].real - interp)) < 1e-6
