"""Null-state / weighted-gap dichotomy and Hardy checks."""

from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from virtlev import criticality
from virtlev.cli import main
from virtlev.criticality import (
    Dichotomy,
    QuadraticForm,
    _dichotomy_once,
    _doubled_verdict,
    _count_clears,
    _gershgorin_and_error,
    _pencil,
    _weighted_gap_search,
    null_state_iteration,
    trace_csv,
)
from virtlev.errors import ConfigError, InvalidOperator
from virtlev.weighted_space import Grid1D, RadialGrid, cell_average, cell_indicator, weight


def resonant_potential(x):
    """V = phi''/phi for phi = 1 + bump: nonnegative critical operator."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xx = np.where(inside, x, 0.0)
    s = 1.0 - xx * xx
    b = np.exp(1.0 - 1.0 / s)
    bpp = b * (4 * xx**2 / s**4 - 2 / s**2 - 8 * xx**2 / s**3)
    return np.where(inside, bpp / (1.0 + b), 0.0)


def bump_potential(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xx = np.where(inside, x, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - xx * xx)), 0.0)


class TestForm:
    def test_tent_energy_analytic(self):
        # h u^T T u with the T of every eigen-solve, on the Dirichlet interior,
        # as sum (d_i + e_{i-1} + e_i) u_i^2 - sum e_i (u_{i+1} - u_i)^2: the
        # plain d.(u u) + 2 e.(u u') cancels about 8000 terms of size 2/h^2
        # to reach 1, in an order the BLAS kernel sets
        form = QuadraticForm(Grid1D(40.0, 8001))
        d, e = form.tridiagonal()
        x = form.grid.points[1:-1]
        row_sums = d + np.r_[0.0, e] + np.r_[e, 0.0]
        for j in (2, 4, 8):
            u = np.clip(1.0 - np.abs(x) / j, 0.0, None)
            du = np.diff(u)
            energy = form.grid.spacing * (np.sum(row_sums * u * u) - np.sum(e * du * du))
            assert energy == pytest.approx(2.0 / j, rel=1e-12)

    def test_negative_form_rejected(self):
        with pytest.raises(InvalidOperator):
            QuadraticForm(Grid1D(40.0, 1601),
                          lambda x: np.where(np.abs(np.asarray(x)) <= 1, -5.0, 0.0))

    def test_complex_potential_rejected(self):
        with pytest.raises(InvalidOperator):
            QuadraticForm(Grid1D(40.0, 1601), lambda x: 1j * np.ones(np.shape(x)))

    @pytest.mark.parametrize("grid", [Grid1D(4.0, 129), RadialGrid(4.0, 128)],
                             ids=["line", "half_line"])
    def test_imaginary_parts_that_cancel_in_every_cell_are_rejected(self, grid):
        # i times the offset from the nearest node is odd about every node, so
        # the symmetric Gauss rule averages it to rounding; no sample is real
        h = grid.spacing

        def sampler(t):
            return 1j * (t - np.round(t / h) * h)

        assert np.max(np.abs(cell_average(sampler, grid).imag)) < 1e-15
        with pytest.raises(InvalidOperator, match="requires a real potential"):
            QuadraticForm(grid, sampler)


class TestDoubling:
    def test_recheck_runs_on_the_doubled_grid(self):
        # `critical --R 60 --n 2401`: a weighted gap on R = 60 and a null
        # state on R = 120, so only a re-check on the doubled grid disagrees
        res = null_state_iteration(QuadraticForm(Grid1D(60.0, 2401)))
        assert res.verdict is Dichotomy.INCONCLUSIVE
        assert res.diagnostics == {"reason": "verdict unstable under radius doubling",
                                   "base": "weighted_gap", "doubled": "null_state"}

    def test_recheck_keeps_the_potential(self):
        # the free line doubled to R = 120 has a null state; the bump keeps its gap
        res = null_state_iteration(QuadraticForm(Grid1D(60.0, 2401), bump_potential))
        assert res.verdict is Dichotomy.WEIGHTED_GAP
        assert res.diagnostics["doubled_verdict"] == "weighted_gap"

    def test_free_forms_have_exactly_zero_potential(self):
        assert np.all(QuadraticForm.free_line(40.0, 1601).v == 0.0)
        assert np.all(QuadraticForm(RadialGrid(40.0, 1600)).v == 0.0)


class TestWeightedGap:
    """c* = lambda_min(B^-1/2 T B^-1/2), B = diag <x>^-4, in one eigen-solve."""

    def test_critical_coupling_against_mpmath(self):
        # 79 interior points; LAPACK's default absolute tolerance is off by
        # 6e-10 relative here
        radius, n = 40.0, 80
        form = QuadraticForm(RadialGrid(radius, n))
        c_star = form.smallest_eigenvalue(weight=weight(form.grid.points, -4.0))
        with mpmath.workdps(40):
            h = mpmath.mpf(radius) / n
            m = n - 1
            scale = [1 + ((i + 1) * h) ** 2 for i in range(m)]  # B^-1/2
            a = mpmath.zeros(m, m)
            for i in range(m):
                a[i, i] = 2 * scale[i] ** 2 / h**2
                if i + 1 < m:
                    a[i, i + 1] = a[i + 1, i] = -scale[i] * scale[i + 1] / h**2
            ref = float(min(mpmath.eigsy(a, eigvals_only=True)))
        assert abs(c_star / ref - 1.0) <= 1e-12

    def test_critical_coupling_is_sharp(self):
        form = QuadraticForm(RadialGrid(320.0, 12800))
        base = weight(form.grid.points, -4.0)
        c_star = form.smallest_eigenvalue(weight=base)
        assert abs(form.smallest_eigenvalue(-c_star * base)) <= 1e-11
        assert form.smallest_eigenvalue(-(1.0 - 1e-6) * c_star * base) > 0
        assert form.smallest_eigenvalue(-(1.0 + 1e-6) * c_star * base) < 0

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_meaningless_window_is_a_config_error(self, radius):
        # an empty window, or one covering the whole grid, gave a verdict
        with pytest.raises(ConfigError, match="must be finite and positive"):
            null_state_iteration(QuadraticForm(Grid1D(80.0, 3201)),
                                 compact_radius=radius)

    @pytest.mark.parametrize("grid", [Grid1D(1e300, 12801), RadialGrid(1e100, 1600),
                                      Grid1D(1e-300, 12801)],
                             ids=["overflow", "radial", "underflow"])
    def test_grid_outside_the_float_range_is_a_config_error(self, grid):
        # h^2 overflowed (a traceback), or <x>^-4 underflowed (a RuntimeWarning);
        # an infinite extent no longer makes a grid (test_weighted_space)
        with pytest.raises(ConfigError, match="must lie in"):
            QuadraticForm(grid)

    def test_no_perturbation_is_a_config_error(self):
        with pytest.raises(ConfigError, match="j_max = 0"):
            null_state_iteration(QuadraticForm(Grid1D(80.0, 3201)), j_max=0)

    def test_reports_half_the_critical_coupling(self):
        form = QuadraticForm(RadialGrid(80.0, 3200))
        base = weight(form.grid.points, -4.0)
        res = null_state_iteration(form)
        assert res.verdict is Dichotomy.WEIGHTED_GAP
        assert res.weight_coefficient == 0.5 * form.smallest_eigenvalue(weight=base)
        assert res.margin == form.smallest_eigenvalue(-res.weight_coefficient * base)
        assert res.margin > 0

    def test_no_positive_gap_raises(self):
        # smallest eigenvalue -5e-11: accepted as nonnegative, but c* < 0
        free = QuadraticForm(Grid1D(40.0, 1601))
        shift = -free.smallest_eigenvalue() - 5e-11
        form = QuadraticForm(free.grid, lambda t: np.full(np.shape(t), shift))
        assert -1e-10 <= form.smallest_eigenvalue() < 0
        with pytest.raises(InvalidOperator):
            _weighted_gap_search(form)


class TestDichotomy:
    def test_free_line_null_state(self):
        form = QuadraticForm(Grid1D(320.0, 12801))
        res = null_state_iteration(form, compact_radius=1.0)
        assert res.verdict is Dichotomy.NULL_STATE
        window = np.abs(form.grid.points) <= 1.0
        assert np.max(np.abs(res.phi[window] - 1.0)) <= 0.05
        assert np.all(res.phi[window] > 0)
        assert res.residual <= 0.05
        lams = [lam for _, lam, _ in res.trace]
        assert all(lam < -1e-12 for lam in lams)
        assert res.diagnostics["doubled_verdict"] == "null_state"

    def test_free_radial_weighted_gap(self):
        res = null_state_iteration(QuadraticForm(RadialGrid(320.0, 12800)))
        assert res.verdict is Dichotomy.WEIGHTED_GAP
        assert res.weight_coefficient > 0
        assert res.margin > 0
        assert res.diagnostics["doubled_verdict"] == "weighted_gap"

    def test_nonnegative_bump_weighted_gap(self):
        form = QuadraticForm(Grid1D(320.0, 12801), bump_potential)
        res = null_state_iteration(form)
        assert res.verdict is Dichotomy.WEIGHTED_GAP

    def test_resonant_potential_null_state(self):
        form = QuadraticForm(Grid1D(320.0, 12801), resonant_potential)
        res = null_state_iteration(form, compact_radius=1.0, conv_tol=0.05)
        assert res.verdict is Dichotomy.NULL_STATE
        # the null state is the bounded zero-energy solution 1 + bump
        x = form.grid.points
        window = np.abs(x) <= 1.0
        ref = 1.0 + bump_potential(x)[window] * 0 + np.exp(
            1.0 - 1.0 / np.maximum(1.0 - x[window] ** 2, 1e-300)) * (np.abs(x[window]) < 1)
        ref = ref / np.max(ref)
        got = res.phi[window] / np.max(res.phi[window])
        assert np.max(np.abs(got - ref)) <= 0.05

    def test_exclusivity_on_curated_suite(self):
        cases = [
            (QuadraticForm(Grid1D(80.0, 3201)), Dichotomy.NULL_STATE),
            (QuadraticForm(RadialGrid(80.0, 3200)), Dichotomy.WEIGHTED_GAP),
            (QuadraticForm(Grid1D(80.0, 3201), bump_potential),
             Dichotomy.WEIGHTED_GAP),
            (QuadraticForm(Grid1D(80.0, 3201), resonant_potential),
             Dichotomy.NULL_STATE),
        ]
        for form, expected in cases:
            res = null_state_iteration(form, conv_tol=0.05)
            assert res.verdict is expected


class TestHardy:
    # int w|u|^2 <= a[u] holds discretely when the bottom of H - w is >= -1e-10
    def test_radial_hardy_below_constant(self):
        form = QuadraticForm(RadialGrid(320.0, 12800))
        r = form.grid.points
        assert form.smallest_eigenvalue(-0.125 / r**2) >= -1e-10

    def test_line_criticality_defeats_any_weight(self):
        # 1D free: a fixed positive weight fails once the grid is long enough
        for radius, n in ((40.0, 1601), (160.0, 6401)):
            form = QuadraticForm(Grid1D(radius, n))
            w = 0.05 * weight(form.grid.points, -4.0)
            assert form.smallest_eigenvalue(-w) < -1e-10

    def test_zero_weight_holds(self):
        form = QuadraticForm(Grid1D(40.0, 1601))
        assert form.smallest_eigenvalue(-np.zeros(form.grid.n_points)) >= 0

    def test_gap_monotone_in_weight(self):
        res = null_state_iteration(QuadraticForm(RadialGrid(80.0, 3200)))
        form = QuadraticForm(RadialGrid(80.0, 3200))
        w = res.weight_coefficient * weight(form.grid.points, -4.0)
        for t in (0.25, 0.5, 1.0):
            assert form.smallest_eigenvalue(-t * w) >= -1e-10


def test_trace_csv_format():
    res = null_state_iteration(QuadraticForm(Grid1D(80.0, 3201)))
    text = trace_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "j,lambda,sup_dist_to_limit"
    assert len(lines) == len(res.trace) + 1
    j, lam, dist = lines[1].split(",")
    assert int(j) == 1 and float(lam) < 0


@pytest.fixture
def solves(monkeypatch):
    """Records every eigen call of the module, one entry per call: ("solve",
    d, e) for `eigh_tridiagonal`, ("count", d, e, x) for a `lapack.dstebz`
    count at or below x.  `tests/test_lattice_guard.py` keeps every such call
    where these patches see it."""
    calls = []
    real_solve, real_count = criticality.eigh_tridiagonal, criticality.lapack.dstebz

    def solve(d, e, *args, **kwargs):
        calls.append(("solve", d, e))
        return real_solve(d, e, *args, **kwargs)

    def count(d, e, rng, vl, vu, *args):
        calls.append(("count", d, e, vu))
        return real_count(d, e, rng, vl, vu, *args)

    monkeypatch.setattr(criticality, "eigh_tridiagonal", solve)
    monkeypatch.setattr(criticality, "lapack", SimpleNamespace(dstebz=count))
    return calls


def kinds(calls) -> list:
    return [c[0] for c in calls]


def _constant(value):
    return lambda t: np.full(np.shape(t), value)


def _well(depth):
    return lambda t: np.where(np.abs(np.asarray(t)) <= 1.0, depth, 0.0)


class TestCertificate:
    """Gershgorin lower bound minus dstebz's error bound replaces the
    nonnegativity solve wherever it clears -1e-10."""

    @pytest.mark.parametrize("build", [
        lambda: QuadraticForm(Grid1D(160.0, 6401)),
        lambda: QuadraticForm(RadialGrid(160.0, 6401)),
        lambda: QuadraticForm(Grid1D(160.0, 6401), bump_potential),
        lambda: QuadraticForm(Grid1D(160.0, 6401), _well(2.0)),
    ], ids=["free_line", "free_radial3d", "bump", "repulsive_well"])
    def test_certified_form_makes_no_solve(self, build, solves):
        build()
        assert solves == []

    def test_negative_part_falls_back_to_a_count(self, solves):
        # criterion 8's resonant potential dips below 0: Gershgorin cannot
        # help, and one count at -1e-10 + delta on the form's own bands can
        form = QuadraticForm(Grid1D(80.0, 3201), resonant_potential)
        d, e = form.tridiagonal()
        [(kind, counted_d, counted_e, x)] = solves
        assert kind == "count" and x == -1e-10 + _gershgorin_and_error(d, e)[1]
        assert np.array_equal(counted_d, d) and np.array_equal(counted_e, e)

    @pytest.mark.parametrize("depth, refused", [(None, False), (-5.0, True)])
    def test_bottom_below_the_count_threshold_is_solved(self, depth, refused, solves):
        # a bottom delta / 2 above -1e-10: the count at -1e-10 + delta sees
        # it and the solve accepts; the -5 well is refused with the solved value
        free = QuadraticForm(Grid1D(40.0, 1601))
        _, delta = _gershgorin_and_error(*free.tridiagonal())
        sampler = (_constant(-free.smallest_eigenvalue() - 1e-10 + delta / 2)
                   if depth is None else _well(depth))
        solves.clear()
        try:
            QuadraticForm(free.grid, sampler)
        except InvalidOperator as exc:
            assert refused and "smallest eigenvalue -" in str(exc)
        else:
            assert not refused
        assert kinds(solves) == ["count", "solve"]

    def test_error_bound_scales_with_the_norm(self):
        # V = 1e30 on |x| <= 1: the bound is 0, and only a delta of order
        # ulp ||T||_1 keeps the certificate from accepting what dstebz refuses
        grid = Grid1D(40.0, 1601)
        d = 2.0 / grid.spacing**2 + np.where(np.abs(grid.points[1:-1]) <= 1, 1e30, 0.0)
        e = np.full(d.size - 1, -1.0 / grid.spacing**2)
        lower, delta = _gershgorin_and_error(d, e)
        assert lower == 0.0
        assert delta == pytest.approx(10 * np.finfo(float).eps * (1e30 + 4 / 0.05**2))
        lam = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)[0]
        assert abs(lam) <= delta

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_potential_certifies_nothing(self, value):
        d = np.array([2.0, value, 2.0])
        lower, delta = _gershgorin_and_error(d, np.array([-1.0, -1.0]))
        assert not lower - delta >= -1e-10

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(h=st.floats(1e-3, 1.0), half=st.integers(2, 100), radial=st.booleans(),
           floor=st.floats(-1e-9, 1e-9),
           dip=st.one_of(st.floats(0.0, 1e-9), st.floats(0.0, 10.0)),
           height=st.floats(0.0, 10.0), center=st.floats(-1.0, 1.0))
    def test_certificate_never_skips_a_refused_form(self, h, half, radial, floor, dip,
                                                    height, center):
        # a floor near 0, a bump above it and a narrow dip below it; over these
        # 200 examples 71 are certified, 111 solved and accepted, 18 refused
        def sampler(t):
            t = np.asarray(t)
            return (floor + height * np.exp(-((t - center) / 0.3) ** 2)
                    - dip * (np.abs(t - center) < 3 * h))

        grid = RadialGrid(h * 2 * half, 2 * half) if radial else Grid1D(h * half, 2 * half + 1)
        free = QuadraticForm(grid)
        v = cell_average(sampler, grid).real
        d, e = free.tridiagonal(v)
        lam = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)[0]
        try:
            QuadraticForm(grid, sampler)
            refused = False
        except InvalidOperator:
            refused = True
        assert refused == (lam < -1e-10)


class TestCount:
    """`_count_clears`: one dstebz count where a solve's sign is all a check
    reads."""

    @pytest.mark.parametrize("grid", [Grid1D(40.0, 201), RadialGrid(40.0, 200),
                                      Grid1D(1e-3, 201), RadialGrid(1e6, 200)],
                             ids=["line", "half_line", "fine_line", "wide_half_line"])
    def test_dirichlet_lattice_bottom(self, grid, solves):
        # -Lap_h on m interior points: (4/h^2) sin^2(k pi / (2 (m + 1)))
        d, e = QuadraticForm(grid).tridiagonal()
        solves.clear()  # h = 1e-5 makes delta > 1e-10: the form's own check counts
        lam1 = 4.0 / grid.spacing**2 * np.sin(np.pi / (2 * (d.size + 1))) ** 2
        assert _count_clears(d, e, lam1 * (1 - 1e-9))
        assert not _count_clears(d, e, lam1 * (1 + 1e-9))
        assert kinds(solves) == ["count", "count"]

    def test_gershgorin_bound_clears_without_a_count(self, solves):
        # tridiag(-1, 3, -1) on 5 points: bound 1, bottom 3 - 2 cos(pi / 6)
        d, e = np.full(5, 3.0), np.full(4, -1.0)
        assert _count_clears(d, e, 1.0)
        assert solves == []
        assert _count_clears(d, e, 1.26) and not _count_clears(d, e, 1.27)
        assert kinds(solves) == ["count", "count"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("band", ["d", "e"])
    def test_non_finite_bands_certify_nothing(self, band, value, solves):
        d, e = np.full(5, 3.0), np.full(4, -1.0)
        (d if band == "d" else e)[2] = value
        for x in (-1e300, 0.0, 1e300):
            assert not _count_clears(d, e, x)
        assert solves == []

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(h=st.floats(1e-3, 1.0), half=st.integers(2, 100), radial=st.booleans(),
           height=st.floats(0.0, 10.0), center=st.floats(-1.0, 1.0))
    def test_a_count_clears_only_what_the_solve_clears(self, h, half, radial, height,
                                                        center):
        # a bump, shifted so the bottom of T sits at threshold + offset delta
        # for each threshold the module counts at: -1e-12 and -1e-10 on T
        # itself at x = threshold + delta, 0 on the pencil bands of c*
        # (bisected at tol = tiny) at x = 0.  Of these 60 x 39 cases, 1101
        # are cleared by a count (285, 290 and 526 per threshold) and 1239
        # are not
        grid = RadialGrid(h * 2 * half, 2 * half) if radial else Grid1D(h * half, 2 * half + 1)
        free = QuadraticForm(grid)
        bump = cell_average(lambda t: height * np.exp(-((t - center) / 0.3) ** 2), grid).real
        bottom = free.smallest_eigenvalue(bump)
        _, delta = _gershgorin_and_error(*free.tridiagonal(bump))
        for threshold in (-1e-12, -1e-10, 0.0):
            for offset in (-4.0, -1.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 4.0):
                v = bump + (threshold + offset * delta - bottom)
                if threshold == 0.0:
                    d, e = _pencil(*free.tridiagonal(v),
                                   weight(grid.points, -4.0)[grid.interior])
                    x, tol = 0.0, np.finfo(float).tiny
                else:
                    d, e = free.tridiagonal(v)
                    x, tol = threshold + _gershgorin_and_error(d, e)[1], 0.0
                lam = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                       eigvals_only=True, tol=tol)[0]
                if _count_clears(d, e, x):
                    assert lam > 0.0 if threshold == 0.0 else lam >= threshold
                else:  # and a count that sees an eigenvalue sees one near x
                    assert lam <= x + _gershgorin_and_error(d, e)[1]


def _last_bottom_form(offset: float):
    """A line form whose last perturbed bottom, at j = 64, lies at
    -1e-12 + offset delta, to within delta / 4."""
    grid = Grid1D(80.0, 3201)
    free = QuadraticForm(grid)
    indicator = cell_indicator(grid, 1.0)
    d_last, e = free.tridiagonal(-(indicator / 64))
    d_first, _ = free.tridiagonal(-indicator)
    _, delta = _gershgorin_and_error(np.maximum(np.abs(d_first), np.abs(d_last)), e)
    target = -1e-12 + offset * delta
    shift = -free.smallest_eigenvalue(-(indicator / 64)) + target
    for _ in range(3):  # the cell average and the solve round: correct twice
        form = QuadraticForm(grid, _constant(shift))
        lam = form.smallest_eigenvalue(-(indicator / 64))
        shift += target - lam
    assert abs(lam - target) < delta / 4
    return form


def _band_form():
    """Between -1e-12 and -1e-12 - 2 delta: neither shortcut of the re-check
    may decide."""
    return _last_bottom_form(-1.0)


def _knife_form():
    """delta / 2 above -1e-12: the count at -1e-12 + delta sees the bottom,
    and only the solve shows that j = 64 does not bind."""
    return _last_bottom_form(0.5)


class TestDoubledVerdict:
    """`_doubled_verdict` is `_dichotomy_once(...).verdict`, error class included."""

    FORMS = {
        "free_line": lambda: QuadraticForm(Grid1D(80.0, 3201)),
        "free_radial3d": lambda: QuadraticForm(RadialGrid(80.0, 3200)),
        "repulsive_well": lambda: QuadraticForm(Grid1D(80.0, 3201), _well(2.0)),
        "bump": lambda: QuadraticForm(Grid1D(80.0, 3201), bump_potential),
        "resonant": lambda: QuadraticForm(Grid1D(80.0, 3201), resonant_potential),
        # the doubled form of `critical --R 60 --n 2401`, whose verdicts differ
        "line_r60_doubled": lambda: QuadraticForm(Grid1D(60.0, 2401).doubled()),
        "band": _band_form,
        "knife": _knife_form,
    }

    @pytest.mark.parametrize("j_max", [1, 3, 48, 64])
    @pytest.mark.parametrize("name", list(FORMS))
    def test_equals_the_full_loop(self, name, j_max):
        form = self.FORMS[name]()
        for conv_tol in (0.02, 0.05):
            want = _dichotomy_once(form, 1.0, j_max, conv_tol).verdict
            assert _doubled_verdict(form, 1.0, j_max, conv_tol) is want

    def test_both_read_the_one_binding_threshold(self, monkeypatch):
        # free line: lambda_min(T - W_j) is -0.048 at j = 4 and -0.014 at
        # j = 8, so a threshold of -0.03 makes j = 8 the first non-binding j
        form = self.FORMS["free_line"]()
        assert _dichotomy_once(form, 1.0, 64, 0.05).verdict is Dichotomy.NULL_STATE
        assert _doubled_verdict(form, 1.0, 64, 0.05) is Dichotomy.NULL_STATE
        monkeypatch.setattr(criticality, "_BINDING", -0.03)
        result = _dichotomy_once(form, 1.0, 64, 0.05)
        assert result.verdict is Dichotomy.WEIGHTED_GAP
        assert result.diagnostics["first_nonbinding_j"] == 8
        assert _doubled_verdict(form, 1.0, 64, 0.05) is Dichotomy.WEIGHTED_GAP

    def test_band_runs_the_full_loop(self, solves):
        form = _band_form()
        solves.clear()
        _doubled_verdict(form, 1.0, 64, 0.02)
        # a count that sees j_last's bottom, its solve, then every j of the loop
        assert kinds(solves) == ["count"] + ["solve"] * (1 + 7)

    @pytest.mark.parametrize("name", ["free_line", "free_radial3d", "line_r60_doubled",
                                      "resonant"])
    def test_solves_only_what_the_verdict_reads(self, name, solves):
        # a null state counts and solves j_last, then solves j_last / 2; a
        # weighted gap counts j_last and c* and solves neither
        form = self.FORMS[name]()
        solves.clear()
        _doubled_verdict(form, 1.0, 64, 0.05)
        want = (["count", "count"] if name == "free_radial3d"
                else ["count", "solve", "solve"])
        assert kinds(solves) == want

    def test_knife_edge_is_solved(self, solves):
        form = _knife_form()
        solves.clear()
        assert _doubled_verdict(form, 1.0, 64, 0.02) is Dichotomy.WEIGHTED_GAP
        # j_last counted and solved; c* > 0 shown by its count
        assert kinds(solves) == ["count", "solve", "count"]

    def test_counts_read_the_bands_their_solves_read(self, solves):
        # T - W_64 at -1e-12 + delta, and the pencil bands of c* at 0
        form = self.FORMS["free_radial3d"]()
        indicator = cell_indicator(form.grid, 1.0)
        d_last, e = form.tridiagonal(-(indicator / 64))
        d_first, _ = form.tridiagonal(-indicator)
        _, delta = _gershgorin_and_error(np.maximum(np.abs(d_first), np.abs(d_last)), e)
        base = weight(form.grid.points, -4.0)
        pencil = _pencil(*form.tridiagonal(), base[form.grid.interior])
        solves.clear()
        _doubled_verdict(form, 1.0, 64, 0.05)
        (_, d1, e1, x1), (_, d2, e2, x2) = solves
        assert x1 == -1e-12 + delta and x2 == 0.0
        assert np.array_equal(d1, d_last) and np.array_equal(e1, e)
        assert np.array_equal(d2, pencil[0]) and np.array_equal(e2, pencil[1])

    def test_raises_where_the_full_loop_raises(self, solves):
        # bottom -5e-13, and a window between the radial quadrature nodes so
        # W_j = 0: no j binds, and c* < 0 has no positive weighted gap
        grid = RadialGrid(40.0, 1600)
        shift = -QuadraticForm(grid).smallest_eigenvalue() - 5e-13
        form = QuadraticForm(grid, _constant(shift))
        assert -1e-12 <= form.smallest_eigenvalue() < 0
        with pytest.raises(InvalidOperator, match="no positive weighted gap"):
            _dichotomy_once(form, 1e-6, 64, 0.02)
        solves.clear()
        with pytest.raises(InvalidOperator, match="no positive weighted gap"):
            _doubled_verdict(form, 1e-6, 64, 0.02)
        # the bottom lies within delta of -1e-12, and c* below 0: each count
        # sees an eigenvalue, and each solve decides
        assert kinds(solves) == ["count", "solve", "count", "solve"]


@pytest.mark.parametrize("argv, want", [
    (["--case", "free1d"], ["solve"] * 7 + ["count"] + ["solve"] * 2),
    (["--case", "free3d"], ["solve"] * 3 + ["count"] * 2),
    (["--case", "potential", "--potential", "bump:amp=2,a=1"], ["solve"] * 3 + ["count"] * 2),
    (["--case", "potential", "--potential", "well:g=-2,a=1"], ["solve"] * 3 + ["count"] * 2),
], ids=["free1d", "free3d", "bump", "repulsive_well"])
def test_critical_verdict_eigensolve_traffic(argv, want, solves, capsys):
    # both forms certified by Gershgorin (no call); the base loop solves 7
    # binding j, or j = 1, c* and the margin; the doubled re-check counts
    # j_last and solves it and j_last / 2, or counts j_last and c*.  A
    # discarded solve brought back fails here.
    assert main(["critical", *argv, "--R", "160", "--n", "6401"]) == 0
    capsys.readouterr()
    assert kinds(solves) == want
