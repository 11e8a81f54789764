"""Sweeps, exponent fits, classification, resolvent consistency."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack

from virtlev import lap_sweep as ls
from virtlev import weighted_space as wsp
from virtlev.errors import ConfigError, FitError, NearSpectrum
from virtlev.free_resolvent import SpectralParameter, _generators, build_free_kernel_operator
from virtlev.jost import Potential1D, green_kernel, jost_pair
from virtlev.lap_sweep import (
    OperatorSpec,
    SweepConfig,
    SweepPoint,
    SweepResult,
    apply_shifted_operator,
    classify,
    discrete_hamiltonian,
    fit_exponent,
    fit_log_divergence,
    resolvent_matrix,
    sweep,
    sweep_csv,
)
from virtlev.reports import Classification
from virtlev.weighted_space import Grid1D, KernelOperator, RadialGrid, operator_norm_weighted

GRID = Grid1D(16.0, 3201)  # h = 0.01
SUITE_RADII = tuple(3e-2 * 10 ** (-0.5 * k) for k in range(7))


def zero_potential(grid=GRID):
    return Potential1D(1.0, lambda x: np.zeros(np.shape(x)), grid)


class TestResolventMatrix:
    def test_free1d_matches_kernel_formula(self):
        k = resolvent_matrix(OperatorSpec.free1d(GRID), -1.0)
        ref = build_free_kernel_operator(1, GRID, SpectralParameter.interior(-1.0))
        assert np.max(np.abs(k.entries - ref.entries)) < 1e-10

    def test_schrodinger_free_consistency_order_h2(self):
        errs = []
        for grid in (Grid1D(8.0, 1601), Grid1D(8.0, 3201)):
            pot = zero_potential(grid)
            s = resolvent_matrix(OperatorSpec.schrodinger1d(pot), -1.0)
            ref = build_free_kernel_operator(1, grid, SpectralParameter.interior(-1.0))
            errs.append(np.max(np.abs(s.entries - ref.entries)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_schrodinger_matches_jost_green_kernel_at_threshold(self):
        grid = Grid1D(8.0, 1601)
        pot = Potential1D.square_well(-1.0, grid)
        gk = green_kernel(jost_pair(pot))
        scale = np.max(np.abs(gk.entries))
        err6 = np.max(np.abs(
            resolvent_matrix(OperatorSpec.schrodinger1d(pot), -1e-6).entries
            - gk.entries))
        err8 = np.max(np.abs(
            resolvent_matrix(OperatorSpec.schrodinger1d(pot), -1e-8).entries
            - gk.entries))
        # O(h^2) + O(sqrt|z|): the sqrt-z part dominates and shrinks 10x
        assert err8 < 0.2 * err6
        assert err8 < 5e-3 * scale

    def test_schrodinger3d_free_consistency(self):
        grid = RadialGrid(10.0, 1000)
        free = resolvent_matrix(OperatorSpec.free3d_radial(grid), -0.5)
        schrod = resolvent_matrix(
            OperatorSpec.schrodinger3d_radial(grid, lambda r: np.zeros(np.shape(r)),
                                              support=1.0), -0.5)
        assert np.max(np.abs(free.entries - schrod.entries)) < 5e-4

    def test_near_spectrum_raises(self):
        # hit the bound state of a deep well: the Dirichlet eigenvalue of the
        # lattice operator agrees with the transparent-closure one to ~e^{-2 kappa R}
        from scipy.linalg import eigh_tridiagonal
        pot = Potential1D.square_well(2.0, GRID)
        spec = OperatorSpec.schrodinger1d(pot)
        h = GRID.spacing
        t = discrete_hamiltonian(spec, 0.0).toarray()
        e_h = float(eigh_tridiagonal(np.real(np.diag(t))[1:-1],
                                     np.full(GRID.n_points - 3, -1.0 / h**2),
                                     select="i", select_range=(0, 0),
                                     eigvals_only=True)[0])
        assert e_h < -0.5
        with pytest.raises(NearSpectrum):
            resolvent_matrix(spec, e_h)

    def test_resolution_contract_enforced(self):
        coarse = Grid1D(16.0, 801)  # h = 0.04 > 0.01
        with pytest.raises(ConfigError):
            resolvent_matrix(OperatorSpec.free1d(coarse), -1.0)

    @pytest.mark.parametrize("n,z,passes", [
        (201, -1.0, True),   # h = 0.01, at the spacing limit
        (199, -1.0, False),  # h = 0.0101
        # h = 0.005 at z = k^2, where the wavelength / 20 is 0.005 and 0.005 / 1.01
        (401, (2 * np.pi / 0.1) ** 2, True),
        (401, (1.01 * 2 * np.pi / 0.1) ** 2, False),
    ])
    def test_resolution_limits_at_their_boundary(self, n, z, passes):
        op = OperatorSpec.free1d(Grid1D(1.0, n))
        if passes:
            op.check_resolution(z)
        else:
            with pytest.raises(ConfigError, match="exceeds the resolution limit"):
                op.check_resolution(z)


class TestSweepConfig:
    def test_requires_five_radii_three_decades(self):
        with pytest.raises(ConfigError):
            SweepConfig(radii=(1e-2, 1e-3, 1e-4))
        with pytest.raises(ConfigError):
            SweepConfig(radii=(1e-2, 5e-3, 2e-3, 1e-3, 5e-4))
        # only None selects the default ladder; an empty tuple is too short
        with pytest.raises(ConfigError, match="at least 5 radii"):
            SweepConfig(radii=())

    @pytest.mark.parametrize("geometry,message", [
        ({"s": np.nan}, "s = nan"),
        ({"sp": np.inf}, "sp = inf"),
        ({"angle": np.inf}, "angle = inf"),
        ({"z0": complex(0.0, np.nan)}, "z0 = "),
        ({"radii": (0.0,) + SUITE_RADII}, "finite and positive"),
        ({"radii": (-1.0,) + SUITE_RADII}, "finite and positive"),
        ({"radii": (np.inf,) + SUITE_RADII}, "finite and positive"),
        ({"radii": (np.nan,) + SUITE_RADII}, "finite and positive"),
    ])
    def test_rejects_meaningless_geometry(self, geometry, message, monkeypatch):
        def forbidden(self, radius):
            raise AssertionError("point() reached")

        monkeypatch.setattr(SweepConfig, "point", forbidden)
        with pytest.raises(ConfigError, match=message):
            SweepConfig(**geometry)

    def test_rejects_points_on_the_cut(self):
        with pytest.raises(ConfigError):
            SweepConfig(z0=1.0, angle=0.0)

    def test_default_radii_geometry(self):
        cfg = SweepConfig()
        assert len(cfg.radii) == 9
        assert cfg.radii[0] == pytest.approx(1e-2)
        ratios = np.diff(np.log10(np.array(cfg.radii)))
        assert np.allclose(ratios, -0.5)

    def test_axis_rays_are_exact(self):
        cfg = SweepConfig(z0=0.0, angle=np.pi)
        assert cfg.point(1e-3) == -1e-3
        cfg2 = SweepConfig(z0=1.0, angle=np.pi / 2)
        assert cfg2.point(1e-3) == 1.0 + 1e-3j


def _result(pairs) -> SweepResult:
    """A sweep whose points have the given (radius, norm) pairs."""
    return SweepResult([SweepPoint(r, -r, norm) for r, norm in pairs], SweepConfig())


class TestFits:
    def test_exact_power_law(self):
        pts = _result((r, 3.0 * r**-0.5) for r in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        alpha, r2 = fit_exponent(pts)
        assert alpha == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_norms(self):
        pts = _result((r, 7.0) for r in (1e-2, 1e-3, 1e-4, 1e-5))
        alpha, r2 = fit_exponent(pts)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_exact_log_growth(self):
        pts = _result((r, 2.0 + 0.5 * np.log(1 / r)) for r in (1e-2, 1e-3, 1e-4, 1e-5))
        slope, r2 = fit_log_divergence(pts)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_fit_errors(self):
        with pytest.raises(FitError):
            fit_exponent(_result([(1e-2, 1.0), (1e-3, 2.0)]))
        with pytest.raises(FitError):
            fit_exponent(_result([(1e-2, 1.0)] * 5))
        with pytest.raises(FitError):
            fit_exponent(_result([(1e-2, -1.0), (1e-3, 1.0), (1e-4, 1.0), (1e-5, 1.0)]))


class TestSweep:
    def test_free1d_divergence_rate(self):
        cfg = SweepConfig(z0=0.0, angle=np.pi, s=2.0, sp=2.0)
        res = sweep(OperatorSpec.free1d(Grid1D(20.0, 4001)), cfg)
        alpha, r2 = fit_exponent(res)
        assert 0.45 <= alpha <= 0.55
        assert r2 >= 0.99

    def test_implicit_norm_matches_dense_operator_norm(self):
        cfg = SweepConfig(z0=0.0, angle=np.pi, radii=SUITE_RADII, s=1.5, sp=1.0)
        op = OperatorSpec.free3d_radial(RadialGrid(10.0, 1000))
        res = sweep(op, cfg)
        k = resolvent_matrix(op, cfg.point(SUITE_RADII[0]))
        dense = operator_norm_weighted(k, 1.5, 1.0)
        assert res.norms()[0] == pytest.approx(dense, rel=1e-7)

    def test_aborts_with_partial_results(self):
        from scipy.linalg import eigh_tridiagonal
        pot = Potential1D.square_well(2.0, GRID)
        spec = OperatorSpec.schrodinger1d(pot)
        h = GRID.spacing
        t = discrete_hamiltonian(spec, 0.0).toarray()
        e_h = float(eigh_tridiagonal(np.real(np.diag(t))[1:-1],
                                     np.full(GRID.n_points - 3, -1.0 / h**2),
                                     select="i", select_range=(0, 0),
                                     eigvals_only=True)[0])
        # a sweep down the negative axis that lands exactly on the bound state
        radii = tuple(sorted((2.0, 1.0, -e_h, 0.05, 0.02, 0.005, 0.002),
                             reverse=True))
        cfg = SweepConfig(z0=0.0, angle=np.pi, radii=radii)
        res = sweep(spec, cfg)
        assert res.aborted is not None
        assert 0 < len(res.points) < len(radii)


class TestClassify:
    def test_free1d_virtual_power(self):
        cfg = SweepConfig(z0=0.0, angle=np.pi, s=2.0, sp=2.0)
        rep = classify(OperatorSpec.free1d(Grid1D(20.0, 4001)), cfg)
        assert rep.classification is Classification.VIRTUAL
        assert rep.divergence == "power"
        assert rep.rank == 1
        state = rep.states[0]
        inner = np.abs(Grid1D(20.0, 4001).points) <= 10.0
        assert np.max(np.abs(state[inner] - 1.0)) < 0.05

    def test_free3d_regular(self):
        cfg = SweepConfig(z0=0.0, angle=np.pi, s=1.1, sp=1.1)
        rep = classify(OperatorSpec.free3d_radial(RadialGrid(30.0, 3000)), cfg)
        assert rep.classification is Classification.REGULAR

    def test_free3d_norms_bounded_with_monotone_limit(self):
        # at s = s' = 1.1 the threshold norm limit exists and is approached
        # monotonically from below (slowly, like |z|^0.1)
        cfg = SweepConfig(z0=0.0, angle=np.pi, s=1.1, sp=1.1)
        res = sweep(OperatorSpec.free3d_radial(RadialGrid(30.0, 3000)), cfg)
        norms = res.norms()
        assert np.all(np.diff(norms) > 0)
        assert norms.max() < 10.0
        increments = np.diff(norms)
        assert np.all(np.diff(increments) < 0)  # decelerating growth

    def test_free2d_virtual_log(self):
        radii = tuple(1e-2 * 10 ** (-0.5 * k) for k in range(7))
        cfg = SweepConfig(z0=0.0, angle=np.pi, radii=radii, s=2.0, sp=2.0)
        rep = classify(OperatorSpec.free2d_radial(RadialGrid(10.0, 1000)), cfg,
                       refine=False)
        assert rep.classification is Classification.VIRTUAL
        assert rep.divergence == "log"

    def test_barrier_regular(self):
        pot = Potential1D.square_well(-1.0, GRID)
        cfg = SweepConfig(z0=0.0, angle=np.pi / 2, radii=SUITE_RADII, s=2.0, sp=2.0)
        rep = classify(OperatorSpec.schrodinger1d(pot), cfg)
        assert rep.classification is Classification.REGULAR

    def test_exact_kernel_vector_reported_with_residual(self):
        # the discrete operator at z = 0 annihilates constants exactly
        cfg = SweepConfig(z0=0.0, angle=np.pi, s=2.0, sp=2.0)
        op = OperatorSpec.free1d(Grid1D(20.0, 4001))
        rep = classify(op, cfg)
        assert rep.classification is Classification.VIRTUAL
        resid = apply_shifted_operator(op, 0.0, np.ones(4001))
        assert np.max(np.abs(resid)) < 1e-12
        # the swept state carries O(sqrt r_min) contamination; it must be
        # certified within the report's residual tolerance
        assert rep.diagnostics["state_residual"] < 0.02


class TestAdjointSymmetry:
    def test_weighted_norm_conjugate_transpose(self):
        rng = np.random.default_rng(11)
        grid = Grid1D(6.0, 121)
        for _ in range(10):
            m = rng.standard_normal((121, 121)) + 1j * rng.standard_normal((121, 121))
            s, sp_ = 3 * rng.random(), 3 * rng.random()
            a = operator_norm_weighted(KernelOperator(grid, grid, m), s, sp_)
            b = operator_norm_weighted(KernelOperator(grid, grid, m.conj().T), sp_, s)
            assert b == pytest.approx(a, rel=1e-10)

    def test_resolvent_adjoint_symmetry(self):
        # the power iteration on the engine against the SVD of its adjoint
        grid = Grid1D(4.0, 801)  # h = 0.01
        pot = Potential1D.square_well(0.4 + 0.3j, grid)
        engine = ls._make_engine(OperatorSpec.schrodinger1d(pot), 1e-3j)
        a, _, _, _, converged = wsp._power_iteration_norm(engine, 2.0, 1.0)
        assert converged
        kh = KernelOperator(grid, grid, engine.entries.conj().T)
        b = operator_norm_weighted(kh, 1.0, 2.0)
        assert b == pytest.approx(a, rel=1e-8)


class TestRegularizerIndependence:
    def test_difference_of_regularized_solutions_flat_outside_support(self):
        """Two different regularizations of the threshold problem produce
        solutions differing by a discrete-harmonic (affine, here constant)
        function outside the perturbation supports."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        grid = Grid1D(20.0, 4001)
        x = grid.points
        h = grid.spacing
        free = discrete_hamiltonian(OperatorSpec.free1d(grid), 0.0)
        f = np.exp(-4.0 * x**2)
        ind = (np.abs(x) <= 1.0).astype(float)
        bump = np.where(np.abs(x) <= 1.0, 1.0 + np.cos(np.pi * x), 0.0)
        h1 = sp.csc_matrix(free + sp.diags(bump))
        h2 = sp.csc_matrix(free + h * np.outer(ind, ind))
        u1 = spla.spsolve(h1, f)
        u2 = spla.spsolve(h2, f)
        diff = u1 - u2
        lap = (diff[2:] - 2 * diff[1:-1] + diff[:-2]) / h**2
        outside = np.abs(x[1:-1]) > 1.5
        assert np.max(np.abs(lap[outside])) < 1e-8
        # the same virtual-state space: both differences from a third
        # regularization are flat outside as well
        h3 = sp.csc_matrix(free + sp.diags(0.5 * ind))
        u3 = spla.spsolve(h3, f)
        lap3 = ((u1 - u3)[2:] - 2 * (u1 - u3)[1:-1] + (u1 - u3)[:-2]) / h**2
        assert np.max(np.abs(lap3[outside])) < 1e-8


class TestAgreementWithJost:
    @pytest.mark.parametrize("g,expected", [
        (0.5, Classification.REGULAR),
        (np.pi**2 / 4.0, Classification.VIRTUAL),
        (4.0, Classification.REGULAR),
    ])
    def test_square_wells(self, g, expected):
        from virtlev.jost import classify_threshold_1d
        fine = Grid1D(16.0, 6401)
        jrep = classify_threshold_1d(Potential1D.square_well(g, fine))
        cfg = SweepConfig(z0=0.0, angle=np.pi / 2, radii=SUITE_RADII, s=2.0, sp=2.0)
        lrep = classify(OperatorSpec.schrodinger1d(Potential1D.square_well(g, GRID)), cfg)
        assert jrep.classification is expected
        assert lrep.classification is expected


def test_sweep_csv_format():
    cfg = SweepConfig(z0=0.0, angle=np.pi, radii=SUITE_RADII, s=2.0, sp=2.0)
    res = sweep(OperatorSpec.free1d(Grid1D(20.0, 4001)), cfg)
    text = sweep_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "radius,norm,z_re,z_im"
    assert len(lines) == 1 + len(SUITE_RADII)
    r, n, zr, zi = lines[1].split(",")
    assert float(r) == pytest.approx(3e-2)
    assert float(zr) == pytest.approx(-3e-2)
    assert float(zi) == 0.0


def test_rank_one_hamiltonian_stays_sparse():
    grid = Grid1D(4.0, 401)
    z = -1e-3
    op = OperatorSpec.rank_one_perturbed_1d(grid)
    t = discrete_hamiltonian(op, z)
    ind = op.indicator
    dense = np.asarray(discrete_hamiltonian(OperatorSpec.free1d(grid), z)
                       + grid.spacing * np.outer(ind, ind))
    assert np.array_equal(t.toarray(), dense)
    assert t.nnz == np.count_nonzero(dense)
    big = OperatorSpec.rank_one_perturbed_1d(Grid1D(20.0, 4001))
    tracemalloc.start()
    try:
        discrete_hamiltonian(big, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6  # the dense n x n outer product alone is 128 MB


def test_classify_inconclusive_on_short_aborted_sweep():
    from scipy.linalg import eigh_tridiagonal
    pot = Potential1D.square_well(2.0, GRID)
    spec = OperatorSpec.schrodinger1d(pot)
    h = GRID.spacing
    t = discrete_hamiltonian(spec, 0.0).toarray()
    e_h = float(eigh_tridiagonal(np.real(np.diag(t))[1:-1],
                                 np.full(GRID.n_points - 3, -1.0 / h**2),
                                 select="i", select_range=(0, 0),
                                 eigvals_only=True)[0])
    radii = tuple(sorted((3.0, 2.0, -e_h, 0.5, 0.1, 0.01, 0.003), reverse=True))
    cfg = SweepConfig(z0=0.0, angle=np.pi, radii=radii)
    rep = classify(spec, cfg, refine=False)
    assert rep.classification is Classification.INCONCLUSIVE
    assert rep.diagnostics.get("aborted") or rep.diagnostics.get("reason")


class TestOneSweepPerVerdict:
    """classify runs one coarse and one refined sweep, keeps both, and reads
    the virtual state off the coarse one."""

    OP = OperatorSpec.free1d(Grid1D(20.0, 4001))
    CFG = SweepConfig(z0=0.0, angle=np.pi, radii=SUITE_RADII, s=2.0, sp=2.0)

    def test_engine_builds_equal_two_sweeps(self, monkeypatch):
        calls = []
        real = ls._make_engine

        def counted(op, z):
            calls.append(z)
            return real(op, z)

        monkeypatch.setattr(ls, "_make_engine", counted)
        rep = classify(self.OP, self.CFG)
        assert rep.classification is Classification.VIRTUAL and rep.rank == 1
        assert len(calls) == 2 * len(SUITE_RADII)

    def test_report_keeps_the_classified_sweeps(self):
        rep = classify(self.OP, self.CFG)
        coarse, fine = rep.sweeps
        assert np.array_equal(coarse.norms(), sweep(self.OP, self.CFG).norms())
        assert np.array_equal(fine.norms(), sweep(self.OP.refined(), self.CFG).norms())
        assert len(classify(self.OP, self.CFG, refine=False).sweeps) == 1

    @pytest.mark.parametrize("op", [OP, OperatorSpec.schrodinger1d(zero_potential())],
                             ids=["free1d", "zero_potential"])
    def test_state_matches_cold_start_extraction(self, op):
        rep = classify(op, self.CFG)
        engine = ls._make_engine(op, self.CFG.point(min(SUITE_RADII)))
        _, _, u, _, converged = wsp._power_iteration_norm(engine, 2.0, 2.0)
        assert converged
        cold = u * wsp.weight(op.grid.points, 2.0)
        state = rep.states[0]
        overlap = abs(np.vdot(state, cold)) / (np.linalg.norm(state) * np.linalg.norm(cold))
        assert overlap >= 1.0 - 1e-10

    def test_no_state_from_l1_linf_or_aborted_sweeps(self):
        op = OperatorSpec.free1d(Grid1D(4.0, 801))
        cfg = SweepConfig(z0=0.0, angle=np.pi, radii=SUITE_RADII, flavor="l1_linf")
        rep = classify(op, cfg)
        assert rep.classification is Classification.VIRTUAL
        assert rep.states is None and rep.sweeps[0].left_vector is None
        res = sweep(self.OP, self.CFG)
        assert ls._extract_state(self.OP, res)[0] is not None
        res.aborted = "near spectrum"
        assert ls._extract_state(self.OP, res) == (None, None)

    def test_points_record_their_power_iteration(self):
        res = sweep(self.OP, self.CFG)
        assert all(p.converged and 2 < p.iterations < 1000 for p in res.points)

    def test_unconverged_point_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(wsp, "_POWER_MAX_ITER", 2)
        rep = classify(self.OP, self.CFG)
        assert rep.classification is Classification.INCONCLUSIVE
        assert rep.states is None
        assert rep.diagnostics["reason"] == (
            f"power iteration did not converge at radius {SUITE_RADII[0]:.6g}")
        points = [p for s in rep.sweeps for p in s.points]
        assert all(p.iterations == 2 and not p.converged for p in points)
        rows = sweep_csv(rep.sweeps[0]).splitlines()
        assert all(row.count(",") == 3 for row in rows)  # telemetry stays out


class TestBulkSpectrum:
    """Points in the interior of the essential spectrum are regular: the
    resolvent boundary values from either half-plane exist, so sweeps onto
    the positive axis must flatten out."""

    def test_1d_bulk_point_regular(self):
        radii = tuple(1e-2 * 10 ** (-0.5 * k) for k in range(7))
        cfg = SweepConfig(z0=1.0, angle=np.pi / 2, radii=radii, s=2.0, sp=2.0)
        rep = classify(OperatorSpec.free1d(Grid1D(20.0, 4001)), cfg)
        assert rep.classification is Classification.REGULAR
        assert abs(rep.alpha) < 0.02

    def test_3d_bulk_point_norms_converge(self):
        radii = tuple(1e-2 * 10 ** (-0.5 * k) for k in range(7))
        cfg = SweepConfig(z0=1.0, angle=np.pi / 2, radii=radii, s=2.0, sp=2.0)
        res = sweep(OperatorSpec.free3d_radial(RadialGrid(30.0, 3000)), cfg)
        norms = res.norms()
        assert (norms.max() - norms.min()) / norms.min() < 0.01


def test_state_phase_does_not_follow_last_bit_ties(monkeypatch):
    # an odd state peaks at +-x with equal modulus; a 1-ulp bump on either
    # side must not flip the sign of the reported state
    grid = Grid1D(2.0, 401)
    m = grid.n_points // 2
    t = np.arange(1, m + 1) * grid.spacing
    prof = t * np.exp(-t**2)
    odd = np.concatenate([-prof[::-1], [0.0], prof]).astype(complex)
    peak = m + 1 + int(np.argmax(prof))
    mirror = m - 1 - int(np.argmax(prof))
    assert odd[peak] == -odd[mirror]
    op = OperatorSpec.free1d(grid)
    cfg = SweepConfig(sp=0.0)  # unit weight: psi is the vector itself
    monkeypatch.setattr(ls, "_STATE_TOL", np.inf)  # keep psi whatever its residual
    states = []
    for k in (None, peak, mirror):
        u = odd.copy()
        if k is not None:
            u[k] = np.nextafter(u[k].real, np.sign(u[k].real) * np.inf)
        psi, _ = ls._extract_state(op, ls.SweepResult([], cfg, None, u))
        states.append(psi)
    for psi in states[1:]:
        assert np.max(np.abs(psi - states[0])) <= 1e-15


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _dense_solve(t, b):
    """np.linalg.solve(t, b) with one refinement step on a long-double
    residual: T has condition ~1e5 at h = 0.01, so a plain double solve is
    itself off by up to ~4e-13 and would use up the engines' tolerance."""
    dense = t.toarray()
    x = np.linalg.solve(dense, b)
    r = b - t.astype(np.clongdouble) @ x.astype(np.clongdouble)
    return x + np.linalg.solve(dense, r.astype(complex))


class TestSolverEngines:
    """LAPACK solver engines against a dense solve of discrete_hamiltonian."""

    LINE = Grid1D(2.0, 401)
    RADIAL = RadialGrid(4.0, 400)
    OPS = {
        "schrod1d_real": OperatorSpec.schrodinger1d(Potential1D.square_well(1.0, LINE)),
        "schrod1d_complex": OperatorSpec.schrodinger1d(
            Potential1D.square_well(1.0 + 1.0j, LINE)),
        "schrod3d": OperatorSpec.schrodinger3d_radial(
            RADIAL, lambda r: -2.0 * np.ones(np.shape(r)), support=1.0),
        "rankone1d": OperatorSpec.rank_one_perturbed_1d(LINE),
    }
    ZS = (-2.0, 0.3j, -0.2 + 0.4j)  # -2 stays clear of the well's bound state

    @pytest.mark.parametrize("z", ZS, ids=["negative", "imaginary", "complex"])
    @pytest.mark.parametrize("name", list(OPS))
    def test_matches_dense_solve(self, name, z):
        op = self.OPS[name]
        engine = ls._make_engine(op, z)
        t = discrete_hamiltonian(op, z)
        h = op.grid.spacing
        n = t.shape[0]
        rng = np.random.default_rng(5)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert _rel(engine.matvec(g), _dense_solve(t, g) / h) <= 1e-12
        assert _rel(engine.rmatvec(g), _dense_solve(t.conj().T, g) / h) <= 1e-12
        assert _rel(engine.entries, _dense_solve(t, np.eye(n)) / h) <= 1e-12

    @pytest.mark.parametrize("z", ZS, ids=["negative", "imaginary", "complex"])
    @pytest.mark.parametrize("name", list(OPS))
    def test_shifted_operator_matches_sparse_product(self, name, z):
        op = self.OPS[name]
        rng = np.random.default_rng(7)
        n = op.grid.n_points
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = discrete_hamiltonian(op, z) @ u
        assert _rel(apply_shifted_operator(op, z, u), ref) <= 1e-14

    def test_shifted_operator_has_no_2d_model(self):
        op = OperatorSpec.free2d_radial(self.RADIAL)
        with pytest.raises(ConfigError):
            apply_shifted_operator(op, -1.0, np.ones(self.RADIAL.n_points))

    @pytest.mark.parametrize("z", ZS, ids=["negative", "imaginary", "complex"])
    @pytest.mark.parametrize("name", ["schrod1d_real", "schrod1d_complex", "schrod3d"])
    def test_band_norm_is_the_matrix_one_norm(self, name, z):
        op = self.OPS[name]
        t = discrete_hamiltonian(op, z).toarray()
        assert ls._band_norm1(*ls._tridiagonal(op, z)) == pytest.approx(
            np.linalg.norm(t, 1), rel=1e-14)

    @pytest.mark.parametrize("z", ZS, ids=["negative", "imaginary", "complex"])
    @pytest.mark.parametrize("name", ["schrod1d_real", "schrod1d_complex", "schrod3d"])
    def test_two_solve_inverse_norm_is_the_dense_one(self, name, z):
        bands = ls._tridiagonal(self.OPS[name], z)
        *factors, info = lapack.zgttrf(*bands)
        assert info == 0
        t = np.diag(bands[1]) + np.diag(bands[0], -1) + np.diag(bands[2], 1)
        assert ls._inverse_norm1(factors) == pytest.approx(
            np.linalg.norm(np.linalg.inv(t), 1), rel=1e-12)

    def test_certificate_decides_like_zgtcon_toward_a_bound_state(self, monkeypatch):
        # relative distances 1e-2 .. 1e-15 to the bound state of a deep well,
        # on both sides: a zgtcon-only reference gives the same raise/pass.
        # The Dirichlet eigenvalue is within ~e^-40 of the transparent one.
        from scipy.linalg import eigh_tridiagonal
        grid = Grid1D(8.0, 801)
        op = OperatorSpec.schrodinger1d(Potential1D.square_well(10.0, grid))
        d = np.real(ls._tridiagonal(op, 0.0)[1])[1:-1]
        e_h = float(eigh_tridiagonal(d, np.full(d.size - 1, -1.0 / grid.spacing**2),
                                     select="i", select_range=(0, 0),
                                     eigvals_only=True)[0])
        zgtcon, calls = lapack.zgtcon, []
        monkeypatch.setattr(lapack, "zgtcon", lambda *a: calls.append(1) or zgtcon(*a))
        rng = np.random.default_rng(19)
        outcomes = set()
        for p in rng.uniform(2.0, 15.0, 40):
            for side in (1.0, -1.0):
                bands = ls._tridiagonal(op, e_h * (1.0 + side * 10.0**-p))
                anorm = ls._band_norm1(*bands)
                *factors, info = lapack.zgttrf(*bands)
                ref = info == 0 and zgtcon(*factors, anorm)[0] * ls._COND_LIMIT >= 1.0
                before = len(calls)
                try:
                    ls._check_condition(info, factors, anorm)
                    passed = True
                except NearSpectrum:
                    passed = False
                assert passed == ref, p
                outcomes.add((passed, len(calls) > before))
        assert {(True, False), (True, True), (False, True)} <= outcomes

    def test_underflowing_corner_falls_back_to_zgtcon(self, monkeypatch):
        # at z = -1e4 the resolvent decays by e^-1 per cell: T^-1_n1 underflows
        op = OperatorSpec.schrodinger1d(Potential1D.square_well(1.0, GRID))
        bands = ls._tridiagonal(op, -1e4)
        *factors, info = lapack.zgttrf(*bands)
        rhs = np.zeros((GRID.n_points, 2), dtype=complex, order="F")
        rhs[0, 0] = 1.0
        assert lapack.zgttrs(*factors, rhs)[0][-1, 0] == 0.0
        assert ls._inverse_norm1(factors) == np.inf
        zgtcon, calls = lapack.zgtcon, []
        monkeypatch.setattr(lapack, "zgtcon", lambda *a: calls.append(1) or zgtcon(*a))
        ls._make_engine(op, -1e4)
        assert len(calls) == 1

    @pytest.mark.parametrize("z", ZS, ids=["negative", "imaginary", "complex"])
    @pytest.mark.parametrize("name", list(OPS))
    def test_cached_diagonal_gives_the_uncached_bands_bitwise(self, name, z):
        op = self.OPS[name]
        grid, h, n = op.grid, op.grid.spacing, op.grid.n_points
        v = (np.zeros(n, dtype=complex) if op.sampler is None
             else wsp.cell_average(op.sampler, grid.points, h))
        d = (2.0 / h**2 + v - z).astype(complex)
        edge = ls._dtn_root(z, h) / h**2
        d[-1] -= edge
        if isinstance(grid, Grid1D):
            d[0] -= edge
        off = np.full(n - 1, -1.0 / h**2, dtype=complex)
        for _ in range(2):  # the first call may fill the cache, the second reads it
            got = ls._tridiagonal(op, z)
            assert [b.tobytes() for b in got] == [off.tobytes(), d.tobytes(), off.tobytes()]

    def test_potential_is_sampled_once_per_operator(self):
        calls = []

        def sampler(x):
            calls.append(np.size(x))
            return np.where(np.abs(x) <= 1.0, -1.0 + 0.0j, 0.0)

        op = OperatorSpec(ls.OperatorKind.SCHRODINGER_1D, self.LINE, sampler)
        result = sweep(op, SweepConfig(radii=ls.default_radii(count=7)))
        assert len(result.points) == 7
        assert calls == [401] * 5  # one call per Gauss node of cell_average
        assert op.refined().diagonal.size == 801
        assert calls == [401] * 5 + [801] * 5
        rank_one = OperatorSpec.rank_one_perturbed_1d(self.LINE)
        assert rank_one.indicator is rank_one.indicator

    def test_schrod3d_near_spectrum_raises(self):
        # the bound state of a deep well, from the tridiagonal with the edge
        # row dropped: the transparent closure moves it by ~e^{-2 kappa R}
        from scipy.linalg import eigh_tridiagonal
        grid = RadialGrid(10.0, 1000)
        op = OperatorSpec.schrodinger3d_radial(
            grid, lambda r: -10.0 * np.ones(np.shape(r)), support=1.0)
        d = np.real(discrete_hamiltonian(op, 0.0).diagonal())[:-1]
        e_h = float(eigh_tridiagonal(d, np.full(d.size - 1, -1.0 / grid.spacing**2),
                                     select="i", select_range=(0, 0),
                                     eigvals_only=True)[0])
        assert e_h < -1.0
        ls._make_engine(op, e_h - 0.1)
        with pytest.raises(NearSpectrum):
            ls._make_engine(op, e_h)

    def test_near_spectrum_prints_zgtcon_condition_estimate(self):
        # at the bound state of a deep well zgtcon decides, and the message
        # carries 1 / rc from the factors the engine builds
        from scipy.linalg import eigh_tridiagonal
        grid = Grid1D(8.0, 1601)
        op = OperatorSpec.schrodinger1d(Potential1D.square_well(10.0, grid))
        d = np.real(ls._tridiagonal(op, 0.0)[1])[1:-1]
        e_h = float(eigh_tridiagonal(d, np.full(d.size - 1, -1.0 / grid.spacing**2),
                                     select="i", select_range=(0, 0),
                                     eigvals_only=True)[0])
        bands = ls._tridiagonal(op, e_h)
        *factors, info = lapack.zgttrf(*bands)
        rc = lapack.zgtcon(*factors, ls._band_norm1(*bands))[0]
        assert info == 0 and 0.0 < rc * ls._COND_LIMIT < 1.0
        with pytest.raises(NearSpectrum) as caught:
            ls._make_engine(op, e_h)
        assert str(caught.value) == (f"condition estimate {1.0 / rc:.3g} exceeds "
                                     f"{ls._COND_LIMIT:.0e}")

    def test_singular_lu_raises_without_a_condition_estimate(self, monkeypatch):
        # info != 0: an exactly zero pivot, so nothing is solved or estimated
        def forbidden(*args, **kwargs):
            raise AssertionError("solve or condition estimate on a singular LU")

        *factors, _ = lapack.zgttrf(*ls._tridiagonal(self.OPS["schrod1d_real"], -2.0))
        monkeypatch.setattr(lapack, "zgttrs", forbidden)
        monkeypatch.setattr(lapack, "zgtcon", forbidden)
        with pytest.raises(NearSpectrum, match="inf"):
            ls._check_condition(2, factors, 1.0)


class TestFreeEngines:
    """The sweep's free kinds are free_resolvent's checked builder."""

    LINE = Grid1D(4.0, 801)
    RADIAL = RadialGrid(4.0, 400)
    OPS = {1: OperatorSpec.free1d(LINE), 2: OperatorSpec.free2d_radial(RADIAL),
           3: OperatorSpec.free3d_radial(RADIAL)}

    # at -0.1 + 0.1j and -1 + 1j, 1/(2w) with w a Python complex differs from
    # NumPy's in the last bit; the sweep digests were recorded with the
    # generators of the NumPy scalar w = np.sqrt(complex(-z))
    @pytest.mark.parametrize("z", [-1e-4 + 0j, -0.1 + 0.1j, -1.0 + 1.0j, 1.0 + 1e-4j,
                                   1e-3 * ls._direction(-np.pi / 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_engine_is_the_builder_bytewise(self, d, z):
        grid = self.OPS[d].grid
        engine = ls._make_engine(self.OPS[d], z)
        built = build_free_kernel_operator(d, grid, SpectralParameter.interior(z))
        w = np.sqrt(complex(-z))
        recorded = wsp.SemiseparableKernel(grid, *_generators(d, grid.points, w),
                                           np.exp(-w * grid.spacing))
        for ref in (built, recorded):
            assert engine.left.tobytes() == ref.left.tobytes()
            assert engine.right.tobytes() == ref.right.tobytes()
            assert repr(engine.decay) == repr(ref.decay)

    @pytest.mark.parametrize("make,grid", [
        (OperatorSpec.free1d, RadialGrid(4.0, 400)),
        (OperatorSpec.free2d_radial, Grid1D(4.0, 801)),
        (OperatorSpec.free3d_radial, Grid1D(4.0, 801)),
    ], ids=["free1d", "free2d", "free3d"])
    def test_free_kind_on_the_wrong_grid_type_raises(self, make, grid):
        with pytest.raises(TypeError):
            ls._make_engine(make(grid), -1e-3)
        with pytest.raises(TypeError):
            sweep(make(grid), SweepConfig(radii=SUITE_RADII))


class TestMaxAbsEntry:
    """max_abs_entry() against the dense entries it never forms."""

    LINE = Grid1D(2.0, 401)
    RADIAL = RadialGrid(2.0, 200)
    OPS = {
        "free1d": OperatorSpec.free1d(LINE),
        "free2d": OperatorSpec.free2d_radial(RADIAL),
        "free3d": OperatorSpec.free3d_radial(RADIAL),
        "schrod1d": OperatorSpec.schrodinger1d(Potential1D.square_well(1.0, LINE)),
        "schrod3d": OperatorSpec.schrodinger3d_radial(
            RADIAL, lambda r: -np.ones(np.shape(r)), support=1.0),
        "rankone1d": OperatorSpec.rank_one_perturbed_1d(LINE),
    }
    # rays pi, pi/2 and 3pi/4, and their mirror images below the axis
    ANGLES = (np.pi, np.pi / 2, 3 * np.pi / 4, -np.pi / 2, -3 * np.pi / 4)

    @pytest.mark.parametrize("angle", ANGLES)
    @pytest.mark.parametrize("name", list(OPS))
    def test_matches_dense_entries(self, name, angle):
        for radius in (1e-3, 0.3):
            engine = ls._make_engine(self.OPS[name], radius * ls._direction(angle))
            assert engine.max_abs_entry() == np.max(np.abs(engine.entries)), radius

    @pytest.mark.parametrize("z,gap", [(1 + 1e-3j, 2.3e-2), (5 - 1e-3j, 3.1e-4)])
    def test_peak_off_the_diagonal(self, z, gap):
        # near the positive axis the free2d kernel oscillates, and its largest
        # entry lies off the diagonal, gap above the diagonal maximum
        entries = ls._make_engine(self.OPS["free2d"], z).entries
        peak = np.max(np.abs(entries))
        assert peak - np.max(np.abs(np.diag(entries))) > 0.9 * gap
        assert ls._make_engine(self.OPS["free2d"], z).max_abs_entry() == peak

    @pytest.mark.parametrize("angle", ANGLES)
    def test_jost_and_dense_kernels(self, angle):
        # the threshold Green kernel of the bump, and a decay-1 kernel whose
        # generators exp(+-w x) oscillate where Im w != 0, w = sqrt(-z)
        k = green_kernel(jost_pair(Potential1D.bump(self.LINE, amplitude=1.0)))
        assert k.max_abs_entry() == np.max(np.abs(k.entries))
        w = np.sqrt(-1e-3 * ls._direction(angle))
        x = self.LINE.points
        k = wsp.SemiseparableKernel(self.LINE, np.exp(w * x) / (2 * w), np.exp(-w * x), 1.0)
        assert k.max_abs_entry() == np.max(np.abs(k.entries))

    def test_l1_linf_sweeps_never_read_entries(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("dense entries read")

        monkeypatch.setattr(wsp.SemiseparableKernel, "entries", property(forbidden))
        monkeypatch.setattr(ls._SolverEngine, "entries", property(forbidden))
        cfg = SweepConfig(flavor="l1_linf", radii=SUITE_RADII)
        for name in ("free1d", "free3d", "schrod1d", "rankone1d"):
            result = sweep(self.OPS[name], cfg)
            assert len(result.points) == len(SUITE_RADII), name

    def test_solver_kind_l1_linf_sweep_memory_stays_linear(self):
        # one dense 1601^2 complex resolvent is 41 MB per sweep point
        pot = Potential1D.square_well(1.0, Grid1D(8.0, 1601))
        op = OperatorSpec.schrodinger1d(pot)
        tracemalloc.start()
        try:
            result = sweep(op, SweepConfig(flavor="l1_linf", radii=SUITE_RADII))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.points) == len(SUITE_RADII)
        assert peak < 10e6


@pytest.mark.parametrize("argv", [["sweep", "--op", "schrod1d", "--potential", "well:g=1"],
                                  ["sweep", "--op", "rankone1d"]])
def test_default_sweeps_never_reach_zgtcon(monkeypatch, capsys, argv):
    # the two-solve certificate must cover real traffic: zgtcon costs about
    # seven solves per sweep point
    from virtlev.cli import main

    def forbidden(*args):
        raise AssertionError("zgtcon called")

    monkeypatch.setattr(lapack, "zgtcon", forbidden)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) > 9
