"""Bifurcation laws, rank-one regularization, embedded families, nullity."""

import warnings

import numpy as np
import pytest

from virtlev.errors import ConfigError, SamplingFailure
from virtlev.perturbation import (
    BifurcationCurve,
    bifurcation_csv,
    eigen_residual_3d,
    embedded_csv,
    embedded_family_check,
    embedded_potential_3d,
    matrix_nullity_by_perturbation,
    rank_one_matching_system,
    rank_one_regularized_threshold,
    square_well_curve,
    square_well_eigenvalue,
)
from virtlev.reports import Classification


def bisection_oracle(g: float, tol: float = 1e-14) -> float:
    """Independent bracketed-bisection solve of kappa = q tan q, q = sqrt(g - kappa^2)."""
    def f(kappa):
        q = np.sqrt(g - kappa * kappa)
        return q * np.tan(q) - kappa

    lo, hi = 0.0, np.sqrt(g) * (1 - 1e-15)
    assert f(lo + 1e-300) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return -(0.5 * (lo + hi)) ** 2


class TestSquareWell:
    @pytest.mark.parametrize("g", [0.04, 0.02, 0.01, 0.005, 0.3, 1.0])
    def test_against_bisection_oracle(self, g):
        assert square_well_eigenvalue(g) == pytest.approx(bisection_oracle(g),
                                                          rel=1e-12)

    def test_shallow_limit_ratio(self):
        for g in (1e-3, 1e-4):
            e = square_well_eigenvalue(g)
            assert e / (-g * g) == pytest.approx(1.0, abs=2.1 * g)

    def test_leading_order_window(self):
        for g in (0.04, 0.02, 0.01, 0.005):
            e = square_well_eigenvalue(g)
            assert abs(e / (-g * g) - 1.0) <= 3.0 * g

    def test_monotone_decreasing(self):
        gs = np.linspace(0.005, 0.1, 20)
        es = np.array([square_well_eigenvalue(g) for g in gs])
        assert np.all(np.diff(es) < 0)

    def test_deep_well_warns_and_returns_branch(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            e = square_well_eigenvalue(3.0)
        assert len(caught) == 1
        assert e < 0

    def test_invalid_coupling(self):
        with pytest.raises(ValueError):
            square_well_eigenvalue(-0.1)

    def test_curve_slope_and_cubic_constant(self):
        curve = square_well_curve([0.04, 0.02, 0.01])
        assert curve.loglog_slope() == pytest.approx(2.0, abs=0.05)
        assert np.all(np.abs(curve.energies - curve.predicted)
                      <= curve.cubic_constant * curve.couplings**3 * (1 + 1e-12))

    def test_no_coupling_is_a_config_error(self):
        with pytest.raises(ConfigError, match="at least one coupling"):
            square_well_curve([])

    def test_csv_roundtrip(self):
        curve = square_well_curve([0.02, 0.01])
        text = bifurcation_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "g,E,E_predicted"
        g, e, p = map(float, lines[1].split(","))
        assert g == 0.02 and p == -0.0004
        assert e == pytest.approx(square_well_eigenvalue(0.02), rel=1e-14)

    def test_perturbation_norms_vanish_jointly(self):
        # eigenvalues bifurcate to the threshold while both the sup norm of
        # the coupling and its weighted F -> E norm go to zero
        gs = np.array([0.04, 0.02, 0.01, 0.005])
        es = np.array([square_well_eigenvalue(g) for g in gs])
        f_to_e = gs * np.max((1 + np.linspace(-1, 1, 101) ** 2) ** 2)
        assert np.all(np.abs(es) < 3 * gs**2)
        assert np.all(np.diff(np.abs(es)) < 0) and np.all(np.diff(f_to_e) < 0)


class TestRankOne:
    def test_matching_system_nonsingular(self):
        rows, det, normalized = rank_one_matching_system()
        assert rows.shape == (3, 3)
        assert det == pytest.approx(4.0, rel=1e-6)
        # 4 / (sqrt2 sqrt2 sqrt(40/9)) = 3 / sqrt(10)
        assert normalized == pytest.approx(3.0 / np.sqrt(10.0), rel=1e-6)
        assert abs(normalized) > 0.1

    def test_threshold_report(self):
        rep = rank_one_regularized_threshold()
        assert rep.classification is Classification.REGULAR
        assert rep.alpha <= 0.1
        assert rep.diagnostics["free_classification"] == "virtual"
        state = rep.diagnostics["free_states"][0]
        quarter = len(state) // 4
        assert np.max(np.abs(state[quarter:3 * quarter + 1] - 1.0)) <= 0.05


class TestEmbeddedPotential:
    def test_interior_values(self):
        psi, v = embedded_potential_3d(0.0, 0.0)
        assert v == pytest.approx(-2.0)
        assert psi == pytest.approx(1.5)

    def test_interface_values(self):
        _, v_in = embedded_potential_3d(0.0, 1.0 - 1e-9)
        assert v_in == pytest.approx(-3.0, abs=1e-6)
        _, v_out = embedded_potential_3d(0.0, 1.5)
        assert v_out == 0.0

    def test_psi_is_c1_at_interface(self):
        for zeta in (0.0, 1.0, 0.7 + 0.4j):
            eps = 1e-7
            psi_m, _ = embedded_potential_3d(zeta, 1.0 - eps)
            psi_p, _ = embedded_potential_3d(zeta, 1.0 + eps)
            assert abs(psi_p - psi_m) < 1e-5
            dm = (embedded_potential_3d(zeta, 1.0 - eps)[0]
                  - embedded_potential_3d(zeta, 1.0 - 2 * eps)[0]) / eps
            dp = (embedded_potential_3d(zeta, 1.0 + 2 * eps)[0]
                  - embedded_potential_3d(zeta, 1.0 + eps)[0]) / eps
            assert abs(dp - dm) < 1e-4

    def test_psi_never_vanishes(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            zeta = complex(2 * rng.random(), 2 * rng.random())
            r = 4 * rng.random()
            psi, _ = embedded_potential_3d(zeta, r)
            assert abs(psi) > 0

    def test_eigen_residual_small(self):
        for zeta in (1 + 1j, 2 + 1j, 0.5 + 0.25j):
            assert eigen_residual_3d(zeta) < 1e-6


class TestEmbeddedFamily:
    def test_zeta0_zero(self):
        fam = embedded_family_check(0.0, n=8)
        assert fam.residual_max <= 1e-6
        assert fam.monotone_growth
        assert fam.alpha > 0.1
        # eigenvalues z_j genuinely enter the upper half-plane
        assert all((complex(z) ** 2).imag > 0 for z in fam.zetas)

    def test_zeta0_one(self):
        fam = embedded_family_check(1.0, n=8)
        assert fam.residual_max <= 1e-6
        assert fam.monotone_growth

    def test_empty_family_is_a_config_error(self):
        with pytest.raises(ConfigError, match="n >= 1"):
            embedded_family_check(0.0, n=0)

    def test_empty_radii_are_a_config_error(self):
        # only None selects the default ladder
        with pytest.raises(ConfigError, match="at least 5 radii"):
            embedded_family_check(0.0, n=2, radii=())

    def test_csv(self):
        fam = embedded_family_check(0.0, n=3)
        text = embedded_csv(fam)
        lines = text.strip().split("\n")
        assert lines[0] == "j,zeta_re,zeta_im,residual"
        assert len(lines) == 4


class TestMatrixNullity:
    def test_jordan_block(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        assert matrix_nullity_by_perturbation(m) == 1

    def test_identity(self):
        assert matrix_nullity_by_perturbation(np.eye(5)) == 0

    def test_zero_matrix(self):
        assert matrix_nullity_by_perturbation(np.zeros((2, 2))) == 2

    def test_planted_nullities(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            n = int(rng.integers(4, 9))
            k = trial % 4
            sing = np.concatenate([0.6 + 0.4 * rng.random(n - k), np.zeros(k)])
            sing[0] = 1.0
            qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
            qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
            m = qu @ np.diag(sing) @ qv.T
            assert matrix_nullity_by_perturbation(m, trials=128, rng_seed=trial) == k

    def test_size_cap(self):
        with pytest.raises(ValueError):
            matrix_nullity_by_perturbation(np.eye(9))

    def test_sampling_failure_detectable(self):
        # starving the sampler of trials on a nullity-3 case must raise
        # rather than silently disagree with the SVD answer
        rng = np.random.default_rng(5)
        qu, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        m = qu @ np.diag([1.0, 1.0, 0.7, 0.7, 0.6, 0, 0, 0]) @ qu.T
        try:
            r = matrix_nullity_by_perturbation(m, trials=1, rng_seed=0)
            assert r == 3
        except SamplingFailure:
            pass


def test_deep_well_multiple_even_branches():
    from virtlev.perturbation import _even_sector_roots
    roots = _even_sector_roots(12.0)  # sqrt(12) > pi: two even branches
    assert len(roots) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e = square_well_eigenvalue(12.0)
    assert e == pytest.approx(-roots[0] ** 2, rel=1e-12)
