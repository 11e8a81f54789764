"""Eigenvalue bifurcation from thresholds and finite-rank regularization models.

Four desk-scale experiments:

* the shallow square well -g 1_[-1,1], whose ground state detaches from the
  threshold along E(g) = -g^2 + O(g^3);
* the rank-one perturbed 1D Laplacian whose threshold turns regular because
  the homogeneous matching problem has only the trivial bounded solution;
* a family of 3D radial potentials with an explicit eigenfunction whose
  eigenvalue converges onto the essential spectrum from the upper half-plane,
  forcing a virtual level of the limit operator;
* the finite-dimensional analogue: the nullity of a matrix equals the least
  rank of a perturbation making the determinant nonzero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationConflict,
    ConfigError,
    ModelViolation,
    NoBoundState,
    SamplingFailure,
)
from .lap_sweep import OperatorSpec, SweepConfig, classify, fit_exponent, sweep
from .reports import Classification, ThresholdReport, csv_table
from .weighted_space import Grid1D, RadialGrid, linear_fit, second_difference

_QUAD_POINTS = 20001  # trapezoid nodes of the matching system's integral row
_RANK_ONE_GRID = Grid1D(20.0, 4001)  # both sweeps of rank_one_regularized_threshold
_EIGEN_GRID, _EIGEN_BAND = RadialGrid(3.0, 15000), 2  # eigen_residual_3d's stencil
_RESIDUAL_TOL = 1e-6  # largest eigen-residual embedded_family_check accepts
_EMBEDDED_GRID = RadialGrid(10.0, 1000)  # the limit operator embedded_family_check sweeps
_EMBEDDED_RADII = tuple(1e-1 * 10 ** (-0.5 * k) for k in range(7))  # and its sweep radii


# ---------------------------------------------------------------------------
# shallow square well


def _smallest_even_root(g: float) -> float | None:
    """Smallest root kappa > 0 of kappa = q tan q, q = sqrt(g - kappa^2), or None.

    Scanned in q down from sqrt(g), as higher branches (m pi, m pi + pi/2) of
    tan hold smaller kappa: f(q) = q tan q - sqrt(g - q^2) starts negative on
    each, so a root exists there exactly when f is positive at its right end.
    """
    sg = float(np.sqrt(g))

    def f(q):
        return q * np.tan(q) - np.sqrt(max(g - q * q, 0.0))

    top = int(sg / np.pi)  # the highest branch, or one above it bracketing nothing
    for m in range(top, -1, -1):
        lo = m * np.pi
        hi = min(m * np.pi + np.pi / 2, sg)
        eps = 1e-13 * max(1.0, hi)
        a, b = lo + eps, hi - eps
        if m < top and not b > a:  # only the branch cut short by sqrt(g) may be empty
            raise ConfigError(f"coupling g = {g:g}: the branch of q tan q at "
                              f"q = {lo:.6g} is too narrow to bracket in floats")
        if b > a and f(b) > 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if f(mid) <= 0:
                    a = mid
                else:
                    b = mid
                if b - a < 1e-15 * max(1.0, b):
                    break
            q = 0.5 * (a + b)
            kappa = float(np.sqrt(max(g - q * q, 0.0)))
            if kappa > 0:
                return kappa
    return None


def square_well_eigenvalue(g: float) -> float:
    """Ground-state-sector energy E = -kappa^2 of -d^2/dx^2 - g 1_[-1,1].

    Solves kappa = sqrt(g - kappa^2) tan sqrt(g - kappa^2) by bracketed
    bisection with a Newton polish to |d kappa| <= 1e-14.  For g beyond the
    shallow regime (g >= (pi/2)^2) further bound states exist; a warning is
    emitted and the smallest-kappa branch of the equation is returned.
    """
    if not g > 0:
        raise ValueError("coupling g must be positive")
    if not np.isfinite(g):
        raise ConfigError(f"coupling g = {g} is not finite")
    kappa = _smallest_even_root(g)
    if kappa is None:
        raise NoBoundState(f"no root of the bound-state equation in (0, sqrt({g}))")
    if g >= (np.pi / 2) ** 2:
        warnings.warn("coupling beyond the shallow-well regime: returning the "
                      "smallest-kappa branch", stacklevel=2)
    sg = np.sqrt(g)
    for _ in range(60):
        q = np.sqrt(max(g - kappa * kappa, 1e-300))
        fv = q * np.tan(q) - kappa
        dfv = (np.tan(q) + q / np.cos(q) ** 2) * (-kappa / q) - 1.0
        step = fv / dfv
        new = kappa - step
        if not (0.0 < new < sg):
            break
        kappa = new
        if abs(step) <= 1e-14:
            break
    return -kappa * kappa


@dataclass
class BifurcationCurve:
    """Sampled E(g) against the leading-order law -g^2."""

    couplings: np.ndarray
    energies: np.ndarray
    predicted: np.ndarray

    def loglog_slope(self) -> float:
        return linear_fit(np.log(self.couplings), np.log(np.abs(self.energies)))[0]


def square_well_curve(couplings) -> BifurcationCurve:
    gs = np.asarray(sorted(couplings, reverse=True), dtype=float)
    if gs.size == 0:
        raise ConfigError("square_well_curve needs at least one coupling")
    es = np.array([square_well_eigenvalue(g) for g in gs])
    if np.any(es >= 0):
        raise NoBoundState("square-well energies must be negative")
    return BifurcationCurve(gs, es, -gs * gs)


def bifurcation_csv(curve: BifurcationCurve) -> str:
    return csv_table(["g", "E", "E_predicted"],
                     zip(curve.couplings, curve.energies, curve.predicted))


# ---------------------------------------------------------------------------
# rank-one regularized 1D Laplacian


def rank_one_matching_system():
    """Matching system for bounded solutions of u'' = c 1_[-1,1], c = int u.

    A bounded solution must be constant outside [-1, 1] and a + b x + c x^2/2
    inside; derivative continuity at the two edges and the self-consistency
    of c give a 3x3 linear system in (a, b, c).  The integral row is computed
    by quadrature of the basis on _QUAD_POINTS nodes rather than written down.
    """
    xs = np.linspace(-1.0, 1.0, _QUAD_POINTS)
    basis = np.vstack([np.ones_like(xs), xs, xs * xs / 2.0])
    integrals = np.trapezoid(basis, xs, axis=1)
    rows = np.array([
        [0.0, 1.0, -1.0],                      # u'(-1) = b - c = 0
        [0.0, 1.0, 1.0],                       # u'(+1) = b + c = 0
        [integrals[0], integrals[1], integrals[2] - 1.0],  # int u - c = 0
    ])
    det = float(np.linalg.det(rows))
    normalized = det / float(np.prod(np.linalg.norm(rows, axis=1)))
    return rows, det, normalized


def rank_one_regularized_threshold() -> ThresholdReport:
    """Certify that the rank-one projection regularizes the 1D threshold.

    (i) the homogeneous matching system is verified nonsingular; (ii) the
    operator on _RANK_ONE_GRID sweeps Regular at z0 = 0 (default radii);
    removing the perturbation must sweep Virtual.  A conflict raises.
    """
    cfg = SweepConfig(z0=0.0, angle=np.pi, s=2.0, sp=2.0)
    _, det, det_normalized = rank_one_matching_system()
    perturbed = classify(OperatorSpec.rank_one_perturbed_1d(_RANK_ONE_GRID), cfg)
    free = classify(OperatorSpec.free1d(_RANK_ONE_GRID), cfg)
    nonsingular = abs(det_normalized) > 0.1
    if nonsingular != (perturbed.classification is Classification.REGULAR):
        raise ClassificationConflict(
            f"matching determinant {det_normalized:.3g} vs sweep verdict "
            f"{perturbed.classification.value}"
        )
    perturbed.diagnostics.update(
        matching_det=det, matching_det_normalized=det_normalized,
        free_classification=free.classification.value,
        free_alpha=free.alpha,
        free_states=free.states,
    )
    return perturbed


# ---------------------------------------------------------------------------
# embedded eigenvalue family in 3D


def embedded_potential_3d(zeta, r: np.ndarray):
    """Explicit radial pair (psi, V) with (-Lap + V - zeta^2) psi = 0, as
    complex arrays at the radii of the array r.

    psi is exp(i zeta r)/r outside the unit ball and smooth inside; V is the
    piecewise-smooth potential zeta^2 + (Lap psi)/psi, identically zero for
    r > 1 and discontinuous across r = 1.  Both are evaluated from closed
    forms (the interior Laplacian is applied symbolically), so r = 0 is fine.
    """
    zeta = complex(zeta)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    outer = r >= 1.0
    psi = np.empty(r.shape, dtype=complex)
    v = np.zeros(r.shape, dtype=complex)
    ro = r[outer]
    psi[outer] = np.exp(1j * zeta * ro) / ro
    ri = r[~outer]
    phi = (3.0 - ri * ri) / 2.0
    psi[~outer] = phi * np.exp(1j * zeta * (1.0 + ri * ri) / 2.0)
    v[~outer] = zeta**2 + (
        -6.0 + 1j * zeta * (9.0 - 7.0 * ri * ri)
        - zeta**2 * ri * ri * (3.0 - ri * ri)
    ) / (3.0 - ri * ri)
    return psi, v


@dataclass
class EmbeddedFamily:
    """Eigen-family zeta_j -> zeta0 with residuals and divergence evidence."""

    zetas: list
    residuals: np.ndarray
    sweep_result: object
    monotone_growth: bool
    alpha: float

    @property
    def residual_max(self) -> float:
        return float(np.max(self.residuals))


def eigen_residual_3d(zeta) -> float:
    """Sup-norm finite-difference residual of the explicit eigen-triple.

    Checked on u = r psi, u(0) = 0, over the interior of _EIGEN_GRID;
    _EIGEN_BAND cells around r = 1 are excluded because V jumps there and
    the pointwise stencil is discretization-limited.
    """
    h, r, inner = _EIGEN_GRID.spacing, _EIGEN_GRID.points, _EIGEN_GRID.interior
    psi, v = embedded_potential_3d(zeta, r)
    u = r * psi
    zeta = complex(zeta)
    # u(0) = 0 exactly; the value beyond r = R only reaches the dropped edge
    resid = second_difference(u, h)[inner] + (v[inner] - zeta**2) * u[inner]
    keep = np.abs(r[inner] - 1.0) > _EIGEN_BAND * h
    return float(np.max(np.abs(resid[keep])))


def embedded_family_check(zeta0: float, n: int = 8) -> EmbeddedFamily:
    """Residual-verify the eigen-family and sweep the limit operator.

    zeta_j = zeta0 + (1 + i)/j keeps z_j = zeta_j^2 inside the upper
    half-plane even at zeta0 = 0; residuals must stay below _RESIDUAL_TOL.
    The sweep on _EMBEDDED_GRID over _EMBEDDED_RADII approaches z0 = zeta0^2
    from above; unbounded growth there is the expected signature.
    """
    if n < 1:
        raise ConfigError(f"embedded family needs n >= 1 members, got n = {n}")
    if abs(zeta0) >= 1e150:  # zeta0^2 and the family's potential stay finite
        raise ConfigError(f"zeta0 = {zeta0}: |zeta0| must be below 1e150")
    zetas = [zeta0 + (1.0 + 1.0j) / j for j in range(1, n + 1)]
    residuals = np.array([eigen_residual_3d(zt) for zt in zetas])
    if np.max(residuals) > _RESIDUAL_TOL:
        raise ModelViolation(f"eigen-residual {np.max(residuals):.3g} exceeds "
                             f"{_RESIDUAL_TOL:.1g}")
    cfg = SweepConfig(z0=zeta0**2, angle=np.pi / 2, radii=_EMBEDDED_RADII, s=2.0, sp=2.0)
    op = OperatorSpec.schrodinger3d_radial(
        _EMBEDDED_GRID, lambda rr: embedded_potential_3d(zeta0, rr)[1], support=1.0)
    result = sweep(op, cfg)
    norms = result.norms()
    monotone = bool(len(norms) >= 2 and np.all(np.diff(norms) > 0))
    return EmbeddedFamily(zetas, residuals, result, monotone, fit_exponent(result)[0])


def embedded_csv(family: EmbeddedFamily) -> str:
    return csv_table(["j", "zeta_re", "zeta_im", "residual"],
                     ((j, complex(zt), res) for j, (zt, res)
                      in enumerate(zip(family.zetas, family.residuals), start=1)))


# ---------------------------------------------------------------------------
# matrix nullity by random finite-rank perturbations


def matrix_nullity_by_perturbation(m: np.ndarray, trials: int = 64,
                                   rng_seed: int = 0) -> int:
    """dim ker(M) as the least rank of N with det(M + N) != 0.

    Rank-k candidates are sums of k Gaussian outer products, normalized to
    Frobenius norm 1e-3; a determinant counts as nonzero above
    1e-12 * max(sigma_max, 1e-3)^n.  The answer must agree with the SVD
    nullity (singular values <= 1e-10 sigma_max), otherwise SamplingFailure.
    `trials`, the number of candidates drawn per rank, must be at least 1.
    """
    if trials < 1:
        raise ConfigError(f"trials = {trials} must be at least 1")
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ConfigError("matrix entries must be finite")
    n = m.shape[0]
    if n > 8:
        raise ValueError("brute-force scale: matrices up to 8x8 only")
    sigma = np.linalg.svd(m, compute_uv=False)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    svd_nullity = int(np.sum(sigma <= 1e-10 * sigma_max)) if sigma_max > 0 else n
    threshold = 1e-12 * max(sigma_max, 1e-3) ** n
    rng = np.random.default_rng(rng_seed)

    def random_rank_k(k: int) -> np.ndarray:
        acc = np.zeros((n, n), dtype=complex)
        for _ in range(k):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            acc += np.outer(u, v)
        return 1e-3 * acc / np.linalg.norm(acc)

    if abs(np.linalg.det(m)) > threshold:
        found = 0
    else:
        found = next((k for k in range(1, n + 1)
                      if any(abs(np.linalg.det(m + random_rank_k(k))) > threshold
                             for _ in range(trials))), None)
    if found != svd_nullity:
        raise SamplingFailure(
            f"perturbation search returned {found}, SVD nullity is {svd_nullity}; "
            f"retry with more trials"
        )
    return found
