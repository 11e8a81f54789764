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
from .reports import Classification, ThresholdReport
from .weighted_space import Grid1D, RadialGrid, linear_fit


# ---------------------------------------------------------------------------
# shallow square well


def _even_sector_roots(g: float) -> list[float]:
    """All roots kappa of kappa = q tan q, q = sqrt(g - kappa^2), kappa in (0, sqrt(g)).

    Scanned in the q variable: on each branch (m pi, m pi + pi/2) of tan the
    function f(q) = q tan q - sqrt(g - q^2) starts negative, so a root exists
    there exactly when f is positive at the bracket's right end.
    """
    sg = float(np.sqrt(g))

    def f(q):
        return q * np.tan(q) - np.sqrt(max(g - q * q, 0.0))

    roots_q = []
    m = 0
    while m * np.pi < sg:
        lo = m * np.pi
        hi = min(m * np.pi + np.pi / 2, sg)
        eps = 1e-13 * max(1.0, hi)
        a, b = lo + eps, hi - eps
        if b > a and f(b) > 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if f(mid) <= 0:
                    a = mid
                else:
                    b = mid
                if b - a < 1e-15 * max(1.0, b):
                    break
            roots_q.append(0.5 * (a + b))
        m += 1
    kappas = [float(np.sqrt(max(g - q * q, 0.0))) for q in roots_q]
    return sorted(k for k in kappas if k > 0)


def square_well_eigenvalue(g: float) -> float:
    """Ground-state-sector energy E = -kappa^2 of -d^2/dx^2 - g 1_[-1,1].

    Solves kappa = sqrt(g - kappa^2) tan sqrt(g - kappa^2) by bracketed
    bisection with a Newton polish to |d kappa| <= 1e-14.  For g beyond the
    shallow regime (g >= (pi/2)^2) further bound states exist; a warning is
    emitted and the smallest-kappa branch of the equation is returned.
    """
    if not g > 0:
        raise ValueError("coupling g must be positive")
    if g >= (np.pi / 2) ** 2:
        warnings.warn(
            "coupling beyond the shallow-well regime: returning the smallest-kappa branch",
            stacklevel=2,
        )
    roots = _even_sector_roots(g)
    if not roots:
        raise NoBoundState(f"no root of the bound-state equation in (0, sqrt({g}))")
    kappa = roots[0]
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
    cubic_constant: float  # fitted C in |E + g^2| <= C g^3

    def loglog_slope(self) -> float:
        return linear_fit(np.log(self.couplings), np.log(np.abs(self.energies)))[0]


def square_well_curve(couplings) -> BifurcationCurve:
    gs = np.asarray(sorted(couplings, reverse=True), dtype=float)
    if gs.size == 0:
        raise ConfigError("square_well_curve needs at least one coupling")
    es = np.array([square_well_eigenvalue(g) for g in gs])
    if np.any(es >= 0):
        raise NoBoundState("square-well energies must be negative")
    pred = -gs * gs
    c = float(np.max(np.abs(es - pred) / gs**3))
    return BifurcationCurve(gs, es, pred, c)


def bifurcation_csv(curve: BifurcationCurve) -> str:
    lines = ["g,E,E_predicted"]
    for g, e, p in zip(curve.couplings, curve.energies, curve.predicted):
        lines.append(f"{g:.15g},{e:.15g},{p:.15g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rank-one regularized 1D Laplacian


def rank_one_matching_system(quad_points: int = 20001):
    """Matching system for bounded solutions of u'' = c 1_[-1,1], c = int u.

    A bounded solution must be constant outside [-1, 1] and a + b x + c x^2/2
    inside; derivative continuity at the two edges and the self-consistency
    of c give a 3x3 linear system in (a, b, c).  The integral row is computed
    by quadrature of the basis rather than written down.
    """
    xs = np.linspace(-1.0, 1.0, quad_points)
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


def rank_one_regularized_threshold(grid: Grid1D | None = None,
                                   radii=None) -> ThresholdReport:
    """Certify that the rank-one projection regularizes the 1D threshold.

    (i) the homogeneous matching system is verified nonsingular; (ii) the
    discretized operator sweeps Regular at z0 = 0; removing the perturbation
    must sweep Virtual.  A conflict between (i) and (ii) raises.
    """
    grid = grid or Grid1D(20.0, 4001)
    cfg = SweepConfig(z0=0.0, angle=np.pi, radii=radii, s=2.0, sp=2.0)
    _, det, det_normalized = rank_one_matching_system()
    perturbed = classify(OperatorSpec.rank_one_perturbed_1d(grid), cfg)
    free = classify(OperatorSpec.free1d(grid), cfg)
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


def embedded_potential_3d(zeta, r):
    """Explicit radial pair (psi, V) with (-Lap + V - zeta^2) psi = 0.

    psi is exp(i zeta r)/r outside the unit ball and smooth inside; V is the
    piecewise-smooth potential zeta^2 + (Lap psi)/psi, identically zero for
    r > 1 and discontinuous across r = 1.  Both are evaluated from closed
    forms (the interior Laplacian is applied symbolically), so r = 0 is fine.
    """
    zeta = complex(zeta)
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
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
    if scalar:
        return complex(psi[0]), complex(v[0])
    return psi, v


@dataclass
class EmbeddedFamily:
    """Eigen-family zeta_j -> zeta0 with residuals and divergence evidence."""

    zeta0: float
    zetas: list
    residuals: np.ndarray
    sweep_result: object
    monotone_growth: bool
    alpha: float
    alpha_r2: float

    @property
    def residual_max(self) -> float:
        return float(np.max(self.residuals))


def eigen_residual_3d(zeta, r_max: float = 3.0, n: int = 15000,
                      band: int = 2) -> float:
    """Sup-norm finite-difference residual of the explicit eigen-triple.

    Checked on the reduced function u = r psi with Dirichlet u(0) = 0; a
    band of `band` cells around the interface r = 1 is excluded because V
    jumps there and the pointwise stencil is discretization-limited.
    """
    h = r_max / n
    r = h * np.arange(1, n + 1)
    psi, v = embedded_potential_3d(zeta, r)
    u = r * psi
    zeta = complex(zeta)
    upad = np.concatenate([[0.0], u])  # u(0) = 0 exactly
    resid = (-(upad[2:] - 2 * upad[1:-1] + upad[:-2]) / h**2
             + (v[:-1] - zeta**2) * u[:-1])
    keep = np.abs(r[:-1] - 1.0) > band * h
    return float(np.max(np.abs(resid[keep])))


def embedded_family_check(zeta0: float, n: int = 8, residual_tol: float = 1e-6,
                          grid: RadialGrid | None = None,
                          radii=None) -> EmbeddedFamily:
    """Residual-verify the eigen-family and sweep the limit operator.

    zeta_j = zeta0 + (1 + i)/j keeps z_j = zeta_j^2 inside the upper
    half-plane even at zeta0 = 0.  The sweep approaches z0 = zeta0^2 from
    above; unbounded growth there is the expected signature.
    """
    if n < 1:
        raise ConfigError(f"embedded family needs n >= 1 members, got n = {n}")
    zetas = [zeta0 + (1.0 + 1.0j) / j for j in range(1, n + 1)]
    residuals = np.array([eigen_residual_3d(zt) for zt in zetas])
    if np.max(residuals) > residual_tol:
        raise ModelViolation(
            f"eigen-residual {np.max(residuals):.3g} exceeds {residual_tol:.1g}"
        )
    grid = grid or RadialGrid(10.0, 1000)
    if radii is None:
        radii = tuple(1e-1 * 10 ** (-0.5 * k) for k in range(7))
    cfg = SweepConfig(z0=zeta0**2, angle=np.pi / 2, radii=radii, s=2.0, sp=2.0)
    op = OperatorSpec.schrodinger3d_radial(
        grid, lambda rr: embedded_potential_3d(zeta0, rr)[1], support=1.0)
    result = sweep(op, cfg)
    norms = result.norms()
    monotone = bool(len(norms) >= 2 and np.all(np.diff(norms) > 0))
    alpha, r2 = fit_exponent(result)
    return EmbeddedFamily(zeta0, zetas, residuals, result, monotone, alpha, r2)


def embedded_csv(family: EmbeddedFamily) -> str:
    lines = ["j,zeta_re,zeta_im,residual"]
    for j, (zt, res) in enumerate(zip(family.zetas, family.residuals), start=1):
        zt = complex(zt)
        lines.append(f"{j},{zt.real:.15g},{zt.imag:.15g},{res:.15g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrix nullity by random finite-rank perturbations


def matrix_nullity_by_perturbation(m: np.ndarray, trials: int = 64,
                                   rng_seed: int = 0) -> int:
    """dim ker(M) as the least rank of N with det(M + N) != 0.

    Rank-k candidates are sums of k Gaussian outer products, normalized to
    Frobenius norm 1e-3; a determinant counts as nonzero above
    1e-12 * max(sigma_max, 1e-3)^n.  The answer must agree with the SVD
    nullity (singular values <= 1e-10 sigma_max), otherwise SamplingFailure.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
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

    found = None
    for k in range(0, n + 1):
        if k == 0:
            if abs(np.linalg.det(m)) > threshold:
                found = 0
                break
            continue
        if any(abs(np.linalg.det(m + random_rank_k(k))) > threshold
               for _ in range(trials)):
            found = k
            break
    if found != svd_nullity:
        raise SamplingFailure(
            f"perturbation search returned {found}, SVD nullity is {svd_nullity}; "
            f"retry with more trials"
        )
    return found
