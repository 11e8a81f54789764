"""Resolvent-norm sweeps toward a threshold, exponent fits, classification.

A sweep evaluates the weighted-space (or L1 -> Linf) norm of the resolvent
of a model operator at spectral points z = z0 + r_k exp(i theta) marching
down a geometric sequence of radii inside the approach region.  A least
squares fit of log(norm) against -log(radius) quantifies the divergence
rate; exponent ~0 means the threshold is a regular point, a positive
exponent (or logarithmic growth, flagged separately) marks a virtual level.
Virtual states are recovered from the top singular direction of the
resolvent at the smallest radius and certified by a residual check against
the discretized operator.

Discretized Schrödinger operators use second-order finite differences with
transparent boundary closures: the outgoing/decaying lattice solution of the
free difference equation is matched exactly at the grid edge, so no
artificial reflection pollutes small-|z| norms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, FitError, NearSpectrum
from .free_resolvent import free_semiseparable_kernel
from .jost import Potential1D
from .reports import Classification, ThresholdReport
from .weighted_space import (
    _PI_SEED,
    Grid1D,
    IndexGrid,
    KernelOperator,
    RadialGrid,
    _power_iteration_norm,
    cell_average,
    linear_fit,
    weight,
)

_MAX_GRID_SPACING = 0.01  # resolution contract for differential operators
_COND_LIMIT = 1e14


class OperatorKind(enum.Enum):
    FREE_1D = "free1d"
    FREE_2D_RADIAL = "free2d"
    FREE_3D_RADIAL = "free3d"
    SCHRODINGER_1D = "schrod1d"
    SCHRODINGER_3D_RADIAL = "schrod3d"
    RANK_ONE_PERTURBED_1D = "rankone1d"
    MATRIX = "matrix"


@dataclass(frozen=True)
class OperatorSpec:
    """A model operator a sweep can be run against."""

    kind: OperatorKind
    grid: object = None
    potential: Potential1D | None = None
    radial_potential: Callable | None = field(default=None, repr=False)
    radial_support: float = 0.0
    matrix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def free1d(cls, grid: Grid1D) -> "OperatorSpec":
        return cls(OperatorKind.FREE_1D, grid=grid)

    @classmethod
    def free2d_radial(cls, grid: RadialGrid) -> "OperatorSpec":
        return cls(OperatorKind.FREE_2D_RADIAL, grid=grid)

    @classmethod
    def free3d_radial(cls, grid: RadialGrid) -> "OperatorSpec":
        return cls(OperatorKind.FREE_3D_RADIAL, grid=grid)

    @classmethod
    def schrodinger1d(cls, potential: Potential1D) -> "OperatorSpec":
        return cls(OperatorKind.SCHRODINGER_1D, grid=potential.grid, potential=potential)

    @classmethod
    def schrodinger3d_radial(cls, grid: RadialGrid, v_of_r: Callable,
                             support: float) -> "OperatorSpec":
        if support >= grid.max_radius:
            raise ConfigError("potential support must end inside the radial grid")
        return cls(OperatorKind.SCHRODINGER_3D_RADIAL, grid=grid,
                   radial_potential=v_of_r, radial_support=support)

    @classmethod
    def rank_one_perturbed_1d(cls, grid: Grid1D) -> "OperatorSpec":
        return cls(OperatorKind.RANK_ONE_PERTURBED_1D, grid=grid)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "OperatorSpec":
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("matrix operator must be square")
        return cls(OperatorKind.MATRIX, grid=IndexGrid(m.shape[0]), matrix=m)

    @property
    def is_differential(self) -> bool:
        return self.kind is not OperatorKind.MATRIX

    def check_resolution(self, z: complex) -> None:
        """Enforce h <= min(0.01, wavelength / 20) at the swept point."""
        if not self.is_differential:
            return
        h = self.grid.spacing
        k_osc = abs(np.imag(np.sqrt(complex(-z))))
        limit = _MAX_GRID_SPACING
        if k_osc > 0:
            limit = min(limit, 2.0 * np.pi / k_osc / 20.0)
        if h > limit * (1.0 + 1e-9):
            raise ConfigError(
                f"grid spacing {h:.4g} exceeds the resolution limit {limit:.4g}"
            )

    def refined(self) -> "OperatorSpec":
        if self.kind is OperatorKind.MATRIX:
            return self
        fine = self.grid.refined()
        pot = self.potential
        if pot is not None:
            pot = Potential1D(pot.support_radius, pot.func, fine)
        return replace(self, grid=fine, potential=pot)


@dataclass(frozen=True)
class SweepConfig:
    """Approach geometry and norm flavor of a sweep."""

    z0: complex = 0.0
    angle: float = np.pi
    radii: tuple = ()
    s: float = 2.0
    sp: float = 2.0
    flavor: str = "weighted_l2"

    def __post_init__(self):
        radii = tuple(float(r) for r in (self.radii or default_radii()))
        object.__setattr__(self, "radii", tuple(sorted(radii, reverse=True)))
        if len(self.radii) < 5:
            raise ConfigError("at least 5 radii are required")
        if max(self.radii) / min(self.radii) < 1e3 * (1 - 1e-9):
            raise ConfigError("radii must span at least three decades")
        if self.flavor not in ("weighted_l2", "l1_linf"):
            raise ConfigError(f"unknown norm flavor {self.flavor!r}")
        for r in self.radii:
            z = self.point(r)
            if z.imag == 0.0 and z.real >= 0.0:
                raise ConfigError(
                    f"sweep point z = {z} lies on the closed positive axis"
                )

    def point(self, radius: float) -> complex:
        return complex(self.z0) + radius * _direction(self.angle)


def _direction(angle: float) -> complex:
    # snap exact axis directions so rays like z = -r stay exactly real
    quarter = angle / (np.pi / 2.0)
    nearest = round(quarter)
    if abs(quarter - nearest) < 1e-12:
        return (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[int(nearest) % 4]
    return complex(np.exp(1j * angle))


def default_radii(r0: float = 1e-2, ratio: float = 10.0 ** -0.5,
                  count: int = 9) -> tuple:
    return tuple(r0 * ratio ** k for k in range(count))


@dataclass
class SweepPoint:
    """One resolvent norm; `iterations` and `converged` describe its power
    iteration (0 and True for the exact l1_linf flavor)."""

    radius: float
    z: complex
    norm: float
    iterations: int = 0
    converged: bool = True


@dataclass
class SweepResult:
    points: list
    config: SweepConfig
    aborted: str | None = None
    left_vector: np.ndarray | None = field(default=None, repr=False)  # at the last point

    def radii(self) -> np.ndarray:
        return np.array([p.radius for p in self.points])

    def norms(self) -> np.ndarray:
        return np.array([p.norm for p in self.points])


# ---------------------------------------------------------------------------
# discrete operators and resolvent engines


def _dtn_root(z: complex, h: float) -> complex:
    """Decaying root of the free difference equation u_{j+1} = lam u_j."""
    b = 2.0 - z * h * h
    s = np.sqrt(complex(b * b - 4.0))
    lam1 = (b - s) / 2.0
    lam2 = (b + s) / 2.0
    return lam1 if abs(lam1) <= abs(lam2) else lam2


def _indicator_vector(grid: Grid1D) -> np.ndarray:
    """Cell-averaged samples of 1_[-1,1] on the grid (edge cells weigh 1/2)."""
    return cell_average(lambda t_: (np.abs(t_) <= 1.0).astype(float),
                        grid.points, grid.spacing).real


def discrete_hamiltonian(op: OperatorSpec, z: complex) -> sp.csc_matrix:
    """Sparse matrix of (H - z) with transparent boundary closure.

    For 1D kinds both edges carry the lattice outgoing/decaying matching
    u_outside = lam u_edge; the radial half-line has a Dirichlet condition
    at r = 0 and the matching at r = R.  The rank-one kind adds the
    indicator projection 1_[-1,1] <1_[-1,1], .>.
    """
    kind = op.kind
    if kind is OperatorKind.MATRIX:
        n = op.matrix.shape[0]
        return sp.csc_matrix(op.matrix - z * np.eye(n))
    grid = op.grid
    h = grid.spacing
    n = grid.n_points
    x = grid.points
    lam = _dtn_root(z, h)
    if kind in (OperatorKind.FREE_1D, OperatorKind.SCHRODINGER_1D,
                OperatorKind.RANK_ONE_PERTURBED_1D):
        v = np.zeros(n, dtype=complex)
        if op.potential is not None:
            v = cell_average(op.potential.sample, x, h)
        diag = 2.0 / h**2 + v - z
        diag = diag.astype(complex)
        diag[0] -= lam / h**2
        diag[-1] -= lam / h**2
        off = np.full(n - 1, -1.0 / h**2, dtype=complex)
        t = sp.diags([off, diag, off], [-1, 0, 1], format="csc")
        if kind is OperatorKind.RANK_ONE_PERTURBED_1D:
            ind = _indicator_vector(grid)
            col = sp.csc_matrix(ind[:, None])
            t = sp.csc_matrix(t + h * (col @ col.T))
        return t
    if kind in (OperatorKind.FREE_3D_RADIAL, OperatorKind.SCHRODINGER_3D_RADIAL):
        v = np.zeros(n, dtype=complex)
        if op.radial_potential is not None:
            def sampler(t_):
                t_ = np.asarray(t_)
                inside = (t_ <= op.radial_support) & (t_ > 0)
                out = np.zeros(t_.shape, dtype=complex)
                if np.any(inside):
                    out[inside] = np.asarray(op.radial_potential(t_[inside]), dtype=complex)
                return out

            v = cell_average(sampler, x, h)
        diag = 2.0 / h**2 + v - z
        diag = diag.astype(complex)
        diag[-1] -= lam / h**2  # Dirichlet at r = 0 needs no correction
        off = np.full(n - 1, -1.0 / h**2, dtype=complex)
        return sp.diags([off, diag, off], [-1, 0, 1], format="csc")
    raise ConfigError(f"no discrete Hamiltonian for kind {kind}")


def apply_shifted_operator(op: OperatorSpec, z: complex, u: np.ndarray) -> np.ndarray:
    """(H - z) u for residual checks of candidate states."""
    if op.kind is OperatorKind.FREE_2D_RADIAL:
        raise ConfigError("no difference operator is attached to the 2D kernel model")
    return discrete_hamiltonian(op, z) @ u


class _DenseEngine:
    def __init__(self, entries: np.ndarray):
        self.entries = entries

    def matvec(self, g):
        return self.entries @ g

    def rmatvec(self, g):
        return self.entries.conj().T @ g


class _SolverEngine:
    """Banded (H - z) factorization; the resolvent kernel is T^{-1} / h."""

    def __init__(self, op: OperatorSpec, z: complex):
        t = discrete_hamiltonian(op, z)
        self.h = op.grid.spacing if op.is_differential else 1.0
        self.n = t.shape[0]
        norm_t = spla.norm(t, 1)
        try:
            self.lu = spla.splu(t)
        except RuntimeError as exc:
            raise NearSpectrum(f"factorization of (H - z) failed: {exc}") from exc
        inv_norm = self._inverse_norm_estimate()
        if not np.isfinite(inv_norm) or norm_t * inv_norm > _COND_LIMIT:
            raise NearSpectrum(
                f"condition estimate {norm_t * inv_norm:.3g} exceeds {_COND_LIMIT:.0e}"
            )

    def _inverse_norm_estimate(self, iters: int = 4) -> float:
        rng = np.random.default_rng(_PI_SEED)
        v = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        est = 0.0
        for _ in range(iters):
            u = self.lu.solve(v)
            nu = np.linalg.norm(u)
            if not np.isfinite(nu) or nu == 0.0:
                return np.inf
            est = nu
            v = self.lu.solve(u / nu, trans="H")
            nv = np.linalg.norm(v)
            est = max(est, nv)
            if nv == 0.0 or not np.isfinite(nv):
                return np.inf
            v /= nv
        return est

    def matvec(self, g):
        return self.lu.solve(g.astype(complex)) / self.h

    def rmatvec(self, g):
        return self.lu.solve(g.astype(complex), trans="H") / self.h

    @property
    def entries(self):
        return self.lu.solve(np.eye(self.n, dtype=complex)) / self.h


class _RankOneEngine:
    """Indicator-projection perturbation resolved by the Sherman-Morrison
    update of the factored tridiagonal part."""

    def __init__(self, op: OperatorSpec, z: complex):
        base = OperatorSpec.free1d(op.grid)
        self.base = _SolverEngine(base, z)
        self.n = self.base.n
        self.h = op.grid.spacing
        self.u = _indicator_vector(op.grid).astype(complex)
        self.tu = self.base.lu.solve(self.u)
        self.tu_h = self.base.lu.solve(np.conj(self.u), trans="H")
        self.denom = 1.0 + self.h * np.dot(self.u, self.tu)
        scale = max(1.0, float(np.linalg.norm(self.tu)) * self.h)
        if abs(self.denom) < 1e-14 * scale:
            raise NearSpectrum("rank-one update is singular at this z")

    def matvec(self, g):
        y = self.base.lu.solve(g.astype(complex))
        y = y - self.tu * (self.h * np.dot(self.u, y) / self.denom)
        return y / self.h

    def rmatvec(self, g):
        y = self.base.lu.solve(g.astype(complex), trans="H")
        y = y - self.tu_h * (self.h * np.dot(np.conj(self.u), y) / np.conj(self.denom))
        return y / self.h

    @property
    def entries(self):
        tinv = self.base.lu.solve(np.eye(self.n, dtype=complex))
        correction = np.outer(self.tu, (self.u @ tinv)) * (self.h / self.denom)
        return (tinv - correction) / self.h


_FREE_DIMENSION = {OperatorKind.FREE_1D: 1, OperatorKind.FREE_2D_RADIAL: 2,
                   OperatorKind.FREE_3D_RADIAL: 3}


def _make_engine(op: OperatorSpec, z: complex):
    """Resolvent kernel of op at z: matvec, rmatvec (K^H) and dense entries.

    The free kernels (1D, radial 2D and radial 3D) are the semiseparable
    operators of free_resolvent.free_semiseparable_kernel, applied in O(n);
    the 2D generators are scaled AMOS Bessel functions.
    """
    op.check_resolution(z)
    kind = op.kind
    if kind in _FREE_DIMENSION:
        return free_semiseparable_kernel(_FREE_DIMENSION[kind], op.grid,
                                         np.sqrt(complex(-z)))
    if kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        return _RankOneEngine(op, z)
    if kind is OperatorKind.MATRIX:
        m = op.matrix
        zi = np.linalg.cond(m - z * np.eye(m.shape[0]))
        if zi > _COND_LIMIT:
            raise NearSpectrum(f"matrix condition {zi:.3g} exceeds {_COND_LIMIT:.0e}")
        return _DenseEngine(np.linalg.inv(m - z * np.eye(m.shape[0])))
    return _SolverEngine(op, z)


def resolvent_matrix(op: OperatorSpec, z: complex) -> KernelOperator:
    """Dense kernel operator of (H - z)^{-1} at an admissible z."""
    engine = _make_engine(op, complex(z))
    return KernelOperator(op.grid, op.grid, engine.entries)


def _weighted_norm_via_engine(engine, grid, s: float, sp_: float,
                              v0=None, tol: float = 1e-8):
    """Norm (and singular directions) of the rescaled resolvent matrix."""
    w_in = weight(grid.points, -s)
    w_out = weight(grid.points, -sp_)
    scale = grid.spacing

    def mv(v):
        return scale * w_out * engine.matvec(w_in * v)

    def rmv(u):
        return scale * w_in * engine.rmatvec(w_out * u)

    return _power_iteration_norm(mv, rmv, grid.n_points, complex, tol=tol, v0=v0,
                                 return_vectors=True)


def sweep(op: OperatorSpec, cfg: SweepConfig) -> SweepResult:
    """Resolvent norms at z = z0 + r exp(i angle), largest radius first.

    Points are evaluated in order, each power iteration warm-started from the
    previous singular vector; the last left one is kept.  A near-spectrum
    failure aborts the sweep and returns the radii already computed.
    """
    points: list[SweepPoint] = []
    aborted = None
    v0 = u = None
    for r in cfg.radii:
        z = cfg.point(r)
        try:
            engine = _make_engine(op, z)
            if cfg.flavor == "l1_linf":
                points.append(SweepPoint(r, z, float(np.max(np.abs(engine.entries)))))
                continue
            sigma, v0, u, its, ok = _weighted_norm_via_engine(engine, op.grid, cfg.s,
                                                              cfg.sp, v0=v0)
            points.append(SweepPoint(r, z, sigma, its, ok))
        except NearSpectrum as exc:
            aborted = str(exc)
            break
    return SweepResult(points, cfg, aborted, u)


def fit_exponent(points) -> tuple[float, float]:
    """Least-squares slope of log(norm) against -log(radius), with r^2.

    Accepts a SweepResult or an iterable of (radius, norm) pairs.
    """
    radii, norms = _as_arrays(points)
    if radii.size < 4:
        raise FitError("at least 4 points are required")
    if np.any(norms <= 0):
        raise FitError("norms must be positive")
    x = -np.log(radii)
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate abscissae")
    y = np.log(norms)
    return linear_fit(x, y)


def fit_log_divergence(points) -> tuple[float, float]:
    """Slope and r^2 of norm against log(1/radius) (logarithmic growth)."""
    radii, norms = _as_arrays(points)
    if radii.size < 4:
        raise FitError("at least 4 points are required")
    x = np.log(1.0 / radii)
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate abscissae")
    return linear_fit(x, norms)


def _as_arrays(points):
    if isinstance(points, SweepResult):
        return points.radii(), points.norms()
    arr = np.array([(r, n) for r, n in points], dtype=float)
    return arr[:, 0], arr[:, 1]


def _extract_state(op: OperatorSpec, result: SweepResult, state_tol: float):
    """Candidate virtual state from the left singular vector a full sweep kept."""
    u_out = result.left_vector
    if op.kind is OperatorKind.FREE_2D_RADIAL or result.aborted or u_out is None:
        return None, None
    cfg = result.config
    psi = u_out * weight(op.grid.points, cfg.sp)
    center = np.argmax(np.abs(psi))
    psi = psi / psi[center]
    resid = apply_shifted_operator(op, complex(cfg.z0), psi)
    w_f = weight(op.grid.points, -cfg.sp)
    rel = np.linalg.norm(w_f * resid) / max(np.linalg.norm(w_f * psi), 1e-300)
    if rel <= state_tol:
        return psi, float(rel)
    return None, float(rel)


def classify(op: OperatorSpec, cfg: SweepConfig, tol_alpha: float = 0.1,
             refine: bool = True, state_tol: float = 0.02) -> ThresholdReport:
    """Regular/Virtual/Inconclusive verdict for the threshold cfg.z0.

    Power-law exponent above tol_alpha (with a credible fit) is Virtual;
    logarithmic growth is Virtual flagged "log"; flat norms are Regular.
    The verdict must survive one grid refinement (h -> h/2) with converged
    power iterations, otherwise the report is Inconclusive.  `report.sweeps`
    keeps the coarse and refined sweeps; the state comes from the coarse one.
    """
    sweeps = [sweep(op, cfg)]
    if refine and op.is_differential:
        sweeps.append(sweep(op.refined(), cfg))
    report = _classify_from_sweep(sweeps[0], tol_alpha)
    report.diagnostics["aborted"] = sweeps[0].aborted
    report.sweeps = sweeps
    stalled = [p.radius for s in sweeps for p in s.points if not p.converged]
    if stalled:
        return _inconclusive(report, "power iteration did not converge at radius "
                                     f"{stalled[0]:.6g}")
    if len(sweeps) == 2:
        fine = _classify_from_sweep(sweeps[1], tol_alpha).classification
        report.diagnostics["refined_classification"] = fine.value
        if fine is not report.classification:
            return _inconclusive(report, "verdict unstable under grid refinement",
                                 fine=fine.value)
    if report.classification is Classification.VIRTUAL:
        psi, resid = _extract_state(op, sweeps[0], state_tol)
        if psi is not None:
            report.rank = 1
            report.states = [psi]
        report.diagnostics["state_residual"] = resid
    return report


def _inconclusive(report: ThresholdReport, reason: str, **diag) -> ThresholdReport:
    return ThresholdReport(
        Classification.INCONCLUSIVE, alpha=report.alpha, alpha_r2=report.alpha_r2,
        norms=report.norms, sweeps=report.sweeps,
        diagnostics={"reason": reason, "coarse": report.classification.value, **diag})


def _classify_from_sweep(result: SweepResult, tol_alpha: float) -> ThresholdReport:
    pts = list(zip(result.radii(), result.norms()))
    if len(pts) < 4:
        return ThresholdReport(Classification.INCONCLUSIVE, norms=pts,
                               diagnostics={"reason": "sweep too short",
                                            "aborted": result.aborted})
    alpha, r2p = fit_exponent(pts)
    lslope, lr2 = fit_log_divergence(pts)
    norms = result.norms()
    growth = float(norms[-1] / norms[0])  # smallest radius last
    diag = {"alpha": alpha, "alpha_r2": r2p, "log_slope": lslope,
            "log_r2": lr2, "growth": growth}
    if alpha > tol_alpha and r2p >= 0.95:
        logflag = lr2 > r2p and alpha < 0.3 and growth < 10.0
        return ThresholdReport(Classification.VIRTUAL, alpha=alpha, alpha_r2=r2p,
                               divergence="log" if logflag else "power",
                               norms=pts, diagnostics=diag)
    if alpha <= tol_alpha:
        if growth >= 1.5 and lr2 >= 0.98 and lslope > 0:
            return ThresholdReport(Classification.VIRTUAL, alpha=alpha,
                                   alpha_r2=r2p, divergence="log", norms=pts,
                                   diagnostics=diag)
        return ThresholdReport(Classification.REGULAR, rank=0, alpha=alpha,
                               alpha_r2=r2p, norms=pts, diagnostics=diag)
    return ThresholdReport(Classification.INCONCLUSIVE, alpha=alpha,
                           alpha_r2=r2p, norms=pts, diagnostics=diag)


def sweep_csv(result: SweepResult) -> str:
    """CSV rows `radius,norm,z_re,z_im` at 15 significant digits."""
    lines = ["radius,norm,z_re,z_im"]
    for p in result.points:
        lines.append(f"{p.radius:.15g},{p.norm:.15g},{p.z.real:.15g},{p.z.imag:.15g}")
    return "\n".join(lines) + "\n"
