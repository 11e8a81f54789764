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

Resolvent engines: free kinds apply free_resolvent's O(n) semiseparable
kernels; every other kind solves with one tridiagonal LAPACK LU of H - z
(gttrf/gtcon, plus a Sherman-Morrison update for the rank-one kind), and an
ill-conditioned LU raises NearSpectrum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigError, FitError, NearSpectrum
from .free_resolvent import free_semiseparable_kernel
from .jost import Potential1D
from .reports import Classification, ThresholdReport
from .weighted_space import (
    Grid1D,
    KernelOperator,
    RadialGrid,
    _power_iteration_norm,
    cell_average,
    linear_fit,
    weight,
)

_MAX_GRID_SPACING = 0.01  # resolution contract for differential operators
_COND_LIMIT = 1e14
_MAX_ABS_BLOCK = 64  # identity columns per solve in _SolverEngine.max_abs_entry


class OperatorKind(enum.Enum):
    FREE_1D = "free1d"
    FREE_2D_RADIAL = "free2d"
    FREE_3D_RADIAL = "free3d"
    SCHRODINGER_1D = "schrod1d"
    SCHRODINGER_3D_RADIAL = "schrod3d"
    RANK_ONE_PERTURBED_1D = "rankone1d"


@dataclass(frozen=True)
class OperatorSpec:
    """A model operator a sweep can be run against."""

    kind: OperatorKind
    grid: object = None
    potential: Potential1D | None = None
    radial_potential: Callable | None = field(default=None, repr=False)
    radial_support: float = 0.0

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

    def check_resolution(self, z: complex) -> None:
        """Enforce h <= min(0.01, wavelength / 20) at the swept point."""
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
    radii: tuple | None = None  # None: default_radii()
    s: float = 2.0
    sp: float = 2.0
    flavor: str = "weighted_l2"

    def __post_init__(self):
        radii = default_radii() if self.radii is None else self.radii
        object.__setattr__(self, "radii", tuple(sorted(map(float, radii), reverse=True)))
        for name in ("z0", "angle", "s", "sp"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} = {getattr(self, name)} is not finite")
        if len(self.radii) < 5:
            raise ConfigError("at least 5 radii are required")
        if not all(0.0 < r < np.inf for r in self.radii):
            raise ConfigError("radii must be finite and positive")
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


_LINE_KINDS = (OperatorKind.FREE_1D, OperatorKind.SCHRODINGER_1D,
               OperatorKind.RANK_ONE_PERTURBED_1D)
_RADIAL_KINDS = (OperatorKind.FREE_3D_RADIAL, OperatorKind.SCHRODINGER_3D_RADIAL)


def _tridiagonal(op: OperatorSpec, z: complex):
    """Bands (dl, d, du) of the tridiagonal part of (H - z).

    Line kinds carry the lattice outgoing/decaying matching u_outside =
    lam u_edge at both edges; the radial half-line has a Dirichlet condition
    at r = 0 and the matching at r = R.  The rank-one kind's indicator
    projection is not part of the bands.
    """
    if op.kind not in _LINE_KINDS + _RADIAL_KINDS:
        raise ConfigError(f"no discrete Hamiltonian for kind {op.kind}")
    grid = op.grid
    h = grid.spacing
    n = grid.n_points
    v = np.zeros(n, dtype=complex)
    if op.potential is not None:
        v = cell_average(op.potential.sample, grid.points, h)
    elif op.radial_potential is not None:
        def sampler(t_):
            t_ = np.asarray(t_)
            inside = (t_ <= op.radial_support) & (t_ > 0)
            out = np.zeros(t_.shape, dtype=complex)
            if np.any(inside):
                out[inside] = np.asarray(op.radial_potential(t_[inside]), dtype=complex)
            return out

        v = cell_average(sampler, grid.points, h)
    d = (2.0 / h**2 + v - z).astype(complex)
    edge = _dtn_root(z, h) / h**2
    d[-1] -= edge
    if op.kind in _LINE_KINDS:
        d[0] -= edge
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return off, d, off.copy()


def discrete_hamiltonian(op: OperatorSpec, z: complex) -> "scipy.sparse.csc_matrix":
    """Sparse matrix of (H - z) with transparent boundary closure.

    The bands of `_tridiagonal`; the rank-one kind adds the indicator
    projection 1_[-1,1] <1_[-1,1], .>.
    """
    import scipy.sparse as sp  # imported here: no resolvent engine needs it

    t = sp.diags(_tridiagonal(op, z), [-1, 0, 1], format="csc")
    if op.kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        col = sp.csc_matrix(_indicator_vector(op.grid)[:, None])
        t = sp.csc_matrix(t + op.grid.spacing * (col @ col.T))
    return t


def apply_shifted_operator(op: OperatorSpec, z: complex, u: np.ndarray) -> np.ndarray:
    """(H - z) u for residual checks of candidate states, in O(n) from the
    bands of `_tridiagonal` (plus h 1 <1, u> for the rank-one kind)."""
    if op.kind is OperatorKind.FREE_2D_RADIAL:
        raise ConfigError("no difference operator is attached to the 2D kernel model")
    u = np.asarray(u)
    dl, d, du = _tridiagonal(op, z)
    out = d * u
    out[1:] += dl * u[:-1]
    out[:-1] += du * u[1:]
    if op.kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        ind = _indicator_vector(op.grid)
        out += op.grid.spacing * (ind @ u) * ind
    return out


def _check_condition(info: int, rcond_of) -> None:
    """NearSpectrum for a singular LU (info != 0) or a reciprocal condition
    estimate below 1 / _COND_LIMIT; `rcond_of` is called only when info == 0."""
    rc = rcond_of() if info == 0 else 0.0
    if not rc * _COND_LIMIT >= 1.0:
        raise NearSpectrum(f"condition estimate {1.0 / rc if rc > 0 else np.inf:.3g} "
                           f"exceeds {_COND_LIMIT:.0e}")


def _band_norm1(dl, d, du) -> float:
    """1-norm of tridiag(dl, d, du): column j holds du[j-1], d[j] and dl[j]."""
    return float(np.max(np.abs(d) + np.abs(np.r_[0, du]) + np.abs(np.r_[dl, 0])))


class _SolverEngine:
    """Resolvent kernel T^{-1} / h from one LAPACK LU of the tridiagonal
    T = H - z, factored with zgttrf and checked with zgtcon.  `solve(b, trans)`
    applies T^{-1}, or T^{-H} for trans="C"; matvec, rmatvec, max_abs_entry
    and entries all go through it.
    """

    def __init__(self, op: OperatorSpec, z: complex):
        self.grid_in = self.grid_out = op.grid
        self.h = op.grid.spacing
        self.n = op.grid.n_points
        bands = _tridiagonal(op, z)
        *factors, info = lapack.zgttrf(*bands)
        _check_condition(info, lambda: lapack.zgtcon(*factors, _band_norm1(*bands))[0])
        self.solve = lambda b, trans="N": lapack.zgttrs(*factors, b, trans=trans)[0]

    def matvec(self, g):
        return self.solve(g) / self.h

    def rmatvec(self, g):
        return self.solve(g, "C") / self.h

    @property
    def entries(self):
        return self.solve(np.eye(self.n, dtype=complex)) / self.h

    def max_abs_entry(self) -> float:
        """max |K_ij| from identity blocks of at most _MAX_ABS_BLOCK columns,
        so memory stays O(_MAX_ABS_BLOCK n) where `entries` needs n^2."""
        best = 0.0
        for start in range(0, self.n, _MAX_ABS_BLOCK):
            width = min(_MAX_ABS_BLOCK, self.n - start)
            eye = np.zeros((self.n, width), dtype=complex, order="F")
            eye[start + np.arange(width), np.arange(width)] = 1.0
            best = max(best, float(np.max(np.abs(self.solve(eye) / self.h))))
        return best


class _RankOneEngine(_SolverEngine):
    """Indicator projection h u u^T on top of the factored tridiagonal part,
    resolved by the Sherman-Morrison update of its solve."""

    def __init__(self, op: OperatorSpec, z: complex):
        super().__init__(op, z)
        base, h = self.solve, self.h
        u = _indicator_vector(op.grid).astype(complex)  # real, so u^H = u^T
        tu, tu_h = base(u), base(u, "C")
        denom = 1.0 + h * np.dot(u, tu)
        scale = max(1.0, float(np.linalg.norm(tu)) * h)
        if abs(denom) < 1e-14 * scale:
            raise NearSpectrum("rank-one update is singular at this z")

        def solve(b, trans="N"):
            y = base(b, trans)
            if trans == "N":
                return y - np.multiply.outer(tu, h * (u @ y) / denom)
            return y - np.multiply.outer(tu_h, h * (u @ y) / np.conj(denom))

        self.solve = solve


_FREE_DIMENSION = {OperatorKind.FREE_1D: 1, OperatorKind.FREE_2D_RADIAL: 2,
                   OperatorKind.FREE_3D_RADIAL: 3}


def _make_engine(op: OperatorSpec, z: complex):
    """Resolvent kernel of op at z: grid_in, grid_out, matvec, rmatvec (K^H),
    max_abs_entry and dense entries.

    The free kernels (1D, radial 2D and radial 3D) are the semiseparable
    operators of free_resolvent.free_semiseparable_kernel, applied in O(n);
    the 2D generators are scaled AMOS Bessel functions.  Every other kind is
    a _SolverEngine, Sherman-Morrison updated for the rank-one kind.
    """
    op.check_resolution(z)
    kind = op.kind
    if kind in _FREE_DIMENSION:
        return free_semiseparable_kernel(_FREE_DIMENSION[kind], op.grid,
                                         np.sqrt(complex(-z)))
    if kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        return _RankOneEngine(op, z)
    return _SolverEngine(op, z)


def resolvent_matrix(op: OperatorSpec, z: complex) -> KernelOperator:
    """Dense kernel operator of (H - z)^{-1} at an admissible z."""
    engine = _make_engine(op, complex(z))
    return KernelOperator(op.grid, op.grid, engine.entries)


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
                points.append(SweepPoint(r, z, engine.max_abs_entry()))
                continue
            sigma, v0, u, its, ok = _power_iteration_norm(engine, cfg.s, cfg.sp, v0=v0)
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
    # sup-normalized, phase from the first entry of at least half the peak:
    # the peak of an odd state ties between +-x, so argmax follows rounding
    mod = np.abs(psi)
    k = np.argmax(mod >= 0.5 * mod.max())
    psi = psi / (psi[k] / mod[k] * mod.max())
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
    if refine:
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
