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

An operator is its kind, its grid and one potential sampler.  Discretized
Schrödinger operators use second-order finite differences with transparent
boundary closures: the outgoing/decaying lattice solution of the free
difference equation is matched exactly at the grid edge, so no artificial
reflection pollutes small-|z| norms.  The grid's type sets the edges: both
ends of a Grid1D line, r = R of a RadialGrid half-line (r = 0 is Dirichlet).

Resolvent engines: free kinds apply the O(n) semiseparable kernels of
free_resolvent.build_free_kernel_operator; every other kind is one
_SolverEngine, a tridiagonal LAPACK LU of H - z (gttrf, plus a
Sherman-Morrison update for the rank-one kind), and an ill-conditioned LU
raises NearSpectrum.  The condition check costs one
two-column solve: H - z is complex symmetric, so its inverse is semiseparable
and the columns T^{-1} e_1 and T^{-1} e_n give ||T^{-1}||_1 exactly.  gtcon's
estimate never exceeds that norm, so gtcon runs only where it cannot
certify the point.  The z-independent diagonal 2/h^2 + V is sampled once per
operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigError, FitError, NearSpectrum
from .free_resolvent import SpectralParameter, build_free_kernel_operator
from .jost import Potential1D
from .reports import Classification, ThresholdReport, csv_table
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
_CERTIFY_MARGIN = 4.0  # slack of the two-solve ||T^-1||_1 certificate below _COND_LIMIT
_MAX_ABS_BLOCK = 64  # identity columns per solve in _SolverEngine.max_abs_entry
_TOL_ALPHA = 0.1  # a power-law exponent above this (fit r^2 >= 0.95) is Virtual
_STATE_TOL = 0.02  # largest weighted relative residual of a reported state


class OperatorKind(enum.Enum):
    FREE_1D = "free1d"
    FREE_2D_RADIAL = "free2d"
    FREE_3D_RADIAL = "free3d"
    SCHRODINGER_1D = "schrod1d"
    SCHRODINGER_3D_RADIAL = "schrod3d"
    RANK_ONE_PERTURBED_1D = "rankone1d"


@dataclass(frozen=True)
class OperatorSpec:
    """A model operator a sweep can be run against: -Lap + V on `grid`, with V
    the cell average of `sampler` (None: V = 0)."""

    kind: OperatorKind
    grid: Grid1D | RadialGrid
    sampler: Callable | None = field(default=None, repr=False)

    @classmethod
    def free1d(cls, grid: Grid1D) -> "OperatorSpec":
        return cls(OperatorKind.FREE_1D, grid)

    @classmethod
    def free2d_radial(cls, grid: RadialGrid) -> "OperatorSpec":
        return cls(OperatorKind.FREE_2D_RADIAL, grid)

    @classmethod
    def free3d_radial(cls, grid: RadialGrid) -> "OperatorSpec":
        return cls(OperatorKind.FREE_3D_RADIAL, grid)

    @classmethod
    def schrodinger1d(cls, potential: Potential1D) -> "OperatorSpec":
        return cls(OperatorKind.SCHRODINGER_1D, potential.grid, potential.sample)

    @classmethod
    def schrodinger3d_radial(cls, grid: RadialGrid, v_of_r: Callable,
                             support: float) -> "OperatorSpec":
        """V = v_of_r on (0, support], zero beyond; support ends inside the grid."""
        if support >= grid.max_radius:
            raise ConfigError("potential support must end inside the radial grid")

        def sampler(t_):
            t_ = np.asarray(t_)
            inside = (t_ <= support) & (t_ > 0)
            out = np.zeros(t_.shape, dtype=complex)
            if np.any(inside):
                out[inside] = np.asarray(v_of_r(t_[inside]), dtype=complex)
            return out

        return cls(OperatorKind.SCHRODINGER_3D_RADIAL, grid, sampler)

    @classmethod
    def rank_one_perturbed_1d(cls, grid: Grid1D) -> "OperatorSpec":
        return cls(OperatorKind.RANK_ONE_PERTURBED_1D, grid)

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
        return replace(self, grid=self.grid.refined())

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The z-independent diagonal 2/h^2 + V of the tridiagonal part."""
        h = self.grid.spacing
        v = (np.zeros(self.grid.n_points, dtype=complex) if self.sampler is None
             else cell_average(self.sampler, self.grid.points, h))
        return 2.0 / h**2 + v

    @cached_property
    def indicator(self) -> np.ndarray:
        """Cell-averaged samples of 1_[-1,1] on the grid (edge cells weigh
        1/2): the rank-one kind's projection."""
        return cell_average(lambda t_: (np.abs(t_) <= 1.0).astype(float),
                            self.grid.points, self.grid.spacing).real


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
    """r0 ratio^k for k < count; a ratio whose powers overflow is a ConfigError."""
    try:
        return tuple(r0 * ratio ** k for k in range(count))
    except OverflowError:
        raise ConfigError(f"ratio = {ratio}: the radii r0 ratio^k overflow") from None


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


def _tridiagonal(op: OperatorSpec, z: complex):
    """Bands (dl, d, du) of the tridiagonal part of (H - z).

    The grid's type sets the edges: a Grid1D line carries the lattice
    outgoing/decaying matching u_outside = lam u_edge at both edges; a
    RadialGrid half-line has a Dirichlet condition at r = 0 and the matching
    at r = R.  The rank-one kind's indicator projection is not part of the
    bands.
    """
    if op.kind is OperatorKind.FREE_2D_RADIAL:
        raise ConfigError(f"no discrete Hamiltonian for kind {op.kind}")
    grid = op.grid
    h = grid.spacing
    d = (op.diagonal - z).astype(complex)  # bitwise 2/h^2 + V - z, left to right
    edge = _dtn_root(z, h) / h**2
    d[-1] -= edge
    if isinstance(grid, Grid1D):
        d[0] -= edge
    off = np.full(grid.n_points - 1, -1.0 / h**2, dtype=complex)
    return off, d, off.copy()


def discrete_hamiltonian(op: OperatorSpec, z: complex) -> "scipy.sparse.csc_matrix":
    """Sparse matrix of (H - z) with transparent boundary closure.

    The bands of `_tridiagonal`; the rank-one kind adds the indicator
    projection 1_[-1,1] <1_[-1,1], .>.
    """
    import scipy.sparse as sp  # imported here: no resolvent engine needs it

    t = sp.diags(_tridiagonal(op, z), [-1, 0, 1], format="csc")
    if op.kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        col = sp.csc_matrix(op.indicator[:, None])
        t = sp.csc_matrix(t + op.grid.spacing * (col @ col.T))
    return t


def apply_shifted_operator(op: OperatorSpec, z: complex, u: np.ndarray) -> np.ndarray:
    """(H - z) u for residual checks of candidate states, in O(n) from the
    bands of `_tridiagonal` (plus h 1 <1, u> for the rank-one kind)."""
    u = np.asarray(u)
    dl, d, du = _tridiagonal(op, z)
    out = d * u
    out[1:] += dl * u[:-1]
    out[:-1] += du * u[1:]
    if op.kind is OperatorKind.RANK_ONE_PERTURBED_1D:
        ind = op.indicator
        out += op.grid.spacing * (ind @ u) * ind
    return out


def _inverse_norm1(factors) -> float:
    """Exact ||T^-1||_1 of a complex symmetric tridiagonal T from its zgttrf
    factors, by one two-column solve.

    T^-1 is symmetric and semiseparable: with c0 = T^-1 e_1 and cn = T^-1 e_n,
    T^-1_ij = cn_i c0_j / c0_n for i <= j, so column j sums to
    (|c0_j| sum_{i<=j} |cn_i| + |cn_j| sum_{i>j} |c0_i|) / |c0_n|.  c0 is scaled
    by 1/|c0_n| first, so the products stay the size of entries of T^-1.  inf
    or nan where c0_n is not a normal float or the solves overflow.
    """
    n = factors[1].size
    rhs = np.zeros((n, 2), dtype=complex, order="F")
    rhs[0, 0] = rhs[-1, 1] = 1.0
    cols = np.abs(lapack.zgttrs(*factors, rhs)[0])
    c0n = cols[-1, 0]
    if not c0n >= np.finfo(float).tiny:
        return np.inf
    with np.errstate(all="ignore"):
        c0, cn = cols[:, 0] / c0n, cols[:, 1]
        after = np.r_[np.cumsum(c0[:0:-1])[::-1], 0.0]  # sum_{i>j} |c0_i|
        return float(np.max(c0 * np.cumsum(cn) + cn * after))


def _check_condition(info: int, factors, anorm: float) -> None:
    """NearSpectrum for a singular LU (info != 0) or a reciprocal condition
    estimate below 1 / _COND_LIMIT, for the zgttrf `factors` of a complex
    symmetric tridiagonal T with 1-norm `anorm`.

    zgtcon's estimate of ||T^-1||_1 never exceeds the norm, so a point whose
    exact anorm ||T^-1||_1 stays _CERTIFY_MARGIN below _COND_LIMIT passes
    without it; zgtcon runs (and decides) only where that cannot certify.
    """
    if info == 0 and anorm * _inverse_norm1(factors) * _CERTIFY_MARGIN <= _COND_LIMIT:
        return
    rc = lapack.zgtcon(*factors, anorm)[0] if info == 0 else 0.0
    if not rc * _COND_LIMIT >= 1.0:
        raise NearSpectrum(f"condition estimate {1.0 / rc if rc > 0 else np.inf:.3g} "
                           f"exceeds {_COND_LIMIT:.0e}")


def _band_norm1(dl, d, du) -> float:
    """1-norm of tridiag(dl, d, du): column j holds du[j-1], d[j] and dl[j]."""
    return float(np.max(np.abs(d) + np.abs(np.r_[0, du]) + np.abs(np.r_[dl, 0])))


class _SolverEngine:
    """Resolvent kernel (H - z)^{-1} / h from one LAPACK LU of the tridiagonal
    part T of H - z, factored with zgttrf and checked by _check_condition: the
    exact two-solve ||T^{-1}||_1, and zgtcon only where that cannot certify.
    The rank-one kind adds the indicator projection h u u^T, resolved by the
    Sherman-Morrison update of the tridiagonal solve.  `solve(b, trans)`
    applies (H - z)^{-1}, or its adjoint for trans="C"; matvec, rmatvec,
    max_abs_entry and entries all go through it.
    """

    def __init__(self, op: OperatorSpec, z: complex):
        self.grid = op.grid
        self.h = op.grid.spacing
        self.n = op.grid.n_points
        bands = _tridiagonal(op, z)
        *self.factors, info = lapack.zgttrf(*bands)
        _check_condition(info, self.factors, _band_norm1(*bands))
        self.u = None  # no update: solve is the tridiagonal solve alone
        if op.kind is OperatorKind.RANK_ONE_PERTURBED_1D:
            u = op.indicator.astype(complex)  # real, so u^H = u^T
            tu, tu_h = self.solve(u), self.solve(u, "C")
            denom = 1.0 + self.h * np.dot(u, tu)
            scale = max(1.0, float(np.linalg.norm(tu)) * self.h)
            if abs(denom) < 1e-14 * scale:
                raise NearSpectrum("rank-one update is singular at this z")
            self.u, self.tu, self.tu_h, self.denom = u, tu, tu_h, denom

    def solve(self, b, trans="N"):
        y = lapack.zgttrs(*self.factors, b, trans=trans)[0]
        if self.u is None:
            return y
        if trans == "N":
            return y - np.multiply.outer(self.tu, self.h * (self.u @ y) / self.denom)
        return y - np.multiply.outer(self.tu_h, self.h * (self.u @ y) / np.conj(self.denom))

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


_FREE_DIMENSION = {OperatorKind.FREE_1D: 1, OperatorKind.FREE_2D_RADIAL: 2,
                   OperatorKind.FREE_3D_RADIAL: 3}


def _make_engine(op: OperatorSpec, z: complex):
    """Resolvent kernel of op at z on op.grid: grid, matvec, rmatvec (K^H),
    max_abs_entry and dense entries.

    The free kernels (1D, radial 2D and radial 3D) are the O(n)
    semiseparable operators of free_resolvent.build_free_kernel_operator;
    every other kind is a _SolverEngine.
    """
    op.check_resolution(z)
    if op.kind in _FREE_DIMENSION:
        return build_free_kernel_operator(_FREE_DIMENSION[op.kind], op.grid,
                                          SpectralParameter.interior(z))
    return _SolverEngine(op, z)


def resolvent_matrix(op: OperatorSpec, z: complex) -> KernelOperator:
    """Dense kernel operator of (H - z)^{-1} at an admissible z."""
    engine = _make_engine(op, complex(z))
    return KernelOperator(op.grid, op.grid, engine.entries)


def sweep(op: OperatorSpec, cfg: SweepConfig) -> SweepResult:
    """Resolvent norms at z = z0 + r exp(i angle), largest radius first.

    Points are evaluated in order, each power iteration warm-started from the
    previous singular vector; the last left one is kept.  A near-spectrum
    failure aborts the sweep and returns the radii already computed; weights
    that over- or underflow on the grid are a ConfigError.
    """
    if cfg.flavor == "weighted_l2":  # <x>^t is monotone in |x|: check the grid's edge
        exponents = np.array([cfg.s, -cfg.s, cfg.sp, -cfg.sp])
        with np.errstate(all="ignore"):
            w = weight(np.max(np.abs(op.grid.points)), exponents)
        if not np.all(np.isfinite(w) & (w != 0.0)):
            raise ConfigError(f"s = {cfg.s}, sp = {cfg.sp}: the weights <x>^(+-s) and "
                              f"<x>^(+-sp) are not finite nonzero floats on the grid")
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


def fit_exponent(result: SweepResult) -> tuple[float, float]:
    """Least-squares slope of log(norm) against -log(radius), with r^2."""
    radii, norms = result.radii(), result.norms()
    if radii.size < 4:
        raise FitError("at least 4 points are required")
    if np.any(norms <= 0):
        raise FitError("norms must be positive")
    x = -np.log(radii)
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate abscissae")
    y = np.log(norms)
    return linear_fit(x, y)


def fit_log_divergence(result: SweepResult) -> tuple[float, float]:
    """Slope and r^2 of norm against log(1/radius) (logarithmic growth)."""
    radii, norms = result.radii(), result.norms()
    if radii.size < 4:
        raise FitError("at least 4 points are required")
    x = np.log(1.0 / radii)
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate abscissae")
    return linear_fit(x, norms)


def _extract_state(op: OperatorSpec, result: SweepResult):
    """Candidate state (None above _STATE_TOL) and residual from a full sweep."""
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
    if rel <= _STATE_TOL:
        return psi, float(rel)
    return None, float(rel)


def classify(op: OperatorSpec, cfg: SweepConfig, refine: bool = True) -> ThresholdReport:
    """Regular/Virtual/Inconclusive verdict for the threshold cfg.z0.

    Power-law exponent above _TOL_ALPHA (with a credible fit) is Virtual;
    logarithmic growth is Virtual flagged "log"; flat norms are Regular.
    The verdict must survive one grid refinement (h -> h/2) with converged
    power iterations, otherwise the report is Inconclusive.  `report.sweeps`
    keeps the coarse and refined sweeps; the state comes from the coarse one.
    """
    sweeps = [sweep(op, cfg)]
    if refine:
        sweeps.append(sweep(op.refined(), cfg))
    report = _classify_from_sweep(sweeps[0])
    report.diagnostics["aborted"] = sweeps[0].aborted
    report.sweeps = sweeps
    stalled = [p.radius for s in sweeps for p in s.points if not p.converged]
    if stalled:
        return _inconclusive(report, "power iteration did not converge at radius "
                                     f"{stalled[0]:.6g}")
    if len(sweeps) == 2:
        fine = _classify_from_sweep(sweeps[1]).classification
        report.diagnostics["refined_classification"] = fine.value
        if fine is not report.classification:
            return _inconclusive(report, "verdict unstable under grid refinement",
                                 fine=fine.value)
    if report.classification is Classification.VIRTUAL:
        psi, resid = _extract_state(op, sweeps[0])
        if psi is not None:
            report.rank = 1
            report.states = [psi]
        report.diagnostics["state_residual"] = resid
    return report


def _inconclusive(report: ThresholdReport, reason: str, **diag) -> ThresholdReport:
    return ThresholdReport(
        Classification.INCONCLUSIVE, alpha=report.alpha, sweeps=report.sweeps,
        diagnostics={"reason": reason, "coarse": report.classification.value, **diag})


def _classify_from_sweep(result: SweepResult) -> ThresholdReport:
    if len(result.points) < 4:
        return ThresholdReport(Classification.INCONCLUSIVE,
                               diagnostics={"reason": "sweep too short"})
    alpha, r2p = fit_exponent(result)
    lslope, lr2 = fit_log_divergence(result)
    norms = result.norms()
    growth = float(norms[-1] / norms[0])  # smallest radius last
    diag = {"alpha": alpha, "alpha_r2": r2p, "log_slope": lslope,
            "log_r2": lr2, "growth": growth}
    if alpha > _TOL_ALPHA and r2p >= 0.95:
        logflag = lr2 > r2p and alpha < 0.3 and growth < 10.0
        return ThresholdReport(Classification.VIRTUAL, alpha=alpha,
                               divergence="log" if logflag else "power", diagnostics=diag)
    if alpha <= _TOL_ALPHA:
        if growth >= 1.5 and lr2 >= 0.98 and lslope > 0:
            return ThresholdReport(Classification.VIRTUAL, alpha=alpha, divergence="log",
                                   diagnostics=diag)
        return ThresholdReport(Classification.REGULAR, rank=0, alpha=alpha, diagnostics=diag)
    return ThresholdReport(Classification.INCONCLUSIVE, alpha=alpha, diagnostics=diag)


def sweep_csv(result: SweepResult) -> str:
    """CSV rows `radius,norm,z_re,z_im` at 15 significant digits."""
    return csv_table(["radius", "norm", "z_re", "z_im"],
                     ((p.radius, p.norm, p.z) for p in result.points))
