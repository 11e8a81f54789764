"""Grids, polynomial weights, cell averages, line fits and operator-norm
estimation.  The lattice -Lap_h + V lives here: each grid type owns its
boundary (`edges`, `interior`), `second_difference` and `cell_average` are
the one stencil and the one cell rule, `zero_potential` is the one V = 0, and
`require_resolved` is the one resolution rule for V that both detectors apply.

Operators are kernel matrices sampled on one uniform grid.  A dense
KernelOperator is a validated grid plus its `entries`.  Semiseparable
kernels and the resolvent engines of lap_sweep apply in O(n): grid, matvec
and rmatvec (K and K^H without the quadrature weight h), max_abs_entry (the
exact L1 -> Linf norm), and entries.  Integrals use the uniform-weight rule
(trapezoid up to an O(h) endpoint term that is negligible for the decaying
integrands this package works with).  Weighted L2 operator norms are the
largest singular value of a rescaled matrix: operator_norm_weighted takes a
full SVD of the entries, up to _DENSE_NORM_MAX_POINTS points; sweeps run the
deterministic power iteration on matvec/rmatvec.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.blas import ztbsv

from .errors import ConfigError, DimensionMismatch, InvalidOperator

#: seed of the fixed start vector used by every power iteration (reproducibility)
_PI_SEED = 12345
#: iteration cap of every power iteration
_POWER_MAX_ITER = 20000
_POWER_TOL = 1e-8  # relative change of the norm estimate that counts as settled
_REFINE_FACTOR = 2  # spacing ratio of a grid to its refined() grid
_POINTS_PER_WAVELENGTH = 20.0  # the fewest grid points that resolve one wavelength
#: largest grid whose n x n rescaled matrix operator_norm_weighted builds
_DENSE_NORM_MAX_POINTS = 2000


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric grid on [-R, R] with an odd number of points.

    Oddness makes x = 0 an exact grid point; potentials are centered there.
    """

    edges = (0, -1)  # where the lattice meets the outside: both ends
    interior = slice(1, -1)  # what a Dirichlet truncation keeps

    half_width: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:
            raise ValueError("half_width must be finite and positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = -self.half_width + self.spacing * np.arange(self.n_points)
        x[(self.n_points - 1) // 2] = 0.0  # exact center
        return x

    def refined(self) -> "Grid1D":
        return Grid1D(self.half_width, _REFINE_FACTOR * (self.n_points - 1) + 1)

    def doubled(self) -> "Grid1D":  # twice the half-width, the same spacing
        return Grid1D(2.0 * self.half_width, 2 * self.n_points - 1)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid h, 2h, ..., nh = R on the open ray (0, R].

    r = 0 is excluded; half-line operators built on this grid carry an
    implicit Dirichlet condition at the origin.
    """

    edges = (-1,)  # r = R only
    interior = slice(0, -1)  # r = R drops; r = 0 is no grid point

    max_radius: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.max_radius < np.inf:
            raise ValueError("max_radius must be finite and positive")
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3")

    @property
    def spacing(self) -> float:
        return self.max_radius / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)

    def refined(self) -> "RadialGrid":
        return RadialGrid(self.max_radius, _REFINE_FACTOR * self.n_points)

    def doubled(self) -> "RadialGrid":  # twice the radius, the same spacing
        return RadialGrid(2.0 * self.max_radius, 2 * self.n_points)


def weight(x, s: float):
    """Polynomial weight <x>^s = (1 + x^2)^(s/2); accepts scalars or arrays."""
    return (1.0 + np.square(np.asarray(x, dtype=float))) ** (s / 2.0)


_CELL_NODES, _CELL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def zero_potential(t):
    """V = 0, the default sampler of every operator and form."""
    return np.zeros(np.shape(t))


def cell_average(sampler, grid) -> np.ndarray:
    """Finite-volume samples (1/h) int_{cell} V on `grid` by 5-point
    Gauss-Legendre, a complex array: midpoint-accurate for smooth potentials,
    first order in h at a jump.

    `sampler` maps an array of abscissae to an array of values.  The rule has
    a node at the cell centre, so a jump that sits on a grid node, tested
    with `<=` as the samplers do, weighs 0.6422 there, not 1/2.
    """
    x, h = grid.points, grid.spacing
    vals = np.zeros(x.shape, dtype=complex)
    for node, wgt in zip(_CELL_NODES, _CELL_WEIGHTS):
        vals += wgt * np.asarray(sampler(x + 0.5 * h * node), dtype=complex)
    return vals / 2.0


def cell_indicator(grid, radius: float) -> np.ndarray:
    """`cell_average` of 1_{|x| <= radius} on `grid`, a float array."""
    return cell_average(lambda t: (np.abs(t) <= radius).astype(float), grid).real


def second_difference(u: np.ndarray, h: float) -> np.ndarray:
    """-(u[j+1] - 2 u[j] + u[j-1]) / h^2 at every j, with u = 0 beyond each end."""
    padded = np.concatenate([[0.0], u, [0.0]])
    return -(padded[2:] - 2 * padded[1:-1] + padded[:-2]) / h**2


def wavelength_spacing(k: float) -> float:
    """The spacing 2 pi / (20 k) that puts 20 points on each wavelength of the
    wavenumber k >= 0; inf at k = 0."""
    return 2.0 * np.pi / k / _POINTS_PER_WAVELENGTH if k > 0 else np.inf


def require_resolved(h: float, *samples: np.ndarray) -> None:
    """Refuse the spacing h where it exceeds, by more than a rounding (a
    relative 1e-9), the `wavelength_spacing` of sqrt(max|V|) over the samples."""
    vmax = float(max(np.max(np.abs(v)) for v in samples))
    limit = wavelength_spacing(np.sqrt(vmax))
    if h > limit * (1.0 + 1e-9):
        raise ConfigError(f"grid spacing {h:.4g} exceeds {limit:.4g}, 20 points "
                          f"per wavelength of sqrt(max|V|) at max|V| = {vmax:.4g}")


def linear_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y against x, with r^2."""
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


@dataclass(frozen=True)
class KernelOperator:
    """Dense kernel K(x_i, y_j) on one grid, a validated matrix for operator_norm_weighted.

    Built as KernelOperator(grid, grid, entries): the second grid, that of
    the y_j, must equal the first, and entries[i, j] samples K(x_i, y_j).
    """

    grid: object
    grid_in: InitVar[object]
    entries: np.ndarray = field(repr=False)

    def __post_init__(self, grid_in):
        if grid_in != self.grid:
            raise DimensionMismatch(f"a kernel operator maps one grid to itself, "
                                    f"not {grid_in} to {self.grid}")
        e = np.asarray(self.entries)
        n = self.grid.n_points
        if e.shape != (n, n):
            raise DimensionMismatch(
                f"entries shape {e.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(e)):
            raise InvalidOperator("kernel entries must be finite")


def decay_band(decay: complex, n: int) -> np.ndarray:
    """Lower band storage of the unit bidiagonal matrix with subdiagonal -decay.

    Solving with it runs the recursion y_i = decay * y_{i-1} + x_i; solving
    with its transpose runs y_i = decay * y_{i+1} + x_i.
    """
    band = np.ones((2, n), dtype=complex)
    band[1] = -decay
    return band


def first_order_recursion(band: np.ndarray, x, backward: bool = False,
                          overwrite: bool = False) -> np.ndarray:
    """y_i = d y_{i-1} + x_i (or d y_{i+1} + x_i backward) in one BLAS ztbsv.

    `band` comes from decay_band(d, n).  A complex x is solved in place when
    `overwrite` is set and copied otherwise.
    """
    return ztbsv(1, band, np.asarray(x, dtype=complex), lower=1,
                 trans=int(backward), diag=1, overwrite_x=int(overwrite))


@dataclass(frozen=True)
class SemiseparableKernel:
    """Kernel K_ij = left_min(i,j) right_max(i,j) decay^|i-j|, applied in O(n).

    K f splits into the forward sum right_i sum_{j<=i} decay^(i-j) left_j f_j
    and the strictly upper sum left_i sum_{j>i} decay^(j-i) right_j f_j, two
    first-order recursions (Vandebril, Van Barel & Mastronardi, Matrix
    Computations and Semiseparable Matrices, 2008).  K is complex symmetric,
    so its conjugate transpose acts as conj(K conj(f)).  |decay| <= 1 keeps
    both recursions stable.  The dense matrix is built only when a caller
    reads `entries`.
    """

    grid: object
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    decay: complex = 1.0

    def __post_init__(self):
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        decay = complex(self.decay)
        n = self.grid.n_points
        if left.shape != (n,) or right.shape != (n,):
            raise DimensionMismatch(
                f"generator shapes {left.shape}, {right.shape} do not match grid ({n},)"
            )
        # one rounding of |exp(-w h)| with Re w >= 0 may exceed 1 by an ulp
        if not abs(decay) <= 1.0 + 1e-12:
            raise InvalidOperator(f"|decay| = {abs(decay):.6g} exceeds 1")
        # every entry is bounded by max|left| max|right| because |decay| <= 1
        bound = float(np.max(np.abs(left))) * float(np.max(np.abs(right)))
        if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))
                and np.isfinite(bound)):
            raise InvalidOperator("kernel generators must be finite")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "_band", decay_band(decay, n))
        object.__setattr__(self, "_decayed_right", decay * right)

    def matvec(self, f: np.ndarray) -> np.ndarray:
        """K f without the quadrature weight."""
        f = np.asarray(f)
        below = first_order_recursion(self._band, self.left * f, overwrite=True)
        # above_i = sum_{j>i} decay^(j-i-1) (decay right_j f_j): shift by one
        above = np.zeros(f.shape, dtype=complex)
        np.multiply(self._decayed_right[1:], f[1:], out=above[:-1])
        above = first_order_recursion(self._band, above, backward=True, overwrite=True)
        below *= self.right
        above *= self.left
        below += above
        return below

    def rmatvec(self, f: np.ndarray) -> np.ndarray:
        """K^H f without the quadrature weight."""
        return np.conj(self.matvec(np.conj(f)))

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Discretized integral operator: (Kf)(x_i) = h * sum_j K_ij f_j."""
        f = np.asarray(f)
        if f.shape[0] != self.grid.n_points:
            raise DimensionMismatch("vector length does not match the grid")
        return self.grid.spacing * self.matvec(f)

    def _powers(self) -> np.ndarray:
        return self.decay ** np.arange(self.grid.n_points)

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n kernel matrix, built on every access."""
        n = self.grid.n_points
        powers = self._powers()
        upper = np.outer(self.left, self.right)
        upper *= toeplitz(powers, powers)
        return np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper)

    def max_abs_entry(self) -> float:
        """max_ij |K_ij| in O(n), without forming K.

        For i <= j, |K_ij| = |right_j| |left_i| |decay|^(j-i), so column j
        peaks at the row attaining the running maximum
        m_j = max(|decay| m_(j-1), |left_j|); K is symmetric, so these
        columns cover every entry.  The running maximum is one accumulate
        over log|left_i| - i log|decay|, and each column's peak is then
        evaluated exactly as `entries` evaluates it.
        """
        n = self.grid.n_points
        cols = np.arange(n)
        if self.decay == 0.0:  # K is diagonal
            rows = cols
        else:
            with np.errstate(divide="ignore"):
                score = np.log(np.abs(self.left)) - cols * np.log(abs(self.decay))
            best = np.maximum.accumulate(score)
            rows = np.maximum.accumulate(np.where(score == best, cols, 0))
        peaks = (self.left[rows] * self.right) * self._powers()[cols - rows]
        return float(np.max(np.abs(peaks)))


def _power_iteration_norm(op, s_in: float, s_out: float, v0: np.ndarray | None = None):
    """Norm of op as a map L2_{s_in} -> L2_{-s_out} by power iteration on M^H M.

    M = h w_out K w_in with w_out = <x>^{-s_out} and w_in = <x>^{-s_in} on
    op.grid is applied through op.matvec / op.rmatvec, so K is never formed.  Deterministic: the start
    vector is `v0` (a warm start) or comes from a fixed seed.  Converges when
    the estimate is stable to _POWER_TOL relative on two consecutive iterations,
    and stops at _POWER_MAX_ITER, both read at call time.  Returns (sigma, v, u,
    iterations, converged): the right/left singular vector approximations,
    the number of matvecs, and whether the stopping test was met.
    """
    grid = op.grid
    w_in = weight(grid.points, -s_in)
    w_out = weight(grid.points, -s_out)
    scale = grid.spacing
    if v0 is not None and np.linalg.norm(v0) > 0:
        v = np.asarray(v0, dtype=complex).copy()
    else:
        rng = np.random.default_rng(_PI_SEED)
        n = grid.n_points
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    sigma = 0.0
    sigma_prev = -1.0
    hits = 0
    iterations = 0
    while iterations < _POWER_MAX_ITER and hits < 2:
        iterations += 1
        w = scale * w_out * op.matvec(w_in * v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0, v, None, iterations, True
        vn = scale * w_in * op.rmatvec(w_out * w)
        nv = np.linalg.norm(vn)
        if nv == 0.0:
            break
        v = vn / nv
        if sigma_prev > 0 and abs(sigma - sigma_prev) <= _POWER_TOL * sigma:
            hits += 1
        else:
            hits = 0
        sigma_prev = sigma
    return sigma, v, w / sigma, iterations, hits >= 2


def operator_norm_weighted(op, s_in: float, s_out: float) -> float:
    """Norm of the kernel operator as a map L2_{s_in} -> L2_{-s_out}.

    Equals the largest singular value of M_ij = <x_i>^{-s_out} K_ij <x_j>^{-s_in} h
    on the operator's grid, taken by a full SVD of M built from op.entries.
    A grid of more than _DENSE_NORM_MAX_POINTS points is a ConfigError, so
    this dense reference never builds an n x n matrix by accident; sweeps
    take the norm by _power_iteration_norm instead.
    """
    grid = op.grid
    if grid.n_points > _DENSE_NORM_MAX_POINTS:
        raise ConfigError(f"the dense weighted norm takes at most {_DENSE_NORM_MAX_POINTS} "
                          f"grid points, not {grid.n_points}")
    w_out = weight(grid.points, -s_out)
    w_in = weight(grid.points, -s_in)
    m = (w_out[:, None] * op.entries) * (w_in[None, :] * grid.spacing)
    if not np.all(np.isfinite(m)):
        raise InvalidOperator("rescaled operator has non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False)[0])
