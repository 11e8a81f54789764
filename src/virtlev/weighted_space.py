"""Grids, polynomial weights, cell averages, weighted L2 norms, line fits and
operator-norm estimation.

Operators are kernel matrices sampled on uniform grids: dense, or
semiseparable and applied in O(n) without ever forming the matrix.  Both,
and the resolvent engines of lap_sweep, share one surface: grid_in,
grid_out, matvec and rmatvec (K and K^H without the quadrature weight),
max_abs_entry, and entries.  Integrals use the uniform-weight rule
(trapezoid up to an O(h) endpoint term that is negligible for the decaying
integrands this package works with).  Operator norms between weighted L2
spaces reduce to the largest singular value of a diagonally rescaled
matrix; that number is computed by full SVD (small matrices) or by the one
deterministic power iteration, which runs on matvec/rmatvec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.blas import ztbsv

from .errors import DimensionMismatch, DiscretizationFailure, InvalidOperator

#: seed of the fixed start vector used by every power iteration (reproducibility)
_PI_SEED = 12345
#: iteration cap of every power iteration
_POWER_MAX_ITER = 20000


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric grid on [-R, R] with an odd number of points.

    Oddness makes x = 0 an exact grid point; potentials are centered there.
    """

    half_width: float
    n_points: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
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

    def refined(self, factor: int = 2) -> "Grid1D":
        return Grid1D(self.half_width, factor * (self.n_points - 1) + 1)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid h, 2h, ..., nh = R on the open ray (0, R].

    r = 0 is excluded; half-line operators built on this grid carry an
    implicit Dirichlet condition at the origin.
    """

    max_radius: float
    n_points: int

    def __post_init__(self):
        if not self.max_radius > 0:
            raise ValueError("max_radius must be positive")
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3")

    @property
    def spacing(self) -> float:
        return self.max_radius / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)

    def refined(self, factor: int = 2) -> "RadialGrid":
        return RadialGrid(self.max_radius, factor * self.n_points)


def weight(x, s: float):
    """Polynomial weight <x>^s = (1 + x^2)^(s/2); accepts scalars or arrays."""
    return (1.0 + np.square(np.asarray(x, dtype=float))) ** (s / 2.0)


def weighted_l2_norm(f, grid, s: float = 0.0) -> float:
    """Discrete weighted L2 norm (h * sum <x_i>^{2s} |f_i|^2)^(1/2)."""
    f = np.asarray(f)
    if f.shape != grid.points.shape:
        raise DimensionMismatch(
            f"sample length {f.shape} does not match grid {grid.points.shape}"
        )
    w = weight(grid.points, s)
    return float(np.sqrt(grid.spacing * np.sum(np.abs(w * f) ** 2)))


_CELL_NODES, _CELL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def cell_average(sampler, points: np.ndarray, h: float, real: bool = False) -> np.ndarray:
    """Finite-volume samples (1/h) int_{cell} V: midpoint-accurate for smooth
    potentials and exact on indicator edges, keeping the lattice operator
    second-order even for discontinuous wells.

    The result is complex.  With `real` (criticality forms) it is a float
    array, and a sampler whose imaginary part is not negligible raises
    InvalidOperator.
    """
    vals = np.zeros(points.shape, dtype=complex)
    for node, wgt in zip(_CELL_NODES, _CELL_WEIGHTS):
        sampled = np.asarray(sampler(points + 0.5 * h * node), dtype=complex)
        if real and np.max(np.abs(sampled.imag)) > 1e-14 * max(1.0, np.max(np.abs(sampled))):
            raise InvalidOperator("criticality analysis requires a real potential")
        vals += wgt * sampled
    vals = vals / 2.0
    return vals.real if real else vals


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
    """Dense kernel K(x_i, y_j) acting as f -> h * K @ f.

    entries[i, j] samples the kernel at (x_i of grid_out, y_j of grid_in);
    the quadrature weight is the spacing of grid_in.
    """

    grid_out: object
    grid_in: object
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.shape != (self.grid_out.n_points, self.grid_in.n_points):
            raise DimensionMismatch(
                f"entries shape {e.shape} does not match grids "
                f"({self.grid_out.n_points}, {self.grid_in.n_points})"
            )
        if not np.all(np.isfinite(e)):
            raise InvalidOperator("kernel entries must be finite")

    @property
    def quadrature_weight(self) -> float:
        return self.grid_in.spacing

    def matvec(self, f: np.ndarray) -> np.ndarray:
        """K f without the quadrature weight."""
        return self.entries @ f

    def rmatvec(self, f: np.ndarray) -> np.ndarray:
        """K^H f without the quadrature weight, with no transposed copy of K."""
        return np.conj(np.conj(f) @ self.entries)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Discretized integral operator: (Kf)(x_i) = h * sum_j K_ij f_j."""
        f = np.asarray(f)
        if f.shape[0] != self.grid_in.n_points:
            raise DimensionMismatch("vector length does not match grid_in")
        return self.quadrature_weight * self.matvec(f)

    def max_abs_entry(self) -> float:
        """sup |K(x, y)| over the grid, read from the stored entries."""
        return float(np.max(np.abs(self.entries)))


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

    Same surface as KernelOperator (grid_in, grid_out, quadrature_weight,
    matvec, rmatvec, apply, max_abs_entry, entries), but K is never stored:
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

    @property
    def grid_in(self):
        return self.grid

    @property
    def grid_out(self):
        return self.grid

    @property
    def quadrature_weight(self) -> float:
        return self.grid.spacing

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
            raise DimensionMismatch("vector length does not match grid_in")
        return self.quadrature_weight * self.matvec(f)

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


def _power_iteration_norm(op, s_in: float, s_out: float, tol: float = 1e-8,
                          v0: np.ndarray | None = None):
    """Norm of op as a map L2_{s_in} -> L2_{-s_out} by power iteration on M^H M.

    M = sqrt(h_in h_out) w_out K w_in with w = <x>^{-s} is applied through
    op.matvec / op.rmatvec, so K is never formed.  Deterministic: the start
    vector is `v0` (a warm start) or comes from a fixed seed.  Converges when
    the estimate is stable to `tol` relative on two consecutive iterations,
    and stops at _POWER_MAX_ITER, read at call time.  Returns (sigma, v, u,
    iterations, converged): the right/left singular vector approximations,
    the number of matvecs, and whether the stopping test was met.
    """
    w_in = weight(op.grid_in.points, -s_in)
    w_out = weight(op.grid_out.points, -s_out)
    scale = np.sqrt(op.grid_in.spacing * op.grid_out.spacing)
    if v0 is not None and np.linalg.norm(v0) > 0:
        v = np.asarray(v0, dtype=complex).copy()
    else:
        rng = np.random.default_rng(_PI_SEED)
        n_in = op.grid_in.n_points
        v = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
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
        if sigma_prev > 0 and abs(sigma - sigma_prev) <= tol * sigma:
            hits += 1
        else:
            hits = 0
        sigma_prev = sigma
    return sigma, v, w / sigma, iterations, hits >= 2


def operator_norm_weighted(op, s_in: float, s_out: float, tol: float = 1e-8) -> float:
    """Norm of the kernel operator as a map L2_{s_in} -> L2_{-s_out}.

    Equals the largest singular value of M_ij = <x_i>^{-s_out} K_ij <y_j>^{-s_in} h
    (with h replaced by sqrt(h_in h_out) when the grids differ).  Up to 2000
    points that is a full SVD of M; beyond, _power_iteration_norm on the
    operator's matvec/rmatvec, so a semiseparable kernel stays O(n) in memory.
    A power iteration that reaches its cap unconverged raises
    DiscretizationFailure rather than return its last estimate.
    """
    if max(op.grid_in.n_points, op.grid_out.n_points) <= 2000:
        w_out = weight(op.grid_out.points, -s_out)
        w_in = weight(op.grid_in.points, -s_in)
        scale = np.sqrt(op.grid_in.spacing * op.grid_out.spacing)
        m = (w_out[:, None] * op.entries) * (w_in[None, :] * scale)
        if not np.all(np.isfinite(m)):
            raise InvalidOperator("rescaled operator has non-finite entries")
        return float(np.linalg.svd(m, compute_uv=False)[0])
    sigma, _, _, _, converged = _power_iteration_norm(op, s_in, s_out, tol)
    if not converged:
        raise DiscretizationFailure(
            f"power iteration stopped at its cap of {_POWER_MAX_ITER} iterations "
            f"before the norm estimate settled to tol = {tol:g}")
    return sigma


def l1_to_linf_norm(op: KernelOperator) -> float:
    """Exact L1 -> Linf operator norm of a kernel operator: sup |K(x, y)|,
    from the operator's own max_abs_entry (O(n) for semiseparable kernels)."""
    return op.max_abs_entry()
