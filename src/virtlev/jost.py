"""Jost solutions, Wronskians, two-sided Green kernels, 1D threshold classification.

The Jost solutions of -theta'' + V theta = z theta for a compactly supported
(possibly complex) potential are normalized to the standard free asymptotics

    theta_plus(x)  = exp(-x sqrt(-z))   for x >= a,
    theta_minus(x) = exp(+x sqrt(-z))   for x <= -a,

which reduce to 1 at z = 0.  Their Wronskian vanishing at z = 0 is the
signature of a 1D virtual level; when it does not vanish the two solutions
assemble the bounded Green kernel of the operator at the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DiscretizationFailure,
    InvalidOperator,
    UnsupportedSpectralPoint,
    VirtualLevelError,
)
from .reports import Classification, ThresholdReport
from .weighted_space import Grid1D, SemiseparableKernel


@dataclass(frozen=True)
class Potential1D:
    """Compactly supported potential sampled through a callable.

    `func` is only consulted for |x| <= support_radius; outside, the
    potential is exactly zero.  The grid must extend beyond the support.
    """

    support_radius: float
    func: Callable = field(repr=False)
    grid: Grid1D

    def __post_init__(self):
        if not self.support_radius > 0:
            raise ValueError("support_radius must be positive")
        if self.grid.half_width <= self.support_radius:
            raise ValueError("grid half_width must exceed the potential support")

    def sample(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        inside = np.abs(x) <= self.support_radius
        v = np.zeros(x.shape, dtype=complex)
        if np.any(inside):
            v[inside] = np.asarray(self.func(x[inside]), dtype=complex)
        if not np.all(np.isfinite(v)):
            raise InvalidOperator("potential samples must be finite")
        return complex(v[0]) if scalar else v

    @classmethod
    def square_well(cls, g, grid: Grid1D, half_width: float = 1.0,
                    center: float = 0.0) -> "Potential1D":
        """V = -g on [center - w, center + w], zero outside."""
        a = abs(center) + half_width

        def f(x):
            return np.where(np.abs(np.asarray(x) - center) <= half_width, -g, 0.0)

        return cls(a, f, grid)

    @classmethod
    def bump(cls, grid: Grid1D, amplitude=1.0, half_width: float = 1.0,
             center: float = 0.0) -> "Potential1D":
        """Smooth compactly supported bump amp * exp(1 - 1/(1 - ((x-c)/w)^2))."""
        a = abs(center) + half_width

        def f(x):
            u = (np.asarray(x, dtype=float) - center) / half_width
            inside = np.abs(u) < 1.0
            uu = np.where(inside, u, 0.0)
            vals = amplitude * np.exp(1.0 - 1.0 / (1.0 - uu * uu))
            return np.where(inside, vals, 0.0)

        return cls(a, f, grid)


@dataclass(frozen=True)
class JostPair:
    """Both Jost solutions on a common grid with their Wronskian."""

    theta_plus: np.ndarray = field(repr=False)
    theta_minus: np.ndarray = field(repr=False)
    z: complex
    wronskian: complex
    wronskian_deviation: float
    grid: Grid1D


def _branch_root(z) -> complex:
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    if z.imag == 0.0 and z.real > 0.0:
        raise UnsupportedSpectralPoint(
            "Jost solutions in the interior of the positive axis are not supported"
        )
    return complex(np.sqrt(-z))


def jost_solve(pot: Potential1D, z=0.0, side: str = "plus") -> np.ndarray:
    """Integrate -theta'' + V theta = z theta inward from the support edge.

    Classical fixed-step RK4 on the grid, fourth order in the spacing.  Stage
    abscissae at step endpoints are nudged into the open step interval so
    that potentials with jumps exactly on grid nodes (square wells) are
    sampled on the correct side and keep the full order.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    kappa = _branch_root(z)
    grid = pot.grid
    x = grid.points
    h = grid.spacing
    n = grid.n_points
    delta = 1e-9 * h
    v_lo = pot.sample(x - delta)   # value just below each node
    v_hi = pot.sample(x + delta)   # value just above each node
    v_half = pot.sample(x - h / 2.0)  # v_half[i] sits between nodes i-1 and i

    theta = np.empty(n, dtype=complex)
    guard = 1e-12 * max(1.0, pot.support_radius)

    if side == "plus":
        i0 = min(int(np.searchsorted(x, pot.support_radius - guard)), n - 1)
        theta[i0:] = np.exp(-kappa * x[i0:])
        th, dth = theta[i0], -kappa * theta[i0]
        for i in range(i0, 0, -1):
            th, dth = _rk4_step(th, dth, -h, z, v_lo[i], v_half[i], v_hi[i - 1])
            theta[i - 1] = th
    else:
        i0 = max(int(np.searchsorted(x, -pot.support_radius + guard, side="right")) - 1, 0)
        theta[: i0 + 1] = np.exp(kappa * x[: i0 + 1])
        th, dth = theta[i0], kappa * theta[i0]
        for i in range(i0, n - 1):
            th, dth = _rk4_step(th, dth, h, z, v_hi[i], v_half[i + 1], v_lo[i + 1])
            theta[i + 1] = th
    return theta


def _rk4_step(th, dth, h, z, v_start, v_mid, v_end):
    """One RK4 step for theta'' = (V - z) theta with per-stage potential values."""
    c_start = v_start - z
    c_mid = v_mid - z
    c_end = v_end - z
    k1t, k1d = dth, c_start * th
    k2t, k2d = dth + (h / 2) * k1d, c_mid * (th + (h / 2) * k1t)
    k3t, k3d = dth + (h / 2) * k2d, c_mid * (th + (h / 2) * k2t)
    k4t, k4d = dth + h * k3d, c_end * (th + h * k3t)
    return (th + (h / 6) * (k1t + 2 * k2t + 2 * k3t + k4t),
            dth + (h / 6) * (k1d + 2 * k2d + 2 * k3d + k4d))


def _derivative_profile(f: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered derivative on interior points (2-point margin)."""
    return (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)


def _kink_mask(theta: np.ndarray, n_interior: int) -> np.ndarray:
    """Interior-point mask excluding stencils that straddle a curvature jump.

    Fourth differences of a C^4 sample scale like h^4; across a jump of
    theta'' they scale like h^2, so a cliff in |Delta^4 theta| localizes the
    kinks (potential discontinuities) where the finite-difference order
    degrades and the Wronskian drift diagnostic would report a false alarm.
    """
    d4 = np.abs(theta[:-4] - 4 * theta[1:-3] + 6 * theta[2:-2]
                - 4 * theta[3:-1] + theta[4:])
    scale = max(1.0, float(np.max(np.abs(theta))))
    thresh = 1e-7 * scale
    kink = d4 > thresh  # aligned with interior indices
    mask = np.ones(n_interior, dtype=bool)
    for j in np.nonzero(kink)[0]:
        mask[max(0, j - 2): j + 3] = False
    return mask


def _wronskian_profile(tp, tm, grid: Grid1D):
    h = grid.spacing
    dp = _derivative_profile(tp, h)
    dm = _derivative_profile(tm, h)
    w = tp[2:-2] * dm - dp * tm[2:-2]
    w0 = w[(len(w) - 1) // 2]  # x = 0 is the center of the interior slice
    good = _kink_mask(tp, len(w)) & _kink_mask(tm, len(w))
    dev = float(np.max(np.abs(w[good] - w0))) if np.any(good) else 0.0
    return w, complex(w0), dev


def wronskian(pair_or_thetas, grid: Grid1D | None = None,
              dev_tol: float = 1e-4) -> complex:
    """W[theta+, theta-] at x = 0 via fourth-order finite differences.

    W(x) must be constant for the stationary equation; the maximum drift
    across the grid (away from detected potential discontinuities) is checked
    against dev_tol * max(1, |W|) and raised as DiscretizationFailure when
    exceeded.
    """
    if isinstance(pair_or_thetas, JostPair):
        tp, tm, grid = (pair_or_thetas.theta_plus, pair_or_thetas.theta_minus,
                        pair_or_thetas.grid)
    else:
        tp, tm = pair_or_thetas
        if grid is None:
            raise ValueError("grid required when passing raw samples")
    _, w0, dev = _wronskian_profile(tp, tm, grid)
    if dev > dev_tol * max(1.0, abs(w0)):
        raise DiscretizationFailure(
            f"Wronskian drifts by {dev:.3g} across the grid (W(0) = {w0:.6g})"
        )
    return w0


def jost_pair(pot: Potential1D, z=0.0) -> JostPair:
    """Solve both sides and record the Wronskian with its drift diagnostic."""
    tp = jost_solve(pot, z, "plus")
    tm = jost_solve(pot, z, "minus")
    _, w0, dev = _wronskian_profile(tp, tm, pot.grid)
    return JostPair(tp, tm, complex(z), w0, dev, pot.grid)


def green_kernel(pair: JostPair, w_tol: float = 1e-8) -> SemiseparableKernel:
    """Two-sided Green kernel theta-(x_<) theta+(x_>) / W on the grid.

    Returned as an O(n) semiseparable operator with left = theta- / W,
    right = theta+ and decay 1; `.entries` builds the n^2 matrix only on
    request.  Requires |W| above w_tol * (1 + sup|theta+| sup|theta-|): at a
    virtual level the Wronskian vanishes and no such kernel exists.
    """
    scale = 1.0 + float(np.max(np.abs(pair.theta_plus)) * np.max(np.abs(pair.theta_minus)))
    if abs(pair.wronskian) <= w_tol * scale:
        raise VirtualLevelError(
            "Wronskian is zero: the Jost solutions are linearly dependent"
        )
    return SemiseparableKernel(pair.grid, pair.theta_minus / pair.wronskian,
                               pair.theta_plus, 1.0)


def classify_threshold_1d(pot: Potential1D, tol: float = 1e-6) -> ThresholdReport:
    """Wronskian dichotomy at z = 0: Regular / Virtual(rank 1) / Inconclusive.

    |W| <= tol * scale is Virtual with the bounded Jost solution as the
    (sup-normalized) virtual state; |W| in [tol, 100 tol] * scale is flagged
    Inconclusive instead of being misclassified.  `diagnostics["jost_pair"]`
    keeps the solved pair.
    """
    pair = jost_pair(pot, 0.0)
    scale = 1.0 + float(np.max(np.abs(pair.theta_plus)) * np.max(np.abs(pair.theta_minus)))
    aw = abs(pair.wronskian)
    diagnostics = {
        "wronskian": pair.wronskian,
        "wronskian_deviation": pair.wronskian_deviation,
        "scale": scale,
        "jost_pair": pair,
    }
    if aw <= tol * scale:
        state = pair.theta_plus / np.max(np.abs(pair.theta_plus))
        return ThresholdReport(Classification.VIRTUAL, rank=1, states=[state],
                               diagnostics=diagnostics)
    if aw <= 100.0 * tol * scale:
        return ThresholdReport(Classification.INCONCLUSIVE, diagnostics=diagnostics)
    diagnostics["green_kernel"] = green_kernel(pair)
    return ThresholdReport(Classification.REGULAR, rank=0, diagnostics=diagnostics)

