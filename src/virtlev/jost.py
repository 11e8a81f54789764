"""Jost solutions, Wronskians, two-sided Green kernels, 1D threshold classification.

The Jost solutions of -theta'' + V theta = z theta for a compactly supported
(possibly complex) potential are normalized to the standard free asymptotics

    theta_plus(x)  = exp(-x sqrt(-z))   for x >= a,
    theta_minus(x) = exp(+x sqrt(-z))   for x <= -a,

which reduce to 1 at z = 0, the only point solved here.  Their Wronskian
vanishing at z = 0 is the signature of a 1D virtual level; when it does not
vanish the two solutions assemble the bounded Green kernel of the operator
at the threshold.  Resolvents at z != 0 are the sweep engines' (lap_sweep).
"""

from __future__ import annotations

import cmath
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DiscretizationFailure,
    InvalidOperator,
    VirtualLevelError,
)
from .reports import Classification, ThresholdReport
from .weighted_space import Grid1D, SemiseparableKernel, require_resolved

_DEV_TOL = 1e-4  # largest Wronskian drift across the grid, relative to max(1, |W|)
_W_TOL = 1e-8  # smallest |W| / (1 + sup|theta+| sup|theta-|) of a Green kernel


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

    def sample(self, x: np.ndarray) -> np.ndarray:
        """V at each abscissa of the array x, as a complex array."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.support_radius
        v = np.zeros(x.shape, dtype=complex)
        if np.any(inside):
            v[inside] = np.asarray(self.func(x[inside]), dtype=complex)
        if not np.all(np.isfinite(v)):
            raise InvalidOperator("potential samples must be finite")
        return v

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
    """Both Jost solutions on a common grid with their Wronskian, its drift
    and the scale 1 + sup|theta+| sup|theta-| that |W| is judged against."""

    theta_plus: np.ndarray = field(repr=False)
    theta_minus: np.ndarray = field(repr=False)
    wronskian: complex
    wronskian_deviation: float
    scale: float
    grid: Grid1D


def jost_solve(pot: Potential1D) -> tuple:
    """(theta_plus, theta_minus): -theta'' + V theta = 0 integrated inward
    from each support edge, beyond which both are 1.

    Classical fixed-step RK4 on the grid, fourth order in the spacing.  Stage
    abscissae at step endpoints are nudged into the open step interval so
    that potentials with jumps exactly on grid nodes (square wells) are
    sampled on the correct side and keep the full order.  V is sampled once,
    just below each node, just above it and midway to the node before, and
    both sides step through those same arrays once `require_resolved` passes.

    The steps run on Python complex numbers, twice as fast as NumPy scalars:
    both multiply and add by the same IEEE formulas, without fused
    multiply-add, so theta is bit for bit the same.  Where V is the same
    exact zero over a run of steps, as between the support and the grid's
    edge, a step adds an increment that depends on theta only through the
    sign bits of four finite values; while those stay the same, one cumsum
    takes the steps in the same IEEE sums (see `_rk4`).
    """
    kappa = 0j  # sqrt(-z) at z = 0: the signed zeros of theta start at -kappa
    x, n = pot.grid.points, pot.grid.n_points
    h = float(pot.grid.spacing)  # a NumPy float here would make _rk4 step NumPy scalars
    delta = 1e-9 * h
    lo = pot.sample(x - delta)   # just below each node
    hi = pot.sample(x + delta)   # just above each node
    half = pot.sample(x - h / 2.0)  # half[i] sits between nodes i-1 and i
    require_resolved(h, lo, hi, half)
    guard = 1e-12 * max(1.0, pot.support_radius)

    tp = np.empty(n, dtype=complex)
    i0 = min(int(np.searchsorted(x, pot.support_radius - guard)), n - 1)
    tp[i0:] = np.exp(-kappa * x[i0:])
    steps = np.stack([lo[1:i0 + 1], half[1:i0 + 1], hi[:i0]])[:, ::-1]  # i0 -> 0
    tp[:i0] = _rk4(tp[i0], -kappa * tp[i0], -h, steps)[::-1]

    tm = np.empty(n, dtype=complex)
    i0 = max(int(np.searchsorted(x, -pot.support_radius + guard, side="right")) - 1, 0)
    tm[: i0 + 1] = np.exp(kappa * x[: i0 + 1])
    steps = np.stack([hi[i0:-1], half[i0 + 1:], lo[i0 + 1:]])  # i0 -> n - 1
    tm[i0 + 1:] = _rk4(tm[i0], kappa * tm[i0], h, steps)
    return tp, tm


def _rk4(th, dth, h, steps) -> np.ndarray:
    """RK4 for theta'' = V theta; theta after each step.  The rows of
    `steps` hold V at the start, middle and end of every step.

    Each maximal run of steps whose three coefficients are all one and the
    same exact zero c (the same bits: the signs of zero count) goes to
    `_zero_run`, and every other step to the plain loop `_steps`.  The run
    ends come from one comparison over the whole array.  A step of such a
    run multiplies only by c, and a finite value times a zero is a zero
    whose sign is the XOR of the two signs.  So the step's increment and
    its theta' depend on theta only through the sign bits of four values,
    theta, theta + (h/2) k1t, theta + (h/2) k2t and theta + h k3t, as long
    as all four are finite.  That is the condition that lets `_zero_run`
    repeat a step's increment with one cumsum and still give theta bit for
    bit as `_steps` would.
    """
    signs = 1 + np.signbit(steps.real) + 2 * np.signbit(steps.imag)  # 1 to 4: which zero
    zero = (steps == 0).all(axis=0) & (signs == signs[0]).all(axis=0)
    kind = np.where(zero, signs[0], 0)
    starts = np.flatnonzero(np.diff(kind, prepend=-1))
    th, dth = complex(th), complex(dth)
    out = np.empty(len(kind), dtype=complex)
    for a, b in zip(starts, [*starts[1:], len(kind)]):
        run = _zero_run if kind[a] else _steps
        th, dth = run(th, dth, h, steps[:, a:b], out[a:b])
    return out


def _steps(th, dth, h, steps, out):
    """Plain RK4 steps; writes theta after each into `out`."""
    h2, h6 = h / 2, h / 6
    thetas = []
    for c_start, c_mid, c_end in zip(*steps.tolist()):
        k1t, k1d = dth, c_start * th
        k2t, k2d = dth + h2 * k1d, c_mid * (th + h2 * k1t)
        k3t, k3d = dth + h2 * k2d, c_mid * (th + h2 * k2t)
        k4t, k4d = dth + h * k3d, c_end * (th + h * k3t)
        th, dth = (th + h6 * (k1t + 2 * k2t + 2 * k3t + k4t),
                   dth + h6 * (k1d + 2 * k2d + 2 * k3d + k4d))
        thetas.append(th)
    out[:] = thetas
    return th, dth


def _zero_step(th, dth, h, c):
    """One `_steps` step with every coefficient equal to the zero c.

    Returns the increment of theta, the new theta' and the offsets
    (h/2) k1t, (h/2) k2t and h k3t of the values the step multiplies by c.
    """
    h2, h6 = h / 2, h / 6
    offsets = [h2 * dth]  # k1t = dth
    k1d, k2d = c * th, c * (th + offsets[0])
    k2t = dth + h2 * k1d
    offsets.append(h2 * k2t)
    k3t, k3d = dth + h2 * k2d, c * (th + offsets[1])
    offsets.append(h * k3t)
    k4t, k4d = dth + h * k3d, c * (th + offsets[2])
    return (h6 * (dth + 2 * k2t + 2 * k3t + k4t),
            dth + h6 * (k1d + 2 * k2d + 2 * k3d + k4d), offsets)


def _zero_run(th, dth, h, steps, out):
    """Steps whose coefficients are all one exact zero c, bit for bit `_steps`.

    After an exact step that leaves theta' bitwise unchanged, each later
    state whose four values (see `_rk4`) have that step's sign bits and are
    finite takes the same step again: it adds the same increment.  One
    cumsum, which NumPy adds in sequence, gives those states as the same
    IEEE sums.  Exact steps resume at the first state that breaks the rule,
    so each pass advances at least one step.
    """
    c = complex(steps[0, 0])
    k, m = 0, len(out)
    while k < m:
        inc, dth_new, offsets = _zero_step(th, dth, h, c)
        probes = [th] + [th + o for o in offsets]
        th = out[k] = th + inc
        k += 1
        if k == m or _bits(dth_new) != _bits(dth) or not all(map(cmath.isfinite, probes)):
            dth = dth_new
            continue
        ref = np.array(probes)
        states = np.full(m - k + 1, inc)
        states[0] = th
        with np.errstate(over="ignore", invalid="ignore"):
            states = np.cumsum(states)  # states[j]: theta after j more steps
            vals = np.stack([states[:-1]] + [states[:-1] + o for o in offsets])
        same = ((np.signbit(vals.real) == np.signbit(ref.real)[:, None])
                & (np.signbit(vals.imag) == np.signbit(ref.imag)[:, None])
                & np.isfinite(vals)).all(axis=0)
        p = int(np.argmin(np.append(same, False)))  # steps taken before the first break
        out[k:k + p] = states[1:p + 1]
        k += p
        th = complex(states[p])
    return th, dth


def _bits(w: complex) -> bytes:
    """The IEEE bits of w: unlike ==, tells -0.0 from 0.0."""
    return struct.pack("2d", w.real, w.imag)


def _wronskian_profile(tp, tm, h: float):
    """W(0) and the largest |W(x) - W(0)| over interior points away from kinks.

    Both sides go through each formula as the rows of one stack: the
    fourth-order centered derivative (2-point margin), and the fourth
    difference that finds the kinks.  Fourth differences of a C^4 sample
    scale like h^4; across a jump of theta'' they scale like h^2, so a cliff
    above 1e-7 * max(1, sup|theta|) in either row marks a kink (a potential
    discontinuity) where the finite-difference order degrades and the drift
    would report a false alarm.  Points within 2 of a kink are left out.
    A grid that leaves no other point than x = 0 measures no drift, and is
    refused.
    """
    t = np.stack([tp, tm])
    d = (-t[:, 4:] + 8 * t[:, 3:-1] - 8 * t[:, 1:-3] + t[:, :-4]) / (12 * h)
    w = t[0, 2:-2] * d[1] - d[0] * t[1, 2:-2]
    d4 = np.abs(t[:, :-4] - 4 * t[:, 1:-3] + 6 * t[:, 2:-2] - 4 * t[:, 3:-1] + t[:, 4:])
    thresh = 1e-7 * np.fmax(1.0, np.max(np.abs(t), axis=1, keepdims=True))
    near = (d4 > thresh).any(axis=0)  # either side's stencil straddles a kink
    if near.size:  # np.convolve refuses an empty array
        near = np.convolve(near, np.ones(5), "full")[2:-2] > 0
    mid = (len(w) - 1) // 2  # x = 0 is the center of the interior slice
    if not np.any(~near & (np.arange(len(w)) != mid)):
        raise ConfigError(f"the grid of n = {len(tp)} points at h = {h:.6g} has no "
                          "interior point away from x = 0 and the kinks to measure "
                          "the Wronskian drift on")
    w0 = w[mid]
    return complex(w0), float(np.max(np.abs(w[~near] - w0)))


def jost_pair(pot: Potential1D) -> JostPair:
    """Solve both sides at z = 0 and record the Wronskian with its drift
    diagnostic.

    Solutions that overflow, or whose W(0), drift or scale does, are
    refused as InvalidOperator: every verdict reads those three numbers.
    W(x) is constant, so a drift above _DEV_TOL * max(1, |W|) is a
    DiscretizationFailure: every pair a caller gets passed both checks.
    """
    tp, tm = jost_solve(pot)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        w0, dev = _wronskian_profile(tp, tm, pot.grid.spacing)
        scale = 1.0 + float(np.max(np.abs(tp)) * np.max(np.abs(tm)))
    if not (np.all(np.isfinite(tp)) and np.all(np.isfinite(tm))):
        raise InvalidOperator("a Jost solution overflows")
    if not (cmath.isfinite(w0) and np.isfinite(dev) and np.isfinite(scale)):
        raise InvalidOperator(f"the Jost data overflow: W(0) = {w0:.3g}, drift {dev:.3g}, "
                              f"scale 1 + sup|theta+| sup|theta-| = {scale:.3g}")
    if dev > _DEV_TOL * max(1.0, abs(w0)):
        raise DiscretizationFailure(
            f"Wronskian drifts by {dev:.3g} across the grid (W(0) = {w0:.6g})")
    return JostPair(tp, tm, w0, dev, scale, pot.grid)


def green_kernel(pair: JostPair) -> SemiseparableKernel:
    """Two-sided Green kernel theta-(x_<) theta+(x_>) / W on the grid.

    Returned as an O(n) semiseparable operator with left = theta- / W,
    right = theta+ and decay 1; `.entries` builds the n^2 matrix only on
    request.  Requires |W| above _W_TOL * pair.scale, as every Regular verdict
    has: at a virtual level the Wronskian vanishes and no such kernel exists.
    """
    if abs(pair.wronskian) <= _W_TOL * pair.scale:
        raise VirtualLevelError(
            "Wronskian is zero: the Jost solutions are linearly dependent"
        )
    return SemiseparableKernel(pair.grid, pair.theta_minus / pair.wronskian,
                               pair.theta_plus, 1.0)


def classify_threshold_1d(pot: Potential1D, tol: float = 1e-6) -> ThresholdReport:
    """Wronskian dichotomy at z = 0: Regular / Virtual(rank 1) / Inconclusive.

    |W| <= tol * scale is Virtual with the bounded Jost solution as the
    (sup-normalized) virtual state; |W| up to max(100 tol, _W_TOL) * scale is
    Inconclusive, so every Regular verdict admits `green_kernel(pair)`.
    `diagnostics["jost_pair"]` keeps the solved pair.  `tol` must be finite
    and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tol = {tol} must be finite and nonnegative")
    pair = jost_pair(pot)
    aw, scale = abs(pair.wronskian), pair.scale
    diagnostics = {"jost_pair": pair}
    if aw <= tol * scale:
        state = pair.theta_plus / np.max(np.abs(pair.theta_plus))
        return ThresholdReport(Classification.VIRTUAL, rank=1, states=[state],
                               diagnostics=diagnostics)
    if aw <= max(100.0 * tol, _W_TOL) * scale:
        return ThresholdReport(Classification.INCONCLUSIVE, diagnostics=diagnostics)
    return ThresholdReport(Classification.REGULAR, rank=0, diagnostics=diagnostics)
