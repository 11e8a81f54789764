"""Closed-form free resolvent kernels in dimensions 1, 2, 3.

Branch convention: all kernels are built from w = sqrt(-z) with Re w > 0 for
z off the closed positive axis.  On the positive axis itself the root is
+-i sqrt(z0), with the sign selected by the side from which z approaches:
the limit from the upper half-plane gives w = -i sqrt(z0), so that the 1D/3D
kernels carry the outgoing oscillatory factor exp(i sqrt(z0) |x - y|).

Dimensions 2 and 3 are implemented radially, in the spherically symmetric
(s-wave) sector: on reduced functions u(r) = r f(r) (d=3) resp.
u(r) = sqrt(2 pi r) f(r) (d=2), with the L2 norm and the <r>^s weights of the
full space carried over exactly.  The reduced kernels

    d=3:  sinh(w r_<) exp(-w r_>) / w
    d=2:  sqrt(r rho) I0(w r_<) K0(w r_>)

are continuous up to the diagonal for r, rho > 0, so no on-diagonal
regularization is required on a RadialGrid; the pointwise full-space kernels
do raise on their diagonal.

Both, and the 1D kernel, have the form left(r_<) right(r_>) exp(-w |r - rho|).
free_semiseparable_kernel holds the only copy of their generators and applies
them in O(n) on a grid; the 2D generators are scipy's scaled AMOS Bessel
functions ive/kve, accurate near the positive axis and free of overflow.
The pointwise radial_reduced_kernel_2d folds the phase of exp(-w |r - rho|)
into those generators, e^{i Im(w) r} onto left and its conjugate onto right,
and takes one real exp(-Re(w) |r - rho|) per pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguity,
    OnDiagonalSingularity,
    ThresholdSingularity,
    UnsupportedSpectralPoint,
)
from .weighted_space import Grid1D, RadialGrid, SemiseparableKernel


class Approach(enum.Enum):
    """How the spectral parameter approaches the essential spectrum."""

    INTERIOR = "interior"
    FROM_UPPER_HALF_PLANE = "upper"
    FROM_LOWER_HALF_PLANE = "lower"
    ALONG_NEGATIVE_AXIS = "negative_axis"


@dataclass(frozen=True)
class SpectralParameter:
    """A point z together with the side of the cut it is understood from."""

    z: complex
    approach: Approach = Approach.INTERIOR

    def __post_init__(self):
        z = complex(self.z)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ValueError("z must be finite")
        if self.approach is Approach.ALONG_NEGATIVE_AXIS:
            if z.imag != 0.0 or z.real > 0.0:
                raise ValueError("ALONG_NEGATIVE_AXIS requires real z <= 0")

    @classmethod
    def interior(cls, z) -> "SpectralParameter":
        return cls(complex(z), Approach.INTERIOR)


def _on_positive_cut(z: complex) -> bool:
    return z.imag == 0.0 and z.real > 0.0


def sqrt_minus_z(p: SpectralParameter) -> complex:
    """Branch root sqrt(-z): Re > 0 off the cut, -+ i sqrt(z0) on it.

    Raises BranchAmbiguity for z on the closed positive axis with an
    INTERIOR approach (no side to take the limit from).
    """
    z = complex(p.z)
    if _on_positive_cut(z):
        if p.approach is Approach.FROM_UPPER_HALF_PLANE:
            return -1j * np.sqrt(z.real)
        if p.approach is Approach.FROM_LOWER_HALF_PLANE:
            return 1j * np.sqrt(z.real)
        raise BranchAmbiguity(
            f"z = {z} lies on the positive axis; specify the approach side"
        )
    if z == 0:
        if p.approach is Approach.INTERIOR:
            raise BranchAmbiguity("z = 0 is on the boundary of the cut plane")
        return 0.0 + 0.0j
    return complex(np.sqrt(complex(-z)))  # principal branch, Re > 0 off the cut


def kernel_1d(x, y, p: SpectralParameter):
    """Free 1D resolvent kernel exp(-|x-y| sqrt(-z)) / (2 sqrt(-z)).

    There is no kernel at z = 0: the two exponential solutions degenerate and
    the prefactor diverges, so that case raises ThresholdSingularity.
    """
    if complex(p.z) == 0:
        raise ThresholdSingularity("the 1D free kernel has no limit at z = 0")
    w = sqrt_minus_z(p)
    d = np.abs(np.asarray(x) - np.asarray(y))
    return np.exp(-d * w) / (2.0 * w)


def kernel_3d(r, p: SpectralParameter):
    """Full 3D kernel exp(-r sqrt(-z)) / (4 pi r) at separation r = |x - y| > 0.

    Pointwise bounded as z -> 0, where it equals 1 / (4 pi r).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise OnDiagonalSingularity("the 3D kernel is singular at r = 0")
    w = sqrt_minus_z(p)
    return np.exp(-r * w) / (4.0 * np.pi * r)


def kernel_2d(r, p: SpectralParameter):
    """Full 2D kernel K0(r sqrt(-z)) / (2 pi), for z off the closed positive axis."""
    from scipy import special  # imported here: it adds ~45 ms to `import virtlev.cli`

    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise OnDiagonalSingularity("the 2D kernel is singular at r = 0")
    z = complex(p.z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise UnsupportedSpectralPoint(
            "2D kernel boundary values on the positive axis are not supported"
        )
    w = sqrt_minus_z(p)
    return special.kv(0, r * w) / (2.0 * np.pi)


def _generators(d: int, r: np.ndarray, w):
    """left(r), right(r) of the free kernel left(r_<) right(r_>) exp(-w |r - rho|)."""
    if d == 1:
        return np.full(r.shape, 1.0 / (2.0 * w)), np.ones(r.shape)
    if d == 3:
        if w == 0:
            return r.astype(complex), np.ones(r.shape)
        return -np.expm1(-2.0 * w * r) / (2.0 * w), np.ones(r.shape)
    if d != 2:
        raise ValueError(f"unsupported dimension d = {d}")
    from scipy import special  # imported here: it adds ~45 ms to `import virtlev.cli`

    # I0(wa) K0(wb) = ive(wa) kve(wb) exp(Re(w) a - w b) for Re w >= 0, a <= b
    t = w * r
    root = np.sqrt(r)
    return (root * special.ive(0, t) * np.exp(-1j * w.imag * r),
            root * special.kve(0, t))


def free_semiseparable_kernel(d: int, grid, w) -> SemiseparableKernel:
    """Free resolvent kernel of dimension d on the grid, applied in O(n).

    w = sqrt(-z).  d = 1 takes a Grid1D and gives exp(-w|x-y|) / (2w); d = 2, 3
    take a RadialGrid and give the reduced s-wave kernels.  Every kernel is
    left(r_<) right(r_>) exp(-w h)^|i-j|: d = 1 has left = 1/(2w); d = 3 has
    left = -expm1(-2wr)/(2w) = sinh(wr) exp(-wr)/w (r at w = 0); d = 2 has
    left = sqrt(r) ive(0, wr) exp(-i Im(w) r) and right = sqrt(r) kve(0, wr),
    the exponentially scaled AMOS Bessel functions (Amos, ACM TOMS 644, 1986),
    so no generator overflows; right = 1 otherwise.
    """
    left, right = _generators(d, grid.points, w)
    return SemiseparableKernel(grid, left, right, np.exp(-w * grid.spacing))


_PAIR_BLOCK = 1 << 15  # pairs per block of radial_reduced_kernel_2d: 256 KiB of scratch


def radial_reduced_kernel_2d(r, rho, w):
    """s-wave reduced 2D kernel sqrt(r rho) I0(w r_<) K0(w r_>), Re w >= 0,
    at every broadcast pair (r, rho).

    exp(-w |r - rho|) = exp(-Re(w) |r - rho|) e^{i Im(w) r_<} e^{-i Im(w) r_>}:
    the Bessel generators and the unit phases are evaluated once per r and
    once per rho, so each pair costs one product and one real exponential,
    and nothing can overflow.  Peak memory is the result and one block of
    _PAIR_BLOCK pairs of scratch.
    """
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    w = complex(w)

    def folded(x):
        left, right = _generators(2, x, w)
        phase = np.exp(1j * w.imag * x)
        return left * phase, right * phase.conj()

    (left_r, right_r), (left_rho, right_rho) = folded(r), folded(rho)
    shape = np.broadcast_shapes(r.shape, rho.shape)
    full = shape or (1,)
    r, rho, left_r, right_r, left_rho, right_rho = (
        np.broadcast_to(a, full) for a in (r, rho, left_r, right_r, left_rho, right_rho))
    # Blocks of leading-axis rows share one scratch allocated before the
    # result, so the result is the build's only large allocation and its
    # last: the caller's small allocations fill the freed scratch, not the
    # heap above the result, and peak memory does not depend on heap history.
    step = max(1, min(full[0], _PAIR_BLOCK // max(1, math.prod(full[1:]))))
    decay = np.empty((step,) + full[1:])
    swap = np.empty(decay.shape, dtype=bool)
    out = np.empty(full, dtype=complex)
    for i in range(0, full[0], step):
        b = slice(i, i + step)
        o = out[b]
        d, m = decay[:len(o)], swap[:len(o)]
        np.multiply(left_r[b], right_rho[b], out=o)
        np.multiply(left_rho[b], right_r[b], out=o, where=np.greater(r[b], rho[b], out=m))
        np.abs(np.subtract(r[b], rho[b], out=d), out=d)
        d *= -w.real
        o *= np.exp(d, out=d)
    return out.reshape(shape)[()]


def build_free_kernel_operator(d: int, grid, p: SpectralParameter) -> SemiseparableKernel:
    """The free resolvent of dimension d on the grid, as the O(n)
    semiseparable operator of free_semiseparable_kernel.

    d = 1 takes a Grid1D; d = 2, 3 take a RadialGrid and produce the reduced
    s-wave kernels, whose weighted operator norms approximate the spherically
    symmetric part of the full-space resolvent.  The dense complex matrix is
    built only when a caller reads `entries`.
    """
    z = complex(p.z)
    if d == 1:
        if not isinstance(grid, Grid1D):
            raise TypeError("d = 1 requires a Grid1D")
        if z == 0:
            raise ThresholdSingularity("the 1D free kernel has no limit at z = 0")
    elif d in (2, 3):
        if not isinstance(grid, RadialGrid):
            raise TypeError(f"d = {d} requires a RadialGrid")
        if d == 2 and z.imag == 0.0 and z.real >= 0.0:
            raise UnsupportedSpectralPoint("2D kernel requires z off the closed positive axis")
    else:
        raise ValueError(f"unsupported dimension d = {d}")
    return free_semiseparable_kernel(d, grid, sqrt_minus_z(p))
