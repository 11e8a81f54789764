"""The left shift on l2(N): explicit resolvent, boundary values on the unit
circle, and a rank-one twist that manufactures a virtual level there.

Everything lives on finite truncations of the index set: a sequence is a
complex array whose entry [i - 1] holds x_i (see `sequence`).  The backward
recursion y_i = -z^{-1} x_i + z^{-1} y_{i+1} reproduces the Neumann series of
the resolvent exactly, so the identity (L - z) y = x holds to machine
precision on all but the last entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import ztbsv

from .errors import (
    ConfigError,
    DiscretizationFailure,
    OutsideResolventSet,
)
from .weighted_space import decay_band, first_order_recursion

#: default truncation length and the tail band absorbing truncation effects
DEFAULT_LENGTH = 512
TAIL_BAND = 64
_CHECK_TOL = 1e-4  # shift_boundary_value's self-check, relative to max(1, |x|_l1)
_SV_TOL = 1e-8  # relative singular-value cut of virtual_state_space_dimension


def sequence(values, n: int = DEFAULT_LENGTH) -> np.ndarray:
    """Length-n truncation of the sequence whose leading entries are `values`
    and whose remaining entries vanish, as a complex array (index 1 is [0])."""
    if n <= 0:
        raise ConfigError(f"sequence length n = {n} must be positive")
    values = np.asarray(values, dtype=complex)
    if values.size > n:
        raise ConfigError(f"{values.size} leading entries do not fit a sequence "
                          f"of length n = {n}")
    if not np.all(np.isfinite(values)):
        raise ValueError("entries must be finite")
    x = np.zeros(n, dtype=complex)
    x[: values.size] = values
    return x


def _geometric_sum(x: np.ndarray, zinv: complex) -> np.ndarray:
    """y_i = -sum_{k>=0} z^{-(k+1)} x_{i+k} via the stable backward recursion
    c_i = z^{-1} c_{i+1} + x_i, y = -z^{-1} c."""
    return -(zinv * first_order_recursion(decay_band(zinv, x.size), x, backward=True))


def shift_boundary_value(x: np.ndarray, z0: complex) -> np.ndarray:
    """Boundary value of the resolvent at |z0| = 1 (absolutely convergent on l1).

    Self-check: the value must agree with the resolvent at (1 + 1e-6) z0 to
    _CHECK_TOL * max(1, |x|_l1) in sup norm.
    """
    z0 = complex(z0)
    if not abs(abs(z0) - 1.0) <= 1e-12:  # nan fails too
        raise ValueError(f"|z0| = {abs(z0):.6g} must equal 1")
    x = np.asarray(x, dtype=complex)
    y = _geometric_sum(x, 1.0 / z0)
    probe = _geometric_sum(x, 1.0 / ((1.0 + 1e-6) * z0))
    dev = float(np.max(np.abs(y - probe)))
    if dev > _CHECK_TOL * max(1.0, float(np.sum(np.abs(x)))):
        raise DiscretizationFailure(
            f"boundary value deviates from the near-circle resolvent by {dev:.3g}"
        )
    return y


def truncated_resolvent_matrix(z: complex, n: int = DEFAULT_LENGTH) -> np.ndarray:
    """Upper-triangular matrix of (L - z I)^{-1}: entries -z^{-(j-i+1)}, j >= i."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise OutsideResolventSet(f"|z| = {abs(z):.6g} is not > 1")
    k = np.arange(n)
    powers = -(1.0 / z) ** (k + 1)
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[i, i:] = powers[: n - i]
    return m


@dataclass
class ShiftVirtualLevel:
    """Rank-one-regularized shift A = L - K(L - z0 I) with its virtual state."""

    z0: complex
    phi: np.ndarray = field(repr=False)
    functional_index: int
    psi: np.ndarray = field(repr=False)
    residual: float

    def apply_operator(self, v: np.ndarray) -> np.ndarray:
        """A v = L v - phi * ((L v - z0 v)_{j*} / phi_{j*}) on the truncation."""
        v = np.asarray(v, dtype=complex)
        lv = np.zeros_like(v)
        lv[:-1] = v[1:]
        w = lv - self.z0 * v
        lam = w[self.functional_index - 1] / self.phi[self.functional_index - 1]
        return lv - self.phi * lam


def build_shift_virtual_level(z0: complex, phi: np.ndarray) -> ShiftVirtualLevel:
    """Manufacture a virtual level of A = L - K(L - z0 I) at |z0| = 1.

    K = phi (x) lam is rank one with lam(phi) = 1, lam = <e_j*, .> / phi_j*;
    j* is the largest-modulus entry of phi, so the normalization never
    degenerates once phi is nonzero.  The virtual state is the boundary value
    of the shift resolvent applied to phi; its residual is measured in sup
    norm off the trailing TAIL_BAND entries.  On the unit circle
    |psi|_inf <= |phi|_l1, and the residual is at most 4 |phi|_l1; a phi for
    which that bound overflows is a ConfigError.
    """
    z0 = complex(z0)
    phi = np.asarray(phi, dtype=complex)
    n = phi.size
    if n <= TAIL_BAND:
        raise ConfigError(f"sequence length n = {n} must exceed the tail band of "
                          f"{TAIL_BAND} entries")
    if np.max(np.abs(phi)) == 0.0:
        raise ConfigError("phi must be nonzero")
    with np.errstate(over="ignore"):
        bound = 4.0 * float(np.sum(np.abs(phi)))
    if not np.isfinite(bound):
        raise ConfigError(f"the residual bound 4 |phi|_l1 = {bound:.3g} is not a finite float")
    functional_index = int(np.argmax(np.abs(phi))) + 1
    psi = shift_boundary_value(phi, z0)
    lvl = ShiftVirtualLevel(z0, phi, functional_index, psi, 0.0)
    resid_vec = lvl.apply_operator(psi) - z0 * psi
    lvl.residual = float(np.max(np.abs(resid_vec[: n - TAIL_BAND])))
    return lvl


def virtual_state_space_dimension(lvl: ShiftVirtualLevel) -> int:
    """Numerical dimension of the decaying null space of (A - z0 I).

    The operator rows off the tail band, stacked on an identity block that
    pins the tail to zero, form S: boundary-value states are finitely
    supported once phi is, while the pure geometric solutions of
    (L - z0) v = 0 violate the decay block.  The dimension is the number of
    singular values of S at most _SV_TOL * sigma_max(S).  S is never formed:
    S = S0 - u r with S0 upper bidiagonal (diagonal -z0 above the tail band
    and 1 on it, superdiagonal 1 above the tail band), u = phi with its tail
    rows zeroed and r = M[j*] / phi_j*, M = L - z0 I, nonzero only in columns
    j* and j* + 1.  Everything below is O(n) in time and memory.

    Certification: sigma_max(S) lies between the largest column 2-norm and
    sqrt(|S|_1 |S|_inf).  A rank-one update moves the smallest singular
    value only, so sigma_(n-1)(S) >= sigma_min(S0), bounded below in closed
    form by 1 / sqrt(|S0^-1|_1 |S0^-1|_inf); above _SV_TOL * sigma_max the
    count is 0 or 1.  It is 0 when the Sherman-Morrison bound
    |S^-1| <= |S0^-1| + |S0^-1 u| |S0^-H r^H| / |1 - r S0^-1 u| keeps
    sigma_min(S) above the threshold, and 1 when the candidate S0^-1 u has
    |Sx|/|x| below it.  A count that neither check decides raises
    DiscretizationFailure.
    """
    n = lvl.psi.size
    p = n - TAIL_BAND  # rows above the tail band
    j = lvl.functional_index - 1
    z0 = lvl.z0
    diag = np.where(np.arange(n) < p, -z0, 1.0 + 0.0j)
    sup = np.where(np.arange(n - 1) < p, 1.0 + 0.0j, 0.0)
    band = np.zeros((2, n), dtype=complex)  # upper band storage of S0
    band[0, 1:] = sup
    band[1] = diag
    # u r is unchanged when phi is scaled, so scale phi_j* to 1: r = M[j*]
    u = lvl.phi / lvl.phi[j]
    u[p:] = 0.0
    cols = np.arange(j, min(j + 2, n))  # the columns r touches
    r = np.array([-z0, 1.0])[: cols.size]

    # sigma_max bracket: |S0| with the columns r touches zeroed, plus those
    # columns of S in full
    touched = np.abs(np.multiply.outer(u, r))
    for c, k in enumerate(cols):
        touched[k, c] = abs(diag[k] - u[k] * r[c])
        if k > 0:
            touched[k - 1, c] = abs(sup[k - 1] - u[k - 1] * r[c])
    abs_diag, abs_sup = np.abs(diag), np.abs(sup)
    abs_diag[cols] = 0.0
    abs_sup[cols[cols > 0] - 1] = 0.0
    col_abs = abs_diag + np.r_[0.0, abs_sup]
    col_sq = abs_diag ** 2 + np.r_[0.0, abs_sup ** 2]
    col_abs[cols] += np.sum(touched, axis=0)
    col_sq[cols] += np.sum(touched ** 2, axis=0)
    row_abs = abs_diag + np.r_[abs_sup, 0.0] + np.sum(touched, axis=1)
    lo = float(np.sqrt(np.max(col_sq)))
    hi = float(np.sqrt(np.max(col_abs) * np.max(row_abs)))
    threshold_lo, threshold_hi = _SV_TOL * lo, _SV_TOL * hi

    # |S0^-1|: entries of its top block have modulus |z0|^-(k+1) on the k-th
    # superdiagonal; the tail identity adds 1 to the first tail column and
    # couples row i to it with |z0|^-(p-i)
    powers = abs(z0) ** -np.arange(1.0, p + 1)
    geo = float(np.sum(powers))
    coupled = p < n
    s0_inv = float(np.sqrt((geo + coupled) * (geo + coupled * powers[-1])))
    if not 1.0 / s0_inv > threshold_hi:
        raise DiscretizationFailure(
            f"cannot certify a single small singular value: sigma_min(S0) >= "
            f"{1.0 / s0_inv:.3g} is not above the threshold {threshold_hi:.3g}")

    w = ztbsv(1, band, u)  # S0^-1 u, a null vector of S when delta = 0
    rh = np.zeros(n, dtype=complex)
    rh[cols] = np.conj(r)
    w_h = ztbsv(1, band, rh, trans=2)  # S0^-H r^H
    delta = 1.0 - np.dot(r, w[cols])
    if delta != 0.0:
        sigma_lower = 1.0 / (s0_inv + np.linalg.norm(w) * np.linalg.norm(w_h) / abs(delta))
        if sigma_lower > threshold_hi:
            return 0

    x = w / np.linalg.norm(w)
    sx = diag * x
    sx[:-1] += sup * x[1:]
    sx -= u * np.dot(r, x[cols])
    if np.linalg.norm(sx) <= threshold_lo:
        return 1
    raise DiscretizationFailure(
        f"the candidate state could not place sigma_min(S) on either side of "
        f"the threshold [{threshold_lo:.3g}, {threshold_hi:.3g}]")

