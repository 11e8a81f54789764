"""The left shift on l2(N): explicit resolvent, boundary values on the unit
circle, and a rank-one twist that manufactures a virtual level there.

Everything lives on finite truncations of the index set; the backward
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
    DegenerateFunctional,
    DiscretizationFailure,
    OutsideResolventSet,
)
from .weighted_space import decay_band, first_order_recursion, linear_fit

#: default truncation length and the tail band absorbing truncation effects
DEFAULT_LENGTH = 512
DEFAULT_TAIL_BAND = 64
#: inverse-iteration steps virtual_state_space_dimension may take
_INVERSE_ITERATIONS = 4


@dataclass(frozen=True)
class SeqVector:
    """Finite truncation of an N-indexed sequence with a declared norm flavor."""

    entries: np.ndarray = field(repr=False)
    flavor: str = "l1"
    tail: float = 0.0  # declared bound on the truncated remainder

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        if e.ndim != 1 or e.size == 0:
            raise ValueError("entries must be a nonempty vector")
        if self.flavor not in ("l1", "l2", "linf"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        if self.flavor == "l1" and not 0.0 <= self.tail <= 1e-12:
            raise ValueError("l1 inputs must declare a tail bound <= 1e-12")

    def norm(self) -> float:
        if self.flavor == "l1":
            return float(np.sum(np.abs(self.entries)))
        if self.flavor == "l2":
            return float(np.linalg.norm(self.entries))
        return float(np.max(np.abs(self.entries)))

    @classmethod
    def basis(cls, index: int, n: int = DEFAULT_LENGTH) -> "SeqVector":
        e = np.zeros(n, dtype=complex)
        e[index - 1] = 1.0  # sequences are 1-indexed
        return cls(e, "l1")

    @classmethod
    def from_values(cls, values, n: int = DEFAULT_LENGTH, flavor: str = "l1",
                    tail: float = 0.0) -> "SeqVector":
        if n <= 0:
            raise ConfigError(f"sequence length n = {n} must be positive")
        values = np.asarray(values, dtype=complex)
        if values.size > n:
            raise ConfigError(f"{values.size} leading entries do not fit a sequence "
                              f"of length n = {n}")
        e = np.zeros(n, dtype=complex)
        e[: values.size] = values
        return cls(e, flavor, tail)


def _geometric_sum(x: np.ndarray, zinv: complex) -> np.ndarray:
    """y_i = -sum_{k>=0} z^{-(k+1)} x_{i+k} via the stable backward recursion
    c_i = z^{-1} c_{i+1} + x_i, y = -z^{-1} c."""
    return -(zinv * first_order_recursion(decay_band(zinv, x.size), x, backward=True))


def shift_resolvent_apply(x: SeqVector, z: complex) -> SeqVector:
    """(L - z)^{-1} x for |z| > 1, mapping l1 into l_infinity."""
    z = complex(z)
    if abs(z) <= 1.0:
        raise OutsideResolventSet(f"|z| = {abs(z):.6g} is not > 1")
    y = _geometric_sum(x.entries, 1.0 / z)
    return SeqVector(y, "linf")


def shift_boundary_value(x: SeqVector, z0: complex,
                         check_tol: float = 1e-4) -> SeqVector:
    """Boundary value of the resolvent at |z0| = 1 (absolutely convergent on l1).

    Self-check: the value must agree with the resolvent at (1 + 1e-6) z0 to
    check_tol * max(1, |x|_l1) in sup norm.
    """
    z0 = complex(z0)
    if abs(abs(z0) - 1.0) > 1e-12:
        raise ValueError(f"|z0| = {abs(z0):.6g} must equal 1")
    if x.flavor != "l1":
        raise ValueError("boundary values require an l1 input")
    y = _geometric_sum(x.entries, 1.0 / z0)
    probe = _geometric_sum(x.entries, 1.0 / ((1.0 + 1e-6) * z0))
    dev = float(np.max(np.abs(y - probe)))
    if dev > check_tol * max(1.0, x.norm()):
        raise DiscretizationFailure(
            f"boundary value deviates from the near-circle resolvent by {dev:.3g}"
        )
    return SeqVector(y, "linf")


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
    phi: SeqVector
    functional_index: int
    psi: SeqVector
    residual: float
    tail_band: int

    def apply_operator(self, v: np.ndarray) -> np.ndarray:
        """A v = L v - phi * ((L v - z0 v)_{j*} / phi_{j*}) on the truncation."""
        v = np.asarray(v, dtype=complex)
        lv = np.zeros_like(v)
        lv[:-1] = v[1:]
        w = lv - self.z0 * v
        lam = w[self.functional_index - 1] / self.phi.entries[self.functional_index - 1]
        return lv - self.phi.entries * lam


def build_shift_virtual_level(z0: complex, phi: SeqVector,
                              functional_index: int | None = None,
                              tail_band: int = DEFAULT_TAIL_BAND) -> ShiftVirtualLevel:
    """Manufacture a virtual level of A = L - K(L - z0 I) at |z0| = 1.

    K = phi (x) lam is rank one with lam(phi) = 1, lam = <e_j*, .> / phi_j*;
    by default j* is the largest-modulus entry of phi, so the normalization
    never degenerates.  The virtual state is the boundary value of the shift
    resolvent applied to phi; its residual is measured in sup norm off the
    trailing tail band.
    """
    z0 = complex(z0)
    n = phi.entries.size
    if n <= tail_band:
        raise ConfigError(f"sequence length n = {n} must exceed the tail band of "
                          f"{tail_band} entries")
    if np.max(np.abs(phi.entries)) == 0.0:
        raise DegenerateFunctional("phi must be nonzero")
    if functional_index is None:
        functional_index = int(np.argmax(np.abs(phi.entries))) + 1
    pj = phi.entries[functional_index - 1]
    if pj == 0.0:
        raise DegenerateFunctional(
            f"normalizing functional vanishes: phi_{functional_index} = 0"
        )
    psi = shift_boundary_value(phi, z0)
    lvl = ShiftVirtualLevel(z0, phi, functional_index, psi, 0.0, tail_band)
    resid_vec = lvl.apply_operator(psi.entries) - z0 * psi.entries
    resid = float(np.max(np.abs(resid_vec[: n - tail_band])))
    lvl.residual = resid
    return lvl


def virtual_state_space_dimension(lvl: ShiftVirtualLevel,
                                  sv_tol: float = 1e-8) -> int:
    """Numerical dimension of the decaying null space of (A - z0 I).

    The operator rows off the tail band, stacked on an identity block that
    pins the tail to zero, form S: boundary-value states are finitely
    supported once phi is, while the pure geometric solutions of
    (L - z0) v = 0 violate the decay block.  The dimension is the number of
    singular values of S at most sv_tol * sigma_max(S).  S is never formed:
    S = S0 - u r with S0 upper bidiagonal (diagonal -z0 above the tail band
    and 1 on it, superdiagonal 1 above the tail band), u = phi with its tail
    rows zeroed and r = M[j*] / phi_j*, M = L - z0 I, nonzero only in columns
    j* and j* + 1.  Everything below is O(n) in time and memory.

    Certification: sigma_max(S) lies between the largest column 2-norm and
    sqrt(|S|_1 |S|_inf).  A rank-one update moves the smallest singular
    value only, so sigma_(n-1)(S) >= sigma_min(S0), bounded below in closed
    form by 1 / sqrt(|S0^-1|_1 |S0^-1|_inf); above sv_tol * sigma_max the
    count is 0 or 1.  It is 0 when the Sherman-Morrison bound
    |S^-1| <= |S0^-1| + |S0^-1 u| |S0^-H r^H| / |1 - r S0^-1 u| keeps
    sigma_min(S) above the threshold, and 1 when inverse iteration on S^H S
    (each solve one ztbsv with S0 plus the Sherman-Morrison term), started
    from the candidate state S0^-1 u, finds |S x| / |x| below it.  A count
    that neither check decides raises DiscretizationFailure.
    """
    n = lvl.psi.entries.size
    p = n - lvl.tail_band  # rows above the tail band
    j = lvl.functional_index - 1
    z0 = lvl.z0
    diag = np.where(np.arange(n) < p, -z0, 1.0 + 0.0j)
    sup = np.where(np.arange(n - 1) < p, 1.0 + 0.0j, 0.0)
    band = np.zeros((2, n), dtype=complex)  # upper band storage of S0
    band[0, 1:] = sup
    band[1] = diag
    # u r is unchanged when phi is scaled, so scale phi_j* to 1: r = M[j*]
    u = lvl.phi.entries / lvl.phi.entries[j]
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
    threshold_lo, threshold_hi = sv_tol * lo, sv_tol * hi

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

    def s0_solve(b, trans=0):
        return ztbsv(1, band, b, trans=trans)

    w = s0_solve(u)  # S0^-1 u, a null vector of S when delta = 0
    rh = np.zeros(n, dtype=complex)
    rh[cols] = np.conj(r)
    w_h = s0_solve(rh, trans=2)  # S0^-H r^H
    delta = 1.0 - np.dot(r, w[cols])
    if delta != 0.0:
        sigma_lower = 1.0 / (s0_inv + np.linalg.norm(w) * np.linalg.norm(w_h) / abs(delta))
        if sigma_lower > threshold_hi:
            return 0

    def apply_s(x):
        sx = diag * x
        sx[:-1] += sup * x[1:]
        sx -= u * np.dot(r, x[cols])
        return sx

    def solve_normal(x):  # (S^H S)^-1 x through S^-H, then S^-1
        y = s0_solve(x, trans=2)
        y += w_h * (np.vdot(u, y) / np.conj(delta))
        y = s0_solve(y)
        y += w * (np.dot(r, y[cols]) / delta)
        return y

    x = w / np.linalg.norm(w)
    for _ in range(_INVERSE_ITERATIONS):
        if np.linalg.norm(apply_s(x)) <= threshold_lo:
            return 1
        if delta == 0.0:
            break
        x = solve_normal(x)
        x /= np.linalg.norm(x)
    raise DiscretizationFailure(
        f"inverse iteration could not place sigma_min(S) on either side of "
        f"the threshold [{threshold_lo:.3g}, {threshold_hi:.3g}]")


def zero_operator_rank_probe(dim: int = 24, ranks=(1, 2, 3), radii=None,
                             trials: int = 3, seed: int = 0) -> dict:
    """Evidence that no finite-rank B regularizes the zero operator at 0.

    For sampled finite-rank B, the resolvent of Z + B compressed to the
    spectral projection of B at eigenvalue 0 is exactly -P0 / z, so its norm
    along any ray grows like 1/|z|.  Returns the fitted exponents, all ~1.
    """
    if radii is None:
        radii = (10.0 ** (-1 - 0.5 * k) for k in range(7))
    radii = tuple(radii)
    if len(radii) < 2:
        raise ConfigError(f"the rank probe fits a slope through at least 2 radii, "
                          f"got {len(radii)}")
    rng = np.random.default_rng(seed)
    fitted = {}
    for rank in ranks:
        exps = []
        for _ in range(trials):
            b = np.zeros((dim, dim), dtype=complex)
            for _ in range(rank):
                b += np.outer(rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                              rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            b /= np.linalg.norm(b)
            vals, vecs = np.linalg.eig(b)
            keep = np.abs(vals) <= 1e-8
            # spectral projector onto the (generically semisimple) null part
            vinv = np.linalg.inv(vecs)
            p0 = (vecs[:, keep] @ vinv[keep, :])
            norms = []
            for r in radii:
                z = r * np.exp(1j * np.pi / 3)
                res = np.linalg.solve(b - z * np.eye(dim), p0)
                norms.append(np.linalg.norm(res, 2))
            exps.append(linear_fit(-np.log(np.array(radii)), np.log(np.array(norms)))[0])
        fitted[rank] = exps
    return fitted
