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

from .errors import (
    DegenerateFunctional,
    DiscretizationFailure,
    OutsideResolventSet,
)
from .weighted_space import decay_band, first_order_recursion, linear_fit

#: default truncation length and the tail band absorbing truncation effects
DEFAULT_LENGTH = 512
DEFAULT_TAIL_BAND = 64


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
        values = np.asarray(values, dtype=complex)
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
    n = psi.entries.size
    resid = float(np.max(np.abs(resid_vec[: n - tail_band])))
    lvl.residual = resid
    return lvl


def virtual_state_space_dimension(lvl: ShiftVirtualLevel,
                                  sv_tol: float = 1e-8) -> int:
    """Numerical dimension of the decaying null space of (A - z0 I).

    Stacks the truncated operator rows (off the tail band) on top of an
    identity block pinning the tail to zero: boundary-value states are
    finitely supported once phi is, while the pure geometric solutions of
    (L - z0) v = 0 violate the decay block.  The count of near-zero singular
    values is the dimension.  A - z0 I = M - phi (x) M[j*] / phi_j* with
    M = L - z0 I, the closed form of apply_operator.
    """
    n = lvl.psi.entries.size
    m = lvl.tail_band
    j = lvl.functional_index - 1
    phi = lvl.phi.entries
    stacked = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(stacked, -lvl.z0)
    np.fill_diagonal(stacked[:, 1:], 1.0)  # M = L - z0 I
    # M[j*] is nonzero only in columns j*, j* + 1
    stacked[:, j:j + 2] -= np.multiply.outer(phi, stacked[j, j:j + 2] / phi[j])
    stacked[n - m:] = 0.0
    np.fill_diagonal(stacked[n - m:, n - m:], 1.0)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv <= sv_tol * sv[0]))


def zero_operator_rank_probe(dim: int = 24, ranks=(1, 2, 3), radii=None,
                             trials: int = 3, seed: int = 0) -> dict:
    """Evidence that no finite-rank B regularizes the zero operator at 0.

    For sampled finite-rank B, the resolvent of Z + B compressed to the
    spectral projection of B at eigenvalue 0 is exactly -P0 / z, so its norm
    along any ray grows like 1/|z|.  Returns the fitted exponents, all ~1.
    """
    radii = tuple(radii or (10.0 ** (-1 - 0.5 * k) for k in range(7)))
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
