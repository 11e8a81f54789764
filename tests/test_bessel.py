"""Cross-validation of the free 2D kernels' K0/I0 against independent oracles.

kernel_2d(r, z = -1) is K0(r) / (2 pi) and radial_reduced_kernel_2d is
sqrt(r rho) I0(w r_<) K0(w r_>), both from scipy's scaled AMOS Bessel
functions.  The quadrature oracle integrates a different representation of K0:

    K0(t) = 2 exp(-t) int_0^inf exp(-t w^2) / sqrt(w^2 + 2) dw

(the Laplace form with v = 1 + w^2), evaluated by adaptive quadrature.
mpmath's arbitrary-precision I0 and K0 give a second, independent check,
including the near-imaginary arguments |t| > 12 that spectral parameters
hugging the positive axis produce.
"""

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from virtlev.free_resolvent import (
    SpectralParameter,
    build_free_kernel_operator,
    kernel_2d,
    radial_reduced_kernel_2d,
    sqrt_minus_z,
)
from virtlev.weighted_space import RadialGrid

UNIT = SpectralParameter.interior(-1.0)  # w = 1: kernel_2d(t) = K0(t) / (2 pi)


def k0(t):
    return 2.0 * np.pi * kernel_2d(t, UNIT)


def k0_quadrature_oracle(t: complex) -> complex:
    def integrand_re(w):
        return np.real(np.exp(-t * w * w) / np.sqrt(w * w + 2.0))

    def integrand_im(w):
        return np.imag(np.exp(-t * w * w) / np.sqrt(w * w + 2.0))

    re, _ = quad(integrand_re, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    im, _ = quad(integrand_im, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return 2.0 * np.exp(-t) * complex(re, im)


def reduced_mpmath(r, rho, w):
    wm = mpmath.mpc(w.real, w.imag)
    lo, hi = min(r, rho), max(r, rho)
    return complex(mpmath.sqrt(r * rho) * mpmath.besseli(0, wm * lo)
                   * mpmath.besselk(0, wm * hi))


REAL_POINTS = [0.05, 0.3, 1.0, 2.0, 4.0, 5.9, 6.1, 8.0, 11.0, 13.9, 14.1,
               20.0, 50.0]


@pytest.mark.parametrize("t", REAL_POINTS)
def test_k0_against_quadrature_oracle(t):
    assert complex(k0(t)) == pytest.approx(k0_quadrature_oracle(t), rel=1e-10)


def test_k0_against_scipy_real_axis():
    # cephes k0 is a separate implementation from the AMOS kv behind kernel_2d
    t = np.array(REAL_POINTS)
    rel = np.abs(k0(t) - special.k0(t)) / np.abs(special.k0(t))
    assert np.max(rel) < 1e-10


def test_k0_complex_arguments():
    # t = m exp(ia) is r w with r = m and z = -exp(2ia), so that w = exp(ia)
    for m in (0.2, 1.0, 3.0, 6.5, 8.0, 11.0, 13.5, 16.0, 40.0):
        for a in (-0.7, -0.3, 0.0, 0.3, 0.7):
            p = SpectralParameter.interior(-np.exp(2j * a))
            got = complex(2.0 * np.pi * kernel_2d(m, p))
            ref = complex(mpmath.besselk(0, mpmath.mpc(m * np.cos(a), m * np.sin(a))))
            assert abs(got - ref) <= 1e-10 * abs(ref), (m, a)


def test_k0_known_value():
    # A&S reference value of K0(1)
    assert complex(k0(1.0)).real == pytest.approx(0.42102443824070834, rel=1e-12)


def test_k0_small_argument_log_asymptotics():
    gamma = 0.5772156649015329
    for t in (1e-4, 1e-6):
        expected = -np.log(t / 2.0) - gamma
        assert complex(k0(t)).real == pytest.approx(expected, rel=1e-6)


def test_i0_against_scipy():
    # the scaled pair ive/kve against the unscaled iv/kv where neither overflows
    for w, r_lo in ((1.0, [0.1, 1.0, 5.0, 11.9, 12.1, 30.0, 200.0]),
                    (np.exp(0.4j), [2.0]), (np.exp(-0.6j), [8.0]),
                    (np.exp(0.2j), [15.0])):
        for lo in r_lo:
            hi = lo + 0.5
            ref = np.sqrt(lo * hi) * special.iv(0, w * lo) * special.kv(0, w * hi)
            got = complex(radial_reduced_kernel_2d(lo, hi, w))
            assert abs(got - ref) <= 1e-12 * abs(ref), (w, lo)


def test_reduced_kernel_against_mpmath():
    rng = np.random.default_rng(11)
    for z in (-1e-4, -1.0 + 0.5j, -0.3 - 2.0j, 4.0 + 0.1j):
        w = sqrt_minus_z(SpectralParameter.interior(z))
        r, rho = 10.0 * rng.random(8) + 0.01, 10.0 * rng.random(8) + 0.01
        got = radial_reduced_kernel_2d(r, rho, w)
        ref = [reduced_mpmath(a, b, w) for a, b in zip(r, rho)]
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, z


def test_near_imaginary_arguments_on_the_grid():
    # z = 1 + 1e-2 i: w r_< reaches |t| = 20 nearly on the imaginary axis,
    # where a dropped subdominant term of I0 once gave O(1) errors
    grid = RadialGrid(20.0, 2000)
    p = SpectralParameter.interior(1.0 + 1e-2j)
    w = sqrt_minus_z(p)
    r = grid.points
    full = radial_reduced_kernel_2d(r[:, None], r[None, :], w)
    dense = build_free_kernel_operator(2, grid, p).entries
    rng = np.random.default_rng(5)
    far = rng.integers(1200, 2000, size=(24, 2))  # both radii past 12 / |w|
    anywhere = rng.integers(0, 2000, size=(24, 2))
    idx = np.vstack([far, anywhere])
    ref = np.array([reduced_mpmath(r[i], r[j], w) for i, j in idx])
    for k in (full, dense):
        assert np.max(np.abs(k[idx[:, 0], idx[:, 1]] - ref)) <= 1e-10 * np.max(np.abs(k))


@pytest.mark.parametrize("w,big_r", [(0.01 - 20.0j, 40.0), (30.0 - 20.0j, 40.0),
                                     (50.0, 40.0), (1e-3 + 3.0j, 20.0)])
def test_grid_build_against_mpmath_im_dominant_and_huge_re(w, big_r):
    # Im(w) dominant, and Re(w) R up to 2000, far past exp's overflow at 709:
    # every entry is finite, and matches mpmath wherever the exact value is a
    # normal double (the rest underflow to below 1e-280)
    r = RadialGrid(big_r, 1000).points
    k = radial_reduced_kernel_2d(r[:, None], r[None, :], w)
    assert np.all(np.isfinite(k))
    rng = np.random.default_rng(3)
    i = rng.integers(0, 1000, 48)
    j = np.r_[rng.integers(0, 1000, 24), np.clip(i[24:] + rng.integers(-4, 5, 24), 0, 999)]
    with mpmath.workdps(30):
        ref = np.array([reduced_mpmath(r[a], r[b], complex(w)) for a, b in zip(i, j)])
    got = k[i, j]
    normal = np.abs(ref) > 1e-290
    assert np.sum(normal) >= 24
    assert np.all(np.abs(got - ref)[normal] <= 1e-12 * np.abs(ref[normal]))
    assert np.all(np.abs(got[~normal]) <= 1e-280)


def test_k0_positive_on_positive_axis():
    t = np.linspace(0.01, 30.0, 300)
    vals = k0(t)
    assert np.all(vals.real > 0)
    assert np.max(np.abs(vals.imag)) == 0.0
