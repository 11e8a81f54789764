"""Left-shift resolvent, boundary values, manufactured virtual levels."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from virtlev.discrete_ops import (
    TAIL_BAND,
    _geometric_sum,
    build_shift_virtual_level,
    shift_boundary_value,
    sequence,
    truncated_resolvent_matrix,
    virtual_state_space_dimension,
)
from virtlev.errors import ConfigError, OutsideResolventSet
from virtlev.weighted_space import linear_fit


def _dense_dimension(lvl, sv_tol=1e-8):
    """Oracle: the SVD count of the stacked operator rows and tail block."""
    n, m = lvl.psi.size, TAIL_BAND
    j, phi = lvl.functional_index - 1, lvl.phi
    shifted = np.eye(n, k=1, dtype=complex) - lvl.z0 * np.eye(n)
    a_mat = (shifted - np.outer(phi, shifted[j] / phi[j]))[: n - m]
    tail_block = np.zeros((m, n), dtype=complex)
    tail_block[:, n - m:] = np.eye(m)
    sv = np.linalg.svd(np.vstack([a_mat, tail_block]), compute_uv=False)
    return int(np.sum(sv <= sv_tol * sv[0]))


def _zero_operator_exponents():
    """The zero operator Z on C^16 is not regularized by any finite-rank B.

    For sampled B of rank 1-3 (two trials each), the resolvent of Z + B
    compressed to the spectral projection P0 of B at eigenvalue 0 is exactly
    -P0 / z, so its norm along a ray grows like 1/|z|.  Returns the fitted
    growth exponents per rank, all ~1.
    """
    dim = 16
    radii = 10.0 ** (-1 - 0.5 * np.arange(7))
    rng = np.random.default_rng(0)
    fitted = {}
    for rank in (1, 2, 3):
        exps = []
        for _ in range(2):
            b = np.zeros((dim, dim), dtype=complex)
            for _ in range(rank):
                b += np.outer(rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                              rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            b /= np.linalg.norm(b)
            vals, vecs = np.linalg.eig(b)
            keep = np.abs(vals) <= 1e-8
            # spectral projector onto the (generically semisimple) null part
            p0 = vecs[:, keep] @ np.linalg.inv(vecs)[keep, :]
            norms = [np.linalg.norm(np.linalg.solve(b - z * np.eye(dim), p0), 2)
                     for z in radii * np.exp(1j * np.pi / 3)]
            exps.append(linear_fit(-np.log(radii), np.log(norms))[0])
        fitted[rank] = exps
    return fitted


def test_sequence_validation():
    v = sequence([1, 2], n=8)
    assert v.dtype == complex and v.shape == (8,)
    assert np.sum(np.abs(v)) == 3.0
    for bad in ([np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="entries must be finite"):
            sequence(bad, n=8)


# _geometric_sum(x, 1 / z) is (L - z)^{-1} x for |z| > 1, mapping l1 into l_infinity
def test_basis_resolvent_single_term():
    y = _geometric_sum(sequence([1.0]), 1 / 2.0)
    assert y[0] == pytest.approx(-0.5)
    assert np.max(np.abs(y[1:])) == 0.0


def test_geometric_sequence_closed_form():
    n = 512
    x = np.array([2.0 ** -(j + 1) for j in range(n)])
    y = _geometric_sum(x, 1 / 2.0)
    expected = -(2.0 / 3.0) * np.array([2.0 ** -(i + 1) for i in range(12)])
    assert np.max(np.abs(y[:12] - expected)) < 1e-15


def test_uniform_l1_linf_bound():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        z = (1.0 + 9.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        y = _geometric_sum(x, 1 / z)
        assert np.max(np.abs(y)) <= np.sum(np.abs(x)) * (1 + 1e-12)


def test_resolvent_identity_exact():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    z = 1.3 - 0.8j
    y = _geometric_sum(x, 1 / z)
    lv = np.zeros_like(y)
    lv[:-1] = y[1:]
    resid = lv - z * y - x
    assert np.max(np.abs(resid[:-1])) < 1e-13


def test_recursion_matches_dense_matrix():
    # the O(n) recursion against the dense matrix criterion 6 builds
    rng = np.random.default_rng(13)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for _ in range(50):
        z = (10.0 - 9.0 * rng.random()) * np.exp(2j * np.pi * rng.random())  # 1 < |z| <= 10
        dense = truncated_resolvent_matrix(z, x.size) @ x
        assert np.max(np.abs(_geometric_sum(x, 1 / z) - dense)) <= 1e-14 * np.sum(np.abs(x))


def test_outside_resolvent_set():
    with pytest.raises(OutsideResolventSet):
        truncated_resolvent_matrix(1.0, 16)


class TestBoundaryValue:
    def test_basis_values(self):
        y = shift_boundary_value(sequence([1.0]), 1.0)
        assert y[0] == pytest.approx(-1.0)
        yi = shift_boundary_value(sequence([1.0]), 1j)
        assert yi[0] == pytest.approx(1j)  # -1/z0 = -conj(z0)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        z0 = np.exp(0.3j)
        ya = shift_boundary_value(sequence(a, n=64), z0)
        yb = shift_boundary_value(sequence(b, n=64), z0)
        yab = shift_boundary_value(sequence(a + b, n=64), z0)
        assert np.max(np.abs(yab - ya - yb)) < 1e-12

    def test_agrees_with_near_circle_resolvent(self):
        rng = np.random.default_rng(15)
        x = sequence(rng.standard_normal(32), n=256)
        z0 = np.exp(1j * np.pi / 3)
        y0 = shift_boundary_value(x, z0)
        y_eps = _geometric_sum(x, 1 / ((1 + 1e-6) * z0))
        dev = np.max(np.abs(y0 - y_eps))
        assert dev <= 1e-4 * max(1.0, np.sum(np.abs(x)))

    def test_requires_unit_circle(self):
        with pytest.raises(ValueError):
            shift_boundary_value(sequence([1.0]), 1.1)

    def test_nan_z0_fails_unit_circle(self):
        for z0 in (complex(np.nan, 0.0), complex(np.nan, np.nan), complex(1.0, np.nan)):
            with pytest.raises(ValueError, match="must equal 1"):
                shift_boundary_value(sequence([1.0]), z0)


class TestVirtualLevel:
    def test_hand_computable_chain(self):
        lvl = build_shift_virtual_level(1.0, sequence([1.0]))
        assert lvl.psi[0] == pytest.approx(-1.0)
        assert np.max(np.abs(lvl.psi[1:])) == 0.0
        assert lvl.residual <= 1e-12

    @pytest.mark.parametrize("z0", [1.0, 1j, np.exp(1j * np.pi / 4)])
    @pytest.mark.parametrize("support", [(1.0,), (1.0, 0.5, 0.25),
                                         (0.3 - 0.2j, 0.0, 0.7j)])
    def test_residuals(self, z0, support):
        lvl = build_shift_virtual_level(z0, sequence(support))
        assert lvl.residual <= 1e-10

    def test_state_space_is_one_dimensional(self):
        lvl = build_shift_virtual_level(1j, sequence([1.0, 0.5, 0.25]))
        assert virtual_state_space_dimension(lvl) == 1

    @pytest.mark.parametrize("z0,values,index", [
        (1j, [1.0, 0.5, 0.25], None),
        (np.exp(0.25j * np.pi), [0.0, 2.0, 1.0], None),
        (-1.0, [0.3, -2.0, 1j, 4.0], 2),
    ])
    def test_state_space_dimension_matches_operator_columns(self, z0, values, index):
        lvl = build_shift_virtual_level(z0, sequence(values, n=160))
        if index is not None:  # a j* other than the argmax
            lvl = replace(lvl, functional_index=index)
        n, m = 160, TAIL_BAND
        eye = np.eye(n, dtype=complex)
        cols = np.array([lvl.apply_operator(e) - lvl.z0 * e for e in eye]).T[: n - m]
        tail = np.hstack([np.zeros((m, n - m)), np.eye(m)])
        sv = np.linalg.svd(np.vstack([cols, tail]), compute_uv=False)
        assert virtual_state_space_dimension(lvl) == np.sum(sv <= 1e-8 * sv[0]) == 1

    @pytest.mark.parametrize("z0", [1.0, 1j, np.exp(0.7j), -1.0])
    @pytest.mark.parametrize("values,index", [
        ([1.0, 0.5, 0.25], None), ([0.3, -2.0, 1j, 4.0], 2), ([0.0, 2.0, 1.0 - 1j], 3),
        ([1.0, 0.5], 512),  # j* = n: M[j*] has no column j* + 1
    ])
    def test_state_space_dimension_matches_stacked_blocks(self, z0, values, index):
        # the structured count against the explicit eye/outer/vstack matrix
        lvl = build_shift_virtual_level(z0, sequence(values, n=512))
        if index is not None:  # the count reads z0, phi, j* and the tail band only
            phi = lvl.phi.copy()
            phi[index - 1] = phi[index - 1] or 0.5
            lvl = replace(lvl, phi=phi, functional_index=index)
        assert virtual_state_space_dimension(lvl) == _dense_dimension(lvl)

    def test_state_space_dimension_seeded_ladder(self):
        # 1-4 leading entries, z0 on the unit circle, n in {160, 512}; every
        # fourth case forces j* into the tail band, where the count is 0
        rng = np.random.default_rng(2024)
        counts = [0, 0]
        for case in range(200):
            n = 512 if case % 10 == 3 else 160
            k = int(rng.integers(1, 5))
            values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            z0 = np.exp(2j * np.pi * rng.random())
            lvl = build_shift_virtual_level(z0, sequence(values, n=n))
            if case % 4 == 3:
                index = int(rng.integers(n - TAIL_BAND + 1, n + 1))
                phi = lvl.phi.copy()
                phi[index - 1] = rng.standard_normal() + 1j * rng.standard_normal()
                lvl = replace(lvl, phi=phi, functional_index=index)
            elif case % 4 == 2 and values[k - 1] != 0:
                lvl = replace(lvl, functional_index=k)
            dim = virtual_state_space_dimension(lvl)
            assert dim == _dense_dimension(lvl), case
            counts[dim] += 1
        assert counts == [50, 150]

    def test_state_space_dimension_memory_stays_linear(self):
        # the stacked n^2 complex matrix alone would be 268 MB at n = 4097
        lvl = build_shift_virtual_level(1j, sequence([1.0, 0.5, 0.25], n=4097))
        tracemalloc.start()
        try:
            dim = virtual_state_space_dimension(lvl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dim == 1
        assert peak < 5e6

    def test_short_sequences_raise_config_errors(self):
        with pytest.raises(ConfigError, match="n = 64 .* tail band of 64"):
            build_shift_virtual_level(1.0, sequence([1.0], n=64))
        with pytest.raises(ConfigError, match="3 leading entries .* n = 2"):
            sequence([1.0, 2.0, 3.0], n=2)
        for n in (0, -3):
            with pytest.raises(ConfigError, match=f"sequence length n = {n} must be positive"):
                sequence([1.0], n=n)
        lvl = build_shift_virtual_level(1.0, sequence([1.0], n=65))
        assert virtual_state_space_dimension(lvl) == 1

    def test_degenerate_functional(self):
        with pytest.raises(ConfigError, match="phi must be nonzero"):
            build_shift_virtual_level(1.0, sequence([0.0]))

    def test_truncation_stability(self):
        base = build_shift_virtual_level(1j, sequence([1, 0.5], n=512))
        double = build_shift_virtual_level(1j, sequence([1, 0.5], n=1024))
        assert abs(base.residual - double.residual) <= 1e-12
        assert np.max(np.abs(base.psi[:512] - double.psi[:512])) <= 1e-12


def test_truncated_matrix_structure():
    m = truncated_resolvent_matrix(2.0, 6)
    assert m[0, 0] == pytest.approx(-0.5)
    assert m[0, 1] == pytest.approx(-0.25)
    assert m[1, 0] == 0.0
    assert np.max(np.abs(m)) == pytest.approx(0.5)


def test_zero_operator_is_not_regularizable():
    for rank, exps in _zero_operator_exponents().items():
        for e in exps:
            assert e >= 0.9  # 1/|z| growth for every sampled finite-rank B
