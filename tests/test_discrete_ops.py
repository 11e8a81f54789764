"""Left-shift resolvent, boundary values, manufactured virtual levels."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from virtlev.discrete_ops import (
    SeqVector,
    build_shift_virtual_level,
    shift_boundary_value,
    shift_resolvent_apply,
    truncated_resolvent_matrix,
    virtual_state_space_dimension,
    zero_operator_rank_probe,
)
from virtlev.errors import ConfigError, DegenerateFunctional, OutsideResolventSet


def _dense_dimension(lvl, sv_tol=1e-8):
    """Oracle: the SVD count of the stacked operator rows and tail block."""
    n, m = lvl.psi.entries.size, lvl.tail_band
    j, phi = lvl.functional_index - 1, lvl.phi.entries
    shifted = np.eye(n, k=1, dtype=complex) - lvl.z0 * np.eye(n)
    a_mat = (shifted - np.outer(phi, shifted[j] / phi[j]))[: n - m]
    tail_block = np.zeros((m, n), dtype=complex)
    tail_block[:, n - m:] = np.eye(m)
    sv = np.linalg.svd(np.vstack([a_mat, tail_block]), compute_uv=False)
    return int(np.sum(sv <= sv_tol * sv[0]))


def test_seqvector_validation():
    with pytest.raises(ValueError):
        SeqVector(np.array([1.0]), "l7")
    with pytest.raises(ValueError):
        SeqVector(np.array([1.0]), "l1", tail=1e-6)  # tail bound too lax
    v = SeqVector.from_values([1, 2], n=8, flavor="l1")
    assert v.norm() == 3.0


def test_basis_resolvent_single_term():
    y = shift_resolvent_apply(SeqVector.basis(1), 2.0)
    assert y.entries[0] == pytest.approx(-0.5)
    assert np.max(np.abs(y.entries[1:])) == 0.0


def test_geometric_sequence_closed_form():
    n = 512
    x = SeqVector(np.array([2.0 ** -(j + 1) for j in range(n)]), "l1",
                  tail=min(2.0 ** -(n + 1), 1e-13))
    y = shift_resolvent_apply(x, 2.0)
    expected = -(2.0 / 3.0) * np.array([2.0 ** -(i + 1) for i in range(12)])
    assert np.max(np.abs(y.entries[:12] - expected)) < 1e-15


def test_uniform_l1_linf_bound():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = SeqVector(rng.standard_normal(48) + 1j * rng.standard_normal(48), "l2")
        z = (1.0 + 9.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        y = shift_resolvent_apply(x, z)
        assert np.max(np.abs(y.entries)) <= np.sum(np.abs(x.entries)) * (1 + 1e-12)


def test_resolvent_identity_exact():
    rng = np.random.default_rng(13)
    x = SeqVector(rng.standard_normal(64) + 1j * rng.standard_normal(64), "l2")
    z = 1.3 - 0.8j
    y = shift_resolvent_apply(x, z)
    lv = np.zeros_like(y.entries)
    lv[:-1] = y.entries[1:]
    resid = lv - z * y.entries - x.entries
    assert np.max(np.abs(resid[:-1])) < 1e-13


def test_outside_resolvent_set():
    with pytest.raises(OutsideResolventSet):
        shift_resolvent_apply(SeqVector.basis(1), 0.5)
    with pytest.raises(OutsideResolventSet):
        truncated_resolvent_matrix(1.0, 16)


class TestBoundaryValue:
    def test_basis_values(self):
        y = shift_boundary_value(SeqVector.basis(1), 1.0)
        assert y.entries[0] == pytest.approx(-1.0)
        yi = shift_boundary_value(SeqVector.basis(1), 1j)
        assert yi.entries[0] == pytest.approx(1j)  # -1/z0 = -conj(z0)

    def test_linearity(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        z0 = np.exp(0.3j)
        ya = shift_boundary_value(SeqVector.from_values(a, n=64), z0)
        yb = shift_boundary_value(SeqVector.from_values(b, n=64), z0)
        yab = shift_boundary_value(SeqVector.from_values(a + b, n=64), z0)
        assert np.max(np.abs(yab.entries - ya.entries - yb.entries)) < 1e-12

    def test_agrees_with_near_circle_resolvent(self):
        rng = np.random.default_rng(15)
        x = SeqVector.from_values(rng.standard_normal(32), n=256)
        z0 = np.exp(1j * np.pi / 3)
        y0 = shift_boundary_value(x, z0)
        y_eps = shift_resolvent_apply(x, (1 + 1e-6) * z0)
        dev = np.max(np.abs(y0.entries - y_eps.entries))
        assert dev <= 1e-4 * max(1.0, x.norm())

    def test_requires_unit_circle(self):
        with pytest.raises(ValueError):
            shift_boundary_value(SeqVector.basis(1), 1.1)


class TestVirtualLevel:
    def test_hand_computable_chain(self):
        lvl = build_shift_virtual_level(1.0, SeqVector.basis(1))
        assert lvl.psi.entries[0] == pytest.approx(-1.0)
        assert np.max(np.abs(lvl.psi.entries[1:])) == 0.0
        assert lvl.residual <= 1e-12

    @pytest.mark.parametrize("z0", [1.0, 1j, np.exp(1j * np.pi / 4)])
    @pytest.mark.parametrize("support", [(1.0,), (1.0, 0.5, 0.25),
                                         (0.3 - 0.2j, 0.0, 0.7j)])
    def test_residuals(self, z0, support):
        lvl = build_shift_virtual_level(z0, SeqVector.from_values(support))
        assert lvl.residual <= 1e-10

    def test_state_space_is_one_dimensional(self):
        lvl = build_shift_virtual_level(1j, SeqVector.from_values([1.0, 0.5, 0.25]))
        assert virtual_state_space_dimension(lvl) == 1

    @pytest.mark.parametrize("z0,values,index", [
        (1j, [1.0, 0.5, 0.25], None),
        (np.exp(0.25j * np.pi), [0.0, 2.0, 1.0], None),
        (-1.0, [0.3, -2.0, 1j, 4.0], 2),
    ])
    def test_state_space_dimension_matches_operator_columns(self, z0, values, index):
        lvl = build_shift_virtual_level(z0, SeqVector.from_values(values, n=160),
                                        functional_index=index)
        n, m = 160, lvl.tail_band
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
        lvl = build_shift_virtual_level(z0, SeqVector.from_values(values, n=512))
        if index is not None:  # the count reads z0, phi, j* and the tail band only
            phi = lvl.phi.entries.copy()
            phi[index - 1] = phi[index - 1] or 0.5
            lvl = replace(lvl, phi=SeqVector(phi), functional_index=index)
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
            lvl = build_shift_virtual_level(z0, SeqVector.from_values(values, n=n))
            if case % 4 == 3:
                index = int(rng.integers(n - lvl.tail_band + 1, n + 1))
                phi = lvl.phi.entries.copy()
                phi[index - 1] = rng.standard_normal() + 1j * rng.standard_normal()
                lvl = replace(lvl, phi=SeqVector(phi), functional_index=index)
            elif case % 4 == 2 and values[k - 1] != 0:
                lvl = replace(lvl, functional_index=k)
            dim = virtual_state_space_dimension(lvl)
            assert dim == _dense_dimension(lvl), case
            counts[dim] += 1
        assert counts == [50, 150]

    def test_state_space_dimension_memory_stays_linear(self):
        # the stacked n^2 complex matrix alone would be 268 MB at n = 4097
        lvl = build_shift_virtual_level(1j, SeqVector.from_values([1.0, 0.5, 0.25], n=4097))
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
            build_shift_virtual_level(1.0, SeqVector.from_values([1.0], n=64))
        with pytest.raises(ConfigError, match="3 leading entries .* n = 2"):
            SeqVector.from_values([1.0, 2.0, 3.0], n=2)
        for n in (0, -3):
            with pytest.raises(ConfigError, match=f"sequence length n = {n} must be positive"):
                SeqVector.from_values([1.0], n=n)
        lvl = build_shift_virtual_level(1.0, SeqVector.from_values([1.0], n=65))
        assert virtual_state_space_dimension(lvl) == 1

    def test_degenerate_functional(self):
        with pytest.raises(DegenerateFunctional):
            build_shift_virtual_level(1.0, SeqVector.from_values([1.0, 0.0]),
                                      functional_index=2)
        with pytest.raises(DegenerateFunctional):
            build_shift_virtual_level(1.0, SeqVector.from_values([0.0]))

    def test_truncation_stability(self):
        base = build_shift_virtual_level(1j, SeqVector.from_values([1, 0.5], n=512))
        double = build_shift_virtual_level(1j, SeqVector.from_values([1, 0.5], n=1024))
        assert abs(base.residual - double.residual) <= 1e-12
        assert np.max(np.abs(base.psi.entries[:512] - double.psi.entries[:512])) <= 1e-12


def test_truncated_matrix_structure():
    m = truncated_resolvent_matrix(2.0, 6)
    assert m[0, 0] == pytest.approx(-0.5)
    assert m[0, 1] == pytest.approx(-0.25)
    assert m[1, 0] == 0.0
    assert np.max(np.abs(m)) == pytest.approx(0.5)


def test_zero_operator_is_not_regularizable():
    probe = zero_operator_rank_probe(dim=16, ranks=(1, 2, 3), trials=2, seed=0)
    for rank, exps in probe.items():
        for e in exps:
            assert e >= 0.9  # 1/|z| growth for every sampled finite-rank B


@pytest.mark.parametrize("radii", [(), (1e-2,)])
def test_rank_probe_needs_two_radii(radii):
    # only None selects the default ladder
    with pytest.raises(ConfigError, match="at least 2 radii"):
        zero_operator_rank_probe(dim=4, ranks=(1,), trials=1, radii=radii)
