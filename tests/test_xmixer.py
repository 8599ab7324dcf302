"""Tests for Pauli-X product mixers and the Walsh–Hadamard transform."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert import uniform_superposition
from repro.mixers.xmixer import (
    MultiAngleXMixer,
    XMixer,
    _hadamard_factors,
    mixer_x,
    transverse_field_mixer,
    walsh_hadamard_gemm,
    walsh_hadamard_transform,
    x_term_diagonal,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _kron_x_term(term, n):
    """Dense matrix of prod_{i in term} X_i on n qubits (qubit 0 = LSB)."""
    mat = np.eye(1)
    for qubit in range(n - 1, -1, -1):
        mat = np.kron(mat, _X if qubit in term else np.eye(2))
    return mat


def _dense_x_mixer(terms, coeffs, n):
    total = np.zeros((1 << n, 1 << n))
    for term, c in zip(terms, coeffs):
        total += c * _kron_x_term(term, n)
    return total


class TestWalshHadamard:
    def test_matches_dense_hadamard(self, rng):
        n = 5
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        Hn = np.eye(1)
        for _ in range(n):
            Hn = np.kron(Hn, H)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        assert np.allclose(walsh_hadamard_transform(psi), Hn @ psi)

    def test_involution(self, rng):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.allclose(walsh_hadamard_transform(walsh_hadamard_transform(psi)), psi)

    def test_unitarity(self, rng):
        psi = rng.normal(size=128) + 1j * rng.normal(size=128)
        assert np.isclose(np.linalg.norm(walsh_hadamard_transform(psi)), np.linalg.norm(psi))

    def test_zero_state_maps_to_uniform(self):
        psi = np.zeros(32, dtype=complex)
        psi[0] = 1.0
        assert np.allclose(walsh_hadamard_transform(psi), uniform_superposition(5))

    def test_out_buffer_and_aliasing(self, rng):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = walsh_hadamard_transform(psi)
        buffer = np.empty(16, dtype=complex)
        returned = walsh_hadamard_transform(psi, out=buffer)
        assert returned is buffer
        assert np.allclose(buffer, expected)
        # In-place (out aliases input).
        copy = psi.copy()
        walsh_hadamard_transform(copy, out=copy)
        assert np.allclose(copy, expected)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard_transform(np.zeros(6))

    def test_wht_gemm_matches_butterfly(self):
        rng = np.random.default_rng(7)
        n = 6
        dim = 1 << n
        src = np.ascontiguousarray(
            rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        )
        via = np.empty_like(src)
        dst = np.empty_like(src)
        h_hi, h_lo = _hadamard_factors(n)
        walsh_hadamard_gemm(src, via, dst, h_hi, h_lo)
        expected = walsh_hadamard_transform(src) * (2.0 ** (n / 2.0))  # unnormalized
        np.testing.assert_allclose(dst, expected, rtol=0, atol=1e-10)


class TestXTermDiagonal:
    def test_transverse_field_diagonal(self):
        n = 4
        diag = x_term_diagonal([(i,) for i in range(n)], [1.0] * n, n)
        # In the Hadamard basis, sum_i X_i has eigenvalue n - 2*popcount(x).
        labels = np.arange(1 << n)
        expected = n - 2 * np.array([bin(x).count("1") for x in labels])
        assert np.allclose(diag, expected)

    def test_rejects_bad_qubits(self):
        with pytest.raises(ValueError):
            x_term_diagonal([(5,)], [1.0], 3)
        with pytest.raises(ValueError):
            x_term_diagonal([(1, 1)], [1.0], 3)


class TestXMixer:
    @pytest.mark.parametrize(
        "terms",
        [
            [(0,), (1,), (2,), (3,)],
            [(0, 1), (2, 3)],
            [(0,), (1, 2), (0, 1, 2, 3)],
        ],
    )
    def test_apply_matches_dense_expm(self, terms, rng):
        n = 4
        coeffs = [1.0] * len(terms)
        mixer = XMixer(n, terms, coeffs)
        dense = _dense_x_mixer(terms, coeffs, n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        beta = 0.731
        assert np.allclose(mixer.apply(psi, beta), sla.expm(-1j * beta * dense) @ psi)

    def test_matrix_matches_dense_sum(self):
        n = 3
        terms = [(0,), (1,), (0, 2)]
        mixer = XMixer(n, terms)
        assert np.allclose(mixer.matrix(), _dense_x_mixer(terms, [1.0] * 3, n))

    def test_apply_hamiltonian_matches_matrix(self, rng):
        mixer = transverse_field_mixer(5)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(mixer.apply_hamiltonian(psi), mixer.matrix() @ psi)

    def test_unitarity_and_zero_angle(self, rng):
        mixer = transverse_field_mixer(6)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        assert np.isclose(np.linalg.norm(mixer.apply(psi, 0.9)), 1.0)
        assert np.allclose(mixer.apply(psi, 0.0), psi)

    def test_apply_does_not_modify_input(self, rng):
        mixer = transverse_field_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        original = psi.copy()
        mixer.apply(psi, 0.5)
        assert np.array_equal(psi, original)

    def test_apply_out_aliasing(self, rng):
        mixer = transverse_field_mixer(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = mixer.apply(psi, 0.3)
        mixer.apply(psi, 0.3, out=psi)
        assert np.allclose(psi, expected)

    def test_initial_state_is_eigenstate(self):
        # |+>^n is the top eigenstate of sum_i X_i: mixing leaves it unchanged
        # up to a global phase.
        mixer = transverse_field_mixer(5)
        psi = mixer.initial_state()
        evolved = mixer.apply(psi, 0.77)
        overlap = np.abs(np.vdot(psi, evolved))
        assert np.isclose(overlap, 1.0)

    def test_coefficients_validation(self):
        with pytest.raises(ValueError):
            XMixer(3, [(0,)], [1.0, 2.0])
        with pytest.raises(ValueError):
            XMixer(3, [])

    def test_mixer_x_orders(self):
        mixer = mixer_x([1], 4)
        assert len(mixer.terms) == 4
        mixer2 = mixer_x([1, 2], 4)
        assert len(mixer2.terms) == 4 + 6
        with pytest.raises(ValueError):
            mixer_x([5], 4)
        with pytest.raises(ValueError):
            mixer_x([], 4)
        with pytest.raises(ValueError):
            mixer_x([1, 2], 4, coefficients=[1.0])

    def test_mixer_x_weighted_orders(self):
        mixer = mixer_x([1, 2], 3, coefficients=[2.0, 0.5])
        dense = _dense_x_mixer(mixer.terms, mixer.coefficients, 3)
        assert np.allclose(mixer.matrix(), dense)


class TestMultiAngleXMixer:
    def test_matches_product_of_single_terms(self, rng):
        n = 3
        terms = [(0,), (1,), (2,)]
        mixer = MultiAngleXMixer(n, terms)
        betas = rng.random(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        expected = psi.copy()
        for term, beta in zip(terms, betas):
            expected = sla.expm(-1j * beta * _kron_x_term(term, n)) @ expected
        assert np.allclose(mixer.apply(psi, betas), expected)

    def test_equal_angles_match_plain_mixer(self, rng):
        n = 4
        mixer_ma = MultiAngleXMixer(n, [(i,) for i in range(n)])
        mixer_plain = transverse_field_mixer(n)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        beta = 0.42
        assert np.allclose(mixer_ma.apply(psi, np.full(n, beta)), mixer_plain.apply(psi, beta))
        # Scalar broadcast also works.
        assert np.allclose(mixer_ma.apply(psi, beta), mixer_plain.apply(psi, beta))

    def test_wrong_angle_count_rejected(self):
        mixer = MultiAngleXMixer(3, [(0,), (1,)])
        with pytest.raises(ValueError):
            mixer.apply(np.zeros(8, dtype=complex), np.zeros(3))

    def test_hamiltonian_terms(self, rng):
        n = 3
        terms = [(0, 1), (2,)]
        mixer = MultiAngleXMixer(n, terms)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        for t, term in enumerate(terms):
            assert np.allclose(mixer.apply_hamiltonian_term(psi, t), _kron_x_term(term, n) @ psi)
        assert np.allclose(mixer.apply_hamiltonian(psi), mixer.matrix() @ psi)

    def test_num_angles(self):
        assert MultiAngleXMixer(4, [(0,), (1,), (2, 3)]).num_angles == 3


@given(st.integers(min_value=2, max_value=7), st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_property_transverse_field_unitary(n, beta):
    mixer = transverse_field_mixer(n)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    out = mixer.apply(psi, beta)
    assert np.isclose(np.linalg.norm(out), 1.0, atol=1e-10)
    # Applying the inverse angle undoes the evolution.
    assert np.allclose(mixer.apply(out, -beta), psi, atol=1e-10)
