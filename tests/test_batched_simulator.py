"""Batched-vs-scalar equivalence for the batched evaluation engine.

The batched engine evolves M angle sets as the columns of one ``(dim, M)``
matrix; these tests pin it to the scalar one-statevector-at-a-time path across
every mixer family, round count, feasible space, batch size (including M = 1)
and non-uniform initial states — plus the allocation and caching guarantees
the hot path claims.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    BatchedWorkspace,
    QAOAAnsatz,
    expectation_value,
    expectation_value_batch,
    simulate,
    simulate_batch,
)
from repro.hilbert import state_matrix
from repro.mixers import (
    MultiAngleXMixer,
    grover_mixer,
    grover_mixer_dicke,
    mixer_clique,
    mixer_ring,
    transverse_field_mixer,
)
from repro.mixers.base import real_gemm
from repro.mixers.unitary import FixedUnitaryMixer, HermitianMixer
from repro.problems import erdos_renyi, maxcut_values

_N = 6
_K = 3


def _objective(dim: int, seed: int = 11) -> np.ndarray:
    return np.random.default_rng(seed).random(dim)


def _mixer(kind: str):
    if kind == "x":
        return transverse_field_mixer(_N)
    if kind == "grover-full":
        return grover_mixer(_N)
    if kind == "grover-dicke":
        return grover_mixer_dicke(_N, _K)
    if kind == "clique":
        return mixer_clique(_N, _K)
    if kind == "ring":
        return mixer_ring(_N, _K)
    if kind == "hermitian":
        rng = np.random.default_rng(3)
        mat = rng.random((16, 16)) + 1j * rng.random((16, 16))
        return HermitianMixer(mat + mat.conj().T)
    raise ValueError(kind)


_ALL_KINDS = ["x", "grover-full", "grover-dicke", "clique", "ring", "hermitian"]


@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("batch", [1, 7])
def test_expectation_batch_matches_scalar_loop(kind, p, batch):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim)
    rng = np.random.default_rng(100 * p + batch)
    angles = 2.0 * np.pi * rng.random((batch, 2 * p))
    batched = expectation_value_batch(angles, mixer, obj, p=p)
    looped = np.array([expectation_value(angles[j], mixer, obj, p=p) for j in range(batch)])
    assert batched.shape == (batch,)
    assert np.abs(batched - looped).max() <= 1e-10


@pytest.mark.parametrize("kind", _ALL_KINDS)
@pytest.mark.parametrize("p", [1, 3])
def test_simulate_batch_statevectors_match(kind, p):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim, seed=7)
    rng = np.random.default_rng(p)
    angles = 2.0 * np.pi * rng.random((5, 2 * p))
    results = simulate_batch(angles, mixer, obj, p=p)
    assert len(results) == 5
    for j, result in enumerate(results):
        scalar = simulate(angles[j], mixer, obj, p=p)
        assert np.abs(result.statevector - scalar.statevector).max() <= 1e-12
        assert result.p == p
        assert np.isclose(result.expectation(), scalar.expectation(), atol=1e-12)


@pytest.mark.parametrize("kind", ["x", "grover-dicke", "clique"])
def test_non_uniform_initial_state(kind):
    mixer = _mixer(kind)
    obj = _objective(mixer.dim, seed=21)
    rng = np.random.default_rng(5)
    init = rng.random(mixer.dim) + 1j * rng.random(mixer.dim)
    init /= np.linalg.norm(init)
    angles = 2.0 * np.pi * rng.random((4, 4))
    batched = expectation_value_batch(angles, mixer, obj, p=2, initial_state=init)
    looped = np.array(
        [
            expectation_value(angles[j], mixer, obj, p=2, initial_state=init)
            for j in range(4)
        ]
    )
    assert np.abs(batched - looped).max() <= 1e-10


def test_per_column_initial_states():
    mixer = transverse_field_mixer(_N)
    obj = _objective(mixer.dim, seed=9)
    rng = np.random.default_rng(8)
    inits = rng.random((mixer.dim, 3)) + 1j * rng.random((mixer.dim, 3))
    inits /= np.linalg.norm(inits, axis=0, keepdims=True)
    angles = 2.0 * np.pi * rng.random((3, 2))
    batched = expectation_value_batch(angles, mixer, obj, p=1, initial_state=inits)
    looped = np.array(
        [
            expectation_value(angles[j], mixer, obj, p=1, initial_state=inits[:, j].copy())
            for j in range(3)
        ]
    )
    assert np.abs(batched - looped).max() <= 1e-10


def test_multiangle_batched_equivalence():
    mixer = MultiAngleXMixer(4, [(0,), (1,), (2,), (3,)])
    obj = maxcut_values(erdos_renyi(4, 0.6, seed=2), state_matrix(4))
    p = 2
    num_angles = mixer.num_angles * p + p
    rng = np.random.default_rng(4)
    angles = 2.0 * np.pi * rng.random((6, num_angles))
    batched = expectation_value_batch(angles, mixer, obj, p=p)
    looped = np.array([expectation_value(angles[j], mixer, obj, p=p) for j in range(6)])
    assert np.abs(batched - looped).max() <= 1e-10


def test_fixed_unitary_beta_one_fast_path():
    rng = np.random.default_rng(12)
    mat = rng.random((8, 8)) + 1j * rng.random((8, 8))
    herm = mat + mat.conj().T
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    unitary = (eigenvectors * np.exp(-1j * eigenvalues)) @ eigenvectors.conj().T
    mixer = FixedUnitaryMixer(unitary)
    psi = rng.random((8, 5)) + 1j * rng.random((8, 5))
    psi /= np.linalg.norm(psi, axis=0, keepdims=True)
    # beta = 1 must reproduce U @ psi exactly (single-GEMM fast path)
    out = mixer.apply_batch(psi.copy(), np.ones(5))
    assert np.abs(out - unitary @ psi).max() <= 1e-12
    # mixed angles fall back to the eigenbasis path and match the scalar apply
    betas = rng.random(5)
    out = mixer.apply_batch(psi.copy(), betas)
    for j in range(5):
        assert np.abs(out[:, j] - mixer.apply(psi[:, j].copy(), betas[j])).max() <= 1e-12


def test_apply_batch_out_aliases_input():
    mixer = mixer_clique(_N, _K)
    rng = np.random.default_rng(2)
    psi = rng.random((mixer.dim, 4)) + 1j * rng.random((mixer.dim, 4))
    betas = rng.random(4)
    expected = mixer.apply_batch(psi.copy(), betas)
    inplace = np.ascontiguousarray(psi)
    mixer.apply_batch(inplace, betas, out=inplace)
    assert np.abs(inplace - expected).max() <= 1e-12


def test_uniform_beta_batch_fast_path():
    mixer = mixer_ring(_N, _K)
    rng = np.random.default_rng(6)
    psi = rng.random((mixer.dim, 5)) + 1j * rng.random((mixer.dim, 5))
    uniform = mixer.apply_batch(psi.copy(), np.full(5, 0.37))
    general = mixer.apply_batch(psi.copy(), np.array([0.37, 0.37, 0.37, 0.37, 0.37 + 1e-16]))
    for j in range(5):
        scalar = mixer.apply(np.ascontiguousarray(psi[:, j]), 0.37)
        assert np.abs(uniform[:, j] - scalar).max() <= 1e-12
    assert np.abs(uniform - general).max() <= 1e-12


class TestBatchedWorkspace:
    def test_views_are_contiguous_and_grow_only(self):
        ws = BatchedWorkspace(10, 4)
        assert ws.capacity == 4
        state = ws.state(3)
        assert state.shape == (10, 3)
        assert state.flags.c_contiguous
        ws.ensure(2)
        assert ws.capacity == 4  # never shrinks
        grown = ws.state(9)
        assert ws.capacity == 9
        assert grown.shape == (10, 9)

    def test_load_states_broadcast_and_matrix(self):
        ws = BatchedWorkspace(4, 2)
        single = np.arange(4, dtype=np.complex128)
        states = ws.load_states(single, 2)
        assert np.array_equal(states[:, 0], single)
        assert np.array_equal(states[:, 1], single)
        matrix = np.arange(8, dtype=np.complex128).reshape(4, 2)
        states = ws.load_states(matrix, 2)
        assert np.array_equal(states, matrix)
        with pytest.raises(ValueError):
            ws.load_states(np.zeros(3), 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BatchedWorkspace(0)
        with pytest.raises(ValueError):
            BatchedWorkspace(4).ensure(0)
        assert not BatchedWorkspace(4).compatible_with(5)


class TestDiagonalizedAllocationFree:
    """The satellite fix: DiagonalizedMixer.apply must allocate nothing when
    given an ``out`` buffer (the module's "allocate nothing" claim)."""

    def test_apply_zero_allocation_growth(self):
        mixer = mixer_clique(8, 4)  # dim = 70, real eigenbasis
        psi = mixer.initial_state()
        out = np.empty_like(psi)
        for _ in range(5):
            mixer.apply(psi, 0.3, out=out)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                mixer.apply(psi, 0.3, out=out)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < mixer.dim * 16, f"apply grew the heap by {growth} bytes"
        assert mixer.apply(psi, 0.3, out=out) is out
        assert np.abs(out - mixer.apply(psi, 0.3)).max() <= 1e-12


def test_real_gemm_matches_complex_product():
    rng = np.random.default_rng(7)
    factor = rng.standard_normal((6, 6))
    src = np.ascontiguousarray(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    out = np.empty((6, 3), dtype=np.complex128)
    real_gemm(factor, src, out)
    np.testing.assert_allclose(out, factor @ src, rtol=0, atol=1e-12)


def test_sample_caches_normalized_probabilities():
    mixer = transverse_field_mixer(4)
    obj = _objective(16, seed=2)
    result = simulate(np.array([0.3, 0.9]), mixer, obj, p=1)
    assert "probs_normalized" not in result._cache
    first = result.sample(50, rng=0)
    assert "probs_normalized" in result._cache
    cached = result._cache["probs_normalized"]
    second = result.sample(50, rng=0)
    assert result._cache["probs_normalized"] is cached
    assert np.array_equal(first, second)
    assert np.isclose(cached.sum(), 1.0)


def test_ansatz_expectation_batch_reuses_workspace():
    obj = _objective(2**_N, seed=13)
    ansatz = QAOAAnsatz(obj, transverse_field_mixer(_N), 2)
    rng = np.random.default_rng(1)
    first = ansatz.expectation_batch(2.0 * np.pi * rng.random((8, 4)))
    ws = ansatz.workspace
    assert ws.capacity == 8
    ansatz.expectation_batch(2.0 * np.pi * rng.random((3, 4)))
    assert ansatz.workspace is ws and ws.capacity == 8
    assert ansatz.counter.forward_passes == 11
    assert first.shape == (8,)
