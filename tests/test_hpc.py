"""Tests for state-space partitioning, parallel pre-computation and memory accounting."""

from __future__ import annotations

from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover import compress_objective
from repro.hilbert import DickeSpace, dicke_labels, state_matrix
from repro.hpc import (
    Chunk,
    chunk_labels,
    default_workers,
    evaluate_chunk,
    parallel_compress,
    parallel_imap_unordered,
    parallel_objective_values,
    split_dicke_space,
    split_full_space,
    split_range,
)
from repro.hpc.memory import (
    dense_unitary_bytes,
    eigendecomposition_bytes,
    measure_peak_allocation,
    rss_bytes,
    simulator_memory_estimate,
    statevector_bytes,
)
from repro.hpc.parallel import _compress_chunk
from repro.problems import erdos_renyi
from repro.problems.maxcut import maxcut_values


@pytest.fixture(scope="module")
def graph8():
    return erdos_renyi(8, 0.5, seed=20)


def _negated_weight_cost(bits, offset=0.0):
    """All-negative objective with several distinct values (picklable for pools)."""
    weights = np.arange(1, bits.shape[1] + 1, dtype=np.float64)
    return -(bits @ weights) - offset


class TestSplitRange:
    def test_covers_everything_disjointly(self):
        ranges = split_range(100, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        assert sum(b - a for a, b in ranges) == 100

    def test_balanced_sizes(self):
        sizes = [b - a for a, b in split_range(103, 10)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_items(self):
        ranges = split_range(3, 10)
        assert len(ranges) == 3

    def test_zero_total(self):
        assert split_range(0, 4) == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_range(-1, 2)
        with pytest.raises(ValueError):
            split_range(5, 0)

    @given(st.integers(min_value=0, max_value=10000), st.integers(min_value=1, max_value=64))
    @settings(max_examples=50)
    def test_property_partition(self, total, workers):
        ranges = split_range(total, workers)
        covered = sum(b - a for a, b in ranges)
        assert covered == total


class TestSpacePartitioning:
    def test_full_space_chunks(self):
        chunks = split_full_space(6, 4)
        assert sum(c.size for c in chunks) == 64
        labels = np.concatenate([chunk_labels(c, 6) for c in chunks])
        assert np.array_equal(labels, np.arange(64))

    def test_dicke_chunks_cover_subspace(self):
        n, k = 9, 4
        chunks = split_dicke_space(n, k, 5)
        assert sum(c.size for c in chunks) == comb(n, k)
        labels = np.concatenate([chunk_labels(c, n, k) for c in chunks])
        assert np.array_equal(labels, dicke_labels(n, k))

    def test_dicke_chunk_start_labels(self):
        chunks = split_dicke_space(8, 3, 3)
        labels = dicke_labels(8, 3)
        for chunk in chunks:
            if chunk.size:
                assert chunk.start_label == labels[chunk.start]

    def test_single_worker(self):
        chunks = split_dicke_space(6, 3, 1)
        assert len(chunks) == 1
        assert chunks[0].size == 20

    def test_chunk_labels_empty(self):
        empty = Chunk(index=0, start=5, stop=5)
        assert chunk_labels(empty, 6, 2).size == 0

    def test_chunk_labels_missing_start_label(self):
        with pytest.raises(ValueError):
            chunk_labels(Chunk(index=0, start=0, stop=3), 6, 2)


class TestParallelPrecompute:
    def test_serial_matches_direct(self, graph8):
        expected = maxcut_values(graph8, state_matrix(8))
        values = parallel_objective_values(partial(maxcut_values, graph8), 8, processes=1)
        assert np.allclose(values, expected)

    def test_multiprocess_matches_direct(self, graph8):
        expected = maxcut_values(graph8, state_matrix(8))
        values = parallel_objective_values(partial(maxcut_values, graph8), 8, processes=3)
        assert np.allclose(values, expected)

    def test_dicke_space_parallel(self, graph8):
        space = DickeSpace(8, 4)
        expected = maxcut_values(graph8, space.bits)
        values = parallel_objective_values(partial(maxcut_values, graph8), 8, k=4, processes=2)
        assert np.allclose(values, expected)

    def test_parallel_compress_matches_serial(self, graph8):
        expected = compress_objective(maxcut_values(graph8, state_matrix(8)))
        spec = parallel_compress(partial(maxcut_values, graph8), 8, processes=3)
        assert np.array_equal(spec.values, expected.values)
        assert spec.degeneracies == expected.degeneracies
        assert spec.total == expected.total

    def test_parallel_compress_dicke(self, graph8):
        space = DickeSpace(8, 3)
        expected = compress_objective(maxcut_values(graph8, space.bits))
        spec = parallel_compress(partial(maxcut_values, graph8), 8, k=3, processes=2)
        assert np.array_equal(spec.values, expected.values)
        assert spec.degeneracies == expected.degeneracies

    def test_evaluate_chunk(self, graph8):
        chunk = Chunk(index=0, start=10, stop=20)
        vals = evaluate_chunk(chunk, partial(maxcut_values, graph8), 8)
        expected = maxcut_values(graph8, state_matrix(8))[10:20]
        assert np.allclose(vals, expected)

    def test_compress_chunk_empty_is_none_not_phantom_state(self, graph8):
        # Regression: an empty chunk used to come back as a value-0.0
        # single-state "sentinel" spectrum that merge() folded in as real.
        empty = Chunk(index=0, start=7, stop=7)
        assert _compress_chunk(empty, partial(maxcut_values, graph8), 8) is None

    @pytest.mark.parametrize("processes", [7, 64])
    def test_parallel_compress_matches_serial_with_excess_processes(self, processes):
        # processes > number of feasible states is the regime that produces
        # empty chunks; the merged spectrum must still agree exactly with the
        # serial path — including for all-negative objectives, where the old
        # phantom 0.0 state became the reported optimum.
        n, k = 4, 2  # comb(4, 2) = 6 feasible states
        space = DickeSpace(n, k)
        cost = partial(_negated_weight_cost, offset=5.0)
        expected = compress_objective(cost(space.bits))
        spec = parallel_compress(cost, n, k=k, processes=processes)
        assert np.array_equal(spec.values, expected.values)
        assert spec.degeneracies == expected.degeneracies
        assert spec.total == expected.total == 6
        assert spec.optimum == expected.optimum < 0
        assert spec.mean() == pytest.approx(expected.mean())

    def test_parallel_objective_values_with_excess_processes(self, graph8):
        space = DickeSpace(8, 1)  # 8 states, far fewer than workers
        expected = maxcut_values(graph8, space.bits)
        values = parallel_objective_values(partial(maxcut_values, graph8), 8, k=1, processes=32)
        assert np.allclose(values, expected)

    def test_parallel_compress_empty_space_raises_cleanly(self, graph8):
        # comb(4, 5) = 0 feasible states: a clear ValueError mirroring the
        # CompressedObjective contract, not a bare IndexError on pieces[0].
        with pytest.raises(ValueError, match="at least one value"):
            parallel_compress(partial(maxcut_values, graph8), 4, k=5, processes=4)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_default_workers_invalid_env_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not a number")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert default_workers() >= 1


def _square(x):
    return x * x


class TestParallelImapUnordered:
    def test_serial_and_parallel_agree(self):
        items = list(range(7))
        expected = {i: i * i for i in items}
        assert dict(parallel_imap_unordered(_square, items, processes=1)) == expected
        assert dict(parallel_imap_unordered(_square, items, processes=3)) == expected

    def test_single_item_runs_inline(self):
        assert list(parallel_imap_unordered(_square, [3], processes=8)) == [(0, 9)]

    def test_empty(self):
        assert list(parallel_imap_unordered(_square, [], processes=4)) == []


class TestMemoryAccounting:
    def test_statevector_bytes(self):
        assert statevector_bytes(1 << 10) == (1 << 10) * 16
        with pytest.raises(ValueError):
            statevector_bytes(0)

    def test_eigendecomposition_bytes(self):
        dim = 100
        assert eigendecomposition_bytes(dim) == dim * dim * 8 + dim * 8
        assert eigendecomposition_bytes(dim, complex_vectors=True) == dim * dim * 16 + dim * 8

    def test_dense_unitary_dominates(self):
        n = 10
        assert dense_unitary_bytes(1 << n) > statevector_bytes(1 << n) * 100

    def test_simulator_memory_estimates_ordering(self):
        for n in (8, 12, 16):
            direct = simulator_memory_estimate(n, kind="direct")
            layer = simulator_memory_estimate(n, kind="layer")
            dense = simulator_memory_estimate(n, kind="dense")
            assert direct < layer <= dense

    def test_subspace_estimate_requires_dim(self):
        with pytest.raises(ValueError):
            simulator_memory_estimate(10, kind="direct_subspace")
        est = simulator_memory_estimate(10, kind="direct_subspace", subspace_dim=252)
        assert est > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            simulator_memory_estimate(8, kind="quantum")

    def test_measure_peak_allocation(self):
        result, peak = measure_peak_allocation(lambda: np.zeros(200_000))
        assert result.shape == (200_000,)
        assert peak >= 200_000 * 8

    def test_rss_bytes_nonnegative(self):
        assert rss_bytes() >= 0


class TestChunkLabelSeams:
    """The Gosper-walk / ``unrank_state`` seam at Dicke chunk boundaries.

    ``chunk_labels`` walks each chunk with Gosper's hack starting from the
    chunk's ``unrank_state``-derived ``start_label``; the two mechanisms must
    agree exactly where chunks meet, or a sharded Dicke evolution would
    silently duplicate or skip states at every boundary.
    """

    @pytest.mark.parametrize(
        "n,k,workers",
        [
            (6, 3, 4),
            (8, 4, 3),
            (9, 2, 5),
            (10, 5, 7),
            (7, 1, 2),
            (7, 6, 2),
            (5, 0, 3),  # single-state subspace, k = 0
            (5, 5, 3),  # single-state subspace, k = n
        ],
    )
    def test_boundary_successors(self, n, k, workers):
        from repro.hilbert.bitops import gosper_next

        chunks = split_dicke_space(n, k, workers)
        labels_per_chunk = [chunk_labels(chunk, n, k) for chunk in chunks]
        # First label of chunk i+1 is the Gosper successor of the last label
        # of chunk i.
        for left, right in zip(labels_per_chunk, labels_per_chunk[1:]):
            assert right[0] == gosper_next(int(left[-1]))
        # And the concatenation is exactly the sorted weight-k subspace.
        joined = np.concatenate(labels_per_chunk)
        assert joined.size == comb(n, k)
        assert np.all(np.diff(joined) > 0)
        bits = np.array([bin(int(x)).count("1") for x in joined])
        assert np.all(bits == k)

    def test_start_labels_match_unrank(self):
        from repro.hilbert import unrank_state

        for n, k, workers in [(8, 3, 4), (9, 4, 6)]:
            chunks = split_dicke_space(n, k, workers)
            for chunk in chunks:
                assert chunk.start_label == unrank_state(chunk.start, n, k)


class TestShardedStateBytes:
    def test_matches_manual_accounting(self):
        from repro.hpc.memory import sharded_state_bytes

        # 2^20 states over 4 shards, batch 1, two buffers: each worker maps
        # 2^18 * (2*16) bytes of state plus 2^18 * 8 bytes of values.
        assert sharded_state_bytes(1 << 20, 4) == (1 << 18) * (2 * 16 + 8)
        # Gradient adds the third buffer.
        assert sharded_state_bytes(1 << 20, 4, slots=3) == (1 << 18) * (3 * 16 + 8)
        # Uneven splits size by the largest chunk.
        assert sharded_state_bytes(10, 3) == 4 * (2 * 16 + 8)

    def test_scaling_beats_dense_estimate(self):
        from repro.hpc.memory import sharded_state_bytes

        n = 26
        dense = simulator_memory_estimate(n)
        per_worker = sharded_state_bytes(1 << n, 4, slots=3)
        assert per_worker < 0.75 * dense

    def test_validation(self):
        from repro.hpc.memory import sharded_state_bytes

        with pytest.raises(ValueError):
            sharded_state_bytes(0, 2)
        with pytest.raises(ValueError):
            sharded_state_bytes(16, 0)
        with pytest.raises(ValueError):
            sharded_state_bytes(4, 8)
        with pytest.raises(ValueError):
            sharded_state_bytes(16, 2, batch=0)
        with pytest.raises(ValueError):
            sharded_state_bytes(16, 2, slots=0)


class TestWarmEntryBytesKinds:
    def test_dense_unchanged(self):
        from repro.hpc.memory import warm_entry_bytes

        dim = 1 << 8
        base = warm_entry_bytes(dim, p=2)
        # one (dim, 1) workspace: state/scratch/phase + aux + 2x2 layer slots
        assert base == dim * 8 + (3 + 1 + 2 * 2) * dim * 16
        assert warm_entry_bytes(dim, p=2, batch_capacity=1) == base
        assert warm_entry_bytes(dim, p=2, batch_capacity=4) == dim * 8 + 8 * 4 * dim * 16
        assert warm_entry_bytes(dim, p=2, kind="dense") == base

    def test_sharded_accounts_all_workers(self):
        from repro.hpc.memory import sharded_state_bytes, warm_entry_bytes

        dim, shards, p = 1 << 12, 4, 2
        total = warm_entry_bytes(dim, p=p, kind="sharded", shards=shards)
        per_worker = sharded_state_bytes(dim, shards, slots=3)
        layers = p * 2 * (dim // shards) * 16
        assert total == shards * (per_worker + layers)

    def test_compressed_is_tiny(self):
        from repro.hpc.memory import warm_entry_bytes

        small = warm_entry_bytes(1 << 10, p=3, kind="compressed", distinct=51)
        dense = warm_entry_bytes(1 << 10, p=3)
        assert small < dense / 10
        # Sizing never touches dim, so astronomically large dims work.
        huge = warm_entry_bytes(1 << 100, p=3, kind="compressed", distinct=51)
        assert huge == small

    def test_unsizable_entries_raise(self):
        from repro.hpc.memory import warm_entry_bytes

        with pytest.raises(ValueError, match="shard count"):
            warm_entry_bytes(1 << 12, kind="sharded")
        with pytest.raises(ValueError, match="distinct"):
            warm_entry_bytes(1 << 12, kind="compressed")
        with pytest.raises(ValueError, match="cannot size"):
            warm_entry_bytes(1 << 12, kind="gpu_resident")

    def test_peak_rss(self):
        from repro.hpc.memory import peak_rss_bytes

        assert peak_rss_bytes() >= rss_bytes() > 0
