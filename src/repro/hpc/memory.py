"""Memory accounting helpers.

Figure 4a of the paper reports both CPU time and *memory usage* as a function
of qubit count for the different simulators.  These helpers provide the two
measurements the benchmark harness uses:

* analytic estimates (:func:`statevector_bytes`, :func:`eigendecomposition_bytes`,
  :func:`simulator_memory_estimate`) — deterministic, hardware-independent,
  and exactly what distinguishes the direct simulator (a handful of length-2^n
  vectors) from a dense-unitary circuit simulator (2^n x 2^n matrices);
* measured peaks (:func:`measure_peak_allocation`) via :mod:`tracemalloc`, and
  the process RSS (:func:`rss_bytes`) for end-to-end numbers.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable

__all__ = [
    "statevector_bytes",
    "eigendecomposition_bytes",
    "dense_unitary_bytes",
    "simulator_memory_estimate",
    "sharded_state_bytes",
    "warm_entry_bytes",
    "measure_peak_allocation",
    "rss_bytes",
    "peak_rss_bytes",
]

_COMPLEX_BYTES = 16  # numpy complex128
_FLOAT_BYTES = 8  # numpy float64


def statevector_bytes(dim: int) -> int:
    """Bytes of one complex128 statevector of dimension ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return dim * _COMPLEX_BYTES


def eigendecomposition_bytes(dim: int, complex_vectors: bool = False) -> int:
    """Bytes of a cached mixer eigendecomposition (``V`` plus its eigenvalues)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    per_entry = _COMPLEX_BYTES if complex_vectors else _FLOAT_BYTES
    return dim * dim * per_entry + dim * _FLOAT_BYTES


def dense_unitary_bytes(dim: int) -> int:
    """Bytes of one dense complex unitary of dimension ``dim`` (circuit-baseline cost)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return dim * dim * _COMPLEX_BYTES


def simulator_memory_estimate(
    n: int,
    *,
    kind: str = "direct",
    subspace_dim: int | None = None,
) -> int:
    """Rough working-set estimate (bytes) for one QAOA simulation.

    ``kind`` is one of:

    * ``"direct"`` — this package's unconstrained path: statevector + scratch +
      objective values + mixer diagonal,
    * ``"direct_subspace"`` — the constrained path: subspace vectors plus the
      dense ``V`` of the mixer eigendecomposition,
    * ``"layer"`` — a per-layer dense-matrix circuit simulator (QAOA.jl-like),
    * ``"dense"`` — a full dense-unitary circuit simulator (QAOAKit-like).
    """
    dim = 1 << n
    if kind == "direct":
        return 2 * statevector_bytes(dim) + 2 * dim * _FLOAT_BYTES
    if kind == "direct_subspace":
        if subspace_dim is None:
            raise ValueError("subspace_dim is required for the constrained estimate")
        return (
            2 * statevector_bytes(subspace_dim)
            + eigendecomposition_bytes(subspace_dim)
            + subspace_dim * _FLOAT_BYTES
        )
    if kind == "layer":
        return statevector_bytes(dim) + 2 * dense_unitary_bytes(dim)
    if kind == "dense":
        return statevector_bytes(dim) + 3 * dense_unitary_bytes(dim)
    raise ValueError(f"unknown simulator kind {kind!r}")


def sharded_state_bytes(
    dim: int,
    shards: int,
    *,
    batch: int = 1,
    slots: int = 2,
) -> int:
    """Resident bytes of *one* shard worker of a sharded execution.

    A worker pins its chunk of every shared state buffer (``slots`` segments
    of ``ceil(dim / shards) * batch`` complex entries — 2 for forward
    evolution, 3 once the adjoint gradient ran) plus its chunk of the
    objective values.  The largest chunk is used, so this is the per-process
    number the peak-RSS gate compares against
    :func:`simulator_memory_estimate`; multiply by ``shards`` for the
    node-wide total.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if shards < 1:
        raise ValueError("shard count must be positive")
    if shards > dim:
        raise ValueError(f"cannot split dim {dim} into {shards} shards")
    if batch < 1:
        raise ValueError("batch must be positive")
    if slots < 1:
        raise ValueError("a worker holds at least one state buffer")
    local_dim = -(-dim // shards)  # ceil
    return local_dim * (slots * batch * _COMPLEX_BYTES + _FLOAT_BYTES)


def warm_entry_bytes(
    dim: int,
    *,
    p: int = 1,
    batch_capacity: int = 0,
    dense_eigenvectors: bool = False,
    complex_vectors: bool = False,
    kind: str = "dense",
    shards: int | None = None,
    distinct: int | None = None,
) -> int:
    """Estimated resident bytes of one warm solver-service pool entry.

    ``kind`` selects the execution engine the entry holds:

    * ``"dense"`` — sums the components a kept-alive ``(problem, mixer, p)``
      entry pins in memory: the objective values, the ansatz's one
      :class:`BatchedWorkspace` at ``max(1, batch_capacity)`` columns (its
      three core ``(dim, M)`` matrices, the aux matrix and the ``p``-layer
      adjoint store), and — for diagonalized mixer families — the dense
      eigendecomposition.
    * ``"sharded"`` — the node-wide total across all ``shards`` workers:
      per-shard state segments and values
      (:func:`sharded_state_bytes`, 3 slots once gradients ran) plus each
      worker's private ``p``-layer adjoint store.
    * ``"compressed"`` — the ``(distinct, M)`` class-amplitude matrices of a
      compressed Grover engine (``dim`` is ignored for sizing and may exceed
      2^53; pass the true dimension for reporting).

    Raises ``ValueError`` for entries it cannot size — an unknown ``kind``,
    or a ``sharded``/``compressed`` entry without its ``shards``/``distinct``
    count — rather than returning a silently wrong number.  This is the
    accounting the warm pool's byte-budget eviction runs on.
    """
    if p < 1:
        raise ValueError("round count must be positive")
    if batch_capacity < 0:
        raise ValueError("batch capacity must be non-negative")
    if kind == "dense":
        if dim < 1:
            raise ValueError("dimension must be positive")
        per_matrix = statevector_bytes(dim) * max(1, batch_capacity)
        total = dim * _FLOAT_BYTES  # objective values
        total += 3 * per_matrix  # state/scratch/phase
        total += per_matrix  # aux (adjoint Hamiltonian products)
        total += p * 2 * per_matrix  # forward-layer store
        if dense_eigenvectors:
            total += eigendecomposition_bytes(dim, complex_vectors=complex_vectors)
        return total
    if kind == "sharded":
        if shards is None or shards < 1:
            raise ValueError(
                "cannot size a sharded warm entry without its shard count; "
                "pass shards=<worker count>"
            )
        batch = max(1, batch_capacity)
        per_worker = sharded_state_bytes(dim, shards, batch=batch, slots=3)
        local_dim = -(-dim // shards)
        per_worker += p * 2 * local_dim * batch * _COMPLEX_BYTES  # layer store
        return shards * per_worker
    if kind == "compressed":
        if distinct is None or distinct < 1:
            raise ValueError(
                "cannot size a compressed warm entry without its "
                "distinct-value count; pass distinct=<spectrum size>"
            )
        batch = max(1, batch_capacity)
        total = distinct * 2 * _FLOAT_BYTES  # values + degeneracies
        total += (2 + p * 2) * distinct * batch * _COMPLEX_BYTES  # state + layers
        return total
    raise ValueError(
        f"cannot size warm entries of kind {kind!r} "
        "(known kinds: 'dense', 'sharded', 'compressed')"
    )


def measure_peak_allocation(func: Callable[[], object]) -> tuple[object, int]:
    """Run ``func`` and return ``(result, peak allocated bytes)`` via tracemalloc.

    Only Python/numpy heap allocations made while the tracer is active are
    counted, which makes the number reproducible across machines (unlike RSS).
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def rss_bytes() -> int:
    """Current resident set size of this process in bytes (0 if unavailable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def peak_rss_bytes(pid: int | None = None) -> int:
    """Peak resident set size (``VmHWM``) of a process in bytes (0 if unavailable).

    This is what the large-scale benchmark gates on: unlike
    :func:`measure_peak_allocation` it sees shared-memory pages and
    C-extension allocations, and unlike :func:`rss_bytes` it cannot miss a
    transient peak between samples.
    """
    path = "/proc/self/status" if pid is None else f"/proc/{pid}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0
