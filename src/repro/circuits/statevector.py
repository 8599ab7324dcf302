"""Gate-by-gate statevector backend.

This is the generic simulation strategy the baseline packages use: hold the
full ``2^n`` statevector and apply each gate by contracting its (small) matrix
against the state tensor.  Unlike the direct simulator in :mod:`repro.core`
there is no QAOA-specific pre-computation — every gate of every layer is
applied individually, every time.

Bit convention: qubit 0 is the least-significant bit of the state index, so
when the statevector is reshaped to an ``n``-dimensional ``(2, ..., 2)``
tensor (C order), qubit ``q`` lives on axis ``n - 1 - q``.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit
from .gates import Gate

__all__ = ["apply_gate", "StatevectorBackend"]


def apply_gate(
    state: np.ndarray,
    gate: Gate,
    n: int,
    *,
    diagonal_fast_path: bool = True,
) -> np.ndarray:
    """Apply one gate to a length-``2^n`` statevector and return the new state."""
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (1 << n,):
        raise ValueError(f"state has shape {state.shape}, expected ({1 << n},)")

    if gate.num_qubits == 0:
        return state * gate.matrix[0, 0]

    if diagonal_fast_path and gate.is_diagonal():
        # Diagonal gates multiply each amplitude by a phase selected by the
        # gate-local bit pattern of the state index.
        diag = np.diag(gate.matrix)
        labels = np.arange(1 << n, dtype=np.uint64)
        local = np.zeros(1 << n, dtype=np.int64)
        for j, qubit in enumerate(gate.qubits):
            bit = (labels >> np.uint64(qubit)) & np.uint64(1)
            local |= (bit << np.uint64(j)).astype(np.int64)
        return state * diag[local]

    k = gate.num_qubits
    tensor = state.reshape((2,) * n)
    gate_tensor = gate.matrix.reshape((2,) * (2 * k))
    # Contract the gate's input indices with the state axes of its qubits.
    # Gate index ordering: qubits[0] is the least-significant bit of the gate
    # matrix index, so axis order (MSB first) is qubits[k-1], ..., qubits[0].
    in_axes = [n - 1 - q for q in reversed(gate.qubits)]
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), in_axes))
    remaining = [axis for axis in range(n) if axis not in in_axes]
    current_order = in_axes + remaining
    result = np.transpose(moved, np.argsort(current_order))
    return np.ascontiguousarray(result).reshape(-1)


class StatevectorBackend:
    """Runs circuits gate by gate on a dense statevector.

    Parameters
    ----------
    diagonal_fast_path:
        Whether diagonal gates use the cheap phase-multiply path.  The
        "QAOAKit-like" baseline disables it to emulate a framework that treats
        every gate as a dense matrix.
    """

    name = "statevector"

    def __init__(self, diagonal_fast_path: bool = True):
        self.diagonal_fast_path = bool(diagonal_fast_path)
        #: number of individual gate applications performed (for benchmarks)
        self.gates_applied = 0

    def run(self, circuit: Circuit, initial_state: np.ndarray | None = None) -> np.ndarray:
        """Simulate ``circuit`` from ``initial_state`` (default ``|0...0>``)."""
        dim = 1 << circuit.n
        if initial_state is None:
            state = np.zeros(dim, dtype=np.complex128)
            state[0] = 1.0
        else:
            state = np.asarray(initial_state, dtype=np.complex128).copy()
            if state.shape != (dim,):
                raise ValueError(f"initial state has shape {state.shape}, expected ({dim},)")
        for gate in circuit:
            state = apply_gate(
                state,
                gate,
                circuit.n,
                diagonal_fast_path=self.diagonal_fast_path,
            )
            self.gates_applied += 1
        return state

    def expectation(self, circuit: Circuit, diagonal_observable: np.ndarray,
                    initial_state: np.ndarray | None = None) -> float:
        """Expectation of a diagonal observable after running the circuit."""
        state = self.run(circuit, initial_state)
        observable = np.asarray(diagonal_observable, dtype=np.float64)
        if observable.shape != state.shape:
            raise ValueError("observable and state dimensions differ")
        return float(np.real(np.vdot(state, observable * state)))
