"""High-level QAOA ansatz object.

:class:`QAOAAnsatz` bundles everything that defines one QAOA — the
pre-computed objective values, the mixer schedule, the initial state and the
optimization sense — behind the small callable surface the angle-finding
optimizers need: ``expectation(angles)``, ``gradient(angles)`` and
``simulate(angles)`` plus their batched forms.  One pre-allocated
:class:`~repro.core.workspace.BatchedWorkspace` serves every call — a scalar
call is its M=1 column — which is where the "functionally zero overhead"
repeated evaluation of the paper comes from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..mixers.base import Mixer
from ..mixers.schedules import MixerSchedule
from .gradients import (
    EvaluationCounter,
    qaoa_finite_difference_gradient,
    qaoa_value_and_gradient,
    qaoa_value_and_gradient_batch,
)
from .precompute import PrecomputedCost
from .simulator import QAOAResult, expectation_value, expectation_value_batch, simulate
from .workspace import BatchedWorkspace

__all__ = ["QAOAAnsatz"]


class QAOAAnsatz:
    """A fixed-(cost, mixer, p) QAOA exposing value / gradient / simulate calls.

    Parameters
    ----------
    obj_vals:
        Objective values over the feasible space (array or
        :class:`~repro.core.precompute.PrecomputedCost`).
    mixer:
        A mixer, list of per-round mixers, or :class:`MixerSchedule`.
    p:
        Number of rounds (required unless a schedule / mixer list fixes it).
    initial_state:
        Optional custom initial state (warm starts).
    maximize:
        Whether the underlying problem is a maximization (default True).
    backend:
        Optional :class:`~repro.backend.base.ArrayBackend` the ansatz's
        workspace (and through it every kernel call) runs on; defaults to
        the process-wide active backend at construction time.
    """

    # Always None.  ``perfbench/bench_trace.py`` still sums this name's
    # buffers from when batched calls had a second workspace.
    _batched_workspace = None

    def __init__(
        self,
        obj_vals: np.ndarray | PrecomputedCost,
        mixer: Mixer | Sequence[Mixer] | MixerSchedule,
        p: int | None = None,
        *,
        initial_state: np.ndarray | None = None,
        maximize: bool = True,
        backend=None,
    ):
        if isinstance(mixer, MixerSchedule):
            schedule = mixer
        elif isinstance(mixer, Mixer):
            if p is None:
                raise ValueError("p must be given when a single mixer is supplied")
            schedule = MixerSchedule(mixer, rounds=p)
        else:
            schedule = MixerSchedule(mixer, rounds=p)
        self.schedule = schedule

        if isinstance(obj_vals, PrecomputedCost):
            self.cost = obj_vals
        else:
            self.cost = PrecomputedCost(
                values=np.asarray(obj_vals, dtype=np.float64),
                space=schedule.space,
                maximize=maximize,
            )
        if self.cost.dim != schedule.dim:
            raise ValueError(
                f"objective values (dim {self.cost.dim}) do not match the mixer space "
                f"(dim {schedule.dim})"
            )

        if initial_state is not None:
            initial_state = np.asarray(initial_state, dtype=np.complex128)
            if initial_state.shape != (schedule.dim,):
                raise ValueError(
                    f"initial state has shape {initial_state.shape}, expected ({schedule.dim},)"
                )
            norm = np.linalg.norm(initial_state)
            if not np.isclose(norm, 1.0):
                if norm == 0:
                    raise ValueError("initial state must be non-zero")
                initial_state = initial_state / norm
        self.initial_state = initial_state
        self.maximize = bool(maximize)
        if backend is None:
            from ..backend import active_backend

            backend = active_backend()
        self.backend = backend
        #: the one workspace every scalar and batched call runs on; grown
        #: (never shrunk) to the largest batch seen
        self.workspace = BatchedWorkspace(schedule.dim, backend=backend)
        #: evaluation bookkeeping shared by value and gradient calls
        self.counter = EvaluationCounter()

    # ------------------------------------------------------------------
    @classmethod
    def from_problem(
        cls,
        problem,
        mixer: Mixer | Sequence[Mixer] | MixerSchedule,
        p: int | None = None,
        *,
        initial_state: np.ndarray | None = None,
        backend=None,
    ) -> "QAOAAnsatz":
        """Build an ansatz from a :class:`~repro.problems.registry.ProblemInstance`.

        The problem's objective values are pre-computed over its feasible
        space and its optimization sense is honoured — the bridge the
        spec-driven :func:`repro.api.solve` facade uses.  ``problem`` is any
        object with ``objective_values()``, ``space`` and ``maximize``.
        """
        cost = PrecomputedCost(
            values=np.asarray(problem.objective_values(), dtype=np.float64),
            space=problem.space,
            maximize=problem.maximize,
        )
        return cls(
            cost, mixer, p, initial_state=initial_state, maximize=problem.maximize,
            backend=backend,
        )

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of QAOA rounds."""
        return self.schedule.p

    @property
    def num_angles(self) -> int:
        """Length of the flat angle vector (betas then gammas)."""
        return self.schedule.total_betas + self.schedule.p

    @property
    def n(self) -> int:
        """Number of qubits."""
        return self.schedule.space.n

    def random_angles(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Uniformly random angles in ``[0, 2 pi)`` with the right length."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return 2.0 * np.pi * rng.random(self.num_angles)

    # ------------------------------------------------------------------
    def expectation(self, angles: np.ndarray) -> float:
        """``<C>`` at the given angles."""
        self.counter.forward_passes += 1
        return expectation_value(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
        )

    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix.

        The batched inner loop of sweep-style angle finding: all M angle sets
        evolve simultaneously as a ``(dim, M)`` state matrix through the
        ansatz's workspace.  Returns a ``(M,)`` float array; a single flat
        angle vector yields a length-1 array.
        """
        angles = np.asarray(angles, dtype=np.float64)
        if angles.ndim == 1:
            angles = angles[None, :]
        self.counter.forward_passes += angles.shape[0]
        return expectation_value_batch(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
        )

    def value_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Expectation value and exact adjoint-mode gradient (the M=1 row of
        :meth:`value_and_gradient_batch`)."""
        return qaoa_value_and_gradient(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
            counter=self.counter,
        )

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expectation values and exact adjoint gradients for M angle sets at once.

        ``angles`` is an ``(M, num_angles)`` matrix of flat angle vectors (a
        single flat vector is treated as one row).  One batched forward pass
        plus one batched adjoint backward pass produce ``(M,)`` values and
        ``(M, num_angles)`` gradients through the ansatz's workspace — the
        kernel the vectorized multi-start refiner advances all its restarts
        with.
        """
        return qaoa_value_and_gradient_batch(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
            counter=self.counter,
        )

    def loss_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched loss and gradient (signs consistent with :meth:`loss`)."""
        values, grads = self.value_and_gradient_batch(angles)
        if self.maximize:
            return -values, -grads
        return values, grads

    def gradient(self, angles: np.ndarray) -> np.ndarray:
        """Exact adjoint-mode gradient of ``<C>``."""
        return self.value_and_gradient(angles)[1]

    def finite_difference_gradient(self, angles: np.ndarray, eps: float = 1e-6) -> np.ndarray:
        """Finite-difference gradient (the slow baseline of Fig. 5)."""
        return qaoa_finite_difference_gradient(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
            eps=eps,
            counter=self.counter,
        )

    def simulate(self, angles: np.ndarray) -> QAOAResult:
        """Full simulation returning a :class:`~repro.core.simulator.QAOAResult`."""
        return simulate(
            angles,
            self.schedule,
            self.cost,
            initial_state=self.initial_state,
            workspace=self.workspace,
            maximize=self.maximize,
        )

    # -- objective wrappers for minimizers ---------------------------------
    def loss(self, angles: np.ndarray) -> float:
        """Scalar to *minimize*: ``-<C>`` for maximization problems, ``<C>`` otherwise."""
        value = self.expectation(angles)
        return -value if self.maximize else value

    def loss_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and its gradient (signs handled consistently with :meth:`loss`)."""
        value, grad = self.value_and_gradient(angles)
        if self.maximize:
            return -value, -grad
        return value, grad

    def with_rounds(self, p: int) -> "QAOAAnsatz":
        """A new ansatz identical to this one but with ``p`` rounds.

        Only valid when every round uses the same mixer (the common case for
        the iterative angle-finding scheme).
        """
        mixers = set(id(m) for m in self.schedule.layers)
        if len(mixers) != 1:
            raise ValueError("with_rounds requires a schedule with a single repeated mixer")
        return QAOAAnsatz(
            self.cost,
            self.schedule.layers[0],
            p,
            initial_state=self.initial_state,
            maximize=self.maximize,
            backend=self.backend,
        )

    def sibling(self) -> "QAOAAnsatz":
        """An equivalent ansatz with its *own* workspace.

        The cost table, mixer schedule and initial state are shared (they are
        immutable at evaluation time); the workspace — the only mutable
        per-evaluation scratch — is fresh.  This is what makes concurrent
        evaluation safe: one ansatz instance is **not** thread-safe, but each
        thread evaluating its own sibling is (the portfolio racer setup).
        """
        return QAOAAnsatz(
            self.cost,
            self.schedule,
            initial_state=self.initial_state,
            maximize=self.maximize,
            backend=self.backend,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QAOAAnsatz(n={self.n}, dim={self.schedule.dim}, p={self.p}, "
            f"maximize={self.maximize})"
        )
