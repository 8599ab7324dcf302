"""Protocol facade putting :class:`ShardedExecutor` on the dense-ansatz surface.

:class:`ShardedAnsatz` exposes the same calling convention as
:class:`repro.core.ansatz.QAOAAnsatz` — ``expectation_batch``,
``value_and_gradient_batch``, the ``loss`` family, ``simulate``,
``random_angles``, ``counter``, ``schedule`` — so the registered angle
strategies (grid, random-restart BFGS, vectorized multi-start, basinhopping,
median) drive a statevector they could never allocate locally.

``schedule.dim`` reports the *global* dimension: batched strategies use it
only for accounting, and the per-worker residency is what actually bounds
batch width.
"""

from __future__ import annotations

import numpy as np

from ...core.gradients import EvaluationCounter
from .executor import ShardedExecutor, ShardedMixerConfig, sharded_mixer_config

__all__ = ["ShardedAnsatz", "ShardedSimulation"]


class _ShardedSchedule:
    """The slice of ``MixerSchedule`` the angle strategies read."""

    def __init__(self, dim: int, p: int, total_betas: int):
        self.dim = int(dim)
        self.p = int(p)
        self.total_betas = int(total_betas)


class ShardedSimulation:
    """Final state of one sharded evolution.

    Scalars (expectation, optimal-state probability, norm) are reduced
    eagerly at construction; per-label quantities (``probabilities``,
    ``sample``) stream through the live executor and therefore require it to
    still be open *and* to still hold this evolution's state (a later
    evolution on the same executor overwrites the buffers).
    """

    def __init__(self, executor: ShardedExecutor, angles: np.ndarray, scalars: dict):
        self._executor = executor
        self.angles = np.asarray(angles, dtype=np.float64).copy()
        self._expectation = float(scalars["expectation"])
        self._gsp = float(scalars["ground_state_probability"])
        self._norm = float(scalars["norm"])

    def expectation(self) -> float:
        """``<C>`` over the feasible space."""
        return self._expectation

    def ground_state_probability(self) -> float:
        """Total probability of measuring an optimal state."""
        return self._gsp

    def norm(self) -> float:
        """Statevector norm (should be 1 up to round-off)."""
        return self._norm

    def _live_executor(self) -> ShardedExecutor:
        if self._executor is None or self._executor._closed:
            raise RuntimeError(
                "the sharded executor backing this simulation is closed; "
                "per-label quantities (probabilities/sample) are only "
                "available while the shard workers are alive"
            )
        return self._executor

    def probabilities(self) -> np.ndarray:
        """Per-label sampling probabilities (small dims only — gathers)."""
        state = self._live_executor().gather_state()
        return np.abs(state) ** 2

    def statevector(self) -> np.ndarray:
        """The gathered final state (small dims only)."""
        return self._live_executor().gather_state()

    def sample(self, shots: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw measurement outcomes (labels) without gathering the state."""
        return self._live_executor().sample(shots, rng)


class ShardedAnsatz:
    """Sharded QAOA engine on the dense-ansatz protocol.

    Parameters
    ----------
    structure:
        A :class:`~repro.problems.registry.ProblemStructure`.
    mixer_name / mixer_params:
        Mixer family spec, resolved via :func:`sharded_mixer_config`
        (``x``, ``multiangle_x``, ``grover``).
    p:
        Number of QAOA rounds.
    shards:
        Worker count (see :class:`ShardedExecutor` constraints).
    """

    def __init__(
        self,
        structure,
        mixer_name: str,
        p: int,
        shards: int,
        *,
        mixer_params: dict | None = None,
    ):
        config = sharded_mixer_config(mixer_name, structure.n, mixer_params)
        self.executor = ShardedExecutor(structure, config, p, shards)
        self.structure = structure
        self.maximize = bool(structure.maximize)
        self.schedule = _ShardedSchedule(
            structure.dim, p, config.betas_per_round * p
        )
        self.initial_state = None
        self.counter = EvaluationCounter()

    # ------------------------------------------------------------------
    @property
    def mixer_config(self) -> ShardedMixerConfig:
        """The resolved space-free mixer description."""
        return self.executor.mixer

    @property
    def p(self) -> int:
        """Number of QAOA rounds."""
        return self.schedule.p

    @property
    def num_angles(self) -> int:
        """Flat angle vector length (betas then gammas)."""
        return self.schedule.total_betas + self.schedule.p

    @property
    def n(self) -> int:
        """Number of qubits."""
        return self.executor.n

    @property
    def optimum(self) -> float:
        """Best objective value over the feasible space (by sense)."""
        return self.executor.optimum

    @property
    def cost(self):
        raise RuntimeError(
            "the sharded engine has no dense cost object; strategies that "
            "rebuild per-round ansatze ('iterative', 'fourier') require the "
            "dense execution path"
        )

    def random_angles(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Uniformly random angles in ``[0, 2 pi)`` with the right length."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return 2.0 * np.pi * rng.random(self.num_angles)

    # ------------------------------------------------------------------
    def expectation(self, angles: np.ndarray) -> float:
        """``<C>`` at the given angles."""
        return float(self.expectation_batch(np.asarray(angles)[None, :])[0])

    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, num_angles)`` angle matrix."""
        angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
        self.counter.forward_passes += angles.shape[0]
        return self.executor.expectation_batch(angles)

    def value_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Expectation value and exact adjoint-mode gradient."""
        values, grads = self.value_and_gradient_batch(np.asarray(angles)[None, :])
        return float(values[0]), grads[0]

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched expectations and exact sharded adjoint gradients."""
        angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
        self.counter.forward_passes += angles.shape[0]
        self.counter.hamiltonian_applications += angles.shape[0] * self.p
        return self.executor.value_and_gradient_batch(angles)

    # -- objective wrappers for minimizers ---------------------------------
    def loss(self, angles: np.ndarray) -> float:
        """Scalar to *minimize*: ``-<C>`` for maximization problems."""
        value = self.expectation(angles)
        return -value if self.maximize else value

    def loss_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and its gradient (signs consistent with :meth:`loss`)."""
        value, grad = self.value_and_gradient(angles)
        if self.maximize:
            return -value, -grad
        return value, grad

    def loss_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched loss and gradient (signs consistent with :meth:`loss`)."""
        values, grads = self.value_and_gradient_batch(angles)
        if self.maximize:
            return -values, -grads
        return values, grads

    def simulate(self, angles: np.ndarray) -> ShardedSimulation:
        """Full evolution returning a :class:`ShardedSimulation`."""
        angles = np.asarray(angles, dtype=np.float64).ravel()
        scalars = self.executor.simulate(angles)
        return ShardedSimulation(self.executor, angles, scalars)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the shard workers and release all shared memory."""
        self.executor.close()

    def __enter__(self) -> "ShardedAnsatz":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedAnsatz(n={self.n}, dim={self.executor.dim}, "
            f"shards={self.executor.shards}, mixer={self.executor.mixer.kind!r}, "
            f"p={self.p})"
        )
