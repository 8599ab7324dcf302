"""Exact statevector simulation of the Quantum Alternating Operator Ansatz.

This module is the package's core: given pre-computed objective values over a
feasible space and a pre-diagonalized mixer (or per-round mixer schedule), it
evolves

    |beta, gamma> =
        e^{-i beta_p H_M} e^{-i gamma_p H_C} ... e^{-i beta_1 H_M} e^{-i gamma_1 H_C} |psi0>

and exposes the expectation value ``<beta,gamma| C |beta,gamma>``, per-state
amplitudes and the probability of measuring an optimal state, mirroring the
``simulate`` / ``get_exp_value`` API of the paper's Listing 1.

Each round is a diagonal phase multiply (the phase separator never needs a
matrix) followed by one mixer application.  The batched entry points evolve M
angle sets as the columns of one ``(dim, M)`` matrix, and every scalar entry
point is their M=1 row call.  All buffers can be supplied through one
:class:`~repro.core.workspace.BatchedWorkspace`, so repeated calls inside the
angle-finding loop allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..mixers.base import Mixer
from ..mixers.schedules import MixerSchedule
from .precompute import PrecomputedCost
from .workspace import BatchedWorkspace

__all__ = [
    "QAOAResult",
    "split_angles",
    "split_angles_batch",
    "evolve_state",
    "evolve_state_batch",
    "simulate",
    "simulate_batch",
    "get_exp_value",
    "expectation_value",
    "expectation_value_batch",
    "random_angles",
]


# ---------------------------------------------------------------------------
# angles layout
# ---------------------------------------------------------------------------

def split_angles(
    angles: np.ndarray, schedule: MixerSchedule
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split a flat angle vector into per-round betas and the gamma vector.

    The layout follows the paper's Listing 1: the first block holds the mixer
    angles (betas), the second block the phase-separator angles (gammas).  For
    plain mixers the beta block has length ``p``; multi-angle layers consume
    one beta per term.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    total = schedule.total_betas + schedule.p
    if angles.size != total:
        raise ValueError(
            f"expected {total} angles ({schedule.total_betas} betas + {schedule.p} gammas), "
            f"got {angles.size}"
        )
    betas = schedule.split_betas(angles[: schedule.total_betas])
    gammas = angles[schedule.total_betas :]
    return betas, gammas


def split_angles_batch(
    angles: np.ndarray, schedule: MixerSchedule
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split an ``(M, num_angles)`` matrix of flat angle vectors column-wise.

    Each row of ``angles`` is one flat angle set in the layout of
    :func:`split_angles`.  Returns a per-round list of ``(count_k, M)`` beta
    matrices and the ``(p, M)`` gamma matrix — one column per angle set, which
    is the layout the batched evolution consumes.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    total = schedule.total_betas + schedule.p
    if angles.ndim != 2 or angles.shape[1] != total:
        raise ValueError(
            f"expected an (M, {total}) angle matrix "
            f"({schedule.total_betas} betas + {schedule.p} gammas per row), "
            f"got shape {angles.shape}"
        )
    transposed = np.ascontiguousarray(angles.T)
    betas: list[np.ndarray] = []
    cursor = 0
    for count in schedule.beta_counts():
        betas.append(transposed[cursor : cursor + count])
        cursor += count
    gammas = transposed[cursor:]
    return betas, gammas


def random_angles(
    p: int, rng: np.random.Generator | int | None = None, *, num_betas: int | None = None
) -> np.ndarray:
    """Uniformly random angles in ``[0, 2 pi)`` in the flat (betas, gammas) layout."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if num_betas is None:
        num_betas = p
    return 2.0 * np.pi * rng.random(num_betas + p)


# ---------------------------------------------------------------------------
# result object
# ---------------------------------------------------------------------------

@dataclass
class QAOAResult:
    """Output of one QAOA statevector simulation.

    Stores the final statevector together with the objective values it was
    evolved under, so that expectation values, per-state amplitudes and
    ground-state (optimal-state) probabilities can all be extracted without
    re-simulating — the behaviour of the special object returned by the
    paper's ``simulate()``.
    """

    statevector: np.ndarray
    cost: PrecomputedCost
    angles: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    # -- core quantities -------------------------------------------------
    def expectation(self) -> float:
        """``<psi| C |psi>`` — the quantity the angle-finding loop optimizes."""
        if "expectation" not in self._cache:
            probs = self.probabilities()
            self._cache["expectation"] = float(np.dot(probs, self.cost.values))
        return self._cache["expectation"]

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities ``|psi_x|^2`` over the feasible space."""
        if "probabilities" not in self._cache:
            self._cache["probabilities"] = np.abs(self.statevector) ** 2
        return self._cache["probabilities"]

    def amplitudes(self) -> np.ndarray:
        """The complex amplitudes (a copy, so callers cannot corrupt the result)."""
        return self.statevector.copy()

    def amplitude_of(self, label: int) -> complex:
        """Amplitude of the feasible state with full-space label ``label``."""
        if self.cost.space is None:
            raise ValueError("amplitude_of requires the feasible space to be attached")
        return complex(self.statevector[self.cost.space.index_of(label)])

    def ground_state_probability(self) -> float:
        """Total probability of measuring an optimal (best objective) state."""
        if "gs_prob" not in self._cache:
            idx = self.cost.optimal_indices()
            self._cache["gs_prob"] = float(self.probabilities()[idx].sum())
        return self._cache["gs_prob"]

    def approximation_ratio(self) -> float:
        """Expectation divided by the optimum (meaningful for positive maximization objectives)."""
        opt = self.cost.optimum
        if opt == 0:
            raise ZeroDivisionError("optimum objective value is zero")
        return self.expectation() / opt

    def norm(self) -> float:
        """Norm of the statevector (should be 1 up to round-off)."""
        return float(np.linalg.norm(self.statevector))

    # -- sampling ----------------------------------------------------------
    def sample(self, shots: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw measurement outcomes; returns full-space labels when available,
        otherwise subspace indices."""
        if shots < 1:
            raise ValueError("shots must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if "probs_normalized" not in self._cache:
            probs = self.probabilities()
            self._cache["probs_normalized"] = probs / probs.sum()
        probs = self._cache["probs_normalized"]
        indices = rng.choice(len(probs), size=shots, p=probs)
        if self.cost.space is not None:
            return self.cost.space.labels[indices]
        return indices

    @property
    def p(self) -> int:
        """Number of QAOA rounds the angles describe (best effort for multi-angle)."""
        return int(self._cache.get("p", len(self.angles) // 2))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class _CostPhaseFactors:
    """Per-round separator phase factors ``exp(sign * i * gamma_j * cost)``.

    Objective values usually take few distinct levels (integer-valued costs),
    so each round's factors are an exp over ``(levels, M)`` plus a gather
    rather than an exp over the full ``(dim, M)`` matrix.  One instance is
    built per evolution (forward pass uses ``sign=-1``, the adjoint backward
    pass ``sign=+1``) so the forward and backward paths share one
    implementation of the table heuristic.
    """

    def __init__(
        self,
        cost_values: np.ndarray,
        cost_levels: tuple[np.ndarray, np.ndarray],
        batch: int,
        sign: float,
    ):
        self.levels, self.inverse = cost_levels
        self.sign_i = sign * 1j
        self.use_table = self.levels.size * 4 <= cost_values.size
        self.table = (
            np.empty((self.levels.size, batch), dtype=np.complex128)
            if self.use_table
            else None
        )
        self.signed_i_cost = None if self.use_table else cost_values * self.sign_i

    def fill(self, gamma_k: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Write this round's ``(dim, M)`` phase factors into ``phases``."""
        if self.use_table:
            np.multiply(self.levels[:, None], self.sign_i * gamma_k[None, :], out=self.table)
            np.exp(self.table, out=self.table)
            np.take(self.table, self.inverse, axis=0, out=phases)
        else:
            np.multiply(self.signed_i_cost[:, None], gamma_k[None, :], out=phases)
            np.exp(phases, out=phases)
        return phases


def evolve_state(
    betas: Sequence[np.ndarray] | np.ndarray,
    gammas: np.ndarray,
    schedule: MixerSchedule,
    cost_values: np.ndarray,
    initial_state: np.ndarray,
    *,
    workspace: BatchedWorkspace | None = None,
) -> np.ndarray:
    """Apply ``p`` QAOA rounds to ``initial_state`` and return the final state.

    ``betas`` is a per-round list (each entry a scalar array, or a vector for
    multi-angle layers); ``gammas`` is the length-``p`` phase-separator angle
    vector.

    This is the M=1 column call of :func:`evolve_state_batch` (there is
    exactly one evolution code path per mixer family), so repeated calls on
    one workspace allocate nothing.  The returned ``(dim,)`` state is a view
    into the workspace's state buffer — copy it to keep it across calls.
    """
    # Shapes (round counts, objective length) are validated by the batched call.
    beta_cols = [
        np.atleast_1d(np.asarray(beta_k, dtype=np.float64)).reshape(-1, 1) for beta_k in betas
    ]
    psi = evolve_state_batch(
        beta_cols,
        np.asarray(gammas, dtype=np.float64).reshape(-1, 1),
        schedule,
        cost_values,
        initial_state,
        workspace=workspace,
    )
    return psi[:, 0]


def evolve_state_batch(
    betas: Sequence[np.ndarray] | np.ndarray,
    gammas: np.ndarray,
    schedule: MixerSchedule,
    cost_values: np.ndarray,
    initial_state: np.ndarray,
    *,
    workspace: BatchedWorkspace | None = None,
    cost_levels: tuple[np.ndarray, np.ndarray] | None = None,
    layer_store: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``p`` QAOA rounds to M statevectors simultaneously.

    The batch is a ``(dim, M)`` complex matrix: column ``j`` evolves under the
    ``j``-th angle set.  Each round is one broadcasted elementwise phase
    multiply (the phase separator, per-column gammas) followed by one batched
    mixer application (BLAS-3 GEMMs / batched transforms, per-column betas).

    ``betas`` is a per-round list of ``(count_k, M)`` matrices (or a ``(p, M)``
    array for plain single-beta schedules) and ``gammas`` a ``(p, M)`` matrix.
    ``initial_state`` is a single ``(dim,)`` vector broadcast to every column
    or a ``(dim, M)`` matrix of per-column starts.  ``cost_levels`` optionally
    supplies the pre-computed ``(distinct values, inverse indices)`` pair of
    ``cost_values`` (see :meth:`PrecomputedCost.phase_levels`) so repeated
    sweep chunks skip the per-call ``np.unique``.  If ``layer_store`` (shape
    ``(p, 2, dim, M)``, see :meth:`BatchedWorkspace.ensure_layers`) is given,
    the batch after each phase separator and after each mixer is recorded —
    this is what the batched adjoint gradient consumes.  The returned
    ``(dim, M)`` array is a view into the workspace's state buffer — copy it
    to keep it across calls.
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.ndim != 2 or gammas.shape[0] != schedule.p:
        raise ValueError(f"gammas have shape {gammas.shape}, expected ({schedule.p}, M)")
    batch = gammas.shape[1]
    if isinstance(betas, np.ndarray) and betas.ndim == 2 and len(betas) == schedule.p:
        beta_rounds = [betas[k][None, :] for k in range(schedule.p)]
    else:
        beta_rounds = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in betas]
    if len(beta_rounds) != schedule.p:
        raise ValueError(f"expected {schedule.p} beta entries, got {len(beta_rounds)}")
    for count, beta_k in zip(schedule.beta_counts(), beta_rounds):
        if beta_k.shape != (count, batch):
            raise ValueError(f"round betas have shape {beta_k.shape}, expected ({count}, {batch})")

    dim = schedule.dim
    cost_values = np.asarray(cost_values, dtype=np.float64)
    if cost_values.shape != (dim,):
        raise ValueError(f"objective values have shape {cost_values.shape}, expected ({dim},)")

    if workspace is None:
        workspace = BatchedWorkspace(dim, batch)
    elif not workspace.compatible_with(dim):
        raise ValueError(
            f"workspace dimension {workspace.dim} does not match simulation dimension {dim}"
        )
    workspace.ensure(batch)

    psi = workspace.load_states(np.asarray(initial_state, dtype=np.complex128), batch)
    phases = workspace.phase(batch)
    if cost_levels is None:
        cost_levels = np.unique(cost_values, return_inverse=True)
    phase_factors = _CostPhaseFactors(cost_values, cost_levels, batch, sign=-1.0)
    for round_index, (mixer, beta_k, gamma_k) in enumerate(zip(schedule, beta_rounds, gammas)):
        psi *= phase_factors.fill(gamma_k, phases)
        if layer_store is not None:
            layer_store[round_index, 0] = psi
        beta_arg = beta_k[0] if beta_k.shape[0] == 1 else beta_k
        mixer.apply_batch(psi, beta_arg, out=psi, workspace=workspace)
        if layer_store is not None:
            layer_store[round_index, 1] = psi
    return psi


def simulate(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
    maximize: bool = True,
) -> QAOAResult:
    """Simulate a ``p``-round QAOA and return a :class:`QAOAResult`.

    Parameters
    ----------
    angles:
        Flat angle vector: mixer angles (betas) first, then phase-separator
        angles (gammas), matching the paper's Listing 1.
    mixer:
        A single mixer (reused every round), a per-round list of mixers, or a
        pre-built :class:`~repro.mixers.schedules.MixerSchedule`.
    obj_vals:
        Objective values over the feasible space (array or
        :class:`~repro.core.precompute.PrecomputedCost`).
    p:
        Number of rounds.  May be omitted when it can be inferred: it is taken
        from a schedule/mixer list, else from ``len(angles) // 2``.
    initial_state:
        Optional initial statevector (defaults to the mixer's uniform
        superposition over the feasible space; pass e.g. a warm start here).
    workspace:
        Optional pre-allocated :class:`~repro.core.workspace.BatchedWorkspace`
        (its first column serves the simulation).
    maximize:
        Recorded on the result's cost object (used for optimal-state queries).

    The M=1 row call of :func:`simulate_batch` — one simulation code path per
    mixer family, shared by the scalar and batched engines.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    if isinstance(mixer, Mixer) and p is None and angles.size % 2:
        raise ValueError("cannot infer p from an odd-length angle vector; pass p explicitly")
    results = simulate_batch(
        angles[None, :],
        mixer,
        obj_vals,
        p=p,
        initial_state=initial_state,
        workspace=workspace,
        maximize=maximize,
    )
    return results[0]


def simulate_batch(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
    maximize: bool = True,
) -> list[QAOAResult]:
    """Simulate M angle sets at once; returns one :class:`QAOAResult` per row.

    ``angles`` is an ``(M, num_angles)`` matrix whose rows are flat angle
    vectors in the layout of :func:`simulate`.  All M simulations share one
    evolution over a ``(dim, M)`` state matrix, so the per-angle-set cost is
    that of the batched BLAS-3 kernels rather than M scalar evolutions.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    if isinstance(mixer, MixerSchedule):
        schedule = mixer
    elif isinstance(mixer, Mixer):
        if p is None:
            if angles.shape[1] % 2:
                raise ValueError(
                    "cannot infer p from an odd-length angle vector; pass p explicitly"
                )
            p = angles.shape[1] // 2
        schedule = MixerSchedule(mixer, rounds=p)
    else:
        schedule = MixerSchedule(mixer, rounds=p)

    if isinstance(obj_vals, PrecomputedCost):
        cost = obj_vals
        if cost.maximize != maximize:
            cost = PrecomputedCost(values=cost.values.copy(), space=cost.space, maximize=maximize)
    else:
        cost = PrecomputedCost(
            values=np.asarray(obj_vals, dtype=np.float64),
            space=schedule.space,
            maximize=maximize,
        )

    betas, gammas = split_angles_batch(angles, schedule)
    if initial_state is None:
        initial_state = schedule.initial_state()
    psi = evolve_state_batch(
        betas,
        gammas,
        schedule,
        cost.values,
        initial_state,
        workspace=workspace,
        cost_levels=cost.phase_levels(),
    )
    results = []
    for j in range(angles.shape[0]):
        result = QAOAResult(statevector=psi[:, j].copy(), cost=cost, angles=angles[j].copy())
        result._cache["p"] = schedule.p
        results.append(result)
    return results


def get_exp_value(result: QAOAResult) -> float:
    """Expectation value of a result (mirrors the paper's ``get_exp_value``)."""
    return result.expectation()


def expectation_value(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
) -> float:
    """Fast path returning only ``<C>`` (what the angle-finding inner loop calls).

    The M=1 row call of :func:`expectation_value_batch` — one evaluation code
    path per mixer family, shared by the scalar and batched engines.
    """
    angles = np.asarray(angles, dtype=np.float64).ravel()
    values = expectation_value_batch(
        angles[None, :],
        mixer,
        obj_vals,
        p=p,
        initial_state=initial_state,
        workspace=workspace,
    )
    return float(values[0])


def expectation_value_batch(
    angles: np.ndarray,
    mixer: Mixer | Sequence[Mixer] | MixerSchedule,
    obj_vals: np.ndarray | PrecomputedCost,
    *,
    p: int | None = None,
    initial_state: np.ndarray | None = None,
    workspace: BatchedWorkspace | None = None,
) -> np.ndarray:
    """Batched fast path: ``<C>`` for every row of an ``(M, num_angles)`` matrix.

    This is what batched angle-finding loops (grid search, random-restart
    seeding) call: M angle sets are evolved as the columns of one ``(dim, M)``
    matrix and the M expectation values come back as a ``(M,)`` float array.
    Agrees with a loop over :func:`expectation_value` to ~1e-12.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles[None, :]
    if isinstance(mixer, MixerSchedule):
        schedule = mixer
    elif isinstance(mixer, Mixer):
        if p is None:
            p = angles.shape[1] // 2
        schedule = MixerSchedule(mixer, rounds=p)
    else:
        schedule = MixerSchedule(mixer, rounds=p)
    if isinstance(obj_vals, PrecomputedCost):
        values = obj_vals.values
        cost_levels = obj_vals.phase_levels()
    else:
        values = np.asarray(obj_vals, dtype=np.float64)
        cost_levels = None
    betas, gammas = split_angles_batch(angles, schedule)
    if initial_state is None:
        initial_state = schedule.initial_state()
    psi = evolve_state_batch(
        betas,
        gammas,
        schedule,
        values,
        initial_state,
        workspace=workspace,
        cost_levels=cost_levels,
    )
    probs = np.abs(psi)
    np.square(probs, out=probs)
    return np.matmul(values, probs)
