"""A first-class compressed Grover-QAOA execution engine.

:mod:`repro.grover.simulate` holds the scalar compressed evolution (one angle
set at a time).  This module packages it as an engine with the same calling
surface as :class:`repro.core.ansatz.QAOAAnsatz` — ``expectation_batch``,
``value_and_gradient_batch``, ``loss``/``loss_and_gradient``, ``simulate``,
``random_angles``, ``counter`` — so every registered angle strategy that
drives the dense ansatz (grid search, random-restart BFGS, the vectorized
multi-start refiner, basinhopping, median) runs unchanged on the compressed
representation.

The state is a ``(D, M)`` complex matrix of per-value-class amplitudes
(``D`` = number of distinct objective values, ``M`` = batch size) instead of
``(2^n, M)``; every inner product is degeneracy-weighted.  Memory and time
per round are ``O(D * M)``, which is the paper's route to n ≈ 100
(Sec. 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.gradients import EvaluationCounter
from .compress import CompressedObjective

__all__ = ["CompressedGroverAnsatz", "CompressedSimulation"]


@dataclass
class CompressedSimulation:
    """Final compressed state of one Grover-QAOA evolution.

    The compressed analogue of :class:`repro.core.simulator.QAOAResult`:
    everything that reduces over value classes (expectation, optimal-state
    probability, value sampling) is exact; per-*label* quantities are not
    materializable without enumerating the space and raise with an
    explanation.
    """

    class_amplitudes: np.ndarray
    spectrum: CompressedObjective
    angles: np.ndarray
    maximize: bool = True
    _cache: dict = field(default_factory=dict, repr=False)

    def class_probabilities(self) -> np.ndarray:
        """Total probability of each objective-value class (sums to 1).

        These are the exact degeneracy-weighted sampling probabilities: every
        state in class ``j`` carries ``|class_amplitudes[j]|^2`` individually
        (Grover-mixer fair sampling), and there are ``degeneracies[j]`` of
        them.
        """
        if "class_probs" not in self._cache:
            degs = self.spectrum.degeneracy_array()
            self._cache["class_probs"] = degs * np.abs(self.class_amplitudes) ** 2
        return self._cache["class_probs"]

    def expectation(self) -> float:
        """``<C>`` over the feasible space."""
        return float(np.dot(self.class_probabilities(), self.spectrum.values))

    def ground_state_probability(self) -> float:
        """Probability of measuring any optimal state (by the recorded sense)."""
        idx = -1 if self.maximize else 0
        return float(self.class_probabilities()[idx])

    def norm(self) -> float:
        """Statevector norm (should be 1 up to round-off)."""
        return float(np.sqrt(self.class_probabilities().sum()))

    def probabilities(self) -> np.ndarray:
        """Unavailable: per-label probabilities need the enumerated space."""
        raise ValueError(
            "per-label probabilities are not materializable in the compressed "
            "representation; use class_probabilities() (per distinct objective "
            "value) or sample_values()"
        )

    def sample(self, shots: int, rng=None) -> np.ndarray:
        """Unavailable: label sampling needs the enumerated space."""
        raise ValueError(
            "label sampling is not materializable in the compressed "
            "representation; use sample_values() to draw objective values "
            "with the exact degeneracy-weighted probabilities"
        )

    def sample_values(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Draw ``shots`` measured *objective values* from the final state."""
        if shots < 1:
            raise ValueError("shots must be positive")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        probs = self.class_probabilities()
        probs = probs / probs.sum()
        indices = rng.choice(probs.size, size=shots, p=probs)
        return self.spectrum.values[indices]


class _CompressedSchedule:
    """The tiny slice of ``MixerSchedule`` the angle strategies read.

    ``dim`` is the *compressed* dimension (number of distinct objective
    values) — deliberately, since that is the size of the matrices the
    batched strategy loops allocate against.
    """

    def __init__(self, dim: int, p: int):
        self.dim = int(dim)
        self.p = int(p)
        self.total_betas = int(p)


class CompressedGroverAnsatz:
    """Grover-mixer QAOA over a value spectrum, on the dense-ansatz protocol.

    Parameters
    ----------
    spectrum:
        The :class:`~repro.grover.compress.CompressedObjective` (distinct
        objective values + exact degeneracies) of the problem.
    p:
        Number of QAOA rounds.
    n:
        Number of qubits (reporting only; the evolution never touches 2^n).
    maximize:
        Optimization sense; determines which spectrum end is "optimal".
    """

    def __init__(
        self,
        spectrum: CompressedObjective,
        p: int,
        *,
        n: int,
        maximize: bool = True,
    ):
        if p < 1:
            raise ValueError("a QAOA needs at least one round")
        self.spectrum = spectrum
        self.maximize = bool(maximize)
        self._n = int(n)
        self.schedule = _CompressedSchedule(spectrum.num_distinct, p)
        self.initial_state = None
        self.counter = EvaluationCounter()
        self._values = np.asarray(spectrum.values, dtype=np.float64)
        self._degs = spectrum.degeneracy_array()
        self._weighted_values = self._degs * self._values
        self._sqrt_total = float(np.sqrt(float(spectrum.total)))

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of QAOA rounds."""
        return self.schedule.p

    @property
    def num_angles(self) -> int:
        """Flat angle vector length (p betas then p gammas)."""
        return 2 * self.schedule.p

    @property
    def n(self) -> int:
        """Number of qubits."""
        return self._n

    @property
    def optimum(self) -> float:
        """Best objective value in the spectrum (by the optimization sense)."""
        return float(self._values[-1] if self.maximize else self._values[0])

    @property
    def cost(self):
        raise RuntimeError(
            "the compressed Grover engine has no dense cost object; strategies "
            "that rebuild per-round ansatze ('iterative', 'fourier') require "
            "the dense execution path"
        )

    def random_angles(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Uniformly random angles in ``[0, 2 pi)`` with the right length."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return 2.0 * np.pi * rng.random(self.num_angles)

    # ------------------------------------------------------------------
    def _split(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        angles = np.asarray(angles, dtype=np.float64)
        if angles.ndim == 1:
            angles = angles[None, :]
        if angles.ndim != 2 or angles.shape[1] != self.num_angles:
            raise ValueError(
                f"expected an (M, {self.num_angles}) angle matrix "
                f"({self.p} betas + {self.p} gammas per row), got shape {angles.shape}"
            )
        transposed = np.ascontiguousarray(angles.T)
        return transposed[: self.p], transposed[self.p :], angles.shape[0]

    def _evolve_batch(
        self, betas: np.ndarray, gammas: np.ndarray, M: int, *, store_layers: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        D = self.spectrum.num_distinct
        a = np.full((D, M), 1.0 / self._sqrt_total, dtype=np.complex128)
        layers = (
            np.empty((self.p, 2, D, M), dtype=np.complex128) if store_layers else None
        )
        neg_j_values = -1j * self._values
        for k in range(self.p):
            a *= np.exp(neg_j_values[:, None] * gammas[k][None, :])
            if layers is not None:
                layers[k, 0] = a
            overlap = self._degs @ a / self._sqrt_total  # (M,) <psi0|psi>
            a += ((np.exp(-1j * betas[k]) - 1.0) * overlap / self._sqrt_total)[None, :]
            if layers is not None:
                layers[k, 1] = a
        return a, layers

    def _energies(self, a: np.ndarray) -> np.ndarray:
        probs = np.abs(a)
        np.square(probs, out=probs)
        return self._weighted_values @ probs

    # ------------------------------------------------------------------
    def expectation(self, angles: np.ndarray) -> float:
        """``<C>`` at the given angles."""
        return float(self.expectation_batch(angles)[0])

    def expectation_batch(self, angles: np.ndarray) -> np.ndarray:
        """``<C>`` for every row of an ``(M, 2p)`` angle matrix."""
        betas, gammas, M = self._split(angles)
        self.counter.forward_passes += M
        final, _ = self._evolve_batch(betas, gammas, M)
        return self._energies(final)

    def value_and_gradient(self, angles: np.ndarray) -> tuple[float, np.ndarray]:
        """Expectation value and exact adjoint-mode gradient."""
        values, grads = self.value_and_gradient_batch(angles)
        return float(values[0]), grads[0]

    def value_and_gradient_batch(self, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched expectation values and exact degeneracy-weighted adjoint gradients.

        The batched analogue of
        :func:`repro.grover.simulate.grover_value_and_gradient`: every dense
        ``(dim, M)`` inner product of the adjoint recursion collapses to a
        degeneracy-weighted ``(D, M)`` reduction.  Shapes ``(M,)`` and
        ``(M, 2p)``.
        """
        betas, gammas, M = self._split(angles)
        self.counter.forward_passes += M
        final, layers = self._evolve_batch(betas, gammas, M, store_layers=True)
        energies = self._energies(final)

        degs = self._degs
        values = self._values
        sqrt_total = self._sqrt_total
        phi = final * values[:, None]
        grad_betas = np.empty((self.p, M), dtype=np.float64)
        grad_gammas = np.empty((self.p, M), dtype=np.float64)
        for k in range(self.p - 1, -1, -1):
            psi_k = layers[k, 1]
            chi_k = layers[k, 0]
            # 2 Im <phi | H_G | psi_k> with H_G = |psi0><psi0|: both weighted
            # sums against psi0 are plain degeneracy reductions.
            o_psi = degs @ psi_k / sqrt_total
            s_phi = degs @ phi
            grad_betas[k] = 2.0 * np.imag(np.conj(s_phi) * o_psi) / sqrt_total
            self.counter.hamiltonian_applications += M
            # phi <- exp(+i beta_k H_G) phi (the inverse Grover layer).
            phi += ((np.exp(1j * betas[k]) - 1.0) * (s_phi / sqrt_total) / sqrt_total)[
                None, :
            ]
            # 2 Im <phi | C | chi_k> with degeneracy-weighted vdots.
            grad_gammas[k] = 2.0 * (
                self._weighted_values
                @ (phi.real * chi_k.imag - phi.imag * chi_k.real)
            )
            if k:
                phi *= np.exp((1j * values)[:, None] * gammas[k][None, :])

        gradient = np.empty((M, self.num_angles), dtype=np.float64)
        gradient[:, : self.p] = grad_betas.T
        gradient[:, self.p :] = grad_gammas.T
        return energies, gradient

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

    def simulate(self, angles: np.ndarray) -> CompressedSimulation:
        """Full evolution returning a :class:`CompressedSimulation`."""
        angles = np.asarray(angles, dtype=np.float64).ravel()
        betas, gammas, M = self._split(angles)
        final, _ = self._evolve_batch(betas, gammas, M)
        return CompressedSimulation(
            class_amplitudes=final[:, 0].copy(),
            spectrum=self.spectrum,
            angles=angles.copy(),
            maximize=self.maximize,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedGroverAnsatz(n={self.n}, distinct={self.spectrum.num_distinct}, "
            f"p={self.p}, maximize={self.maximize})"
        )
