"""Independent oracles for every result the benchmark times.

Each check recomputes the reported expectation value ``<C>`` at the reported
angles by a different route than the simulator under test and returns the
absolute mismatch:

* MaxCut with the ``x`` mixer: the gate-by-gate circuit simulator
  :class:`repro.baselines.GateCircuitQAOA`.
* Densest-k-subgraph with the ``clique`` mixer: the dense subspace operator
  :func:`repro.mixers.xy.xy_subspace_matrix`, exponentiated directly
  (``scipy.sparse.linalg.expm_multiply``, the action of the matrix
  exponential) instead of through the cached eigendecomposition; the
  objective is recounted from the graph's edges.

Checks run outside every timed region.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

#: A result passes when ``|value - reference| <= TOLERANCE * max(1, |reference|)``.
TOLERANCE = 1e-10


def within_tolerance(value: float, reference: float) -> bool:
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


@lru_cache(maxsize=8)
def _graph(name: str, n: int, seed: int, params: tuple):
    from repro.problems.registry import make_problem_structure

    return make_problem_structure(name, n, seed, **dict(params)).metadata["graph"]


def _graph_of(spec):
    problem = spec.problem
    return _graph(problem.name, problem.n, problem.seed, tuple(sorted(problem.params.items())))


@lru_cache(maxsize=4)
def _circuit(name: str, n: int, seed: int, params: tuple, p: int):
    from repro.baselines import GateCircuitQAOA

    return GateCircuitQAOA(_graph(name, n, seed, params), p)


def maxcut_reference(spec, angles) -> float:
    problem = spec.problem
    circuit = _circuit(problem.name, problem.n, problem.seed,
                       tuple(sorted(problem.params.items())), spec.p)
    return circuit.expectation(np.asarray(angles, dtype=np.float64))


@lru_cache(maxsize=2)
def _clique_operator(n: int, k: int):
    from scipy.sparse import csr_matrix

    from repro.hilbert.dicke import dicke_labels
    from repro.mixers.xy import xy_subspace_matrix

    matrix = csr_matrix(xy_subspace_matrix(n, k, list(combinations(range(n), 2))))
    labels = dicke_labels(n, k).astype(np.int64)
    bits = (labels[:, None] >> np.arange(n)[None, :]) & 1
    return matrix, bits


def clique_reference(spec, angles) -> float:
    from scipy.sparse.linalg import expm_multiply

    n, k, p = spec.problem.n, int(spec.problem.params["k"]), spec.p
    operator, bits = _clique_operator(n, k)
    edges = np.array(list(_graph_of(spec).edges()), dtype=np.int64).reshape(-1, 2)
    cost = (bits[:, edges[:, 0]] & bits[:, edges[:, 1]]).sum(axis=1).astype(np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    betas, gammas = angles[:p], angles[p:]
    psi = np.full(cost.size, 1.0 / np.sqrt(cost.size), dtype=np.complex128)
    for beta, gamma in zip(betas, gammas):
        psi = psi * np.exp(-1j * gamma * cost)
        psi = expm_multiply(-1j * beta * operator, psi)
    return float(np.real(np.vdot(psi, cost * psi)))


def reference_value(spec, angles) -> float:
    """The oracle value for one (spec, angles) pair of a benchmarked family."""
    family = (spec.problem.name.lower(), spec.mixer.name.lower())
    if family == ("maxcut", "x"):
        return maxcut_reference(spec, angles)
    if family == ("densest_subgraph", "clique"):
        return clique_reference(spec, angles)
    raise ValueError(f"no oracle for problem/mixer {family}")


def check_result(result) -> bool:
    """Whether ``result.value`` matches the independent oracle."""
    return within_tolerance(result.value, reference_value(result.spec, result.angles))
