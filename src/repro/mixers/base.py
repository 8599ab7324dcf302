"""Mixer interface.

A mixer in this package is a Hermitian operator ``H_M`` acting on a feasible
space, exposed through exactly the operations the QAOA engine needs:

* ``apply(psi, beta)`` — the unitary evolution ``exp(-i beta H_M) |psi>``,
  implemented without ever forming the matrix exponential (the paper's core
  trick: diagonalize once, then only diagonal phases plus basis changes are
  needed per layer),
* ``apply_hamiltonian(psi)`` — the plain matrix-vector product ``H_M |psi>``,
  needed by the analytic (autodiff-equivalent) gradients,
* ``initial_state()`` — the canonical QAOA starting state for this mixer
  (uniform superposition over the feasible space, i.e. ``|+>^n`` or a Dicke
  state), which is the highest-energy eigenstate of the standard mixers,
* ``matrix()`` — a dense matrix representation for testing and for arbitrary
  downstream use.

All mixers are stateless with respect to the statevector: they may own
pre-computed spectral data (created once, possibly loaded from a disk cache)
but never mutate their inputs unless an explicit ``out`` buffer is provided.
"""

from __future__ import annotations

import abc
import threading

import numpy as np

from ..backend import active_backend
from ..hilbert.subspace import FeasibleSpace

__all__ = ["Mixer", "DiagonalizedMixer"]


class Mixer(abc.ABC):
    """Abstract base class for QAOA mixer Hamiltonians."""

    #: The feasible space the mixer acts on.
    space: FeasibleSpace

    def __init__(self, space: FeasibleSpace, *, backend=None):
        self.space = space
        #: the array backend the mixer's dense kernels dispatch through when no
        #: workspace (which carries its own backend) is supplied
        self.backend = backend if backend is not None else active_backend()
        # The M=1 workspace behind apply / apply_hamiltonian (single-column
        # calls of the batched kernels), so those allocate nothing given
        # ``out``.  Thread-local because concurrent angle scans may share one
        # mixer; the simulator passes its own workspace and never uses it.
        self._scalar_store = threading.local()

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of qubits."""
        return self.space.n

    @property
    def dim(self) -> int:
        """Dimension of the space the mixer acts on."""
        return self.space.dim

    # ------------------------------------------------------------------
    # required operations
    # ------------------------------------------------------------------
    # A mixer family implements EITHER the scalar pair (apply /
    # apply_hamiltonian) OR the batched pair (apply_batch /
    # apply_hamiltonian_batch); the base class derives the other direction.
    # The optimized families implement only the batched kernels — the scalar
    # entry points below are their M=1 column calls, so there is exactly one
    # code path per family and one place to port per array backend.

    def _scalar_workspace(self):
        """This thread's cached ``(dim, 1)`` workspace for the M=1 wrappers."""
        store = self._scalar_store
        workspace = getattr(store, "workspace", None)
        if workspace is None:
            from ..core.workspace import BatchedWorkspace

            workspace = store.workspace = BatchedWorkspace(self.dim, 1, backend=self.backend)
        return workspace

    def _scalar_via_batch(self, kernel, psi: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Run a batched kernel on ``psi`` as a single-column batch.

        ``kernel(Psi, out, workspace)`` receives C-contiguous complex128
        ``(dim, 1)`` views; non-conforming ``psi``/``out`` buffers are staged
        through copies so the caller-visible contract (``out`` may alias
        ``psi``; ``psi`` is untouched otherwise) is preserved.
        """
        psi = self._check_state(psi)
        if psi.dtype != np.complex128 or not psi.flags.c_contiguous:
            psi = np.ascontiguousarray(psi, dtype=np.complex128)
        if out is None:
            out = np.empty(self.dim, dtype=np.complex128)
        elif out.shape != (self.dim,):
            raise ValueError(f"out has shape {out.shape}, expected ({self.dim},)")
        if out.dtype == np.complex128 and out.flags.c_contiguous:
            target = out
        else:
            target = np.empty(self.dim, dtype=np.complex128)
        kernel(psi.reshape(self.dim, 1), target.reshape(self.dim, 1), self._scalar_workspace())
        if target is not out:
            out[:] = target
        return out

    def apply(
        self,
        psi: np.ndarray,
        beta: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``exp(-i beta H_M) |psi>``.

        ``psi`` is a complex statevector of length :attr:`dim` in the feasible
        space's canonical basis order.  If ``out`` is given it is used as the
        destination buffer (it may alias ``psi``); otherwise a new array is
        returned.  ``psi`` itself is never modified unless it aliases ``out``.

        This base implementation is the M=1 column call of
        :meth:`apply_batch`, served from a cached per-thread workspace so it
        allocates nothing when ``out`` is supplied.
        """
        if type(self).apply_batch is Mixer.apply_batch:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither apply nor apply_batch"
            )
        betas = np.atleast_1d(np.asarray(beta, dtype=np.float64))
        return self._scalar_via_batch(
            lambda Psi, target, workspace: self.apply_batch(
                Psi, betas, out=target, workspace=workspace
            ),
            psi,
            out,
        )

    def apply_hamiltonian(
        self,
        psi: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``H_M |psi>`` (used by analytic gradients).

        The M=1 column call of :meth:`apply_hamiltonian_batch`; see
        :meth:`apply` for the buffer contract.
        """
        if type(self).apply_hamiltonian_batch is Mixer.apply_hamiltonian_batch:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither apply_hamiltonian "
                f"nor apply_hamiltonian_batch"
            )
        return self._scalar_via_batch(
            lambda Psi, target, workspace: self.apply_hamiltonian_batch(
                Psi, out=target, workspace=workspace
            ),
            psi,
            out,
        )

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Return ``exp(-i beta_j H_M) |psi_j>`` for every column ``j`` of ``Psi``.

        ``Psi`` is a ``(dim, M)`` matrix whose columns are M independent
        statevectors and ``betas`` holds one angle per column (multi-angle
        mixers instead take a ``(num_angles, M)`` matrix).  ``out`` may alias
        ``Psi``.  ``workspace`` optionally supplies pre-allocated scratch (a
        :class:`~repro.core.workspace.BatchedWorkspace` of matching
        dimension).

        This base implementation loops over columns through :meth:`apply` —
        the fallback for externally defined scalar-only mixers (e.g. the
        Trotter baselines).  The optimized families override it with BLAS-3 /
        fully vectorized batch kernels, which is where the batched evaluation
        engine's throughput comes from.
        """
        if type(self).apply is Mixer.apply:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither apply nor apply_batch"
            )
        Psi = np.asarray(Psi)
        if Psi.ndim != 2 or Psi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shape {Psi.shape}, expected "
                f"({self.dim}, M) for {self!r}"
            )
        M = Psi.shape[1]
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full(M, float(betas))
        if betas.shape[-1] != M:
            raise ValueError(f"betas have shape {betas.shape}, expected last axis of length {M}")
        if out is None:
            out = np.empty((self.dim, M), dtype=np.complex128)
        column = np.empty(self.dim, dtype=np.complex128)
        result = np.empty(self.dim, dtype=np.complex128)
        for j in range(M):
            column[:] = Psi[:, j]
            beta_j = betas[..., j]
            self.apply(column, float(beta_j) if beta_j.ndim == 0 else beta_j, out=result)
            out[:, j] = result
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Return ``H_M |psi_j>`` for every column ``j`` of the ``(dim, M)`` batch.

        The batched analogue of :meth:`apply_hamiltonian` and the contract the
        batched adjoint-gradient engine relies on: one call produces the
        mixer-Hamiltonian product for all M statevectors at once, so each
        backward-pass round costs one batched kernel instead of M mat-vecs.
        ``out`` may alias ``Psi``; ``workspace`` optionally supplies
        pre-allocated scratch (a
        :class:`~repro.core.workspace.BatchedWorkspace` of matching
        dimension) so repeated calls allocate nothing.  ``Psi`` is never
        modified unless it aliases ``out``.

        This base implementation loops over columns through
        :meth:`apply_hamiltonian` (the scalar-only-mixer fallback); the
        optimized families override it with the same BLAS-3 / fully
        vectorized kernels as their :meth:`apply_batch`.
        """
        if type(self).apply_hamiltonian is Mixer.apply_hamiltonian:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither apply_hamiltonian "
                f"nor apply_hamiltonian_batch"
            )
        Psi = np.asarray(Psi)
        if Psi.ndim != 2 or Psi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shape {Psi.shape}, expected "
                f"({self.dim}, M) for {self!r}"
            )
        M = Psi.shape[1]
        if out is None:
            out = np.empty((self.dim, M), dtype=np.complex128)
        column = np.empty(self.dim, dtype=np.complex128)
        result = np.empty(self.dim, dtype=np.complex128)
        for j in range(M):
            column[:] = Psi[:, j]
            self.apply_hamiltonian(column, out=result)
            out[:, j] = result
        return out

    def _check_batch(
        self, Psi: np.ndarray, out: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Validate a batched call; returns contiguous ``(Psi, out, M)``."""
        Psi = np.asarray(Psi)
        if Psi.ndim != 2 or Psi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shape {Psi.shape}, expected "
                f"({self.dim}, M) for {self!r}"
            )
        M = Psi.shape[1]
        if Psi.dtype != np.complex128 or not Psi.flags.c_contiguous:
            Psi = np.ascontiguousarray(Psi, dtype=np.complex128)
        if out is None:
            out = np.empty((self.dim, M), dtype=np.complex128)
        elif out.shape != (self.dim, M):
            raise ValueError(f"out has shape {out.shape}, expected ({self.dim}, {M})")
        return Psi, out, M

    @staticmethod
    def _batch_angles(betas: np.ndarray, M: int) -> np.ndarray:
        """Normalize per-column angles to a float ``(M,)`` vector."""
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full(M, float(betas))
        if betas.shape != (M,):
            raise ValueError(f"betas have shape {betas.shape}, expected ({M},)")
        return betas

    @abc.abstractmethod
    def matrix(self) -> np.ndarray:
        """Dense ``dim x dim`` matrix of ``H_M`` in the feasible-space basis."""

    # ------------------------------------------------------------------
    # defaults
    # ------------------------------------------------------------------
    def initial_state(self, dtype=np.complex128) -> np.ndarray:
        """Default QAOA initial state: uniform superposition over the space."""
        return self.space.initial_state(dtype=dtype)

    def apply_inverse(
        self, psi: np.ndarray, beta: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Return ``exp(+i beta H_M) |psi>`` (the inverse evolution)."""
        return self.apply(psi, -beta, out=out)

    def cache_key(self) -> str:
        """A string identifying the mixer's pre-computed data for disk caching."""
        return f"{type(self).__name__}_n{self.n}_{self.space.name}"

    def _check_state(self, psi: np.ndarray) -> np.ndarray:
        psi = np.asarray(psi)
        if psi.shape != (self.dim,):
            raise ValueError(
                f"statevector has shape {psi.shape}, expected ({self.dim},) for {self!r}"
            )
        return psi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, dim={self.dim})"


class DiagonalizedMixer(Mixer):
    """A mixer represented by an explicit eigendecomposition ``H_M = V D V^†``.

    This is the general-purpose path of the paper's pre-computation step: the
    decomposition is computed (or loaded from a cache) once, and every layer
    application is two dense matrix-vector products plus a diagonal phase:

        exp(-i beta H_M) |psi> = V exp(-i beta D) V^† |psi> .

    Subclasses (Clique, Ring, arbitrary Hermitian mixers) provide the
    eigenvectors ``V`` and eigenvalues ``D``.
    """

    def __init__(self, space: FeasibleSpace, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        super().__init__(space)
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        eigenvectors = np.asarray(eigenvectors)
        if eigenvalues.shape != (space.dim,):
            raise ValueError(f"eigenvalues have shape {eigenvalues.shape}, expected ({space.dim},)")
        if eigenvectors.shape != (space.dim, space.dim):
            raise ValueError(
                f"eigenvectors have shape {eigenvectors.shape}, expected "
                f"({space.dim}, {space.dim})"
            )
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        # Basis-change factors materialized once, contiguous, in their natural
        # dtype.  A real eigenbasis (real-symmetric mixers such as XY) keeps
        # float64 factors: basis changes then run as real GEMMs over the
        # interleaved re/im view — half the flops of a complex GEMM and no
        # per-call promotion of V to complex128.
        self._real_basis = bool(np.isrealobj(eigenvectors))
        dtype = np.float64 if self._real_basis else np.complex128
        self._V = np.ascontiguousarray(eigenvectors, dtype=dtype)
        self._Vdag = np.ascontiguousarray(self._V.conj().T)
        # historical name, still used by matrix() and external callers
        self._eigenvectors_dag = self._Vdag

    def _basis_change(
        self, factor: np.ndarray, src: np.ndarray, out: np.ndarray, backend=None
    ) -> np.ndarray:
        """``factor @ src`` for complex ``src``/``out``, allocation-free.

        With a real eigenbasis and contiguous operands the product runs as a
        single real GEMM over the interleaved re/im float view, which is exact
        (the factor is real) and avoids per-call complex promotion of the
        factor.  ``out`` must not alias ``src``.  The GEMM dispatches through
        ``backend`` (default: the mixer's own).
        """
        bk = self.backend if backend is None else backend
        if self._real_basis and src.flags.c_contiguous and out.flags.c_contiguous:
            bk.real_gemm(factor, src, out)
        else:
            bk.matmul(factor, src, out=out)
        return out

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched layer: two GEMMs around a per-column eigenphase multiply."""
        Psi, out, M = self._check_batch(Psi, out)
        betas = self._batch_angles(betas, M)
        if workspace is not None:
            coeffs = workspace.scratch(M)
            phases = workspace.phase(M)
            bk = workspace.backend
        else:
            coeffs = np.empty((self.dim, M), dtype=np.complex128)
            phases = np.empty((self.dim, M), dtype=np.complex128)
            bk = self.backend
        self._basis_change(self._Vdag, Psi, coeffs, bk)
        if M > 0 and betas.min() == betas.max():
            # Uniform batch (every column shares one angle): a single phase
            # vector — the first dim elements of the phase buffer —
            # broadcasts across columns, skipping the (dim, M) outer.
            phase_vec = phases.reshape(-1)[: self.dim]
            np.multiply(self.eigenvalues, -1j * float(betas[0]), out=phase_vec)
            np.exp(phase_vec, out=phase_vec)
            coeffs *= phase_vec[:, None]
        else:
            np.multiply(self.eigenvalues[:, None], -1j * betas[None, :], out=phases)
            np.exp(phases, out=phases)
            coeffs *= phases
        self._basis_change(self._V, coeffs, out, bk)
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched ``H_M`` product: two GEMMs around an eigenvalue multiply."""
        Psi, out, M = self._check_batch(Psi, out)
        if workspace is not None:
            coeffs = workspace.scratch(M)
            bk = workspace.backend
        else:
            coeffs = np.empty((self.dim, M), dtype=np.complex128)
            bk = self.backend
        self._basis_change(self._Vdag, Psi, coeffs, bk)
        coeffs *= self.eigenvalues[:, None]
        self._basis_change(self._V, coeffs, out, bk)
        return out

    def matrix(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues[None, :]) @ self._eigenvectors_dag

    def spectral_data(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached ``(eigenvalues, eigenvectors)`` pair."""
        return self.eigenvalues, self.eigenvectors
