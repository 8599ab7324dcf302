"""The :class:`ArrayBackend` protocol.

The paper's pre-computation and state evolution are "spread across many
threads or GPUs"; on our side every hot path was reduced to a handful of
dense-algebra primitives (PRs 1/3/6): complex/real GEMMs, ``einsum``
contractions and the GEMM-factored Walsh–Hadamard transform.  An
:class:`ArrayBackend` packages exactly those primitives so the same kernels
can execute on NumPy (default) or PyTorch without any algorithmic change.

Storage policy
--------------
Host-resident ``numpy`` arrays are the interchange format: every primitive
accepts and returns numpy arrays (honouring ``out=`` buffers), so the
pre-allocated :class:`~repro.core.workspace.BatchedWorkspace` buffers, the
in-place butterflies and the interleaved re/im float views all keep working
unchanged on every backend.  CPU backends dispatch zero-copy (torch wraps the
same memory); a CUDA device transfers operands per call.  ``asarray`` /
``to_numpy`` convert explicitly for callers that want to hold native arrays.

Dtype policy
------------
Pinned: ``complex128`` statevectors, ``float64`` factors/diagonals/angles on
every backend.  The equivalence gates (numpy-vs-torch ``<= 1e-10``) only hold
in double precision, so backends never down-cast silently.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """Dense-kernel primitives over host numpy storage (see module docstring).

    Concrete backends implement :meth:`matmul`, :meth:`einsum`,
    :meth:`tensordot` and the converters; the Walsh–Hadamard and
    interleaved-real-GEMM helpers are derived from :meth:`matmul` here so a
    backend is correct as soon as its GEMM is.
    """

    #: canonical registry name ("numpy", "torch")
    name: str = "abstract"
    #: pinned statevector dtype (never down-cast)
    complex_dtype = np.complex128
    #: pinned factor/diagonal/angle dtype
    real_dtype = np.float64

    # ------------------------------------------------------------------
    # capability / identity
    # ------------------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def available(cls) -> bool:
        """Whether the backing library is importable (must never raise)."""

    @property
    def device(self) -> str:
        """Device the dense kernels execute on (``"cpu"``, ``"cuda:0"``, ...)."""
        return "cpu"

    @property
    @abc.abstractmethod
    def xp(self):
        """The backend's native array namespace (``numpy``, ``torch``)."""

    # ------------------------------------------------------------------
    # converters / allocation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def asarray(self, x, dtype=None):
        """``x`` as a backend-native array (on the backend's device)."""

    @abc.abstractmethod
    def to_numpy(self, x) -> np.ndarray:
        """``x`` (native array or array-like) as a host numpy array."""

    def empty(self, shape, dtype=None) -> np.ndarray:
        """A host buffer in the pinned dtype (the workspace allocation hook)."""
        return np.empty(shape, dtype=self.complex_dtype if dtype is None else dtype)

    # ------------------------------------------------------------------
    # dense primitives (numpy in / numpy out)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``a @ b`` with numpy broadcasting semantics, written into ``out``.

        ``a`` is treated as the (reusable) operator factor — CUDA backends may
        cache it device-side — and ``b``/``out`` as per-call activations.
        """

    @abc.abstractmethod
    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """``einsum`` over numpy operands (the batched inner-product reductions)."""

    @abc.abstractmethod
    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        """``tensordot`` over numpy operands (the gate-by-gate baseline)."""

    # ------------------------------------------------------------------
    # derived helpers (shared by every backend)
    # ------------------------------------------------------------------
    def real_gemm(self, factor: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``factor @ src`` for a real ``factor`` and complex ``src``/``out``.

        Runs one real GEMM over the interleaved re/im float view — exact
        (the factor is real) and half the flops of a complex GEMM.  ``src``
        and ``out`` must be C-contiguous complex128 and must not alias.
        """
        self.matmul(
            factor,
            src.view(np.float64).reshape(src.shape[0], -1),
            out=out.view(np.float64).reshape(out.shape[0], -1),
        )
        return out

    def wht_gemm(
        self,
        src: np.ndarray,
        via: np.ndarray,
        dst: np.ndarray,
        h_hi: np.ndarray,
        h_lo: np.ndarray,
    ) -> np.ndarray:
        """*Unnormalized* batched Walsh–Hadamard transform via two real GEMMs.

        The FFT-free transform of the products-of-X mixers: ``H^{⊗n}`` is
        factored into two ``~sqrt(dim)``-sized ``±1`` Hadamard factors and
        both GEMMs run on the interleaved re/im float view.  ``src``/``via``/
        ``dst`` are C-contiguous complex128 ``(dim, M)`` matrices; ``via``
        must be distinct from both others (``src`` may alias ``dst``).  The
        caller folds the ``2^{-n/2}`` normalization into its phase factors.
        """
        dim_hi = h_hi.shape[0]
        dim_lo = h_lo.shape[0]
        width = 2 * src.shape[1]  # float columns of the interleaved view
        src_f = src.view(np.float64).reshape(dim_hi, dim_lo, width)
        via_f = via.view(np.float64).reshape(dim_hi, dim_lo, width)
        # low bits: one GEMM per high-bit block (a single batched call)
        self.matmul(h_lo, src_f, out=via_f)
        # high bits: one big GEMM over the flattened (low bits x batch) axis
        self.matmul(
            h_hi,
            via_f.reshape(dim_hi, dim_lo * width),
            out=dst.view(np.float64).reshape(dim_hi, dim_lo * width),
        )
        return dst

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Backend-specific library/device details for ``repro backend-info``."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"
