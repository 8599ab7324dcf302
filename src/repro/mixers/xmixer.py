"""Pauli-X product mixers (transverse field and generalizations).

For unconstrained problems the paper's optimized path covers any mixer that is
a sum of products of Pauli-X operators,

    H_M = sum_t  c_t  prod_{i in t} X_i ,

which includes the original transverse-field mixer ``sum_i X_i`` and the
Grover mixer's multi-X expansions.  Using ``H Z H = X`` the evolution is

    exp(-i beta H_M) = H^{⊗n}  exp(-i beta f(Z_i))  H^{⊗n} ,

so a single diagonal vector ``d`` (the mixer eigenvalues in the Hadamard
basis) is pre-computed once, and each layer costs two fast Walsh–Hadamard
transforms (``O(n 2^n)``) plus an element-wise phase multiply (Sec. 2.1-2.2 of
the paper).

The diagonal entries follow from ``Z_{i1}...Z_{ik} |x> = (-1)^{popcount(x & mask)} |x>``:

    d[x] = sum_t  c_t  (-1)^{popcount(x & mask_t)} .
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ..hilbert.bitops import popcount
from ..hilbert.subspace import FullSpace
from .base import Mixer

__all__ = [
    "walsh_hadamard_transform",
    "walsh_hadamard_gemm",
    "x_term_diagonal",
    "XMixer",
    "mixer_x",
    "transverse_field_mixer",
    "MultiAngleXMixer",
]


def walsh_hadamard_transform(psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized Walsh–Hadamard transform ``H^{⊗n} |psi>`` in ``O(n 2^n)``.

    ``psi`` is either a single statevector of power-of-two length or a
    ``(dim, M)`` batch of column statevectors (the transform acts along axis
    0, touching all M columns in each butterfly pass).  If ``out`` is provided
    the result is written there (it may alias ``psi``); otherwise a new array
    is returned and ``psi`` is left untouched.
    """
    psi = np.asarray(psi)
    dim = psi.shape[0]
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"statevector length {dim} is not a power of two")
    n = dim.bit_length() - 1

    if out is None:
        out = psi.astype(np.complex128, copy=True)
    elif out is not psi:
        out[:] = psi
    if not out.flags.c_contiguous:
        # The in-place butterfly requires reshape views; round-trip through a
        # contiguous copy for exotic caller-supplied buffers.
        out[:] = walsh_hadamard_transform(np.ascontiguousarray(out))
        return out

    tail = out.shape[1:]
    h = 1
    while h < dim:
        view = out.reshape(-1, 2, h, *tail)
        upper = view[:, 0] + view[:, 1]
        lower = view[:, 0] - view[:, 1]
        view[:, 0] = upper
        view[:, 1] = lower
        h *= 2
    out *= 2.0 ** (-n / 2.0)
    return out


def _hadamard_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker factors of the ``2^n`` Hadamard matrix, split at ``n // 2``.

    ``H^{⊗n} = (H^{⊗kh} ⊗ I) (I ⊗ H^{⊗kl})`` with ``kh = n // 2`` high bits
    and ``kl = n - kh`` low bits, so a batched transform is two dense real
    GEMMs with ``2^kh`` / ``2^kl``-sized (i.e. ~``sqrt(dim)``) factors instead
    of ``n`` bandwidth-bound butterfly passes over the whole batch.
    """
    from scipy.linalg import hadamard

    kh = n // 2
    kl = n - kh
    h_hi = np.ascontiguousarray(hadamard(1 << kh), dtype=np.float64)
    h_lo = np.ascontiguousarray(hadamard(1 << kl), dtype=np.float64)
    return h_hi, h_lo


def walsh_hadamard_gemm(
    src: np.ndarray,
    via: np.ndarray,
    dst: np.ndarray,
    h_hi: np.ndarray,
    h_lo: np.ndarray,
) -> np.ndarray:
    """*Unnormalized* batched WHT of ``(dim, M)`` ``src`` into ``dst`` via two GEMMs.

    Both GEMMs run on the interleaved re/im float view (the Hadamard factors
    are ``±1`` real), which BLAS executes at full rate — multithreaded and far
    above the bandwidth-bound butterfly for large batches.  ``via`` is the
    intermediate buffer: it must be distinct from both ``src`` and ``dst``
    (``src`` and ``dst`` may alias each other).  All three are C-contiguous
    complex128 ``(dim, M)`` arrays.  The caller folds the ``2^{-n/2}``
    normalization into its phase factors.  Returns ``dst``.
    """
    dim_hi = h_hi.shape[0]
    dim_lo = h_lo.shape[0]
    width = 2 * src.shape[1]  # float columns of the interleaved view
    src_f = src.view(np.float64).reshape(dim_hi, dim_lo, width)
    via_f = via.view(np.float64).reshape(dim_hi, dim_lo, width)
    # low bits: one GEMM per high-bit block (a single batched BLAS call)
    np.matmul(h_lo, src_f, out=via_f)
    # high bits: one big GEMM over the flattened (low bits x batch) axis
    np.matmul(
        h_hi,
        via_f.reshape(dim_hi, dim_lo * width),
        out=dst.view(np.float64).reshape(dim_hi, dim_lo * width),
    )
    return dst


def _wht_diagonal_product(
    mixer: "Mixer",
    diagonal: np.ndarray,
    Psi: np.ndarray,
    out: np.ndarray | None,
    workspace,
    hadamard_pair: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Batched ``H^{⊗n} diag(d) H^{⊗n} Psi`` via two GEMM-based WHTs.

    The shared kernel behind every products-of-X ``apply_hamiltonian_batch``:
    both transform normalizations are folded into the diagonal, so the product
    costs four real GEMMs plus one elementwise pass for all M columns.
    """
    Psi, out, M = mixer._check_batch(Psi, out)
    if workspace is not None:
        scratch = workspace.scratch(M)
        bk = workspace.backend
    else:
        scratch = np.empty((mixer.dim, M), dtype=np.complex128)
        bk = mixer.backend
    h_hi, h_lo = hadamard_pair
    bk.wht_gemm(Psi, scratch, out, h_hi, h_lo)
    out *= (diagonal * (1.0 / mixer.dim))[:, None]
    bk.wht_gemm(out, scratch, out, h_hi, h_lo)
    return out


def x_term_diagonal(
    terms: Sequence[Sequence[int]], coefficients: Sequence[float], n: int
) -> np.ndarray:
    """Eigenvalues (in the Hadamard basis) of ``sum_t c_t prod_{i in t} X_i``.

    Returns a length-``2^n`` float array ``d`` with
    ``d[x] = sum_t c_t (-1)^{popcount(x & mask_t)}``.
    """
    labels = np.arange(1 << n, dtype=np.uint64)
    diag = np.zeros(1 << n, dtype=np.float64)
    for term, coeff in zip(terms, coefficients):
        mask = 0
        for qubit in term:
            if not 0 <= qubit < n:
                raise ValueError(f"qubit index {qubit} out of range for n={n}")
            if mask >> qubit & 1:
                raise ValueError(f"duplicate qubit {qubit} in mixer term {tuple(term)}")
            mask |= 1 << qubit
        signs = 1.0 - 2.0 * (popcount(labels & np.uint64(mask)) & 1)
        diag += coeff * signs
    return diag


class XMixer(Mixer):
    """Mixer built from a sum of products of Pauli-X operators (unconstrained).

    Parameters
    ----------
    n:
        Number of qubits; the mixer acts on the full ``2^n`` space.
    terms:
        Iterable of qubit-index tuples; each tuple ``t`` contributes
        ``prod_{i in t} X_i``.
    coefficients:
        Optional per-term coefficients (default all 1).
    """

    def __init__(
        self,
        n: int,
        terms: Iterable[Sequence[int]],
        coefficients: Sequence[float] | None = None,
    ):
        super().__init__(FullSpace(n))
        terms = [tuple(int(q) for q in term) for term in terms]
        if not terms:
            raise ValueError("an X mixer needs at least one term")
        if coefficients is None:
            coefficients = [1.0] * len(terms)
        coefficients = [float(c) for c in coefficients]
        if len(coefficients) != len(terms):
            raise ValueError("coefficients and terms must have the same length")
        self.terms = terms
        self.coefficients = coefficients
        # The pre-computed Hadamard-basis diagonal: the only per-mixer data the
        # simulation loop ever touches.
        self.diagonal = x_term_diagonal(terms, coefficients, n)
        # X-mixer spectra take few distinct values (the transverse field has
        # n + 1), so batched eigenphases are an exp over (levels, M) plus a
        # gather instead of an exp over the full (dim, M) matrix.
        self._diag_values, self._diag_inverse = np.unique(self.diagonal, return_inverse=True)
        self._hadamard_pair = _hadamard_factors(n)

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched layer: two GEMM-based WHTs around a per-column phase multiply.

        The Hadamard transform is factored into two ``~sqrt(dim)``-sized real
        GEMMs (:func:`walsh_hadamard_gemm`), the ``2^{-n/2}`` normalizations
        of both transforms are folded into the phase factors, and the phase
        factors themselves come from a distinct-eigenvalue table — so a layer
        costs four BLAS-3 calls plus two elementwise passes for all M angle
        sets.
        """
        Psi, out, M = self._check_batch(Psi, out)
        betas = self._batch_angles(betas, M)
        if workspace is not None:
            scratch = workspace.scratch(M)
            phases = workspace.phase(M)
            bk = workspace.backend
        else:
            scratch = np.empty((self.dim, M), dtype=np.complex128)
            phases = np.empty((self.dim, M), dtype=np.complex128)
            bk = self.backend
        # eigenphases x (1/dim): the latter absorbs both transform norms
        levels = self._diag_values
        scale = 1.0 / self.dim
        if levels.size * 4 <= self.dim:
            table = np.empty((levels.size, M), dtype=np.complex128)
            np.multiply(levels[:, None], -1j * betas[None, :], out=table)
            np.exp(table, out=table)
            table *= scale
            np.take(table, self._diag_inverse, axis=0, out=phases)
        else:
            np.multiply(self.diagonal[:, None], -1j * betas[None, :], out=phases)
            np.exp(phases, out=phases)
            phases *= scale
        h_hi, h_lo = self._hadamard_pair
        bk.wht_gemm(Psi, scratch, out, h_hi, h_lo)
        out *= phases
        bk.wht_gemm(out, scratch, out, h_hi, h_lo)
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched ``H_M`` product (see :func:`_wht_diagonal_product`)."""
        return _wht_diagonal_product(
            self, self.diagonal, Psi, out, workspace, self._hadamard_pair
        )

    def matrix(self) -> np.ndarray:
        dim = self.dim
        # H^{⊗n} diag(d) H^{⊗n}, built column by column (test/inspection use only).
        mat = np.empty((dim, dim), dtype=np.complex128)
        basis = np.zeros(dim, dtype=np.complex128)
        for j in range(dim):
            basis[:] = 0.0
            basis[j] = 1.0
            column = walsh_hadamard_transform(basis)
            column *= self.diagonal
            mat[:, j] = walsh_hadamard_transform(column)
        return mat

    def cache_key(self) -> str:
        body = "_".join("".join(map(str, t)) for t in self.terms)
        digest = hash((tuple(self.terms), tuple(self.coefficients))) & 0xFFFFFFFF
        return f"XMixer_n{self.n}_{digest:x}_{body[:32]}"


def mixer_x(orders: Sequence[int], n: int, coefficients: Sequence[float] | None = None) -> XMixer:
    """Build an X mixer from interaction orders, mirroring the paper's ``mixer_X``.

    ``orders=[1]`` gives the transverse-field mixer ``sum_i X_i``;
    ``orders=[1, 2]`` additionally includes all two-body ``X_i X_j`` products,
    and so on.  ``coefficients`` optionally weights each order.
    """
    if not orders:
        raise ValueError("at least one interaction order is required")
    if coefficients is not None and len(coefficients) != len(orders):
        raise ValueError("coefficients must match the number of orders")
    terms: list[tuple[int, ...]] = []
    coeffs: list[float] = []
    for idx, order in enumerate(orders):
        if not 1 <= order <= n:
            raise ValueError(f"interaction order {order} out of range for n={n}")
        weight = 1.0 if coefficients is None else float(coefficients[idx])
        for combo in combinations(range(n), order):
            terms.append(combo)
            coeffs.append(weight)
    return XMixer(n, terms, coeffs)


def transverse_field_mixer(n: int) -> XMixer:
    """The standard transverse-field mixer ``sum_i X_i``."""
    return mixer_x([1], n)


class MultiAngleXMixer(Mixer):
    """Multi-angle variant: each X term gets its own angle (Herrman et al. 2021).

    All products of X operators commute, so a layer with per-term angles
    ``beta_t`` is exactly ``H^{⊗n} exp(-i sum_t beta_t d_t) H^{⊗n}`` where
    ``d_t`` is the Hadamard-basis diagonal of term ``t``.  ``apply`` therefore
    takes a vector of angles of length ``num_terms``.
    """

    def __init__(self, n: int, terms: Iterable[Sequence[int]]):
        super().__init__(FullSpace(n))
        terms = [tuple(int(q) for q in term) for term in terms]
        if not terms:
            raise ValueError("a multi-angle X mixer needs at least one term")
        self.terms = terms
        self.term_diagonals = np.stack([x_term_diagonal([t], [1.0], n) for t in terms], axis=0)
        self._summed_diagonal = self.term_diagonals.sum(axis=0)
        # (dim, num_terms) factor pre-scaled by -i, so the batched per-column
        # phase exponents are a single GEMM with the (num_terms, M) angles.
        self._term_diag_T_negj = np.ascontiguousarray(-1j * self.term_diagonals.T)
        self._hadamard_pair = _hadamard_factors(n)

    @property
    def num_angles(self) -> int:
        """Number of independent angles in one layer."""
        return len(self.terms)

    def apply(
        self,
        psi: np.ndarray,
        beta,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One multi-angle layer; ``beta`` is a ``(num_angles,)`` vector.

        A scalar (or length-1) ``beta`` broadcasts across all terms.  The
        generic M=1 wrapper can't normalize a multi-angle vector, so this
        override reshapes it to a ``(num_angles, 1)`` batch and defers to
        :meth:`apply_batch` like every other scalar entry point.
        """
        betas = np.atleast_1d(np.asarray(beta, dtype=np.float64))
        if betas.shape == (1,) and self.num_angles > 1:
            betas = np.full(self.num_angles, betas[0])
        if betas.shape != (self.num_angles,):
            raise ValueError(
                f"expected {self.num_angles} angles for a multi-angle layer, got {betas.shape}"
            )
        return self._scalar_via_batch(
            lambda Psi, target, workspace: self.apply_batch(
                Psi, betas[:, None], out=target, workspace=workspace
            ),
            psi,
            out,
        )

    def apply_batch(
        self,
        Psi: np.ndarray,
        betas: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched multi-angle layer.

        ``betas`` is a ``(num_angles, M)`` matrix — one angle per term per
        column; a ``(M,)`` vector or scalar broadcasts across terms like the
        scalar :meth:`apply`.  The per-column phase exponents are one GEMM
        (``-i * D^T @ betas``), then the layer is two batched WHTs.
        """
        Psi, out, M = self._check_batch(Psi, out)
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim == 0:
            betas = np.full((self.num_angles, M), float(betas))
        elif betas.ndim == 1:
            if betas.shape != (M,):
                raise ValueError(f"betas have shape {betas.shape}, expected ({M},)")
            # materialized (not a zero-stride broadcast view) so the phase
            # GEMM below stays dispatchable on every backend
            betas = np.ascontiguousarray(np.broadcast_to(betas, (self.num_angles, M)))
        if betas.shape != (self.num_angles, M):
            raise ValueError(f"betas have shape {betas.shape}, expected ({self.num_angles}, {M})")
        if workspace is not None:
            scratch = workspace.scratch(M)
            phases = workspace.phase(M)
            bk = workspace.backend
        else:
            scratch = np.empty((self.dim, M), dtype=np.complex128)
            phases = np.empty((self.dim, M), dtype=np.complex128)
            bk = self.backend
        bk.matmul(self._term_diag_T_negj, np.ascontiguousarray(betas), out=phases)
        np.exp(phases, out=phases)
        phases *= 1.0 / self.dim  # absorbs both transforms' 2^{-n/2} norms
        h_hi, h_lo = self._hadamard_pair
        bk.wht_gemm(Psi, scratch, out, h_hi, h_lo)
        out *= phases
        bk.wht_gemm(out, scratch, out, h_hi, h_lo)
        return out

    def apply_hamiltonian_batch(
        self,
        Psi: np.ndarray,
        out: np.ndarray | None = None,
        *,
        workspace=None,
    ) -> np.ndarray:
        """Batched summed-Hamiltonian product (see :func:`_wht_diagonal_product`)."""
        return _wht_diagonal_product(
            self, self._summed_diagonal, Psi, out, workspace, self._hadamard_pair
        )

    def term_gradients_batch(
        self,
        Phi: np.ndarray,
        Psi: np.ndarray,
        *,
        workspace=None,
    ) -> np.ndarray:
        """``2 Im <phi_j | H_t | psi_j>`` for every term ``t`` and column ``j``.

        The per-term beta derivatives of one multi-angle layer for a whole
        batch, shape ``(num_angles, M)``.  Because every ``H_t`` is diagonal
        in the Hadamard basis, both batches are transformed once and all
        ``num_angles * M`` inner products collapse into a single real GEMM
        with the stacked term diagonals — instead of the scalar path's
        ``num_angles`` separate Hamiltonian products per column.  ``Phi`` and
        ``Psi`` must be C-contiguous complex ``(dim, M)`` matrices; neither is
        modified.
        """
        Phi = np.asarray(Phi)
        Psi = np.asarray(Psi)
        if Phi.shape != Psi.shape or Phi.ndim != 2 or Phi.shape[0] != self.dim:
            raise ValueError(
                f"batched statevectors have shapes {Phi.shape} / {Psi.shape}, "
                f"expected matching ({self.dim}, M) for {self!r}"
            )
        M = Phi.shape[1]
        if workspace is not None:
            via = workspace.scratch(M)
            wphi = workspace.phase(M)
            wpsi = workspace.aux(M)
            bk = workspace.backend
        else:
            via = np.empty((self.dim, M), dtype=np.complex128)
            wphi = np.empty((self.dim, M), dtype=np.complex128)
            wpsi = np.empty((self.dim, M), dtype=np.complex128)
            bk = self.backend
        h_hi, h_lo = self._hadamard_pair
        bk.wht_gemm(Phi, via, wphi, h_hi, h_lo)
        bk.wht_gemm(Psi, via, wpsi, h_hi, h_lo)
        # A = conj(W phi) * (W psi); both transforms are unnormalized, so A
        # carries an extra factor of dim that the final scale removes.
        np.conjugate(wphi, out=wphi)
        wphi *= wpsi
        # One real GEMM against the interleaved re/im view gives the real and
        # imaginary parts of every <W phi| d_t |W psi> side by side.
        products = bk.matmul(
            self.term_diagonals, wphi.view(np.float64).reshape(self.dim, 2 * M)
        )
        return (2.0 / self.dim) * products[:, 1::2]

    def apply_hamiltonian_term(self, psi: np.ndarray, term_index: int) -> np.ndarray:
        """``(prod_{i in t} X_i) |psi>`` for a single term (per-angle gradients)."""
        psi = self._check_state(psi)
        scratch = walsh_hadamard_transform(psi)
        scratch *= self.term_diagonals[term_index]
        return walsh_hadamard_transform(scratch)

    def matrix(self) -> np.ndarray:
        dim = self.dim
        mat = np.empty((dim, dim), dtype=np.complex128)
        basis = np.zeros(dim, dtype=np.complex128)
        diag = self.term_diagonals.sum(axis=0)
        for j in range(dim):
            basis[:] = 0.0
            basis[j] = 1.0
            column = walsh_hadamard_transform(basis)
            column *= diag
            mat[:, j] = walsh_hadamard_transform(column)
        return mat
