"""Finite-dimensional complex Hilbert-space arithmetic.

States are dense complex vectors, operators dense complex matrices.
Tensor products use Kronecker ordering with the first factor major
(``tensor_product(a, b)`` indexes ``i_a * b.dim + i_b``), consistently
everywhere in the package.  Global phase is never canonicalized; use
:func:`fidelity` for phase-insensitive comparison.

A density matrix is checked at construction, and a NaN deviation fails
every check.  :class:`OperatorMatrix` is only the dense matrix a caller
asked for: a hermitian one has one constructor,
:meth:`OperatorMatrix.hermitian_from_nonzeros`, which builds it from its
nonzeros and checks it in O(nnz); only allocating the zero-filled array
scales with dim^2.  Unitarity is checked where the matrix is made, as
orthonormal columns (see :mod:`clonesim.copying`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

#: Default absolute tolerance for all numeric checks (double precision on
#: dims up to ~1e3).
DEFAULT_ATOL = 1e-10


def max_abs(values: np.ndarray) -> float:
    """Max-norm of an array, 0.0 for empty input."""
    arr = np.asarray(values)
    return float(np.abs(arr).max()) if arr.size else 0.0


def _power_of_two_scaled(values: np.ndarray) -> np.ndarray:
    """``values`` times the power of two that puts their largest modulus in [0.5, 1).

    The scaling is exact, so a normalization after it rounds bit for bit as
    it would without it, while squaring the entries can neither overflow nor
    underflow whatever their scale.  The factor is applied in two halves,
    which stay in the float range even for a subnormal largest modulus.
    Values already in range, and all-zero ones, are returned as they are.
    """
    exponent = -math.frexp(max_abs(values))[1]
    return values * 2.0 ** (exponent // 2) * 2.0 ** (exponent - exponent // 2) if exponent else values


def _frozen_complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized-or-near state vector.

    Amplitudes are dimensionless and must be finite; the constructor does
    not normalize, call :meth:`normalize` to enforce unit norm.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen_complex_array(self.amplitudes, 1))
        if self.dim < 1:
            raise ValueError("a Ket needs at least one amplitude")
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("Ket amplitudes must be finite")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def normalize(self) -> "Ket":
        """A unit-norm copy, the same at any scale; error on the all-zero vector."""
        scaled = _power_of_two_scaled(self.amplitudes)
        n = float(np.linalg.norm(scaled))
        if not n:
            raise ValueError("cannot normalize a zero vector")
        return Ket(scaled / n)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "Ket":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ket(dim={self.dim}, {np.array2string(self.amplitudes, precision=4)})"


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix, frozen at construction.

    Hermitian matrices come from :meth:`hermitian_from_nonzeros`.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen_complex_array(self.entries, 2))

    @classmethod
    def hermitian_from_nonzeros(
        cls, dim: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "OperatorMatrix":
        """The dim x dim hermitian matrix with ``values`` at (``rows``, ``cols``)
        and zeros elsewhere, both triangles listed.

        A repeated position keeps its last value.  Every unwritten entry is
        zero, so ``max |M[r, c] - conj(M[c, r])|`` over the written
        positions, read back from the final array, equals the dense
        ``max |M - M^dagger|``: the check costs O(nnz) and the array is
        frozen without a copy.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        values = np.asarray(values, dtype=complex)
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, cols and values must be 1-dimensional and of equal length")
        if rows.size and not (0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < dim):
            raise ValueError(f"nonzero positions must lie in [0, {dim})")
        entries = np.zeros((dim, dim), dtype=complex)
        entries[rows, cols] = values
        deviation = max_abs(entries[rows, cols] - entries[cols, rows].conj())
        if not deviation < DEFAULT_ATOL:
            raise ValueError(f"matrix flagged hermitian but ||M - M^dag||_max = {deviation:.3e}")
        entries.setflags(write=False)
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        return matrix


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (all within ``DEFAULT_ATOL``)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen_complex_array(self.entries, 2))
        if self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("density matrix must be square")
        if not max_abs(self.entries - self.entries.conj().T) < DEFAULT_ATOL:
            raise ValueError("density matrix is not hermitian within tolerance")
        if not abs(np.trace(self.entries) - 1.0) < DEFAULT_ATOL:
            raise ValueError(f"density matrix trace {np.trace(self.entries):.6g} != 1")
        eigenvalues = np.linalg.eigvalsh(self.entries)
        if not eigenvalues.min() >= -DEFAULT_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min():.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityMatrix":
        v = ket.normalize().amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


def tensor_product(a: Ket, b: Ket) -> Ket:
    """Kronecker product of two kets, first factor major; norm multiplies.

    The broadcast multiply that ``np.kron`` performs for vectors, without
    its dispatch, so the result equals ``np.kron`` bit for bit.
    """
    return Ket((a.amplitudes[:, None] * b.amplitudes[None, :]).ravel())


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b> with conjugation on the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"inner product between dims {a.dim} and {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: Ket, b: Ket) -> float:
    """|<a|b>|^2, invariant under global phase of either argument."""
    return abs(inner_product(a, b)) ** 2


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Reduced density matrix over subsystem ``keep`` ("A" or "B").

    ``dims = (d_A, d_B)`` must factor ``rho.dim`` with A the major
    (first) tensor factor.
    """
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or d_a * d_b != rho.dim:
        raise DimensionMismatchError(f"dims {dims} do not factor density matrix of dim {rho.dim}")
    if keep not in ("A", "B"):
        raise ValueError("keep must be 'A' or 'B'")
    blocks = rho.entries.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        reduced = np.einsum("ijkj->ik", blocks)
    else:
        reduced = np.einsum("ijil->jl", blocks)
    return DensityMatrix(reduced)


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    """Seeded random state: draw a real Gaussian vector, then an imaginary
    Gaussian vector (two consecutive ``standard_normal(dim)`` calls), then
    normalize.  This exact draw order is the reproducibility contract for
    seeded experiment fixtures.
    """
    real = rng.standard_normal(dim)
    imag = rng.standard_normal(dim)
    return Ket(real + 1j * imag).normalize()
