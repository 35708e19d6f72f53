"""Finite-dimensional complex Hilbert-space arithmetic.

States are dense complex vectors, operators dense complex matrices.
Tensor products use Kronecker ordering with the first factor major
(the product of a and b indexes ``i_a * b.size + i_b``), consistently
everywhere in the package.  Global phase is never canonicalized.

Normalization has one arithmetic, shared by :meth:`Ket.normalize`,
:func:`random_ket` and every kernel that normalizes a vector before it
becomes a :class:`Ket`: an exact power-of-two scaling, then a divide by
the norm that ``np.linalg.norm`` computes, in the same pass that refuses
non-finite amplitudes and the all-zero vector.

A density matrix is checked at construction, and a NaN deviation fails
every check.  :class:`OperatorMatrix` is only the dense matrix a caller
asked for, and has one constructor.  Each property of the matrix is
checked, or holds by construction, where the matrix is made: unitarity
as orthonormal columns (see :mod:`clonesim.copying`), and hermiticity by
writing both triangles from the same values (see
:func:`clonesim.emission.build_interaction_hamiltonian`).  A maker that
hands over the complex array it owns, frozen, has it kept without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: Default absolute tolerance for all numeric checks (double precision on
#: dims up to ~1e3).
DEFAULT_ATOL = 1e-10


def max_abs(values: np.ndarray) -> float:
    """Max-norm of an array, 0.0 for empty input."""
    arr = np.asarray(values)
    return float(np.abs(arr).max()) if arr.size else 0.0


def _power_of_two_scaled(values: np.ndarray, largest: float | None = None) -> np.ndarray:
    """``values`` times the power of two that puts their largest modulus in [0.5, 1).

    The scaling is exact, so a normalization after it rounds bit for bit as
    it would without it, while squaring the entries can neither overflow nor
    underflow whatever their scale.  The factor is applied in two halves,
    which stay in the float range even for a subnormal largest modulus.
    Values already in range, and all-zero ones, are returned as they are.
    ``largest`` is ``max_abs(values)``, when the caller has read it.
    """
    exponent = -math.frexp(max_abs(values) if largest is None else largest)[1]
    return values * 2.0 ** (exponent // 2) * 2.0 ** (exponent - exponent // 2) if exponent else values


def _unit(values: np.ndarray) -> np.ndarray:
    """The complex vector ``values`` divided by its norm, the same at any scale.

    The exact power-of-two scaling comes first, then a divide by
    ``sqrt(re.re + im.im)``: the arithmetic of ``np.linalg.norm`` for a
    complex vector, so the divisor equals that norm bit for bit.  Non-finite
    input is refused through the largest modulus that the scaling reads,
    and the all-zero vector through its norm.
    """
    largest = max_abs(values)
    if not math.isfinite(largest):
        raise ValueError("Ket amplitudes must be finite")
    scaled = _power_of_two_scaled(values, largest)
    re, im = scaled.real, scaled.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if not norm:
        raise ValueError("cannot normalize a zero vector")
    return scaled / norm


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, first factor major.

    The broadcast multiply that ``np.kron`` performs for vectors, without
    its dispatch, so the result equals ``np.kron`` bit for bit.
    """
    return (a[:, None] * b[None, :]).ravel()


def _frozen_complex_array(values, ndim: int) -> np.ndarray:
    """``values`` as a read-only complex array of ``ndim`` dimensions.

    An ndarray that is complex128, owns its data and is read-only is kept
    as it is: no view of it can be made writable, so its maker, which froze
    it, hands it over.  Anything else is copied.
    """
    frozen = type(values) is np.ndarray and values.flags.owndata and not values.flags.writeable
    arr = values if frozen and values.dtype == complex else np.array(values, dtype=complex)
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
        return Ket(_unit(self.amplitudes))

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
    """Dense complex matrix, frozen at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen_complex_array(self.entries, 2))


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


def _random_unit(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The amplitudes of :func:`random_ket`, as a plain array."""
    real = rng.standard_normal(dim)
    imag = rng.standard_normal(dim)
    return _unit(real + 1j * imag)


def random_ket(dim: int, rng: np.random.Generator) -> Ket:
    """Seeded random state: draw a real Gaussian vector, then an imaginary
    Gaussian vector (two consecutive ``standard_normal(dim)`` calls), then
    normalize.  This exact draw order is the reproducibility contract for
    seeded experiment fixtures.
    """
    return Ket(_random_unit(dim, rng))
