"""State-dependent quantum copying.

A copy machine is defined by a pair of orthonormal bases of C^n, held as
the columns of two n x n matrices: the system basis S = (|s_1> .. |s_n>)
and the ancilla basis A = (|a_1> .. |a_n>).  The copy unitary U acts on
the n^2-dimensional product space by

    U (|s_i> (x) |a_j>) = |s_i> (x) |s_j>   for all i, j,

and the ancilla map V = A S^dagger sends |s_i> to |a_i>.  Preparing the
ancilla as V|psi> and applying U copies *every* state |psi> perfectly,
because all copying content lives in V: structurally U = I (x) V^dagger.
:class:`CopyBasis` checks S, A and V once and holds V as a plain frozen
array, and each copy is formed directly as psi (x) V^dagger|ancilla>;
the dense U is built only on request.  ``CopyBasis.computational(n)`` is
one shared instance per n, like the one fixed machine it models.  S, A,
V and U pass one check, for orthonormal columns.  Feeding the same U a
fixed ancilla instead copies only the matching basis ray, which is the
content of the no-cloning restriction this module also witnesses.  The
witness rule (the residual |s - s^2| and whether s is within
``WITNESS_ATOL`` of 0 or 1) is array-only; the ``no-cloning-witness``
runner applies it once, to its sweep or its one overlap, and its checks
hold each verdict against its residual: positive for a CONTRADICTION, at
most 2 * ``WITNESS_ATOL`` for a CONSISTENT overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import BasisError, DimensionMismatchError
from .hilbert import DEFAULT_ATOL, Ket, OperatorMatrix, _kron, max_abs

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_CONTRADICTION = "CONTRADICTION"

#: An overlap is CONSISTENT when it lies within this of 0 or of 1, and |s|
#: may exceed 1 by this much.
WITNESS_ATOL = 1e-12


def _frozen_basis(name: str, columns) -> np.ndarray:
    """``columns`` as a read-only complex matrix, once it is a finite,
    non-empty unitary: square, with orthonormal columns."""
    matrix = np.array(columns, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise BasisError(f"{name} must be a non-empty square matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise BasisError(f"{name} entries must be finite")
    deviation = max_abs(matrix.conj().T @ matrix - np.eye(len(matrix)))
    if not deviation < DEFAULT_ATOL:
        raise BasisError(f"{name} is not orthonormal (deviation {deviation:.3e})")
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class CopyBasis:
    """Orthonormal system and ancilla bases of equal dimension n.

    ``system`` (S) and ``ancilla`` (A) are n x n matrices whose columns are
    the basis kets; ``v`` is the ancilla map V = A S^dagger.  All three are
    checked once, at construction, and frozen as plain arrays.  The ancilla
    space is taken to have the same dimension as the system space, so the
    n^2 defining relations determine the copy unitary on the whole product
    space.
    """

    system: np.ndarray
    ancilla: np.ndarray
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        system = _frozen_basis("system basis", self.system)
        ancilla = _frozen_basis("ancilla basis", self.ancilla)
        if system.shape != ancilla.shape:
            raise BasisError(f"system and ancilla bases differ in shape: {system.shape} and {ancilla.shape}")
        v = _frozen_basis("ancilla map V = A S^dagger", ancilla @ system.conj().T)
        for name, value in (("system", system), ("ancilla", ancilla), ("v", v)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.system.shape[0]

    @classmethod
    def computational(cls, n: int) -> "CopyBasis":
        """Both bases equal to the canonical basis of C^n.

        One shared instance per n, from a bounded cache, so its checks run
        once per n in a process: a basis is frozen and its arrays read-only.
        """
        return _computational_basis(n)


# Eight slots hold every n that a sweep over a few dims revisits; one basis
# is 3 MB at n = 256.
@lru_cache(maxsize=8, typed=True)
def _computational_basis(n: int) -> CopyBasis:
    return CopyBasis(np.eye(n), np.eye(n))


@dataclass(frozen=True, eq=False)
class CloneReport:
    """Result of one copying run.

    ``fidelity`` (|<input (x) input|output>|^2) is derived at construction
    from the other fields' amplitudes; the output's dim must be the input's squared.
    """

    input: Ket
    ancilla: Ket
    output: Ket
    fidelity: float = field(init=False)

    def __post_init__(self) -> None:
        psi = self.input.amplitudes
        if self.output.dim != psi.shape[0] ** 2:
            raise DimensionMismatchError(f"output dim {self.output.dim} != input dim {psi.shape[0]} squared")
        overlap = complex(np.vdot(_kron(psi, psi), self.output.amplitudes))
        object.__setattr__(self, "fidelity", abs(overlap) ** 2)


def build_copy_unitary(basis: CopyBasis) -> OperatorMatrix:
    """The n^2 x n^2 unitary assembled from the defining relations.

    Columns of kron(S, A) are the input product basis kets |s_i>(x)|a_j>
    and columns of kron(S, S) the corresponding outputs, so
    U = kron(S, S) kron(S, A)^dagger realizes all n^2 relations at once.
    This is the explicit dense materialization of U = I (x) V^dagger for
    callers that ask for the matrix; every copying path forms its copy
    from V directly and never builds it.
    """
    s, a = basis.system, basis.ancilla
    return OperatorMatrix(_frozen_basis("copy unitary U", np.kron(s, s) @ np.kron(s, a).conj().T))


def clone(input: Ket, basis: CopyBasis) -> CloneReport:
    """Copy ``input`` with the matched, state-prepared ancilla.

    The input is normalized, at any scale.  The ancilla is V|input> and
    the output input (x) V^dagger|ancilla>, U = I (x) V^dagger applied in
    O(n^2) without building the O(n^6) dense U; the report compares the
    output against input (x) input.  Fidelity is 1 for every input state.
    """
    psi = input.normalize()
    ancilla = Ket(basis.v @ psi.amplitudes)
    output = Ket(_kron(psi.amplitudes, basis.v.conj().T @ ancilla.amplitudes))
    return CloneReport(input=psi, ancilla=ancilla, output=output)


def clone_with_fixed_ancilla(input: Ket, fixed_ancilla_index: int, basis: CopyBasis) -> CloneReport:
    """Run the same copy map with a fixed basis ancilla |a_k>.

    The output is input (x) |s_k>, so the reported fidelity equals
    |<input|s_k>|^2: strictly below 1 unless the input is the k-th basis
    ray.  This is the forbidden universal configuration, exercised to
    exhibit its failure.
    """
    if isinstance(fixed_ancilla_index, bool) or not isinstance(fixed_ancilla_index, Integral):
        raise IndexError(f"ancilla index {fixed_ancilla_index!r} is not an integer")
    if not 0 <= fixed_ancilla_index < basis.n:
        raise IndexError(f"ancilla index {fixed_ancilla_index} out of range for n={basis.n}")
    psi = input.normalize()
    ancilla = Ket(basis.ancilla[:, fixed_ancilla_index])
    output = Ket(_kron(psi.amplitudes, basis.v.conj().T @ ancilla.amplitudes))
    return CloneReport(input=psi, ancilla=ancilla, output=output)


def _witness_rule(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual |s - s^2| and whether s is CONSISTENT, that is within
    ``WITNESS_ATOL`` of 0 or of 1, elementwise over an array of overlaps.

    One unitary that cloned two states of overlap s with one fixed ancilla
    would preserve their inner product, so s = s^2 would have to hold; only
    s in {0, 1} survives.  The residual is the linearity obstruction behind
    the no-cloning theorem.
    """
    return np.abs(s - s * s), np.minimum(np.abs(s), np.abs(s - 1)) <= WITNESS_ATOL
