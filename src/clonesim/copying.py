"""State-dependent quantum copying.

A copy machine is defined by a pair of orthonormal bases: a system basis
``{|s_i>}`` and an ancilla basis ``{|a_i>}`` of the same dimension n.  The
copy unitary U acts on the n^2-dimensional product space by

    U (|s_i> (x) |a_j>) = |s_i> (x) |s_j>   for all i, j,

and the ancilla preparation map V sends |s_i> to |a_i>.  Preparing the
ancilla as V|psi> and applying U copies *every* state |psi> perfectly,
because all copying content lives in the state-dependent preparation:
structurally U = I (x) V^dagger, which is the form every copying path
applies; the dense matrix is built only on request.  Feeding the same U
a fixed ancilla instead copies only the matching basis ray, which is the
content of the no-cloning restriction this module also witnesses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisError
from .hilbert import (
    DEFAULT_ATOL,
    Ket,
    OperatorMatrix,
    apply,
    fidelity,
    gram_matrix,
    max_abs,
    tensor_product,
)

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_CONTRADICTION = "CONTRADICTION"

#: Inputs are renormalized before cloning; deviations beyond this warn.
NORM_WARNING_THRESHOLD = 1e-6

#: An overlap is CONSISTENT when |s - s^2| is at most this, and |s| may
#: exceed 1 by this much.
WITNESS_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class CopyBasis:
    """Orthonormal system and ancilla bases of equal dimension n.

    The ancilla space is taken to have the same dimension as the system
    space, so the n^2 defining relations determine the copy unitary on the
    whole product space.
    """

    system_basis: tuple[Ket, ...]
    ancilla_basis: tuple[Ket, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "system_basis", tuple(self.system_basis))
        object.__setattr__(self, "ancilla_basis", tuple(self.ancilla_basis))
        n = len(self.system_basis)
        if n == 0 or len(self.ancilla_basis) != n:
            raise BasisError("system and ancilla bases must be non-empty and equally sized")
        for name, basis in (("system", self.system_basis), ("ancilla", self.ancilla_basis)):
            if any(k.dim != n for k in basis):
                raise BasisError(f"{name} basis kets must have dim {n}")
            deviation = max_abs(gram_matrix(basis) - np.eye(n))
            if deviation >= DEFAULT_ATOL:
                raise BasisError(f"{name} basis is not orthonormal (deviation {deviation:.3e})")

    @property
    def n(self) -> int:
        return len(self.system_basis)

    def system_matrix(self) -> np.ndarray:
        """n x n matrix with system basis kets as columns."""
        return np.column_stack([k.amplitudes for k in self.system_basis])

    def ancilla_matrix(self) -> np.ndarray:
        """n x n matrix with ancilla basis kets as columns."""
        return np.column_stack([k.amplitudes for k in self.ancilla_basis])

    @classmethod
    def computational(cls, n: int) -> "CopyBasis":
        """Both bases equal to the canonical basis of C^n."""
        basis = tuple(Ket.basis_state(n, i) for i in range(n))
        return cls(basis, basis)


@dataclass(frozen=True, eq=False)
class CloneReport:
    """Result of one copying run.

    ``fidelity`` is |<target|output>|^2 and can be recomputed from the
    stored kets; ``matched`` records whether the ancilla was prepared from
    the input (True) or held fixed (False).
    """

    input: Ket
    ancilla: Ket
    output: Ket
    target: Ket
    fidelity: float
    matched: bool

    def recomputed_fidelity(self) -> float:
        return fidelity(self.target, self.output)


def ancilla_prep_map(basis: CopyBasis) -> OperatorMatrix:
    """Unitary V with V|s_i> = |a_i> for every basis pair; linear by construction."""
    v = basis.ancilla_matrix() @ basis.system_matrix().conj().T
    return OperatorMatrix(v, unitary=True)


def build_copy_unitary(basis: CopyBasis) -> OperatorMatrix:
    """The n^2 x n^2 unitary assembled from the defining relations.

    Columns of kron(S, A) are the input product basis kets |s_i>(x)|a_j>
    and columns of kron(S, S) the corresponding outputs, so
    U = kron(S, S) kron(S, A)^dagger realizes all n^2 relations at once.
    This is the explicit dense materialization of U = I (x) V^dagger for
    callers that ask for the matrix; every copying path applies U in that
    factored form through :func:`apply_copy_map` and never builds it.
    """
    s = basis.system_matrix()
    a = basis.ancilla_matrix()
    u = np.kron(s, s) @ np.kron(s, a).conj().T
    return OperatorMatrix(u, unitary=True)


def _prepare_input(state: Ket) -> Ket:
    deviation = abs(state.norm - 1.0)
    if deviation > NORM_WARNING_THRESHOLD:
        warnings.warn(
            f"input state norm deviates from 1 by {deviation:.3e}; renormalizing",
            stacklevel=3,
        )
    return state.normalize()


def apply_copy_map(psi: Ket, ancilla: Ket, v: OperatorMatrix, matched: bool) -> CloneReport:
    """Apply U = I (x) V^dagger to psi (x) ancilla and report against psi (x) psi.

    ``v`` is the ancilla map V, a unitary or, for a copy restricted to a
    subspace, a partial isometry from the system space into the ancilla
    space.  Forming psi (x) V^dagger|ancilla> costs O(n^2) for an n x n V;
    building the dense U costs O(n^6).
    """
    output = tensor_product(psi, Ket(v.entries.conj().T @ ancilla.amplitudes, psi.space_label))
    target = tensor_product(psi, psi)
    return CloneReport(
        input=psi,
        ancilla=ancilla,
        output=output,
        target=target,
        fidelity=fidelity(target, output),
        matched=matched,
    )


def clone(input: Ket, basis: CopyBasis) -> CloneReport:
    """Copy ``input`` with the matched, state-prepared ancilla.

    The ancilla is V|input>, the copy map acts on input (x) ancilla, and
    the report compares the output against input (x) input.  Fidelity is
    1 for every input state.
    """
    psi = _prepare_input(input)
    v = ancilla_prep_map(basis)
    return apply_copy_map(psi, apply(v, psi), v, matched=True)


def clone_with_fixed_ancilla(input: Ket, fixed_ancilla_index: int, basis: CopyBasis) -> CloneReport:
    """Run the same copy map with a fixed basis ancilla |a_k>.

    The output is input (x) |s_k>, so the reported fidelity equals
    |<input|s_k>|^2: strictly below 1 unless the input is the k-th basis
    ray.  This is the forbidden universal configuration, exercised to
    exhibit its failure.
    """
    if not 0 <= fixed_ancilla_index < basis.n:
        raise IndexError(f"ancilla index {fixed_ancilla_index} out of range for n={basis.n}")
    psi = _prepare_input(input)
    ancilla = basis.ancilla_basis[fixed_ancilla_index]
    return apply_copy_map(psi, ancilla, ancilla_prep_map(basis), matched=False)


@dataclass(frozen=True)
class OverlapWitness:
    """Outcome of the overlap consistency check s = s^2."""

    overlap: complex
    residual: float
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == VERDICT_CONSISTENT


def no_cloning_overlap_witness(s: complex) -> OverlapWitness:
    """Check the consistency condition a single unitary would impose when
    cloning two states of overlap ``s`` with one fixed ancilla.

    Unitarity preserves inner products, so <p|q> = <p|q>^2 would have to
    hold; only s in {0, 1} survives.  Every other overlap is reported as a
    CONTRADICTION with residual |s - s^2|, which is the linearity
    obstruction behind the no-cloning theorem.
    """
    s = complex(s)
    if not abs(s) <= 1 + WITNESS_ATOL:  # false for NaN too
        raise ValueError(f"|s| = {abs(s):.6g} is not a valid state overlap: it must be finite and at most 1")
    residual = abs(s - s * s)
    verdict = VERDICT_CONSISTENT if residual <= WITNESS_ATOL else VERDICT_CONTRADICTION
    return OverlapWitness(overlap=s, residual=residual, verdict=verdict)
