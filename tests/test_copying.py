"""Tests for copy bases, the ancilla map, the copy unitary, and no-cloning witnesses."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonesim import copying
from clonesim.copying import (
    CloneReport,
    CopyBasis,
    build_copy_unitary,
    clone,
    clone_with_fixed_ancilla,
)
from clonesim.errors import BasisError, DimensionMismatchError
from clonesim.hilbert import DEFAULT_ATOL, Ket, OperatorMatrix, max_abs, random_ket

from oracles import copy_unitary_by_columns, random_copy_basis, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)
X_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


def swapped_basis(n: int = 2) -> CopyBasis:
    system = np.eye(n)
    return CopyBasis(system, system[:, [1, 0, *range(2, n)]])


class TestCopyBasis:
    def test_rejects_non_orthonormal(self):
        repeated = np.array([[1, 1], [0, 0]], dtype=complex)  # columns (|0>, |0>)
        with pytest.raises(BasisError, match="not orthonormal"):
            CopyBasis(repeated, repeated)

    def test_rejects_size_mismatch(self):
        with pytest.raises(BasisError, match="differ in shape"):
            CopyBasis(np.eye(2), np.eye(3))

    def test_rejects_wrong_dims(self):
        # three ancilla kets of dim 2 for a system of dim 3
        with pytest.raises(BasisError, match="square"):
            CopyBasis(np.eye(3), np.eye(3)[:2])

    @pytest.mark.parametrize("side", ["system", "ancilla"])
    @pytest.mark.parametrize(
        "matrix",
        [np.zeros((0, 0)), np.zeros((2, 0)), np.eye(3)[:, :2], np.ones(2), np.ones((2, 2, 2)), 1.0],
        ids=["empty", "no-columns", "3x2", "vector", "3-dim", "scalar"],
    )
    def test_rejects_non_square_or_empty(self, side, matrix):
        good = np.eye(3)
        with pytest.raises(BasisError, match=f"{side} basis must be a non-empty square matrix"):
            CopyBasis(**{"system": good, "ancilla": good, side: matrix})

    @pytest.mark.parametrize("side", ["system", "ancilla"])
    @pytest.mark.parametrize(
        "matrix",
        [np.diag([1.0, 2.0]), np.array([[1, 1], [0, 1]]), np.zeros((2, 2)), 2j * np.eye(2)],
        ids=["stretch", "shear", "zero", "scaled"],
    )
    def test_rejects_non_unitary(self, side, matrix):
        with pytest.raises(BasisError, match=f"{side} basis is not orthonormal"):
            CopyBasis(**{"system": np.eye(2), "ancilla": np.eye(2), side: matrix})

    @pytest.mark.parametrize("side", ["system", "ancilla"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)])
    def test_rejects_non_finite(self, side, value):
        matrix = np.eye(2, dtype=complex)
        matrix[1, 0] = value
        with pytest.raises(BasisError, match=f"{side} basis entries must be finite"):
            CopyBasis(**{"system": np.eye(2), "ancilla": np.eye(2), side: matrix})

    def test_rejects_ancilla_map_outside_unitarity_tolerance(self):
        # S and A each deviate from orthonormality by 0.9e-10, inside the
        # tolerance; V = A S^dagger compounds the stretch to 1.8e-10.
        stretched = np.diag([np.sqrt(1 + 0.9e-10), 1.0])
        with pytest.raises(BasisError, match="ancilla map"):
            CopyBasis(stretched, stretched)

    def test_bases_and_v_are_read_only(self, rng):
        system, ancilla = random_unitary(3, rng), random_unitary(3, rng)
        basis = CopyBasis(system, ancilla)
        system[0, 0] = ancilla[0, 0] = 7.0  # the basis holds its own copies
        for matrix in (basis.system, basis.ancilla, basis.v):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        for name in ("system", "ancilla", "v"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(basis, name, np.eye(3))
        assert basis.system[0, 0] != 7.0 and basis.ancilla[0, 0] != 7.0

    def test_v_equals_a_s_dagger(self, rng):
        for n in (1, 2, 5):
            system, ancilla = random_unitary(n, rng), random_unitary(n, rng)
            basis = CopyBasis(system, ancilla)
            assert basis.n == n
            assert type(basis.v) is np.ndarray
            assert max_abs(basis.v.conj().T @ basis.v - np.eye(n)) < 1e-12
            assert max_abs(basis.v - ancilla @ system.conj().T) < 1e-12

    def test_only_the_bases_are_init_fields(self):
        assert [f.name for f in dataclasses.fields(CopyBasis) if f.init] == ["system", "ancilla"]


class TestSharedComputationalBasis:
    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_one_instance_per_n(self, n):
        assert CopyBasis.computational(n) is CopyBasis.computational(n)

    def test_arrays_are_read_only(self):
        basis = CopyBasis.computational(3)
        for matrix in (basis.system, basis.ancilla, basis.v):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 2.0
        assert max_abs(basis.v - np.eye(3)) == 0.0

    def test_distinct_n_give_distinct_bases(self):
        bases = [CopyBasis.computational(n) for n in (2, 3, 4)]
        assert [basis.n for basis in bases] == [2, 3, 4]
        assert len({id(basis) for basis in bases}) == 3

    def test_cache_is_bounded(self):
        assert copying._computational_basis.cache_parameters()["maxsize"] == 8
        for n in range(1, 12):
            CopyBasis.computational(n)
        assert copying._computational_basis.cache_info().currsize == 8

    def test_n_of_another_type_is_not_served_from_the_cache(self):
        CopyBasis.computational(2)
        with pytest.raises(TypeError):
            CopyBasis.computational(2.0)


class TestAncillaPrepMap:
    def test_identity_when_bases_coincide(self):
        v = CopyBasis.computational(3).v
        assert max_abs(v - np.eye(3)) < 1e-12

    def test_swapped_pair_gives_basis_swap(self):
        v = swapped_basis().v
        assert max_abs(v - X_SWAP) < 1e-12

    def test_reads_back_the_generating_unitary(self, rng):
        # Apply a random unitary W to the system basis to make the ancilla
        # basis; V must reproduce W columnwise.
        for n in (2, 4, 6):
            w = random_unitary(n, rng)
            system = np.eye(n)
            ancilla = np.column_stack([w @ column for column in system.T])
            v = CopyBasis(system, ancilla).v
            assert max_abs(v - w) < 1e-12

    def test_linearity_on_superpositions(self, rng):
        basis = random_copy_basis(4, rng)
        v = basis.v
        for _ in range(20):
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            beta = complex(rng.standard_normal(), rng.standard_normal())
            a, b = Ket(basis.system[:, 0]), Ket(basis.system[:, 2])
            combined = alpha * a.amplitudes + beta * b.amplitudes
            lhs = v @ combined
            rhs = alpha * (v @ a.amplitudes) + beta * (v @ b.amplitudes)
            assert max_abs(lhs - rhs) < 1e-12


class TestBuildCopyUnitary:
    def test_identity_basis_gives_identity(self):
        u = build_copy_unitary(CopyBasis.computational(2))
        assert max_abs(u.entries - np.eye(4)) < 1e-12

    def test_swapped_ancilla_gives_identity_tensor_swap(self):
        # Explicit 4x4 expected matrix assembled from the four defining
        # relations with the ancilla pair swapped.
        u = build_copy_unitary(swapped_basis())
        assert max_abs(u.entries - np.kron(np.eye(2), X_SWAP)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_unitarity(self, n, rng):
        u = build_copy_unitary(random_copy_basis(n, rng)).entries
        assert max_abs(u.conj().T @ u - np.eye(n * n)) < 1e-12

    def test_rejects_non_unitary(self):
        # CopyBasis never holds such bases; a stand-in reaches the check on U itself.
        stretched = SimpleNamespace(system=np.diag([1.0, 2.0]), ancilla=np.eye(2))
        with pytest.raises(BasisError, match="copy unitary U is not orthonormal"):
            build_copy_unitary(stretched)

    def test_rejects_non_finite(self):
        system = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(BasisError, match="copy unitary U entries must be finite"):
            build_copy_unitary(SimpleNamespace(system=system, ancilla=np.eye(2)))

    def test_hands_its_checked_array_to_one_construction(self, monkeypatch):
        basis = swapped_basis()
        checked, handed = [], []
        check, post_init = copying._frozen_basis, OperatorMatrix.__post_init__
        monkeypatch.setattr(copying, "_frozen_basis", lambda *args: checked.append(check(*args)) or checked[-1])
        monkeypatch.setattr(OperatorMatrix, "__post_init__", lambda self: handed.append(self.entries) or post_init(self))
        u = build_copy_unitary(basis)
        assert len(checked) == len(handed) == 1 and u.entries is handed[0] is checked[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_column_assembly_oracle_and_structural_identity(self, n, rng):
        basis = random_copy_basis(n, rng)
        u = build_copy_unitary(basis).entries
        assert max_abs(u - copy_unitary_by_columns(basis)) < 1e-12
        assert max_abs(u - np.kron(np.eye(n), basis.v.conj().T)) < 1e-12

    def test_defining_relations_on_mismatched_pairs(self, rng):
        # U (|s_i> (x) |a_j>) = |s_i> (x) |s_j>, including i != j.
        basis = random_copy_basis(3, rng)
        u = build_copy_unitary(basis).entries
        for i in range(3):
            for j in range(3):
                joint = np.kron(basis.system[:, i], basis.ancilla[:, j])
                expected = np.kron(basis.system[:, i], basis.system[:, j])
                assert max_abs(u @ joint - expected) < 1e-12


class TestClone:
    def test_basis_state(self):
        report = clone(Ket(np.array([1, 0], dtype=complex)), CopyBasis.computational(2))
        assert max_abs(report.output.amplitudes - np.array([1, 0, 0, 0])) <= DEFAULT_ATOL
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_plus_state_output_shape(self):
        # By linearity the copied pair is the full product, not a basis mix.
        plus = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        report = clone(plus, CopyBasis.computational(2))
        assert max_abs(report.output.amplitudes - np.full(4, 0.5)) < 1e-12
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_random_input_matches_direct_product(self, rng):
        basis = random_copy_basis(5, rng)
        for _ in range(10):
            psi = random_ket(5, rng)
            report = clone(psi, basis)
            direct = np.kron(psi.amplitudes, psi.amplitudes)
            assert max_abs(report.output.amplitudes - direct) < 1e-12
            assert abs(report.fidelity - 1.0) < 1e-10

    def test_report_fidelity_recomputable(self, rng):
        psi = random_ket(3, rng)
        report = clone(psi, random_copy_basis(3, rng))
        target = np.kron(psi.amplitudes, psi.amplitudes)
        assert abs(np.vdot(target, report.output.amplitudes)) ** 2 == pytest.approx(report.fidelity, abs=1e-14)

    @pytest.mark.parametrize("output_dim", [3, 2, 8])
    def test_report_refuses_an_output_not_of_the_input_dim_squared(self, output_dim):
        psi = Ket(np.ones(2))
        with pytest.raises(DimensionMismatchError, match=f"^output dim {output_dim} != input dim 2 squared$"):
            CloneReport(psi, psi, Ket(np.ones(output_dim)))

    def test_ancilla_is_prepared_from_input(self, rng):
        basis = random_copy_basis(4, rng)
        psi = random_ket(4, rng)
        report = clone(psi, basis)
        assert max_abs(report.ancilla.amplitudes - basis.v @ psi.amplitudes) < 1e-12

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 2.0, 1e200])
    @pytest.mark.parametrize(
        "copy",
        [clone, lambda state, basis: clone_with_fixed_ancilla(state, 0, basis)],
        ids=["clone", "fixed-ancilla"],
    )
    def test_normalizes_any_scale_without_warning(self, copy, scale):
        # pyproject's filterwarnings = ["error"] turns any warning into a failure.
        report = copy(Ket(np.array([scale, 0.0])), CopyBasis.computational(2))
        assert report.input.amplitudes.tolist() == [1.0, 0.0]
        assert report.fidelity == 1.0


class TestCloneWithFixedAncilla:
    def test_matched_basis_input_still_copies(self, rng):
        basis = random_copy_basis(3, rng)
        report = clone_with_fixed_ancilla(Ket(basis.system[:, 1]), 1, basis)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_superposition_fidelity_half(self):
        basis = CopyBasis.computational(2)
        state = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        report = clone_with_fixed_ancilla(state, 0, basis)
        # output is |psi> (x) |s_0>, so fidelity = |<psi|s_0>|^2 = 1/2
        expected_output = np.kron(state.amplitudes, [1, 0])
        assert max_abs(report.output.amplitudes - expected_output) < 1e-12
        assert report.fidelity == pytest.approx(0.5, abs=1e-10)

    def test_orthogonal_input_fidelity_zero(self):
        basis = CopyBasis.computational(2)
        report = clone_with_fixed_ancilla(Ket.basis_state(2, 1), 0, basis)
        assert report.fidelity == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_equals_squared_overlap(self, rng):
        basis = random_copy_basis(4, rng)
        for k in range(4):
            psi = random_ket(4, rng)
            report = clone_with_fixed_ancilla(psi, k, basis)
            expected = abs(np.vdot(psi.amplitudes, basis.system[:, k])) ** 2
            assert report.fidelity == pytest.approx(expected, abs=1e-10)
            assert report.fidelity < 1.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            clone_with_fixed_ancilla(Ket.basis_state(2, 0), 2, CopyBasis.computational(2))

    @pytest.mark.parametrize("index", [True, False, np.bool_(True), 1.0, np.float64(0.0), "1"])
    def test_non_integer_index_refused(self, index):
        with pytest.raises(IndexError, match=f"ancilla index {re.escape(repr(index))} is not an integer"):
            clone_with_fixed_ancilla(Ket.basis_state(2, 0), index, CopyBasis.computational(2))

    def test_numpy_integer_index_accepted(self):
        report = clone_with_fixed_ancilla(Ket.basis_state(2, 1), np.int64(1), CopyBasis.computational(2))
        assert report.fidelity == 1.0


class TestFactoredCopyMap:
    def test_copies_build_no_operator(self, rng, monkeypatch):
        # V is a plain array, formed and checked once when the basis is built;
        # neither the basis nor a copy builds an OperatorMatrix.
        built = []
        original = OperatorMatrix.__post_init__
        monkeypatch.setattr(OperatorMatrix, "__post_init__", lambda self: built.append(self) or original(self))
        basis = random_copy_basis(4, rng)
        CopyBasis.computational(3)
        for _ in range(3):
            psi = random_ket(4, rng)
            clone(psi, basis)
            for k in range(4):
                clone_with_fixed_ancilla(psi, k, basis)
        assert built == []
        build_copy_unitary(basis)
        assert len(built) == 1  # the patch sees a construction

    @pytest.mark.parametrize("n", range(2, 9))
    def test_outputs_match_dense_copy_unitary(self, n, rng):
        # The copying paths apply U = I (x) V^dagger in factored form; the
        # dense U from the defining relations is the reference.
        basis = random_copy_basis(n, rng)
        u = build_copy_unitary(basis).entries
        psi = random_ket(n, rng)
        reports = [clone(psi, basis)] + [clone_with_fixed_ancilla(psi, k, basis) for k in range(n)]
        for report in reports:
            dense = u @ np.kron(psi.amplitudes, report.ancilla.amplitudes)
            assert max_abs(report.output.amplitudes - dense) < 1e-12


def witness(s: complex) -> tuple[float, str]:
    """The residual and verdict that the witness rule gives one overlap."""
    residual, consistent = copying._witness_rule(np.array([s]))
    return float(residual[0]), "CONSISTENT" if consistent[0] else "CONTRADICTION"


class TestWitnessRule:
    def test_orthogonal_states_consistent(self):
        assert witness(0.0)[1] == "CONSISTENT"

    def test_identical_states_consistent(self):
        assert witness(1.0)[1] == "CONSISTENT"

    def test_intermediate_overlap_contradicts(self):
        residual, verdict = witness(INV_SQRT2)
        assert verdict == "CONTRADICTION"
        assert residual == pytest.approx(INV_SQRT2 - 0.5, abs=1e-12)
        assert residual == pytest.approx(0.2071, abs=5e-5)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_every_interior_overlap_contradicts(self, s):
        residual, verdict = witness(s)
        assert verdict == "CONTRADICTION"
        assert residual == pytest.approx(abs(s - s * s), abs=1e-15)

    @given(st.floats(min_value=0.01, max_value=2 * np.pi - 0.01))
    def test_unit_modulus_phases_contradict(self, theta):
        assert witness(np.exp(1j * theta))[1] == "CONTRADICTION"
