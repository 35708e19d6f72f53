"""Tests for the Hilbert-space substrate: kets, operators, density matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonesim.errors import DimensionMismatchError
from clonesim.hilbert import (
    DEFAULT_ATOL,
    DensityMatrix,
    Ket,
    OperatorMatrix,
    fidelity,
    inner_product,
    max_abs,
    partial_trace,
    random_ket,
    tensor_product,
)

from oracles import partial_trace_by_loops, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def ket(*amplitudes) -> Ket:
    return Ket(np.array(amplitudes, dtype=complex))


amplitude_lists = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
).filter(any)  # only the all-zero vector is refused

# Kets of dimension 1..32 with unnormalized finite amplitudes, signed zeros included.
kets_up_to_32 = st.integers(1, 32).flatmap(lambda dim: st.lists(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
)).map(lambda amplitudes: Ket(np.array(amplitudes, dtype=complex)))


class TestKet:
    def test_dim_and_amplitude_length_agree(self):
        k = ket(1, 0, 0)
        assert k.dim == 3
        assert len(k.amplitudes) == k.dim

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ket(np.array([], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Ket(np.array([1.0, bad]))

    def test_amplitudes_frozen(self):
        k = ket(1, 0)
        with pytest.raises(ValueError):
            k.amplitudes[0] = 5.0

    @given(amplitude_lists)
    def test_normalize_gives_unit_norm(self, amps):
        k = Ket(np.array(amps)).normalize()
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-10

    def test_normalize_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ket(0, 0).normalize()

    @pytest.mark.parametrize("scale", [1.7e308, 1e200, 1e-160, 1e-310, 5e-324])
    def test_normalize_is_independent_of_scale(self, scale):
        # The norm of a 1e200 vector overflows when squared, and that of a 1e-160 one underflows.
        assert ket(scale, 0).normalize().amplitudes.tolist() == [1, 0]
        assert ket(scale, -scale).normalize().amplitudes == pytest.approx([INV_SQRT2, -INV_SQRT2], abs=1e-15)

    def test_basis_state(self):
        assert max_abs(ket(0, 1, 0).amplitudes - Ket.basis_state(3, 1).amplitudes) <= DEFAULT_ATOL
        with pytest.raises(ValueError):
            Ket.basis_state(3, 3)


class TestTensorProduct:
    def test_basis_kronecker(self):
        assert max_abs(tensor_product(ket(1, 0), ket(0, 1)).amplitudes - ket(0, 1, 0, 0).amplitudes) <= DEFAULT_ATOL

    def test_identity_case(self):
        assert max_abs(tensor_product(ket(1, 0), ket(1, 0)).amplitudes - ket(1, 0, 0, 0).amplitudes) <= DEFAULT_ATOL

    def test_plus_times_plus(self):
        plus = ket(INV_SQRT2, INV_SQRT2)
        expected = ket(0.5, 0.5, 0.5, 0.5)
        assert max_abs(tensor_product(plus, plus).amplitudes - expected.amplitudes) <= DEFAULT_ATOL

    def test_norm_multiplies(self, rng):
        a = random_ket(3, rng)
        b = random_ket(4, rng)
        assert abs(np.linalg.norm(tensor_product(a, b).amplitudes) - 1.0) < 1e-12

    def test_bilinearity(self, rng):
        # (alpha a + beta a') (x) b == alpha (a (x) b) + beta (a' (x) b)
        for _ in range(25):
            a = random_ket(3, rng)
            a2 = random_ket(3, rng)
            b = random_ket(2, rng)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            beta = complex(rng.standard_normal(), rng.standard_normal())
            combined = Ket(alpha * a.amplitudes + beta * a2.amplitudes)
            lhs = tensor_product(combined, b).amplitudes
            rhs = alpha * tensor_product(a, b).amplitudes + beta * tensor_product(a2, b).amplitudes
            assert max_abs(lhs - rhs) < 1e-12


    @given(kets_up_to_32, kets_up_to_32)
    def test_bitwise_equal_to_np_kron(self, a, b):
        assert tensor_product(a, b).amplitudes.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()


class TestInnerProductAndFidelity:
    def test_self_overlap(self):
        assert inner_product(ket(1, 0), ket(1, 0)) == pytest.approx(1)

    def test_orthonormal_basis(self):
        assert inner_product(ket(1, 0), ket(0, 1)) == pytest.approx(0)

    def test_direct_expansion(self):
        assert inner_product(ket(INV_SQRT2, INV_SQRT2), ket(1, 0)) == pytest.approx(INV_SQRT2)

    def test_conjugates_first_argument(self):
        assert inner_product(ket(1j, 0), ket(1, 0)) == pytest.approx(-1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(ket(1, 0), ket(1, 0, 0))
        with pytest.raises(DimensionMismatchError):
            fidelity(ket(1, 0), ket(1, 0, 0))

    def test_fidelity_examples(self):
        assert fidelity(ket(1, 0), ket(1, 0)) == pytest.approx(1.0)
        assert fidelity(ket(1, 0), ket(0, 1)) == pytest.approx(0.0)
        assert fidelity(ket(1, 0), ket(INV_SQRT2, INV_SQRT2)) == pytest.approx(0.5)

    def test_fidelity_symmetric(self, rng):
        for _ in range(50):
            a = random_ket(4, rng)
            b = random_ket(4, rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    @given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
    def test_fidelity_ignores_global_phase(self, phase_a, phase_b):
        a = ket(INV_SQRT2, INV_SQRT2)
        b = ket(1, 0)
        rotated_a = Ket(np.exp(1j * phase_a) * a.amplitudes)
        rotated_b = Ket(np.exp(1j * phase_b) * b.amplitudes)
        assert fidelity(rotated_a, rotated_b) == pytest.approx(fidelity(a, b), abs=1e-12)


class TestApply:
    # Operators act on kets as plain matrix-vector products of their entries.
    def test_identity(self):
        k = ket(0.6, 0.8j)
        assert max_abs(Ket(OperatorMatrix(np.eye(2)).entries @ k.amplitudes).amplitudes - k.amplitudes) <= DEFAULT_ATOL

    def test_basis_swap(self):
        swap = OperatorMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
        assert max_abs(Ket(swap.entries @ ket(1, 0).amplitudes).amplitudes - ket(0, 1).amplitudes) <= DEFAULT_ATOL

    def test_unitary_preserves_norm(self, rng):
        for n in (2, 3, 5):
            u = OperatorMatrix(random_unitary(n, rng))
            k = random_ket(n, rng)
            assert abs(np.linalg.norm(u.entries @ k.amplitudes) - np.linalg.norm(k.amplitudes)) < 1e-10


class TestOperatorMatrix:
    def test_flag_deviations_small_for_valid(self, rng):
        # The matrix keeps its entries: a unitary stays unitary within rounding.
        u = OperatorMatrix(random_unitary(4, rng)).entries
        assert max_abs(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_holds_a_frozen_copy(self):
        source = np.eye(2, dtype=complex)
        m = OperatorMatrix(source)
        source[0, 0] = 7.0
        assert m.entries[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 2.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            OperatorMatrix(np.ones(3))


def sparse_hermitian(dim: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Dense hermitian matrix with a random sparse pattern (diagonal real)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a[rng.random((dim, dim)) > density] = 0.0
    return np.triu(a, 1) + np.triu(a, 1).conj().T + np.diag(a.diagonal().real)


class TestHermitianFromNonzeros:
    @pytest.mark.parametrize("dim, density", [(1, 1.0), (5, 0.3), (12, 0.1), (30, 0.02)])
    def test_equals_dense_construction(self, rng, dim, density):
        for _ in range(5):
            h = sparse_hermitian(dim, density, rng)
            rows, cols = np.nonzero(h)
            order = rng.permutation(rows.size)
            rows, cols = rows[order], cols[order]
            m = OperatorMatrix.hermitian_from_nonzeros(dim, rows, cols, h[rows, cols])
            assert np.array_equal(m.entries, h)
            assert np.array_equal(m.entries, m.entries.conj().T)

    def test_empty_is_zero_matrix(self):
        none = np.zeros(0, dtype=int)
        m = OperatorMatrix.hermitian_from_nonzeros(3, none, none, none)
        assert np.array_equal(m.entries, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "rows, cols, values",
        [
            ([0], [1], [1.0]),  # the transposed entry is never written
            ([0, 1], [1, 0], [1.0, 1.0 + 1e-9j]),  # off by more than DEFAULT_ATOL
            ([1], [1], [2j]),  # imaginary diagonal
        ],
        ids=["one-triangle", "not-conjugate", "imaginary-diagonal"],
    )
    def test_rejects_non_hermitian_values(self, rows, cols, values):
        with pytest.raises(ValueError, match="flagged hermitian"):
            OperatorMatrix.hermitian_from_nonzeros(2, rows, cols, values)

    @pytest.mark.parametrize("position", [(0, 0), (0, 1)])
    def test_rejects_nan(self, position):
        r, c = position
        with pytest.raises(ValueError, match="flagged hermitian.*nan"):
            OperatorMatrix.hermitian_from_nonzeros(2, [r, c], [c, r], [np.nan, np.nan])

    def test_duplicate_positions_checked_on_final_entries(self):
        # the last write to (0, 1) wins; only the final array is checked
        m = OperatorMatrix.hermitian_from_nonzeros(2, [0, 1, 0], [1, 0, 1], [5.0, 1j, -1j])
        assert np.array_equal(m.entries, np.array([[0, -1j], [1j, 0]]))
        with pytest.raises(ValueError, match="flagged hermitian"):
            OperatorMatrix.hermitian_from_nonzeros(2, [0, 1, 0], [1, 0, 1], [-1j, 1j, 5.0])

    def test_entries_read_only(self):
        m = OperatorMatrix.hermitian_from_nonzeros(2, [0, 1], [1, 0], [1j, -1j])
        assert not m.entries.flags.writeable
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    @pytest.mark.parametrize(
        "rows, cols, values",
        [([0, 2], [2, 0], [1.0, 1.0]), ([-1], [-1], [1.0]), ([0, 1], [1], [1.0, 1.0]), ([[0]], [[0]], [[1.0]])],
        ids=["out-of-range", "negative", "unequal-lengths", "two-dimensional"],
    )
    def test_rejects_bad_positions(self, rows, cols, values):
        with pytest.raises(ValueError):
            OperatorMatrix.hermitian_from_nonzeros(2, rows, cols, values)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_from_ket(self):
        rho = DensityMatrix.from_ket(ket(INV_SQRT2, INV_SQRT2))
        assert max_abs(rho.entries - 0.5 * np.ones((2, 2))) < 1e-12


class TestPartialTrace:
    def test_product_state_keep_a(self):
        zero = ket(1, 0)
        one = ket(0, 1)
        rho = DensityMatrix.from_ket(tensor_product(zero, one))
        reduced = partial_trace(rho, (2, 2), "A")
        assert max_abs(reduced.entries - np.diag([1, 0])) < 1e-12

    def test_bell_state_keep_a_is_maximally_mixed(self):
        bell = ket(INV_SQRT2, 0, 0, INV_SQRT2)
        reduced = partial_trace(DensityMatrix.from_ket(bell), (2, 2), "A")
        assert max_abs(reduced.entries - np.eye(2) / 2) < 1e-10

    def test_separable_mixture_keep_b(self):
        # 1/2 (|00><00| + |11><11|); expected value frozen from the
        # hand-contraction oracle below.
        rho = DensityMatrix(0.5 * np.diag([1, 0, 0, 1]).astype(complex))
        reduced = partial_trace(rho, (2, 2), "B")
        oracle = partial_trace_by_loops(rho.entries, 2, 2, "B")
        assert max_abs(oracle - np.eye(2) / 2) < 1e-12
        assert max_abs(reduced.entries - np.eye(2) / 2) < 1e-10

    def test_matches_loop_oracle(self, rng):
        for d_a, d_b in ((2, 3), (3, 2), (2, 2)):
            psi = random_ket(d_a * d_b, rng)
            rho = DensityMatrix.from_ket(psi)
            for keep in ("A", "B"):
                reduced = partial_trace(rho, (d_a, d_b), keep)
                oracle = partial_trace_by_loops(rho.entries, d_a, d_b, keep)
                assert max_abs(reduced.entries - oracle) < 1e-12

    def test_output_is_valid_density_matrix(self, rng):
        # trace 1 and hermiticity are enforced by the DensityMatrix type
        psi = random_ket(6, rng)
        reduced = partial_trace(DensityMatrix.from_ket(psi), (2, 3), "B")
        assert abs(np.trace(reduced.entries) - 1.0) < 1e-10

    def test_rejects_non_factoring_dims(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, (3, 2), "A")


class TestRandomKet:
    def test_deterministic_for_fixed_seed(self):
        a = random_ket(5, np.random.default_rng(7))
        b = random_ket(5, np.random.default_rng(7))
        assert max_abs(a.amplitudes - b.amplitudes) == 0

    def test_normalized(self, rng):
        assert abs(np.linalg.norm(random_ket(9, rng).amplitudes) - 1.0) < 1e-12
