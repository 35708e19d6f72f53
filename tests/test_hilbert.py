"""Tests for the Hilbert-space substrate: kets, operators, density matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonesim.hilbert import (
    DEFAULT_ATOL,
    DensityMatrix,
    Ket,
    OperatorMatrix,
    _kron,
    _power_of_two_scaled,
    _unit,
    max_abs,
    random_ket,
)

from oracles import random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def ket(*amplitudes) -> Ket:
    return Ket(np.array(amplitudes, dtype=complex))


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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


class TestUnit:
    """``_unit`` is the one normalization: the exact power-of-two scaling, then
    the divide by ``np.linalg.norm``'s value."""

    @staticmethod
    def reference(values: np.ndarray) -> np.ndarray:
        scaled = _power_of_two_scaled(values)
        return scaled / np.linalg.norm(scaled)

    @pytest.mark.parametrize("scale", [1.0, 1.7e308, 1e-310, 5e-324])
    def test_equals_the_scaled_vector_over_its_numpy_norm(self, rng, scale):
        for dim in [*range(1, 10), 16, 33, 256, 1000]:
            for _ in range(20):
                draw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                values = draw / max_abs(draw) * scale  # the largest modulus is the scale, so finite
                assert _unit(values).tobytes() == self.reference(values).tobytes()

    @given(kets_up_to_32)
    def test_equals_the_scaled_vector_over_its_numpy_norm_for_any_ket(self, k):
        if k.amplitudes.any():
            assert _unit(k.amplitudes).tobytes() == self.reference(k.amplitudes).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)])
    def test_refuses_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="^Ket amplitudes must be finite$"):
            _unit(np.array([1.0, bad], dtype=complex))

    def test_refuses_the_zero_vector(self):
        with pytest.raises(ValueError, match="^cannot normalize a zero vector$"):
            _unit(np.zeros(3, dtype=complex))


class TestKron:
    @given(kets_up_to_32, kets_up_to_32)
    def test_bitwise_equal_to_np_kron(self, a, b):
        assert _kron(a.amplitudes, b.amplitudes).tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()


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

    def test_keeps_an_owned_read_only_complex_array(self):
        source = read_only(np.eye(3, dtype=complex))
        assert OperatorMatrix(source).entries is source

    @pytest.mark.parametrize(
        "make, dtype",
        [
            (lambda: np.eye(2, dtype=complex), complex),
            (lambda: read_only(np.eye(3, dtype=complex))[:2, :2], complex),
            (lambda: read_only(np.eye(2)), None),  # None: kept, as an owned read-only float64 array
            (lambda: [[1, 0], [0, 1]], complex),
            (lambda: np.eye(2), float),
            (lambda: read_only(np.eye(3))[:2, :2], float),
            (lambda: read_only(np.eye(2, dtype=np.float32)), complex),
            (lambda: read_only(np.eye(2, dtype=int)), complex),
        ],
        ids=["writable", "read-only-view", "read-only-float", "list",
             "writable-float", "read-only-float-view", "read-only-float32", "read-only-int"],
    )
    def test_copies_any_other_input(self, make, dtype):
        # A float64 or complex128 array keeps its dtype; anything else becomes complex.
        source = make()
        entries = OperatorMatrix(source).entries
        if dtype is None:
            assert entries is source and entries.dtype == np.float64
        else:
            assert entries is not source and not np.shares_memory(entries, np.asarray(source))
            assert entries.dtype == dtype
        assert not entries.flags.writeable
        assert np.array_equal(entries, np.eye(2))


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


class TestRandomKet:
    def test_deterministic_for_fixed_seed(self):
        a = random_ket(5, np.random.default_rng(7))
        b = random_ket(5, np.random.default_rng(7))
        assert max_abs(a.amplitudes - b.amplitudes) == 0

    def test_normalized(self, rng):
        assert abs(np.linalg.norm(random_ket(9, rng).amplitudes) - 1.0) < 1e-12
