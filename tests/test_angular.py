"""Tests for irrep decomposition and Clebsch-Gordan coefficients."""

from fractions import Fraction

import numpy as np
import pytest

from clonesim.angular import (
    IrrepLabel,
    PHOTON_IRREP,
    clebsch_gordan,
    contains,
    dipole_angular_factors,
    twice,
)

from oracles import cg_by_lowering, contains_by_projection

HALF_STEPS_TO_3 = [Fraction(t, 2) for t in range(0, 7)]  # 0, 1/2, ..., 3


def j(value, parity=None) -> IrrepLabel:
    return IrrepLabel(twice(value), parity)


def coefficient_table(tj1: int, tj2: int) -> dict[tuple[int, int, int, int], float]:
    """Every <j1 m1; j2 m2 | J M> with M = m1 + m2, keyed by twice-values (2m1, 2m2, 2J, 2M)."""
    return {
        (tm1, tm2, t_big_j, tm1 + tm2): clebsch_gordan(
            Fraction(tj1, 2), Fraction(tm1, 2),
            Fraction(tj2, 2), Fraction(tm2, 2),
            Fraction(t_big_j, 2), Fraction(tm1 + tm2, 2),
        )
        for tm1 in range(-tj1, tj1 + 1, 2)
        for tm2 in range(-tj2, tj2 + 1, 2)
        for t_big_j in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
    }


class TestIrrepLabel:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IrrepLabel(-2)

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            twice(0.3)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            IrrepLabel(2, parity=0)

    def test_twice_roundtrip(self):
        assert twice(1.5) == 3
        assert twice(Fraction(5, 2)) == 5
        assert j(1.5).twice_j == 3

    def test_photon_irrep(self):
        assert PHOTON_IRREP.twice_j == 2
        assert PHOTON_IRREP.parity == -1


def admitted(j1: IrrepLabel, j2: IrrepLabel, parity=None) -> list[float]:
    """Every j, in half steps up to one past j1 + j2, that ``contains`` places in j1 (x) j2."""
    candidates = range(0, j1.twice_j + j2.twice_j + 3)
    return [tj / 2 for tj in candidates if contains(IrrepLabel(tj, parity), (j1, j2))]


class TestDecomposeProduct:
    """The content of j1 (x) j2 as ``contains`` reads it: |j1-j2| .. j1+j2 in unit steps."""

    def test_one_times_one(self):
        assert admitted(j(1), j(1)) == [0, 1, 2]

    def test_zero_times_one(self):
        assert admitted(j(0), j(1)) == [1]

    def test_three_halves_times_one(self):
        assert admitted(j(1.5), j(1)) == [0.5, 1.5, 2.5]

    def test_parity_multiplies(self):
        assert admitted(j(1, -1), j(1, -1), parity=+1) == [0, 1, 2]
        assert admitted(j(1, -1), j(1, -1), parity=-1) == []
        assert admitted(j(1, +1), j(1, -1), parity=-1) == [0, 1, 2]
        assert admitted(j(1, +1), j(1, -1), parity=+1) == []

    def test_parity_unspecified_when_either_missing(self):
        for parity in (+1, -1):
            assert admitted(j(1), j(1, -1), parity) == [0, 1, 2]

    @pytest.mark.parametrize("j1", HALF_STEPS_TO_3 + [4, 5])
    @pytest.mark.parametrize("j2", HALF_STEPS_TO_3 + [4, 5])
    def test_dimension_count(self, j1, j2):
        total = sum(int(2 * big_j) + 1 for big_j in admitted(j(j1), j(j2)))
        assert total == (twice(j1) + 1) * (twice(j2) + 1)


class TestContains:
    def test_allowed_dipole_case(self):
        assert contains(j(0, +1), (j(1, -1), j(1, -1)))

    def test_triangle_failure_s_to_s(self):
        # l: 0 -> 0 transitions are forbidden; 0 is not in {1}
        assert not contains(j(0, +1), (j(0, +1), j(1, -1)))

    def test_out_of_triangle(self):
        assert not contains(j(3), (j(1), j(1)))

    def test_parity_mismatch(self):
        assert not contains(j(0, -1), (j(1, -1), j(1, -1)))

    def test_parity_skipped_when_unspecified(self):
        assert contains(j(0), (j(1, -1), j(1, -1)))

    def test_half_integer_perimeter_excluded(self):
        assert not contains(j(0.5), (j(1), j(1)))

    @pytest.mark.parametrize("t_target", range(0, 7))
    @pytest.mark.parametrize("t_excited", range(0, 7))
    def test_matches_projection_oracle(self, t_target, t_excited):
        # photon j = 1; compare against numerical projection onto the
        # J = target sector of the product space
        expected = contains_by_projection(t_target, t_excited, 2)
        assert contains(IrrepLabel(t_target), (IrrepLabel(t_excited), j(1))) == expected


class TestClebschGordan:
    def test_two_spin_half_singlet(self):
        # frozen from the ladder oracle
        oracle = cg_by_lowering(1, 1)[(1, -1, 0, 0)]
        assert oracle == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(oracle, abs=1e-12)

    def test_two_spin_one_singlet(self):
        oracle = cg_by_lowering(2, 2)[(0, 0, 0, 0)]
        assert oracle == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert clebsch_gordan(1, 0, 1, 0, 0, 0) == pytest.approx(oracle, abs=1e-12)

    def test_literal_values(self):
        assert clebsch_gordan(1, 0, 1, 0, 0, 0) == pytest.approx(-1 / np.sqrt(3), abs=1e-12)
        assert clebsch_gordan(1, 1, 1, -1, 1, 0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert clebsch_gordan(1, 0.5, 1, -0.5, 0, 0) == 0.0  # off-support projections

    def test_highest_weight_state(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 2) == pytest.approx(1.0, abs=1e-15)

    def test_zero_outside_support(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0  # M != m1 + m2
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle fails
        assert clebsch_gordan(1, 2, 1, -2, 0, 0) == 0.0  # |m| > j
        assert clebsch_gordan(0.5, 0.5, 1, 0, 0, 0.5) == 0.0  # half-integer perimeter

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0.4, 0.4, 1, 0, 1, 0.4)

    @pytest.mark.parametrize("l", [58, 59, 61, 100])
    def test_pi_factor_matches_closed_form_at_large_l(self, l):
        # From j ~ 58 the Racah radicand lies beyond the float range; the coefficient does not.
        assert dipole_angular_factors(l, 0, l - 1, 0)[1] == pytest.approx(l / np.sqrt(4 * l * l - 1), rel=1e-12)
        assert dipole_angular_factors(l, 0, l + 1, 0)[1] == pytest.approx(
            (l + 1) / np.sqrt((2 * l + 1) * (2 * l + 3)), rel=1e-12
        )

    @pytest.mark.parametrize("tj1", range(0, 7))
    @pytest.mark.parametrize("tj2", range(0, 7))
    def test_matches_lowering_oracle(self, tj1, tj2):
        oracle = cg_by_lowering(tj1, tj2)
        for (tm1, tm2, t_big_j, t_big_m), expected in oracle.items():
            value = clebsch_gordan(
                Fraction(tj1, 2), Fraction(tm1, 2),
                Fraction(tj2, 2), Fraction(tm2, 2),
                Fraction(t_big_j, 2), Fraction(t_big_m, 2),
            )
            assert value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("tj1,tj2", [(2, 2), (3, 2), (6, 5), (4, 4)])
    def test_triangle_rule_property(self, tj1, tj2):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                for t_big_j in range(0, tj1 + tj2 + 3, 2 if (tj1 + tj2) % 2 == 0 else 1):
                    for t_big_m in range(-t_big_j, t_big_j + 1, 2):
                        value = clebsch_gordan(
                            Fraction(tj1, 2), Fraction(tm1, 2),
                            Fraction(tj2, 2), Fraction(tm2, 2),
                            Fraction(t_big_j, 2), Fraction(t_big_m, 2),
                        )
                        if value != 0.0:
                            assert abs(tj1 - tj2) <= t_big_j <= tj1 + tj2
                            assert t_big_m == tm1 + tm2


class TestCGTable:
    """Orthonormality of the full coefficient table of one (j1, j2) pair."""

    @pytest.mark.parametrize("tj1", range(0, 7))
    @pytest.mark.parametrize("tj2", range(0, 7))
    def test_column_orthonormality(self, tj1, tj2):
        # sum over (m1, m2) of products for two coupled labels
        table = coefficient_table(tj1, tj2)
        pairs = [
            (t_big_j, t_big_m)
            for t_big_j in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for t_big_m in range(-t_big_j, t_big_j + 1, 2)
        ]
        for a, (tj_a, tm_a) in enumerate(pairs):
            for tj_b, tm_b in pairs[a:]:
                overlap = sum(
                    table.get((tm1, tm2, tj_a, tm_a), 0.0)
                    * table.get((tm1, tm2, tj_b, tm_b), 0.0)
                    for tm1 in range(-tj1, tj1 + 1, 2)
                    for tm2 in range(-tj2, tj2 + 1, 2)
                )
                expected = 1.0 if (tj_a, tm_a) == (tj_b, tm_b) else 0.0
                assert overlap == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("tj1", range(0, 7))
    @pytest.mark.parametrize("tj2", range(0, 7))
    def test_row_orthonormality(self, tj1, tj2):
        # sum over (J, M) of products for two uncoupled projections
        table = coefficient_table(tj1, tj2)
        coupled = [
            (t_big_j, t_big_m)
            for t_big_j in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for t_big_m in range(-t_big_j, t_big_j + 1, 2)
        ]
        projections = [
            (tm1, tm2)
            for tm1 in range(-tj1, tj1 + 1, 2)
            for tm2 in range(-tj2, tj2 + 1, 2)
        ]
        for a, (tm1_a, tm2_a) in enumerate(projections):
            for tm1_b, tm2_b in projections[a:]:
                overlap = sum(
                    table.get((tm1_a, tm2_a, tj, tm), 0.0)
                    * table.get((tm1_b, tm2_b, tj, tm), 0.0)
                    for tj, tm in coupled
                )
                expected = 1.0 if (tm1_a, tm2_a) == (tm1_b, tm2_b) else 0.0
                assert overlap == pytest.approx(expected, abs=1e-10)
