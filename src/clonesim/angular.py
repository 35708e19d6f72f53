"""SU(2) representation theory with parity bookkeeping.

Angular momenta are stored as twice-j integers so half-integer labels never
touch floating point.  Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention and are evaluated from the Racah
closed-form sum with exact integer factorials (rationals throughout, one
square root at the end), so forbidden couplings come out exactly zero.

Containment of an irrep in a tensor product is the selection-rule
criterion used by the emission layer: a ground irrep participates in a
dipole transition only if it appears in excited (x) photon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from numbers import Real

#: Parity of the dipole photon irrep (j=1, odd under inversion).
PHOTON_PARITY = -1


def twice(j, what: str = "angular momentum") -> int:
    """Convert a half-integer (int, float, or Fraction) to its exact twice-value."""
    doubled = 2 * j
    rounded = round(doubled)
    if not isinstance(j, Real) or abs(doubled - rounded) > 1e-9:
        raise ValueError(f"{what} {j!r} is not a half-integer")
    return int(rounded)


@dataclass(frozen=True, order=True)
class IrrepLabel:
    """SU(2) irrep label j (stored as 2j) with optional parity +1/-1."""

    twice_j: int
    parity: int | None = None

    def __post_init__(self) -> None:
        if self.twice_j < 0:
            raise ValueError("twice_j must be non-negative")
        if self.parity not in (None, 1, -1):
            raise ValueError("parity must be +1, -1, or None")

    @property
    def j(self) -> float:
        return self.twice_j / 2

    def __repr__(self) -> str:
        j_str = str(self.twice_j // 2) if self.twice_j % 2 == 0 else f"{self.twice_j}/2"
        if self.parity is None:
            return f"IrrepLabel(j={j_str})"
        return f"IrrepLabel(j={j_str}, parity={'+' if self.parity > 0 else '-'})"


PHOTON_IRREP = IrrepLabel(twice_j=2, parity=PHOTON_PARITY)


def _couplable(tj1: int, tj2: int, t_big_j: int) -> bool:
    """The triangle rule on twice-j values, with the integer-perimeter constraint."""
    return (
        abs(tj1 - tj2) <= t_big_j <= tj1 + tj2
        and (tj1 + tj2 + t_big_j) % 2 == 0
    )


def contains(target: IrrepLabel, product: tuple[IrrepLabel, IrrepLabel]) -> bool:
    """True iff ``target`` appears in the decomposition of ``product``.

    The j test is the triangle rule; the parity test applies only when both
    the target and the product carry definite parity.
    """
    j_e, j_gamma = product
    parities = (target.parity, j_e.parity, j_gamma.parity)
    return _couplable(j_e.twice_j, j_gamma.twice_j, target.twice_j) and (
        None in parities or target.parity == j_e.parity * j_gamma.parity
    )


def _valid_projection(tj: int, tm: int) -> bool:
    return abs(tm) <= tj and (tj + tm) % 2 == 0


def clebsch_gordan(j1, m1, j2, m2, big_j, big_m) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Arguments are half-integers (2x each must be integral).  Returns 0.0
    outside the support (M != m1+m2, triangle failure, or |m| > j), never
    raises for such inputs.
    """
    tj1, tm1 = twice(j1, "j1"), twice(m1, "m1")
    tj2, tm2 = twice(j2, "j2"), twice(m2, "m2")
    tbj, tbm = twice(big_j, "J"), twice(big_m, "M")
    if tj1 < 0 or tj2 < 0 or tbj < 0:
        raise ValueError("angular momenta must be non-negative")
    if not (_valid_projection(tj1, tm1) and _valid_projection(tj2, tm2) and _valid_projection(tbj, tbm)):
        return 0.0
    if tm1 + tm2 != tbm or not _couplable(tj1, tj2, tbj):
        return 0.0

    # All twice-value differences below are even by the parity constraints
    # already checked, so integer division is exact.
    a = (tj1 + tj2 - tbj) // 2
    b = (tj1 - tj2 + tbj) // 2
    c = (-tj1 + tj2 + tbj) // 2
    radicand = Fraction(
        (tbj + 1) * factorial(a) * factorial(b) * factorial(c),
        factorial((tj1 + tj2 + tbj) // 2 + 1),
    )
    radicand *= (
        factorial((tbj + tbm) // 2)
        * factorial((tbj - tbm) // 2)
        * factorial((tj1 - tm1) // 2)
        * factorial((tj1 + tm1) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial((tj2 + tm2) // 2)
    )

    k_min = max(0, (tj2 - tbj - tm1) // 2, (tj1 + tm2 - tbj) // 2)
    k_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denominator = (
            factorial(k)
            * factorial(a - k)
            * factorial((tj1 - tm1) // 2 - k)
            * factorial((tj2 + tm2) // 2 - k)
            * factorial((tbj - tj2 + tm1) // 2 + k)
            * factorial((tbj - tj1 - tm2) // 2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, denominator)
    if total == 0:
        return 0.0
    return float(total) * sqrt(float(radicand))
