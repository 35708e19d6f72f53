"""Atomic dipole transitions and the stimulated-emission copying model.

An :class:`AtomicSystem` is one ground level plus a manifold of excited
levels, each with a radial dipole factor (user-supplied constants; the
selection-rule structure is entirely angular).  Transition amplitudes use
the Wigner-Eckart factorization of the spherical dipole components
C^(1)_q, so an amplitude is exactly zero whenever the selection rules
Delta l = +-1, Delta m = q fail.

Each system builds these amplitudes once, as its dipole table D
(``AtomicSystem.amplitudes``): each entry is the level's radial factor
times the angular factor from :func:`~clonesim.angular.dipole_angular_factors`,
which is memoized per integer (l_e, m_e, l_g, m_g), so a system built from
levels seen before does no Clebsch-Gordan arithmetic.  A transition is
allowed iff its angular factor is nonzero, so the mask ``allowed`` is the
selection rules' exact zeros, whatever the radial scale.  D is the one
source of truth for the couplings: the clonable domain, the ancilla map,
spontaneous-emission weights and the interaction Hamiltonian all read it.

The clonable domain of a system is the span of the polarization
components with at least one allowed transition.  A mode map pairs each
photon component with an excited level that emits it, or with ``None``;
:func:`validate_mode_map` rejects a level that cannot emit its component,
so a mapped component is always a coupled one.  The mode map is the
copy's ancilla map V, a plain manifold x photon array holding 1 / D for
each mapped level and component, so the atom prepared as V|photon> emits
the photon itself; :func:`stimulated_clone` reports the photon pair that
atom emits through D.  A photon with support on the ``None`` components
raises :class:`~clonesim.errors.DomainViolationError`, from the one
domain test in the ancilla map; the restriction comes from the atomic
symmetries, not from the copying construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from numbers import Integral, Real
from sys import float_info
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .angular import IrrepLabel, dipole_angular_factors
from .copying import CloneReport
from .errors import DimensionMismatchError, DomainViolationError
from .hilbert import DensityMatrix, Ket, OperatorMatrix, _power_of_two_scaled

#: A photon is copied iff its norm on the components its mode map leaves
#: uncoupled (``None``) is at most this.
DOMAIN_MEMBERSHIP_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class PolarizationMode:
    """Photon polarization basis label tied to a spherical dipole component.

    q = -1, 0, +1 correspond to sigma-, pi, sigma+, with the spherical unit
    vectors e_0 = z and e_{+-1} = -+(x +- iy)/sqrt(2).
    """

    label: str
    q: int

    def __post_init__(self) -> None:
        if self.q not in (-1, 0, +1):
            raise ValueError(f"spherical component q={self.q} must be -1, 0, or +1")


SIGMA_MINUS = PolarizationMode("sigma-", -1)
PI = PolarizationMode("pi", 0)
SIGMA_PLUS = PolarizationMode("sigma+", +1)

#: The full polarization space, ordered by q.
SPHERICAL_MODES: tuple[PolarizationMode, ...] = (SIGMA_MINUS, PI, SIGMA_PLUS)


def mode_for_label(label: str) -> PolarizationMode:
    for mode in SPHERICAL_MODES:
        if mode.label == label:
            return mode
    raise ValueError(f"unknown polarization mode label {label!r}")


@dataclass(frozen=True)
class AtomicLevel:
    """One atomic level with orbital quantum numbers; parity is (-1)^l.

    The label is a non-empty string, not coerced.
    """

    label: str
    l: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"level label must be a non-empty string, got {self.label!r}")
        if not all(isinstance(n, Integral) and not isinstance(n, bool) for n in (self.l, self.m)):
            raise ValueError(f"l and m must be integers for level {self.label!r}, got {self.l!r} and {self.m!r}")
        if self.l < 0:
            raise ValueError("orbital quantum number l must be non-negative")
        if abs(self.m) > self.l:
            raise ValueError(f"|m|={abs(self.m)} exceeds l={self.l} for level {self.label!r}")

    @property
    def parity(self) -> int:
        return -1 if self.l % 2 else +1

    @property
    def irrep(self) -> IrrepLabel:
        return IrrepLabel(twice_j=2 * self.l, parity=self.parity)


@dataclass(frozen=True, eq=False)
class AtomicSystem:
    """Ground state plus excited-state manifold with radial dipole factors.

    Radial factors default to 1 for every excited level; they are
    dimensionless finite positive real constants multiplying the angular
    factor (bools and strings are rejected, not coerced).  A factor that
    makes an allowed amplitude subnormal is refused: 1 / D would overflow.

    ``amplitudes`` is the read-only dipole table D: the
    :func:`transition_amplitude` of excited level i and component q sits
    at [i, q + 1].  ``allowed`` is the mask of its nonzero angular factors.
    """

    ground: AtomicLevel
    excited: tuple[AtomicLevel, ...]
    radial_factors: Mapping[str, float] = field(default_factory=dict)
    amplitudes: np.ndarray = field(init=False, repr=False)
    allowed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "excited", tuple(self.excited))
        if not self.excited:
            raise ValueError("excited manifold must be non-empty")
        labels = [level.label for level in self.excited]
        if len(set(labels)) != len(labels) or self.ground.label in labels:
            raise ValueError("level labels must be unique")
        factors = dict(self.radial_factors) if self.radial_factors else {}
        unknown = set(factors) - set(labels)
        if unknown:
            raise ValueError(f"radial factors for unknown levels: {sorted(unknown)}")
        for label in labels:
            value = factors.setdefault(label, 1.0)
            try:
                valid = not isinstance(value, bool) and isinstance(value, Real) and isfinite(value) and value > 0
            except OverflowError:  # an integer beyond the float range
                valid = False
            if not valid:
                raise ValueError(f"radial factor for {label!r} must be a finite positive number, got {value!r}")
            factors[label] = float(value)
        object.__setattr__(self, "radial_factors", MappingProxyType(factors))

        g = self.ground
        angular = np.array([dipole_angular_factors(e.l, e.m, g.l, g.m) for e in self.excited])
        radial = np.array([factors[e.label] for e in self.excited])
        table = radial[:, None] * angular
        allowed = angular != 0
        if (np.abs(table[allowed]) < float_info.min).any():
            raise ValueError("a radial factor makes an allowed dipole amplitude subnormal, so 1 / D would overflow")
        table = table.astype(complex)
        table.setflags(write=False)
        allowed.setflags(write=False)
        object.__setattr__(self, "amplitudes", table)
        object.__setattr__(self, "allowed", allowed)

    @property
    def manifold_dim(self) -> int:
        return len(self.excited)

    def excited_index(self, label: str) -> int:
        for i, level in enumerate(self.excited):
            if level.label == label:
                return i
        raise KeyError(f"no excited level labeled {label!r}")


def p_manifold_system(radial: float = 1.0) -> AtomicSystem:
    """The workhorse test atom: s ground state below a full l=1 manifold."""
    return AtomicSystem(
        ground=AtomicLevel("g", l=0, m=0),
        excited=(
            AtomicLevel("e-", l=1, m=-1),
            AtomicLevel("e0", l=1, m=0),
            AtomicLevel("e+", l=1, m=+1),
        ),
        radial_factors={"e-": radial, "e0": radial, "e+": radial},
    )


def transition_amplitude(system: AtomicSystem, e: AtomicLevel, pol: PolarizationMode) -> complex:
    """Dipole amplitude for |e> -> |ground> coupled to polarization ``pol``.

    The radial factor times the angular factor
    <l_g m_g | C^(1)_q | l_e m_e> of
    :func:`~clonesim.angular.dipole_angular_factors`, so exactly zero
    unless l_g = l_e +- 1 and m_g = m_e + q.  This is the entry of the
    system's dipole table ``amplitudes``.
    """
    try:
        row = system.excited.index(e)
    except ValueError:
        raise KeyError(f"level {e.label!r} is not in the excited manifold") from None
    return complex(system.amplitudes[row, pol.q + 1])


def _mode_columns(modes: Sequence[PolarizationMode]) -> np.ndarray:
    """Dipole-table columns of ``modes``, in order; their labels must be unique."""
    if len({mode.label for mode in modes}) != len(modes):
        raise ValueError("mode labels must be unique")
    return np.array([mode.q + 1 for mode in modes], dtype=int)


def hamiltonian_basis(
    system: AtomicSystem, modes: Sequence[PolarizationMode], n_max: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Basis labels (atom label, per-mode occupations) in matrix index order.

    Ordering matches the Kronecker convention: atom factor major, then the
    modes in the given order, occupations 0..n_max each.
    """
    atom_labels = [system.ground.label] + [level.label for level in system.excited]
    occupation_lists: list[tuple[int, ...]] = [()]
    for _ in modes:
        occupation_lists = [occ + (n,) for occ in occupation_lists for n in range(n_max + 1)]
    return [(label, occ) for label in atom_labels for occ in occupation_lists]


def build_interaction_hamiltonian(
    system: AtomicSystem,
    modes: Sequence[PolarizationMode],
    n_max: int,
    include_counter_rotating: bool = False,
) -> OperatorMatrix:
    """Dipole coupling Hamiltonian on (atom levels) x (truncated Fock space).

    The excitation-conserving part couples |e, n> to |ground, n+1> with
    weight -(amplitude) * sqrt(n+1) for each allowed transition and mode;
    ``include_counter_rotating`` adds the |e, n> <-> |ground, n-1> pairs
    with weight -(amplitude) * sqrt(n).  Only the dipole table's nonzeros
    are computed, and the build, including the hermiticity check, costs
    O(nnz) apart from the zero-filled dense result.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    modes = list(modes)
    if not modes:
        raise ValueError("at least one field mode is required")
    columns = _mode_columns(modes)

    # One row per nonzero (excited level, mode) coupling, one column per Fock state.
    levels = n_max + 1
    fock_dim = levels ** len(modes)
    fock = np.arange(fock_dim)
    level_index, mode_index = np.nonzero(system.allowed[:, columns])
    amplitude = system.amplitudes[level_index, columns[mode_index]][:, None]
    stride = levels ** (len(modes) - 1 - mode_index)[:, None]
    occupation = fock // stride % levels
    excited = (1 + level_index)[:, None] * fock_dim + fock  # index of |e, n>

    # |e, n> couples to |ground, n + 1_k>, and counter-rotating to |ground, n - 1_k>.
    terms = [(occupation < n_max, fock + stride, np.sqrt(occupation + 1.0))]
    if include_counter_rotating:
        terms.append((occupation > 0, fock - stride, np.sqrt(occupation.astype(float))))
    rows, cols, values = [], [], []
    for mask, ground, ladder in terms:
        value = (-amplitude * ladder)[mask]
        rows += [ground[mask], excited[mask]]
        cols += [excited[mask], ground[mask]]
        values += [value, value.conj()]
    return OperatorMatrix.hermitian_from_nonzeros(
        (1 + system.manifold_dim) * fock_dim, np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    )


def clonable_domain(system: AtomicSystem) -> tuple[PolarizationMode, ...]:
    """The polarization modes with at least one allowed transition, ordered by q.

    Their span is the clonable domain; the tuple is empty when every
    transition is symmetry-forbidden.
    """
    coupled = np.flatnonzero(system.allowed.any(axis=0))  # SPHERICAL_MODES is ordered by q
    return tuple(SPHERICAL_MODES[column] for column in coupled)


#: Photon basis description: one (mode, excited-level label) pair per
#: photon component, in component order.  ``None`` marks a component with
#: no dipole-coupled level.
ModeMap = Sequence[tuple[PolarizationMode, str | None]]


def validate_mode_map(system: AtomicSystem, mode_map: ModeMap) -> list[tuple[PolarizationMode, str | None]]:
    """The mode map as a list, once its modes are distinct, its levels
    distinct excited levels of ``system``, and each mapped level emits its
    mode (a dipole-allowed transition); raises ``ValueError`` otherwise.

    After validation a non-null entry means a coupled component and
    ``None`` an uncoupled one.
    """
    pairs = list(mode_map)
    _mode_columns([mode for mode, _ in pairs])
    mapped = [label for _, label in pairs if label is not None]
    if len(set(mapped)) != len(mapped):
        raise ValueError("mode map must be injective on excited levels")
    known = {level.label for level in system.excited}
    unknown = [label for label in mapped if label not in known]
    if unknown:
        raise ValueError(f"mode map points at unknown excited levels {unknown}")
    forbidden = [
        f"{mode.label}->{label}"
        for mode, label in pairs
        if label is not None and not system.allowed[system.excited_index(label), mode.q + 1]
    ]
    if forbidden:
        raise ValueError(f"mode map pairs modes with levels that cannot emit them: {forbidden}")
    return pairs


def _ancilla_map(psi: Ket, system: AtomicSystem, mode_map: ModeMap) -> np.ndarray:
    """The mode map as the copy's ancilla map V, a manifold x photon array.

    This is the one place that decides which photon components the atom
    copies.  V has 1 / D[i, q_j + 1] at (level i of ``mode_map[j]``, j) for
    each mapped component, dividing out its dipole sign and radial factor,
    and a zero column for each ``None``.  A photon whose norm on the
    ``None`` components exceeds ``DOMAIN_MEMBERSHIP_TOLERANCE`` is outside
    the clonable domain.
    """
    pairs = validate_mode_map(system, mode_map)
    if len(pairs) != psi.dim:
        raise DimensionMismatchError(f"mode map has {len(pairs)} entries for a photon of dim {psi.dim}")
    v = np.zeros((system.manifold_dim, psi.dim), dtype=complex)
    uncoupled = []
    for j, (mode, label) in enumerate(pairs):
        if label is None:
            uncoupled.append(j)
        else:
            i = system.excited_index(label)
            v[i, j] = 1.0 / system.amplitudes[i, mode.q + 1]
    outside = float(np.linalg.norm(psi.amplitudes[uncoupled]))
    if outside > DOMAIN_MEMBERSHIP_TOLERANCE:
        raise DomainViolationError(
            f"photon has norm {outside:.3e} on modes {[pairs[j][0].label for j in uncoupled]}, "
            "which no mapped level emits"
        )
    return v


def stimulated_clone(photon: Ket, system: AtomicSystem, mode_map: ModeMap) -> CloneReport:
    """Copy a photon polarization state by stimulated emission from the adaptive ancilla.

    The ancilla is the normalized V|photon> of the ancilla map V.  It emits
    phi = D[:, photon columns]^T |ancilla>, read from the whole dipole
    table, beside the photon, so the output is the pair
    a_phi^dagger a_photon^dagger|0> in photon (x) photon space, normalized:
    the ground projection of the interaction Hamiltonian applied to
    |ancilla> (x) |1_photon>, without its overall sign.  The fidelity is
    2c / (1 + c) with c = |<phi|photon>|^2 / <phi|phi>.  V|photon> scales
    as 1 / D, which normalization absorbs, and phi as D, so phi is brought
    to a unit largest modulus before the pair is formed: the copy is the
    same at any radial scale.
    """
    psi = photon.normalize()
    v = _ancilla_map(psi, system, mode_map)
    ancilla = Ket(v @ psi.amplitudes).normalize()
    columns = [mode.q + 1 for mode, _ in mode_map]
    phi = _power_of_two_scaled(system.amplitudes[:, columns].T @ ancilla.amplitudes)
    pair = np.outer(phi, psi.amplitudes)
    output = Ket((pair + pair.T).ravel()).normalize()
    return CloneReport(input=psi, ancilla=ancilla, output=output)


def spontaneous_emission_output(
    system: AtomicSystem,
    excited_state: Ket | None = None,
    modes: Sequence[PolarizationMode] = SPHERICAL_MODES,
) -> DensityMatrix:
    """Polarization statistics of vacuum-driven decay, in the ensemble picture.

    Every mode is weighted equally by the vacuum, so each decay channel
    contributes its squared amplitude: the output density matrix is
    diagonal with weights sum_j p_j |amplitude(e_j, q)|^2, normalized over
    ``modes``.  Populations come from ``excited_state``; ``None`` is the
    unpolarized ensemble (uniform populations over the manifold).  There
    is no decay channel when no populated level has an ``allowed``
    transition into ``modes``, and a ``ValueError`` when such a mode's
    weight underflows to 0.  Coherences between manifold levels are
    deliberately discarded: the statement under test is about statistics,
    not a single pure outcome.
    """
    modes = list(modes)
    if not modes:
        raise ValueError("at least one polarization mode is required")
    columns = _mode_columns(modes)
    if excited_state is None:
        populations = np.full(system.manifold_dim, 1.0 / system.manifold_dim)
    elif excited_state.dim != system.manifold_dim:
        raise DimensionMismatchError(f"excited state dim {excited_state.dim} != manifold dim {system.manifold_dim}")
    else:
        populations = np.abs(excited_state.normalize().amplitudes) ** 2

    emitted = system.allowed[populations > 0][:, columns].any(axis=0)
    if not emitted.any():
        raise DomainViolationError("no allowed decay channel into the given modes")
    # |D| is brought to a unit largest entry before it is squared, so no radial scale overflows.
    weights = populations @ _power_of_two_scaled(np.abs(system.amplitudes[:, columns])) ** 2
    if not (weights[emitted] > 0).all():
        raise ValueError("an allowed decay weight underflows to zero")
    return DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
