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
components with at least one allowed transition.  A :class:`ModeMap`
pairs each photon component with an excited level of its system that
emits it, or with ``None``; it is checked once, when it is built, and
refuses a level that cannot emit its component, so a mapped component is
always a coupled one.  The same pass builds what a copy reads, and the
mode map holds it read-only: the ancilla map V, a manifold x photon array
with 1 / D for each mapped level and component and a zero column for each
``None``, so the atom prepared as V|photon> emits the photon itself; the
mask of V's nonzero columns, ``coupled``, the photon components the map
copies; and the couplings C, the dipole table's columns of the photon's
modes.  :func:`stimulated_clone` reports the photon pair that atom emits
through C, and normalizes with the one arithmetic of
:mod:`clonesim.hilbert`, so it builds only the kets its report holds.  A
photon with support off ``coupled`` raises
:class:`~clonesim.errors.DomainViolationError`, from the one domain test
in :func:`stimulated_clone`.  That restriction belongs to the mode map, not
to the copying construction: the atomic symmetries bound it by the clonable
domain, but a ``None`` may also sit on a component that some level emits,
so a map can copy less than the domain holds.
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
from .hilbert import Ket, OperatorMatrix, _power_of_two_scaled, _unit

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
    """Dipole-table columns of ``modes``, in order; there must be at least one, with unique labels."""
    if not modes:
        raise ValueError("at least one polarization mode is required")
    if len({mode.label for mode in modes}) != len(modes):
        raise ValueError("mode labels must be unique")
    return np.array([mode.q + 1 for mode in modes], dtype=int)


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
    are computed, and each is written with its conjugate at the transposed
    position, so the matrix is hermitian by construction: no position is
    written twice, and none on the diagonal.  The build costs O(nnz) apart
    from the zero-filled dense result, which is frozen and handed to
    :class:`~clonesim.hilbert.OperatorMatrix` without a copy.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
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
    dim = (1 + system.manifold_dim) * fock_dim
    entries = np.zeros((dim, dim), dtype=complex)
    for mask, ground, ladder in terms:
        value = (-amplitude * ladder)[mask]
        entries[ground[mask], excited[mask]] = value
        entries[excited[mask], ground[mask]] = value.conj()
    entries.setflags(write=False)
    return OperatorMatrix(entries)


def clonable_domain(system: AtomicSystem) -> tuple[PolarizationMode, ...]:
    """The polarization modes with at least one allowed transition, ordered by q.

    Their span is the clonable domain; the tuple is empty when every
    transition is symmetry-forbidden.
    """
    coupled = np.flatnonzero(system.allowed.any(axis=0))  # SPHERICAL_MODES is ordered by q
    return tuple(SPHERICAL_MODES[column] for column in coupled)


@dataclass(frozen=True, eq=False)
class ModeMap:
    """The photon basis of a copy on ``system``: one (mode, excited-level
    label) pair per photon component, in component order; ``None`` marks a
    component with no dipole-coupled level.

    ``pairs`` is read once, into a tuple.  A mode map exists only in valid
    form: its pairs are non-empty, its modes distinct, its levels distinct
    excited levels of ``system``, and each mapped level emits its mode (a
    dipole-allowed transition); it raises ``ValueError`` otherwise.

    The same pass builds the read-only ancilla map ``v``: 1 / D[i, q_j + 1]
    at (level i of pair j, j), and a zero column exactly for each ``None``,
    since D is finite and never a subnormal allowed entry, so 1 / D is never
    0.  ``coupled`` is the read-only boolean mask of V's nonzero columns,
    the photon components the map copies, and ``couplings`` the read-only
    C = D[:, q_j + 1], manifold x photon.
    """

    system: AtomicSystem
    pairs: tuple[tuple[PolarizationMode, str | None], ...]
    v: np.ndarray = field(init=False, repr=False)
    coupled: np.ndarray = field(init=False, repr=False)
    couplings: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pairs = tuple((mode, label) for mode, label in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("mode map must pair at least one photon component")
        columns = _mode_columns([mode for mode, _ in pairs])
        mapped = [label for _, label in pairs if label is not None]
        if len(set(mapped)) != len(mapped):
            raise ValueError("mode map must be injective on excited levels")
        system = self.system
        rows = {level.label: i for i, level in enumerate(system.excited)}
        unknown = [label for label in mapped if label not in rows]
        if unknown:
            raise ValueError(f"mode map points at unknown excited levels {unknown}")
        v = np.zeros((system.manifold_dim, len(pairs)), dtype=complex)
        forbidden = []
        for j, (mode, label) in enumerate(pairs):
            if label is None:
                continue
            i = rows[label]
            if system.allowed[i, columns[j]]:
                v[i, j] = 1.0 / system.amplitudes[i, columns[j]]
            else:
                forbidden.append(f"{mode.label}->{label}")
        if forbidden:
            raise ValueError(f"mode map pairs modes with levels that cannot emit them: {forbidden}")
        couplings = system.amplitudes[:, columns]
        for name, value in (("v", v), ("coupled", v.any(axis=0)), ("couplings", couplings)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def stimulated_clone(photon: Ket, mode_map: ModeMap) -> CloneReport:
    """Copy a photon polarization state by stimulated emission from the adaptive ancilla.

    The ancilla is the normalized V|photon> of the mode map's V, after the
    one domain test: a photon's norm off the mode map's ``coupled`` mask
    must be at most ``DOMAIN_MEMBERSHIP_TOLERANCE``.  It emits
    phi = D[:, photon columns]^T |ancilla>, read from the mode map's
    couplings, beside the photon, so the output is the pair
    a_phi^dagger a_photon^dagger|0> in photon (x) photon space, normalized:
    the ground projection of the interaction Hamiltonian applied to
    |ancilla> (x) |1_photon>, without its overall sign.  The fidelity is
    2c / (1 + c) with c = |<phi|photon>|^2 / <phi|phi>.  V|photon> scales
    as 1 / D, which normalization absorbs, and phi as D, so phi is brought
    to a unit largest modulus before the pair is formed: the copy is the
    same at any radial scale.
    """
    psi = photon.normalize()
    v = mode_map.v
    if v.shape[1] != psi.dim:
        raise DimensionMismatchError(f"mode map has {v.shape[1]} entries for a photon of dim {psi.dim}")
    uncoupled = ~mode_map.coupled
    outside = float(np.linalg.norm(psi.amplitudes[uncoupled]))
    if outside > DOMAIN_MEMBERSHIP_TOLERANCE:
        modes = [mode_map.pairs[j][0].label for j in np.flatnonzero(uncoupled)]
        raise DomainViolationError(f"photon has norm {outside:.3e} on modes {modes}, which no mapped level emits")
    ancilla = _unit(v @ psi.amplitudes)
    phi = _power_of_two_scaled(mode_map.couplings.T @ ancilla)
    pair = np.outer(phi, psi.amplitudes)
    return CloneReport(input=psi, ancilla=Ket(ancilla), output=Ket(_unit((pair + pair.T).ravel())))


def spontaneous_emission_output(
    system: AtomicSystem,
    excited_state: Ket | None = None,
    modes: Sequence[PolarizationMode] = SPHERICAL_MODES,
) -> np.ndarray:
    """Polarization statistics of vacuum-driven decay, in the ensemble picture.

    Every mode is weighted equally by the vacuum, so each decay channel
    contributes its squared amplitude: the result is the float vector of
    weights sum_j p_j |amplitude(e_j, q)|^2 over ``modes``, normalized to
    sum 1.  The output density matrix is diagonal in ``modes`` with these
    weights; the ``spontaneous`` report writes diag(weights) as its
    ``density_matrix`` until report schema 4.  Populations come from
    ``excited_state``; ``None`` is the unpolarized ensemble (uniform
    populations over the manifold).  There is no decay channel when no
    populated level has an ``allowed`` transition into ``modes``, and a
    ``ValueError`` when such a mode's weight underflows to 0.  Coherences
    between manifold levels are deliberately discarded: the statement
    under test is about statistics, not a single pure outcome.
    """
    columns = _mode_columns(modes)
    if excited_state is None:
        populations = np.full(system.manifold_dim, 1.0 / system.manifold_dim)
    elif excited_state.dim != system.manifold_dim:
        raise DimensionMismatchError(f"excited state dim {excited_state.dim} != manifold dim {system.manifold_dim}")
    else:
        populations = np.abs(_unit(excited_state.amplitudes)) ** 2

    emitted = system.allowed[populations > 0][:, columns].any(axis=0)
    if not emitted.any():
        raise DomainViolationError("no allowed decay channel into the given modes")
    # |D| is brought to a unit largest entry before it is squared, so no radial scale overflows.
    weights = populations @ _power_of_two_scaled(np.abs(system.amplitudes[:, columns])) ** 2
    if not (weights[emitted] > 0).all():
        raise ValueError("an allowed decay weight underflows to zero")
    return weights / weights.sum()
