"""Atomic dipole transitions and the stimulated-emission copying model.

An :class:`AtomicSystem` is one ground level plus a manifold of excited
levels, each with a radial dipole factor (user-supplied constants; the
selection-rule structure is entirely angular).  Transition amplitudes use
the Wigner-Eckart factorization of the spherical dipole components
C^(1)_q, so an amplitude is exactly zero whenever the selection rules
Delta l = +-1, Delta m = q fail.

Each system builds these amplitudes once, as its dipole table D
(``AtomicSystem.amplitudes``).  D is the one source of truth for the
couplings: the clonable domain, the ancilla map, spontaneous-emission
weights and the interaction Hamiltonian all read it.

The clonable domain of a system is the span of the polarization
components with at least one allowed transition.  A mode map pairs each
photon component with an excited level that emits it, or with ``None``;
:func:`validate_mode_map` rejects a level that cannot emit its component,
so a mapped component is always a coupled one.  The mode map is the
copy's ancilla map V: the incoming photon's amplitudes are transplanted
onto the mapped levels as V|photon>, and that excited superposition is
the ancilla of the copy map U = I (x) V^dagger, which copies the photon
perfectly.  A photon with support on the ``None`` components raises
:class:`~clonesim.errors.DomainViolationError`, from the one domain test
in the ancilla map; the restriction comes from the atomic symmetries, not
from the copying construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite, sqrt
from numbers import Integral, Real
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .angular import IrrepLabel, clebsch_gordan
from .copying import CloneReport, apply_copy_map
from .errors import DimensionMismatchError, DomainViolationError
from .hilbert import DensityMatrix, Ket, OperatorMatrix

#: Amplitudes below this are treated as symmetry-forbidden (they are exact
#: zeros from the CG machinery; the threshold only guards radial rounding).
AMPLITUDE_TOLERANCE = 1e-12

#: A photon is copied iff its norm on the components its mode map leaves
#: uncoupled (``None``) is at most this.
DOMAIN_MEMBERSHIP_TOLERANCE = 1e-9

_CANONICAL_MODE_LABELS = {-1: "sigma-", 0: "pi", +1: "sigma+"}


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


def spherical_mode(q: int) -> PolarizationMode:
    """Canonical polarization mode for spherical component q."""
    if q not in _CANONICAL_MODE_LABELS:
        raise ValueError(f"q={q} must be -1, 0, or +1")
    return PolarizationMode(_CANONICAL_MODE_LABELS[q], q)


SIGMA_MINUS = spherical_mode(-1)
PI = spherical_mode(0)
SIGMA_PLUS = spherical_mode(+1)

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

    The label is a non-empty string and the energy a finite real number;
    neither is coerced (bools are rejected).
    """

    label: str
    l: int
    m: int
    energy: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"level label must be a non-empty string, got {self.label!r}")
        if isinstance(self.energy, bool) or not isinstance(self.energy, Real) or not isfinite(self.energy):
            raise ValueError(f"energy of level {self.label!r} must be a finite real number, got {self.energy!r}")
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
    factor (bools and strings are rejected, not coerced).

    ``amplitudes`` is the read-only dipole table D: the
    :func:`transition_amplitude` of excited level i and component q sits
    at [i, q + 1].  ``allowed`` is its mask ``|D| > AMPLITUDE_TOLERANCE``.
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
            if isinstance(value, bool) or not isinstance(value, Real) or not (isfinite(value) and value > 0):
                raise ValueError(f"radial factor for {label!r} must be a finite positive number, got {value!r}")
            factors[label] = float(value)
        object.__setattr__(self, "radial_factors", MappingProxyType(factors))

        g = self.ground
        table = np.zeros((len(self.excited), 3), dtype=complex)
        for i, e in enumerate(self.excited):
            reduced = clebsch_gordan(e.l, 0, 1, 0, g.l, 0)
            for q in (-1, 0, 1):
                angular = clebsch_gordan(e.l, e.m, 1, q, g.l, g.m) * sqrt((2 * e.l + 1) / (2 * g.l + 1)) * reduced
                table[i, q + 1] = factors[e.label] * angular
        allowed = np.abs(table) > AMPLITUDE_TOLERANCE
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
        ground=AtomicLevel("g", l=0, m=0, energy=0.0),
        excited=(
            AtomicLevel("e-", l=1, m=-1, energy=1.0),
            AtomicLevel("e0", l=1, m=0, energy=1.0),
            AtomicLevel("e+", l=1, m=+1, energy=1.0),
        ),
        radial_factors={"e-": radial, "e0": radial, "e+": radial},
    )


def transition_amplitude(system: AtomicSystem, e: AtomicLevel, pol: PolarizationMode) -> complex:
    """Dipole amplitude for |e> -> |ground> coupled to polarization ``pol``.

    Wigner-Eckart form: radial factor times
    <l_g m_g | C^(1)_q | l_e m_e> =
        <l_e m_e; 1 q | l_g m_g> * sqrt((2 l_e + 1)/(2 l_g + 1))
                                 * <l_e 0; 1 0 | l_g 0>.

    Exactly zero unless l_g = l_e +- 1 and m_g = m_e + q.  This is the
    entry of the system's dipole table ``amplitudes``.
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


def _ancilla_map(psi: Ket, system: AtomicSystem, mode_map: ModeMap) -> OperatorMatrix:
    """The mode map as the copy's ancilla map V, a manifold x photon matrix.

    This is the one place that decides which photon components the atom
    copies.  V has a 1 at (level of ``mode_map[j]``, j) for each mapped
    component and a zero column for each ``None``, so it is a partial
    isometry.  A photon whose norm on the ``None`` components exceeds
    ``DOMAIN_MEMBERSHIP_TOLERANCE`` is outside the clonable domain.
    """
    pairs = validate_mode_map(system, mode_map)
    if len(pairs) != psi.dim:
        raise DimensionMismatchError(f"mode map has {len(pairs)} entries for a photon of dim {psi.dim}")
    v = np.zeros((system.manifold_dim, psi.dim), dtype=complex)
    uncoupled = []
    for j, (_, label) in enumerate(pairs):
        if label is None:
            uncoupled.append(j)
        else:
            v[system.excited_index(label), j] = 1.0
    outside = float(np.linalg.norm(psi.amplitudes[uncoupled]))
    if outside > DOMAIN_MEMBERSHIP_TOLERANCE:
        raise DomainViolationError(
            f"photon has norm {outside:.3e} on modes {[pairs[j][0].label for j in uncoupled]}, "
            "which no mapped level emits"
        )
    return OperatorMatrix(v)


def adaptive_ancilla(photon: Ket, system: AtomicSystem, mode_map: ModeMap) -> Ket:
    """The excited-manifold ancilla that :func:`stimulated_clone` prepares."""
    return stimulated_clone(photon, system, mode_map).ancilla


def stimulated_clone(photon: Ket, system: AtomicSystem, mode_map: ModeMap) -> CloneReport:
    """Copy a photon polarization state via the adaptive atomic ancilla.

    The mode map is the ancilla map V.  The adaptive ancilla is the
    normalized V|photon>: component j of the photon is carried by the
    excited level ``mode_map[j]``, so the ancilla is the superposition of
    those levels with the photon's coefficients.  Photon support on a
    component mapped to ``None`` is a domain violation.  The copy map
    U = I (x) V^dagger is applied in factored form, never as a dense
    matrix.  The copy acts on the photon's coupled part V^dagger|ancilla>,
    which drops only components the domain test bounds by
    ``DOMAIN_MEMBERSHIP_TOLERANCE``.  The report keeps the full photon as
    input, its output lives in the photon (x) photon space, and the
    fidelity against photon (x) photon is 1.
    """
    psi = photon.normalize()
    v = _ancilla_map(psi, system, mode_map)
    ancilla = Ket(v.entries @ psi.amplitudes).normalize()
    coupled = Ket(v.entries.conj().T @ ancilla.amplitudes)
    return replace(apply_copy_map(coupled, ancilla, v, matched=True), input=psi)


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
    transition into ``modes``.  Coherences between manifold levels are
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

    if not system.allowed[populations > 0][:, columns].any():
        raise DomainViolationError("no allowed decay channel into the given modes")
    weights = populations @ np.abs(system.amplitudes[:, columns]) ** 2
    if not weights.sum() > 0:
        raise ValueError("every allowed decay weight underflows to zero")
    return DensityMatrix(np.diag(weights / weights.sum()).astype(complex))
