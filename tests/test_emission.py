"""Tests for dipole amplitudes, the interaction Hamiltonian, clonable
domains, and the adaptive-ancilla stimulated cloning pipeline."""

import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from clonesim.angular import PHOTON_IRREP, contains
from clonesim.copying import CopyBasis, clone
from clonesim.emission import (
    PI,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    PolarizationMode,
    adaptive_ancilla,
    build_interaction_hamiltonian,
    clonable_domain,
    hamiltonian_basis,
    p_manifold_system,
    spherical_mode,
    spontaneous_emission_output,
    stimulated_clone,
    transition_amplitude,
    validate_mode_map,
)
from clonesim.errors import DimensionMismatchError, DomainViolationError
from clonesim.experiments import ExperimentSpec, load_atomic_system, run
from clonesim.hilbert import Ket, max_abs, random_ket

from oracles import angular_factor_by_quadrature, hamiltonian_by_kron

INV_SQRT3 = 1.0 / np.sqrt(3.0)
INV_SQRT2 = 1.0 / np.sqrt(2.0)

FULL_MODE_MAP = ((SIGMA_MINUS, "e+"), (PI, "e0"), (SIGMA_PLUS, "e-"))


def two_level_pi_system(radial: float = 1.0) -> AtomicSystem:
    return AtomicSystem(
        ground=AtomicLevel("g", l=0, m=0),
        excited=(AtomicLevel("e0", l=1, m=0, energy=1.0),),
        radial_factors={"e0": radial},
    )


def s_to_s_system() -> AtomicSystem:
    return AtomicSystem(
        ground=AtomicLevel("g", l=0, m=0),
        excited=(AtomicLevel("s2", l=0, m=0, energy=1.0),),
    )


def seeded_radial_system(kind: str, seed: int = 7) -> AtomicSystem:
    """A test atom with random radial factors in [0.3, 3)."""
    rng = np.random.default_rng(seed)
    if kind == "p-manifold":
        ground = AtomicLevel("g", l=0, m=0)
        excited = p_manifold_system().excited
    elif kind == "s-and-p":
        ground = AtomicLevel("1s", l=0, m=0)
        excited = (AtomicLevel("2s", l=0, m=0),) + tuple(AtomicLevel(f"2p{m}", l=1, m=m) for m in (-1, 0, 1))
    else:  # "d-ground": p and f levels coupled to an l=2, m=1 ground level
        ground = AtomicLevel("g", l=2, m=1)
        excited = tuple(AtomicLevel(f"p{m}", l=1, m=m) for m in (-1, 0, 1)) + tuple(
            AtomicLevel(f"f{m}", l=3, m=m) for m in (0, 1, 2)
        )
    radial = {level.label: float(rng.uniform(0.3, 3.0)) for level in excited}
    return AtomicSystem(ground=ground, excited=excited, radial_factors=radial)


def quadrature_table(system: AtomicSystem) -> np.ndarray:
    """Radial factor times the quadrature angular factor, levels x (q + 1)."""
    g = system.ground
    return np.array([
        [
            system.radial_factors[e.label] * angular_factor_by_quadrature(g.l, g.m, e.l, e.m, q)
            for q in (-1, 0, 1)
        ]
        for e in system.excited
    ])


RADIAL_SYSTEMS = ("p-manifold", "s-and-p", "d-ground")


class TestPolarizationMode:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            spherical_mode(2)
        with pytest.raises(ValueError, match="q=2"):
            PolarizationMode("bad", 2)


class TestAtomicLevel:
    def test_parity(self):
        assert AtomicLevel("s", l=0, m=0).parity == +1
        assert AtomicLevel("p", l=1, m=0).parity == -1
        assert AtomicLevel("d", l=2, m=1).parity == +1

    def test_rejects_m_beyond_l(self):
        with pytest.raises(ValueError):
            AtomicLevel("bad", l=1, m=2)

    @pytest.mark.parametrize("l,m", [(1.5, 0), (1.0, 0), (True, 0), (1, 0.0), (1, "0")])
    def test_rejects_non_integer_quantum_numbers(self, l, m):
        with pytest.raises(ValueError, match="must be integers"):
            AtomicLevel("bad", l=l, m=m)

    def test_accepts_numpy_integers(self):
        assert AtomicLevel("p", l=np.int64(1), m=np.int32(-1)).parity == -1

    def test_irrep_carries_parity(self):
        irrep = AtomicLevel("p", l=1, m=0).irrep
        assert irrep.j == 1 and irrep.parity == -1


class TestAtomicSystem:
    def test_radial_factors_default_to_one(self):
        system = two_level_pi_system()
        assert system.radial_factors["e0"] == 1.0

    def test_rejects_duplicate_labels(self):
        level = AtomicLevel("e", l=1, m=0)
        with pytest.raises(ValueError):
            AtomicSystem(ground=AtomicLevel("g", l=0, m=0), excited=(level, level))

    def test_rejects_unknown_radial_keys(self):
        with pytest.raises(ValueError):
            AtomicSystem(
                ground=AtomicLevel("g", l=0, m=0),
                excited=(AtomicLevel("e", l=1, m=0),),
                radial_factors={"nope": 1.0},
            )

    def test_rejects_nonpositive_radial(self):
        with pytest.raises(ValueError):
            two_level_pi_system(radial=0.0)

    @pytest.mark.parametrize("radial", [np.nan, np.inf, True, "1", None])
    def test_rejects_non_finite_or_non_numeric_radial(self, radial):
        with pytest.raises(ValueError, match="finite positive number"):
            two_level_pi_system(radial=radial)

    @pytest.mark.parametrize("radial", [2, np.float64(2.0), np.float32(2.0)])
    def test_accepts_real_radial_as_float(self, radial):
        factor = two_level_pi_system(radial=radial).radial_factors["e0"]
        assert type(factor) is float and factor == 2.0

    def test_rejects_empty_manifold(self):
        with pytest.raises(ValueError):
            AtomicSystem(ground=AtomicLevel("g", l=0, m=0), excited=())


class TestTransitionAmplitude:
    def test_pi_transition_magnitude(self):
        system = two_level_pi_system()
        amp = transition_amplitude(system, system.excited[0], PI)
        assert abs(amp) == pytest.approx(INV_SQRT3, abs=1e-12)

    def test_delta_m_mismatch_is_exact_zero(self):
        system = two_level_pi_system()
        assert transition_amplitude(system, system.excited[0], SIGMA_PLUS) == 0.0

    def test_l_zero_to_zero_forbidden(self):
        system = s_to_s_system()
        for mode in SPHERICAL_MODES:
            assert transition_amplitude(system, system.excited[0], mode) == 0.0

    def test_radial_factor_scales(self):
        weak = two_level_pi_system(radial=0.25)
        amp = transition_amplitude(weak, weak.excited[0], PI)
        assert abs(amp) == pytest.approx(0.25 * INV_SQRT3, abs=1e-12)

    def test_unknown_level_rejected(self):
        system = two_level_pi_system()
        with pytest.raises(KeyError):
            transition_amplitude(system, AtomicLevel("other", l=1, m=0), PI)

    def test_matches_quadrature_oracle_on_p_manifold(self):
        system = p_manifold_system()
        for level in system.excited:
            for mode in SPHERICAL_MODES:
                amp = transition_amplitude(system, level, mode)
                oracle = angular_factor_by_quadrature(0, 0, level.l, level.m, mode.q)
                assert amp == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("l_e", [0, 1, 2, 3])
    def test_matches_quadrature_oracle_generic_ground(self, l_e):
        # d ground state picks up transitions from p and f manifolds
        ground = AtomicLevel("g", l=2, m=1)
        excited = tuple(
            AtomicLevel(f"e{m}", l=l_e, m=m, energy=1.0) for m in range(-l_e, l_e + 1)
        )
        system = AtomicSystem(ground=ground, excited=excited)
        for level in excited:
            for mode in SPHERICAL_MODES:
                amp = transition_amplitude(system, level, mode)
                oracle = angular_factor_by_quadrature(2, 1, level.l, level.m, mode.q)
                assert amp == pytest.approx(oracle, abs=1e-10)

    def test_zero_iff_irrep_containment_fails(self):
        # the selection-rule criterion restated at the amplitude level
        for l_g in range(0, 3):
            ground = AtomicLevel("g", l=l_g, m=0)
            for l_e in range(0, 3):
                excited = tuple(
                    AtomicLevel(f"e{m}", l=l_e, m=m, energy=1.0)
                    for m in range(-l_e, l_e + 1)
                )
                system = AtomicSystem(ground=ground, excited=excited)
                for level in excited:
                    for mode in SPHERICAL_MODES:
                        amp = transition_amplitude(system, level, mode)
                        irrep_ok = contains(ground.irrep, (level.irrep, PHOTON_IRREP))
                        weight_ok = ground.m == level.m + mode.q
                        assert (amp != 0.0) == (irrep_ok and weight_ok)


class TestDipoleTable:
    @pytest.mark.parametrize("kind", RADIAL_SYSTEMS)
    def test_equals_radial_times_quadrature(self, kind):
        system = seeded_radial_system(kind)
        oracle = quadrature_table(system)
        assert system.amplitudes.shape == (system.manifold_dim, 3)
        assert max_abs(system.amplitudes - oracle) < 1e-12
        assert np.array_equal(system.allowed, np.abs(oracle) > 1e-9)

    def test_read_only(self):
        system = p_manifold_system()
        with pytest.raises(ValueError):
            system.amplitudes[0, 0] = 1.0
        with pytest.raises(ValueError):
            system.allowed[0, 0] = True
        with pytest.raises(FrozenInstanceError):
            system.amplitudes = np.zeros((3, 3))

    def test_replace_rebuilds_table(self):
        system = p_manifold_system()
        before = system.amplitudes.copy()
        stronger = replace(system, radial_factors={"e-": 2.0, "e0": 0.5, "e+": 1.0})
        assert max_abs(system.amplitudes - before) == 0.0
        assert max_abs(stronger.amplitudes - before * np.array([[2.0], [0.5], [1.0]])) < 1e-15
        assert max_abs(stronger.amplitudes - quadrature_table(stronger)) < 1e-12
        assert transition_amplitude(stronger, stronger.excited[0], SIGMA_PLUS) == stronger.amplitudes[0, 2]

    def test_not_an_init_argument(self):
        with pytest.raises(TypeError):
            AtomicSystem(
                ground=AtomicLevel("g", l=0, m=0),
                excited=(AtomicLevel("e0", l=1, m=0),),
                amplitudes=np.zeros((1, 3)),
            )


class TestHamiltonianAgainstKronOracle:
    @pytest.mark.parametrize("kind", RADIAL_SYSTEMS)
    @pytest.mark.parametrize(
        "modes",
        [
            (PI,),
            (SIGMA_MINUS, SIGMA_PLUS),
            (SIGMA_PLUS, SIGMA_MINUS),
            (SIGMA_MINUS, PI, SIGMA_PLUS),
            (SIGMA_PLUS, PI, SIGMA_MINUS),
        ],
        ids=lambda modes: "+".join(mode.label for mode in modes),
    )
    def test_matches_per_term_kron_sum(self, kind, modes):
        system = seeded_radial_system(kind)
        table = quadrature_table(system)
        table[np.abs(table) < 1e-9] = 0.0
        couplings = table[:, [mode.q + 1 for mode in modes]]
        for n_max in (1, 2, 3, 4):
            for counter in (False, True):
                h = build_interaction_hamiltonian(system, modes, n_max, include_counter_rotating=counter).entries
                oracle = hamiltonian_by_kron(couplings, n_max, include_counter_rotating=counter)
                assert np.array_equal(h != 0, oracle != 0), (n_max, counter)
                assert max_abs(h - oracle) < 1e-12, (n_max, counter)


class TestInteractionHamiltonian:
    def test_single_excitation_structure_at_n_max_one(self):
        # radial sqrt(3) sets the pi amplitude to exactly 1
        system = two_level_pi_system(radial=np.sqrt(3.0))
        h = build_interaction_hamiltonian(system, [PI], n_max=1)
        labels = hamiltonian_basis(system, [PI], 1)
        assert h.entries.shape == (4, 4)
        e0_vac = labels.index(("e0", (0,)))
        g_one = labels.index(("g", (1,)))
        coupling = h.entries[g_one, e0_vac]
        assert abs(coupling) == pytest.approx(1.0, abs=1e-12)
        # no other independent couplings
        mask = np.ones_like(h.entries, dtype=bool)
        mask[g_one, e0_vac] = mask[e0_vac, g_one] = False
        assert max_abs(h.entries[mask]) == 0.0

    def test_stimulated_ladder_factor_sqrt2(self):
        system = two_level_pi_system()
        h = build_interaction_hamiltonian(system, [PI], n_max=2)
        labels = hamiltonian_basis(system, [PI], 2)
        single = abs(h.entries[labels.index(("g", (1,))), labels.index(("e0", (0,)))])
        stimulated = abs(h.entries[labels.index(("g", (2,))), labels.index(("e0", (1,)))])
        assert stimulated == pytest.approx(np.sqrt(2.0) * single, abs=1e-12)

    def test_forbidden_transition_gives_zero_block(self):
        h = build_interaction_hamiltonian(s_to_s_system(), list(SPHERICAL_MODES), n_max=2)
        assert max_abs(h.entries) == 0.0

    def test_hermitian_for_random_systems(self, rng):
        for _ in range(5):
            radial = {label: float(rng.uniform(0.2, 3.0)) for label in ("e-", "e0", "e+")}
            system = AtomicSystem(
                ground=AtomicLevel("g", l=0, m=0),
                excited=p_manifold_system().excited,
                radial_factors=radial,
            )
            modes = [SPHERICAL_MODES[i] for i in sorted(rng.choice(3, size=2, replace=False))]
            h = build_interaction_hamiltonian(system, modes, n_max=2)
            assert h.deviation_from_hermiticity() < 1e-12

    def test_conserving_part_commutes_with_excitation_number(self):
        system = p_manifold_system()
        modes = list(SPHERICAL_MODES)
        n_max = 2
        h = build_interaction_hamiltonian(system, modes, n_max)
        labels = hamiltonian_basis(system, modes, n_max)
        excitation = np.diag(
            [
                (0.0 if label == "g" else 1.0) + sum(occ)
                for label, occ in labels
            ]
        ).astype(complex)
        commutator = h.entries @ excitation - excitation @ h.entries
        assert max_abs(commutator) < 1e-10

    def test_counter_rotating_terms_optional(self):
        system = two_level_pi_system(radial=np.sqrt(3.0))
        h = build_interaction_hamiltonian(system, [PI], n_max=1, include_counter_rotating=True)
        labels = hamiltonian_basis(system, [PI], 1)
        counter = h.entries[labels.index(("g", (0,))), labels.index(("e0", (1,)))]
        assert abs(counter) == pytest.approx(1.0, abs=1e-12)

    def test_multimode_couplings_land_on_their_mode(self):
        system = p_manifold_system()
        modes = [SIGMA_MINUS, SIGMA_PLUS]
        h = build_interaction_hamiltonian(system, modes, n_max=1)
        labels = hamiltonian_basis(system, modes, 1)
        # sigma+ couples e-; photon appears in the second mode slot
        row = labels.index(("g", (0, 1)))
        col = labels.index(("e-", (0, 0)))
        assert abs(h.entries[row, col]) == pytest.approx(INV_SQRT3, abs=1e-12)
        # and not in the sigma- slot
        wrong_row = labels.index(("g", (1, 0)))
        assert h.entries[wrong_row, col] == 0.0

    def test_build_holds_one_dense_array(self, config_dir):
        # The nonzeros are scattered into one zero-filled array and checked in
        # O(nnz): no dense copy, conjugate transpose or difference.
        system, _ = load_atomic_system(config_dir / "hydrogen_n2.json")
        tracemalloc.start()
        try:
            h = build_interaction_hamiltonian(system, list(SPHERICAL_MODES), n_max=6, include_counter_rotating=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.entries.shape == (1715, 1715)
        assert peak <= 1.5 * h.entries.nbytes

    def test_rejects_bad_arguments(self):
        system = two_level_pi_system()
        with pytest.raises(ValueError):
            build_interaction_hamiltonian(system, [], n_max=2)
        with pytest.raises(ValueError):
            build_interaction_hamiltonian(system, [PI], n_max=0)
        with pytest.raises(ValueError, match="mode labels must be unique"):
            build_interaction_hamiltonian(system, [PI, PI], n_max=1)


def mode_labels(modes) -> tuple[str, ...]:
    return tuple(mode.label for mode in modes)


def domain_basis(config_dir, config: str) -> np.ndarray:
    """The ``basis`` of the domain report for ``config``, one row per ket."""
    report, _ = run(ExperimentSpec(kind="domain", config_path=str(config_dir / config)))
    assert report["results"]["dimension"] == len(report["results"]["basis"])
    pairs = np.array(report["results"]["basis"]).reshape(-1, 3, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


class TestClonableDomain:
    def test_full_p_manifold_spans_everything(self, config_dir):
        assert mode_labels(clonable_domain(p_manifold_system())) == ("sigma-", "pi", "sigma+")
        assert np.array_equal(domain_basis(config_dir, "full_p_manifold.json"), np.eye(3))

    def test_single_level_gives_one_dimension(self, config_dir):
        assert mode_labels(clonable_domain(two_level_pi_system())) == ("pi",)
        assert np.array_equal(domain_basis(config_dir, "pi_only.json"), np.eye(3)[[1]])

    @pytest.mark.parametrize("m,expected", [(-1, "sigma+"), (0, "pi"), (1, "sigma-")])
    def test_m_level_selects_opposite_component(self, m, expected):
        system = AtomicSystem(
            ground=AtomicLevel("g", l=0, m=0),
            excited=(AtomicLevel("e", l=1, m=m),),
        )
        assert mode_labels(clonable_domain(system)) == (expected,)

    def test_forbidden_system_gives_empty_domain(self):
        assert clonable_domain(s_to_s_system()) == ()


class TestValidateModeMap:
    @pytest.mark.parametrize(
        "make_system,mode_map",
        [
            (p_manifold_system, ((PI, "e+"),)),
            (p_manifold_system, ((SIGMA_MINUS, "e-"), (PI, "e0"))),
            (p_manifold_system, ((SIGMA_PLUS, "e+"), (SIGMA_MINUS, None))),
            (s_to_s_system, ((PI, "s2"),)),
        ],
        ids=["pi-to-e+", "sigma-minus-to-e-", "sigma-plus-to-e+", "s-to-s"],
    )
    def test_rejects_dipole_forbidden_pair(self, make_system, mode_map):
        with pytest.raises(ValueError, match="cannot emit"):
            validate_mode_map(make_system(), mode_map)


# Each case: (system, mode map, photon amplitudes); every one is refused.
REFUSED_PHOTONS = {
    "support-on-null-mode": (two_level_pi_system, ((PI, "e0"), (SIGMA_PLUS, None)), [INV_SQRT2, INV_SQRT2]),
    # Each null component is below tolerance, their norm (1.13e-9) is not.
    "null-norm-above-tolerance": (
        two_level_pi_system, ((PI, "e0"), (SIGMA_PLUS, None), (SIGMA_MINUS, None)), [1.0, 8e-10, 8e-10],
    ),
    "forbidden-pair": (p_manifold_system, ((PI, "e0"), (SIGMA_PLUS, "e+")), [1.0, 0.0]),
    "short-mode-map": (p_manifold_system, FULL_MODE_MAP[:2], [1.0, 0.0, 0.0]),
}


class TestOneDomainTest:
    @pytest.mark.parametrize("case", sorted(REFUSED_PHOTONS))
    def test_ancilla_and_clone_refuse_alike(self, case):
        make_system, mode_map, amplitudes = REFUSED_PHOTONS[case]
        system, photon = make_system(), Ket(np.array(amplitudes))
        with pytest.raises(ValueError) as from_ancilla:
            adaptive_ancilla(photon, system, mode_map)
        with pytest.raises(ValueError) as from_clone:
            stimulated_clone(photon, system, mode_map)
        assert type(from_ancilla.value) is type(from_clone.value)
        assert str(from_ancilla.value) == str(from_clone.value)

    def test_domain_violation_names_the_null_modes(self):
        make_system, mode_map, amplitudes = REFUSED_PHOTONS["null-norm-above-tolerance"]
        photon = Ket(np.array(amplitudes))
        with pytest.raises(DomainViolationError, match=r"\['sigma\+', 'sigma-'\]"):
            stimulated_clone(photon, make_system(), mode_map)

    def test_null_norm_below_tolerance_is_copied(self):
        photon = Ket(np.array([1.0, 5e-10, 5e-10]))  # null norm 7.1e-10
        mode_map = ((PI, "e0"), (SIGMA_PLUS, None), (SIGMA_MINUS, None))
        report = stimulated_clone(photon, two_level_pi_system(), mode_map)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert adaptive_ancilla(photon, two_level_pi_system(), mode_map).isclose(Ket(np.array([1.0])))


class TestAdaptiveAncilla:
    def test_basis_photon_maps_to_its_level(self):
        system = p_manifold_system()
        photon = Ket.basis_state(3, 2)  # sigma+ component
        ancilla = adaptive_ancilla(photon, system, FULL_MODE_MAP)
        assert ancilla.isclose(Ket.basis_state(3, system.excited_index("e-")))

    def test_superposition_amplitudes_transplanted(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, 0.0, INV_SQRT2]))  # sigma- + sigma+
        ancilla = adaptive_ancilla(photon, system, FULL_MODE_MAP)
        expected = np.zeros(3, dtype=complex)
        expected[system.excited_index("e+")] = INV_SQRT2
        expected[system.excited_index("e-")] = INV_SQRT2
        assert max_abs(ancilla.amplitudes - expected) < 1e-12
        assert abs(ancilla.norm - 1.0) < 1e-12

    def test_support_on_forbidden_component_raises(self):
        system = two_level_pi_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        mode_map = ((PI, "e0"), (SIGMA_PLUS, None))
        with pytest.raises(DomainViolationError, match="sigma\\+"):
            adaptive_ancilla(photon, system, mode_map)

    def test_mode_map_must_cover_photon(self):
        system = p_manifold_system()
        with pytest.raises(DimensionMismatchError):
            adaptive_ancilla(Ket.basis_state(3, 0), system, FULL_MODE_MAP[:2])

    def test_mode_map_must_be_injective(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError):
            adaptive_ancilla(photon, system, ((SIGMA_MINUS, "e0"), (PI, "e0")))

    def test_mode_map_modes_must_be_distinct(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError, match="mode labels must be unique"):
            adaptive_ancilla(photon, system, ((PI, "e0"), (PI, "e+")))

    def test_mode_map_levels_must_exist(self):
        system = p_manifold_system()
        with pytest.raises(ValueError, match="unknown excited levels"):
            adaptive_ancilla(Ket.basis_state(1, 0), system, ((PI, "nope"),))


class TestStimulatedClone:
    def test_polarization_qubit_clones_perfectly(self, rng):
        system = p_manifold_system()
        mode_map = ((SIGMA_PLUS, "e-"), (SIGMA_MINUS, "e+"))
        for _ in range(25):
            photon = random_ket(2, rng)
            report = stimulated_clone(photon, system, mode_map)
            assert abs(report.fidelity - 1.0) < 1e-10
            direct = np.kron(report.input.amplitudes, report.input.amplitudes)
            assert max_abs(report.output.amplitudes - direct) < 1e-12

    @pytest.mark.parametrize(
        "mode_map",
        [((SIGMA_MINUS, "e+"), (SIGMA_PLUS, "e-")), FULL_MODE_MAP],
        ids=["two-modes", "three-modes"],
    )
    def test_level_permuting_mode_map_gives_product(self, mode_map, rng):
        # Photon component j is carried by a level whose manifold index is not j.
        system = p_manifold_system()
        levels = [system.excited_index(label) for _, label in mode_map]
        assert levels != sorted(levels)
        for _ in range(25):
            photon = random_ket(len(mode_map), rng)
            report = stimulated_clone(photon, system, mode_map)
            psi = photon.normalize().amplitudes
            assert max_abs(report.output.amplitudes - np.kron(psi, psi)) < 1e-12
            assert max_abs(report.ancilla.amplitudes[levels] - psi) < 1e-12

    def test_matches_abstract_pipeline_entrywise(self, rng):
        system = p_manifold_system()
        for _ in range(25):
            photon = random_ket(3, rng)
            physical = stimulated_clone(photon, system, FULL_MODE_MAP)
            abstract = clone(photon, CopyBasis.computational(3))
            assert max_abs(physical.output.amplitudes - abstract.output.amplitudes) < 1e-12

    def test_single_ray_domain_still_copies(self):
        system = two_level_pi_system()
        report = stimulated_clone(Ket(np.array([1.0])), system, ((PI, "e0"),))
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_photon_outside_domain_raises(self):
        system = two_level_pi_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(DomainViolationError):
            stimulated_clone(photon, system, ((PI, "e0"), (SIGMA_PLUS, None)))

    def test_zero_amplitude_on_uncoupled_component_is_fine(self):
        system = two_level_pi_system()
        photon = Ket(np.array([1.0, 0.0]))
        report = stimulated_clone(photon, system, ((PI, "e0"), (SIGMA_PLUS, None)))
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        assert max_abs(report.output.amplitudes - expected) < 1e-12

    def test_ancilla_reported_over_manifold(self):
        system = p_manifold_system()
        photon = Ket(np.array([0.0, 1.0, 0.0]))  # pi component
        report = stimulated_clone(photon, system, FULL_MODE_MAP)
        assert report.ancilla.dim == system.manifold_dim
        assert report.ancilla.isclose(Ket.basis_state(3, system.excited_index("e0")))


class TestSpontaneousEmission:
    def test_isotropic_manifold_is_maximally_mixed(self):
        rho = spontaneous_emission_output(p_manifold_system())
        assert max_abs(rho.entries - np.eye(3) / 3) < 1e-10

    def test_two_mode_restriction_is_maximally_mixed(self):
        rho = spontaneous_emission_output(
            p_manifold_system(), modes=(SIGMA_MINUS, SIGMA_PLUS)
        )
        assert max_abs(rho.entries - np.eye(2) / 2) < 1e-10

    def test_single_level_is_a_pure_deterministic_channel(self):
        system = p_manifold_system()
        excited = Ket.basis_state(3, system.excited_index("e0"))
        rho = spontaneous_emission_output(system, excited_state=excited)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 1] = 1.0  # pi slot
        assert max_abs(rho.entries - expected) < 1e-12

    def test_populations_weight_the_channels(self):
        system = p_manifold_system()
        amps = np.zeros(3, dtype=complex)
        amps[system.excited_index("e0")] = np.sqrt(0.75)
        amps[system.excited_index("e-")] = np.sqrt(0.25)
        rho = spontaneous_emission_output(system, excited_state=Ket(amps))
        # equal angular strengths, so weights follow the populations;
        # e- decays into the sigma+ slot
        assert rho.entries[1, 1].real == pytest.approx(0.75, abs=1e-10)
        assert rho.entries[2, 2].real == pytest.approx(0.25, abs=1e-10)

    def test_unpolarized_even_with_uneven_radial_two_modes(self):
        # with only two levels decaying into disjoint slots, uneven radial
        # factors skew the weights
        system = AtomicSystem(
            ground=AtomicLevel("g", l=0, m=0),
            excited=(AtomicLevel("e-", l=1, m=-1), AtomicLevel("e+", l=1, m=1)),
            radial_factors={"e-": 1.0, "e+": 2.0},
        )
        rho = spontaneous_emission_output(system, modes=(SIGMA_MINUS, SIGMA_PLUS))
        assert rho.entries[0, 0].real == pytest.approx(4.0 / 5.0, abs=1e-10)
        assert rho.entries[1, 1].real == pytest.approx(1.0 / 5.0, abs=1e-10)

    def test_no_channel_raises(self):
        with pytest.raises(DomainViolationError):
            spontaneous_emission_output(s_to_s_system())

    def test_underflowing_weights_are_refused(self):
        # e0's only channel is allowed, but 1e-320 * |D|^2 ~ 3e-335 underflows to 0.
        system = p_manifold_system()
        weak = replace(system, radial_factors={**system.radial_factors, "e0": 1e-7})
        with pytest.raises(ValueError, match="underflows"):
            spontaneous_emission_output(weak, Ket(np.array([1.0, 1e-160, 0.0])), modes=(PI,))

    def test_trace_and_hermiticity(self, rng):
        system = p_manifold_system()
        excited = random_ket(3, rng)
        rho = spontaneous_emission_output(system, excited_state=excited)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10
        assert max_abs(rho.entries - rho.entries.conj().T) < 1e-12

    def test_rejects_repeated_modes(self):
        with pytest.raises(ValueError, match="mode labels must be unique"):
            spontaneous_emission_output(p_manifold_system(), modes=(PI, PI))

    @pytest.mark.parametrize("kind", RADIAL_SYSTEMS)
    def test_weights_match_quadrature_sum(self, kind, rng):
        system = seeded_radial_system(kind)
        populations = np.abs(random_ket(system.manifold_dim, rng).amplitudes) ** 2
        excited = Ket(np.sqrt(populations))
        modes = (SIGMA_PLUS, SIGMA_MINUS)
        table = quadrature_table(system)
        expected = np.array([
            sum(p * abs(table[i, mode.q + 1]) ** 2 for i, p in enumerate(populations)) for mode in modes
        ])
        rho = spontaneous_emission_output(system, excited_state=excited, modes=modes)
        assert max_abs(np.diag(rho.entries).real - expected / expected.sum()) < 1e-12
        assert max_abs(rho.entries - np.diag(np.diag(rho.entries))) == 0.0

    def test_manifold_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            spontaneous_emission_output(p_manifold_system(), excited_state=Ket.basis_state(2, 0))
