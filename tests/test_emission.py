"""Tests for dipole amplitudes, the interaction Hamiltonian, clonable
domains, and the adaptive-ancilla stimulated cloning pipeline."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from clonesim import angular, emission
from clonesim.angular import PHOTON_IRREP, contains, dipole_angular_factors
from clonesim.cli import main
from clonesim.copying import CopyBasis, clone
from clonesim.emission import (
    PI,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    PolarizationMode,
    build_interaction_hamiltonian,
    clonable_domain,
    hamiltonian_basis,
    p_manifold_system,
    spontaneous_emission_output,
    stimulated_clone,
    transition_amplitude,
    validate_mode_map,
)
from clonesim.errors import DimensionMismatchError, DomainViolationError
from clonesim.experiments import ExperimentSpec, load_atomic_system, run
from clonesim.hilbert import DEFAULT_ATOL, Ket, OperatorMatrix, max_abs, random_ket

from oracles import angular_factor_by_quadrature, hamiltonian_by_kron, stimulated_pair_by_hamiltonian
from test_golden import REPO_ROOT

INV_SQRT3 = 1.0 / np.sqrt(3.0)
INV_SQRT2 = 1.0 / np.sqrt(2.0)

FULL_MODE_MAP = ((SIGMA_MINUS, "e+"), (PI, "e0"), (SIGMA_PLUS, "e-"))


def two_level_pi_system(radial: float = 1.0) -> AtomicSystem:
    return AtomicSystem(
        ground=AtomicLevel("g", l=0, m=0),
        excited=(AtomicLevel("e0", l=1, m=0),),
        radial_factors={"e0": radial},
    )


def s_to_s_system() -> AtomicSystem:
    return AtomicSystem(
        ground=AtomicLevel("g", l=0, m=0),
        excited=(AtomicLevel("s2", l=0, m=0),),
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

    @pytest.mark.parametrize("radial", [np.nan, np.inf, True, "1", None, pytest.param(10**400, id="beyond-float")])
    def test_rejects_non_finite_or_non_numeric_radial(self, radial):
        with pytest.raises(ValueError, match="finite positive number"):
            two_level_pi_system(radial=radial)

    @pytest.mark.parametrize(
        "ground, level, radial",
        [((0, 0), (1, 0), 1e-310), ((0, 0), (1, 0), 5e-324), ((4, -4), (5, -3), 3e-308)],
        ids=["subnormal", "smallest-subnormal", "normal-times-small-angular-factor"],
    )
    def test_rejects_subnormal_allowed_amplitude(self, ground, level, radial):
        # 1 / D overflows below the normal range; |<4 -4|C^(1)_+1|5 -3>| ~ 0.1 takes 3e-308 there.
        with pytest.raises(ValueError, match="subnormal, so 1 / D would overflow"):
            AtomicSystem(
                ground=AtomicLevel("g", l=ground[0], m=ground[1]),
                excited=(AtomicLevel("e", l=level[0], m=level[1]),),
                radial_factors={"e": radial},
            )

    def test_accepts_subnormal_radial_on_a_level_that_emits_nothing(self):
        # s -> s has no allowed transition, so nothing divides by its amplitudes.
        system = replace(s_to_s_system(), radial_factors={"s2": 1e-310})
        assert not system.allowed.any()

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
            AtomicLevel(f"e{m}", l=l_e, m=m) for m in range(-l_e, l_e + 1)
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
                    AtomicLevel(f"e{m}", l=l_e, m=m)
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

    @pytest.mark.parametrize("scale", [1e-306, 1e-300, 1e-13, 1.7e308])
    @pytest.mark.parametrize("kind", RADIAL_SYSTEMS)
    def test_mask_is_independent_of_radial_scale(self, kind, scale):
        # The quadrature oracle's nonzeros at the seeded radial factors, which lie in [0.3, 3).
        system = seeded_radial_system(kind)
        expected = np.abs(quadrature_table(system)) > 1e-9
        scaled = replace(system, radial_factors={label: scale for label in system.radial_factors})
        assert np.array_equal(scaled.allowed, expected)
        assert np.array_equal(scaled.amplitudes != 0, expected)

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


# Every config file, and the library's test atom with a radial factor that is not 1.
SYSTEM_BUILDERS = {path.name: (lambda path=path: load_atomic_system(path)[0])
                   for path in sorted((REPO_ROOT / "configs").glob("*.json"))}
SYSTEM_BUILDERS["p_manifold_system"] = lambda: p_manifold_system(radial=0.37)


class TestAngularFactorCache:
    @pytest.mark.parametrize("build", SYSTEM_BUILDERS.values(), ids=SYSTEM_BUILDERS.keys())
    def test_table_bitwise_equals_uncached_formula(self, build):
        system = build()
        g = system.ground
        uncached = np.array([
            [system.radial_factors[e.label] * angular
             for angular in dipole_angular_factors.__wrapped__(e.l, e.m, g.l, g.m)]
            for e in system.excited
        ], dtype=complex)
        assert system.amplitudes.tobytes() == uncached.tobytes()
        assert max_abs(system.amplitudes - quadrature_table(system)) < 1e-12

    def test_second_build_makes_no_clebsch_gordan_call(self, monkeypatch):
        calls = []
        original = angular.clebsch_gordan

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(angular, "clebsch_gordan", counted)
        dipole_angular_factors.cache_clear()
        first = p_manifold_system()
        assert len(calls) == 4 * first.manifold_dim  # the reduced factor and three components per level
        second = p_manifold_system(radial=2.0)
        assert len(calls) == 4 * first.manifold_dim
        assert second.amplitudes.tobytes() == (2.0 * first.amplitudes).tobytes()

    @pytest.mark.parametrize("build", SYSTEM_BUILDERS.values(), ids=SYSTEM_BUILDERS.keys())
    def test_zero_entries_are_positive_zeros(self, build):
        # A forbidden entry with a negative reduced factor must not come out as -0.0.
        amplitudes = build().amplitudes
        for part in (amplitudes.real, amplitudes.imag):
            assert not np.signbit(part[part == 0.0]).any()

    def test_values_are_immutable_tuples(self):
        factors = dipole_angular_factors(1, 0, 0, 0)
        assert type(factors) is tuple and len(factors) == 3
        assert all(type(value) is float for value in factors)
        assert dipole_angular_factors(1, 0, 0, 0) is factors


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
            assert max_abs(h.entries - h.entries.conj().T) < 1e-12

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


# Each case: (system, mode map, photon amplitudes, error, message); every one is refused.
REFUSED_PHOTONS = {
    "support-on-null-mode": (
        two_level_pi_system, ((PI, "e0"), (SIGMA_PLUS, None)), [INV_SQRT2, INV_SQRT2],
        DomainViolationError, r"norm 7\.071e-01 on modes \['sigma\+'\]",
    ),
    # Each null component is below tolerance, their norm (1.13e-9) is not.
    "null-norm-above-tolerance": (
        two_level_pi_system, ((PI, "e0"), (SIGMA_PLUS, None), (SIGMA_MINUS, None)), [1.0, 8e-10, 8e-10],
        DomainViolationError, r"norm 1\.131e-09 on modes",
    ),
    "forbidden-pair": (
        p_manifold_system, ((PI, "e0"), (SIGMA_PLUS, "e+")), [1.0, 0.0],
        ValueError, r"cannot emit them: \['sigma\+->e\+'\]",
    ),
    "short-mode-map": (
        p_manifold_system, FULL_MODE_MAP[:2], [1.0, 0.0, 0.0],
        DimensionMismatchError, "mode map has 2 entries for a photon of dim 3",
    ),
}


class TestOneDomainTest:
    @pytest.mark.parametrize("case", sorted(REFUSED_PHOTONS))
    def test_refuses(self, case):
        make_system, mode_map, amplitudes, error, message = REFUSED_PHOTONS[case]
        with pytest.raises(error, match=message):
            stimulated_clone(Ket(np.array(amplitudes)), make_system(), mode_map)

    def test_domain_violation_names_the_null_modes(self):
        make_system, mode_map, amplitudes, _, _ = REFUSED_PHOTONS["null-norm-above-tolerance"]
        photon = Ket(np.array(amplitudes))
        with pytest.raises(DomainViolationError, match=r"\['sigma\+', 'sigma-'\]"):
            stimulated_clone(photon, make_system(), mode_map)

    def test_null_norm_below_tolerance_is_copied(self):
        photon = Ket(np.array([1.0, 5e-10, 5e-10]))  # null norm 7.1e-10
        mode_map = ((PI, "e0"), (SIGMA_PLUS, None), (SIGMA_MINUS, None))
        report = stimulated_clone(photon, two_level_pi_system(), mode_map)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert max_abs(report.ancilla.amplitudes - [1.0]) <= DEFAULT_ATOL


def divided_ancilla(system: AtomicSystem, table: np.ndarray, mode_map, photon: np.ndarray) -> np.ndarray:
    """The normalized manifold state with psi_j / d_j on the level of mapped component j,
    where d_j is that level's entry for the component in ``table``, the system's
    quadrature table."""
    ancilla = np.zeros(system.manifold_dim, dtype=complex)
    for (mode, label), amplitude in zip(mode_map, photon):
        if label is not None:
            i = system.excited_index(label)
            ancilla[i] = amplitude / table[i, mode.q + 1]
    return ancilla / np.linalg.norm(ancilla)


class TestAdaptiveAncilla:
    def test_basis_photon_maps_to_its_level(self):
        system = p_manifold_system()
        photon = Ket.basis_state(3, 2)  # sigma+ component, emitted by e- with amplitude -1/sqrt(3)
        ancilla = stimulated_clone(photon, system, FULL_MODE_MAP).ancilla
        expected = -Ket.basis_state(3, system.excited_index("e-")).amplitudes
        assert max_abs(ancilla.amplitudes - expected) <= DEFAULT_ATOL

    def test_superposition_amplitudes_divided_by_dipole_amplitudes(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, 0.0, INV_SQRT2]))  # sigma- + sigma+
        ancilla = stimulated_clone(photon, system, FULL_MODE_MAP).ancilla
        expected = np.zeros(3, dtype=complex)
        expected[system.excited_index("e+")] = -INV_SQRT2
        expected[system.excited_index("e-")] = -INV_SQRT2
        assert max_abs(ancilla.amplitudes - expected) < 1e-12
        divided = divided_ancilla(system, quadrature_table(system), FULL_MODE_MAP, photon.amplitudes)
        assert max_abs(ancilla.amplitudes - divided) < 1e-12
        assert abs(np.linalg.norm(ancilla.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", RADIAL_SYSTEMS)
    def test_radial_factors_are_divided_out(self, kind, rng):
        system = seeded_radial_system(kind)
        # Each coupled mode paired with the first level that emits it.
        mode_map = [
            (mode, system.excited[int(np.argmax(system.allowed[:, mode.q + 1]))].label)
            for mode in clonable_domain(system)
        ]
        table = quadrature_table(system)
        for _ in range(10):
            photon = random_ket(len(mode_map), rng)
            ancilla = stimulated_clone(photon, system, mode_map).ancilla
            assert max_abs(ancilla.amplitudes - divided_ancilla(system, table, mode_map, photon.amplitudes)) < 1e-12

    def test_support_on_forbidden_component_raises(self):
        system = two_level_pi_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        mode_map = ((PI, "e0"), (SIGMA_PLUS, None))
        with pytest.raises(DomainViolationError, match="sigma\\+"):
            stimulated_clone(photon, system, mode_map)

    def test_mode_map_must_cover_photon(self):
        system = p_manifold_system()
        with pytest.raises(DimensionMismatchError):
            stimulated_clone(Ket.basis_state(3, 0), system, FULL_MODE_MAP[:2])

    def test_mode_map_must_be_injective(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError):
            stimulated_clone(photon, system, ((SIGMA_MINUS, "e0"), (PI, "e0")))

    def test_mode_map_modes_must_be_distinct(self):
        system = p_manifold_system()
        photon = Ket(np.array([INV_SQRT2, INV_SQRT2]))
        with pytest.raises(ValueError, match="mode labels must be unique"):
            stimulated_clone(photon, system, ((PI, "e0"), (PI, "e+")))

    def test_mode_map_levels_must_exist(self):
        system = p_manifold_system()
        with pytest.raises(ValueError, match="unknown excited levels"):
            stimulated_clone(Ket.basis_state(1, 0), system, ((PI, "nope"),))


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
        table = quadrature_table(system)
        for _ in range(25):
            photon = random_ket(len(mode_map), rng)
            report = stimulated_clone(photon, system, mode_map)
            psi = photon.normalize().amplitudes
            assert max_abs(report.output.amplitudes - np.kron(psi, psi)) < 1e-12
            assert max_abs(report.ancilla.amplitudes - divided_ancilla(system, table, mode_map, psi)) < 1e-12

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
        expected = Ket.basis_state(3, system.excited_index("e0"))
        assert max_abs(report.ancilla.amplitudes - expected.amplitudes) <= DEFAULT_ATOL

    def test_builds_no_operator(self, rng, monkeypatch):
        # V is a plain array and the copy is formed directly, so no OperatorMatrix is built.
        built = []
        original = OperatorMatrix.__post_init__
        monkeypatch.setattr(OperatorMatrix, "__post_init__", lambda self: built.append(self) or original(self))
        stimulated_clone(random_ket(3, rng), p_manifold_system(), FULL_MODE_MAP)
        assert built == []
        OperatorMatrix(np.eye(2))
        assert len(built) == 1  # the patch sees a construction


def assert_matches_hamiltonian(report, system: AtomicSystem, mode_map) -> None:
    """The stimulated output is H|ancilla, 1_photon> on the ground level, from the dense
    oracle, normalized and without H's overall sign."""
    couplings = system.amplitudes[:, [mode.q + 1 for mode, _ in mode_map]]
    pair = stimulated_pair_by_hamiltonian(couplings, report.ancilla.amplitudes, report.input.amplitudes)
    assert max_abs(report.output.amplitudes + pair / np.linalg.norm(pair)) < 1e-12


def transplanted_ancilla_map(psi, system, mode_map, divided=emission._ancilla_map):
    """The ancilla map with 1 for each mapped entry: photon amplitudes moved onto the
    levels without dividing out the dipole amplitudes."""
    return (divided(psi, system, mode_map) != 0).astype(complex)


class TestStimulatedPairAgainstHamiltonian:
    def test_full_p_manifold_with_random_radial_factors(self, rng):
        system, mode_map = load_atomic_system(REPO_ROOT / "configs" / "full_p_manifold.json")
        for _ in range(300):
            radial = {level.label: float(rng.uniform(0.3, 3.0)) for level in system.excited}
            atom = replace(system, radial_factors=radial)
            report = stimulated_clone(random_ket(3, rng), atom, mode_map)
            assert_matches_hamiltonian(report, atom, mode_map)
            assert abs(report.fidelity - 1.0) < 1e-12

    def test_pi_only(self, rng):
        # A pi photon with up to 7e-10 on the uncoupled sigma+ component, below the domain tolerance.
        system, mode_map = load_atomic_system(REPO_ROOT / "configs" / "pi_only.json")
        for _ in range(25):
            phases = np.exp(2j * np.pi * rng.random(2))
            report = stimulated_clone(Ket(phases * [1.0, rng.uniform(0.0, 7e-10)]), system, mode_map)
            assert_matches_hamiltonian(report, system, mode_map)

    @pytest.mark.parametrize(
        "mode_map",
        [((SIGMA_MINUS, "e+"), (SIGMA_PLUS, "e-")), FULL_MODE_MAP],
        ids=["two-modes", "three-modes"],
    )
    def test_level_permuting_mode_maps(self, mode_map, rng):
        system = seeded_radial_system("p-manifold")
        for _ in range(25):
            report = stimulated_clone(random_ket(len(mode_map), rng), system, mode_map)
            assert_matches_hamiltonian(report, system, mode_map)

    def test_below_tolerance_pair_holds_the_bosonic_cross_term(self):
        # The pi-only atom emits pi alone, so the pair is a_pi^dagger a_photon^dagger|0>: its
        # cross entries are half the photon's sigma+ amplitude, not its square.
        system, mode_map = load_atomic_system(REPO_ROOT / "configs" / "pi_only.json")
        report = stimulated_clone(Ket(np.array([1.0, 1e-11])), system, mode_map)
        assert max_abs(report.output.amplitudes - [1.0, 5e-12, 5e-12, 0.0]) < 1e-15
        assert abs(report.fidelity - 1.0) < 1e-15


class TestTransplantedAncillaFails:
    """Without the division by the dipole amplitudes the atom emits phi_j = d_j psi_j, and
    the pair's fidelity is 2c / (1 + c) with c = |<phi|psi>|^2 / <phi|phi>."""

    def test_fidelity_is_the_mismatched_pair_formula(self, monkeypatch, rng):
        monkeypatch.setattr(emission, "_ancilla_map", transplanted_ancilla_map)
        system = seeded_radial_system("p-manifold")
        table = quadrature_table(system)
        for _ in range(25):
            psi = random_ket(3, rng).amplitudes
            report = stimulated_clone(Ket(psi), system, FULL_MODE_MAP)
            phi = np.array([table[system.excited_index(label), mode.q + 1] for mode, label in FULL_MODE_MAP]) * psi
            c = abs(np.vdot(phi, psi)) ** 2 / np.vdot(phi, phi).real
            assert report.fidelity == pytest.approx(2 * c / (1 + c), abs=1e-12)
            assert_matches_hamiltonian(report, system, FULL_MODE_MAP)

    @pytest.mark.parametrize("seed, fidelity", [(0, 0.167), (1, 0.059), (2, 0.230)])
    def test_cli_check_fails(self, monkeypatch, capsys, seed, fidelity):
        monkeypatch.setattr(emission, "_ancilla_map", transplanted_ancilla_map)
        config = REPO_ROOT / "configs" / "full_p_manifold.json"
        assert main(["stimulated-clone", "--config", str(config), "--seed", str(seed)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["fidelity"] == pytest.approx(fidelity, abs=5e-4)
        assert [(check["name"], check["passed"]) for check in report["checks"]] == [("fidelity-is-one", False)]


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
        # e0's pi channel is allowed, but beside e-'s sigma+ channel |D| is scaled by 1 and
        # 1e-320 * |D|^2 ~ 3e-335 underflows to 0.
        system = p_manifold_system()
        weak = replace(system, radial_factors={**system.radial_factors, "e0": 1e-7})
        excited = Ket(np.array([1.0, 1e-160, 0.0]))
        with pytest.raises(ValueError, match="underflows"):
            spontaneous_emission_output(weak, excited, modes=(PI, SIGMA_PLUS))
        # Alone, pi's |D| is scaled to a unit largest entry first, so its weight survives.
        rho = spontaneous_emission_output(weak, excited, modes=(PI,))
        assert rho.entries[0, 0] == 1.0

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
