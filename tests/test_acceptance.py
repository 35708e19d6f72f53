"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
interleaved, or rely on the pytest verdicts).
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from clonesim.angular import PHOTON_IRREP, clebsch_gordan, contains
from clonesim.cli import main
from clonesim.copying import (
    CopyBasis,
    build_copy_unitary,
    clone,
    clone_with_fixed_ancilla,
    no_cloning_overlap_witness,
)
from clonesim.emission import (
    PI,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    build_interaction_hamiltonian,
    clonable_domain,
    hamiltonian_basis,
    p_manifold_system,
    spontaneous_emission_output,
    stimulated_clone,
    transition_amplitude,
)
from clonesim.hilbert import Ket, max_abs, random_ket

from oracles import cg_by_lowering, copy_unitary_by_columns, random_copy_basis

FULL_MODE_MAP = ((SIGMA_MINUS, "e+"), (PI, "e0"), (SIGMA_PLUS, "e-"))


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_01_perfect_matched_cloning_all_dims():
    with criterion(1, "perfect state-dependent copying, n=2..8, 1000 states each"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for n in range(2, 9):
            basis = random_copy_basis(n, rng)
            for _ in range(1000):
                report = clone(random_ket(n, rng), basis)
                worst = max(worst, abs(report.fidelity - 1.0))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"worst fidelity deviation {worst:.3e}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_02_copy_unitary_unitarity():
    with criterion(2, "copy unitary unitarity, 100 random bases per n=2..8"):
        rng = np.random.default_rng(202)
        for n in range(2, 9):
            for _ in range(100):
                u = build_copy_unitary(random_copy_basis(n, rng))
                assert u.deviation_from_unitarity() < 1e-12


def test_03_oracle_equivalence_of_copy_unitary():
    with criterion(3, "copy unitary equals column assembly and I (x) V^dag"):
        rng = np.random.default_rng(303)
        for n in range(2, 9):
            for _ in range(5):
                basis = random_copy_basis(n, rng)
                u = build_copy_unitary(basis).entries
                assert max_abs(u - copy_unitary_by_columns(basis)) < 1e-12
                v = basis.v.entries
                assert max_abs(u - np.kron(np.eye(n), v.conj().T)) < 1e-12


def test_04_fixed_ancilla_failure_and_overlap_witness():
    with criterion(4, "fixed-ancilla fidelity 1/2 and overlap witness verdicts"):
        basis = CopyBasis.computational(2)
        superposition = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
        report = clone_with_fixed_ancilla(superposition, 0, basis)
        assert abs(report.fidelity - 0.5) <= 1e-10

        interior = [k / 100.0 for k in range(1, 100)]
        assert len(interior) == 99
        for s in interior:
            assert no_cloning_overlap_witness(s).verdict == "CONTRADICTION"
        assert no_cloning_overlap_witness(0.0).verdict == "CONSISTENT"
        assert no_cloning_overlap_witness(1.0).verdict == "CONSISTENT"


def test_05_selection_rule_biconditional_and_cg_oracle():
    with criterion(5, "amplitude zero iff containment fails; CG matches ladder oracle"):
        mismatches = 0
        for l_g in range(0, 4):
            for m_g in range(-l_g, l_g + 1):
                ground = AtomicLevel("g", l=l_g, m=m_g)
                for l_e in range(0, 4):
                    excited = tuple(
                        AtomicLevel(f"e{m}", l=l_e, m=m, energy=1.0)
                        for m in range(-l_e, l_e + 1)
                    )
                    system = AtomicSystem(ground=ground, excited=excited)
                    for level in excited:
                        for mode in SPHERICAL_MODES:
                            amplitude = transition_amplitude(system, level, mode)
                            irrep_ok = contains(ground.irrep, (level.irrep, PHOTON_IRREP))
                            weight_ok = ground.m == level.m + mode.q
                            if (amplitude != 0.0) != (irrep_ok and weight_ok):
                                mismatches += 1
        assert mismatches == 0, f"{mismatches} selection-rule mismatches"

        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                oracle = cg_by_lowering(tj1, tj2)
                for (tm1, tm2, tbj, tbm), expected in oracle.items():
                    value = clebsch_gordan(
                        Fraction(tj1, 2), Fraction(tm1, 2),
                        Fraction(tj2, 2), Fraction(tm2, 2),
                        Fraction(tbj, 2), Fraction(tbm, 2),
                    )
                    assert abs(value - expected) < 1e-10


def test_06_clonable_domain_reproduction(tmp_path, config_dir):
    with criterion(6, "clonable domains: full manifold, single levels, forbidden"):
        full = clonable_domain(p_manifold_system())
        assert tuple(mode.label for mode in full) == ("sigma-", "pi", "sigma+")
        out = tmp_path / "domain.json"
        assert main(["domain", "--config", str(config_dir / "full_p_manifold.json"), "--out", str(out)]) == 0
        basis = np.array(json.loads(out.read_text())["results"]["basis"])
        assert max_abs(basis[..., 0] + 1j * basis[..., 1] - np.eye(3)) < 1e-15

        expected_single = {-1: ("sigma+",), 0: ("pi",), +1: ("sigma-",)}
        for m, labels in expected_single.items():
            system = AtomicSystem(
                ground=AtomicLevel("g", l=0, m=0),
                excited=(AtomicLevel("e", l=1, m=m),),
            )
            assert tuple(mode.label for mode in clonable_domain(system)) == labels

        forbidden = AtomicSystem(
            ground=AtomicLevel("g", l=0, m=0),
            excited=(AtomicLevel("s2", l=0, m=0),),
        )
        assert clonable_domain(forbidden) == ()


def test_07_stimulated_equals_abstract():
    with criterion(7, "stimulated clone equals abstract pipeline, 1000 photons"):
        rng = np.random.default_rng(707)
        system = p_manifold_system()
        abstract_basis = CopyBasis.computational(3)
        for _ in range(1000):
            photon = random_ket(3, rng)
            physical = stimulated_clone(photon, system, FULL_MODE_MAP)
            abstract = clone(photon, abstract_basis)
            assert max_abs(physical.output.amplitudes - abstract.output.amplitudes) < 1e-12
            assert abs(physical.fidelity - 1.0) < 1e-10


def test_08_spontaneous_emission_contrast():
    with criterion(8, "isotropic spontaneous output is I/3 (and I/2 on 2 modes)"):
        system = p_manifold_system()
        rho3 = spontaneous_emission_output(system)
        assert max_abs(rho3.entries - np.eye(3) / 3.0) < 1e-10
        rho2 = spontaneous_emission_output(system, modes=(SIGMA_MINUS, SIGMA_PLUS))
        assert max_abs(rho2.entries - np.eye(2) / 2.0) < 1e-10


def test_09_stimulated_ladder_factor():
    with criterion(9, "stimulated coupling carries the sqrt(2) ladder factor"):
        system = AtomicSystem(
            ground=AtomicLevel("g", l=0, m=0),
            excited=(AtomicLevel("e0", l=1, m=0, energy=1.0),),
        )
        h = build_interaction_hamiltonian(system, [PI], n_max=2)
        labels = hamiltonian_basis(system, [PI], 2)
        single = abs(h.entries[labels.index(("g", (1,))), labels.index(("e0", (0,)))])
        stimulated = abs(h.entries[labels.index(("g", (2,))), labels.index(("e0", (1,)))])
        assert single > 0
        assert abs(stimulated - np.sqrt(2.0) * single) < 1e-12


def test_10_cli_determinism_golden(tmp_path, config_dir):
    with criterion(10, "CLI reports byte-stable across reruns for every kind"):
        commands = {
            "clone-demo": ["clone-demo", "--state", "plus"],
            "fixed-ancilla": ["fixed-ancilla", "--state", "plus", "--ancilla-index", "0"],
            "no-cloning-witness": ["no-cloning-witness"],
            "selection-rules": ["selection-rules", "--config", str(config_dir / "hydrogen_n2.json")],
            "domain": ["domain", "--config", str(config_dir / "full_p_manifold.json")],
            "stimulated-clone": [
                "stimulated-clone", "--config", str(config_dir / "full_p_manifold.json"),
                "--seed", "9",
            ],
            "spontaneous": ["spontaneous", "--config", str(config_dir / "full_p_manifold.json")],
        }
        for kind, argv in commands.items():
            golden = tmp_path / f"{kind}.golden.json"
            again = tmp_path / f"{kind}.again.json"
            assert main(argv + ["--out", str(golden)]) == 0
            assert main(argv + ["--out", str(again)]) == 0
            first = json.loads(golden.read_text())
            second = json.loads(again.read_text())
            first.pop("generated_at")
            second.pop("generated_at")
            blob_a = json.dumps(first, indent=2, sort_keys=True).encode()
            blob_b = json.dumps(second, indent=2, sort_keys=True).encode()
            assert blob_a == blob_b, f"{kind} report not reproducible"
            assert first["passed"] is True
