"""Independent brute-force oracles used to validate the library paths.

Each oracle deliberately avoids the production code path it checks:
coupling coefficients come from explicit ladder-operator construction,
angular factors from numerical quadrature of spherical harmonics, the
interaction Hamiltonian from dense per-term Kronecker products and its
basis labels from their order, the stimulated photon pair from that
Hamiltonian applied in Fock space, copy unitaries from column-by-column
assembly, and the no-cloning witness from exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
from scipy.special import sph_harm_y

from clonesim.copying import WITNESS_ATOL, CopyBasis


# ---------------------------------------------------------------------------
# Angular momentum ladder construction


def _m_values(tj: int) -> list[int]:
    return list(range(-tj, tj + 1, 2))


def _jz(tj: int) -> np.ndarray:
    return np.diag([tm / 2 for tm in _m_values(tj)]).astype(complex)


def _jminus(tj: int) -> np.ndarray:
    j = tj / 2
    dim = tj + 1
    out = np.zeros((dim, dim), dtype=complex)
    for k, tm in enumerate(_m_values(tj)):
        m = tm / 2
        if k > 0:
            out[k - 1, k] = np.sqrt(j * (j + 1) - m * (m - 1))
    return out


def coupled_states_by_lowering(tj1: int, tj2: int) -> dict[tuple[int, int], np.ndarray]:
    """All |J M> of the product space, built with ladder operators only.

    Returns vectors in the product basis ordered (m1 major, m2 minor),
    keyed by twice-values (2J, 2M).  Condon-Shortley signs: the
    highest-weight state of each J block has a positive coefficient on
    |m1 = j1, m2 = J - j1>.
    """
    dim1, dim2 = tj1 + 1, tj2 + 1
    total_lower = np.kron(_jminus(tj1), np.eye(dim2)) + np.kron(np.eye(dim1), _jminus(tj2))

    def product_index(tm1: int, tm2: int) -> int:
        return _m_values(tj1).index(tm1) * dim2 + _m_values(tj2).index(tm2)

    states: dict[tuple[int, int], np.ndarray] = {}
    for t_big_j in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        # The M = J sector, spanned by product states with m1 + m2 = J.
        sector = [
            (tm1, tm2)
            for tm1 in _m_values(tj1)
            for tm2 in _m_values(tj2)
            if tm1 + tm2 == t_big_j
        ]
        sector_indices = [product_index(tm1, tm2) for tm1, tm2 in sector]
        known = [states[(t_higher, t_big_j)] for t_higher in range(t_big_j + 2, tj1 + tj2 + 1, 2)]
        if known:
            known_in_sector = np.array([vec[sector_indices] for vec in known])
            _, _, vh = np.linalg.svd(known_in_sector)
            local = vh[-1].conj()
        else:
            local = np.ones(1, dtype=complex)
        top = np.zeros(dim1 * dim2, dtype=complex)
        top[sector_indices] = local
        top /= np.linalg.norm(top)
        anchor = top[product_index(tj1, t_big_j - tj1)]
        if abs(anchor) < 1e-12:
            raise RuntimeError("Condon-Shortley anchor coefficient vanished")
        top *= np.conj(anchor) / abs(anchor)

        states[(t_big_j, t_big_j)] = top
        current = top
        big_j = t_big_j / 2
        for t_big_m in range(t_big_j, -t_big_j + 1, -2):
            m = t_big_m / 2
            lowered = total_lower @ current
            lowered /= np.sqrt(big_j * (big_j + 1) - m * (m - 1))
            states[(t_big_j, t_big_m - 2)] = lowered
            current = lowered
    return states


def cg_by_lowering(tj1: int, tj2: int) -> dict[tuple[int, int, int, int], float]:
    """Clebsch-Gordan table keyed by twice-values (2m1, 2m2, 2J, 2M)."""
    states = coupled_states_by_lowering(tj1, tj2)
    dim2 = tj2 + 1
    table: dict[tuple[int, int, int, int], float] = {}
    for (t_big_j, t_big_m), vec in states.items():
        for k1, tm1 in enumerate(_m_values(tj1)):
            for k2, tm2 in enumerate(_m_values(tj2)):
                value = vec[k1 * dim2 + k2]
                assert abs(value.imag) < 1e-12
                table[(tm1, tm2, t_big_j, t_big_m)] = float(value.real)
    return table


def total_j_squared(tj1: int, tj2: int) -> np.ndarray:
    """(J1 + J2)^2 on the product space, assembled from ladder operators."""
    dim1, dim2 = tj1 + 1, tj2 + 1
    jz = np.kron(_jz(tj1), np.eye(dim2)) + np.kron(np.eye(dim1), _jz(tj2))
    jm = np.kron(_jminus(tj1), np.eye(dim2)) + np.kron(np.eye(dim1), _jminus(tj2))
    jp = jm.conj().T
    return jm @ jp + jz @ (jz + np.eye(dim1 * dim2))


def contains_by_projection(t_target: int, tj1: int, tj2: int, atol: float = 1e-8) -> bool:
    """Does the J = target sector of j1 (x) j2 have nonzero dimension?"""
    eigenvalues = np.linalg.eigvalsh(total_j_squared(tj1, tj2))
    target = (t_target / 2) * (t_target / 2 + 1)
    return bool(np.any(np.abs(eigenvalues - target) < atol))


# ---------------------------------------------------------------------------
# Spherical-harmonic quadrature for dipole angular factors


def angular_factor_by_quadrature(
    l_g: int, m_g: int, l_e: int, m_e: int, q: int, n_theta: int = 64, n_phi: int = 128
) -> complex:
    """<l_g m_g| C^(1)_q |l_e m_e> by direct integration over the sphere.

    C^(1)_q = sqrt(4 pi / 3) Y_{1 q}.  Gauss-Legendre nodes in cos(theta),
    uniform (trapezoid) grid in phi.
    """
    if abs(m_g) > l_g or abs(m_e) > l_e:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    theta_grid, phi_grid = np.meshgrid(theta, phi, indexing="ij")

    integrand = (
        np.conj(sph_harm_y(l_g, m_g, theta_grid, phi_grid))
        * np.sqrt(4.0 * np.pi / 3.0)
        * sph_harm_y(1, q, theta_grid, phi_grid)
        * sph_harm_y(l_e, m_e, theta_grid, phi_grid)
    )
    phi_integral = integrand.sum(axis=1) * (2.0 * np.pi / n_phi)
    return complex(np.dot(w, phi_integral))


# ---------------------------------------------------------------------------
# Interaction Hamiltonian by per-term Kronecker products


def hamiltonian_by_kron(
    amplitudes: np.ndarray, n_max: int, include_counter_rotating: bool = False
) -> np.ndarray:
    """Dipole Hamiltonian summed term by term from dense Kronecker products.

    ``amplitudes[i, k]`` couples excited level i to field mode k.  The basis
    is (ground, excited levels in order) (x) mode 0 (x) mode 1 ..., with
    occupations 0..n_max per mode.  Each nonzero amplitude d adds
    -d |g><e_i| (x) a_k^dagger plus its conjugate, and with counter-rotating
    terms also -d |g><e_i| (x) a_k plus its conjugate.
    """
    n_levels, n_modes = amplitudes.shape
    atom_dim = 1 + n_levels
    lower_single = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)
    eye = np.eye(n_max + 1, dtype=complex)
    fock_dim = (n_max + 1) ** n_modes
    h = np.zeros((atom_dim * fock_dim, atom_dim * fock_dim), dtype=complex)
    for k in range(n_modes):
        a_k = np.ones((1, 1), dtype=complex)
        for slot in range(n_modes):
            a_k = np.kron(a_k, lower_single if slot == k else eye)
        field_ops = [a_k.conj().T, a_k] if include_counter_rotating else [a_k.conj().T]
        for i in range(n_levels):
            d = amplitudes[i, k]
            if d == 0:
                continue
            sigma = np.zeros((atom_dim, atom_dim), dtype=complex)
            sigma[0, 1 + i] = 1.0
            for field_op in field_ops:
                term = np.kron(sigma, field_op)
                h -= d * term + np.conj(d) * term.conj().T
    return h


def hamiltonian_basis(system, modes, n_max: int) -> list[tuple[str, tuple[int, ...]]]:
    """Basis labels (atom label, per-mode occupations) of a Hamiltonian in
    ``hamiltonian_by_kron`` order: the atom factor (ground, then the excited
    levels) major, then the modes in the given order, occupations 0..n_max
    each, the last mode fastest."""
    atom_labels = [system.ground.label] + [level.label for level in system.excited]
    occupation_lists = list(product(range(n_max + 1), repeat=len(modes)))
    return [(label, occupations) for label in atom_labels for occupations in occupation_lists]


def stimulated_pair_by_hamiltonian(couplings: np.ndarray, ancilla: np.ndarray, photon: np.ndarray) -> np.ndarray:
    """H |ancilla> (x) |1_photon> from the dense Hamiltonian, written in photon (x) photon space.

    ``couplings[i, k]`` couples excited level i to photon component k, and
    H is ``hamiltonian_by_kron(couplings, 2)``.  The one-photon state is
    |1_photon> = sum_k photon_k |1_k>.  Asserts that H leaves no weight off
    the ground-level two-photon states, then maps |2_k> to e_k (x) e_k and
    |1_k 1_l> to (e_k (x) e_l + e_l (x) e_k) / sqrt(2).  The result is not
    normalized and keeps H's overall sign.
    """
    n_levels, n_modes = couplings.shape
    fock_dim = 3**n_modes

    def fock_index(*photons: int) -> int:
        occupations = [photons.count(k) for k in range(n_modes)]
        return sum(n * 3 ** (n_modes - 1 - k) for k, n in enumerate(occupations))

    state = np.zeros((1 + n_levels) * fock_dim, dtype=complex)
    for i in range(n_levels):
        for k in range(n_modes):
            state[(1 + i) * fock_dim + fock_index(k)] = ancilla[i] * photon[k]
    emitted = hamiltonian_by_kron(couplings, 2) @ state

    pair = np.zeros((n_modes, n_modes), dtype=complex)
    reached = np.zeros(emitted.shape, dtype=bool)
    for k in range(n_modes):
        for l in range(k, n_modes):
            index = fock_index(k, l)  # the ground level's block comes first
            reached[index] = True
            if k == l:
                pair[k, k] = emitted[index]
            else:
                pair[k, l] = pair[l, k] = emitted[index] / np.sqrt(2.0)
    assert not emitted[~reached].any(), "H leaves weight off the ground-level two-photon states"
    return pair.ravel()


# ---------------------------------------------------------------------------
# Copy-unitary assembly


def copy_unitary_by_columns(basis: CopyBasis) -> np.ndarray:
    """Assemble the copy unitary from its n^2 defining relations, one column
    per input product basis vector."""
    n = basis.n
    u = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            input_vec = np.kron(basis.system[:, i], basis.ancilla[:, j])
            output_vec = np.kron(basis.system[:, i], basis.system[:, j])
            u += np.outer(output_vec, input_vec.conj())
    return u


# ---------------------------------------------------------------------------
# No-cloning witness in exact arithmetic


def witness_by_fractions(s: float) -> tuple[Fraction, str]:
    """The exact residual |s - s^2| of the real overlap ``s`` and its verdict:
    CONSISTENT when min(|s|, |1 - s|) <= WITNESS_ATOL, both sides read as
    exact rationals, else CONTRADICTION."""
    exact = Fraction(s)
    consistent = min(abs(exact), abs(1 - exact)) <= Fraction(WITNESS_ATOL)
    return abs(exact - exact * exact), "CONSISTENT" if consistent else "CONTRADICTION"


# ---------------------------------------------------------------------------
# Random fixtures


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_copy_basis(n: int, rng: np.random.Generator) -> CopyBasis:
    """Random orthonormal system and ancilla bases of dimension n."""
    system = random_unitary(n, rng)
    return CopyBasis(system, random_unitary(n, rng))
