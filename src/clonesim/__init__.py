"""State-dependent quantum copying and its stimulated-emission realization."""

from .angular import IrrepLabel, PHOTON_IRREP, clebsch_gordan, contains
from .copying import (
    CloneReport,
    CopyBasis,
    OverlapWitness,
    apply_copy_map,
    build_copy_unitary,
    clone,
    clone_with_fixed_ancilla,
    no_cloning_overlap_witness,
)
from .emission import (
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
)
from .errors import BasisError, ConfigError, DimensionMismatchError, DomainViolationError
from .hilbert import (
    DensityMatrix,
    Ket,
    OperatorMatrix,
    apply,
    fidelity,
    inner_product,
    partial_trace,
    random_ket,
    tensor_product,
)

__version__ = "0.1.0"
