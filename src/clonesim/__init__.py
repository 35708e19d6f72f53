"""State-dependent quantum copying and its stimulated-emission realization."""

from .angular import IrrepLabel, PHOTON_IRREP, clebsch_gordan, contains
from .copying import (
    CloneReport,
    CopyBasis,
    build_copy_unitary,
    clone,
    clone_with_fixed_ancilla,
)
from .emission import (
    PI,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SPHERICAL_MODES,
    AtomicLevel,
    AtomicSystem,
    ModeMap,
    PolarizationMode,
    build_interaction_hamiltonian,
    clonable_domain,
    p_manifold_system,
    spontaneous_emission_output,
    stimulated_clone,
    transition_amplitude,
)
from .errors import BasisError, ConfigError, DimensionMismatchError, DomainViolationError
from .hilbert import DensityMatrix, Ket, OperatorMatrix, random_ket

__version__ = "0.1.0"
