"""Numerical workbench for relativistic position and spin operator algebra.

Natural units (hbar = c = 1) throughout.
"""

from .dirac import GAMMA, build_gamma_set, energy
from .grids import Grid1D
from .linalg import LinalgError
from .phase_ops import (
    DomainError,
    OperatorFamily,
    PhaseOpValue,
    PhaseSpaceOperator,
    build_operator,
)
from .algebra import (
    AlgebraReport,
    ClassicalState,
    classical_observables,
    poisson_bracket,
    run_classical_suite,
    run_quantum_suite,
)
from .eriksen import (
    BlockedHamiltonian,
    approx_fw,
    discretize_dirac_1d,
    eriksen_unitary,
)
from .spin_dynamics import (
    FieldConfig,
    omega_noninertial,
    omega_total,
    propagate_classical,
    propagate_quantum,
)
from .zitter import (
    dominant_frequency,
    fw_velocity,
    record_evolution,
)
from .wavepacket import (
    Observable,
    WavePacket1D,
    density,
    evolve_free,
    expectation,
    make_gaussian_packet,
    picture_change_error,
)

__version__ = "0.1.0"
