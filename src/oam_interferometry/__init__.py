"""Angular-displacement metrology in an OAM-fed SU(1,1)-SU(2) hybrid
interferometer.

A Gaussian phase-space engine evolves the interferometer's two (or, with
loss, four) modes; closed-form homodyne statistics, sensitivity, and the
metrology benchmarks sit on top; a truncated-Fock brute-force validator and a
sweep CLI round it out.
"""

from .fock_oracle import (
    FockState,
    OracleReport,
    UnreliableStateError,
    evolve,
    moments,
)
from .interferometer import (
    ExperimentConfig,
    mean_photon_number,
    quadrature_mean,
    quadrature_second_moment,
    run_lossless,
    run_lossy,
)
from .metrology import (
    MaxLossResult,
    heisenberg_limit,
    homodyne_mean,
    homodyne_mean_lossy,
    homodyne_mean_slope,
    homodyne_second_moment,
    homodyne_second_moment_lossy,
    max_allowable_loss,
    optimal_operating_point,
    optimal_sensitivity,
    quantum_cramer_rao_bound,
    sensitivity,
    sensitivity_lossy,
    shot_noise_limit,
    visibility,
)
from .phase_space import (
    GaussianState,
    SymplecticOp,
    angular_displacement_matrix,
    apply,
    bs_matrix,
    displace,
    extend_with_environment,
    omega,
    opa_matrix,
    photon_number,
    symplectic_defect,
    trace_out,
    vacuum_state,
    virtual_bs_matrix,
)
from .validation import ValidationReport, run_validation

__version__ = "0.1.0"
