"""Simulation of the point-source Dirac creation/annihilation jump
process: exact and asymptotic probability currents near the source,
Bohmian trajectory integration, stochastic emission via thinning, and
Monte Carlo checks that the sampled process stays |psi|^2-distributed.
"""

__version__ = "0.1.0"

from .errors import (
    BelljumpError,
    DegenerateError,
    DomainError,
    FitError,
    InsufficientEvents,
    MajorantError,
    NormalizationError,
    OriginError,
    ParseError,
    RangeError,
    SetError,
    StepFailure,
    VacuumEmpty,
    ValidationError,
    WindowClosed,
)
from .params import (
    ADMISSIBLE_LABELS,
    PhysParams,
    canonical_params,
    circling_sign,
)
from .spinor_basis import (
    SpherePoint,
    f_boundary,
    frame_vectors,
    from_spherical,
    phi_basis,
    sphere_quadrature,
)
from .wavefunction import (
    CurrentCoeffs,
    ModelFamily,
    ModelWavefunction,
    current_coeffs,
    current_exact,
    eval_psi1,
    particle_sector_mass,
    radial_mass_profile,
)
from .trajectory import (
    Absorbed,
    LeftInnerRegion,
    ProbeCrossing,
    SphericalState,
    TimeExhausted,
    TrajectorySegment,
    azimuth_from_radius,
    emit_trajectory,
    fit_power_law,
    integrate,
    time_from_radius,
)
from .jump_process import (
    CoefficientTrack,
    EmissionEvent,
    Particle,
    ProcessPath,
    Vacuum,
    VacuumInterval,
    fly,
    jump_rate_density,
    sample_emission_angles,
    sample_waiting_time,
    simulate_path,
    total_jump_rate,
)
from .ensemble import (
    EnsembleStats,
    angle_uniformity_test,
    flux_estimate,
    flux_report,
    master_equation_occupancy,
    normalized_amplitudes,
    run_ensemble,
    sector0_comparison,
)
from .config import RunConfig, parse_config, serialize
