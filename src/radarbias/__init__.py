"""Radar bias mitigation toolkit.

Recovers the absolute biases of two radars from their relative bias via a
closed-form constrained quadratic minimization, and provides a
reduced-state constant-gain tracking filter whose gains are optimized for
a stochastic measurement bias, with a Monte-Carlo harness that verifies
the predicted covariances.
"""

from .coords import (
    EarthModel,
    GeodeticSite,
    SphericalTriple,
    WGS84,
    cartesian_to_spherical,
    eci_to_enu,
    enu1_position_to_enu2,
    enu1_to_enu2,
    enu1_velocity_to_enu2,
    enu2_position_to_enu1,
    enu_to_face,
    face_to_enu,
    inter_site_translation_eci,
    site_position_eci,
    spherical_to_cartesian,
)
from .errors import (
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidGains,
    NonFiniteCovariance,
    NonFiniteTransform,
    NoValidRoot,
    SingularGeometry,
    SingularInnovation,
    SingularSystem,
    ZeroVector,
)
from .filter_core import BiasFilterModel, FilterState, measurement_update, optimal_gain, step, time_update
from .registration import (
    BiasCostWeights,
    RegistrationProblem,
    RegistrationSolution,
    SensorGeometry,
    build_A,
    constraint_residual,
    evaluate_cost,
    normalized_cost,
    relative_bias_from_positions,
    solve_absolute_bias,
)
from .sim_harness import SimReport, SimScenario, run_monte_carlo, synth_registration_scenario
from .steady_state import (
    GainValidation,
    SteadyStateConfig,
    SteadyStateCovariances,
    SteadyStateGains,
    fbar,
    fbar_eigenvalues,
    gain_polynomial,
    gain_sweep,
    gain_table,
    predicted_covariances,
    solve_beta,
    steady_mn,
    steady_mq,
    validate_gains,
)

__version__ = "0.1.0"
