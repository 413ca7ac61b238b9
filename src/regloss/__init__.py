"""Numerical laboratory for mixing-driven loss of fractional Sobolev regularity.

The package provides, at desk scale:

- periodic grids and compactly supported data (``fields``);
- fractional Sobolev norms, as plain floats, with two independent
  evaluation routes and the almost-orthogonality bound (``sobolev``);
- exact shear-mixing protocols, exact transport along them, a generic
  semi-Lagrangian solver, and measured rate constants (``mixing``);
- exact convergence certification for exp-polynomial series (``series``);
- the rescale-and-patch construction with its schedules, certificates and
  truncated patched solutions (``patchwork``);
- batch experiments with byte-stable reports and a CLI (``experiments``).
"""

from .fields import (
    Cube,
    GeometryError,
    Grid,
    ScalarField,
    VectorField,
    demean,
    make_bump,
)
from .mixing import (
    CFLError,
    FlowMap,
    InsufficientDataError,
    MixerConstants,
    RateEstimate,
    ShearStep,
    advect_semi_lagrangian,
    build_mixing_protocol,
    estimate_mixer_constants,
    exact_solution_at,
    fit_exponential_rate,
    gronwall_lower_bound,
    norm_history,
    transported_values,
    velocity_norm_series,
)
from .patchwork import (
    Condition,
    ConditionCertificate,
    ConstructionParams,
    InfeasiblePlacementError,
    LipschitzEmbeddingError,
    ResolutionError,
    Schedule,
    UnsupportedScheduleError,
    blowup_time,
    check_velocity_space,
    evaluate_condition,
    evaluate_truncated_solution,
    hs_lower_bound_partial_sums,
    partial_loss_schedule,
    place_cubes,
    revalidate_certificate,
    total_loss_schedule,
)
from .series import (
    Classification,
    ExpPolySeries,
    classify,
    classify_bounded,
    exp_factor,
    partial_sums,
    product_and_power,
)
from .sobolev import (
    UnsupportedIndexError,
    gagliardo_seminorm,
    hs_norm,
    orthogonality_lower_bound,
    sphere_surface_area,
    wsp_norm,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ReportBundle,
    emit_report,
    run_experiment,
)

__version__ = "0.1.0"
