"""Covariance-structure ML fitting, fungible-parameter contours, confidence
ellipses, and the axis-width Monte Carlo study around them."""

from .contour import (
    CONFIDENCE,
    DELTA_F,
    EPS_TILDE,
    AxisWidths,
    ContourTarget,
    axis_widths_exact,
    axis_widths_group,
    axis_widths_quadratic,
    f_target,
    fpe_sample,
    sweep_contour,
)
from .discrepancy import (
    chisq_quantile,
    f_from_rmsea,
    f_ml,
    gradient,
    hessian,
    rmsea_from_f,
)
from .errors import (
    ContourEscapesDomain,
    DegenerateSample,
    FungibleError,
    NoConvergence,
    NotPositiveDefinite,
    RootAboveTolerance,
    SingularStructure,
    TargetUnreachable,
)
from .fit import FitOptions, FitResult, fit_ml, fit_stack, population_rmsea
from .model import (
    FIXED,
    ModelSpec,
    PopulationCondition,
    canonical_model,
    condition_from_label,
    load_model,
    make_model,
    misspecify_to_epsilon,
    model_to_dict,
    save_model,
    sigma_of_theta,
)
from .simstudy import (
    StudyCell,
    StudyDesign,
    StudyTable,
    check_fixture_scaling,
    condition_at,
    emit_table,
    paper_fixture,
    parse_table,
    replication_rng,
    run_cell,
    run_design,
    wishart_sample,
)

__version__ = "0.1.0"
