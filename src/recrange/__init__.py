"""Bayesian estimation of an exponential scale from upper record ranges.

The package turns an observed series into its upper records, forms the
conjugate inverted-gamma posterior of the scale from the record range, and
offers point estimators, equal-tails / exact HPD / closed-form approximate
credible intervals, risk analysis of linear rules, and seeded Monte Carlo
experiments. The ``recrange`` command exposes the same operations from the
shell.
"""

from ._meta import TOOL_VERSION as __version__
from .errors import (
    CapExhaustedError,
    ConvergenceError,
    DegeneratePosteriorError,
    DomainError,
    InsufficientRecordsError,
    ParseError,
    RecRangeError,
    UnsupportedEstimatorError,
)
from .specfun import (
    chi2_quantile,
    gen_incomplete_gamma,
    ln_gamma,
    reg_lower_gamma,
)
from .records import (
    RecordSummary,
    extract_upper_records,
    record_range_sequence,
    sample_records_direct,
    sample_records_stream,
    truncate,
)
from .model import (
    PosteriorParams,
    PriorParams,
    posterior_coverage,
    posterior_from,
    posterior_log_pdf,
    posterior_mode,
    posterior_pdf,
    range_pdf,
)
from .estimators import (
    EstimatorId,
    Moments,
    analytic_moments,
    bayes_absolute,
    bayes_quadratic,
    bayes_squared,
    estimator_rule,
    mle_records,
    mle_sample,
    mle_urr,
    point_estimate,
)
from .intervals import (
    CredibleInterval,
    IntervalKind,
    equal_tails,
    hpd_exact,
    hpd_hpm_closed_form,
    interval,
    length_of_alpha,
)
from .risk import (
    AdmissibilityClass,
    LinearEstimator,
    LossWeight,
    bayes_risk_linear,
    classify_admissible,
    r1_r2_gap,
    risk_linear,
)
from .sim import (
    IntervalRow,
    PointRow,
    SimConfig,
    SimResult,
    TableRow,
    derive_rep_seed,
    reproduce_table1,
    run_interval_sim,
    run_point_sim,
)
from . import datasets

__all__ = [
    "__version__",
    # errors
    "RecRangeError",
    "DomainError",
    "ParseError",
    "InsufficientRecordsError",
    "DegeneratePosteriorError",
    "UnsupportedEstimatorError",
    "ConvergenceError",
    "CapExhaustedError",
    # special functions
    "ln_gamma",
    "reg_lower_gamma",
    "gen_incomplete_gamma",
    "chi2_quantile",
    # records
    "RecordSummary",
    "extract_upper_records",
    "record_range_sequence",
    "truncate",
    "sample_records_direct",
    "sample_records_stream",
    # model
    "PriorParams",
    "PosteriorParams",
    "posterior_from",
    "range_pdf",
    "posterior_pdf",
    "posterior_log_pdf",
    "posterior_coverage",
    "posterior_mode",
    # estimators
    "EstimatorId",
    "Moments",
    "mle_sample",
    "mle_records",
    "mle_urr",
    "bayes_quadratic",
    "bayes_squared",
    "bayes_absolute",
    "estimator_rule",
    "point_estimate",
    "analytic_moments",
    # intervals
    "IntervalKind",
    "CredibleInterval",
    "interval",
    "equal_tails",
    "hpd_exact",
    "hpd_hpm_closed_form",
    "length_of_alpha",
    # risk
    "LinearEstimator",
    "LossWeight",
    "AdmissibilityClass",
    "risk_linear",
    "bayes_risk_linear",
    "r1_r2_gap",
    "classify_admissible",
    # sim
    "SimConfig",
    "SimResult",
    "PointRow",
    "IntervalRow",
    "TableRow",
    "derive_rep_seed",
    "run_point_sim",
    "run_interval_sim",
    "reproduce_table1",
    # data
    "datasets",
]
