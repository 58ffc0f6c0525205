"""Gapped subadditive limits, decoupled measures, and entropy estimation.

The package covers one pipeline end to end: certify that a sequence or
trajectory functional is gapped subadditive, identify its limit through
the gapped infimum formula, audit the decoupling constants that make
log-marginal functionals qualify, estimate entropy-type rates from
seeded trajectories, and re-verify the interval decomposition that
underlies the almost-sure convergence argument.
"""
from __future__ import annotations

__version__ = "0.2.0"

from .decoupling import (
    DecouplingReport,
    check_trajectory_subadditivity,
    minimal_decoupling_constants,
)
from .errors import (
    CapExceededError,
    ConfigError,
    DecouplingFailure,
    GapLiftError,
    GapsubError,
    SchemaError,
    ScheduleRangeError,
    ValidationError,
)
from .estimators import (
    EntropyEstimate,
    MeanSeriesResult,
    cross_entropy_estimate,
    mean_convergence_series,
    relative_entropy_estimate,
)
from .logspace import (
    NEG_INF,
    log_sum_exp,
    safe_log,
)
from .fekete import (
    FeketeReport,
    RealSequence,
    SubadditivityCheck,
    check_gapped_subadditivity,
    fekete_infimum,
    fekete_limit_estimate,
    gap_lift,
    sequence_from_spec,
)
from .measures import (
    Alphabet,
    HiddenMarkovMeasure,
    IIDMeasure,
    MarkovMeasure,
    MeasureValidation,
    MixtureMeasure,
    ShiftMeasure,
    Windows,
    measure_from_spec,
    stationary_distribution,
    validate_measure,
)
from .sampling import (
    Trajectory,
    kingman_series,
    log_prefixes,
    make_rng,
    sample_paths,
    sample_trajectory,
)
from .schedules import (
    ConvergenceSeries,
    ErrorSchedule,
    GapSchedule,
    geometric_grid,
    linear_grid,
)
from .steele import (
    ProofContext,
    SteeleDecomposition,
    bad_indicator,
    birkhoff_bad_average,
    first_depths,
    steele_decompose,
    trajectory_context,
    verify_cover_bounds,
    verify_depths,
    verify_ub_rep,
)
