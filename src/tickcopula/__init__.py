"""Dependence estimation for nonsynchronously observed tick data.

The package synchronizes two assets' transaction-time price series without
uprooting timestamps, corrects the attenuation that naive synchronization
inflicts on correlation and Kendall's tau, fits and selects bivariate
copulas, and calibrates simulation-based corrections and intervals for
non-elliptical families. A built-in generator produces nonsynchronous data
with known ground truth for all of the above.
"""

__version__ = "0.1.0"

from .arrival_theory import PoissonPair, TheoryReport, estimate_rates, pq_terms, theory_report
from .calibration import (
    CorrectionCurve,
    IntervalEstimate,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
)
from .copulas import (
    FAMILIES,
    CopulaFit,
    CopulaModel,
    EmpiricalMargin,
    PluginCopula,
    cdf,
    fit_aic,
    log_pdf,
    param_of_tau,
    plugin_copula,
    pseudo_observations,
    sample_uniform,
    tau_of,
)
from .errors import (
    CalibrationFailure,
    DegeneratePairing,
    FitFailure,
    InsufficientData,
    InvalidParameter,
    MalformedInput,
    NoOverlap,
    TickCopulaError,
)
from .estimators import (
    CorrectedCorrelation,
    TauEstimate,
    corrected_correlation,
    kendall_tau,
)
from .market_data import TickSeries, load_ticks, save_ticks
from .pairing import (
    PairDiagnostics,
    PairedSeries,
    configuration_labels,
    diagnostics,
    overlap_intervals,
    pair_previous_tick,
    pair_refresh_time,
    pair_ticks,
)
from .synthesis import SimResult, SimSpec, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
