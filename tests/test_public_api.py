import tickcopula

PUBLIC_NAMES = [
    "CalibrationFailure", "CopulaFit", "CopulaModel", "CorrectedCorrelation", "CorrectionCurve",
    "DegeneratePairing", "EmpiricalMargin",
    "FAMILIES", "FitFailure", "InsufficientData", "IntervalEstimate",
    "InvalidParameter", "MalformedInput", "NoOverlap", "PairDiagnostics", "PairedSeries",
    "PluginCopula", "PoissonPair", "SimResult", "SimSpec", "TauEstimate", "TheoryReport",
    "TickCopulaError", "TickSeries", "arrival_theory", "build_curve", "calibration", "cdf",
    "configuration_labels", "copulas", "corrected_correlation",
    "diagnostics", "errors", "estimate_rates", "estimators", "fit_aic",
    "interval_misspecified", "interval_quad", "interval_quantile", "kendall_tau", "load_ticks",
    "log_pdf", "market_data", "overlap_intervals", "pair_previous_tick", "pair_refresh_time",
    "pair_ticks", "pairing", "param_of_tau", "plugin_copula", "pq_terms",
    "pseudo_observations", "sample_uniform", "save_ticks", "simulate", "synthesis", "tau_of",
    "theory_report",
]


def test_public_names_are_pinned():
    # add or remove a public name here on purpose, in the same change
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert tickcopula.__all__ == PUBLIC_NAMES
