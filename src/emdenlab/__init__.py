"""Numerical laboratory for the double-power Emden-Fowler radial equation

    u'' + (n-1)/r u' + k1 r^{l1} u^p + k2 r^{l2} u^q = 0.

Parameter algebra, log-radius integration frames, energy accounting,
end-behavior classification, shooting and threshold hunting, parameter
sweeps with reproducible manifests, and an acceptance suite.
"""

from ._version import __version__
from .params import (
    DerivedConstants,
    End,
    ProblemParams,
    RegimeFlags,
    aubin_talenti_profile,
    classify_regime,
    derive_constants,
)
from .integrate import (
    IntegratorConfig,
    SolverStats,
    State,
    Termination,
    TerminationKind,
    Trajectory,
    csv_round_trip,
    forced_expansion,
    integrate,
    integrate_many,
    log_frame_rhs,
    read_trajectory_csv,
    reframe,
    write_trajectory_csv,
)
from .energy import (
    BoundReport,
    EnergyTrace,
    apriori_bound_report,
    energy_trace,
    well_potential,
)
from .classify import (
    ClassificationReport,
    Kind,
    OscillationEnvelope,
    SaturationError,
    classify_end,
    end_window,
    fit_exponential_rate,
    fit_power_tail,
    oscillation_envelope,
    quadratic_extrema,
)
from .shooting import (
    BoundaryResult,
    ConnectingOrbit,
    ShotResult,
    ThresholdScan,
    bisect_boundary,
    bisect_many,
    connecting_orbit,
    scan_thresholds,
    shoot,
    shoot_many,
)
from .sweep import (
    RunConfig,
    SweepManifest,
    config_hash,
    expanded_axes,
    parse_run_config,
    parse_run_config_text,
    run_id_of,
    sweep,
)
from .acceptance import TOLERANCES, CriterionResult, Lab, format_results, \
    run_acceptance
from .serialize import canonical_json, fmt_float

__all__ = [
    "__version__",
    "BoundReport", "BoundaryResult", "ClassificationReport",
    "ConnectingOrbit", "CriterionResult", "DerivedConstants",
    "End", "EnergyTrace", "IntegratorConfig", "Kind",
    "Lab", "OscillationEnvelope", "ProblemParams", "RegimeFlags",
    "RunConfig", "SaturationError", "ShotResult", "SolverStats", "State",
    "SweepManifest",
    "Termination", "TerminationKind", "ThresholdScan", "TOLERANCES",
    "Trajectory",
    "apriori_bound_report", "aubin_talenti_profile", "bisect_boundary",
    "bisect_many",
    "canonical_json", "classify_end", "classify_regime", "config_hash",
    "connecting_orbit", "csv_round_trip", "derive_constants",
    "end_window", "energy_trace", "expanded_axes",
    "fit_exponential_rate", "forced_expansion",
    "fit_power_tail", "fmt_float", "format_results", "integrate",
    "integrate_many",
    "log_frame_rhs", "oscillation_envelope", "parse_run_config",
    "parse_run_config_text", "quadratic_extrema",
    "read_trajectory_csv", "reframe",
    "run_acceptance", "run_id_of", "scan_thresholds",
    "shoot", "shoot_many", "sweep",
    "well_potential", "write_trajectory_csv",
]
