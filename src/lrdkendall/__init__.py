"""Trend tests that treat nearly equal observations as tied.

The classical signed-pair trend test calls any nonzero difference
informative. When values carry measurement error, differences smaller
than a chosen threshold are better treated as ties; this package scores
pairs under such a threshold, provides the matching variance estimator
and normal-approximation inference, aggregates across groups, falls back
to permutation inference where the approximation is doubtful, and ships
the analytic power machinery plus a Monte Carlo engine for studying the
threshold's effect.

Entry points: :func:`run_test` for one series, :func:`regional_test`
for grouped data, :func:`permutation_test` as the exact-style fallback,
:func:`power_curve` for analytic curves, and :func:`run_grid` for
simulation studies. The ``lrdkendall`` command wraps all of them.
"""

from .core import (
    LrdRule,
    Series,
    pair_score,
    s_extended,
    tie_proportion,
    uv_counts,
)
from .datasets import platelet_donations, read_input_file, read_input_table
from .errors import (
    AnalyticUnavailable,
    DegenerateRegime,
    InputError,
    InsufficientData,
    InvalidMoments,
    LrdKendallError,
    NoUsableData,
    QuadratureError,
)
from .inference import (
    TrendTestResult,
    p_value,
    run_test,
    tau_extended,
    z_score,
)
from .permutation import (
    PermutationResult,
    permutation_test,
    regional_permutation_test,
)
from .power import (
    ErrorDensity,
    GainCondition,
    PowerPoint,
    asymptotic_drift,
    diff_density,
    moments,
    power_curve,
    power_gain_condition,
)
from .regional import (
    LrdPolicy,
    RegionalDataset,
    RegionalResult,
    regional_test,
)
from .report import (
    grid_rows,
    read_grid_csv,
    render_json,
    render_text,
    to_payload,
    write_grid_csv,
)
from .simulation import (
    CellKey,
    CellResult,
    Scenario,
    density_for,
    expected_null_tie_proportion,
    load_grid_config,
    run_cell,
    run_grid,
)
from .variance import (
    MomentSet,
    moment_estimates,
    tie_groups,
    validate_moments,
    var_classical,
    var_extended_from_moments,
    var_extended_hat,
    var_theoretical,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticUnavailable",
    "CellKey",
    "CellResult",
    "DegenerateRegime",
    "ErrorDensity",
    "GainCondition",
    "InputError",
    "InsufficientData",
    "InvalidMoments",
    "LrdKendallError",
    "LrdPolicy",
    "LrdRule",
    "MomentSet",
    "NoUsableData",
    "PermutationResult",
    "PowerPoint",
    "QuadratureError",
    "RegionalDataset",
    "RegionalResult",
    "Scenario",
    "Series",
    "TrendTestResult",
    "asymptotic_drift",
    "density_for",
    "diff_density",
    "expected_null_tie_proportion",
    "grid_rows",
    "load_grid_config",
    "moment_estimates",
    "moments",
    "p_value",
    "pair_score",
    "permutation_test",
    "platelet_donations",
    "power_curve",
    "power_gain_condition",
    "read_grid_csv",
    "read_input_file",
    "read_input_table",
    "regional_permutation_test",
    "regional_test",
    "render_json",
    "render_text",
    "run_cell",
    "run_grid",
    "run_test",
    "s_extended",
    "to_payload",
    "tau_extended",
    "tie_groups",
    "tie_proportion",
    "uv_counts",
    "validate_moments",
    "var_classical",
    "var_extended_from_moments",
    "var_extended_hat",
    "var_theoretical",
    "write_grid_csv",
    "z_score",
]
