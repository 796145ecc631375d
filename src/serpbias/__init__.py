"""Quantify stance and ideological slant in ranked search results.

The library models labeled result pages, scores their slant with
utility-based measures (precision, rank-biased precision, DCG), aggregates
per-engine means, tests significance with Student t-tests, and ships the
rND/rKL/rRD prefix-fairness scores as comparison baselines.
"""

from .bias import (
    BiasRecord,
    BiasSummary,
    beta_max,
    bias,
    mean_abs_bias,
    mean_bias,
    per_query_bias,
    summarize_run,
)
from .dataset import Dataset, load_dataset, parse_dataset
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    InputError,
    MeasureUndefinedError,
    SerpBiasError,
)
from .fairness import (
    BASELINE_KINDS,
    BaselineConfig,
    baseline_score,
    distance_rkl,
    distance_rnd,
    distance_rrd,
    normalizer_z,
)
from .measures import (
    MEASURE_KINDS,
    MeasureConfig,
    dcg_at,
    precision_at,
    rbp,
)
from .model import (
    Document,
    EngineRun,
    IdeologyLabel,
    Label,
    LeaningLabel,
    RankedList,
    StanceLabel,
    mirror,
    transform_list,
    transform_stance_to_ideology,
)
from .report import (
    MODES,
    REPORT_FORMATS,
    BaselineReport,
    BaselineScore,
    ComparisonReport,
    DatasetReport,
    ReportConfig,
    TestEntry,
    evaluate,
    render_report,
    report_from_json,
)
from .stats import (
    TTestResult,
    one_sample_ttest,
    paired_ttest,
    regularized_incomplete_beta,
    student_t_sf,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS",
    "BaselineConfig",
    "BaselineReport",
    "BaselineScore",
    "BiasRecord",
    "BiasSummary",
    "ComparisonReport",
    "ConfigError",
    "ConvergenceError",
    "Dataset",
    "DatasetReport",
    "DegenerateSampleError",
    "Document",
    "EngineRun",
    "IdeologyLabel",
    "InputError",
    "Label",
    "LeaningLabel",
    "MEASURE_KINDS",
    "MODES",
    "MeasureConfig",
    "MeasureUndefinedError",
    "RankedList",
    "REPORT_FORMATS",
    "ReportConfig",
    "SerpBiasError",
    "StanceLabel",
    "TTestResult",
    "TestEntry",
    "baseline_score",
    "beta_max",
    "bias",
    "dcg_at",
    "distance_rkl",
    "distance_rnd",
    "distance_rrd",
    "evaluate",
    "load_dataset",
    "mean_abs_bias",
    "mean_bias",
    "mirror",
    "normalizer_z",
    "one_sample_ttest",
    "paired_ttest",
    "parse_dataset",
    "per_query_bias",
    "precision_at",
    "rbp",
    "regularized_incomplete_beta",
    "render_report",
    "report_from_json",
    "student_t_sf",
    "summarize_run",
    "transform_list",
    "transform_stance_to_ideology",
]
