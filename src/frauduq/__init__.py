"""Uncertainty quantification for small tabular fraud classifiers.

Trains fully connected networks from scratch (numpy only) and estimates
predictive uncertainty three ways — Monte Carlo dropout, deep ensembles,
and ensemble MC dropout — then evaluates the estimates with calibration
error and the certain/uncertain confusion-matrix metrics.
"""

__version__ = "0.1.0"

from .data import (
    CsvSchema,
    FeatureTable,
    PreprocessorState,
    RawTable,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    load_features,
    save_features,
    split_train_test,
    synth_generate,
)
from .errors import (
    DataError,
    FormatError,
    FraudUqError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .evaluation import (
    CalibrationBins,
    ClassicMetrics,
    UqReport,
    build_report,
    classic_metrics,
    compute_ece,
    export_entropy_histogram,
    render_reliability_svg,
    threshold_sweep,
)
from .network import (
    Network,
    NetworkConfig,
    backward,
    cross_entropy,
    forward,
    init_network,
    load_network,
    save_network,
    softmax,
    train,
)
from .pipeline import RunConfig, load_run_config
from .uncertainty import (
    EnsembleSpec,
    Estimates,
    predict_table,
    predictive_entropy,
    summarize,
    train_ensemble,
)

__all__ = [n for n in dir() if not n.startswith("_")]
