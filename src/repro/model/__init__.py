"""The predictive model: soft-max per parameter, CG training, LOO CV."""

from repro.model.fastcv import FastCrossValidator, fast_leave_one_program_out
from repro.model.quantize import QuantizedPredictor
from repro.model.serialize import (
    WeightStore,
    load_predictor,
    load_weight_store,
    save_predictor,
    save_weight_store,
)
from repro.model.optimizer import CGResult, minimize_cg
from repro.model.predictor import ConfigurationPredictor
from repro.model.softmax import SoftmaxClassifier
from repro.model.training import (
    GOOD_THRESHOLD,
    PhaseRecord,
    TrainingSet,
    build_full_datasets,
    build_parameter_dataset,
    good_configurations,
)

__all__ = [
    "CGResult",
    "ConfigurationPredictor",
    "FastCrossValidator",
    "GOOD_THRESHOLD",
    "PhaseRecord",
    "QuantizedPredictor",
    "SoftmaxClassifier",
    "TrainingSet",
    "WeightStore",
    "build_full_datasets",
    "build_parameter_dataset",
    "fast_leave_one_program_out",
    "good_configurations",
    "load_predictor",
    "load_weight_store",
    "minimize_cg",
    "save_predictor",
    "save_weight_store",
]
