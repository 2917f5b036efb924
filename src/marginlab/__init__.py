"""Margin measurement workbench for feedforward classifiers."""

from .advdir import adv_directions, cumulative_share
from .data import (
    BlobConfig,
    Dataset,
    corrupt_inputs_gaussian,
    corrupt_labels,
    gen_blobs,
    load_dataset,
    max_margin,
    normalize,
    save_dataset,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    WorkbenchError,
)
from .margin import (
    MarginTable,
    SearchConfig,
    SearchStatus,
    search_margins,
    tv_normalize,
)
from .metrics import (
    EvaluatedModel,
    HyperparamConfig,
    ModelTable,
    cmi_score,
    cross_validate_predictor,
    extract_signature,
    fit_linear_predictor,
    granulated_kendall,
    kendall_tau,
    predict_gap,
    r_squared,
)
from .nnet import Network, TrainConfig, accuracy, init_network, train_sgd
from .pca import PcaModel, fit_pca, select_components_kneedle

__version__ = "0.1.0"

__all__ = [
    "BlobConfig",
    "ConfigError",
    "Dataset",
    "DomainError",
    "EvaluatedModel",
    "HyperparamConfig",
    "MarginTable",
    "ModelTable",
    "Network",
    "NumericalError",
    "PcaModel",
    "SearchConfig",
    "SearchStatus",
    "TrainConfig",
    "WorkbenchError",
    "accuracy",
    "adv_directions",
    "cmi_score",
    "corrupt_inputs_gaussian",
    "corrupt_labels",
    "cross_validate_predictor",
    "cumulative_share",
    "extract_signature",
    "fit_linear_predictor",
    "fit_pca",
    "gen_blobs",
    "granulated_kendall",
    "init_network",
    "kendall_tau",
    "load_dataset",
    "max_margin",
    "normalize",
    "predict_gap",
    "r_squared",
    "save_dataset",
    "search_margins",
    "select_components_kneedle",
    "train_sgd",
    "tv_normalize",
]
