"""Model-zoo substrate: catalog, executable mini-models and datasets.

Substitutes the paper's 628 TIMM + 150 Hugging Face models with (a) a
778-record catalog whose workload statistics come from profiled forward
passes of family-faithful builders (Figs. 1 and 6), and (b) a trained,
executable mini-zoo for the accuracy sweep (Table III).
"""

from .builders import (
    BUILDERS,
    build_darknet,
    build_efficientnet,
    build_generic_cnn,
    build_mixer,
    build_mobilenet,
    build_nlp_transformer,
    build_resnet,
    build_vgg,
    build_vit,
)
from .catalog import (
    ModelRecord,
    activation_share_by_year,
    build_catalog,
    family_records,
)
from .dataset import Dataset, make_image_dataset, make_token_dataset
from .families import FAMILIES, FIGURE6_ORDER, FamilySpec, PAPER_FAMILY_GAINS, total_models
from .minizoo import MINI_ZOO_VARIANTS, ZooMember, build_mini_zoo, zoo_activation_names
from .train import AccuracyDropResult, MiniModel, accuracy_drop, fit_readout

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "FIGURE6_ORDER",
    "PAPER_FAMILY_GAINS",
    "total_models",
    "BUILDERS",
    "build_vgg",
    "build_resnet",
    "build_mobilenet",
    "build_efficientnet",
    "build_darknet",
    "build_generic_cnn",
    "build_vit",
    "build_mixer",
    "build_nlp_transformer",
    "ModelRecord",
    "build_catalog",
    "activation_share_by_year",
    "family_records",
    "Dataset",
    "make_image_dataset",
    "make_token_dataset",
    "MiniModel",
    "fit_readout",
    "accuracy_drop",
    "AccuracyDropResult",
    "ZooMember",
    "build_mini_zoo",
    "MINI_ZOO_VARIANTS",
    "zoo_activation_names",
]
