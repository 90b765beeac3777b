"""Sequence taggers trained from heterogeneously tagged corpora.

Corpora annotated with different, partially overlapping tagsets are tied
together by a tag-hierarchy DAG.  A single fine-grained tagger (or one of the
baseline model families) trains on all of them at once and its predictions map
back onto any tagset in the hierarchy.
"""

from hiertag.hierarchy import (
    FG_OTHER,
    ExtendedHierarchy,
    HierarchyError,
    TagHierarchy,
    extend_with_other,
    parse_extended,
    parse_hierarchy,
)
from hiertag.model_io import ModelFormatError, load_model, save_model
from hiertag.models import (
    Consolidated,
    ConsolidationMethod,
    ModelError,
    ModelKind,
    TrainedModel,
    TrainingConfig,
    predict_hier,
    predict_multi,
    tag_batch,
    train_concat,
    train_hier,
    train_indep,
    train_mtl,
)

__version__ = "0.1.0"

__all__ = [
    "FG_OTHER",
    "Consolidated",
    "ConsolidationMethod",
    "ExtendedHierarchy",
    "HierarchyError",
    "ModelError",
    "ModelFormatError",
    "ModelKind",
    "TagHierarchy",
    "TrainedModel",
    "TrainingConfig",
    "extend_with_other",
    "load_model",
    "parse_extended",
    "parse_hierarchy",
    "predict_hier",
    "predict_multi",
    "save_model",
    "tag_batch",
    "train_concat",
    "train_hier",
    "train_indep",
    "train_mtl",
    "__version__",
]
