"""CTR prediction with contextual and behavioral auxiliary ads.

Subpackages: schema (feature encoding), ingest (logs + synthetic data),
numerics (dense kernel), embedding, models (the five variants with manual
backprop), train_eval (Adagrad loop + metrics), session (user history store),
serving (two-round ranking protocol), cli.
"""

from .ingest import LabeledExample, SyntheticConfig, generate_synthetic
from .models import ModelParams, Variant, loss
from .schema import EncodedInstance, FieldKind, FieldSchema, GroupSchema, Vocabulary
from .session import SessionStore
from .train_eval import EvalReport, TrainConfig, auc, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "EncodedInstance", "EvalReport", "FieldKind", "FieldSchema", "GroupSchema",
    "LabeledExample", "ModelParams", "SessionStore", "SyntheticConfig", "TrainConfig",
    "Variant", "Vocabulary", "auc", "generate_synthetic", "grad_check",
    "loss", "train", "__version__",
]
