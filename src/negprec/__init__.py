"""Joint claim and outcome prediction for legal cases.

Cases claim convention articles; courts find some claims violated. This
package predicts, per article, a three-way outcome (positive precedent,
negative precedent, or no claim) and ships four architectures, a corpus
labeling pipeline, training with Adam, an evaluation and significance
suite, and a synthetic corpus generator for controlled experiments.
"""

__version__ = "0.1.0"

from .corpus import (
    ArticleIndex,
    Case,
    LabelMatrix,
    Outcome,
    SplitSet,
    derive_labels,
    filter_articles,
    load_corpus,
    save_corpus,
    split_stats,
)
from .encoder import PrecomputedEncoder, tokenize
from .extraction import DEFAULT_PATTERNS, PatternSet, build_outcome_corpus, extract_claims
from .models import (
    ARCHITECTURES,
    build_model,
    decide,
    decide_baseline,
    load_checkpoint,
    marginalize,
    save_checkpoint,
)
from .training import (
    DESK_GRID,
    FULL_GRID,
    Dataset,
    GridSpec,
    TrainConfig,
    adam_step,
    gradient_check,
    grid_search,
    train,
)
from .evaluation import (
    Predictions,
    all_score,
    micro_f1,
    permutation_test,
    random_baseline,
    render_report,
)
from .synth import GenConfig, generate_corpus

__all__ = [
    "ARCHITECTURES",
    "ArticleIndex",
    "Case",
    "Dataset",
    "DEFAULT_PATTERNS",
    "DESK_GRID",
    "FULL_GRID",
    "GenConfig",
    "GridSpec",
    "LabelMatrix",
    "Outcome",
    "PatternSet",
    "PrecomputedEncoder",
    "Predictions",
    "SplitSet",
    "TrainConfig",
    "adam_step",
    "all_score",
    "build_model",
    "build_outcome_corpus",
    "decide",
    "decide_baseline",
    "derive_labels",
    "extract_claims",
    "filter_articles",
    "generate_corpus",
    "gradient_check",
    "grid_search",
    "load_checkpoint",
    "load_corpus",
    "marginalize",
    "micro_f1",
    "permutation_test",
    "random_baseline",
    "render_report",
    "save_checkpoint",
    "save_corpus",
    "split_stats",
    "tokenize",
    "train",
]
