"""repscope: corpus-level analysis of self-repetition in summarizer outputs.

Finds long n-grams (length >= 4) repeated across summaries, computes
dataset-level and per-summary repetition scores, measures abstractiveness
against paired inputs, and fits an OLS regression attributing repetition
to architecture, training data, test data, and domain-shift interactions.
"""

import os

# The only BLAS work is a fit of a few columns: idle OpenBLAS workers would spin for no gain.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .config import AnalysisConfig, load_config
from .corpus import (
    Corpus,
    SummaryRecord,
    TokenizerConfig,
    TokenSequence,
    Vocabulary,
    load_corpus,
    tokenize,
)
from .errors import (
    AnalysisError,
    CorpusLoadError,
    DegenerateDesignError,
    EmptyCorpusError,
    InputError,
    MissingPairedInputError,
    RankDeficiencyError,
    RepscopeError,
)
from .metrics import (
    AbstractivenessRow,
    DatasetRepetitionScore,
    LengthStats,
    SummaryRepetitionScore,
    abstractiveness_rows,
    dataset_repetition_score,
    length_statistics,
    summary_repetition_score,
)
from .ngrams import (
    NGram,
    RepeatRow,
    RepetitionIndex,
    build_repetition_index,
    index_export_lines,
    top_repeats,
)
from .regression import (
    DesignMatrix,
    LrTestResult,
    RegressionFit,
    RegressionSpec,
    build_design_matrix,
    likelihood_ratio_test,
    ols_fit,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "AbstractivenessRow",
    "AnalysisError",
    "Corpus",
    "CorpusLoadError",
    "DatasetRepetitionScore",
    "DegenerateDesignError",
    "DesignMatrix",
    "EmptyCorpusError",
    "InputError",
    "LengthStats",
    "LrTestResult",
    "MissingPairedInputError",
    "NGram",
    "RankDeficiencyError",
    "RegressionFit",
    "RegressionSpec",
    "RepeatRow",
    "RepetitionIndex",
    "RepscopeError",
    "SummaryRecord",
    "SummaryRepetitionScore",
    "TokenSequence",
    "TokenizerConfig",
    "Vocabulary",
    "abstractiveness_rows",
    "build_design_matrix",
    "build_repetition_index",
    "dataset_repetition_score",
    "index_export_lines",
    "length_statistics",
    "likelihood_ratio_test",
    "load_config",
    "load_corpus",
    "ols_fit",
    "summary_repetition_score",
    "tokenize",
    "top_repeats",
]
