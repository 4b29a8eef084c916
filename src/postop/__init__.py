"""Benchmark harness for post-operative life-expectancy classifiers.

Parses the thoracic surgery decision table (ARFF or CSV), rebalances the
minority class with synthetic oversampling, trains three classifiers
(a feed-forward network, a gain-ratio decision tree, and naive Bayes),
and scores them under stratified cross-validation.
"""

__version__ = "0.1.0"

from .dataset import (
    AttributeSchema,
    DataError,
    Dataset,
    ParseError,
    class_counts,
    impute_missing,
    parse_arff,
    parse_csv,
    to_arff,
    to_csv,
)
from .decision_tree import TreeConfig, gain_ratio, train_tree, tree_predict, tree_to_rules
from .evaluation import (
    ClassifierSpec,
    EvaluationReport,
    cross_validate,
    make_classifier,
    stratified_folds,
)
from .mlp import MlpConfig, train_mlp, mlp_predict
from .naive_bayes import train_nb, nb_predict
from .resampling import SmoteConfig, smote, smote_repeated
from .seeds import derive_seed

__all__ = [
    "AttributeSchema",
    "ClassifierSpec",
    "DataError",
    "Dataset",
    "EvaluationReport",
    "MlpConfig",
    "ParseError",
    "SmoteConfig",
    "TreeConfig",
    "class_counts",
    "cross_validate",
    "derive_seed",
    "gain_ratio",
    "impute_missing",
    "make_classifier",
    "mlp_predict",
    "nb_predict",
    "parse_arff",
    "parse_csv",
    "smote",
    "smote_repeated",
    "stratified_folds",
    "to_arff",
    "to_csv",
    "train_mlp",
    "train_nb",
    "train_tree",
    "tree_predict",
    "tree_to_rules",
]
