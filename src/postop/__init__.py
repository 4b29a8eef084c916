"""Benchmark harness for post-operative life-expectancy classifiers.

Parses the thoracic surgery decision table (ARFF), rebalances the
minority class with synthetic oversampling, trains three classifiers
(a feed-forward network, a gain-ratio decision tree, and naive Bayes),
and scores them under stratified cross-validation.
"""

__version__ = "0.1.0"
