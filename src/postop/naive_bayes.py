"""Naive Bayes over mixed nominal/numeric attributes.

Nominal likelihoods and class priors use add-one smoothing; numeric
likelihoods are Gaussian densities fit per class with the population
variance, floored to keep degenerate columns from producing infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset, require_complete

VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class NaiveBayesModel:
    """Fitted tables: priors, nominal likelihoods, Gaussian parameters.

    nominal_tables maps attribute index -> array (classes, domain size) of
    smoothed conditional probabilities. gaussian_params maps attribute
    index -> array (classes, 2) of (mean, variance), in units of the power
    of two numeric_scales gives the attribute: 1 for columns below 2**500,
    larger near the float range, so that no variance overflows. Attributes
    are keyed by their index in the training table's schema.
    """

    class_labels: tuple[str, ...]
    priors: np.ndarray
    nominal_tables: dict[int, np.ndarray]
    gaussian_params: dict[int, np.ndarray]
    numeric_scales: dict[int, float]


def train_nb(d: Dataset) -> NaiveBayesModel:
    """Fit priors and per-attribute class-conditional distributions.

    Priors are smoothed as (count+1)/(n+classes); nominal conditionals as
    (count+1)/(class count+domain size). A class with no instances falls
    back to the whole-data mean and variance for numeric attributes, and its
    smoothed nominal tables are uniform by construction.
    """
    if len(d) == 0:
        raise DataError("cannot train on an empty dataset")
    require_complete(d, "naive Bayes training")
    y = d.class_codes()
    n_classes = len(d.class_labels)
    class_n = np.bincount(y, minlength=n_classes).astype(float)
    priors = (class_n + 1.0) / (len(d) + n_classes)

    nominal_tables: dict[int, np.ndarray] = {}
    for ai, codes in zip(d.nominal_predictor_indices, d.codes_matrix().T):
        size = len(d.schema[ai].values)
        counts = np.bincount(y * size + codes, minlength=n_classes * size)
        counts = counts.reshape(n_classes, size).astype(float)
        nominal_tables[ai] = (counts + 1.0) / (class_n[:, None] + size)
    gaussian_params: dict[int, np.ndarray] = {}
    numeric_scales: dict[int, float] = {}
    for ai, vals in zip(d.numeric_predictor_indices, d.numeric_matrix().T):
        exponent = math.frexp(np.abs(vals).max())[1]
        numeric_scales[ai] = math.ldexp(1.0, max(0, exponent - 500))
        vals = vals / numeric_scales[ai]
        params = np.empty((n_classes, 2))
        for c in range(n_classes):
            # an absent class takes the whole-data parameters
            own = vals[y == c] if class_n[c] else vals
            params[c] = (own.mean(), max(own.var(), VARIANCE_FLOOR))
        gaussian_params[ai] = params
    return NaiveBayesModel(
        class_labels=d.class_labels,
        priors=priors,
        nominal_tables=nominal_tables,
        gaussian_params=gaussian_params,
        numeric_scales=numeric_scales,
    )


def nb_predict(model: NaiveBayesModel, d: Dataset) -> np.ndarray:
    """Posterior probabilities (rows, classes), in class declaration order.

    Computed in log space and normalized to sum to 1 per row; d must have
    no missing cells. Ties resolve toward the earlier class when the caller
    takes an argmax, since numpy returns the first maximum. Numeric values
    are scored in their attribute's scale units; the log(scale**2) this
    leaves out of each density is the same for every class, so it cancels
    in the normalization.
    """
    require_complete(d, "naive Bayes prediction")
    log_post = np.tile(np.log(model.priors), (len(d), 1))
    # each row's quadratic sum over numeric attributes in units of 2**1080: a
    # gap below 2**1025 over a variance above 2**-20 stays below 2**990, and a
    # term that overflows a double is still a normal number above 2**-56
    quad = np.zeros_like(log_post)
    for ai, table in model.nominal_tables.items():
        log_post += np.log(table[:, d.column(ai)]).T
    for ai, params in model.gaussian_params.items():
        v = d.column(ai) / model.numeric_scales[ai]
        mean, var = params[:, 0], params[:, 1]
        gap = v[:, None] - mean
        quad += (gap * 2.0**-540) ** 2 / var
        with np.errstate(over="ignore"):
            z = gap**2 / var
        # a value whose term overflows for every class goes to the widest one
        z[np.isinf(z).all(axis=1)] = np.where(var == var.max(), 0.0, np.inf)
        log_post += -0.5 * (np.log(2.0 * math.pi * var) + z)
    # two such values with different widest classes leave no class finite; the
    # quadratic terms then outweigh every log term, so the limit is one-hot on
    # the smallest quadratic sum
    lost = np.isneginf(log_post).all(axis=1)
    log_post[lost] = np.where(quad[lost] == quad[lost].min(axis=1, keepdims=True), 0.0, -np.inf)
    log_post -= log_post.max(axis=1, keepdims=True)
    p = np.exp(log_post)
    return p / p.sum(axis=1, keepdims=True)
