"""Minority-class rebalancing by synthetic oversampling.

Synthetic instances are built per minority original from its k nearest
minority neighbours, interpolating numeric fields between the pair and
keeping the original's nominal fields, which keeps every synthetic point
inside the minority region instead of duplicating rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import (DataError, Dataset, class_counts, minmax_scale, missing_census,
                      observed_range)


class ResampleError(DataError):
    """Resampling preconditions or configuration violated."""


@dataclass(frozen=True)
class SmoteConfig:
    """Knobs for synthetic oversampling.

    percent is the amount of new minority mass in percent of the current
    minority size and must be a multiple of 100: each original spawns
    percent/100 synthetics. k_neighbors is the neighbourhood size used to
    pick interpolation partners.
    """

    seed: int
    k_neighbors: int = 5
    percent: int = 700

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ResampleError("k_neighbors must be at least 1")
        if self.percent < 0 or self.percent % 100 != 0:
            raise ResampleError("percent must be a non-negative multiple of 100")


@dataclass(frozen=True)
class ResampleRecord:
    """What a resampling step did, for the run manifest.

    provenance maps each output row to its source: ("original", index) or
    ("synthetic", parent_index, neighbor_index) with indexes into the input
    dataset.
    """

    method: str
    minority_class: str
    original_counts: dict[str, int]
    final_counts: dict[str, int]
    synthetic_created: int
    config: dict
    provenance: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        grown = (
            self.final_counts[self.minority_class]
            - self.original_counts[self.minority_class]
        )
        if grown != self.synthetic_created:
            raise ResampleError(
                f"bookkeeping mismatch: minority grew by {grown}, "
                f"created {self.synthetic_created}"
            )

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "minority_class": self.minority_class,
            "original_counts": dict(self.original_counts),
            "final_counts": dict(self.final_counts),
            "synthetic_created": self.synthetic_created,
            "config": dict(self.config),
        }


def _minority_indices(d: Dataset, minority_class: str) -> tuple[int, np.ndarray]:
    if minority_class not in d.class_labels:
        raise ResampleError(
            f"{minority_class!r} is not a value of the class attribute "
            f"{d.class_attribute.name!r}"
        )
    code = d.class_labels.index(minority_class)
    return code, np.flatnonzero(d.class_codes() == code)


def _neighbor_table(d: Dataset, min_idx: np.ndarray, k: int) -> np.ndarray:
    """k nearest minority neighbours of each minority instance.

    Distance is Euclidean over min-max normalized numerics (ranges taken
    over the whole dataset) plus a 0/1 mismatch term per nominal attribute.
    Returns positions into min_idx, shape (len(min_idx), k).
    """
    xn = minmax_scale(d.numeric_matrix()[min_idx], *observed_range(d))  # a constant column adds 0
    xc = d.codes_matrix()[min_idx]
    diff = xn[:, None, :] - xn[None, :, :]
    d2 = (diff * diff).sum(axis=2) + (xc[:, None, :] != xc[None, :, :]).sum(axis=2)
    np.fill_diagonal(d2, np.inf)  # no row is its own neighbour
    return np.argsort(d2, axis=1, kind="stable")[:, :k]  # ties toward earlier rows


def smote(d: Dataset, minority_class: str, cfg: SmoteConfig) -> tuple[Dataset, ResampleRecord]:
    """Grow the minority class with synthetic interpolated instances.

    Parameters
    ----------
    d : Dataset
        Input table, with no missing cells (impute it first).
    minority_class : str
        Class value to oversample.
    cfg : SmoteConfig
        Amount (percent, multiple of 100), neighbourhood size, and seed.

    Returns
    -------
    (Dataset, ResampleRecord)
        The rebalanced table, shuffled, and a record of what happened.

    Notes
    -----
    For each minority original, in dataset order, percent/100 synthetics
    are created; per synthetic the RNG draws the neighbour choice first
    and one interpolation factor lambda second, and lambda is shared by
    all numeric fields of that synthetic. The combined originals plus
    synthetics are then shuffled by the same RNG. percent=0 returns the
    input unchanged.
    """
    if missing_census(d):
        raise ResampleError("SMOTE needs a table with no missing cells; impute it first")
    minority_code, min_idx = _minority_indices(d, minority_class)
    m = len(min_idx)
    if m == 0:
        raise ResampleError(f"minority class {minority_class!r} has no instances")
    if m < 2:
        raise ResampleError("oversampling needs at least two minority instances")
    if cfg.k_neighbors >= m:
        raise ResampleError(
            f"k_neighbors={cfg.k_neighbors} needs more than {m} minority instances"
        )
    counts_before = class_counts(d)
    if cfg.percent == 0:
        record = ResampleRecord(
            method="smote",
            minority_class=minority_class,
            original_counts=counts_before,
            final_counts=counts_before,
            synthetic_created=0,
            config={"seed": cfg.seed, "k_neighbors": cfg.k_neighbors, "percent": 0},
            provenance=tuple(("original", i) for i in range(len(d))),
        )
        return d, record

    rng = np.random.default_rng(cfg.seed)
    table = _neighbor_table(d, min_idx, cfg.k_neighbors)
    rounds = cfg.percent // 100
    total = m * rounds
    # scalar draws in the documented order: neighbour choice, then lambda
    choice = np.empty(total, dtype=np.int64)
    lam = np.empty(total)
    for s in range(total):
        choice[s] = rng.integers(0, cfg.k_neighbors)
        lam[s] = rng.random()
    parent = np.repeat(min_idx, rounds)
    partner = min_idx[table[np.repeat(np.arange(m), rounds), choice]]

    # nominal fields: a two-parent majority vote with ties toward the
    # original, so the original's values are kept
    codes, num = d.codes_matrix(), d.numeric_matrix()
    # interpolated on halves, so the difference of a ±1e308 pair cannot overflow
    half, half_partner = num[parent] / 2, num[partner] / 2
    synth_num = 2 * (half + lam[:, None] * (half_partner - half))
    perm = rng.permutation(len(d) + total)
    out = d._derive(
        np.concatenate([codes, codes[parent]])[perm],
        np.concatenate([num, synth_num])[perm],
        np.concatenate([d.class_codes(), np.full(total, minority_code)])[perm],
    )
    sources = [("original", i) for i in range(len(d))]
    sources += [("synthetic", int(i), int(j)) for i, j in zip(parent, partner)]
    provenance = tuple(sources[p] for p in perm)
    record = ResampleRecord(
        method="smote",
        minority_class=minority_class,
        original_counts=counts_before,
        final_counts=class_counts(out),
        synthetic_created=total,
        config={"seed": cfg.seed, "k_neighbors": cfg.k_neighbors, "percent": cfg.percent},
        provenance=provenance,
    )
    return out, record

