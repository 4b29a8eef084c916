"""Minority-class rebalancing by synthetic oversampling.

Synthetic instances are built per minority original from its k nearest
minority neighbours, interpolating numeric fields between the pair and
keeping the original's nominal fields, which keeps every synthetic point
inside the minority region instead of duplicating rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import DataError, Dataset, class_counts, minmax_scale, observed_range


# distances computed at once by _neighbor_table: 512 KB of float64 per block
_BLOCK_CELLS = 1 << 16
_DENSE_SHARE = 0.1  # share of a block's pairs past which _neighbor_table scores them all


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

    provenance is a read-only (output rows, 2) int64 array: per output row
    the input row it comes from (the original itself, or a synthetic's
    parent) and the synthetic's interpolation partner, -1 for an original.
    """

    method: str
    minority_class: str
    original_counts: dict[str, int]
    final_counts: dict[str, int]
    synthetic_created: int
    config: dict
    provenance: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.provenance.setflags(write=False)
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
        return {k: v for k, v in asdict(self).items() if k != "provenance"}


def _minority_indices(d: Dataset, minority_class: str) -> tuple[int, np.ndarray]:
    if minority_class not in d.class_labels:
        raise ResampleError(
            f"{minority_class!r} is not a value of the class attribute "
            f"{d.class_attribute.name!r}"
        )
    code = d.class_labels.index(minority_class)
    return code, np.flatnonzero(d.class_codes() == code)


def _distances(xn, i, j, mismatches, out=None, tmp=None) -> np.ndarray:
    """Distances of pairs (i, j): squared differences left to right from 0.0, then mismatches."""
    out = np.empty(np.shape(mismatches)) if out is None else out
    out.fill(0)
    for col in xn.T:
        out += np.square(np.subtract(col[i], col[j], out=tmp), out=tmp)
    return np.add(out, mismatches, out=out)


def _neighbor_table(d: Dataset, min_idx: np.ndarray, k: int) -> np.ndarray:
    """k nearest minority neighbours of each minority instance.

    Distance is Euclidean over min-max normalized numerics (ranges taken
    over the whole dataset) plus a 0/1 mismatch term per nominal attribute.
    Returns positions into min_idx, shape (len(min_idx), k), nearest first
    and ties toward earlier rows, computed in blocks of _BLOCK_CELLS cells.
    Only pairs whose mismatch count is within a bound on the kth distance
    are scored, or every pair where more than _DENSE_SHARE of a block are.
    """
    xn = minmax_scale(d.numeric_matrix()[min_idx], *observed_range(d))  # a constant column adds 0
    sizes = [len(d.schema[ai].values) for ai in d.nominal_predictor_indices]
    m = len(min_idx)
    bits = np.zeros((m, 64 * (sum(sizes) // 64 + 1)), dtype=bool)  # one-hot, in 64-bit words
    bits[np.arange(m)[:, None], d.codes_matrix()[min_idx] + np.cumsum([0, *sizes])[:-1]] = True
    first, *rest = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).T
    table = np.empty((m, k), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // m)
    d2_buf, tmp_buf = np.empty((2, min(step, m), m))  # every block's temporaries go here
    # differing one-hot bits, two per mismatched attribute; a row differs from itself most
    diff_buf = np.empty((min(step, m), m), dtype=np.min_scalar_type(2 * len(sizes) + 1))
    itself = np.iinfo(diff_buf.dtype).max
    for start in range(0, m, step):
        rows = np.arange(start, min(start + step, m))
        d2, tmp, diff = d2_buf[:len(rows)], tmp_buf[:len(rows)], diff_buf[:len(rows)]
        np.bitwise_count(np.bitwise_xor(first[rows, None], first, out=tmp.view(np.uint64)),
                         out=diff)
        for w in rest:  # more than 64 one-hot bits
            diff += np.bitwise_count(w[rows, None] ^ w)
        diff[rows - start, rows] = itself
        # the farthest of the k fewest-mismatch columns bounds the kth nearest: distance >= count
        np.add(np.multiply(diff, float(m), out=tmp), np.arange(m), out=tmp)  # bits * m + column
        tmp.partition(k - 1, axis=1)
        fewest = tmp[:, :k].astype(np.int64)
        bound = _distances(xn, rows[:, None], fewest % m, fewest // m >> 1).max(axis=1)
        scored = diff <= np.minimum(2 * bound, itself).astype(diff.dtype)[:, None]
        if np.count_nonzero(scored) > _DENSE_SHARE * diff.size:  # the bound prunes too little
            _distances(xn, rows[:, None], slice(None), diff >> 1, d2, tmp)
            d2[rows - start, rows] = np.inf
            tmp[...] = d2
            tmp.partition(k - 1, axis=1)
            scored = d2 <= tmp[:, k - 1:k]  # every row's k nearest are among these
        r, c = np.divmod(scored := np.flatnonzero(scored), m)
        dist = _distances(xn, rows[r], c, diff.ravel()[scored] >> 1)
        dist[rows[r] == c] = np.inf  # itself, as in the dense pass
        starts = np.cumsum(n := np.bincount(r, minlength=len(rows))) - n
        ranked = np.full((len(rows), n.max()), np.inf)  # each row's pairs, in column order
        ranked[r, np.arange(len(r)) - starts[r]] = dist
        # stable, so ties stay toward earlier columns and the padding goes last
        table[rows] = c[starts[:, None] + np.argsort(ranked, axis=1, kind="stable")[:, :k]]
    return table


def _draws(rng: np.random.Generator, k: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour choices and lambdas of `total` synthetics, from one block of raw words.

    It is the stream of `rng.integers(0, k)` then `rng.random()` per synthetic on a
    fresh PCG64: a choice is a 32-bit half of a word by Lemire's multiply (low half
    first, the other cached) and a lambda a whole word, so two synthetics use three.
    """
    if k == 1:  # integers(0, 1) draws nothing
        return np.zeros(total, dtype=np.int64), rng.random(total)
    state = rng.bit_generator.state
    words = rng.bit_generator.random_raw(3 * (total // 2)).reshape(-1, 3)
    product = np.column_stack((words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32)).ravel() * k
    if np.any((product & 0xFFFFFFFF) < (2**32 - k) % k):  # Lemire rejects a half and redraws
        rng.bit_generator.state = state
        choice, lam = zip(*[(rng.integers(0, k), rng.random()) for _ in range(total)])
        return np.array(choice, dtype=np.int64), np.array(lam)
    choice, lam = (product >> 32).astype(np.int64), (words[:, 1:] >> 11).ravel() * 2.0**-53
    if total % 2:  # scalar, so the high half stays cached for the next 32-bit draw
        choice, lam = np.append(choice, rng.integers(0, k)), np.append(lam, rng.random())
    return choice, lam


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
    synthetics are then shuffled by the same RNG; the draws come as one
    block of raw words, in that order. percent=0 returns the input unchanged.
    """
    if (d.codes_matrix() < 0).any() or np.isnan(d.numeric_matrix()).any():
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
    sources = np.column_stack((np.arange(len(d)), np.full(len(d), -1)))
    if cfg.percent == 0:
        record = ResampleRecord(
            method="smote",
            minority_class=minority_class,
            original_counts=counts_before,
            final_counts=counts_before,
            synthetic_created=0,
            config={"seed": cfg.seed, "k_neighbors": cfg.k_neighbors, "percent": 0},
            provenance=sources,
        )
        return d, record

    rng = np.random.default_rng(cfg.seed)
    table = _neighbor_table(d, min_idx, cfg.k_neighbors)
    rounds = cfg.percent // 100
    total = m * rounds
    try:  # the first array of `total` entries: a size numpy cannot allocate fails here
        choice, lam = _draws(rng, cfg.k_neighbors, total)
    except (MemoryError, ValueError) as e:
        raise ResampleError(f"cannot allocate {total} synthetic rows "
                            f"({rounds} per minority row): {e}") from None
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
    record = ResampleRecord(
        method="smote",
        minority_class=minority_class,
        original_counts=counts_before,
        final_counts=class_counts(out),
        synthetic_created=total,
        config={"seed": cfg.seed, "k_neighbors": cfg.k_neighbors, "percent": cfg.percent},
        provenance=np.concatenate([sources, np.column_stack((parent, partner))])[perm],
    )
    return out, record

