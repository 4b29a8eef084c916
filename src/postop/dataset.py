"""Decision-table data model plus ARFF parsing and serialization.

A table is a fixed schema of nominal and numeric attributes with exactly
one binary nominal class attribute, stored as three arrays: the nominal
predictors as int domain codes (-1 for missing), the numeric predictors
as floats (nan for missing), and the class as int codes (never missing).
The arrays are checked once, vectorized, when a table is built; tables
derived from a checked one (row subsets, imputed or resampled copies) are
not checked again. The ARFF parser converts data lines, a block of rows
and a column at a time, straight into the three arrays. Rows as tuples,
with None for missing cells, exist only where data leaves (`Dataset.rows`,
`to_arff`).
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NOMINAL = "nominal"
NUMERIC = "numeric"

PREDICTOR = "predictor"
CLASS = "class"

# attribute type keywords accepted in declarations; all collapse to NUMERIC
_NUMERIC_KEYWORDS = {"numeric", "real", "integer"}

MISSING_TOKEN = "?"

# data lines converted together, so only one block's token strings are alive at a time
_BLOCK_ROWS = 512


class DataError(ValueError):
    """Invalid dataset content, schema, or operation preconditions."""


class ParseError(DataError):
    """Malformed input text; carries the offending position when known."""

    def __init__(self, message, line=None, column=None):
        prefix = ""
        if line is not None:
            prefix = f"line {line}"
            if column is not None:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(prefix + message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute: a name, a kind, and (for nominals) an ordered domain."""

    name: str
    kind: str
    values: tuple[str, ...] = ()
    role: str = PREDICTOR

    def __post_init__(self):
        if self.kind not in (NOMINAL, NUMERIC):
            raise DataError(f"unknown attribute kind {self.kind!r}")
        if self.role not in (PREDICTOR, CLASS):
            raise DataError(f"unknown attribute role {self.role!r}")
        if self.kind == NOMINAL:
            if not self.values:
                raise DataError(f"nominal attribute {self.name!r} declares an empty domain")
            if len(set(self.values)) != len(self.values):
                raise DataError(f"nominal attribute {self.name!r} declares duplicate values")
        elif self.values:
            raise DataError(f"numeric attribute {self.name!r} cannot declare a domain")


def is_missing(column: np.ndarray) -> np.ndarray:
    """Missing-cell mask of a column: nan in floats, negative in codes."""
    return np.isnan(column) if column.dtype.kind == "f" else column < 0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check(bad: np.ndarray, message) -> None:
    """Raise DataError(message(row, column)) at the first true cell of bad."""
    hits = np.argwhere(bad)
    if hits.size:
        raise DataError(message(*hits[0]))


def _class_position(schema) -> int:
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise DataError("attribute names must be unique")
    class_positions = [i for i, a in enumerate(schema) if a.role == CLASS]
    if len(class_positions) != 1:
        raise DataError(f"expected exactly one class attribute, found {len(class_positions)}")
    cattr = schema[class_positions[0]]
    if cattr.kind != NOMINAL or len(cattr.values) != 2:
        raise DataError("the class attribute must be nominal with exactly two values")
    return class_positions[0]


class Dataset:
    """Immutable decision table: schema, three read-only arrays, a relation name.

    codes (rows, nominal predictors) holds domain codes, -1 for missing, in the
    narrowest signed int type (int8 up to 128 values); numerics (rows, numeric
    predictors) holds floats, nan for missing; classes (rows,) holds class
    codes. Predictor columns follow schema order within each block. Construction
    checks the schema (unique names, one binary nominal class attribute) and the
    arrays (shapes, in-domain codes, no infinities, no missing class) in one
    vectorized pass and copies them.
    """

    def __init__(self, schema, codes, numerics, classes, relation: str = "dataset"):
        self.schema = tuple(schema)
        self.relation = relation
        self._class_index = _class_position(self.schema)
        classes = np.asarray(classes)
        codes = np.asarray(codes)
        numerics = np.asarray(numerics, dtype=np.float64)
        n = len(classes)
        if (classes.ndim != 1 or codes.shape != (n, len(self.nominal_predictor_indices))
                or numerics.shape != (n, len(self.numeric_predictor_indices))):
            raise DataError("codes, numerics and classes must be row-aligned blocks "
                            "matching the schema")
        if codes.dtype.kind not in "iu" or classes.dtype.kind not in "iu":
            raise DataError("nominal and class codes must be integer arrays")
        names = [self.schema[ai].name for ai in self.nominal_predictor_indices]
        sizes = [len(self.schema[ai].values) for ai in self.nominal_predictor_indices]
        _check((codes < -1) | (codes >= np.array(sizes, dtype=np.int64)), lambda r, j:
               f"instance {r}: symbol index {codes[r, j]} out of range for {names[j]!r}")
        _check(np.isinf(numerics), lambda r, j: f"instance {r}: non-finite value for "
               f"{self.schema[self.numeric_predictor_indices[j]].name!r}")
        _check(classes == -1, lambda r: f"instance {r} has a missing class value")
        _check((classes < -1) | (classes >= 2),
               lambda r: f"instance {r}: class code {classes[r]} out of range")
        self._codes = _frozen(codes.astype(np.min_scalar_type(-max(sizes, default=1))))
        self._numerics = _frozen(numerics.copy())
        self._classes = _frozen(classes.astype(np.int64))

    def _derive(self, codes, numerics, classes) -> "Dataset":
        """Same schema over arrays computed from this table's; not re-checked."""
        out = copy.copy(self)
        out._codes, out._numerics, out._classes = map(_frozen, (codes, numerics, classes))
        return out

    # -- identity ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._classes)

    def __eq__(self, other) -> bool:
        # relation name is presentation, not data; two tables are equal when
        # their schemas and values agree
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self._codes, other._codes)
            and np.array_equal(self._numerics, other._numerics, equal_nan=True)
            and np.array_equal(self._classes, other._classes)
        )

    def __repr__(self):
        return f"Dataset({self.relation!r}, {len(self)} instances, {len(self.schema)} attributes)"

    # -- schema views ------------------------------------------------------

    @property
    def class_index(self) -> int:
        return self._class_index

    @property
    def class_attribute(self) -> AttributeSchema:
        return self.schema[self._class_index]

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.class_attribute.values

    @cached_property
    def predictor_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.schema) if a.role == PREDICTOR)

    @cached_property
    def nominal_predictor_indices(self) -> tuple[int, ...]:
        return tuple(i for i in self.predictor_indices if self.schema[i].kind == NOMINAL)

    @cached_property
    def numeric_predictor_indices(self) -> tuple[int, ...]:
        return tuple(i for i in self.predictor_indices if self.schema[i].kind == NUMERIC)

    def attribute_index(self, name: str) -> int:
        for i, a in enumerate(self.schema):
            if a.name == name:
                return i
        raise DataError(f"no attribute named {name!r}")

    # -- array views (read-only) -------------------------------------------

    def codes_matrix(self) -> np.ndarray:
        """Nominal predictor columns as int codes, missing as -1."""
        return self._codes

    def numeric_matrix(self) -> np.ndarray:
        """Numeric predictor columns as floats, missing as nan."""
        return self._numerics

    def class_codes(self) -> np.ndarray:
        """Class column as int codes (never missing)."""
        return self._classes

    def column(self, ai: int) -> np.ndarray:
        """The column of schema position ai, in its block's encoding."""
        if ai == self._class_index:
            return self._classes
        if self.schema[ai].kind == NOMINAL:
            return self._codes[:, self.nominal_predictor_indices.index(ai)]
        return self._numerics[:, self.numeric_predictor_indices.index(ai)]

    def subset(self, indices) -> "Dataset":
        """New table with the rows at `indices`, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return self._derive(self._codes[idx], self._numerics[idx], self._classes[idx])


def class_counts(d: Dataset) -> dict[str, int]:
    """Instance count per class value, keyed in declaration order.

    Classes with no instances still appear with count 0.
    """
    counts = np.bincount(d.class_codes(), minlength=len(d.class_labels))
    return {label: int(c) for label, c in zip(d.class_labels, counts)}


def missing_census(d: Dataset) -> dict[str, int]:
    """Missing-cell count per attribute name, only attributes that have any."""
    counts = ((d.schema[ai].name, int(is_missing(d.column(ai)).sum()))
              for ai in d.predictor_indices)
    return {name: n for name, n in counts if n}


def require_complete(d: Dataset, what: str) -> None:
    """Raise DataError unless d has no missing cell; what names the refusing step."""
    if (d.codes_matrix() < 0).any() or np.isnan(d.numeric_matrix()).any():
        raise DataError(f"{what} needs a table with no missing cells; impute it first")


def observed_range(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each numeric predictor column of a non-empty table."""
    num = np.ascontiguousarray(d.numeric_matrix().T)  # a row per column reduces faster
    return num.min(axis=1), num.max(axis=1)


def minmax_scale(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Numeric columns scaled so each column's lo maps to 0 and hi to 1.

    Values outside [lo, hi] extrapolate. Every cell of a constant column
    (whose span halves to 0: lo == hi, or hi - lo a few subnormals) gives
    0; an infinite quotient gives the largest finite float of its sign.
    Each term is halved before it is subtracted, so no difference of two
    finite floats overflows.
    """
    span = hi / 2 - lo / 2
    constant = span == 0
    with np.errstate(over="ignore"):  # nan_to_num clamps an infinite quotient
        x = np.where(constant, 0.0, (values / 2 - lo / 2) / np.where(constant, 1.0, span))
    return np.nan_to_num(x)


def impute_missing(d: Dataset, strategy: str = "mean-or-mode") -> Dataset:
    """Resolve missing predictor values.

    strategy "mean-or-mode": numerics get the attribute mean over non-missing
    values, nominals the most frequent value (ties toward the earlier domain
    value). strategy "drop-instance": rows with any missing value are removed.
    """
    codes, numerics = d.codes_matrix(), d.numeric_matrix()
    holes = (codes < 0, np.isnan(numerics))
    if strategy == "drop-instance":
        return d.subset(np.flatnonzero(~(holes[0].any(axis=1) | holes[1].any(axis=1))))
    if strategy != "mean-or-mode":
        raise DataError(f"unknown imputation strategy {strategy!r}")
    if not (holes[0].any() or holes[1].any()):
        return d
    codes, numerics = codes.copy(), numerics.copy()
    blocks = ((codes, holes[0], d.nominal_predictor_indices),
              (numerics, holes[1], d.numeric_predictor_indices))
    for block, hole, positions in blocks:
        for j in np.flatnonzero(hole.any(axis=0)):
            attr = d.schema[positions[j]]
            present = block[~hole[:, j], j]
            if not present.size:
                raise DataError(f"attribute {attr.name!r} has no observed values to impute from")
            if attr.kind == NUMERIC:
                # a python sum, so the mean keeps its row-order rounding, of
                # terms scaled by 2**-k <= 1/n, so that it cannot overflow
                k = present.size.bit_length()
                scaled = sum(np.ldexp(present, -k).tolist()) / present.size
                block[hole[:, j], j] = math.ldexp(scaled, k)
            else:
                block[hole[:, j], j] = np.argmax(np.bincount(present, minlength=len(attr.values)))
    return d._derive(codes, numerics, d.class_codes())


# -- ARFF -------------------------------------------------------------------


def _strip_comment(raw: str) -> str:
    pos = raw.find("%")
    return raw if pos < 0 else raw[:pos]


def _parse_attribute_decl(rest: str, lineno: int) -> AttributeSchema:
    rest = rest.strip()
    if rest[:1] not in ("'", '"'):  # a quoted name may hold a %; elsewhere it starts a comment
        rest = _strip_comment(rest).strip()
    if not rest:
        raise ParseError("attribute declaration needs a name and a type", line=lineno)
    if rest[0] in "'\"":
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ParseError("unterminated quoted attribute name", line=lineno)
        name = rest[1:end]
        spec = _strip_comment(rest[end + 1 :]).strip()
    else:
        brace = rest.find("{")
        head = rest if brace < 0 else rest[:brace]
        parts = head.split(None, 1)
        name = parts[0] if parts else ""
        spec = (parts[1] if len(parts) > 1 else "") + ("" if brace < 0 else rest[brace:])
        spec = spec.strip()
    if not name:
        raise ParseError("empty attribute name", line=lineno)
    if not spec:
        raise ParseError(f"attribute {name!r} declares no type", line=lineno)
    if spec.startswith("{"):
        if not spec.endswith("}"):
            raise ParseError(f"attribute {name!r}: unterminated nominal domain", line=lineno)
        tokens = [t.strip() for t in spec[1:-1].split(",")]
        if any(not t for t in tokens):
            raise ParseError(f"attribute {name!r}: empty nominal value", line=lineno)
        try:
            return AttributeSchema(name, NOMINAL, tuple(tokens))
        except DataError as e:
            raise ParseError(str(e), line=lineno) from None
    if spec.lower() in _NUMERIC_KEYWORDS:
        return AttributeSchema(name, NUMERIC)
    raise ParseError(f"attribute {name!r} has unsupported type {spec!r}", line=lineno)


def _assign_class(schema: list[AttributeSchema], class_attribute: str | None):
    names = [a.name for a in schema]
    target = class_attribute if class_attribute is not None else names[-1]
    if target not in names:
        raise DataError(f"class attribute {target!r} not found in the schema")
    out = []
    for a in schema:
        role = CLASS if a.name == target else PREDICTOR
        out.append(AttributeSchema(a.name, a.kind, a.values, role))
    return out


def _real(token: str) -> float:
    """A numeric cell: nan if missing, -inf for an invalid literal, inf if non-finite."""
    token = token.strip()
    if token == MISSING_TOKEN:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        return -math.inf
    return value if math.isfinite(value) else math.inf


def _parse_rows(schema, data, capacity: int):
    """The codes, numerics and classes blocks of at most capacity data rows.

    data yields (line number, stripped line) pairs. They are split and
    converted a block of _BLOCK_ROWS lines at a time, a column at a time;
    each block raises its first fault in file order: a ragged row, or the
    row's leftmost bad cell. Range and missing-class checks are Dataset's.
    """
    ci = _class_position(schema)
    nominal = [i for i, a in enumerate(schema) if a.kind == NOMINAL and i != ci] + [ci]
    numeric = [i for i, a in enumerate(schema) if a.kind == NUMERIC]
    lookups = [{v: i for i, v in enumerate(a.values)} | {MISSING_TOKEN: -1} for a in schema]
    codes = np.empty((capacity, len(nominal)), dtype=np.int64)  # the class last
    numerics = np.empty((capacity, len(numeric)))
    n = 0
    while block := list(itertools.islice(data, _BLOCK_ROWS)):
        fields = [line.split(",") for _, line in block]
        good = next((r for r, f in enumerate(fields) if len(f) != len(schema)), len(block))
        columns = list(zip(*fields[:good])) or [()] * len(schema)
        cells = [np.array([_real(t) for t in col]) if a.kind == NUMERIC
                 else np.array([lookup.get(t.strip(), -2) for t in col], dtype=np.int64)
                 for a, lookup, col in zip(schema, lookups, columns)]
        bad = [np.isinf(c) if a.kind == NUMERIC else c < -1 for a, c in zip(schema, cells)]
        faults = np.argwhere(np.array(bad).T)
        if faults.size:
            r, j = faults[0].tolist()
            attr, token = schema[j], fields[r][j].strip()
            if attr.kind == NOMINAL:
                message = f"value {token!r} is not in the domain of attribute {attr.name!r}"
            elif _real(token) < 0:
                message = f"invalid numeric literal {token!r} for attribute {attr.name!r}"
            else:
                message = f"non-finite numeric value for attribute {attr.name!r}"
            column = sum(map(len, fields[r][:j])) + j + 1  # where field j starts, from 1
            raise ParseError(message, line=block[r][0], column=column)
        if good < len(block):
            raise ParseError(f"row has {len(fields[good])} values, schema expects "
                             f"{len(schema)}", line=block[good][0])
        for out, positions in ((codes, nominal), (numerics, numeric)):
            out[n:n + good] = np.array([cells[i] for i in positions]).reshape(-1, good).T
        n += good
    return codes[:n, :-1], numerics[:n], codes[:n, -1]


def parse_arff(text: str, class_attribute: str | None = None) -> Dataset:
    """Parse an ARFF document into a Dataset.

    Supported subset: @relation, @attribute with a nominal domain or a
    numeric type keyword, @data with comma-separated rows, '%' comments,
    '?' for missing values. Keywords are case-insensitive. The last
    attribute is the class unless `class_attribute` names another. The
    header is checked before the first data row.
    """
    relation = "dataset"
    schema: list[AttributeSchema] = []
    lines = text.splitlines()
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        line = _strip_comment(raw).strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("@relation"):
            relation = line[len("@relation") :].strip().strip("'\"") or relation
        elif low.startswith("@attribute"):
            schema.append(_parse_attribute_decl(raw.lstrip()[len("@attribute") :], lineno))
        elif low.startswith("@data"):
            if not schema:
                raise ParseError("@data before any attribute declaration", line=lineno)
            break
        else:
            raise ParseError(f"unrecognized declaration {line.split()[0]!r}", line=lineno)
    else:
        raise ParseError("missing @data section")
    schema = _assign_class(schema, class_attribute)
    data = ((n, line) for n, raw in numbered if (line := _strip_comment(raw).strip()))
    return Dataset(schema, *_parse_rows(schema, data, len(lines) - lineno), relation)


def _format_column(attr: AttributeSchema, column: np.ndarray) -> list[str]:
    tokens = attr.values if attr.kind == NOMINAL else None
    return [MISSING_TOKEN if hole else repr(v) if tokens is None else tokens[v]
            for v, hole in zip(column.tolist(), is_missing(column).tolist())]


def to_arff(d: Dataset) -> str:
    """Serialize to ARFF; re-parsing the result reproduces the dataset."""
    out = [f"@relation {d.relation}"]
    for a in d.schema:
        name = a.name  # quoted where the unquoted form would read another name
        if name.split() != [name] or "{" in name or "%" in name or name[0] in "'\"":
            quote = '"' if "'" in name else "'"
            name = quote + name + quote
        if a.kind == NOMINAL:
            out.append(f"@attribute {name} {{{','.join(a.values)}}}")
        else:
            out.append(f"@attribute {name} numeric")
    out.append("@data")
    out += map(",".join, zip(*(_format_column(a, d.column(ai)) for ai, a in enumerate(d.schema))))
    return "\n".join(out) + "\n"

