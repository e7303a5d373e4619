"""Labeled two-class samples: CSV ingestion and seeded Gaussian synthesis.

All container types are immutable after construction (their arrays are marked
read-only), so they are safe to share across threads. Randomness always flows
through :func:`derive_rng`, which hashes a master seed together with integer
sub-keys; trials seeded this way are independent and order-insensitive.
A GaussianModel rejects non-finite parameters and factors each class
covariance once; its sample and log_density methods, the oracle and the
closed-form bounds all read those factors. log_density solves L y = x - mean
by forward substitution on the stored lower factor L, in place over the d
contiguous coordinate rows, where a general solve would factor the
triangular matrix again with pivoting; the quadratic form is the sum of the
squared rows. It serves the oracle's quadrature grid and its Monte Carlo
strata alike.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .serialize import atomic_write_text, csv_text


class DatasetError(ValueError):
    """Malformed input data: bad CSV cells, labels, shapes, or model parameters."""


def derive_rng(*key: int) -> np.random.Generator:
    """Return a generator keyed by a tuple of non-negative integers.

    Equal keys yield bit-identical streams across calls and across process
    restarts; distinct keys yield independent streams.
    """
    flat = []
    for k in key:
        k = int(k)
        if k < 0:
            raise DatasetError(f"seed components must be non-negative, got {k}")
        flat.append(k)
    return np.random.default_rng(np.random.SeedSequence(flat))


def check_finite(pts: np.ndarray) -> None:
    """Raise DatasetError naming the first non-finite entry of a 2-D point matrix."""
    if not np.all(np.isfinite(pts)):
        bad = np.argwhere(~np.isfinite(pts))[0]
        raise DatasetError(f"non-finite coordinate at row {bad[0]}, column {bad[1]}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabeledSample:
    """An (n, d) feature matrix with binary labels.

    points: real coordinates, one row per observation, all finite.
    labels: length-n vector with values in {0, 1}.
    feature_names: optional d unique column names (from the CSV header).
    """

    points: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DatasetError(f"points must be a non-empty 2-D matrix, got shape {pts.shape}")
        check_finite(pts)
        raw = np.asarray(self.labels)
        if raw.shape != (pts.shape[0],):
            raise DatasetError(f"labels shape {raw.shape} does not match {pts.shape[0]} rows")
        # checked before the int64 cast, which would truncate 0.5 to 0 (NaN is bad too)
        values = raw.astype(np.float64)
        ok = (values == 0) | (values == 1)
        if not np.all(ok):
            bad = int(np.argmin(ok))
            raise DatasetError(f"label at row {bad} is {raw[bad]}, expected 0 or 1")
        labels = values.astype(np.int64)
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != pts.shape[1]:
                raise DatasetError(f"{len(names)} feature names for {pts.shape[1]} columns")
            if len(set(names)) != len(names):
                raise DatasetError("feature names must be unique")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def split_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class-0 rows, class-1 rows); raises DatasetError if either class is empty."""
        f, g = (self.points[self.labels == label] for label in (0, 1))
        if f.shape[0] == 0 or g.shape[0] == 0:
            missing = 0 if f.shape[0] == 0 else 1
            raise DatasetError(f"sample contains no rows with label {missing}")
        return f, g


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """A two-class Gaussian mixture: per-class mean/covariance plus the class-0 prior.

    Each mean is a flat vector of d entries; a mean of any other shape, a
    bare number or a nested list, is refused. Each covariance is a (d, d)
    matrix, or a (d,) vector that holds its variances: np.diag of it.
    Construction rejects non-finite entries, asymmetric covariances and
    covariances that are not positive definite, then factors each covariance
    once: chol0/chol1 are the read-only lower Cholesky factors, and
    log_norm0/log_norm1 each class's log normalising constant,
    -d/2 log 2 pi - sum log diag L. sample and log_density read those, so no
    caller factors a class again. Two models compare equal only when they
    are the same object.
    """

    mean0: np.ndarray
    mean1: np.ndarray
    cov0: np.ndarray
    cov1: np.ndarray
    prior_p: float = 0.5
    chol0: np.ndarray = field(init=False, repr=False)
    chol1: np.ndarray = field(init=False, repr=False)
    log_norm0: float = field(init=False, repr=False)
    log_norm1: float = field(init=False, repr=False)

    def __post_init__(self):
        m0 = np.asarray(self.mean0, dtype=np.float64)
        m1 = np.asarray(self.mean1, dtype=np.float64)
        for name, m in (("mean0", m0), ("mean1", m1)):
            if m.ndim != 1:
                raise DatasetError(f"{name} must be one-dimensional, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise DatasetError(f"{name} has a non-finite entry")
        if m0.shape != m1.shape:
            raise DatasetError(f"mean shapes differ: {m0.shape} vs {m1.shape}")
        if m0.size < 1:
            raise DatasetError("mean0 and mean1 need at least one entry")
        d = m0.size
        for k, (name, c) in enumerate((("cov0", self.cov0), ("cov1", self.cov1))):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim == 1:
                if c.size != d:
                    raise DatasetError(f"{name} has {c.size} variances, expected {d}")
                c = np.diag(c)
            if c.shape != (d, d):
                raise DatasetError(f"{name} has shape {c.shape}, expected ({d}, {d})")
            if not np.all(np.isfinite(c)):
                raise DatasetError(f"{name} has a non-finite entry")
            scale = max(float(np.max(np.abs(c))), 1.0)
            if np.max(np.abs(c - c.T)) > 1e-12 * scale:
                raise DatasetError(f"{name} is not symmetric within 1e-12 relative tolerance")
            c = _readonly(c)
            smallest = float(np.linalg.eigvalsh(c)[0])
            try:
                chol = np.linalg.cholesky(c) if smallest > 0.0 else None
            except np.linalg.LinAlgError:
                chol = None
            if chol is None:
                raise DatasetError(
                    f"{name} is not positive definite: smallest eigenvalue {smallest:.6e}"
                )
            object.__setattr__(self, name, c)
            object.__setattr__(self, f"chol{k}", _readonly(chol))
            object.__setattr__(self, f"log_norm{k}", -0.5 * d * math.log(2.0 * math.pi)
                               - float(np.log(np.diag(chol)).sum()))
        if not (0.0 < float(self.prior_p) < 1.0):
            raise DatasetError(f"prior_p must lie strictly in (0, 1), got {self.prior_p}")
        object.__setattr__(self, "mean0", _readonly(m0))
        object.__setattr__(self, "mean1", _readonly(m1))
        object.__setattr__(self, "prior_p", float(self.prior_p))

    @property
    def d(self) -> int:
        return self.mean0.size

    def _class(self, cls: int) -> tuple[np.ndarray, np.ndarray, float]:
        if cls == 0:
            return self.mean0, self.chol0, self.log_norm0
        return self.mean1, self.chol1, self.log_norm1

    def sample(self, cls: int, rng: np.random.Generator, n: int) -> np.ndarray:
        """n rows drawn from class cls: standard-normal draws times its Cholesky factor."""
        mean, chol, _ = self._class(cls)
        return rng.standard_normal((n, self.d)) @ chol.T + mean

    def log_density(self, cls: int, x) -> np.ndarray:
        """Log-density of class cls at each row of the (n, d) array x.

        Forward substitution on the stored factor (see the module docstring).
        Raises DatasetError unless x is 2-D with d columns; a single point is
        passed as one row, x[None].
        """
        mean, chol, log_norm = self._class(cls)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise DatasetError(f"x has shape {x.shape}, expected (n, {self.d})")
        y = np.subtract(x.T, mean[:, None], order="C")
        out = np.empty(x.shape[0])  # scratch for L[i, j] * y[j], then the result
        for i in range(self.d):
            for j in range(i):
                y[i] -= np.multiply(y[j], chol[i, j], out=out)
            y[i] /= chol[i, i]
        y *= y
        np.add.reduce(y, axis=0, out=out)
        out *= -0.5
        out += log_norm
        return out


def sample_gaussian(model: GaussianModel, n0: int, n1: int, seed) -> LabeledSample:
    """Draw n0 class-0 rows followed by n1 class-1 rows from the model.

    Sampling multiplies standard-normal draws by the Cholesky factor of each
    covariance. `seed` is a non-negative integer or a tuple or list of them;
    the two classes use independent sub-streams of it, so identical
    (model, n0, n1, seed) inputs give bit-identical output.
    """
    if n0 < 1 or n1 < 1:
        raise DatasetError(f"need at least one point per class, got n0={n0}, n1={n1}")
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    blocks = [model.sample(cls, derive_rng(*key, cls), n) for cls, n in enumerate((n0, n1))]
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return LabeledSample(points=np.vstack(blocks), labels=labels)


def row_groups(pts: np.ndarray) -> np.ndarray:
    """Each row's group: the smallest index of an equal row (-0.0 == 0.0, NaN rows unequal)."""
    n = pts.shape[0]
    order = np.lexsort(pts.T[::-1])
    starts = np.ones(n, dtype=bool)
    np.any(pts[order[1:]] != pts[order[:-1]], axis=1, out=starts[1:])
    own_rep = np.empty(n, dtype=np.int64)
    own_rep[order] = order[starts][np.cumsum(starts) - 1]
    return own_rep


# CSV format: UTF-8 (a leading byte-order mark is skipped), header line, comma
# separator, RFC 4180 quoting, '.' decimal point, blank lines skipped; save_csv
# writes through serialize.csv_text, and a labeled file's header names are
# unique once stripped (_check_header, for reading and for writing).

def read_text(path) -> str:
    """A file's UTF-8 text, a leading byte-order mark skipped; other bytes raise DatasetError."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8").removeprefix("\ufeff")  # errors give file offsets
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8 text ({exc})") from None


def _read_csv(path):
    """Header (stripped cell names) and (line, cells) data records of a CSV file.

    Each record's line is the physical line it ends on, so a quoted line
    break inside a cell moves every later number along with the file.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    records = [(reader.line_num, row) for row in reader]
    if not records:
        raise DatasetError(f"{path}: empty file")
    return [h.strip() for h in records[0][1]], records[1:]


def _parse_columns(path, header, records, columns, label_idx=None) -> np.ndarray:
    """Parse the given columns of every data row as floats; other cells are never read.

    Rows with no cells (blank lines) are skipped. Every parsed cell must be
    finite, and the label_idx cell, when given, must also be 0 or 1. Each row
    reports its first bad cell in column order, by its line in the file.
    """
    values = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise DatasetError(
                f"{path}:{lineno}: ragged row with {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for i in columns:
            try:
                value = float(row[i])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: non-numeric cell {row[i]!r} in column {header[i]!r}"
                ) from None
            if i == label_idx and value not in (0.0, 1.0):
                raise DatasetError(f"{path}:{lineno}: label {row[i]!r} is not 0 or 1")
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}:{lineno}: non-finite cell {row[i]!r} in column {header[i]!r}"
                )
            parsed.append(value)
        values.append(parsed)
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return np.asarray(values, dtype=np.float64)


def _check_header(path, names) -> None:
    """Raise DatasetError, naming path, if a name repeats as load_csv reads it (stripped)."""
    for name, count in Counter(str(h).strip() for h in names).items():
        if count > 1:
            raise DatasetError(f"{path}: column name {name!r} appears {count} times in the header")


def load_csv(path, label_column="label") -> LabeledSample:
    """Load a labeled sample from CSV. `label_column` is the label column's header name."""
    header, records = _read_csv(path)
    _check_header(path, header)
    if label_column not in header:
        raise DatasetError(f"{path}: no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if not feature_names:
        raise DatasetError(f"{path}: no feature columns besides the label")

    table = _parse_columns(path, header, records, range(len(header)), label_idx)
    pts = np.delete(table, label_idx, axis=1)
    n_dup = np.count_nonzero(row_groups(pts) != np.arange(pts.shape[0]))
    if n_dup:
        # Duplicates are permitted, but they create zero-length tie edges in
        # downstream spanning trees; the tie rule keeps results deterministic.
        warnings.warn(
            f"{path}: {n_dup} duplicate feature rows detected",
            stacklevel=2,
        )
    return LabeledSample(points=pts, labels=table[:, label_idx].astype(np.int64),
                         feature_names=feature_names)


def load_points_csv(path, drop_column=None, like=None) -> np.ndarray:
    """Load an unlabeled point matrix from CSV, optionally dropping one named column.

    like=(other, names): the kept columns must pair with the feature columns
    of the file other, whose names are given (None for a column paired by
    position). There must be as many; a header that names any of them must
    name exactly those, in that order, and one that names none of them pairs
    by position. Either error names both files. A header that names a
    column twice is refused, as load_csv refuses it.
    """
    header, records = _read_csv(path)
    _check_header(path, header)
    keep = [i for i, h in enumerate(header) if h != drop_column]
    if not keep:
        raise DatasetError(f"{path}: no feature columns left after dropping {drop_column!r}")
    pts = _parse_columns(path, header, records, keep)
    if like is not None:
        other, names = like
        kept, names = [header[i] for i in keep], list(names)
        if len(kept) != len(names):
            raise DatasetError(
                f"{path} has {len(kept)} feature columns but {other} has {len(names)}")
        if set(kept) & set(names) and kept != names:
            raise DatasetError(f"{path} has feature columns {kept} but {other} has {names}; "
                               "name the same columns in the same order, or none of them")
    return pts


def save_csv(sample: LabeledSample, path, label_column="label") -> None:
    """Write a labeled sample as CSV with 17-significant-digit coordinates.

    A header that load_csv would refuse, one whose names (label_column
    included) repeat once stripped as load_csv reads them back, raises
    DatasetError before anything is written.
    """
    header = (*(sample.feature_names or (f"x{i}" for i in range(sample.d))), label_column)
    _check_header(path, header)
    rows = ((*row, label) for row, label in zip(sample.points, sample.labels))
    atomic_write_text(path, csv_text(header, rows))
