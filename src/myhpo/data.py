"""Data ingestion, label mapping, splits, and the ill-conditioned generator.

Loaders produce a ``RawTable`` (features + targets, provenance string);
``split`` turns a table into train/validation/test ``Dataset`` objects by
a seeded shuffle followed by contiguous slicing. ``synthesize`` builds a
least-squares problem whose design matrix has an exactly prescribed
condition number, used by the stability experiments.

Features are never standardized here beyond the fixed pixel scaling of
the IDX loader; loss evaluation stays referentially transparent.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import Dataset


class BadMagic(ValueError):
    """An IDX file does not start with the expected magic number."""


class TruncatedFile(ValueError):
    """An IDX file is shorter than its header promises."""


class CountMismatch(ValueError):
    """Image and label files disagree on the sample count."""


class ParseError(ValueError):
    """A CSV file is structurally invalid."""


class NonNumericCell(ParseError):
    """A CSV cell could not be parsed as a number."""


class EmptySelection(ValueError):
    """A class filter matched no rows."""


class InvalidClassPair(ValueError):
    """The two class labels are identical."""


class InfeasibleSplit(ValueError):
    """Requested split sizes cannot be carved out of the table."""


class ZeroVariance(ValueError):
    """Targets are constant, so variance normalization is undefined."""


@dataclass
class RawTable:
    features: np.ndarray
    targets: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2 or self.targets.ndim != 1:
            raise ValueError("features must be 2-d and targets 1-d")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("feature rows and target entries differ")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("table contains NaN or Inf entries")
        # a 3-way split needs at least 3 rows; split() enforces feasibility
        # so that tiny fixture tables can still be loaded and inspected

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_be32(blob: bytes, offset: int, path) -> int:
    if len(blob) < offset + 4:
        raise TruncatedFile(f"{path}: header cut short at byte {offset}")
    return struct.unpack_from(">I", blob, offset)[0]


def _read_idx(path, magic: int, n_dims: int) -> tuple[list[int], np.ndarray]:
    """The checked header dimensions and the unsigned-byte payload of an IDX file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    found = _read_be32(blob, 0, path)
    if found != magic:
        raise BadMagic(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    dims = [_read_be32(blob, 4 * i, path) for i in range(1, 1 + n_dims)]
    size = math.prod(dims)
    payload = blob[4 * (1 + n_dims):]
    if len(payload) < size:
        kind = "pixel" if n_dims > 1 else "label"
        raise TruncatedFile(f"{path}: {len(payload)} {kind} bytes, expected {size}")
    return dims, np.frombuffer(payload[:size], dtype=np.uint8)


def load_idx(images_path, labels_path) -> RawTable:
    """Parse a big-endian IDX image/label file pair.

    Images: magic 0x00000803, then count, rows, cols, then unsigned-byte
    pixels in row-major order, scaled to [0, 1] by division by 255.
    Labels: magic 0x00000801, then count, then unsigned-byte labels.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    features = pixels.reshape(count, rows * cols).astype(float) / 255.0
    (label_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if label_count != count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    return RawTable(features, labels.astype(float), source=f"idx:{images_path}")


def load_csv(path, target_column: str) -> RawTable:
    """Numeric CSV with a mandatory header row; the named column is the target."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if target_column not in header:
            raise ParseError(f"{path}: no column named {target_column!r} in header")
        target_idx = header.index(target_column)
        feature_cols = [i for i in range(len(header)) if i != target_idx]
        feats, targets = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            values = []
            for col_idx, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise NonNumericCell(
                        f"{path}: row {row_no}, column {header[col_idx]!r}: {cell!r}"
                    ) from None
            feats.append([values[i] for i in feature_cols])
            targets.append(values[target_idx])
    return RawTable(np.array(feats, dtype=float), np.array(targets, dtype=float),
                    source=f"csv:{path}")


def make_classification(table: RawTable, class_a, class_b) -> RawTable:
    """Keep rows of two classes, mapping class_a to +1 and class_b to -1."""
    if class_a == class_b:
        raise InvalidClassPair(f"class_a and class_b are both {class_a!r}")
    mask_a = table.targets == class_a
    mask_b = table.targets == class_b
    keep = mask_a | mask_b
    if not np.any(keep):
        raise EmptySelection(f"no rows with target {class_a!r} or {class_b!r}")
    y = np.where(mask_a[keep], 1.0, -1.0)
    return RawTable(table.features[keep], y,
                    source=f"{table.source}|classes({class_a},{class_b})")


@dataclass
class SplitSpec:
    """Three-way partition: fractions for train/validation (test gets the
    rest) or explicit per-split counts that may leave rows unused."""

    train_fraction: float = 0.5
    val_fraction: float = 0.25
    counts: tuple[int, int, int] | None = None
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if self.counts is None:
            if not (0 < self.train_fraction < 1 and 0 < self.val_fraction < 1):
                raise ValueError("fractions must lie in (0, 1)")
            if self.train_fraction + self.val_fraction >= 1:
                raise ValueError("train and validation fractions must sum below 1")


def _split_counts(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    if spec.counts is not None:
        counts = tuple(int(c) for c in spec.counts)
    else:
        n_tr = int(n * spec.train_fraction)
        n_val = int(n * spec.val_fraction)
        counts = (n_tr, n_val, n - n_tr - n_val)
    if min(counts) < 1:
        raise InfeasibleSplit(f"split sizes {counts} include an empty split")
    if sum(counts) > n:
        raise InfeasibleSplit(f"split sizes {counts} exceed {n} rows")
    return counts


def _stratified_indices(y: np.ndarray, counts, rng) -> tuple[np.ndarray, ...]:
    classes = np.unique(y)
    if set(classes) != {-1.0, 1.0}:
        raise InfeasibleSplit("stratified splits require -1/+1 labels")
    n = len(y)
    pools = {c: rng.permutation(np.flatnonzero(y == c)) for c in classes}
    offsets = {c: 0 for c in classes}
    parts = []
    for count in counts:
        # proportional per-class quota, leftovers assigned in class order
        quota = {c: count * len(pools[c]) // n for c in classes}
        short = count - sum(quota.values())
        for c in classes:
            if short == 0:
                break
            if offsets[c] + quota[c] < len(pools[c]):
                quota[c] += 1
                short -= 1
        if short != 0:
            raise InfeasibleSplit(f"cannot place {count} stratified rows")
        picked = []
        for c in classes:
            if offsets[c] + quota[c] > len(pools[c]):
                raise InfeasibleSplit(f"class {c:+.0f} exhausted while stratifying")
            picked.append(pools[c][offsets[c]: offsets[c] + quota[c]])
            offsets[c] += quota[c]
        parts.append(np.sort(np.concatenate(picked)))
    return tuple(parts)


def split(table: RawTable, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle then contiguous slicing into train/validation/test."""
    counts = _split_counts(table.n, spec)
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        idx_tr, idx_val, idx_te = _stratified_indices(table.targets, counts, rng)
    else:
        perm = rng.permutation(table.n)
        idx_tr = perm[: counts[0]]
        idx_val = perm[counts[0]: counts[0] + counts[1]]
        idx_te = perm[counts[0] + counts[1]: sum(counts)]
    return (
        Dataset(table.features[idx_tr], table.targets[idx_tr], "train"),
        Dataset(table.features[idx_val], table.targets[idx_val], "validation"),
        Dataset(table.features[idx_te], table.targets[idx_te], "test"),
    )


@dataclass
class SyntheticSpec:
    """Least-squares problem with a prescribed design-matrix spectrum.

    Singular values decay geometrically from 1 to 1/kappa, so the
    condition number of the generated matrix is exactly kappa.
    """

    n: int
    d: int
    kappa: float = 1e4
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < self.d:
            raise ValueError("need n >= d for a full-rank design")
        if self.kappa < 1:
            raise ValueError("kappa must be at least 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


def synthesize(spec: SyntheticSpec) -> RawTable:
    """X = U diag(sv) V^T with random orthonormal factors; y = X w* + noise."""
    rng = np.random.default_rng(spec.seed)
    u = np.linalg.qr(rng.standard_normal((spec.n, spec.d)))[0]
    v = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))[0]
    if spec.d == 1:
        sv = np.ones(1)
    else:
        sv = spec.kappa ** (-np.arange(spec.d) / (spec.d - 1))
    x = (u * sv) @ v.T
    w_star = rng.standard_normal(spec.d)
    y = x @ w_star + spec.noise_std * rng.standard_normal(spec.n)
    return RawTable(
        x, y,
        source=f"synthetic(n={spec.n},d={spec.d},kappa={spec.kappa:g},"
               f"noise={spec.noise_std:g},seed={spec.seed})",
    )
