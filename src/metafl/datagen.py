"""Synthetic classification tasks, non-IID client partitioning, and CSV loading.

Every generator is a pure function of its seed. The CSV contract:
comma-separated, '.' decimal, UTF-8, no header row, label as the last
column holding zero-based integers.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .numerics import make_rng

__all__ = [
    "ConfigError",
    "ClientDataset",
    "Segments",
    "PartitionConfig",
    "make_blobs",
    "partition_dirichlet",
    "inject_label_noise",
    "load_csv",
    "label_distribution",
]

MAX_PARTITION_ATTEMPTS = 100

#: Most bytes of one block of make_blobs' noise; draws in blocks of one
#: stream equal one draw, bit for bit.
BLOB_BLOCK_BYTES = 1 << 18


class ConfigError(ValueError):
    """An input that the user chose is invalid: a config value, or a file
    it names. The command-line tool exits with code 2 on it."""


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """Feature matrix plus integer labels for one client (or a pool)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.array(self.features, dtype=np.float64, copy=True)
        y = np.array(self.labels, dtype=np.int64, copy=True).reshape(-1)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain non-finite values")
        if y.shape[0] != x.shape[0]:
            raise ValueError("label count does not match sample count")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative integers")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "ClientDataset":
        """The rows at the integer indices, gathered into a new dataset."""
        return ClientDataset._wrap(self.features[indices], self.labels[indices])

    @classmethod
    def _wrap(cls, features: np.ndarray, labels: np.ndarray) -> "ClientDataset":
        """A dataset over arrays that the caller has checked, or gathered from
        checked ones, and hands over: frozen in place, neither copied nor
        checked again."""
        features.flags.writeable = False
        labels.flags.writeable = False
        data = object.__new__(cls)
        object.__setattr__(data, "features", features)
        object.__setattr__(data, "labels", labels)
        return data


class Segments(NamedTuple):
    """One side (train or val) of every client's split: the clients' rows
    in client order as one dataset, and n [K], each client's row count."""

    data: ClientDataset
    n: np.ndarray

    @property
    def start(self) -> np.ndarray:
        return np.cumsum(self.n) - self.n


@dataclass(frozen=True)
class PartitionConfig:
    """Controls the Dirichlet label-skew split across clients.

    noise_clients and label_noise_rate are carried here for the
    orchestrator; partitioning itself never alters labels.
    """

    num_clients: int
    dirichlet_beta: float = 1.0
    val_fraction: float = 0.2
    noise_clients: frozenset[int] = field(default_factory=frozenset)
    label_noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not np.isfinite(self.dirichlet_beta) or self.dirichlet_beta <= 0.0:
            raise ValueError("dirichlet_beta must be finite and positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if not 0.0 <= self.label_noise_rate < 1.0:
            raise ValueError("label_noise_rate must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        clients = frozenset(int(c) for c in self.noise_clients)
        if any(c < 0 or c >= self.num_clients for c in clients):
            raise ValueError("noise_clients must be a subset of {0..K-1}")
        object.__setattr__(self, "noise_clients", clients)


def make_blobs(
    num_classes: int, dim: int, n: int, spread: float, seed: int,
    order: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ClientDataset:
    """Gaussian class clusters around unit-separated random centroids.

    Centroids are rescaled so the minimum pairwise distance is exactly 1;
    the label multiset is balanced within +-1 and the sample order is a
    seeded shuffle. Features that overflow float64 raise ValueError.

    With order, a function from the pool's labels [n] to a permutation of
    the pool's rows, the result is the pool in that order, bitwise
    pool.subset(order(labels)), and the pool is never held in its drawn
    order: the labels are drawn before any feature, and the noise is drawn
    in blocks of at most BLOB_BLOCK_BYTES of one stream, each block's
    finished rows written straight to their places.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if n < num_classes:
        raise ValueError("need at least one sample per class")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if spread <= 0.0:
        raise ValueError("spread must be positive")
    rng = make_rng(seed)
    while True:
        centroids = rng.normal(size=(num_classes, dim))
        diffs = centroids[:, None, :] - centroids[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        min_dist = dists[np.triu_indices(num_classes, k=1)].min()
        if min_dist > 0.0:
            break
    centroids /= min_dist
    labels = np.arange(n, dtype=np.int64) % num_classes
    labels = labels[rng.permutation(n)]
    rows = np.arange(n) if order is None else order(labels)
    place = np.empty(n, dtype=np.intp)  # each pool row's place in the result
    place[rows] = np.arange(n)
    features = np.empty((n, dim))
    # one item per row: a row scatter then copies whole rows, where a 2-D
    # fancy write steps through every feature
    rows_of = features.view(np.dtype((np.void, 8 * dim)))
    block_rows = max(1, BLOB_BLOCK_BYTES // (8 * dim))
    with np.errstate(over="ignore"):  # an overflow fails the finiteness check below
        for lo in range(0, n, block_rows):
            hi = min(lo + block_rows, n)
            # centroids[labels] + spread * noise, built in the noise's array: a
            # float product and sum commute, so every element keeps its bits
            block = rng.normal(size=(hi - lo, dim))
            block *= spread
            block += centroids[labels[lo:hi]]
            if not np.isfinite(block).all():
                raise ValueError("features contain non-finite values")
            rows_of[place[lo:hi]] = block.view(rows_of.dtype)
    return ClientDataset._wrap(features, labels[rows])


def partition_dirichlet(
    labels: np.ndarray, cfg: PartitionConfig
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a pool, given by its labels, across clients via per-class
    Dirichlet(beta) proportions.

    Each sample lands with exactly one client; per client the samples are
    then split into train/val by val_fraction. Assignments leaving any
    client without at least one train and one val sample are redrawn, up
    to MAX_PARTITION_ATTEMPTS times. Returns (train, val): per client, the
    positions in labels of its train split and of its val split.

    A draw takes, per class, a shuffle of the class's positions and a cut
    of it into K consecutive slices, slice k for client k. Its feasibility
    is read from the slice sizes alone. Client k's rows are its slices in
    class order, found by one stable sort of the concatenated slices by
    client; each client's rows are then shuffled once to split them.
    """
    k = cfg.num_clients
    if labels.size < k:
        raise ValueError(f"infeasible (n < K): {labels.size} samples for {k} clients")
    rng = make_rng(cfg.seed)
    by_class = np.argsort(labels, kind="stable")
    class_sizes = np.unique(labels, return_counts=True)[1]
    class_slices = np.split(by_class, np.cumsum(class_sizes)[:-1])
    for _ in range(MAX_PARTITION_ATTEMPTS):
        shuffled, slice_sizes = [], []
        for idx in class_slices:
            shuffled.append(idx[rng.permutation(idx.size)])
            props = rng.dirichlet(np.full(k, cfg.dirichlet_beta))
            bounds = np.floor(np.cumsum(props) * idx.size).astype(int)
            bounds[-1] = idx.size
            slice_sizes.append(np.diff(bounds, prepend=0))
        counts = np.sum(slice_sizes, axis=0)
        if (counts >= 2).all():
            client = np.repeat(np.tile(np.arange(k), len(slice_sizes)), np.concatenate(slice_sizes))
            rows = np.concatenate(shuffled)[np.argsort(client, kind="stable")]
            train, val = [], []
            for idx in np.split(rows, np.cumsum(counts)[:-1]):
                idx = idx[rng.permutation(idx.size)]
                n_val = int(round(cfg.val_fraction * idx.size))
                n_val = min(max(n_val, 1), idx.size - 1)
                train.append(idx[n_val:])
                val.append(idx[:n_val])
            return train, val
    raise ValueError(
        f"retry exhaustion: no assignment with >=1 train and >=1 val sample "
        f"per client after {MAX_PARTITION_ATTEMPTS} attempts"
    )


def inject_label_noise(labels: np.ndarray, rate: float, seed: int, num_classes: int) -> np.ndarray:
    """A copy of labels with exactly round(rate * n) of them reassigned, each
    to a different one of num_classes classes."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    if num_classes < 2:
        raise ValueError("need at least 2 classes to flip labels")
    count = int(round(rate * labels.size))
    rng = make_rng(seed)
    flip = rng.choice(labels.size, size=count, replace=False)
    labels = labels.copy()
    draws = rng.integers(0, num_classes - 1, size=count)
    old = labels[flip]
    labels[flip] = np.where(draws < old, draws, draws + 1)
    return labels


def load_csv(path: str, num_classes: int) -> ClientDataset:
    """Parse a feature+label CSV file into a ClientDataset.

    A well-formed file is parsed in one call, and the dataset's features
    are a read-only view of the checked table, not a second copy. Raises
    ConfigError for a malformed file; errors carry 1-based file line
    numbers.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file warns; _read_csv words it
            table = np.loadtxt(
                path, delimiter=",", dtype=np.float64, comments=None, ndmin=2, encoding="utf-8"
            )
    except (OSError, ValueError, Warning):
        return _read_csv(path, num_classes)
    labels = table[:, -1]
    if (
        table.shape[1] < 2
        or not np.isfinite(table).all()
        or not (labels == np.trunc(labels)).all()
        or not ((labels >= 0) & (labels < num_classes)).all()
    ):
        return _read_csv(path, num_classes)
    return ClientDataset._wrap(table[:, :-1], labels.astype(np.int64))


def _read_csv(path: str, num_classes: int) -> ClientDataset:
    """load_csv cell by cell: it reads what the one-call parse rejects
    (a quoted cell, '1_0') and words every error with its row."""
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"missing file: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read file {path}: {err.strerror}") from None
    with handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
                if width < 2:
                    raise ConfigError(f"row {line_no}: need >= 1 feature and a label")
            elif len(row) != width:
                raise ConfigError(
                    f"row {line_no}: ragged row with {len(row)} cells, expected {width}"
                )
            values = []
            for col, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ConfigError(
                        f"row {line_no}: non-numeric cell {cell!r} in column {col}"
                    ) from None
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"row {line_no}: non-finite cell")
            label = values[-1]
            if not float(label).is_integer():
                raise ConfigError(f"row {line_no}: non-integer label {label!r}")
            label = int(label)
            if label < 0 or label >= num_classes:
                raise ConfigError(
                    f"row {line_no}: label {label} out of range [0, {num_classes})"
                )
            rows.append(values[:-1])
            labels.append(label)
    if not rows:
        raise ConfigError("empty dataset")
    return ClientDataset(np.asarray(rows), np.asarray(labels))


def label_distribution(side: Segments, num_classes: int) -> np.ndarray:
    """Each client's empirical class proportions, [K, num_classes]; rows sum to 1."""
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if np.any(side.data.labels >= num_classes):
        raise ValueError("label out of range for num_classes")
    cell = np.repeat(np.arange(len(side.n)), side.n) * num_classes + side.data.labels
    counts = np.bincount(cell, minlength=len(side.n) * num_classes).reshape(-1, num_classes)
    return counts / counts.sum(axis=1, keepdims=True)
