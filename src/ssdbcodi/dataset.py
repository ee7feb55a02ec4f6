"""Dataset ingestion and seeded semi-supervised label sampling."""

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Ground-truth sentinel for outliers; cluster ids are always >= 0.
OUTLIER = -1


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves going up (not banker's rounding)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d feature matrix plus one ground-truth assignment per row.

    truth[i] is a cluster id in 0..K-1 or OUTLIER. Cluster ids must form a
    contiguous range, which load_csv guarantees by remapping raw labels in
    first-appearance order. `_indexes` is build_index's memo, one index per
    min_pts; every new Dataset starts with it empty.
    """

    points: np.ndarray
    truth: np.ndarray
    name: str = "dataset"
    _indexes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ValueError("points must be a matrix with n >= 1 rows and d >= 1 columns")
        if not np.all(np.isfinite(points)):
            raise ValueError("all feature values must be finite")
        truth = np.array(int_vector(self.truth, "truth"))
        if truth.shape != (points.shape[0],):
            raise ValueError("truth must hold exactly one assignment per point")
        if truth.min() < OUTLIER:
            raise ValueError("truth entries must be cluster ids >= 0 or OUTLIER")
        clusters = np.unique(truth[truth != OUTLIER])
        if clusters.size and not np.array_equal(clusters, np.arange(clusters.size)):
            raise ValueError("cluster ids must form a contiguous range 0..K-1")
        points.flags.writeable = False
        truth.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "truth", truth)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_clusters(self) -> int:
        mask = self.truth != OUTLIER
        return int(self.truth[mask].max() + 1) if mask.any() else 0


@dataclass(frozen=True)
class LabelSet:
    """User-visible labels: cluster ids for normal points plus labeled outliers."""

    normal: dict
    outliers: frozenset

    def __post_init__(self):
        normal, outliers = dict(self.normal), frozenset(self.outliers)
        for name, values in (("normal indices", normal), ("normal cluster ids", normal.values()),
                             ("outliers", outliers)):
            if not all(is_int(v) for v in values):
                raise ValueError(f"LabelSet {name} must be integers, not floats or booleans")
        normal = {int(i): int(c) for i, c in normal.items()}
        outliers = frozenset(int(i) for i in outliers)
        if any(c < 0 for c in normal.values()):
            raise ValueError("normal labels must be cluster ids >= 0")
        if set(normal) & outliers:
            raise ValueError("a point cannot be labeled both normal and outlier")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "outliers", outliers)

    def __len__(self) -> int:
        return len(self.normal) + len(self.outliers)

    @property
    def indices(self) -> list:
        """All labeled point indices, ascending."""
        return sorted(set(self.normal) | self.outliers)

    def validate_for(self, n: int) -> None:
        if len(self) == 0:
            raise ValueError("at least one labeled point is required")
        bad = [i for i in self.indices if not 0 <= i < n]
        if bad:
            raise ValueError(f"label indices out of range for n={n}: {bad[:5]}")


def is_int(value) -> bool:
    """True for Python and numpy integers; floats and booleans are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def int_vector(values, name: str) -> np.ndarray:
    """values as a 1-D int array; floats, booleans and other shapes are
    refused, not cast (an empty sequence is fine)."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must be a 1-D sequence of integers")
    return arr.astype(int, copy=False)


def point_indices(values, n: int, name: str) -> np.ndarray:
    """values as an int_vector of indices in [0, n)."""
    arr = int_vector(values, name)
    if arr.size and not 0 <= arr.min() <= arr.max() < n:
        raise IndexError(f"{name} must lie in [0, {n - 1}]")
    return arr


def load_csv(path, label_column: str = "label", outlier_sentinel: str = "o") -> Dataset:
    """Load a dataset from a UTF-8 CSV file, BOM or not, with a header row.

    Every column except label_column is parsed as a real-valued feature.
    Rows whose label cell equals outlier_sentinel become OUTLIER; the
    remaining distinct labels are remapped to 0..K-1 in first-appearance
    order. numpy's parser reads the rows when _rows_by_numpy finds that it
    reads them as csv and float() do; otherwise, and for every error, csv
    and float() read them cell by cell.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise ValueError(f"{path}: duplicate header columns {dupes}")
        if label_column not in header:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        label_pos = header.index(label_column)
        feature_cols = [(i, name) for i, name in enumerate(header) if i != label_pos]
        if not feature_cols:
            raise ValueError(f"{path}: no feature columns besides {label_column!r}")

        parsed = _rows_by_numpy(fh, len(header), label_pos)
        if parsed is None:
            fh.seek(0)
            next(reader)  # the header again
            rows = []
            raw_labels = []
            for lineno, cells in enumerate(reader, start=2):
                if not cells:
                    continue  # tolerate blank lines
                if len(cells) != len(header):
                    raise ValueError(
                        f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}"
                    )
                feats = []
                for i, name in feature_cols:
                    try:
                        value = float(cells[i])
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {name!r}: {cells[i]!r} is not numeric"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(
                            f"{path}: row {lineno}, column {name!r}: value must be finite"
                        )
                    feats.append(value)
                rows.append(feats)
                raw_labels.append(cells[label_pos])
            if not rows:
                raise ValueError(f"{path}: no data rows")
            parsed = np.array(rows, dtype=float), raw_labels

    points, raw_labels = parsed
    mapping = {}
    truth = []
    for raw in raw_labels:
        if raw == outlier_sentinel:
            truth.append(OUTLIER)
        else:
            mapping.setdefault(raw, len(mapping))
            truth.append(mapping[raw])
    return Dataset(points=points, truth=np.array(truth, dtype=int), name=path.stem)


def _rows_by_numpy(fh, width: int, label_pos: int):
    """The features (by one np.loadtxt) and raw labels of fh's remaining
    rows of `width` cells, or None where numpy might read them otherwise
    than csv and float() do. Rows break where csv's do, at \r\n, \r or \n,
    and blank lines are skipped. Declined: a quote (csv's quoting), a NUL
    (which csv refuses on Python 3.10), \x1c to \x1f (whitespace to numpy
    but not to float()), an undecodable byte, a line longer than csv's field
    limit, a row of another width, no data row (loadtxt would warn), a
    numpy error and a non-finite value.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError:
        return None
    lines = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line]
    if (not lines or any(c in text for c in '"\0\x1c\x1d\x1e\x1f')
            or max(map(len, lines)) > csv.field_size_limit()
            or any(line.count(",") != width - 1 for line in lines)):
        return None
    try:
        points = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=[i for i in range(width) if i != label_pos])
    except ValueError:
        return None
    if not np.isfinite(points).all():
        return None
    # the label is the (width - label_pos)-th cell from a row's end
    return points, [line.rsplit(",", width - label_pos)[label_pos - width] for line in lines]


def sample_labels(ds: Dataset, fraction: float, seed: int, stratified: bool = False) -> LabelSet:
    """Reveal the ground truth of round(fraction * n) points drawn without replacement.

    True outliers among the draw go to `outliers`; every other drawn point
    goes to `normal` with its true cluster id. The draw is uniform and
    fully determined by `seed`. With stratified=True every true cluster is
    guaranteed at least one labeled point.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    count = round_half_up(fraction * ds.n)
    if count < 1:
        raise ValueError(f"fraction {fraction} rounds to zero labels for n={ds.n}")
    rng = np.random.default_rng(seed)
    if stratified:
        chosen = _stratified_choice(ds, count, rng)
    else:
        chosen = rng.choice(ds.n, size=count, replace=False)
    normal = {}
    outliers = set()
    for i in sorted(int(v) for v in chosen):
        if ds.truth[i] == OUTLIER:
            outliers.add(i)
        else:
            normal[i] = int(ds.truth[i])
    return LabelSet(normal=normal, outliers=frozenset(outliers))


def _stratified_choice(ds: Dataset, count: int, rng) -> np.ndarray:
    k = ds.n_clusters
    if count < k:
        raise ValueError(f"stratified sampling needs at least {k} labels, got {count}")
    anchors = []
    for c in range(k):
        members = np.flatnonzero(ds.truth == c)
        anchors.append(int(rng.choice(members)))
    pool = np.setdiff1d(np.arange(ds.n), np.array(anchors, dtype=int))
    extra = rng.choice(pool, size=count - k, replace=False) if count > k else np.array([], dtype=int)
    return np.concatenate([np.array(anchors, dtype=int), extra.astype(int)])


def minmax_scale(ds: Dataset) -> Dataset:
    """Rescale each feature column to [0, 1]; constant columns become 0. A
    column whose span overflows is scaled through halves of its values; every
    other column is multiplied by 1.0, which keeps its bits."""
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    with np.errstate(over="ignore"):
        half = np.where(np.isinf(hi - lo), 0.5, 1.0)
    lo, hi = lo * half, hi * half
    span = np.where(hi > lo, hi - lo, 1.0)
    return Dataset(points=(ds.points * half - lo) / span, truth=ds.truth, name=ds.name)
