"""CSV ingestion, label remapping, and seeded label sampling."""

import csv

import numpy as np
import pytest

from ssdbcodi import Dataset, LabelSet, OUTLIER, dataset, load_csv, minmax_scale, sample_labels
from oracles import load_csv_by_cells


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_remaps_labels_in_first_appearance_order(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,label\n0,a\n1,o\n2,a\n3,b\n")
    ds = load_csv(p)
    assert ds.n == 4 and ds.d == 1
    assert ds.truth.tolist() == [0, OUTLIER, 0, 1]
    assert ds.name == "d"


def test_load_csv_single_row(tmp_path):
    p = write_csv(tmp_path / "one.csv", "x,label\n5,a\n")
    ds = load_csv(p)
    assert ds.n == 1 and ds.d == 1
    assert ds.truth.tolist() == [0]


def test_load_csv_label_column_anywhere(tmp_path):
    p = write_csv(tmp_path / "d.csv", "label,x,y\nb,1,2\na,3,4\n")
    ds = load_csv(p)
    assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert ds.truth.tolist() == [0, 1]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a BOM, here before the label column
    text = "label,x,y\nb,1,2\no,3,4\na,5,6\n"
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain = load_csv(write_csv(tmp_path / "plain" / "d.csv", text))
    bom = load_csv(write_csv(tmp_path / "bom" / "d.csv", "\ufeff" + text))
    assert (tmp_path / "bom" / "d.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
    assert bom.points.tobytes() == plain.points.tobytes()
    assert bom.truth.tolist() == plain.truth.tolist() == [0, OUTLIER, 1]
    assert (bom.name, bom.d) == (plain.name, plain.d) == ("d", 2)


def test_load_csv_custom_sentinel_and_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,cls\n0,anom\n1,n\n")
    ds = load_csv(p, label_column="cls", outlier_sentinel="anom")
    assert ds.truth.tolist() == [OUTLIER, 0]


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_empty_file(tmp_path):
    p = write_csv(tmp_path / "e.csv", "")
    with pytest.raises(ValueError, match="empty"):
        load_csv(p)


def test_load_csv_header_only(tmp_path):
    p = write_csv(tmp_path / "h.csv", "x,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p)


def test_load_csv_duplicate_header(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,x,label\n1,2,a\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(p)


def test_load_csv_missing_label_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,y\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(p)


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,y,label\n1,2,a\n3,oops,b\n")
    with pytest.raises(ValueError, match=r"row 3.*'y'"):
        load_csv(p)


def test_load_csv_rejects_non_finite(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,label\ninf,a\n")
    with pytest.raises(ValueError, match="finite"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", "x,y,label\n1,2,a\n3,b\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p)


def test_remapping_preserves_comemberships(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(20):
        raw = rng.choice(["u", "v", "w", "o"], size=12)
        text = "x,label\n" + "".join(f"{i},{raw[i]}\n" for i in range(12))
        ds = load_csv(write_csv(tmp_path / "r.csv", text))
        for i in range(12):
            for j in range(12):
                assert (raw[i] == raw[j]) == (ds.truth[i] == ds.truth[j])


def test_dataset_validation():
    with pytest.raises(ValueError, match="finite"):
        Dataset(points=[[np.nan]], truth=[0])
    with pytest.raises(ValueError, match="contiguous"):
        Dataset(points=[[0.0], [1.0]], truth=[0, 2])
    with pytest.raises(ValueError, match="one assignment"):
        Dataset(points=[[0.0], [1.0]], truth=[0])
    ds = Dataset(points=[[0.0], [1.0]], truth=[OUTLIER, 0])
    assert ds.n_clusters == 1 and int((ds.truth == OUTLIER).sum()) == 1


def test_dataset_refuses_truth_it_would_cast():
    points = [[0.0], [1.0], [2.0]]
    for truth in ([0.5, 1.7, 0.2], [True, False, True], [0.0, 1.0, 0.0], ["0", "1", "0"]):
        with pytest.raises(ValueError, match="truth must be a 1-D sequence of integers"):
            Dataset(points=points, truth=truth)
    with pytest.raises(ValueError, match="one assignment per point"):
        Dataset(points=points, truth=[0, 0])
    ds = Dataset(points=points, truth=np.array([0, 1, -1], dtype=np.int32))
    assert ds.truth.tolist() == [0, 1, OUTLIER] and not ds.truth.flags.writeable


def test_labelset_refuses_indices_and_ids_it_would_cast():
    for normal, outliers, field in (({0.7: 1}, [], "normal indices"),
                                    ({0: 1.9}, [], "normal cluster ids"),
                                    ({0: 1}, [2.5], "outliers"),
                                    ({True: 0}, [], "normal indices"),
                                    ({0: False}, [], "normal cluster ids"),
                                    ({0: 0}, [np.True_], "outliers"),
                                    ({np.float64(1.0): 0}, [], "normal indices")):
        with pytest.raises(ValueError, match=f"LabelSet {field} must be integers"):
            LabelSet(normal=normal, outliers=frozenset(outliers))
    ls = LabelSet(normal={np.int64(3): np.int32(1)}, outliers=[np.int16(5)])
    assert ls.normal == {3: 1} and ls.outliers == {5}
    assert all(type(v) is int for v in [*ls.normal, *ls.normal.values(), *ls.outliers])


def test_labelset_validation():
    with pytest.raises(ValueError, match="disjoint|both"):
        LabelSet(normal={1: 0}, outliers=frozenset([1]))
    with pytest.raises(ValueError, match=">= 0"):
        LabelSet(normal={1: -1}, outliers=frozenset())
    ls = LabelSet(normal={3: 1, 1: 0}, outliers=frozenset([5]))
    assert ls.indices == [1, 3, 5]
    assert len(ls) == 3


def test_sample_labels_count_and_determinism():
    ds = Dataset(points=np.arange(100, dtype=float).reshape(-1, 1),
                 truth=np.zeros(100, dtype=int))
    a = sample_labels(ds, 0.1, seed=42)
    b = sample_labels(ds, 0.1, seed=42)
    assert len(a) == 10
    assert a == b
    c = sample_labels(ds, 0.1, seed=43)
    assert isinstance(c, LabelSet)


def test_sample_labels_full_fraction_splits_by_truth():
    truth = np.array([OUTLIER] * 5 + [0] * 15)
    ds = Dataset(points=np.arange(20, dtype=float).reshape(-1, 1), truth=truth)
    ls = sample_labels(ds, 1.0, seed=0)
    assert len(ls.normal) == 15
    assert len(ls.outliers) == 5


def test_sample_labels_rounding_is_half_up():
    ds = Dataset(points=np.arange(25, dtype=float).reshape(-1, 1),
                 truth=np.zeros(25, dtype=int))
    # 0.1 * 25 = 2.5 rounds up to 3
    assert len(sample_labels(ds, 0.1, seed=1)) == 3


def test_sample_labels_errors():
    ds = Dataset(points=np.arange(3, dtype=float).reshape(-1, 1),
                 truth=np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="fraction"):
        sample_labels(ds, 0.0, seed=0)
    with pytest.raises(ValueError, match="fraction"):
        sample_labels(ds, 1.5, seed=0)
    with pytest.raises(ValueError, match="zero labels"):
        sample_labels(ds, 0.1, seed=0)


def test_sample_labels_stratified_covers_every_cluster():
    rng = np.random.default_rng(3)
    truth = np.array([0] * 40 + [1] * 5 + [2] * 3 + [OUTLIER] * 2)
    pts = rng.normal(size=(truth.size, 2))
    ds = Dataset(points=pts, truth=truth)
    for seed in range(10):
        ls = sample_labels(ds, 0.1, seed=seed, stratified=True)
        assert set(ls.normal.values()) == {0, 1, 2}
        assert len(ls) == 5


def test_minmax_scale():
    ds = Dataset(points=[[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]], truth=[0, 0, 0])
    scaled = minmax_scale(ds)
    assert scaled.points[:, 0].tolist() == [0.0, 1.0, 0.5]
    assert scaled.points[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert scaled.truth.tolist() == ds.truth.tolist()


def test_minmax_scale_of_a_span_beyond_the_largest_float():
    # the first column's span, 2e308, overflows although every value is finite;
    # the others keep the bits of (x - lo) / span, subnormals included
    points = np.array([[-1e308, 0.0, 3.0], [0.0, 5e-324, 7.0], [1e308, 0.0, 4.0]])
    scaled = minmax_scale(Dataset(points=points, truth=[0, 0, 0])).points
    assert scaled[:, 0].tolist() == [0.0, 0.5, 1.0]
    rest = points[:, 1:]
    lo, hi = rest.min(axis=0), rest.max(axis=0)
    assert scaled[:, 1:].tobytes() == ((rest - lo) / (hi - lo)).tobytes()
    assert scaled[:, 1].tolist() == [0.0, 1.0, 0.0]


NUMBER_FORMATS = (repr, "{:e}".format, "{:.25g}".format, "{:.40g}".format, "{:.3f}".format,
                  lambda v: str(round(v)))
# cells float() and numpy's parser might read differently: underscores and
# non-ASCII digits (float() only), \x1c-\x1f (whitespace to numpy only), NUL,
# non-finite and overflowing values, signs, and cells neither reads
ODD_CELLS = ("1_0", "\u0661\u0662", "\uff13", "inf", "-nan", "Infinity", "1e400", "-0", "+.5",
             "5.", "", " ", "x", "0x1", "1,5", "\x1c1", "1\x1f", "1\x00", "1\ufeff")
# whitespace to both, some of it a line break to str.splitlines but not to csv
SPACES = (" ", "\t", "\xa0", "\u2000", "\x0b", "\x0c", "\x85", "\u2028")
LABELS = ("a", "b", "o", "o ", " a", "é", "", "a\x0bb", "a\x85b", "a\u2028b", "c;d")
LINE_ENDS = ("\n", "\r\n", "\r")


def random_csv(rng) -> bytes:
    """A small CSV file: a header with `label` first, last or among the
    features, then up to five rows whose cells, quoting, widths, blank lines,
    line ends, byte-order mark and bytes are drawn to reach every way in
    which csv with float() and numpy's parser could read a file apart."""
    dim = int(rng.integers(1, 4))
    names = [f"f{j}" for j in range(dim)]
    pos = int(rng.integers(0, dim + 1))
    header = names[:pos] + ["label"] + names[pos:]
    quoting = rng.random()  # below 0.05 every cell is quoted, below 0.1 one cell a row
    lines = [",".join(f'"{c}"' for c in header) if quoting < 0.05 else ",".join(header)]
    for _ in range([0, 1, int(rng.integers(2, 6))][int(rng.integers(3))]):
        cells = []
        for _ in range(dim):
            value = float(rng.normal() * 10.0 ** rng.integers(-8, 9))
            cell = NUMBER_FORMATS[int(rng.integers(len(NUMBER_FORMATS)))](value)
            if rng.random() < 0.03:
                cell = ODD_CELLS[int(rng.integers(len(ODD_CELLS)))]
            if rng.random() < 0.1:
                cell = SPACES[int(rng.integers(len(SPACES)))] + cell
            if rng.random() < 0.1:
                cell += SPACES[int(rng.integers(len(SPACES)))]
            cells.append(cell)
        cells.insert(pos, LABELS[int(rng.integers(len(LABELS)))])
        if rng.random() < 0.03:  # a ragged row
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        if quoting < 0.05:
            cells = [f'"{c}"' for c in cells]
        elif quoting < 0.1:
            j = int(rng.integers(len(cells)))
            cells[j] = '"' + cells[j].replace('"', '""') + ('\n"' if rng.random() < 0.3 else '"')
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")  # a blank line
    ends = [LINE_ENDS[int(rng.integers(3))] for _ in lines]
    if rng.random() < 0.2:
        ends[-1] = ""
    data = ("\ufeff" if rng.random() < 0.2 else "") + "".join(map(str.__add__, lines, ends))
    data = data.encode("utf-8")
    if rng.random() < 0.02:  # an undecodable byte
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


def load_outcome(load, path):
    """What load makes of path: the dataset's bytes, or the error's type and text."""
    try:
        ds = load(path)
    except (ValueError, csv.Error) as e:
        return type(e), str(e)
    return ds.points.tobytes(), ds.points.shape, ds.truth.tolist(), ds.name


def test_load_csv_matches_the_cell_loop(tmp_path, monkeypatch):
    # random small files, plus a single data row, files that are only a
    # header (one of them with blank lines after it) and quoted cells. Every
    # file loads to the same bytes, or fails with the same error text, as by
    # csv and float() on every cell; numpy's parser reads some of them, and
    # declines the others. A header-only file never reaches np.loadtxt, whose
    # empty-input warning fails this test
    real, routes = dataset._rows_by_numpy, []

    def recording(*args):
        got = real(*args)
        routes.append(got is not None)
        return got

    monkeypatch.setattr(dataset, "_rows_by_numpy", recording)
    fixed = [b"x,label\n5,a\n", b"x,label\n", b"x,label", b"x,label\r\n\r\n\n\r",
             b'x,y,label\n"1",2,a\n3,"4",b\n', b"label,x\r\na,1\r\n\r\nb,2\r\n"]
    rng = np.random.default_rng(113)
    for case in range(600):
        data = fixed[case] if case < len(fixed) else random_csv(rng)
        (tmp_path / str(case)).mkdir()
        path = tmp_path / str(case) / "d.csv"
        path.write_bytes(data)
        assert load_outcome(load_csv, path) == load_outcome(load_csv_by_cells, path), (case, data)
    assert routes.count(True) > 200 and routes.count(False) > 100, routes.count(True)
