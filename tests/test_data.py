import struct

import numpy as np
import pytest

from myhpo.data import (
    BadMagic,
    CountMismatch,
    EmptySelection,
    InfeasibleSplit,
    InvalidClassPair,
    NonNumericCell,
    ParseError,
    RawTable,
    SplitSpec,
    SyntheticSpec,
    TruncatedFile,
    load_csv,
    load_idx,
    make_classification,
    split,
    synthesize,
)


def write_idx_images(path, images):
    """images: uint8 array (count, rows, cols)."""
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        img = tmp_path / "img"
        lab = tmp_path / "lab"
        with open(img, "wb") as fh:
            fh.write(bytes([0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2]))
            fh.write(bytes([0, 128, 255, 64]))
        write_idx_labels(lab, [7])
        table = load_idx(img, lab)
        assert table.features.shape == (1, 4)
        assert np.array_equal(table.features[0], [0.0, 128 / 255, 1.0, 64 / 255])
        assert table.targets[0] == 7.0

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        write_idx_labels(tmp_path / "lab", labels)
        table = load_idx(tmp_path / "img", tmp_path / "lab")
        expected = images.reshape(5, 12).astype(float) / 255.0
        assert np.array_equal(table.features, expected)
        assert np.array_equal(table.targets, labels.astype(float))

    def test_wrong_magic(self, tmp_path):
        # an images file offered as labels carries the wrong magic
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
        write_idx_images(tmp_path / "img", images)
        write_idx_images(tmp_path / "img2", images)
        with pytest.raises(BadMagic):
            load_idx(tmp_path / "img", tmp_path / "img2")

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        write_idx_images(tmp_path / "img", rng.integers(0, 256, (2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", [1, 2, 3])
        with pytest.raises(CountMismatch):
            load_idx(tmp_path / "img", tmp_path / "lab")

    def test_truncated_payload(self, tmp_path):
        # one case per file: the image payload, then the label payload
        write_idx_images(tmp_path / "img", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", [0, 1])
        for name, kind, size in (("img", "pixel", 8), ("lab", "label", 2)):
            path = tmp_path / name
            intact = path.read_bytes()
            path.write_bytes(intact[:-1])
            with pytest.raises(TruncatedFile, match=f"{size - 1} {kind} bytes, expected {size}"):
                load_idx(tmp_path / "img", tmp_path / "lab")
            path.write_bytes(intact)

    def test_truncated_header(self, tmp_path):
        with open(tmp_path / "img", "wb") as fh:
            fh.write(bytes([0, 0, 8]))
        write_idx_labels(tmp_path / "lab", [0])
        with pytest.raises(TruncatedFile):
            load_idx(tmp_path / "img", tmp_path / "lab")


class TestCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        table = load_csv(p, "y")
        assert np.array_equal(table.features, [[1, 2], [4, 5], [7, 8]])
        assert np.array_equal(table.targets, [3, 6, 9])

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        with pytest.raises(ParseError):
            load_csv(p, "y")

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\nabc,4\n5,6\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(p, "y")
        assert "row 3" in str(err.value)
        assert "'a'" in str(err.value)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3\n4,5\n")
        with pytest.raises(ParseError):
            load_csv(p, "y")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(p, "y")


class TestClassification:
    def test_mapping_preserves_order(self):
        table = RawTable(np.arange(8).reshape(4, 2), [0.0, 1.0, 2.0, 0.0])
        out = make_classification(table, 0, 1)
        assert np.array_equal(out.targets, [1.0, -1.0, 1.0])
        assert np.array_equal(out.features, [[0, 1], [2, 3], [6, 7]])

    def test_empty_selection(self):
        table = RawTable(np.zeros((3, 1)), [5.0, 5.0, 5.0])
        with pytest.raises(EmptySelection):
            make_classification(table, 0, 1)

    def test_identical_classes_rejected(self):
        table = RawTable(np.zeros((3, 1)), [0.0, 1.0, 2.0])
        with pytest.raises(InvalidClassPair):
            make_classification(table, 1, 1)


class TestSplit:
    def test_cookie_proportions(self):
        rng = np.random.default_rng(0)
        table = RawTable(rng.standard_normal((68, 3)), rng.standard_normal(68))
        tr, va, te = split(table, SplitSpec(train_fraction=0.5, val_fraction=0.25, seed=1))
        assert (tr.n, va.n, te.n) == (34, 17, 17)
        assert (tr.role, va.role, te.role) == ("train", "validation", "test")

    def test_partition_is_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(1)
        table = RawTable(np.arange(40, dtype=float).reshape(20, 2), rng.standard_normal(20))
        tr, va, te = split(table, SplitSpec(seed=3))
        seen = np.concatenate([tr.X[:, 0], va.X[:, 0], te.X[:, 0]])
        assert sorted(seen.tolist()) == sorted(table.features[:, 0].tolist())

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        table = RawTable(rng.standard_normal((30, 2)), rng.standard_normal(30))
        a = split(table, SplitSpec(seed=9))
        b = split(table, SplitSpec(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.X, y.X)
        c = split(table, SplitSpec(seed=10))
        assert not np.array_equal(a[0].X, c[0].X)

    def test_explicit_counts_may_leave_rows_unused(self):
        rng = np.random.default_rng(3)
        table = RawTable(rng.standard_normal((50, 2)), rng.standard_normal(50))
        tr, va, te = split(table, SplitSpec(counts=(20, 10, 10), seed=0))
        assert (tr.n, va.n, te.n) == (20, 10, 10)

    def test_infeasible_counts(self):
        rng = np.random.default_rng(4)
        table = RawTable(rng.standard_normal((10, 2)), rng.standard_normal(10))
        with pytest.raises(InfeasibleSplit):
            split(table, SplitSpec(counts=(8, 2, 1), seed=0))
        with pytest.raises(InfeasibleSplit):
            split(table, SplitSpec(counts=(8, 2, 0), seed=0))

    def test_stratified_balances_classes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 2))
        y = np.array([1.0, -1.0] * 20)
        table = RawTable(x, y)
        tr, va, te = split(table, SplitSpec(counts=(20, 10, 10), seed=7, stratified=True))
        for part in (tr, va, te):
            assert int(np.sum(part.y == 1.0)) == part.n // 2

    @pytest.mark.parametrize("counts", [(3, 3, 4), (1, 1, 1)])
    def test_stratified_splits_never_exhaust_a_class(self, counts):
        # a balanced 10-row table; each split gets its proportional share of
        # each class to within one row, each run of leading splits to within
        # half a row, and no row is used twice
        x = np.arange(10, dtype=float)[:, None]
        table = RawTable(x, np.array([1.0, -1.0] * 5))
        parts = split(table, SplitSpec(counts=counts, seed=0, stratified=True))
        assert tuple(part.n for part in parts) == counts
        positives = np.array([np.sum(part.y == 1.0) for part in parts])
        assert np.all(np.abs(positives - np.array(counts) / 2) < 1)
        assert np.all(np.abs(np.cumsum(positives) - np.cumsum(counts) / 2) <= 0.5)
        rows = np.concatenate([part.X[:, 0] for part in parts])
        assert len(np.unique(rows)) == len(rows)

    def test_stratified_requires_binary_labels(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 2))
        # real-valued, one class only (each way), and a third label
        for y in (rng.standard_normal(12), np.ones(12), -np.ones(12),
                  np.array([1.0, -1.0] * 5 + [0.0, 1.0])):
            with pytest.raises(InfeasibleSplit, match="-1/\\+1 labels"):
                split(RawTable(x, y), SplitSpec(seed=0, stratified=True))


class TestSynthesize:
    def test_kappa_one_gives_unit_condition(self):
        table = synthesize(SyntheticSpec(n=20, d=8, kappa=1.0, seed=0))
        assert abs(np.linalg.cond(table.features) - 1.0) <= 1e-10

    def test_condition_number_matches_target(self):
        table = synthesize(SyntheticSpec(n=80, d=50, kappa=1e4, noise_std=0.0, seed=1))
        assert abs(np.linalg.cond(table.features) - 1e4) / 1e4 <= 0.01

    def test_spectrum_matches_requested_decay(self):
        spec = SyntheticSpec(n=30, d=10, kappa=100.0, seed=2)
        table = synthesize(spec)
        sv = np.linalg.svd(table.features, compute_uv=False)
        expected = 100.0 ** (-np.arange(10) / 9.0)
        assert np.allclose(sv, expected, atol=1e-10)

    def test_zero_noise_targets_in_column_space(self):
        table = synthesize(SyntheticSpec(n=25, d=5, kappa=10.0, noise_std=0.0, seed=3))
        w, *_ = np.linalg.lstsq(table.features, table.targets, rcond=None)
        assert np.linalg.norm(table.features @ w - table.targets) <= 1e-9

    def test_deterministic_per_seed(self):
        a = synthesize(SyntheticSpec(n=10, d=4, kappa=5.0, noise_std=0.1, seed=11))
        b = synthesize(SyntheticSpec(n=10, d=4, kappa=5.0, noise_std=0.1, seed=11))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_rejects_rank_deficient_request(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, d=8)
        with pytest.raises(ValueError, match="d must be at least 1"):
            SyntheticSpec(n=4, d=0)

    def test_one_feature(self):
        table = synthesize(SyntheticSpec(n=6, d=1, kappa=1e4, noise_std=0.0, seed=0))
        assert np.allclose(np.linalg.svd(table.features, compute_uv=False), [1.0])


class TestRawTable:
    def test_rejects_nan(self):
        x = np.zeros((3, 2))
        x[1, 1] = np.inf
        with pytest.raises(ValueError):
            RawTable(x, np.zeros(3))

    @pytest.mark.parametrize("features, targets, message", [
        (np.zeros(3), np.zeros(3), "features must be 2-d"),
        (np.zeros((3, 2)), np.zeros((3, 1)), "targets 1-d"),
        (np.zeros((3, 2)), np.zeros(2), "feature rows and target entries differ"),
    ], ids=["1-d-features", "2-d-targets", "row-mismatch"])
    def test_rejects_bad_shapes(self, features, targets, message):
        with pytest.raises(ValueError, match=message):
            RawTable(features, targets)

    def test_tables_too_small_to_split_are_caught_at_split_time(self):
        rng = np.random.default_rng(0)
        table = RawTable(rng.standard_normal((2, 2)), rng.standard_normal(2))
        with pytest.raises(InfeasibleSplit):
            split(table, SplitSpec(seed=0))
