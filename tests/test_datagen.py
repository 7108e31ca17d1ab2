"""Synthetic data, partitioning, noise, and CSV round-trip tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from metafl import datagen
from metafl.datagen import (
    ClientDataset,
    ConfigError,
    PartitionConfig,
    inject_label_noise,
    label_distribution,
    load_csv,
    make_blobs,
    partition_dirichlet,
)
from metafl.models import ModelSpec, TrainConfig, evaluate, init_params, train_local
from metafl.numerics import make_rng
from testkit import blob_blocks, pooled, reference_blobs, reference_partition, save_csv


def outcome(make, *args):
    """What a dataset maker (a generator or a CSV reader) gives for args:
    its features' shape and its arrays' bytes, or its error's type and
    message."""
    try:
        data = make(*args)
    except Exception as err:
        return type(err), str(err)
    return data.features.shape, data.features.tobytes(), data.labels.tobytes()


@st.composite
def csv_files(draw):
    """(text, num_classes): a well-formed pool of random float64 features,
    written with %.17g or repr, labels as integers or floats, random blank
    lines, LF or CRLF endings."""
    n, d, c = draw(st.integers(1, 20)), draw(st.integers(1, 5)), draw(st.integers(2, 4))
    fmt = draw(st.sampled_from(["%.17g".__mod__, repr]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(n):
        cells = [fmt(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                                min_size=d, max_size=d))]
        label = draw(st.integers(0, c - 1))
        cells.append(draw(st.sampled_from([str(label), repr(float(label))])))
        lines += [""] * draw(st.integers(0, 2)) + [",".join(cells)]
    return newline.join(lines) + draw(st.sampled_from(["", newline])), c


#: Files the one-call parse rejects or must not accept silently, each with
#: what the row-by-row reader gives for it with 3 classes: its features, or
#: its error message.
ODD_FILES = {
    "whitespace_line": ("1,2,0\n   \n3,4,1\n", "row 2: ragged row with 1 cells, expected 3"),
    "quoted_cell": ('"1.5",2,0\n', [[1.5, 2.0]]),
    "underscore": ("1_0,2,1\n", [[10.0, 2.0]]),
    "bom": ("\ufeff1,2,0\n", "row 1: non-numeric cell '\\ufeff1' in column 0"),
    "trailing_comma": ("1,2,0,\n", "row 1: non-numeric cell '' in column 3"),
    "nan_cell": ("1,2,0\nnan,2,1\n", "row 2: non-finite cell"),
    "inf_cell": ("1,inf,0\n", "row 1: non-finite cell"),
    "non_integer_label": ("1,2,0\n1,2,0.5\n", "row 2: non-integer label 0.5"),
    "label_out_of_range": ("1,2,3\n", "row 1: label 3 out of range [0, 3)"),
    "negative_label": ("1,2,-1\n", "row 1: label -1 out of range [0, 3)"),
    "ragged_row": ("1,2,0\n1,0\n", "row 2: ragged row with 2 cells, expected 3"),
    "one_column": ("1\n2\n", "row 1: need >= 1 feature and a label"),
    "single_row": ("0.5,-2,2\n", [[0.5, -2.0]]),
    "spaces_around_cells": (" 1 , 2 ,0\r\n", [[1.0, 2.0]]),
    "hash_in_cell": ("1,2#x,0\n", "row 1: non-numeric cell '2#x' in column 1"),
    "empty": ("", "empty dataset"),
    "blank_lines_only": ("\n\r\n\n", "empty dataset"),
}


def split_outcome(partition, labels, cfg):
    """What a partition gives: each client's train and val positions as
    bytes, or its error's type and message."""
    try:
        train, val = partition(labels, cfg)
    except ValueError as err:
        return type(err), str(err)
    return [rows.tobytes() for rows in train], [rows.tobytes() for rows in val]


def sorted_rows(data: ClientDataset) -> np.ndarray:
    rows = np.column_stack([data.features, data.labels.astype(np.float64)])
    return rows[np.lexsort(rows.T[::-1])]


class TestMakeBlobs:
    def test_label_balance(self):
        data = make_blobs(2, 3, 100, 0.5, 0)
        counts = np.bincount(data.labels)
        np.testing.assert_array_equal(counts, [50, 50])

    def test_balance_within_one(self):
        data = make_blobs(3, 2, 100, 0.5, 1)
        counts = np.bincount(data.labels)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = make_blobs(3, 4, 50, 0.8, 42)
        b = make_blobs(3, 4, 50, 0.8, 42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tight_spread_is_linearly_separable(self):
        data = make_blobs(3, 4, 300, 0.01, 7)
        spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=3)
        params = train_local(
            spec, init_params(spec, 0), data,
            TrainConfig(learning_rate=0.5, epochs=10, seed=1),
        )
        assert evaluate(spec, params, data).val_accuracy >= 0.99

    @settings(max_examples=150, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        dim=st.integers(1, 6),
        extra=st.integers(0, 80),
        spread=st.floats(1e-300, 1.7e308),
        seed=st.integers(0, 2**32),
        block_rows=st.one_of(st.just(None), st.integers(1, 40)),
    )
    def test_equals_reference_sum(self, num_classes, dim, extra, spread, seed, block_rows):
        # the noise scaled and shifted in place is centroids[labels] + spread * noise,
        # bit for bit, drawn in one block or in blocks of block_rows rows, and an
        # overflow fails both with one message
        args = num_classes, dim, num_classes + extra, spread, seed
        with blob_blocks(dim, block_rows):
            assert outcome(make_blobs, *args) == outcome(reference_blobs, *args)

    @settings(max_examples=100, deadline=None)
    @given(
        num_classes=st.integers(2, 5),
        dim=st.integers(1, 4),
        extra=st.integers(0, 200),
        spread=st.one_of(st.just(0.7), st.floats(1e-300, 1.7e308)),
        block_rows=st.one_of(st.just(None), st.integers(1, 40)),
        seed=st.integers(0, 2**32),
        perm_seed=st.integers(0, 2**32),
    )
    def test_order_equals_pool_subset(self, num_classes, dim, extra, spread, block_rows, seed,
                                      perm_seed):
        """With order, the result is the pool's rows in the order's
        permutation, bit for bit and read-only, with the order reading the
        pool's labels; an overflow fails as the pool's does."""
        n = num_classes + extra
        args = num_classes, dim, n, spread, seed
        perm = make_rng(perm_seed).permutation(n)
        pool_labels = reference_blobs(num_classes, dim, n, 0.7, seed).labels  # spread moves no label

        def order(labels):
            assert labels.tobytes() == pool_labels.tobytes()
            return perm

        try:
            want = reference_blobs(*args).subset(perm)
        except ValueError as err:
            with blob_blocks(dim, block_rows), pytest.raises(ValueError) as got:
                make_blobs(*args, order)
            assert str(got.value) == str(err)
            return
        with blob_blocks(dim, block_rows):
            data = make_blobs(*args, order)
        assert data.features.shape == want.features.shape
        assert data.features.tobytes() == want.features.tobytes()
        assert data.labels.tobytes() == want.labels.tobytes()
        assert not data.features.flags.writeable and not data.labels.flags.writeable

    def test_errors(self):
        with pytest.raises(ValueError, match="num_classes"):
            make_blobs(1, 2, 10, 0.5, 0)
        with pytest.raises(ValueError, match="per class"):
            make_blobs(5, 2, 3, 0.5, 0)


class TestPartitionDirichlet:
    def test_conserves_multiset(self):
        data = make_blobs(3, 2, 200, 0.8, 3)
        train, val = partition_dirichlet(data.labels, PartitionConfig(num_clients=5, seed=9))
        merged = data.subset(np.concatenate(train + val))
        assert merged.n == data.n
        np.testing.assert_array_equal(sorted_rows(merged), sorted_rows(data))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 120),
        num_clients=st.integers(1, 12),
        num_classes=st.integers(1, 5),
        beta=st.floats(0.05, 100.0),
        val_fraction=st.floats(0.05, 0.95),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    def test_places_each_sample_exactly_once(self, n, num_clients, num_classes, beta, val_fraction, seeds):
        # the splits are positions in labels, so they must hold every one once
        labels = make_rng(seeds[0]).integers(0, num_classes, n)
        cfg = PartitionConfig(num_clients, beta, val_fraction, seed=seeds[1])
        try:
            train, val = partition_dirichlet(labels, cfg)
        except ValueError as err:
            # n < K, or no draw gave every client a train and a val sample
            if not str(err).startswith(("infeasible", "retry exhaustion")):
                raise
            reject()
        assert len(train) == len(val) == num_clients
        assert all(rows.size >= 1 for rows in train + val)
        np.testing.assert_array_equal(np.sort(np.concatenate(train + val)), np.arange(n))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 200),
        num_clients=st.integers(1, 40),
        num_classes=st.integers(1, 6),
        beta=st.floats(0.01, 100.0),
        val_fraction=st.floats(0.05, 0.95),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    def test_equals_reference_partition(self, n, num_clients, num_classes, beta, val_fraction,
                                        seeds):
        # the stable sort by client gives the per-client extend order, and
        # every draw keeps its place, retries and failures included
        labels = make_rng(seeds[0]).integers(0, num_classes, n)
        cfg = PartitionConfig(num_clients, beta, val_fraction, seed=seeds[1])
        assert split_outcome(partition_dirichlet, labels, cfg) == split_outcome(
            reference_partition, labels, cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 8])
    def test_retried_draws_equal_reference(self, monkeypatch, seed):
        # 8 clients on 60 samples of 3 classes at beta 0.3: each of these
        # seeds leaves some client short at the first attempt
        draws = []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def dirichlet(self, *args):
                draws.append(1)
                return self.rng.dirichlet(*args)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(datagen, "make_rng", lambda s: CountingRng(make_rng(s)))
        labels = make_rng(1).integers(0, 3, 60)
        cfg = PartitionConfig(num_clients=8, dirichlet_beta=0.3, val_fraction=0.3, seed=seed)
        got = split_outcome(partition_dirichlet, labels, cfg)
        assert len(draws) > 3  # one dirichlet draw per class and attempt
        assert got == split_outcome(reference_partition, labels, cfg)

    def test_sample_counts_add_up(self):
        data = make_blobs(2, 2, 150, 0.8, 4)
        train, val = partition_dirichlet(data.labels, PartitionConfig(num_clients=4, seed=2))
        assert sum(t.size + v.size for t, v in zip(train, val)) == data.n

    def test_high_beta_is_nearly_iid(self):
        data = make_blobs(2, 2, 4000, 0.8, 11)
        global_share = label_distribution(pooled([data]), 2)[0, 1]
        cfg = PartitionConfig(num_clients=4, dirichlet_beta=1e6, seed=5)
        train, val = partition_dirichlet(data.labels, cfg)
        merged = [data.subset(np.concatenate(pair)) for pair in zip(train, val)]
        for share in label_distribution(pooled(merged), 2)[:, 1]:
            assert abs(share - global_share) <= 0.05

    def test_no_empty_splits_across_seeds(self):
        data = make_blobs(2, 2, 60, 0.8, 1)
        for seed in range(10):
            cfg = PartitionConfig(num_clients=5, dirichlet_beta=0.3, seed=seed)
            train, val = partition_dirichlet(data.labels, cfg)
            assert all(t.size >= 1 and v.size >= 1 for t, v in zip(train, val))

    def test_infeasible(self):
        data = make_blobs(2, 2, 4, 0.5, 0)
        with pytest.raises(ValueError, match="infeasible"):
            partition_dirichlet(data.labels, PartitionConfig(num_clients=5))

    def test_beta_controls_skew(self):
        # smaller beta concentrates labels: lower mean per-client entropy
        data = make_blobs(2, 2, 1000, 0.8, 2)

        def mean_entropy(beta, seed):
            cfg = PartitionConfig(num_clients=5, dirichlet_beta=beta, seed=seed)
            train, _ = partition_dirichlet(data.labels, cfg)
            ents = []
            for p in label_distribution(pooled([data.subset(rows) for rows in train]), 2):
                nz = p[p > 0]
                ents.append(float(-(nz * np.log(nz)).sum()))
            return float(np.mean(ents))

        skewed = np.mean([mean_entropy(0.05, s) for s in range(20)])
        iid = np.mean([mean_entropy(100.0, s) for s in range(20)])
        assert skewed < iid

    def test_deterministic(self):
        data = make_blobs(3, 2, 120, 0.8, 6)
        cfg = PartitionConfig(num_clients=3, dirichlet_beta=0.5, seed=8)
        a = partition_dirichlet(data.labels, cfg)
        b = partition_dirichlet(data.labels, cfg)
        for side_a, side_b in zip(a, b):
            for rows_a, rows_b in zip(side_a, side_b):
                np.testing.assert_array_equal(rows_a, rows_b)


class TestInjectLabelNoise:
    def test_zero_rate_identity(self):
        labels = make_blobs(2, 2, 30, 0.5, 0).labels
        np.testing.assert_array_equal(inject_label_noise(labels, 0.0, 1, num_classes=2), labels)

    def test_exact_flip_count(self):
        labels = make_blobs(2, 2, 10, 0.5, 0).labels
        out = inject_label_noise(labels, 0.5, 3, num_classes=2)
        assert int(np.sum(out != labels)) == 5

    def test_flips_always_change_class(self):
        labels = make_blobs(4, 2, 200, 0.5, 1).labels
        out = inject_label_noise(labels, 0.9, 7, num_classes=4)
        changed = out != labels
        assert int(changed.sum()) == 180
        assert np.all(out[changed] != labels[changed])
        assert out.max() < 4 and out.min() >= 0

    def test_reproducible(self):
        labels = make_blobs(3, 2, 50, 0.5, 2).labels
        a = inject_label_noise(labels, 0.3, 11, num_classes=3)
        b = inject_label_noise(labels, 0.3, 11, num_classes=3)
        np.testing.assert_array_equal(a, b)
        c = inject_label_noise(labels, 0.3, 12, num_classes=3)
        assert np.any(a != c)


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2.0,0\n-0.25,3.5,1\n")
        data = load_csv(str(path), 2)
        np.testing.assert_array_equal(data.features, [[1.5, 2.0], [-0.25, 3.5]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_hands_over_read_only_arrays(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2.0,0\n-0.25,3.5,1\n")
        data = load_csv(str(path), 2)
        for array in (data.features, data.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_label_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,2\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(path), 2)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ValueError, match="row 2.*ragged"):
            load_csv(str(path), 2)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,abc,0\n")
        with pytest.raises(ValueError, match="row 1.*non-numeric"):
            load_csv(str(path), 2)

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        for bad_row in ("1.0,nan,1", "inf,2.0,1", "1.0,2.0,-inf"):
            path.write_text(f"1.0,2.0,0\n{bad_row}\n")
            with pytest.raises(ValueError, match="row 2: non-finite cell"):
                load_csv(str(path), 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing file"):
            load_csv(str(tmp_path / "nope.csv"), 2)

    @settings(max_examples=150, deadline=None)
    @given(pool=csv_files())
    def test_equals_row_reader(self, tmp_path_factory, pool):
        text, num_classes = pool
        path = tmp_path_factory.getbasetemp() / "pool.csv"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(load_csv, str(path), num_classes)
        assert len(got) == 3  # loaded
        assert got == outcome(datagen._read_csv, str(path), num_classes)

    @pytest.mark.parametrize("name", ODD_FILES)
    def test_odd_file_equals_row_reader(self, tmp_path, name):
        text, want = ODD_FILES[name]
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(load_csv, str(path), 3)
        assert caught == []  # numpy warns on a file with no data
        assert got == outcome(datagen._read_csv, str(path), 3)
        if isinstance(want, str):
            assert got == (ConfigError, want)
        else:
            assert got[1] == np.array(want).tobytes()

    def test_well_formed_file_parses_in_one_call(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("row-by-row reader called")

        monkeypatch.setattr(datagen, "_read_csv", refuse)
        path = tmp_path / "d.csv"
        path.write_text("1.5,2.0,0\n\n-0.25,3.5,1\n")
        data = load_csv(str(path), 2)
        np.testing.assert_array_equal(data.features, [[1.5, 2.0], [-0.25, 3.5]])
        np.testing.assert_array_equal(data.labels, [0, 1])

    def test_round_trip(self, tmp_path):
        data = make_blobs(3, 4, 40, 0.9, 13)
        path = tmp_path / "rt.csv"
        save_csv(data, str(path))
        back = load_csv(str(path), 3)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)


class TestLabelDistribution:
    def test_balanced(self):
        data = ClientDataset([[0.0]] * 4, [0, 0, 1, 1])
        np.testing.assert_array_equal(label_distribution(pooled([data]), 2), [[0.5, 0.5]])

    def test_single_class(self):
        data = ClientDataset([[0.0]] * 3, [1, 1, 1])
        np.testing.assert_array_equal(label_distribution(pooled([data]), 3), [[0.0, 1.0, 0.0]])

    def test_counting(self):
        # one row per client, each over that client's segment alone
        a = ClientDataset([[0.0]] * 4, [0, 0, 0, 1])
        b = ClientDataset([[0.0]] * 2, [2, 1])
        np.testing.assert_array_equal(
            label_distribution(pooled([a, b, a]), 3),
            [[0.75, 0.25, 0.0], [0.0, 0.5, 0.5], [0.75, 0.25, 0.0]],
        )


class TestClientDataset:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ClientDataset(np.zeros((0, 2)), [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ClientDataset([[np.nan]], [0])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            ClientDataset([[1.0], [2.0]], [0])

    def test_subset_is_read_only(self):
        part = make_blobs(2, 2, 20, 0.5, 3).subset(np.array([4, 1, 1]))
        for array in (part.features, part.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_keeps_its_own_copy(self):
        features, labels = np.ones((3, 2)), np.array([0, 1, 0])
        data = ClientDataset(features, labels)
        features[0, 0], labels[0] = 7.0, 1
        assert data.features[0, 0] == 1.0 and data.labels[0] == 0
