"""Synthetic cluster tasks and CSV round trips."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

import adasamp.data as data
import adasamp.model as model
from adasamp import Dataset, load_csv, save_csv, synth_data
from adasamp.data import _smallest_k, synth_arrays
from oracles import naive_feature_radius, naive_synth_data


def test_same_seed_is_bit_identical():
    a = synth_data(300, 4, 2, 0.6, 0.05, seed=9, separation=4.0)
    b = synth_data(300, 4, 2, 0.6, 0.05, seed=9, separation=4.0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synth_data(300, 4, 2, 0.6, 0.05, seed=10, separation=4.0)
    assert not np.array_equal(a.features, c.features)


def test_noise_flips_exactly_round_n_noise_labels():
    clean = synth_data(1000, 3, 2, 0.5, 0.0, seed=1, separation=4.0)
    noisy = synth_data(1000, 3, 2, 0.5, 0.1, seed=1, separation=4.0)
    assert np.array_equal(clean.features, noisy.features)
    assert int((clean.labels != noisy.labels).sum()) == 100
    light = synth_data(1000, 3, 2, 0.5, 0.033, seed=1, separation=4.0)
    assert int((clean.labels != light.labels).sum()) == 33


def test_imbalance_controls_class_counts():
    # class 0 share = 1/C + imbalance * (1 - 1/C) = 0.8
    ds = synth_data(10, 2, 2, 0.6, 0.0, seed=2, separation=4.0)
    assert list(np.bincount(ds.labels)) == [8, 2]
    balanced = synth_data(10, 2, 2, 0.0, 0.0, seed=2, separation=4.0)
    assert list(np.bincount(balanced.labels)) == [5, 5]


def test_every_class_stays_populated():
    ds = synth_data(7, 5, 3, 0.9, 0.0, seed=3, separation=4.0)
    assert np.bincount(ds.labels, minlength=3).min() >= 1


def test_clean_well_separated_task_is_linearly_separable():
    ds = synth_data(200, 3, 2, 0.3, 0.0, seed=4, separation=12.0)
    h = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert model._risk_and_accuracy(h, ds, 1.0)[1] == 1.0


def test_flipped_points_resist_the_separator():
    ds = synth_data(200, 3, 2, 0.3, 0.1, seed=4, separation=12.0)
    h = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert model._risk_and_accuracy(h, ds, 1.0)[1] == pytest.approx(0.9, abs=0.005)


def test_multiclass_means_need_enough_dims():
    with pytest.raises(ValueError):
        synth_data(30, 2, 3, 0.5, 0.0, seed=5, separation=4.0)
    ds = synth_data(30, 4, 3, 0.5, 0.0, seed=5, separation=4.0)
    assert ds.num_classes == 3
    assert set(map(int, np.unique(ds.labels))) == {0, 1, 2}


def test_synth_argument_validation():
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 1.0, 0.0, seed=0, separation=4.0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 0.5, -0.1, seed=0, separation=4.0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 1, 0.5, 0.0, seed=0, separation=4.0)
    with pytest.raises(ValueError):
        synth_data(1, 2, 2, 0.5, 0.0, seed=0, separation=4.0)
    with pytest.raises(ValueError):
        synth_data(100, 0, 2, 0.5, 0.0, seed=0, separation=4.0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 0.5, 0.0, seed=0, separation=0.0)
    # the one default separation is ExperimentConfig's
    for synth in (synth_data, synth_arrays):
        with pytest.raises(TypeError, match="separation"):
            synth(100, 2, 2, 0.5, 0.0, seed=0)


def test_csv_round_trip_is_exact(tmp_path):
    ds = synth_data(50, 3, 2, 0.6, 0.1, seed=6, separation=4.0)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)  # 17 digits round-trip floats
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes


def test_load_csv_three_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("label,f1,f2\n0,1.5,2.5\n1,-0.25,0.125\n0,3,4\n")
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.feature_dim == 2
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.features[1], [-0.25, 0.125])


def test_load_csv_reports_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f1,f2\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_reports_bad_values(tmp_path):
    p1 = tmp_path / "a.csv"
    p1.write_text("label,f1\n0,1.0\nx,2.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(p1)
    p2 = tmp_path / "b.csv"
    p2.write_text("label,f1\n0.5,1.0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(p2)
    p3 = tmp_path / "c.csv"
    p3.write_text("label,f1\n-1,1.0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(p3)


@pytest.mark.parametrize("row, problem", [
    ("inf,1.0", "label"), ("-inf,1.0", "label"), ("nan,1.0", "label"), ("1e300,1.0", "label"),
    ("9007199254740992,1.0", "label"),  # 2**53: the first integer a float cannot tell apart
    ("0,inf", "features must be finite"), ("1,-inf", "features must be finite"),
    ("0,nan", "features must be finite"),
])
def test_load_csv_rejects_non_finite_and_oversized_numbers_naming_the_row(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,f1\n0,1.0\n{row}\n1,2.0\n")
    with pytest.raises(ValueError, match=f"^row 2: {problem}"):
        load_csv(path)


def test_load_csv_rejects_labels_that_skip_a_class(tmp_path):
    path = tmp_path / "gap.csv"
    # (0, 2**53 - 1): the largest exact label would size a hypothesis of 2**53 rows
    for labels, missing in [((0, 2**53 - 1), 1), ((0, 1, 3), 2), ((1, 2), 0),
                            ((0, 2, 2, 5), 1)]:
        path.write_text("label,f1\n" + "".join(f"{c},1.0\n" for c in labels))
        with pytest.raises(ValueError, match=f"^no row has label {missing}: "):
            load_csv(path)
    path.write_text("label,f1\n2,1.0\n0,1.0\n1,1.0\n0,2.0\n")  # any order, repeats
    assert load_csv(path).num_classes == 3


def test_load_csv_skips_blank_lines_and_keeps_counting_them(tmp_path):
    ds = synth_data(30, 3, 2, 0.6, 0.1, seed=8, separation=4.0)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    for text in ("".join(lines) + "\n",  # a trailing blank line
                 "".join(lines[:11]) + "\n" + "".join(lines[11:]),  # one after data row 10
                 "".join(lines[:1]) + "\n\n" + "".join(lines[1:]) + "\n\n"):
        path.write_text(text)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.num_classes == ds.num_classes
    # a row after a blank line is named by its own line below the header
    path.write_text("label,f1,f2\n0,1.0,2.0\n\n1,3.0\n")
    with pytest.raises(ValueError, match="^row 3: expected 3 columns, got 2$"):
        load_csv(path)
    path.write_text("label,f1,f2\n0,1.0,2.0\n,,\n1,3.0,4.0\n")  # only commas is not blank
    with pytest.raises(ValueError, match="^row 2: non-numeric value$"):
        load_csv(path)
    path.write_text("label,f1,f2\n\n\n")
    with pytest.raises(ValueError, match="^no data rows$"):
        load_csv(path)


def test_load_csv_header_and_emptiness_errors(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(p)
    p.write_text("id,f1\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(p)
    p.write_text("label,f1\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p)


def test_dataset_radius_from_synth_matches_rows():
    ds = synth_data(40, 3, 2, 0.5, 0.0, seed=7, separation=4.0)
    assert ds.feature_radius == np.linalg.norm(ds.features, axis=1).max()
    assert isinstance(ds, Dataset)


def test_synth_data_replays_the_first_written_generator_bitwise(monkeypatch):
    # small distance blocks, so several blocks and a ragged last one are hit
    monkeypatch.setattr(model, "_BLOCK_ROWS", 37)
    rng = np.random.default_rng(31)
    for _ in range(120):
        classes = int(rng.integers(2, 5))
        dim = int(rng.integers(classes if classes > 2 else 1, 9))
        n = int(rng.integers(classes, 400))
        noise = float(rng.choice([0.0, 0.01, 0.2, 0.6]))
        args = (n, dim, classes, float(rng.uniform(0, 0.95)), noise, int(rng.integers(2**32)),
                float(rng.choice([0.5, 3.4, 12.0])))
        got, want = synth_data(*args[:6], separation=args[6]), naive_synth_data(*args)
        assert got.features.tobytes() == want.features.tobytes(), args
        assert got.labels.tobytes() == want.labels.tobytes(), args


def test_synth_data_replays_the_first_written_generator_across_blocks_and_dims(monkeypatch):
    # the dims reach every pairwise branch of the column sum
    monkeypatch.setattr(model, "_BLOCK_ROWS", 23)
    rng = np.random.default_rng(33)
    for dim in [1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 140]:
        classes = int(rng.integers(2, min(dim, 9) + 1)) if dim > 2 else 2
        n = int(rng.integers(classes, 120))
        args = (n, dim, classes, float(rng.uniform(0, 0.95)), 0.3, int(rng.integers(2**32)),
                float(rng.choice([0.5, 3.4, 12.0])))
        got, want = synth_data(*args[:6], separation=args[6]), naive_synth_data(*args)
        assert got.features.tobytes() == want.features.tobytes(), args
        assert got.labels.tobytes() == want.labels.tobytes(), args
    for classes in range(2, 10):
        args = (int(rng.integers(classes, 120)), 9, classes, 0.3, 0.4, int(rng.integers(2**32)))
        assert (synth_data(*args, separation=4.0).labels.tobytes()
                == naive_synth_data(*args, separation=4.0).labels.tobytes())


def test_feature_radius_is_the_first_written_formula_bitwise(monkeypatch):
    # several blocks and a ragged last one, at dims across the column sum's branches
    monkeypatch.setattr(model, "_BLOCK_ROWS", 29)
    rng = np.random.default_rng(34)
    for dim in [1, 2, 3, 7, 8, 9, 15, 16, 17, 40, 129, 140]:
        for n in [1, 28, 29, 30, 100, 203]:
            X = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-150, 150, size=(n, 1))
            ds = Dataset.from_arrays(X, np.arange(n) % 2, 2)
            assert np.float64(ds.feature_radius).tobytes() == \
                np.float64(naive_feature_radius(X)).tobytes(), (n, dim)
    assert Dataset.from_arrays(np.zeros((3, 0)), [0, 1, 1]).feature_radius == 0.0


def test_overflowing_feature_radius_is_inf_without_warnings():
    ds = Dataset.from_arrays([[1e200, 0.0], [1.0, 2.0]], [0, 1])
    assert ds.feature_radius == np.inf


def test_separation_whose_squared_distances_overflow_is_rejected_under_label_noise():
    with pytest.raises(ValueError, match="^--separation 1e\\+160 is too large for label noise"):
        synth_data(60, 4, 2, 0.0, 0.1, seed=0, separation=1e160)
    # without label noise no distance is taken, and the features are finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = synth_data(60, 4, 2, 0.0, 0.0, seed=0, separation=1e160)
    assert np.isfinite(far.features).all() and far.feature_radius == np.inf
    with pytest.raises(ValueError, match="separation must be positive"):
        synth_data(60, 4, 2, 0.0, 0.1, seed=0, separation=float("nan"))
    synth_data(60, 4, 2, 0.0, 0.1, seed=0, separation=1e150)  # far but finite


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,dim", [(1, 3), (2, 1), (9, 2), (1000, 1), (1000, 8), (4097, 5)])
def test_shuffling_a_row_view_and_the_labels_makes_the_swaps_of_permutation(n, dim):
    # synth_arrays permutes in place on this: one generator shuffles the rows
    # as void items, a copy of it shuffles the labels
    rng = np.random.default_rng(n * dim)
    X = rng.standard_normal((n, dim))
    y = rng.integers(0, 2**40, size=n)
    reference, twin = copy.deepcopy(rng), copy.deepcopy(rng)
    perm = reference.permutation(n)
    rows, labels = X.copy(), y.copy()
    twin.shuffle(rows.view(np.dtype((np.void, rows.itemsize * dim)))[:, 0])
    rng.shuffle(labels)
    assert rows.tobytes() == X[perm].tobytes()
    assert labels.tobytes() == y[perm].tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert twin.bit_generator.state == reference.bit_generator.state


def test_synth_arrays_holds_less_than_twice_the_features():
    # the permutation is made in place: no second feature array, no index array
    (X, y), peak = _traced_peak(synth_arrays, 200_000, 8, 2, 0.7, 0.05, 3, 4.0)
    assert X.shape == (200_000, 8) and X.flags.c_contiguous
    assert peak < 2 * X.nbytes, peak / X.nbytes


def test_load_csv_holds_less_than_three_times_the_features(tmp_path, monkeypatch):
    # the radius block is cut to the share of the rows it takes in a large file
    monkeypatch.setattr(model, "_BLOCK_ROWS", 256)
    rng = np.random.default_rng(35)
    n = 20_000
    path = tmp_path / "big.csv"
    save_csv(Dataset.from_arrays(rng.standard_normal((n, 8)), np.arange(n) % 3, 3), path)
    load_csv(path)  # imports and caches made on first use are not the file's
    ds, peak = _traced_peak(load_csv, path)
    assert ds.n == n and ds.num_classes == 3
    assert peak < 3 * ds.features.nbytes, peak / ds.features.nbytes


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    ds = synth_data(40, 3, 2, 0.6, 0.1, seed=9, separation=4.0)
    path = tmp_path / "bom.csv"
    save_csv(ds, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_csv(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_reads_across_row_blocks_bitwise(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CSV_ROWS", 7)
    path = tmp_path / "d.csv"
    for n in (2, 6, 7, 8, 14, 50):
        ds = synth_data(n, 3, 2, 0.6, 0.0, seed=n, separation=4.0)
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
    path.write_text("label,f1\n" + "".join(f"{r % 2},{r}\n" for r in range(1, 30)) + "1,nan\n")
    with pytest.raises(ValueError, match="^row 30: features must be finite"):
        load_csv(path)
    path.write_text("label,f1\n" + "".join(f"{r % 2},{r}\n" for r in range(1, 15)) + "2,x\n")
    with pytest.raises(ValueError, match="^row 15: non-numeric value"):
        load_csv(path)


def test_smallest_picks_the_stable_sort_prefix_under_ties():
    rng = np.random.default_rng(32)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        values = rng.integers(-3, 4, size=size) * rng.choice([0.5, -0.0, 0.0], size=size)
        k = int(rng.integers(1, size + 1))
        expect = np.sort(np.argsort(values, kind="stable")[:k])
        assert np.array_equal(_smallest_k(values, k), expect)
