"""Synthetic cluster tasks and CSV round trips."""

import numpy as np
import pytest

import adasamp.data as data
from adasamp import Dataset, accuracy, load_csv, save_csv, synth_data
from adasamp.data import _smallest_k
from oracles import naive_synth_data


def test_same_seed_is_bit_identical():
    a = synth_data(300, 4, 2, 0.6, 0.05, seed=9)
    b = synth_data(300, 4, 2, 0.6, 0.05, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synth_data(300, 4, 2, 0.6, 0.05, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_noise_flips_exactly_round_n_noise_labels():
    clean = synth_data(1000, 3, 2, 0.5, 0.0, seed=1)
    noisy = synth_data(1000, 3, 2, 0.5, 0.1, seed=1)
    assert np.array_equal(clean.features, noisy.features)
    assert int((clean.labels != noisy.labels).sum()) == 100
    assert int((clean.labels != synth_data(1000, 3, 2, 0.5, 0.033, seed=1).labels).sum()) == 33


def test_imbalance_controls_class_counts():
    # class 0 share = 1/C + imbalance * (1 - 1/C) = 0.8
    ds = synth_data(10, 2, 2, 0.6, 0.0, seed=2)
    assert list(np.bincount(ds.labels)) == [8, 2]
    balanced = synth_data(10, 2, 2, 0.0, 0.0, seed=2)
    assert list(np.bincount(balanced.labels)) == [5, 5]


def test_every_class_stays_populated():
    ds = synth_data(7, 5, 3, 0.9, 0.0, seed=3)
    assert np.bincount(ds.labels, minlength=3).min() >= 1


def test_clean_well_separated_task_is_linearly_separable():
    ds = synth_data(200, 3, 2, 0.3, 0.0, seed=4, separation=12.0)
    h = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert accuracy(h, ds) == 1.0


def test_flipped_points_resist_the_separator():
    ds = synth_data(200, 3, 2, 0.3, 0.1, seed=4, separation=12.0)
    h = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert accuracy(h, ds) == pytest.approx(0.9, abs=0.005)


def test_multiclass_means_need_enough_dims():
    with pytest.raises(ValueError):
        synth_data(30, 2, 3, 0.5, 0.0, seed=5)
    ds = synth_data(30, 4, 3, 0.5, 0.0, seed=5)
    assert ds.num_classes == 3
    assert set(map(int, np.unique(ds.labels))) == {0, 1, 2}


def test_synth_argument_validation():
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 1.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 0.5, -0.1, seed=0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 1, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_data(1, 2, 2, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_data(100, 0, 2, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_data(100, 2, 2, 0.5, 0.0, seed=0, separation=0.0)


def test_csv_round_trip_is_exact(tmp_path):
    ds = synth_data(50, 3, 2, 0.6, 0.1, seed=6)
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


def test_load_csv_accepts_the_largest_exact_label(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("label,f1\n0,1.0\n9007199254740991,2.0\n")  # 2**53 - 1
    assert load_csv(path).labels.tolist() == [0, 2**53 - 1]


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
    ds = synth_data(40, 3, 2, 0.5, 0.0, seed=7)
    assert ds.feature_radius == np.linalg.norm(ds.features, axis=1).max()
    assert isinstance(ds, Dataset)


def test_synth_data_replays_the_first_written_generator_bitwise(monkeypatch):
    # small distance blocks, so several blocks and a ragged last one are hit
    monkeypatch.setattr(data, "_D2_ROWS", 37)
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


def test_smallest_picks_the_stable_sort_prefix_under_ties():
    rng = np.random.default_rng(32)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        values = rng.integers(-3, 4, size=size) * rng.choice([0.5, -0.0, 0.0], size=size)
        k = int(rng.integers(1, size + 1))
        expect = np.sort(np.argsort(values, kind="stable")[:k])
        assert np.array_equal(_smallest_k(values, k), expect)
