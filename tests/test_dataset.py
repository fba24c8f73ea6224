"""Series containers, labeling, windowing, and the synthetic generator.

The synthetic recurrence is a documented contract: the oracle below rebuilds
the spike-free base and the pulse layer from the recipe in dataset.py and
expects bitwise equality.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecast.config import PipelineConfig
from rarecast.dataset import (
    Normalizer,
    RarityLevel,
    RarityThresholds,
    TimeSeries,
    Windows,
    compute_thresholds,
    label_point,
    label_points,
    load_csv,
    make_windows,
    split_811,
    split_811_lengths,
    synth_base,
    synth_generate,
)
from rarecast.pipeline import min_series_len, prepare_data

THRESH = RarityThresholds(0.22, 0.28, 0.42)


# ---------------------------------------------------------------- TimeSeries


def test_timeseries_validates_shape_and_content():
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TimeSeries(np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.inf]))


def test_timeseries_is_immutable_and_copies_input():
    src = np.array([1.0, 2.0, 3.0])
    ts = TimeSeries(src)
    src[0] = 99.0
    assert ts.values[0] == 1.0
    assert not ts.values.flags.writeable
    with pytest.raises(ValueError):
        ts.values[0] = 0.0
    assert len(ts) == 3


# ----------------------------------------------------------------- load_csv


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("time,value\n0,1.5\n1,2.5\n2,-3.0\n")
    ts = load_csv(p, "value")
    assert ts.name == "value"
    np.testing.assert_array_equal(ts.values, [1.5, 2.5, -3.0])
    # column by position picks up the header name
    ts2 = load_csv(p, 1)
    assert ts2.name == "value"
    np.testing.assert_array_equal(ts2.values, ts.values)


def test_load_csv_gap_raises_instead_of_shifting_timeline(tmp_path):
    # regression: a nan and an empty cell in a 100-row file loaded as 98
    # contiguous values, so every later timestamp shifted
    rows = [f"{t},{0.01 * t!r}" for t in range(100)]
    rows[40] = "40,nan"
    rows[70] = "70,"
    p = tmp_path / "gappy.csv"
    p.write_text("time,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"2 bad rows .*first at line 42"):
        load_csv(p, "value")


def test_load_csv_rejects_bad_rows(tmp_path):
    p = tmp_path / "holes.csv"
    for body, count, line in (
        ("1.0\nnot-a-number\n2.0\n", 1, 3),
        ("1.0\n2.0\n\n3.0\n", 1, 4),
        ("1.0\n2.0\ninf\n-inf\n", 2, 4),
        ("1.0\nnot-a-number\n\n2.0\ninf\n3.0\n", 3, 3),
    ):
        p.write_text("value\n" + body)
        with pytest.raises(ValueError, match=rf"{count} bad rows? .*first at line {line}\b"):
            load_csv(p, "value")


def test_load_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", "value")
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_csv(p, "value")
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not in header"):
        load_csv(p, "value")
    with pytest.raises(ValueError, match="out of range"):
        load_csv(p, 5)
    p.write_text("value\nx\ny\n")
    with pytest.raises(ValueError, match="no valid rows"):
        load_csv(p, "value")


# ---------------------------------------------------------------- split_811


def test_split_811_lengths_and_order():
    ts = TimeSeries(np.arange(103, dtype=np.float64))
    train, val, test = split_811(ts)
    assert (len(train), len(val), len(test)) == (82, 10, 11)
    glued = np.concatenate([train.values, val.values, test.values])
    np.testing.assert_array_equal(glued, ts.values)


def test_split_811_exact_hundred():
    train, val, test = split_811(TimeSeries(np.arange(100, dtype=np.float64)))
    assert (len(train), len(val), len(test)) == (80, 10, 10)


def test_split_811_too_short():
    with pytest.raises(ValueError):
        split_811(TimeSeries(np.arange(9, dtype=np.float64)))


# ------------------------------------------------------- thresholds + labels


def test_compute_thresholds_linear_interpolation_oracle():
    # percentiles of 1..1000 under linear interpolation: 1 + (p/100) * 999
    t = compute_thresholds(np.arange(1.0, 1001.0))
    assert math.isclose(t.t_moderate, 900.1, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(t.t_very, 950.05, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(t.t_extreme, 990.01, rel_tol=0, abs_tol=1e-9)


def test_compute_thresholds_validation():
    with pytest.raises(ValueError):
        compute_thresholds(np.array([]))
    with pytest.raises(ValueError):
        compute_thresholds(np.array([1.0, np.nan] * 60))
    with pytest.warns(UserWarning, match="unstable"):
        compute_thresholds(np.arange(50.0))


def test_rarity_thresholds_must_be_ordered():
    with pytest.raises(ValueError):
        RarityThresholds(2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        RarityThresholds(0.0, 1.0, np.inf)
    assert RarityThresholds(1.0, 1.0, 1.0).as_tuple() == (1.0, 1.0, 1.0)


def test_label_point_boundaries_are_strict():
    # a value exactly on a cut point belongs to the level below
    assert label_point(0.22, THRESH) is RarityLevel.NORMAL
    assert label_point(0.28, THRESH) is RarityLevel.MODERATE
    assert label_point(0.42, THRESH) is RarityLevel.VERY_RARE
    assert label_point(0.4200001, THRESH) is RarityLevel.EXTREME_RARE
    assert label_point(-5.0, THRESH) is RarityLevel.NORMAL


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=64))
def test_label_points_matches_scalar(values):
    arr = np.asarray(values)
    vec = label_points(arr, THRESH)
    assert vec.dtype == np.int64
    for v, lev in zip(arr, vec):
        assert label_point(float(v), THRESH) == lev


def test_rarity_level_ordering():
    assert list(RarityLevel) == [0, 1, 2, 3]
    assert RarityLevel.EXTREME_RARE > RarityLevel.NORMAL


# ------------------------------------------------------------------ windows


def test_make_windows_count_and_content():
    v = np.arange(10, dtype=np.float64)
    wins = make_windows(TimeSeries(v), 4, 2, 1, THRESH)
    assert len(wins) == 5  # floor((10 - 4 - 2) / 1) + 1
    for i in range(len(wins)):
        np.testing.assert_array_equal(wins.histories[i], v[i : i + 4])
        np.testing.assert_array_equal(wins.targets[i], v[i + 4 : i + 6])
        np.testing.assert_array_equal(wins.point_levels[i], label_points(wins.targets[i], THRESH))
        assert wins.window_levels[i] == wins.point_levels[i].max()


def test_make_windows_stride():
    v = np.arange(20, dtype=np.float64)
    wins = make_windows(TimeSeries(v), 4, 2, 3, THRESH)
    assert len(wins) == (20 - 6) // 3 + 1
    assert wins.histories[1, 0] == 3.0


def test_make_windows_errors():
    ts = TimeSeries(np.arange(10, dtype=np.float64))
    with pytest.raises(ValueError):
        make_windows(ts, 8, 4, 1, THRESH)
    with pytest.raises(ValueError):
        make_windows(ts, 4, 2, 0, THRESH)


def test_prepare_data_names_the_short_split_and_the_series_length_it_needs():
    # A 300-point series used to fail in make_windows with "series of length 30
    # is shorter than T+H=80", naming neither the split nor a workable length.
    cfg = PipelineConfig()
    values = np.random.default_rng(0).standard_normal(791)
    with pytest.raises(
        ValueError,
        match=r"the test split of a 300-point series holds 30 points, fewer than "
        r"history_len \+ horizon = 80; the 8:1:1 split needs a series of at least 791 points",
    ):
        prepare_data(cfg, series=TimeSeries(values[:300]))
    with pytest.raises(ValueError, match="test split of a 790-point series holds 79 points"):
        prepare_data(cfg, series=TimeSeries(values[:790]))
    assert len(prepare_data(cfg, series=TimeSeries(values)).test_windows) == 1
    assert min_series_len(80) == 791
    assert all(split_811_lengths(n)[2] >= 80 for n in range(791, 2000))


def test_window_levels_are_the_read_only_row_max_of_point_levels():
    # Windows derives window_levels from point_levels; a caller cannot pass a
    # second, disagreeing copy of them.
    point_levels = np.array([[0, 1], [3, 0], [0, 0], [2, 2]])
    wins = Windows(np.zeros((4, 4)), np.zeros((4, 2)), point_levels)
    np.testing.assert_array_equal(wins.window_levels, [1, 3, 0, 2])
    assert wins.window_levels.dtype == np.int64 and not wins.window_levels.flags.writeable
    with pytest.raises(ValueError):
        wins.window_levels[0] = 0
    with pytest.raises(TypeError, match="window_levels"):
        Windows(np.zeros((1, 4)), np.zeros((1, 2)), np.array([[0, 1]]), window_levels=np.array([0]))
    np.testing.assert_array_equal(wins[np.array([3, 1])].window_levels, [2, 3])


def test_windows_shapes():
    v = np.arange(12, dtype=np.float64)
    wins = make_windows(TimeSeries(v), 4, 2, 1, THRESH)
    assert wins.histories.shape == (len(wins), 4)
    assert wins.targets.shape == wins.point_levels.shape == (len(wins), 2)
    assert wins.window_levels.shape == (len(wins),)
    assert wins.histories.dtype == wins.targets.dtype == np.float64
    assert wins.point_levels.dtype == wins.window_levels.dtype == np.int64
    with pytest.raises(ValueError, match="one row per window"):
        Windows(wins.histories, wins.targets[1:], wins.point_levels[1:])
    with pytest.raises(ValueError, match="2-d"):
        Windows(wins.histories[0], wins.targets, wins.point_levels)


def test_windows_are_read_only_and_c_contiguous():
    v = np.arange(20, dtype=np.float64)
    wins = make_windows(TimeSeries(v), 4, 2, 3, THRESH)
    for arr in (wins.histories, wins.targets, wins.point_levels, wins.window_levels):
        assert arr.flags.c_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    src = np.zeros((2, 4))
    own = Windows(src, np.zeros((2, 2)), np.zeros((2, 2)))
    src[0, 0] = 5.0  # the record holds a copy, not the caller's array
    assert own.histories[0, 0] == 0.0


def test_windows_indexing_keeps_rows_aligned():
    v = np.sin(np.arange(60, dtype=np.float64))
    wins = make_windows(TimeSeries(v), 4, 2, 1, THRESH)
    idx = np.array([7, 0, 31, 7])
    mask = wins.window_levels >= RarityLevel.MODERATE
    assert 0 < mask.sum() < len(wins)
    for sub, rows in ((wins[idx], idx), (wins[mask], np.flatnonzero(mask)), (wins[3:9], np.arange(3, 9))):
        assert isinstance(sub, Windows) and len(sub) == len(rows)
        for j, i in enumerate(rows):
            np.testing.assert_array_equal(sub.histories[j], v[i : i + 4])
            np.testing.assert_array_equal(sub.targets[j], v[i + 4 : i + 6])
            np.testing.assert_array_equal(sub.point_levels[j], wins.point_levels[i])
            assert sub.window_levels[j] == wins.window_levels[i]
    empty = wins[:0]
    assert len(empty) == 0 and empty.histories.shape == (0, 4)
    with pytest.raises(TypeError, match="not an int"):
        wins[3]


# --------------------------------------------------------------- normalizer


def test_normalizer_fit_apply_invert():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=500)
    nz = Normalizer.fit(x)
    y = nz.apply(x)
    assert abs(y.mean()) < 1e-12
    assert abs(y.std() - 1.0) < 1e-12
    np.testing.assert_allclose(nz.invert(y), x, atol=1e-12)


def test_normalizer_identity_and_errors():
    ident = Normalizer.fit(np.arange(5.0), mode="identity")
    assert (ident.mean, ident.std) == (0.0, 1.0)
    with pytest.raises(ValueError):
        Normalizer.fit(np.ones(10))
    with pytest.raises(ValueError):
        Normalizer.fit(np.arange(5.0), mode="minmax")
    with pytest.raises(ValueError):
        Normalizer(0.0, 0.0)
    with pytest.raises(ValueError):
        Normalizer(np.nan, 1.0)


# -------------------------------------------------------- synthetic series


def _base_oracle(seed: int, n: int) -> np.ndarray:
    # frozen copy of the documented recurrence and stream layout
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 11)))
    eps = rng.standard_normal(n)
    ar = np.empty(n)
    ar[0] = 0.28 * eps[0]
    for t in range(1, n):
        ar[t] = 0.95 * ar[t - 1] + 0.28 * eps[t]
    t_idx = np.arange(n, dtype=np.float64)
    season = 1.0 * np.sin(2.0 * np.pi * t_idx / 48.0)
    season += 0.6 * np.sin(2.0 * np.pi * t_idx / 173.0 + 1.3)
    return season + ar


def _pulse_oracle(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 13)))
    onsets = (rng.random(n) < 0.02).astype(np.float64)
    amps = 1.0 + rng.lognormal(mean=0.0, sigma=0.5, size=n)
    kernel = 0.95 ** np.arange(64, dtype=np.float64)
    return np.convolve(onsets * amps, kernel)[:n]


@pytest.mark.parametrize("n", [1000, 1500, 20_000])
@pytest.mark.parametrize("seed", range(5))
def test_synth_base_matches_recurrence_oracle(seed, n):
    # bitwise: the float loop must round each step as the numpy recurrence does
    np.testing.assert_array_equal(synth_base(seed, n), _base_oracle(seed, n))


def test_synth_generate_is_base_plus_scaled_pulses():
    seed, n = 2, 2000
    ts = synth_generate(seed, n, spike_rate=0.02, spike_scale=5.0)
    expected = _base_oracle(seed, n) + 5.0 * _pulse_oracle(seed, n)
    np.testing.assert_array_equal(ts.values, expected)
    assert ts.name == "synth-2"


def test_synth_generate_zero_scale_is_pure_base():
    np.testing.assert_array_equal(
        synth_generate(1, 1200, spike_rate=0.01, spike_scale=0.0).values,
        synth_base(1, 1200),
    )


def test_synth_generate_determinism_and_independent_streams():
    a = synth_generate(4, 1000, 0.02, 5.0)
    b = synth_generate(4, 1000, 0.02, 5.0)
    np.testing.assert_array_equal(a.values, b.values)
    # changing the spike layer must not perturb the base draw
    np.testing.assert_array_equal(synth_base(4, 1000), synth_generate(4, 1000, 0.02, 0.0).values)


def test_synth_generate_validation():
    with pytest.raises(ValueError):
        synth_generate(0, 999)
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"synth_base: n must be >= 1, got {n}"):
            synth_base(0, n)
    with pytest.raises(ValueError):
        synth_generate(0, 2000, spike_rate=0.0)
    with pytest.raises(ValueError):
        synth_generate(0, 2000, spike_rate=0.05)
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="spike_scale"):
            synth_generate(0, 2000, spike_scale=scale)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**31 - 1))
def test_synth_spikes_only_add(seed):
    base = synth_base(seed, 1000)
    spiked = synth_generate(seed, 1000, 0.02, 5.0).values
    assert np.all(spiked >= base - 1e-12)
