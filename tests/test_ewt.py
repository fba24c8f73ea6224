"""Boundary detection, filter bank construction, and band decomposition."""

import importlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecast import cli, ewt, parallel
from rarecast.config import PipelineConfig
from rarecast.dataset import synth_generate
from rarecast.ewt import (
    BandComponents,
    _detect_boundaries_batch,
    Boundaries,
    bin_frequencies,
    build_filter_bank,
    decompose,
    decompose_windows,
    decompose_with_bank,
    detect_boundaries,
    max_transition_ratio,
    reconstruct,
)
from rarecast.pipeline import fit_global_bank, prepare_data
from rarecast.router import pipeline_predict


def two_tone(t_len: int = 512, k1: int = 52, k2: int = 204) -> np.ndarray:
    # tones on exact spectrum bins so there is no leakage
    t = np.arange(t_len, dtype=np.float64)
    return np.cos(2.0 * np.pi * k1 * t / t_len) + 0.8 * np.cos(2.0 * np.pi * k2 * t / t_len)


# ------------------------------------------------------------- basic types


def test_bin_frequencies_endpoints():
    f = bin_frequencies(257)
    assert f[0] == 0.0 and abs(f[-1] - np.pi) < 1e-15
    assert f.shape == (257,)
    with pytest.raises(ValueError):
        bin_frequencies(1)


def test_bin_frequencies_is_cached_and_read_only():
    f = bin_frequencies(33)
    assert bin_frequencies(33) is f
    with pytest.raises(ValueError, match="read-only"):
        f[0] = 1.0
    np.testing.assert_array_equal(bin_frequencies(33), np.linspace(0.0, np.pi, 33))


def test_boundaries_validation():
    Boundaries(np.array([0.0, 1.0, np.pi]))
    with pytest.raises(ValueError):
        Boundaries(np.array([0.1, np.pi]))
    with pytest.raises(ValueError):
        Boundaries(np.array([0.0, 3.0]))
    with pytest.raises(ValueError):
        Boundaries(np.array([0.0, 2.0, 1.0, np.pi]))
    with pytest.raises(ValueError):
        Boundaries(np.array([0.0]))
    assert Boundaries(np.array([0.0, np.pi])).n_bands == 1


# ------------------------------------------------------ boundary detection


def test_detect_boundaries_single_band_is_trivial():
    b = detect_boundaries(np.random.default_rng(0).standard_normal(64), 1)
    np.testing.assert_array_equal(b.omegas, [0.0, np.pi])


def test_detect_boundaries_two_tone_midpoint():
    b = detect_boundaries(two_tone(), 2)
    assert b.n_bands == 2
    # peaks at bins 52 and 204 of 257 -> midpoint pi * (52 + 204) / 512
    assert abs(b.omegas[1] - np.pi * 0.5) < 1e-12


def test_detect_boundaries_three_tones():
    t = np.arange(512, dtype=np.float64)
    x = sum(np.cos(2.0 * np.pi * k * t / 512) for k in (32, 96, 160))
    b = detect_boundaries(x, 3)
    np.testing.assert_allclose(b.omegas[1:3], [np.pi * 64 / 256, np.pi * 128 / 256], atol=1e-12)


def test_detect_boundaries_fallback_warns():
    # T=8 leaves interior bins {1, 2, 3}; the tone at bin 2 dominates both
    # neighbours, so exactly one strict maximum exists whatever the noise floor.
    t = np.arange(8, dtype=np.float64)
    x = np.cos(2.0 * np.pi * 2 * t / 8)
    with pytest.warns(UserWarning, match="subdividing"):
        b = detect_boundaries(x, 3)
    assert b.n_bands == 3
    # one peak gives edges [0, pi]; halving the widest band twice, ties to the
    # lower index, lands on [0, pi/4, pi/2, pi]
    np.testing.assert_allclose(b.omegas, [0.0, np.pi / 4, np.pi / 2, np.pi], atol=1e-12)


def test_detect_boundaries_errors():
    with pytest.raises(ValueError):
        detect_boundaries(np.zeros((4, 4)), 2)
    with pytest.raises(ValueError):
        detect_boundaries(np.zeros(8), 0)
    with pytest.raises(ValueError):
        detect_boundaries(np.zeros(6), 4)  # length < 2 * n_bands


# -------------------------------------------------------------- filter bank


def test_max_transition_ratio_oracle():
    r = max_transition_ratio(np.array([0.0, np.pi / 2, np.pi]))
    assert abs(r[0] - 1.0 / 3.0) < 1e-15


def test_filter_bank_partition_of_unity():
    b = detect_boundaries(two_tone(), 2)
    for gamma in (None, 0.0, 0.1):
        bank = build_filter_bank(b, 257, gamma)
        np.testing.assert_allclose(bank.filters.sum(axis=0), 1.0, atol=1e-12)
        assert bank.filters.min() > -1e-12
        assert bank.filters.max() < 1.0 + 1e-12


def test_filter_bank_hard_masks():
    b = Boundaries(np.array([0.0, np.pi / 2, np.pi]))
    bank = build_filter_bank(b, 257, gamma=0.0)
    assert set(np.unique(bank.filters)) <= {0.0, 1.0}
    freqs = bin_frequencies(257)
    # a bin exactly on the boundary joins the upper band
    on_edge = int(np.argmin(np.abs(freqs - np.pi / 2)))
    assert freqs[on_edge] == pytest.approx(np.pi / 2, abs=1e-15)
    assert bank.filters[0, on_edge] == 0.0 and bank.filters[1, on_edge] == 1.0


def test_filter_bank_gamma_handling():
    b = Boundaries(np.array([0.0, np.pi / 2, np.pi]))
    auto = build_filter_bank(b, 129, None)
    assert abs(auto.gamma - 0.5 / 3.0) < 1e-12  # half the feasible maximum
    with pytest.warns(UserWarning, match="clamped"):
        clamped = build_filter_bank(b, 129, gamma=0.9)
    assert abs(clamped.gamma - 1.0 / 3.0) < 1e-12
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="^build_filter_bank: gamma"):
            build_filter_bank(b, 129, gamma=bad)


def test_filter_bank_shape_validation():
    from rarecast.ewt import FilterBank

    b = Boundaries(np.array([0.0, np.pi]))
    with pytest.raises(ValueError):
        FilterBank(filters=np.zeros((2, 10)), boundaries=b, gamma=0.1)


# ------------------------------------------------------------ decomposition


def test_decompose_reconstruct_roundtrip():
    x = np.random.default_rng(3).standard_normal(256)
    b = detect_boundaries(x, 4)
    bank = build_filter_bank(b, 129)
    comps = decompose(x, bank)
    assert comps.n_bands == 4
    recon = reconstruct(comps)
    assert np.abs(recon - x).max() / np.abs(x).max() < 1e-12


def test_decompose_single_band_is_identity():
    x = np.random.default_rng(1).standard_normal(64)
    bank = build_filter_bank(Boundaries(np.array([0.0, np.pi])), 33)
    comps = decompose(x, bank)
    np.testing.assert_array_equal(comps.components[0], x)


def test_decompose_band_isolation_two_tone():
    x = two_tone()
    bank = build_filter_bank(detect_boundaries(x, 2), 257, gamma=0.0)
    comps = decompose(x, bank).components
    t = np.arange(512, dtype=np.float64)
    lo = np.cos(2.0 * np.pi * 52 * t / 512)
    hi = 0.8 * np.cos(2.0 * np.pi * 204 * t / 512)
    np.testing.assert_allclose(comps[0], lo, atol=1e-12)
    np.testing.assert_allclose(comps[1], hi, atol=1e-12)


def test_decompose_errors():
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 33)
    with pytest.raises(ValueError, match="bins"):
        decompose(np.zeros(100), bank)
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 64)), bank)
    with pytest.raises(ValueError):
        reconstruct(np.zeros(8))
    with pytest.raises(ValueError):
        BandComponents(np.zeros(8))
    with pytest.raises(ValueError, match=r"^decompose_windows: signal length 6 < 2 \* n_bands = 8"):
        decompose_windows(np.zeros((3, 6)), 4)


@pytest.mark.parametrize("n_bands", [0, -1])
def test_decompose_windows_rejects_fewer_than_one_band(n_bands):
    # 0 failed in numpy with "zero-size array to reduction operation minimum",
    # -1 with "negative dimensions are not allowed".
    with pytest.raises(ValueError, match=f"^decompose_windows: n_bands must be >= 1, got {n_bands}$"):
        decompose_windows(np.zeros((5, 64)), n_bands)


def test_decompose_windows_matches_per_row():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 128))
    batch = decompose_windows(x, 3)
    assert batch.shape == (3, 6, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(6):
            b = detect_boundaries(x[i], 3)
            bank = build_filter_bank(b, 65)
            np.testing.assert_allclose(batch[:, i], decompose(x[i], bank).components, atol=1e-12)


def test_decompose_windows_single_band_copies():
    x = np.random.default_rng(2).standard_normal((3, 32))
    out = decompose_windows(x, 1)
    np.testing.assert_array_equal(out[0], x)
    out[0, 0, 0] = 99.0
    assert x[0, 0] != 99.0


@pytest.mark.parametrize("n_bands", [1, 4])
@pytest.mark.parametrize("gamma", [None, 0.0, 5.0])
def test_decompose_windows_empty_batch(n_bands, gamma):
    out = decompose_windows(np.empty((0, 64)), n_bands, gamma)
    assert out.shape == (n_bands, 0, 64) and out.dtype == np.float64


def test_decompose_with_bank_matches_single():
    x = np.random.default_rng(5).standard_normal((4, 64))
    bank = build_filter_bank(detect_boundaries(x[0], 2), 33)
    batch = decompose_with_bank(x, bank)
    np.testing.assert_allclose(batch[:, 0], decompose(x[0], bank).components, atol=1e-14)
    with pytest.raises(ValueError):
        decompose_with_bank(np.zeros((2, 100)), bank)


@pytest.mark.parametrize("shape", [(64,), (2, 3, 64)])
def test_decompositions_reject_input_that_is_not_2d(shape):
    # np.atleast_2d read a 3-d batch as rows of its last-but-one axis, which
    # failed with "signals of length 3 have 2 spectrum bins", and let 1-d through.
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 33)
    x = np.zeros(shape)
    with pytest.raises(ValueError, match=r"decompose_with_bank: expected a \(N, T\) array"):
        decompose_with_bank(x, bank)
    with pytest.raises(ValueError, match=r"decompose_windows: expected a \(N, T\) array"):
        decompose_windows(x, 2)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_bands=st.sampled_from([1, 2, 3, 4, 8]),
    log2_len=st.integers(5, 9),
)
def test_reconstruction_property(seed, n_bands, log2_len):
    x = np.random.default_rng(seed).standard_normal(2**log2_len)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        comps = decompose_windows(x[None, :], n_bands)
    recon = comps[:, 0].sum(axis=0)
    assert np.abs(recon - x).max() <= 1e-9 * max(1.0, np.abs(x).max())


def test_filter_bank_csv(tmp_path):
    out = tmp_path / "ewt"
    assert cli.main(["ewt-dump", "--out", str(out), "--synth-n", "2000", "--seed", "3",
                     "--history-len", "32", "--bands", "2"]) == 0
    cfg = PipelineConfig.from_dict(json.loads((out / "config.json").read_text()))
    bank = fit_global_bank(prepare_data(cfg).train, cfg)
    lines = (out / "filters.csv").read_text().strip().splitlines()
    assert lines[0] == "bin,omega,gain_band1,gain_band2"
    assert len(lines) == 18  # one row per bin of a 32-sample window
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], np.arange(17))
    np.testing.assert_array_equal(rows[:, 1], bin_frequencies(17))
    np.testing.assert_array_equal(rows[:, 2:], bank.filters.T)
    assert np.all(np.abs(rows[:, 2:].sum(axis=1) - 1.0) < 1e-12)


# ------------------------------------ batched boundary detection vs row loop


def _row_loop_boundaries(signals: np.ndarray, n_bands: int) -> tuple[np.ndarray, int]:
    """The per-row boundary loop the batched detector replaced, kept as its oracle."""
    x = np.asarray(signals, dtype=np.float64)
    n = x.shape[0]
    omegas = np.empty((n, n_bands + 1))
    omegas[:, 0], omegas[:, -1] = 0.0, np.pi
    if n_bands == 1:
        return omegas, 0
    mag = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1))
    freqs = bin_frequencies(mag.shape[1])
    is_max = np.zeros_like(mag, dtype=bool)
    is_max[:, 1:-1] = (mag[:, 1:-1] > mag[:, :-2]) & (mag[:, 1:-1] > mag[:, 2:])
    order = np.argsort(-np.where(is_max, mag, -np.inf), axis=1, kind="stable")
    n_found = is_max.sum(axis=1)
    n_fallback = 0
    for i in range(n):
        k = min(n_bands, int(n_found[i]))
        peaks = np.sort(order[i, :k])
        edges = [0.0]
        edges.extend(0.5 * (freqs[peaks[:-1]] + freqs[peaks[1:]]))
        edges.append(np.pi)
        if k < n_bands:
            n_fallback += 1
            while len(edges) < n_bands + 1:
                w = int(np.argmax(np.diff(edges)))
                edges.insert(w + 1, 0.5 * (edges[w] + edges[w + 1]))
        omegas[i, :] = edges
    return omegas, n_fallback


def _tied_rows() -> np.ndarray:
    """Small-integer rows (T=16), many with exactly equal spectral maxima, plus
    a tone mirrored about pi/2, whose two peaks tie by construction."""
    rng = np.random.default_rng(11)
    ints = rng.integers(-2, 3, size=(2000, 16)).astype(np.float64)
    t = np.arange(16)
    tone = np.cos(2.0 * np.pi * 3 * t / 16)
    return np.vstack([ints, tone + tone * (-1.0) ** t])


@pytest.mark.parametrize("n_bands", range(1, 9))
def test_detect_boundaries_batch_matches_row_loop(n_bands):
    rng = np.random.default_rng(n_bands)
    cases = {
        "random": rng.standard_normal((400, 64)),
        "tied": _tied_rows(),
        "constant": np.vstack([np.zeros((3, 32)), np.full((3, 32), 2.5)]),
    }
    for name, rows in cases.items():
        if rows.shape[1] < 2 * n_bands:
            continue
        got, got_fallback = _detect_boundaries_batch(rows, n_bands)
        want, want_fallback = _row_loop_boundaries(rows, n_bands)
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got_fallback == want_fallback, name
        if name == "constant" and n_bands > 1:
            assert got_fallback == rows.shape[0]  # no maxima at all: every row falls back
        # Each row alone (N == 1, the one-row detector) gives the batch row's bits
        # and falls back exactly when the row has fewer than n_bands maxima.
        mag = np.abs(np.fft.rfft(rows - rows.mean(axis=1, keepdims=True), axis=1))
        n_found = ((mag[:, 1:-1] > mag[:, :-2]) & (mag[:, 1:-1] > mag[:, 2:])).sum(axis=1)
        falls_back = (n_found < n_bands) & (n_bands > 1)
        for i, row in enumerate(rows):
            alone, alone_fallback = _detect_boundaries_batch(row[None, :], n_bands)
            assert alone.shape == (1, n_bands + 1)
            assert alone.tobytes() == got[i].tobytes(), f"{name} row {i}"
            assert alone_fallback == int(falls_back[i]), f"{name} row {i}"
        assert int(falls_back.sum()) == got_fallback, name


def test_tied_rows_really_tie():
    # guards the fixture above: the tie-break path must actually be exercised
    rows = _tied_rows()
    mag = np.abs(np.fft.rfft(rows - rows.mean(axis=1, keepdims=True), axis=1))
    is_max = np.zeros_like(mag, dtype=bool)
    is_max[:, 1:-1] = (mag[:, 1:-1] > mag[:, :-2]) & (mag[:, 1:-1] > mag[:, 2:])
    tied = [len(np.unique(m[k])) < k.sum() for m, k in zip(mag, is_max)]
    assert sum(tied) >= 10 and tied[-1]


# ------------------------------------------- one spectrum vs two transforms


def _synth_windows(seed: int, t: int = 64) -> np.ndarray:
    """Z-scored 20,000-point synthetic series cut into every window of length t."""
    v = synth_generate(seed, 20_000).values
    z = (v - v.mean()) / v.std()
    return np.lib.stride_tricks.sliding_window_view(z, t).copy()


def _two_transform_components(x: np.ndarray, n_bands: int, gamma: float | None) -> np.ndarray:
    """The row-by-row decomposition that transformed each window twice, kept as its oracle.

    Boundaries from the mean-removed spectrum ranked by a stable argsort
    (_row_loop_boundaries), one bank per row built edge by edge
    (_edge_loop_filters), and a second rfft of the windows themselves to
    filter. No memo is read or filled.
    """
    omegas, _ = _row_loop_boundaries(x, n_bands)
    filters = _edge_loop_filters(omegas, x.shape[1] // 2 + 1, gamma)[0]
    return np.fft.irfft(np.fft.rfft(x, axis=1)[None] * filters, n=x.shape[1], axis=-1)


@pytest.mark.parametrize("seed", [1_000_000, 1_000_001, 1_000_002])
def test_one_spectrum_matches_the_two_transform_oracle(monkeypatch, seed):
    x = _synth_windows(seed)
    singles = range(0, len(x), 997)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = {(nb, g): _two_transform_components(x, nb, g) for nb in (2, 4) for g in (None, 0.05)}
        real_rfft = np.fft.rfft
        transformed = []

        def counting_rfft(a, *args, **kwargs):
            transformed.append(len(a))
            return real_rfft(a, *args, **kwargs)

        monkeypatch.setattr(ewt.np.fft, "rfft", counting_rfft)
        for (n_bands, gamma), oracle in want.items():
            transformed.clear()
            np.testing.assert_array_equal(decompose_windows(x, n_bands, gamma), oracle)
            assert sum(transformed) == len(x)  # one row per window, however it is split
            for i in singles:
                transformed.clear()
                np.testing.assert_array_equal(decompose_windows(x[i : i + 1], n_bands, gamma)[:, 0], oracle[:, i])
                assert transformed == [1]
        bank = build_filter_bank(Boundaries(np.array([0.0, 0.5, 1.0, 2.0, np.pi])), 33)
        transformed.clear()
        decompose_with_bank(x, bank)
        assert sum(transformed) == len(x)


# ---------------------------------------------------- bank lookup vs edge loop


def _edge_loop_filters(
    omegas: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """The one-bank-per-row, one-edge-at-a-time builder the broadcast kernel
    behind the bank lookup replaced, kept as its oracle: filters
    (n_bands, N, n_bins), effective gammas and clamp count."""
    om = np.asarray(omegas, dtype=np.float64)
    n, n_bands = om.shape[0], om.shape[1] - 1
    freqs = np.linspace(0.0, np.pi, n_bins)
    feasible = max_transition_ratio(om)
    n_clamped = 0
    if gamma is None:
        gam = 0.5 * feasible
    else:
        gam = np.full(n, float(gamma))
        over = gam > feasible
        n_clamped = int(over.sum())
        gam = np.where(over, feasible, gam)
    ups = np.empty((n_bands + 1, n, n_bins))
    ups[0] = 1.0
    ups[n_bands] = 0.0
    for k in range(1, n_bands):
        center = om[:, k][:, None]
        width = (gam * om[:, k])[:, None]
        f = freqs[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.clip((f - (center - width)) / (2.0 * width), 0.0, 1.0)
        hard = (f >= center).astype(np.float64)
        ups[k] = np.where(width > 0.0, 0.5 * (1.0 - np.cos(np.pi * s)), hard)
    return ups[:-1] - ups[1:], gam, n_clamped


def _row_filters(peaks: np.ndarray, n_bins: int, gamma: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The bank lookup with each row's bank gathered: filters (n_bands, N, n_bins) and effective gammas."""
    table, slots = ewt._bank_slots(peaks, n_bins, gamma)
    return table.filters[slots].transpose(1, 0, 2), table.gammas[slots]


def _peaks(x: np.ndarray, n_bands: int) -> np.ndarray:
    """Kept peak bins of the rows of x as the batch detector keeps them."""
    return ewt._spectrum_peaks(np.fft.rfft(x, axis=1), n_bands)


def _keys(x: np.ndarray, n_bands: int) -> np.ndarray:
    """The memo's peak-set key of each row of x, as the batch path computes it."""
    return ewt._peak_keys(_peaks(x, n_bands), x.shape[1] // 2 + 1)


def _shared_rows(n_bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Kept peaks (T=64) with exact duplicates, in shuffled order, and their oracle boundary rows."""
    rng = np.random.default_rng(100 + n_bands)
    signals = rng.standard_normal((300, 64))
    signals = np.vstack([signals, signals[::3], signals[:7], np.zeros((2, 64))])
    signals = signals[rng.permutation(signals.shape[0])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _peaks(signals, n_bands), _row_loop_boundaries(signals, n_bands)[0]


@pytest.mark.parametrize("n_bands", range(1, 9))
def test_bank_lookup_matches_edge_loop(n_bands):
    peaks, om = _shared_rows(n_bands)
    n_distinct = len(np.unique(ewt._peak_keys(peaks, 33)))
    assert n_distinct < len(peaks)  # the duplicates really share a key
    feasible = max_transition_ratio(om)
    cases = {"auto": None, "hard": 0.0, "feasible": 0.5 * feasible.min(), "clamped": 5.0}
    for name, gamma in cases.items():
        ewt._memo.clear()
        got = _row_filters(peaks, 33, gamma)
        want = _edge_loop_filters(om, 33, gamma)
        np.testing.assert_array_equal(got[0], want[0], err_msg=name)
        np.testing.assert_array_equal(got[1], want[1], err_msg=name)
        if gamma is not None:  # the clamp count decompose_windows reports
            assert np.count_nonzero(got[1] < gamma) == want[2], name
        assert len(ewt._memo) == n_distinct, name  # one bank per distinct peak set
    assert _edge_loop_filters(om, 33, 5.0)[2] == len(om)
    assert _edge_loop_filters(om, 33, 0.5 * feasible.min())[2] == 0


def test_decompose_windows_is_batch_composition_invariant():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((40, 64))
    x = np.vstack([x, x[:10]])  # duplicate windows share a bank
    perm = rng.permutation(x.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for gamma in (None, 0.05):
            full = decompose_windows(x, 4, gamma)
            np.testing.assert_array_equal(decompose_windows(x[perm], 4, gamma), full[:, perm])
            for i in range(x.shape[0]):
                np.testing.assert_array_equal(decompose_windows(x[i : i + 1], 4, gamma)[:, 0], full[:, i])


@pytest.mark.parametrize("n_bands", [1, 3])
@pytest.mark.parametrize("gamma", [float("nan"), -1.0, float("inf")])
def test_decompose_windows_rejects_bad_gamma(n_bands, gamma):
    # nan used to match the gamma=0.0 hard masks exactly, and n_bands=1 checked nothing.
    x = np.random.default_rng(0).standard_normal((4, 64))
    with pytest.raises(ValueError, match="^decompose_windows: gamma"):
        decompose_windows(x, n_bands, gamma)


def test_decompose_windows_warns_once_when_gamma_is_clamped():
    x = np.random.default_rng(4).standard_normal((50, 64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        decompose_windows(x, 4, gamma=5.0)
        decompose_windows(x, 4, gamma=None)
        decompose_windows(x, 4, gamma=1e-3)
    clamped = [str(w.message) for w in caught if "gamma" in str(w.message)]
    assert clamped == [
        "decompose_windows: gamma 5.0 infeasible for 50 of 50 windows, "
        "clamped to each window's feasible maximum"
    ]
    # perfbench/workloads.py counts fallback windows by this pattern; the
    # clamp message must not be mistaken for one
    assert not re.match(r"decompose_windows: (\d+) of \d+ windows", clamped[0])


# ------------------------------------------------------------------ bank memo


def _memo_keys() -> list:
    """Every peak-set key the memo holds, table by table."""
    return [key for table in ewt._memo._tables.values() for key in table.slots]


def test_bank_memo_cold_and_warm_give_the_same_bits(tiny_pipeline, tiny_data):
    peaks, om = _shared_rows(4)
    x = np.random.default_rng(31).standard_normal((60, 64))
    for gamma in (None, 0.0, 0.05, 5.0):
        ewt._memo.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cold = _row_filters(peaks, 33, gamma), decompose_windows(x, 4, gamma)
            n_cold = len(ewt._memo)
            warm = _row_filters(peaks, 33, gamma), decompose_windows(x, 4, gamma)
        distinct = np.unique(np.concatenate([ewt._peak_keys(peaks, 33), _keys(x, 4)]))
        assert len(ewt._memo) == n_cold == len(distinct)  # the warm calls built nothing
        for a, b in zip(cold[0], warm[0]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(cold[1], warm[1])
        want = _edge_loop_filters(om, 33, gamma)
        np.testing.assert_array_equal(warm[0][0], want[0])
        np.testing.assert_array_equal(warm[0][1], want[1])
    # One window end to end: a request from an emptied memo, then the same request warm.
    tp, _ = tiny_pipeline
    for history in tiny_data.test_windows[:40].histories:
        ewt._memo.clear()
        cold = pipeline_predict(tp.experts, tp.router, history)
        assert len(ewt._memo) == 1  # the one-row lookup built and kept this window's bank
        warm = pipeline_predict(tp.experts, tp.router, history)
        assert len(ewt._memo) == 1
        assert cold.tobytes() == warm.tobytes()


def test_bank_memo_hits_still_count_and_warn_about_clamping():
    peaks, om = _shared_rows(3)
    x = np.random.default_rng(4).standard_normal((50, 64))
    bounds = Boundaries(np.array([0.0, 0.1, np.pi]))
    ewt._memo.clear()
    messages = []
    for _ in range(2):  # the second pass hits the memo on every row
        assert np.count_nonzero(_row_filters(peaks, 33, 5.0)[1] < 5.0) == len(peaks)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            decompose_windows(x, 4, gamma=5.0)
            decompose_windows(x[:1], 4, gamma=5.0)
            bank = build_filter_bank(bounds, 33, gamma=5.0)
        messages.append([str(w.message) for w in caught if "gamma" in str(w.message)])
        assert bank.gamma == max_transition_ratio(bounds.omegas)[0]
    assert messages[0] == messages[1] and len(messages[0]) == 3
    assert messages[0][0].startswith("decompose_windows: gamma 5.0 infeasible for 50 of 50 windows")
    assert messages[0][1].startswith("decompose_windows: gamma 5.0 infeasible for 1 of 1 windows")
    assert messages[0][2].startswith("build_filter_bank: gamma 5.0 infeasible")


def test_bank_memo_empties_when_full_and_stays_correct(monkeypatch):
    x = _synth_windows(1_000_000)
    keys = _keys(x, 4).tolist()
    _, first = np.unique(keys, return_index=True)
    rows = x[np.sort(first)[:10]]  # ten windows of ten different peak sets
    keys = _keys(rows, 4).tolist()
    want = {g: _two_transform_components(rows, 4, g) for g in (None, 0.05)}
    bank_bytes = 4 * 33 * 8
    monkeypatch.setattr(ewt, "_MEMO_BYTES", 3 * bank_bytes)
    ewt._memo.clear()
    sizes = []
    for i in range(10):
        np.testing.assert_array_equal(decompose_windows(rows[i : i + 1], 4)[:, 0], want[None][:, i])
        sizes.append((len(ewt._memo), ewt._memo.nbytes))
    assert sizes == [(n, n * bank_bytes) for n in (1, 2, 3) * 3 + (1,)]
    # The memo holds windows 9 and 0; a batch of 9 (a hit) and two misses
    # does not fit it, so a new table takes all three, the hit copied.
    decompose_windows(rows[:1], 4)
    got = decompose_windows(rows[[9, 1, 2]], 4)
    np.testing.assert_array_equal(got, want[None][:, [9, 1, 2]])
    assert sorted(_memo_keys()) == sorted(keys[i] for i in (9, 1, 2))
    # a batch of more distinct banks than the memo can hold, built and gathered
    # from a table of its own, and the memo left as it was
    for _ in range(2):
        np.testing.assert_array_equal(decompose_windows(rows, 4, 0.05), want[0.05])
        assert ewt._memo.nbytes == 3 * bank_bytes and len(_memo_keys()) == 3
    # a bank larger than the whole budget is built but never kept
    ewt._memo.clear()
    long = _synth_windows(1_000_000, 256)[:1]
    np.testing.assert_array_equal(decompose_windows(long, 4), _two_transform_components(long, 4, None))
    assert len(ewt._memo) == 0


@pytest.mark.parametrize("n_rows", [1, 40])
def test_bank_memo_cannot_be_changed_through_a_returned_array(n_rows):
    x = np.random.default_rng(47).standard_normal((n_rows, 64))
    want = _two_transform_components(x, 4, None)
    ewt._memo.clear()
    for _ in range(2):  # built, then hit
        got = decompose_windows(x, 4)
        assert not any(np.shares_memory(got, t.filters) for t in ewt._memo._tables.values())
        got[...] = 7.0
    np.testing.assert_array_equal(decompose_windows(x, 4), want)
    om, _ = _row_loop_boundaries(x[:1], 4)
    bank = build_filter_bank(Boundaries(om[0]), 33)
    np.testing.assert_array_equal(bank.filters, _edge_loop_filters(om, 33, None)[0][:, 0])
    assert not bank.filters.flags.writeable


@pytest.mark.parametrize(("t", "n_bands"), [(64, 16), (256, 10)])
@pytest.mark.parametrize("gamma", [None, 0.05])
def test_keys_too_wide_for_an_int64_stay_exact(t, n_bands, gamma):
    # 16 bins of 6 bits and 10 of 8 do not fit an int64 key; those keys are
    # byte strings, and two peak sets must never share one.
    assert ewt._key_bits(t // 2 + 1, n_bands) == 0 and ewt._key_bits(33, 4) > 0
    x = _synth_windows(1_000_000, t)[:: 7 if t == 64 else 13]
    x = np.vstack([x, x[:50], np.full((3, t), 1.5)])  # repeated windows and rows without maxima
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ewt._memo.clear()
        for _ in range(2):  # cold, then warm
            np.testing.assert_array_equal(decompose_windows(x, n_bands, gamma), _two_transform_components(x, n_bands, gamma))
    assert len(ewt._memo) == len(np.unique(_keys(x, n_bands)))


@pytest.mark.parametrize(("t", "n_bands"), [(64, 4), (64, 16), (256, 10)])
def test_a_window_alone_takes_its_batch_rows_key_and_bits(t, n_bands):
    x = _synth_windows(1_000_003, t)[::97][:150]
    x[::25] = 1.5  # rows without maxima, keyed by their padding
    keys = _keys(x, n_bands).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ewt._memo.clear()
        batch = decompose_windows(x, n_bands)
        n_kept = len(ewt._memo)
        assert n_kept == len(set(keys))
        for i in range(len(x)):  # warm: every window alone hits its batch row's bank
            np.testing.assert_array_equal(decompose_windows(x[i : i + 1], n_bands)[:, 0], batch[:, i])
        assert len(ewt._memo) == n_kept
        for i in range(0, len(x), 5):  # cold: the window alone keeps its batch row's key
            ewt._memo.clear()
            np.testing.assert_array_equal(decompose_windows(x[i : i + 1], n_bands)[:, 0], batch[:, i])
            assert _memo_keys() == [keys[i]]


# ------------------------------------------------------------------ row blocks


def _block_signals(n: int) -> np.ndarray:
    """Random rows, every fifth one constant (no spectral maxima, so a fallback row)."""
    x = np.random.default_rng(41).standard_normal((n, 64))
    x[::5] = 1.5
    return x


def _decompose_all(x: np.ndarray, bank: ewt.FilterBank) -> list[np.ndarray]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [decompose_windows(x, 4, None), decompose_windows(x, 4, 0.05), decompose_with_bank(x, bank)]


@pytest.mark.parametrize("n_bands", [1, 4])
@pytest.mark.parametrize("n_rows", [33, 1])
def test_components_are_band_major_behind_the_window_major_shape(monkeypatch, n_rows, n_bands):
    # Blocks of 8 rows: 33 rows span five blocks, the last a one-row tail.
    monkeypatch.setattr(ewt, "_BLOCK_ROWS", 8)
    x = _block_signals(n_rows)
    t = x.shape[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = build_filter_bank(detect_boundaries(x[-1], n_bands), t // 2 + 1)
        per_window = decompose_windows(x, n_bands, 0.05)
        shared = decompose_with_bank(x, bank)
        for got in (per_window, shared):
            assert got.shape == (n_bands, n_rows, t)
            assert got.flags.c_contiguous
        for i in range(n_rows):
            own = build_filter_bank(detect_boundaries(x[i], n_bands), t // 2 + 1, 0.05)
            np.testing.assert_array_equal(per_window[:, i], decompose(x[i], own).components)
            np.testing.assert_array_equal(shared[:, i], decompose(x[i], bank).components)


@pytest.mark.parametrize("n_rows", [32, 33, 1, 0])
def test_blocks_give_the_one_block_bits(monkeypatch, n_rows):
    # 32 rows are four whole blocks of 8, 33 leave a one-row tail block
    x = _block_signals(n_rows)
    bank = build_filter_bank(Boundaries(np.array([0.0, 0.5, 1.0, 2.0, np.pi])), 33)
    whole = _decompose_all(x, bank)
    monkeypatch.setattr(ewt, "_BLOCK_ROWS", 8)
    for got, want in zip(_decompose_all(x, bank), whole):
        assert got.shape == (4, n_rows, 64)
        np.testing.assert_array_equal(got, want)


def test_block_warnings_come_once_per_call_with_summed_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    fallback_re = importlib.import_module("workloads").FALLBACK_RE
    monkeypatch.setattr(ewt, "_BLOCK_ROWS", 8)
    x = _block_signals(33)  # constant rows 0, 5, ..., 30 spread over all five blocks
    # One thread, then three with each block of 8 rows cut into ranges of 2 or 3.
    for threads, min_rows in ((1, parallel.MIN_ROWS), (3, 1)):
        monkeypatch.setattr(parallel, "THREADS", threads)
        monkeypatch.setattr(parallel, "MIN_ROWS", min_rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            decompose_windows(x, 4, gamma=5.0)
        assert [str(w.message) for w in caught] == [
            "decompose_windows: 7 of 33 windows had fewer than 4 spectral maxima, "
            "padded by subdividing the widest band",
            "decompose_windows: gamma 5.0 infeasible for 33 of 33 windows, "
            "clamped to each window's feasible maximum",
        ]
        assert [m.group(1) for w in caught if (m := fallback_re.match(str(w.message)))] == ["7"]


@pytest.mark.parametrize("shared_bank", [False, True])
def test_block_memory_stays_bounded(monkeypatch, shared_bank):
    # Four blocks of rows: a one-shot decomposition held two to three times its
    # result in transients on top of it, the blocked one holds those of one block.
    monkeypatch.setattr(ewt, "_BLOCK_ROWS", 512)
    x = np.random.default_rng(43).standard_normal((4 * 512, 64))
    bank = build_filter_bank(Boundaries(np.array([0.0, 0.5, 1.0, 2.0, np.pi])), 33)
    run = (lambda: decompose_with_bank(x, bank)) if shared_bank else (lambda: decompose_windows(x, 4))
    run()  # fill the bank memo first: what it keeps is not a transient of the call
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = out.nbytes // 4
    assert peak < out.nbytes + 4 * block_bytes
