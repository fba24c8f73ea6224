"""Series ingestion, rarity labeling, array-backed windows, and synthetic generation.

Rarity is defined from percentile cut points fitted on the training split:
a point is ExtremeRare above P99, VeryRare in (P95, P99], Moderate in
(P90, P95], Normal otherwise. A window inherits the rarity of the largest
ground-truth value in its prediction span.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .rng import DATA, substream


class RarityLevel(IntEnum):
    """Ordinal rarity of a point or window."""

    NORMAL = 0
    MODERATE = 1
    VERY_RARE = 2
    EXTREME_RARE = 3


N_LEVELS = len(RarityLevel)
# Level names in every CSV, report row and CLI assertion.
LEVEL_KEYS = {
    RarityLevel.NORMAL: "normal",
    RarityLevel.MODERATE: "moderate",
    RarityLevel.VERY_RARE: "very",
    RarityLevel.EXTREME_RARE: "extreme",
}


def _readonly(arr: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A univariate series of finite float64 values, immutable once built."""

    values: np.ndarray
    name: str = "series"

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"TimeSeries expects a 1-d array, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("TimeSeries needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise ValueError("TimeSeries values must be finite (no NaN or Inf)")
        object.__setattr__(self, "values", _readonly(arr))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RarityThresholds:
    """Percentile cut points, non-decreasing: t_moderate <= t_very <= t_extreme."""

    t_moderate: float
    t_very: float
    t_extreme: float

    def __post_init__(self) -> None:
        t = (self.t_moderate, self.t_very, self.t_extreme)
        if not all(math.isfinite(v) for v in t):
            raise ValueError(f"thresholds must be finite, got {t}")
        if not (t[0] <= t[1] <= t[2]):
            raise ValueError(f"thresholds must be non-decreasing, got {t}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t_moderate, self.t_very, self.t_extreme)


def load_csv(path: str | Path, column: str | int, delimiter: str = ",") -> TimeSeries:
    """Read one numeric column from a headed CSV file.

    Every row after the header must hold a finite float in that column:
    dropping a row would shift every later timestamp, so a missing,
    unparsable or non-finite cell (a blank line included) raises a
    ValueError naming the bad-row count and the first bad line. Also raises
    on a missing file, an unknown column, or zero valid rows.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"load_csv: no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"load_csv: {path} is empty, a header row is required") from None
        if isinstance(column, int):
            if not 0 <= column < len(header):
                raise ValueError(f"load_csv: column index {column} out of range for {header}")
            idx, colname = column, header[column]
        else:
            if column not in header:
                raise ValueError(f"load_csv: column {column!r} not in header {header}")
            idx, colname = header.index(column), column
        values: list[float] = []
        bad_lines: list[int] = []
        for row in reader:
            try:
                v = float(row[idx])
            except (IndexError, ValueError):
                v = math.nan
            if math.isfinite(v):
                values.append(v)
            else:
                bad_lines.append(reader.line_num)
    if not values:
        raise ValueError(f"load_csv: column {colname!r} of {path} has no valid rows")
    if bad_lines:
        n = len(bad_lines)
        raise ValueError(
            f"load_csv: {n} bad row{'s' if n > 1 else ''} in {path} (first at line "
            f"{bad_lines[0]}): column {colname!r} must hold a finite number in every row, "
            f"a dropped row would shift every later timestamp"
        )
    return TimeSeries(np.asarray(values), name=colname)


def split_811_lengths(n: int) -> tuple[int, int, int]:
    """Train/val/test lengths split_811 gives an n-point series: floor(0.8n), floor(0.1n), rest."""
    n_train = int(math.floor(0.8 * n))
    n_val = int(math.floor(0.1 * n))
    return n_train, n_val, n - n_train - n_val


def split_811(series: TimeSeries) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Contiguous train/val/test split with lengths floor(0.8L), floor(0.1L), rest."""
    n = len(series)
    if n < 10:
        raise ValueError(f"split_811: need at least 10 points, got {n}")
    n_train, n_val, _ = split_811_lengths(n)
    v = series.values
    return (
        TimeSeries(v[:n_train], name=series.name),
        TimeSeries(v[n_train : n_train + n_val], name=series.name),
        TimeSeries(v[n_train + n_val :], name=series.name),
    )


def compute_thresholds(train_values: np.ndarray) -> RarityThresholds:
    """Fit rarity cut points as the P90, P95 and P99 of the training values.

    Percentiles use linear interpolation between order statistics
    (position 1 + (p/100)(n-1) on the sorted sample).
    """
    arr = np.asarray(train_values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("compute_thresholds: empty input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("compute_thresholds: input must be finite")
    if arr.size < 100:
        warnings.warn(
            f"compute_thresholds: only {arr.size} samples, tail percentiles are unstable",
            stacklevel=2,
        )
    cuts = np.percentile(arr, (90.0, 95.0, 99.0), method="linear")
    return RarityThresholds(float(cuts[0]), float(cuts[1]), float(cuts[2]))


def label_points(values: np.ndarray, thresholds: RarityThresholds) -> np.ndarray:
    """Rarity of each value, the number of cut points it exceeds, as int64 RarityLevel values.

    Boundaries go down: the label of t_extreme is VERY_RARE.
    """
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros(v.shape, dtype=np.int64)
    out += (v > thresholds.t_moderate).astype(np.int64)
    out += (v > thresholds.t_very).astype(np.int64)
    out += (v > thresholds.t_extreme).astype(np.int64)
    return out


def label_point(value: float, thresholds: RarityThresholds) -> RarityLevel:
    """Rarity of a single value, by label_points."""
    return RarityLevel(int(label_points(value, thresholds)))


@dataclass(frozen=True, eq=False)
class Windows:
    """N forecasting windows: histories (N, T), targets (N, H), target labels.

    Row i of every array belongs to window i. window_levels is derived here:
    each window's rarity, the max over its point levels. All arrays are
    read-only.
    """

    histories: np.ndarray
    targets: np.ndarray
    point_levels: np.ndarray
    window_levels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        hist, targ = _readonly(self.histories), _readonly(self.targets)
        plev = _readonly(self.point_levels, np.int64)
        if hist.ndim != 2 or targ.ndim != 2 or plev.shape != targ.shape:
            raise ValueError("Windows: histories/targets must be 2-d, labels match targets")
        if hist.shape[0] != targ.shape[0]:
            raise ValueError("Windows: every array needs one row per window")
        wlev = plev.max(axis=1, initial=0)
        wlev.flags.writeable = False
        object.__setattr__(self, "histories", hist)
        object.__setattr__(self, "targets", targ)
        object.__setattr__(self, "point_levels", plev)
        object.__setattr__(self, "window_levels", wlev)

    def __len__(self) -> int:
        return int(self.window_levels.shape[0])

    def __getitem__(self, key) -> "Windows":
        """Rows selected by a slice, an index array, or a boolean mask."""
        if isinstance(key, (int, np.integer)):
            raise TypeError("Windows: select rows with a slice, index array or mask, not an int")
        return Windows(self.histories[key], self.targets[key], self.point_levels[key])


def window_view(values: np.ndarray, length: int, stride: int = 1) -> np.ndarray:
    """Read-only (N, length) view of a 1-d series; row w starts at w * stride."""
    return np.lib.stride_tricks.sliding_window_view(values, length)[::stride]


def make_windows(
    series: TimeSeries,
    history_len: int,
    horizon: int,
    stride: int,
    thresholds: RarityThresholds,
) -> Windows:
    """Slide a (history, target) window over the series.

    Yields floor((L - T - H) / stride) + 1 windows; target labels come from
    the supplied thresholds, and Windows derives each window's level from them.
    """
    if history_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("make_windows: history_len, horizon, stride must be positive")
    n = len(series)
    if n < history_len + horizon:
        raise ValueError(
            f"make_windows: series of length {n} is shorter than T+H={history_len + horizon}"
        )
    w = window_view(series.values, history_len + horizon, stride)
    targets = w[:, history_len:]
    return Windows(w[:, :history_len], targets, label_points(targets, thresholds))


@dataclass(frozen=True)
class Normalizer:
    """Affine map x -> (x - mean) / std. Identity is Normalizer(0.0, 1.0)."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError("Normalizer: mean/std must be finite")
        if self.std <= 0.0:
            raise ValueError(f"Normalizer: std must be positive, got {self.std}")

    @classmethod
    def fit(cls, train_values: np.ndarray, mode: str = "zscore") -> "Normalizer":
        if mode == "identity":
            return cls(0.0, 1.0)
        if mode != "zscore":
            raise ValueError(f"Normalizer.fit: unknown mode {mode!r}")
        arr = np.asarray(train_values, dtype=np.float64)
        std = float(arr.std())
        if std == 0.0:
            raise ValueError("Normalizer.fit: constant training values, use identity mode")
        return cls(float(arr.mean()), std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean


# Fixed shape of the synthetic generator. The recurrence below is a contract:
# tests rebuild the spike-free base from this exact recipe and stream layout.
# Its loop runs on Python floats, one multiply and one add per step, each
# rounded as numpy rounds the same float64 operation, so every point keeps
# the bits of the element-wise numpy recurrence.
# Pulses decay slowly so exceedances form multi-step episodes, the way real
# extreme events (pollution peaks, storm swells) persist across a horizon.
_SYNTH_PHI = 0.95
_SYNTH_SIGMA = 0.28
_SYNTH_SEASON = ((1.0, 48.0, 0.0), (0.6, 173.0, 1.3))  # (amplitude, period, phase)
_SYNTH_PULSE_DECAY = 0.95
_SYNTH_PULSE_LEN = 64
_SYNTH_AMP_SIGMA = 0.5
_SYNTH_BASE_STREAM = 11
_SYNTH_SPIKE_STREAM = 13


def synth_base(seed: int, n: int) -> np.ndarray:
    """Spike-free part of the synthetic series: seasonal sum plus AR(1) noise.

    ar[0] = sigma * eps[0]; ar[t] = phi * ar[t-1] + sigma * eps[t], with eps
    drawn in one batch from substream (seed, DATA, 11). n must be at least 1.
    """
    if n < 1:
        raise ValueError(f"synth_base: n must be >= 1, got {n}")
    rng = substream(seed, DATA, _SYNTH_BASE_STREAM)
    shocks = (_SYNTH_SIGMA * rng.standard_normal(n)).tolist()
    phi, a = _SYNTH_PHI, shocks[0]
    ar = [a]
    for s in shocks[1:]:
        a = phi * a + s
        ar.append(a)
    t_idx = np.arange(n, dtype=np.float64)
    season = np.zeros(n)
    for amp, period, phase in _SYNTH_SEASON:
        season += amp * np.sin(2.0 * np.pi * t_idx / period + phase)
    return season + np.array(ar)


def synth_generate(
    seed: int, n: int, spike_rate: float = 0.02, spike_scale: float = 5.0
) -> TimeSeries:
    """Deterministic synthetic series with heavy-tailed positive spike pulses.

    Bernoulli(spike_rate) onsets carry lognormal amplitudes and decay
    geometrically over a short pulse, so exceedances cluster and the upper
    tail is populated. spike_scale multiplies the whole spike component;
    zero gives exactly the base process. Spike draws come from substream
    (seed, DATA, 13), independent of the base stream.
    """
    if n < 1000:
        raise ValueError(f"synth_generate: n must be >= 1000, got {n}")
    if not 0.0 < spike_rate < 0.05:
        raise ValueError(f"synth_generate: spike_rate must be in (0, 0.05), got {spike_rate}")
    if not (math.isfinite(spike_scale) and spike_scale >= 0.0):
        raise ValueError(f"synth_generate: spike_scale must be finite and >= 0, got {spike_scale}")
    base = synth_base(seed, n)
    rng = substream(seed, DATA, _SYNTH_SPIKE_STREAM)
    onsets = (rng.random(n) < spike_rate).astype(np.float64)
    amps = 1.0 + rng.lognormal(mean=0.0, sigma=_SYNTH_AMP_SIGMA, size=n)
    kernel = _SYNTH_PULSE_DECAY ** np.arange(_SYNTH_PULSE_LEN, dtype=np.float64)
    pulses = np.convolve(onsets * amps, kernel)[:n]
    return TimeSeries(base + spike_scale * pulses, name=f"synth-{seed}")
