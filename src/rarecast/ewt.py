"""Adaptive spectral band decomposition with a partition-of-unity filter bank.

The half spectrum [0, pi] is segmented by detecting the largest local maxima
of the magnitude spectrum and placing interior boundaries at midpoints of
adjacent maxima. Each band gets a raised-cosine bandpass filter; adjacent
filters crossfade so that the gains sum to one at every bin, which makes the
band components add back to the input exactly. This is a partition of unity,
not a tight frame: sum of gains is 1, sum of squared gains is not.

Bin j of an n_bins half spectrum is assigned the normalized frequency
pi * j / (n_bins - 1).

A bank depends only on its bin count, its gamma and its boundary row, and
windows share few distinct boundary rows, so built banks are kept in one
process-wide memo of bounded size and looked up before any is built.

A single window, the shape of one forecast request, takes a one-row path:
its peaks are found and ranked on the magnitude spectrum as Python floats
(_row_boundaries, which also completes every fallback row of a batch), and
its boundary row is looked up in the memo directly rather than through the
batch's row deduplication and gather. Both give the batch path's bits.

decompose_windows and decompose_with_bank return (N, n_bands, T)
components stored band-major: the memory is one (n_bands, N, T) array and
the caller gets its transpose(1, 0, 2) view, so each band's rows are one
contiguous (N, T) block for the expert matmuls. The result is allocated
once and filled in blocks of _BLOCK_ROWS rows. A block of enough rows is
cut into contiguous row ranges, one per usable CPU (rarecast.parallel),
and each range runs on its own thread: its spectra and boundaries are
found, its distinct banks looked up or built, and its rows filtered
_APPLY_ROWS at a time, inverted straight into its slice of the result's
columns. Everything else a range builds is dropped when it returns, so
the working memory beyond the result stays that of one block whatever N
is and however many threads share it. A row's components depend on that
row alone, so neither blocks nor ranges change a bit; a one-row range or
tail block takes the one-row path, which matches the batch path. Each
range returns its fallback and clamp counts; the caller sums them and
warns once per call, so no thread but the caller's ever warns. decompose
is the one-row case of decompose_with_bank.

The module is numerics only and does no file I/O; `rarecast ewt-dump`
writes a bank's gains as rows of a CSV.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import parallel


@dataclass(frozen=True, eq=False)
class Boundaries:
    """Band edges on [0, pi]: omegas[0] = 0, omegas[-1] = pi, strictly increasing."""

    omegas: np.ndarray

    def __post_init__(self) -> None:
        om = np.array(self.omegas, dtype=np.float64, copy=True)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("Boundaries: need at least [0, pi]")
        if om[0] != 0.0 or abs(om[-1] - np.pi) > 1e-12:
            raise ValueError("Boundaries: first edge must be 0 and last pi")
        if not np.all(np.diff(om) > 0.0):
            raise ValueError("Boundaries: edges must be strictly increasing")
        om.flags.writeable = False
        object.__setattr__(self, "omegas", om)

    @property
    def n_bands(self) -> int:
        return int(self.omegas.size - 1)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Per-band gains over the half-spectrum bins, rows summing to one."""

    filters: np.ndarray  # (n_bands, n_bins), values in [0, 1]
    boundaries: Boundaries
    gamma: float  # effective transition ratio after clamping

    def __post_init__(self) -> None:
        f = np.array(self.filters, dtype=np.float64, copy=True)
        if f.ndim != 2 or f.shape[0] != self.boundaries.n_bands:
            raise ValueError("FilterBank: filters must be (n_bands, n_bins)")
        f.flags.writeable = False
        object.__setattr__(self, "filters", f)

    @property
    def n_bands(self) -> int:
        return int(self.filters.shape[0])

    @property
    def n_bins(self) -> int:
        return int(self.filters.shape[1])


@dataclass(frozen=True, eq=False)
class BandComponents:
    """Stacked time-domain band signals, one row per band."""

    components: np.ndarray  # (n_bands, length)

    def __post_init__(self) -> None:
        c = np.array(self.components, dtype=np.float64, copy=True)
        if c.ndim != 2:
            raise ValueError("BandComponents: expected a (n_bands, length) array")
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    @property
    def n_bands(self) -> int:
        return int(self.components.shape[0])


@functools.lru_cache
def bin_frequencies(n_bins: int) -> np.ndarray:
    """Normalized frequency of each half-spectrum bin, linear on [0, pi].

    Cached per n_bins and shared between callers, hence read-only.
    """
    if n_bins < 2:
        raise ValueError("bin_frequencies: need at least 2 bins")
    freqs = np.linspace(0.0, np.pi, n_bins)
    freqs.flags.writeable = False
    return freqs


@functools.lru_cache
def _bin_frequency_list(n_bins: int) -> tuple[float, ...]:
    """bin_frequencies(n_bins) as Python floats, for the one-row detector."""
    return tuple(bin_frequencies(n_bins).tolist())


def _row_boundaries(mag: list[float], n_bands: int) -> tuple[list[float], bool]:
    """Edges (n_bands + 1) of one row from its magnitude spectrum, and whether it fell back.

    The batch detector's rules on Python floats: strict interior maxima,
    ranked by magnitude with ties to the lower bin (a stable sort), the
    n_bands largest kept and boundaries at midpoints of adjacent kept maxima.
    With fewer maxima the widest band (the first, on equal widths) is halved
    until the count is reached. The sums, halvings and differences are the
    float64 operations the batch path performs, so the bits agree.
    """
    freqs = _bin_frequency_list(len(mag))
    peaks = [j for j in range(1, len(mag) - 1) if mag[j - 1] < mag[j] > mag[j + 1]]
    kept = sorted(sorted(peaks, key=mag.__getitem__, reverse=True)[:n_bands])
    edges = [0.0]
    edges.extend(0.5 * (freqs[a] + freqs[b]) for a, b in zip(kept, kept[1:]))
    edges.append(math.pi)
    while len(edges) < n_bands + 1:
        widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
        w = widths.index(max(widths))
        edges.insert(w + 1, 0.5 * (edges[w] + edges[w + 1]))
    return edges, len(kept) < n_bands


def _detect_boundaries_batch(signals: np.ndarray, n_bands: int) -> tuple[np.ndarray, int]:
    """Boundary edges (N, n_bands + 1) for each row of signals.

    Peak detection runs on the magnitude spectrum of the mean-removed row
    (the DC bin would otherwise dominate). Strict local maxima only, DC and
    Nyquist excluded; ties broken toward the lower frequency. Rows with too
    few maxima are completed by halving the widest band; the second return
    value counts such rows. A single row, and each fallback row of a batch,
    goes through _row_boundaries; the other rows of a batch are ranked in
    one stable argsort.
    """
    x = np.asarray(signals, dtype=np.float64)
    n, t = x.shape
    if t < 2 * n_bands:
        raise ValueError(f"detect_boundaries: signal length {t} < 2 * n_bands = {2 * n_bands}")
    if n_bands == 1:
        return np.tile([0.0, np.pi], (n, 1)), 0

    # x.mean(axis=1)'s own sum and division, without its Python wrapper
    mag = np.abs(np.fft.rfft(x - np.add.reduce(x, axis=1, keepdims=True) / t, axis=1))
    if n == 1:
        edges, fell_back = _row_boundaries(mag[0].tolist(), n_bands)
        return np.array([edges]), int(fell_back)
    freqs = bin_frequencies(mag.shape[1])
    # Strict interior maxima; a plateau never counts.
    is_max = np.zeros_like(mag, dtype=bool)
    is_max[:, 1:-1] = (mag[:, 1:-1] > mag[:, :-2]) & (mag[:, 1:-1] > mag[:, 2:])
    score = np.where(is_max, mag, -np.inf)
    # Stable sort on the negated score keeps equal magnitudes in bin order,
    # which is exactly the lower-frequency tie break.
    order = np.argsort(-score, axis=1, kind="stable")

    # Rows with enough maxima: midpoints of adjacent kept peaks, all at once.
    omegas = np.empty((n, n_bands + 1))
    omegas[:, 0] = 0.0
    omegas[:, -1] = np.pi
    peaks = freqs[np.sort(order[:, :n_bands], axis=1)]
    omegas[:, 1:-1] = 0.5 * (peaks[:, :-1] + peaks[:, 1:])

    fallback = np.flatnonzero(is_max.sum(axis=1) < n_bands)
    for i in fallback:
        omegas[i], _ = _row_boundaries(mag[i].tolist(), n_bands)
    return omegas, int(fallback.size)


def detect_boundaries(signal: np.ndarray, n_bands: int) -> Boundaries:
    """Segment [0, pi] into n_bands bands adapted to one signal's spectrum.

    Keeps the n_bands largest-magnitude strict local maxima and places the
    n_bands - 1 interior boundaries at midpoints of adjacent kept maxima.
    If the spectrum offers fewer maxima, the widest band is subdivided until
    the count is reached and a warning is emitted.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("detect_boundaries: expected a 1-d signal")
    if n_bands < 1:
        raise ValueError("detect_boundaries: n_bands must be >= 1")
    omegas, n_fallback = _detect_boundaries_batch(x[None, :], n_bands)
    if n_fallback:
        warnings.warn(
            f"detect_boundaries: fewer than {n_bands} spectral maxima, "
            "padded by subdividing the widest band",
            stacklevel=2,
        )
    return Boundaries(omegas[0])


def max_transition_ratio(omegas: np.ndarray) -> np.ndarray:
    """Largest feasible gamma per boundary row: min over adjacent edge pairs
    of (w_hi - w_lo) / (w_hi + w_lo). Keeps raised-cosine transitions of
    half-width gamma * omega_b from overlapping each other or the segment ends.
    """
    om = np.atleast_2d(np.asarray(omegas, dtype=np.float64))
    lo, hi = om[:, :-1], om[:, 1:]
    ratio = (hi - lo) / (hi + lo)
    return ratio.min(axis=1)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d array and the inverse index, so that uniq[inv] == a.

    A lexsort and an adjacent-row compare: np.unique(axis=0) gives the same
    answer at several times the cost, which would eat the saving it buys.
    """
    n = a.shape[0]
    if n <= 1:
        return a, np.zeros(n, dtype=np.intp)
    order = np.lexsort(a.T)
    ranked = a[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(n, dtype=np.intp)
    inv[order] = new.cumsum() - 1
    return ranked[new], inv


def _check_gamma(gamma: float | None, caller: str) -> None:
    if gamma is not None and not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"{caller}: gamma must be None or finite and >= 0, got {gamma}")


# Filter bytes the bank memo may hold; it empties when a new bank would overflow it.
_MEMO_BYTES = 32 * 2**20


class _BankMemo:
    """Built banks by (n_bins, gamma, boundary-row bytes): read-only filters and effective gamma.

    One memo serves the whole process. A bank is a function of its key alone,
    so sharing it between callers changes what a call costs, never what it
    returns. The lock keeps the byte count true when threads insert at once.
    """

    def __init__(self) -> None:
        self._banks: dict[tuple, tuple[np.ndarray, float]] = {}
        self._nbytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._banks)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def get(self, key: tuple) -> tuple[np.ndarray, float] | None:
        return self._banks.get(key)

    def put(self, key: tuple, filters: np.ndarray, gamma: float) -> None:
        f = filters.copy()
        f.flags.writeable = False
        with self._lock:
            if key in self._banks or f.nbytes > _MEMO_BYTES:
                return
            if self._nbytes + f.nbytes > _MEMO_BYTES:
                self._banks.clear()
                self._nbytes = 0
            self._banks[key] = (f, float(gamma))
            self._nbytes += f.nbytes

    def clear(self) -> None:
        with self._lock:
            self._banks.clear()
            self._nbytes = 0


_memo = _BankMemo()


def _filters_for_rows(
    om: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Filters (U, n_bands, n_bins) and effective gammas (U,) built for each boundary row.

    Band b is the difference of two cumulative rising edges, so the rows of
    each bank telescope to one at every bin. All edges of all rows are one
    broadcast; each row's bank depends on that row alone.
    """
    n_bands = om.shape[1] - 1
    freqs = bin_frequencies(n_bins)
    feasible = max_transition_ratio(om)
    if gamma is None:
        gam = 0.5 * feasible
    else:
        gam = np.full(om.shape[0], float(gamma))
        gam = np.where(gam > feasible, feasible, gam)

    # Cumulative edges: ups[:, 0] = 1 (no lower edge for band 1), ups[:, B] = 0
    # (band B runs through pi). Interior edge k rises from 0 to 1 around
    # omega_k over half-width gam * omega_k.
    ups = np.empty((om.shape[0], n_bands + 1, n_bins))
    ups[:, 0, :] = 1.0
    ups[:, n_bands, :] = 0.0
    center = om[:, 1:n_bands, None]
    width = gam[:, None, None] * center
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((freqs - (center - width)) / (2.0 * width), 0.0, 1.0)
    hard = (freqs >= center).astype(np.float64)
    ups[:, 1:n_bands, :] = np.where(width > 0.0, 0.5 * (1.0 - np.cos(np.pi * s)), hard)
    return ups[:, :-1, :] - ups[:, 1:, :], gam


def _bank_rows(
    omegas: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, int]:
    """Distinct banks (n_bands, U, n_bins), each row's bank index, effective gammas and clamp count.

    gamma None means half of the feasible maximum per row; an explicit gamma
    is clamped down per row when infeasible (count of clamped rows returned).
    gamma 0 gives hard masks with the convention that a bin exactly on a
    boundary joins the upper band. A single row is looked up in the bank memo
    directly, and its bank (U = 1) comes back with index None: a hit is the
    memo's read-only array. Otherwise each distinct row is looked up and the
    misses are built in one _filters_for_rows call, into a new array.
    """
    om = np.asarray(omegas, dtype=np.float64)
    # float.hex keeps -0.0 apart from 0.0, whose effective gammas differ in sign
    gamma_key = None if gamma is None else float(gamma).hex()
    if om.shape[0] == 1:
        key = (n_bins, gamma_key, om[0].tobytes())
        hit = _memo.get(key)
        if hit is None:
            filters, gam = _filters_for_rows(om, n_bins, gamma)
            _memo.put(key, filters[0], gam[0])
            banks = filters.transpose(1, 0, 2)
        else:
            banks, gam = hit[0][:, None, :], np.array([hit[1]])
        n_clamped = 0 if gamma is None else int(gam[0] < gamma)
        return banks, None, gam, n_clamped

    om, inv = _unique_rows(om)
    keys = [(n_bins, gamma_key, row.tobytes()) for row in om]
    banks = np.empty((om.shape[1] - 1, om.shape[0], n_bins))
    filters = banks.transpose(1, 0, 2)
    gam = np.empty(om.shape[0])
    miss = []
    for i, key in enumerate(keys):
        hit = _memo.get(key)
        if hit is None:
            miss.append(i)
        else:
            filters[i], gam[i] = hit
    if miss:
        filters[miss], gam[miss] = _filters_for_rows(om[miss], n_bins, gamma)
        for i in miss:
            _memo.put(keys[i], filters[i], gam[i])
    gam = gam[inv]
    n_clamped = 0 if gamma is None else int(np.count_nonzero(gam < gamma))
    return banks, inv, gam, n_clamped


def _build_filters_batch(
    omegas: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Filter tensors (N, n_bands, n_bins) for each boundary row, stored band-major.

    _bank_rows with each row's bank gathered into a new array, so no caller
    holds a memo array; the result is the transpose(1, 0, 2) view of an
    (n_bands, N, n_bins) array.
    """
    banks, inv, gam, n_clamped = _bank_rows(omegas, n_bins, gamma)
    filters = banks.copy() if inv is None else np.take(banks, inv, axis=1)
    return filters.transpose(1, 0, 2), gam, n_clamped


def build_filter_bank(
    boundaries: Boundaries, n_bins: int, gamma: float | None = None
) -> FilterBank:
    """Raised-cosine partition-of-unity bank over n_bins half-spectrum bins.

    gamma is the transition half-width as a fraction of the boundary
    frequency. None picks half of the feasible maximum; a value above the
    feasible maximum is clamped down with a warning; zero yields hard masks.
    """
    _check_gamma(gamma, "build_filter_bank")
    filters, gam, n_clamped = _build_filters_batch(boundaries.omegas[None, :], n_bins, gamma)
    if n_clamped:
        warnings.warn(
            f"build_filter_bank: gamma {gamma} infeasible for these boundaries, "
            f"clamped to {gam[0]:.6g}",
            stacklevel=2,
        )
    return FilterBank(filters=filters[0], boundaries=boundaries, gamma=float(gam[0]))


# Rows decomposed at once, over every thread. At T = 64 and 4 bands a block's
# transients come to about 6 MiB on one thread and 8 MiB on two, and a
# 4,096-window forecast batch stays one block.
_BLOCK_ROWS = 4096
# Rows whose banks are gathered and whose complex band products are formed at
# once: the largest transients, and the reason they stay small.
_APPLY_ROWS = 512


def _apply_filters(
    signals: np.ndarray, banks: np.ndarray, inv: np.ndarray | None, out: np.ndarray
) -> None:
    """Band-major components (n_bands, N, T) of signals (N, T) written into out.

    Row i is filtered by banks[:, inv[i]], banks being (n_bands, U, n_bins);
    with inv None the one bank of banks (U = 1) filters every row. out is an
    (n_bands, N, T) array or column slice. Rows go _APPLY_ROWS at a time, so
    the gathered banks and the complex band products held at once stay small
    whatever N is.
    """
    if len(signals) > _APPLY_ROWS:
        for c in range(0, len(signals), _APPLY_ROWS):
            rows = slice(c, c + _APPLY_ROWS)
            _apply_filters(signals[rows], banks, None if inv is None else inv[rows], out[:, rows])
        return
    filters = banks if inv is None else np.take(banks, inv, axis=1)
    spec = np.fft.rfft(signals, axis=-1)
    np.fft.irfft(spec[None] * filters, n=signals.shape[-1], axis=-1, out=out)


def decompose(signal: np.ndarray, bank: FilterBank) -> BandComponents:
    """Split a signal into additive band components via the given bank.

    The one-row case of decompose_with_bank: the bank must have been built
    for this signal length, and a single-band bank is the identity.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("decompose: expected a 1-d signal")
    return BandComponents(decompose_with_bank(x[None, :], bank)[0])


def decompose_windows(
    signals: np.ndarray, n_bands: int, gamma: float | None = None
) -> np.ndarray:
    """Per-window decomposition of stacked signals (N, T) into (N, n_bands, T).

    Each row gets its own boundaries and bank, matching detect_boundaries +
    build_filter_bank + decompose row by row. The result is a band-major
    (n_bands, N, T) array's transpose(1, 0, 2) view. Rows run in blocks of
    _BLOCK_ROWS, each spread over threads in row ranges; fallback subdivision
    and gamma clamping warnings are each aggregated over the whole call into
    one message.
    """
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("decompose_windows: expected a (N, T) array")
    _check_gamma(gamma, "decompose_windows")
    if n_bands == 1:
        return x[:, None, :].copy()
    n, t = x.shape
    out = np.empty((n_bands, n, t))

    def part(lo: int, hi: int) -> tuple[int, int]:
        rows = x[lo:hi]
        omegas, n_fallback = _detect_boundaries_batch(rows, n_bands)
        banks, inv, _, n_clamped = _bank_rows(omegas, t // 2 + 1, gamma)
        _apply_filters(rows, banks, inv, out[:, lo:hi])
        return n_fallback, n_clamped

    n_fallback = n_clamped = 0
    # An empty batch still runs one (empty) block, so its length is checked too.
    for s in range(0, max(n, 1), _BLOCK_ROWS):
        for part_fallback, part_clamped in parallel.spread(part, s, min(s + _BLOCK_ROWS, n)):
            n_fallback += part_fallback
            n_clamped += part_clamped
    if n_fallback:
        warnings.warn(
            f"decompose_windows: {n_fallback} of {n} windows had fewer than "
            f"{n_bands} spectral maxima, padded by subdividing the widest band",
            stacklevel=2,
        )
    if n_clamped:
        warnings.warn(
            f"decompose_windows: gamma {gamma} infeasible for {n_clamped} of {n} "
            "windows, clamped to each window's feasible maximum",
            stacklevel=2,
        )
    return out.transpose(1, 0, 2)


def decompose_with_bank(signals: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Decompose stacked signals (N, T) with one shared bank into (N, n_bands, T).

    The bank must have been built for length T. A single-band bank is the
    identity and returns a copy. The result is band-major and rows run in
    blocks of _BLOCK_ROWS spread over threads, as in decompose_windows.
    """
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("decompose_with_bank: expected a (N, T) array")
    n_bins = x.shape[1] // 2 + 1
    if n_bins != bank.n_bins:
        raise ValueError(
            f"decompose_with_bank: signals of length {x.shape[1]} have {n_bins} spectrum "
            f"bins, the bank was built for {bank.n_bins}"
        )
    if bank.n_bands == 1:
        return x[:, None, :].copy()
    out = np.empty((bank.n_bands,) + x.shape)

    def part(lo: int, hi: int) -> None:
        _apply_filters(x[lo:hi], bank.filters[:, None, :], None, out[:, lo:hi])

    n = x.shape[0]
    for s in range(0, n, _BLOCK_ROWS):
        parallel.spread(part, s, min(s + _BLOCK_ROWS, n))
    return out.transpose(1, 0, 2)


def reconstruct(components: BandComponents | np.ndarray) -> np.ndarray:
    """Sum the band components back into one signal."""
    c = components.components if isinstance(components, BandComponents) else np.asarray(components)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("reconstruct: expected (n_bands, length) components")
    return c.sum(axis=0)
