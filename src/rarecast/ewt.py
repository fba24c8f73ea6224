"""Adaptive spectral band decomposition with a partition-of-unity filter bank.

The half spectrum [0, pi] is segmented by detecting the largest local maxima
of the magnitude spectrum and placing interior boundaries at midpoints of
adjacent maxima. Each band gets a raised-cosine bandpass filter; adjacent
filters crossfade so that the gains sum to one at every bin, which makes the
band components add back to the input exactly. This is a partition of unity,
not a tight frame: sum of gains is 1, sum of squared gains is not.

Bin j of an n_bins half spectrum is assigned the normalized frequency
pi * j / (n_bins - 1).

Each window is transformed once. Its one rfft serves both steps: peaks are
detected on its magnitudes with the DC bin set to 0.0, which is what
removing the window's mean does to a spectrum, and the same spectrum is
filtered by the window's bank. At every other bin the mean-removed
spectrum differs from it only by rounding, so the two could rank a
window's peaks differently only where two of its magnitudes are equal to
the last bit. None did over 1.2 million z-scored windows of T = 64 from
ten synthetic series at 2 to 8 bands. The n_bands largest maxima are
picked by n_bands argmax passes rather than by sorting every bin.

A window's boundaries, and so its bank, are a function of the set of
peaks it keeps alone, given n_bins, n_bands and gamma: that set, sorted
and padded with 0 in front for a fallback row (bin 0 is never a peak), is
the bank's key. It is packed into one int64 when n_bands bins fit, and is
otherwise the bins' bytes, so every key is exact. Windows share few peak
sets, so built banks are kept in one process-wide memo: per (n_bins,
n_bands, gamma) a dict from key to slot and one filter table, reserved at
the memo's byte budget so it never grows by copying. A batch finds its
distinct keys with np.unique, looks up only those, computes boundaries and
builds banks only for the misses, and gathers each row's bank from the
table by slot. A table that would overflow is replaced by a new one, never
rewritten, so a call on another thread never reads a changed slot.

A single window, the shape of one forecast request, takes a one-row path:
its peaks are found and ranked on the magnitude spectrum as Python floats
(_row_peaks; _peak_edges, which turns them into boundaries, also completes
every fallback row of a batch), and its key is one dict lookup, with no
np.unique or gather. Both give the batch path's keys and bits.

decompose_windows and decompose_with_bank return (n_bands, N, T)
components: one contiguous (N, T) block per band, the layout the expert
matmuls read. The result is allocated once and filled in blocks of
_BLOCK_ROWS rows. A block of enough rows is cut into contiguous row
ranges, one per usable CPU (rarecast.parallel), and each range runs on its
own thread: its spectra are taken and its peaks found on them, its
distinct banks looked up or built, and those spectra filtered _APPLY_ROWS
rows at a time, inverted straight into its slice of the result's columns.
Everything else a range builds is dropped when it returns, so the working
memory beyond the result and the memo stays that of one block whatever N
is and however many threads share it.
A row's components depend on that row alone, so neither blocks nor ranges
change a bit; a one-row range or tail block takes the one-row path, which
matches the batch path. Each range returns its fallback and clamp counts;
the caller sums them and warns once per call, so no thread but the
caller's ever warns. decompose is the one-row case of decompose_with_bank.

The module is numerics only and does no file I/O; `rarecast ewt-dump`
writes a bank's gains as rows of a CSV.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import warnings
from collections.abc import Callable
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


def _row_peaks(mag: list[float], n_bands: int) -> list[int]:
    """Kept peak bins of one row's magnitude spectrum, ascending.

    The batch detector's rules on Python floats: strict interior maxima,
    ranked by magnitude with ties to the lower bin (a stable sort), and the
    n_bands largest kept.
    """
    peaks = [j for j in range(1, len(mag) - 1) if mag[j - 1] < mag[j] > mag[j + 1]]
    return sorted(sorted(peaks, key=mag.__getitem__, reverse=True)[:n_bands])


def _peak_edges(kept: list[int], n_bins: int, n_bands: int) -> list[float]:
    """Edges (n_bands + 1) of a row from its kept peak bins, ascending.

    Boundaries sit at midpoints of adjacent kept peaks. With fewer than
    n_bands peaks the widest band (the first, on equal widths) is halved until
    the count is reached. The sums, halvings and differences are the float64
    operations the batch path performs, so the bits agree.
    """
    freqs = _bin_frequency_list(n_bins)
    edges = [0.0]
    edges.extend(0.5 * (freqs[a] + freqs[b]) for a, b in zip(kept, kept[1:]))
    edges.append(math.pi)
    while len(edges) < n_bands + 1:
        widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
        w = widths.index(max(widths))
        edges.insert(w + 1, 0.5 * (edges[w] + edges[w + 1]))
    return edges


def _spectrum_peaks(spec: np.ndarray, n_bands: int) -> np.ndarray:
    """Kept peak bins (N, n_bands) of each row of spectra (N, n_bins), ascending.

    Peaks are found on |spec| with the DC bin set to 0.0, which is what
    removing each row's mean does to its spectrum (the DC bin would
    otherwise dominate). Strict local maxima only, DC and Nyquist excluded,
    so bin 0 is never a peak: a row with fewer than n_bands maxima (a
    fallback row) is padded with 0 in front. A single row is ranked by
    _row_peaks. The rows of a batch keep their n_bands largest maxima in
    n_bands argmax passes, each masking its pick to -inf; argmax returns the
    lowest bin among equal values, which is the lower-frequency tie break of
    a stable sort, and bin 0 once a row's maxima are all taken.
    """
    mag = np.abs(spec)
    mag[:, 0] = 0.0
    n = mag.shape[0]
    if n == 1:
        kept = _row_peaks(mag[0].tolist(), n_bands)
        return np.array([[0] * (n_bands - len(kept)) + kept])
    # Strict interior maxima; a plateau never counts.
    is_max = np.zeros_like(mag, dtype=bool)
    is_max[:, 1:-1] = (mag[:, 1:-1] > mag[:, :-2]) & (mag[:, 1:-1] > mag[:, 2:])
    score = np.where(is_max, mag, -np.inf)
    picks = np.empty((n, n_bands), dtype=np.intp)
    rows = np.arange(n)
    for b in range(n_bands):
        picks[:, b] = score.argmax(axis=1)
        score[rows, picks[:, b]] = -np.inf
    return np.sort(picks, axis=1)


def _peak_boundaries(peaks: np.ndarray, n_bins: int) -> np.ndarray:
    """Boundary edges (M, n_bands + 1) of rows of kept peaks as _spectrum_peaks gives them.

    Midpoints of adjacent kept peaks, all rows at once; a fallback row is
    completed by _peak_edges.
    """
    n_bands = peaks.shape[1]
    omegas = np.empty((peaks.shape[0], n_bands + 1))
    omegas[:, 0] = 0.0
    omegas[:, -1] = np.pi
    freqs = bin_frequencies(n_bins)[peaks]
    omegas[:, 1:-1] = 0.5 * (freqs[:, :-1] + freqs[:, 1:])
    for i in np.flatnonzero(peaks[:, 0] == 0):
        omegas[i] = _peak_edges([p for p in peaks[i].tolist() if p], n_bins, n_bands)
    return omegas


def _detect_boundaries_batch(signals: np.ndarray, n_bands: int) -> tuple[np.ndarray, int]:
    """Boundary edges (N, n_bands + 1) for each row of signals, and the fallback count.

    One rfft per row, _spectrum_peaks and _peak_boundaries. The rows' own
    spectra with the DC bin zeroed stand in for the spectra of the
    mean-removed rows, whose DC bin is zero and whose other bins equal the
    rows' own up to rounding; so a row's peaks could rank differently only
    where two of its magnitudes are equal to the last bit.
    """
    x = np.asarray(signals, dtype=np.float64)
    n, t = x.shape
    if t < 2 * n_bands:
        raise ValueError(f"detect_boundaries: signal length {t} < 2 * n_bands = {2 * n_bands}")
    if n_bands == 1:
        return np.tile([0.0, np.pi], (n, 1)), 0
    peaks = _spectrum_peaks(np.fft.rfft(x, axis=1), n_bands)
    return _peak_boundaries(peaks, t // 2 + 1), int(np.count_nonzero(peaks[:, 0] == 0))


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


def _check_gamma(gamma: float | None, caller: str) -> None:
    if gamma is not None and not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"{caller}: gamma must be None or finite and >= 0, got {gamma}")


def _filters_for_rows(
    om: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Filters (n_bands, U, n_bins) and effective gammas (U,) built for each boundary row.

    Band b is the difference of two cumulative rising edges, so the bands of
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

    # Cumulative edges: ups[0] = 1 (no lower edge for band 1), ups[B] = 0
    # (band B runs through pi). Interior edge k rises from 0 to 1 around
    # omega_k over half-width gam * omega_k.
    ups = np.empty((n_bands + 1, om.shape[0], n_bins))
    ups[0] = 1.0
    ups[n_bands] = 0.0
    center = om.T[1:n_bands, :, None]
    width = gam[:, None] * center
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((freqs - (center - width)) / (2.0 * width), 0.0, 1.0)
    hard = (freqs >= center).astype(np.float64)
    ups[1:n_bands] = np.where(width > 0.0, 0.5 * (1.0 - np.cos(np.pi * s)), hard)
    return ups[:-1] - ups[1:], gam


def _key_bits(n_bins: int, n_bands: int) -> int:
    """Bits per peak bin in an int64 peak-set key, or 0 when n_bands bins do not fit one."""
    bits = (n_bins - 1).bit_length()
    return bits if bits * n_bands < 64 else 0


def _peak_keys(peaks: np.ndarray, n_bins: int) -> np.ndarray:
    """One exact key per row of kept peaks (N, n_bands): the bins packed into an int64,
    or, when they do not fit one, a void view of them as the narrowest unsigned ints."""
    bits = _key_bits(n_bins, peaks.shape[1])
    if bits:
        key = peaks[:, 0].astype(np.int64)
        for col in peaks.T[1:]:
            key <<= bits
            key |= col
        return key
    narrow = np.ascontiguousarray(peaks, dtype=np.min_scalar_type(n_bins))
    return narrow.view(np.dtype((np.void, narrow.itemsize * peaks.shape[1])))[:, 0]


def _row_key(kept: list[int], n_bins: int, n_bands: int) -> int | bytes:
    """The _peak_keys key of a row from its kept peak bins, ascending, as the memo's dict holds it."""
    padded = [0] * (n_bands - len(kept)) + kept
    bits = _key_bits(n_bins, n_bands)
    if not bits:
        return np.array(padded, dtype=np.min_scalar_type(n_bins)).tobytes()
    key = 0
    for p in padded:
        key = key << bits | p
    return key


# Filter bytes the bank memo may hold over all its tables; each table reserves
# this much when it is made, so it never grows by copying.
_MEMO_BYTES = 32 * 2**20


class _BankTable:
    """Banks of one (n_bins, n_bands, gamma): a slot per peak-set key, filters and effective gammas by slot.

    filters is (size, n_bands, n_bins), slot-major, so the slots in use are
    one leading block of the reserved memory and no more pages than they
    fill are touched. Slots below used are written once and never again, so
    a caller holding a table may gather from it while other threads append
    to it or the memo replaces it.
    """

    def __init__(self, spec: tuple, size: int) -> None:
        n_bins, n_bands, _ = spec
        self.slots: dict[int | bytes, int] = {}
        self.filters = np.empty((size, n_bands, n_bins))
        self.gammas = np.empty(size)
        self.used = 0

    @property
    def nbytes(self) -> int:
        _, n_bands, n_bins = self.filters.shape
        return self.used * n_bands * n_bins * self.filters.itemsize


class _TableMemo:
    """Built banks of the process, one _BankTable per (n_bins, n_bands, gamma key).

    A bank is a function of its table and peak-set key alone, so sharing it
    between callers changes what a call costs, never what it returns.
    Lookups read a table's dict without the lock; the lock keeps tables and
    the byte budget true when threads add banks at once.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple, _BankTable] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return sum(t.used for t in list(self._tables.values()))

    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in list(self._tables.values()))

    def table(self, spec: tuple) -> _BankTable:
        """The table for spec = (n_bins, n_bands, gamma key), or an empty one of its shape."""
        table = self._tables.get(spec)
        return _BankTable(spec, 0) if table is None else table

    def add(
        self, spec: tuple, keys: list, filters: np.ndarray, gammas: np.ndarray
    ) -> tuple[_BankTable, np.ndarray]:
        """A table holding the banks filters (U, n_bands, n_bins) and gammas (U,) of keys, and each key's slot in it.

        Other threads may have added some of the keys since the caller
        looked them up, so the keys the table for spec lacks are found under
        the lock and appended when they fit both it and the budget. Otherwise
        a new table of these banks replaces it, and every other table too
        when the budget needs the room; more banks than the budget holds
        get a table of their own, which the memo does not keep.
        """
        bank_bytes = filters[0].nbytes
        with self._lock:
            table = self.table(spec)
            slots = np.fromiter(map(table.slots.get, keys, itertools.repeat(-1)), np.intp, len(keys))
            need = np.flatnonzero(slots < 0)
            lo, hi = table.used, table.used + need.size
            if hi <= table.gammas.size and self.nbytes + need.size * bank_bytes <= _MEMO_BYTES:
                table.filters[lo:hi], table.gammas[lo:hi] = filters[need], gammas[need]
                table.slots.update(zip([keys[i] for i in need.tolist()], range(lo, hi)))
                table.used = hi
                slots[need] = np.arange(lo, hi)
                return table, slots
            kept = len(keys) * bank_bytes <= _MEMO_BYTES
            fresh = _BankTable(spec, _MEMO_BYTES // bank_bytes if kept else len(keys))
            fresh.filters[: len(keys)], fresh.gammas[: len(keys)] = filters, gammas
            fresh.used = len(keys)
            if kept:
                fresh.slots = dict(zip(keys, range(len(keys))))
                self._tables.pop(spec, None)
                if self.nbytes + fresh.nbytes > _MEMO_BYTES:
                    self._tables.clear()
                self._tables[spec] = fresh
            return fresh, np.arange(len(keys))

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()


_memo = _TableMemo()


def _memo_spec(n_bins: int, n_bands: int, gamma: float | None) -> tuple:
    # float.hex keeps -0.0 apart from 0.0, whose effective gammas differ in sign
    return n_bins, n_bands, None if gamma is None else float(gamma).hex()


def _bank_slots(
    peaks: np.ndarray, n_bins: int, gamma: float | None
) -> tuple[_BankTable, np.ndarray]:
    """A table holding the bank of every row of kept peaks (N, n_bands), and each row's slot in it.

    The distinct peak-set keys are looked up once each; boundaries are found
    and banks built only for the misses.
    """
    spec = _memo_spec(n_bins, peaks.shape[1], gamma)
    keys, inv = np.unique(_peak_keys(peaks, n_bins), return_inverse=True)
    keys = keys.tolist()
    table = _memo.table(spec)
    slots = np.fromiter(map(table.slots.get, keys, itertools.repeat(-1)), np.intp, len(keys))
    miss = slots < 0
    if miss.any():
        row = np.empty(len(keys), dtype=np.intp)
        row[inv] = np.arange(len(inv))  # a row of each key
        hit = ~miss
        filters, gammas = np.empty((len(keys),) + table.filters.shape[1:]), np.empty(len(keys))
        filters[hit], gammas[hit] = table.filters[slots[hit]], table.gammas[slots[hit]]
        built, gam = _filters_for_rows(_peak_boundaries(peaks[row[miss]], n_bins), n_bins, gamma)
        filters[miss], gammas[miss] = built.transpose(1, 0, 2), gam
        table, slots = _memo.add(spec, keys, filters, gammas)
    return table, slots[inv]


def _row_slot(kept: list[int], n_bins: int, n_bands: int, gamma: float | None) -> tuple[_BankTable, int]:
    """A table holding the bank of a row from its kept peak bins, and the bank's slot: one dict lookup."""
    spec = _memo_spec(n_bins, n_bands, gamma)
    key = _row_key(kept, n_bins, n_bands)
    table = _memo.table(spec)
    slot = table.slots.get(key)
    if slot is None:
        filters, gam = _filters_for_rows(np.array([_peak_edges(kept, n_bins, n_bands)]), n_bins, gamma)
        table, slots = _memo.add(spec, [key], filters.transpose(1, 0, 2), gam)
        slot = int(slots[0])
    return table, slot


def build_filter_bank(
    boundaries: Boundaries, n_bins: int, gamma: float | None = None
) -> FilterBank:
    """Raised-cosine partition-of-unity bank over n_bins half-spectrum bins.

    gamma is the transition half-width as a fraction of the boundary
    frequency. None picks half of the feasible maximum; a value above the
    feasible maximum is clamped down with a warning; zero yields hard masks.
    """
    _check_gamma(gamma, "build_filter_bank")
    filters, gam = _filters_for_rows(boundaries.omegas[None, :], n_bins, gamma)
    if gamma is not None and gam[0] < gamma:
        warnings.warn(
            f"build_filter_bank: gamma {gamma} infeasible for these boundaries, "
            f"clamped to {gam[0]:.6g}",
            stacklevel=2,
        )
    return FilterBank(filters=filters[:, 0], boundaries=boundaries, gamma=float(gam[0]))


# Rows decomposed at once, over every thread. At T = 64 and 4 bands a block's
# transients come to about 6 MiB on one thread and 8 MiB on two, and a
# 4,096-window forecast batch stays one block.
_BLOCK_ROWS = 4096
# Rows whose banks are gathered and whose complex band products are formed at
# once: the largest transients, and the reason they stay small.
_APPLY_ROWS = 512


def _apply_filters(
    spec: np.ndarray, filters: np.ndarray, slots: np.ndarray | None, out: np.ndarray
) -> None:
    """Components (n_bands, N, T) of the rows whose spectra (N, n_bins) are spec, written into out.

    spec is the rfft the boundaries were detected on, filtered as it is: no
    row is transformed a second time. With slots None, filters is one bank
    (n_bands, 1, n_bins) that filters every row; otherwise filters is a
    table (U, n_bands, n_bins) and row i is filtered by filters[slots[i]].
    out is an (n_bands, N, T) array or column slice, and T its last axis.
    Rows go _APPLY_ROWS at a time, so the gathered banks and the complex
    band products held at once stay small whatever N is.
    """
    if len(spec) > _APPLY_ROWS:
        for c in range(0, len(spec), _APPLY_ROWS):
            rows = slice(c, c + _APPLY_ROWS)
            _apply_filters(spec[rows], filters, None if slots is None else slots[rows], out[:, rows])
        return
    if slots is None:
        bands = spec[None] * filters
    else:
        banks = np.take(filters, slots, axis=0).transpose(1, 0, 2)
        # The products laid out band-major like out, which irfft fills fastest.
        bands = np.multiply(spec[None], banks, out=np.empty(banks.shape, dtype=spec.dtype))
    np.fft.irfft(bands, n=out.shape[-1], axis=-1, out=out)


def _blocked(
    x: np.ndarray, n_bands: int, part: Callable[[np.ndarray, np.ndarray], object]
) -> tuple[np.ndarray, list]:
    """Components (n_bands, N, T) of x (N, T), and what each part returned.

    part(rows, out) writes the components of a row range into that range's
    columns of the result. Rows run in blocks of _BLOCK_ROWS, each spread
    over threads in row ranges.
    """
    n = x.shape[0]
    out = np.empty((n_bands,) + x.shape)
    results = []
    for s in range(0, n, _BLOCK_ROWS):
        results += parallel.spread(
            lambda lo, hi: part(x[lo:hi], out[:, lo:hi]), s, min(s + _BLOCK_ROWS, n)
        )
    return out, results


def decompose(signal: np.ndarray, bank: FilterBank) -> BandComponents:
    """Split a signal into additive band components via the given bank.

    The one-row case of decompose_with_bank: the bank must have been built
    for this signal length, and a single-band bank is the identity.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("decompose: expected a 1-d signal")
    return BandComponents(decompose_with_bank(x[None], bank)[:, 0])


def decompose_windows(
    signals: np.ndarray, n_bands: int, gamma: float | None = None
) -> np.ndarray:
    """Per-window decomposition of stacked signals (N, T) into (n_bands, N, T).

    Each row gets its own boundaries and bank, matching detect_boundaries +
    build_filter_bank + decompose row by row. Fallback subdivision and gamma
    clamping warnings are each aggregated over the whole call into one
    message.
    """
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("decompose_windows: expected a (N, T) array")
    if n_bands < 1:
        raise ValueError(f"decompose_windows: n_bands must be >= 1, got {n_bands}")
    _check_gamma(gamma, "decompose_windows")
    if n_bands == 1:
        return x[None].copy()
    n, t = x.shape
    if t < 2 * n_bands:
        raise ValueError(f"decompose_windows: signal length {t} < 2 * n_bands = {2 * n_bands}")

    n_bins = t // 2 + 1

    def part(rows: np.ndarray, out: np.ndarray) -> tuple[int, int]:
        spec = np.fft.rfft(rows, axis=1)
        if len(rows) == 1:
            mag = np.abs(spec[0]).tolist()
            mag[0] = 0.0
            kept = _row_peaks(mag, n_bands)
            table, slot = _row_slot(kept, n_bins, n_bands, gamma)
            _apply_filters(spec, table.filters[slot][:, None], None, out)
            return int(len(kept) < n_bands), int(gamma is not None and table.gammas[slot] < gamma)
        peaks = _spectrum_peaks(spec, n_bands)
        table, slots = _bank_slots(peaks, n_bins, gamma)
        _apply_filters(spec, table.filters, slots, out)
        n_clamped = 0 if gamma is None else int(np.count_nonzero(table.gammas[slots] < gamma))
        return int(np.count_nonzero(peaks[:, 0] == 0)), n_clamped

    out, counts = _blocked(x, n_bands, part)
    n_fallback = sum(f for f, _ in counts)
    n_clamped = sum(c for _, c in counts)
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
    return out


def decompose_with_bank(signals: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Decompose stacked signals (N, T) with one shared bank into (n_bands, N, T).

    The bank must have been built for length T. A single-band bank is the
    identity and returns a copy.
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
        return x[None].copy()
    filters = bank.filters[:, None, :]
    return _blocked(
        x, bank.n_bands,
        lambda rows, out: _apply_filters(np.fft.rfft(rows, axis=1), filters, None, out),
    )[0]


def reconstruct(components: BandComponents | np.ndarray) -> np.ndarray:
    """Sum the band components back into one signal."""
    c = components.components if isinstance(components, BandComponents) else np.asarray(components)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError("reconstruct: expected (n_bands, length) components")
    return c.sum(axis=0)
