"""Work spread over threads: the thread count cannot move a bit, and failures stay with the caller."""

import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from rarecast import ewt, parallel
from rarecast.bundle import save_bundle
from rarecast.config import PipelineConfig
from rarecast.ewt import Boundaries, build_filter_bank, decompose_windows, decompose_with_bank
from rarecast.pipeline import prepare_data, train_pipeline
from rarecast.router import pipeline_predict_batch

# (THREADS, MIN_ROWS): one thread as a user's `taskset -c 0` leaves it, then two
# and three threads with every call of two rows or more cut into parts.
SETTINGS = [(1, parallel.MIN_ROWS), (2, 1), (3, 1)]
# The benchmark preset, shrunk so that three trainings per setting stay quick.
SMALL = dict(synth_n=4000, epochs=1, router_epochs=2)


def _threads(monkeypatch, threads: int, min_rows: int) -> None:
    monkeypatch.setattr(parallel, "THREADS", threads)
    monkeypatch.setattr(parallel, "MIN_ROWS", min_rows)


@pytest.fixture()
def fresh_pool(monkeypatch):
    """The pool is created anew, at the test's THREADS - 1 threads, and shut down after it."""
    monkeypatch.setattr(parallel, "_pool", None)
    yield
    if parallel._pool is not None:
        parallel._pool.shutdown(wait=False)


@pytest.mark.parametrize("n", [0, 1, 2, 4, 7, 600])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ranges_cut_contiguous_near_equal_parts(monkeypatch, threads, n):
    _threads(monkeypatch, threads, 2)
    parts = parallel.ranges(5, 5 + n)
    assert parts[0][0] == 5 and parts[-1][1] == 5 + n
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    assert len(parts) == max(1, min(threads, n // 2))
    sizes = [hi - lo for lo, hi in parts]
    assert max(sizes) - min(sizes) <= 1
    # Items other than rows: the rows decide how many parts are worth it.
    assert parallel.ranges(0, 4, rows=3) == [(0, 4)]
    assert len(parallel.ranges(0, 4, rows=600)) == min(threads, 4)


def _outputs(cfg: PipelineConfig, tmp_path, name: str) -> tuple[bytes, bytes]:
    """bundle.json and the test windows' (predictions, alphas, sparse weights), as bytes."""
    data = prepare_data(cfg)
    tp, _ = train_pipeline(data, cfg)
    save_bundle(tp, tmp_path / f"{name}.json")
    preds = pipeline_predict_batch(tp.experts, tp.router, data.test_windows.histories)
    return (tmp_path / f"{name}.json").read_bytes(), b"".join(a.tobytes() for a in preds)


def test_the_thread_count_cannot_move_a_bit(monkeypatch, tmp_path):
    x = np.random.default_rng(41).standard_normal((7, 64))
    x[::5] = 1.5  # constant rows fall back to halving the widest band
    bank = build_filter_bank(Boundaries(np.array([0.0, 0.5, 1.0, 2.0, np.pi])), 33)
    preset = PipelineConfig().with_overrides(**SMALL)
    results = []
    for threads, min_rows in SETTINGS:
        _threads(monkeypatch, threads, min_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            arrays = [decompose_windows(x[:n], 4, gamma) for n in (1, 4, 7) for gamma in (None, 0.05)]
        arrays += [decompose_with_bank(x[:n], bank) for n in (1, 4, 7)]
        runs = [_outputs(preset, tmp_path, "preset"),
                _outputs(preset.with_overrides(mode="global", backbone="mlp"), tmp_path, "mlp")]
        results.append((arrays, runs))
    (want_arrays, want_runs), *others = results
    for got_arrays, got_runs in others:
        for got, want in zip(got_arrays, want_arrays):
            assert got.tobytes() == want.tobytes()
        for (got_bundle, got_preds), (want_bundle, want_preds) in zip(got_runs, want_runs):
            assert got_bundle == want_bundle
            assert got_preds == want_preds


def test_one_thread_or_few_rows_run_on_the_caller(monkeypatch):
    def where(lo, hi):
        return threading.get_ident(), lo, hi

    me = threading.get_ident()
    _threads(monkeypatch, 1, 1)
    assert parallel.spread(where, 0, 600) == [(me, 0, 600)]
    _threads(monkeypatch, 3, 256)
    assert parallel.spread(where, 0, 511) == [(me, 0, 511)]
    got = parallel.spread(where, 0, 512)
    assert [(lo, hi) for _, lo, hi in got] == [(0, 256), (256, 512)]
    assert got[0][0] == me and got[1][0] != me


@pytest.mark.parametrize("failing", [0, 2])
def test_a_failing_part_raises_in_the_caller_after_the_others_finish(monkeypatch, failing):
    # Part 0 runs on the caller, parts 1 and 2 on the pool.
    _threads(monkeypatch, 3, 1)
    finished = []

    def part(lo, hi):
        if lo == failing:
            raise ValueError(f"part {lo} failed")
        time.sleep(0.05)
        finished.append(lo)
        return lo

    with pytest.raises(ValueError, match=f"part {failing} failed"):
        parallel.spread(part, 0, 3)
    assert sorted(finished) == [p for p in (0, 1, 2) if p != failing]


def test_a_spread_from_a_pool_thread_runs_inline(monkeypatch, fresh_pool):
    # With a pool of one thread, a part that waited on the pool would wait forever.
    _threads(monkeypatch, 2, 1)
    result = []

    def inner(lo, hi):
        return lo, hi

    def outer(lo, hi):
        return parallel.spread(inner, 10 * lo, 10 * lo + 4)

    caller = threading.Thread(target=lambda: result.append(parallel.spread(outer, 0, 2)), daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "spread inside a pool thread deadlocked"
    # The caller's part spreads its inner call; the pool thread runs its own inline.
    assert result == [[[(0, 2), (2, 4)], [(10, 14)]]]


def _nothing(lo, hi):
    return None


def test_a_forked_child_spreads_on_a_pool_of_its_own(monkeypatch):
    # A child forked after the pool started inherits the pool but not its threads.
    _threads(monkeypatch, 2, 1)
    parallel.spread(_nothing, 0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork from a threaded process
        child = multiprocessing.get_context("fork").Process(target=parallel.spread, args=(_nothing, 0, 2))
        child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0


def test_threads_share_the_bank_memo_without_losing_a_count(monkeypatch, fresh_pool):
    # More threads than cores, eight ranges of eight rows whose peak sets
    # repeat across ranges, and a short switch interval: parts look up and
    # add banks to the one process-wide memo at once, and with a budget of
    # twelve banks replace its table again and again.
    x = np.random.default_rng(7).standard_normal((32, 64))
    x = np.vstack([x, x[::-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = decompose_windows(x, 4, 0.05)
        _threads(monkeypatch, 8, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for budget in (ewt._MEMO_BYTES, 12 * 4 * 33 * 8):
                monkeypatch.setattr(ewt, "_MEMO_BYTES", budget)
                for _ in range(20):
                    ewt._memo.clear()
                    assert decompose_windows(x, 4, 0.05).tobytes() == want.tobytes()
                    tables = list(ewt._memo._tables.values())
                    assert ewt._memo.nbytes == sum(t.nbytes for t in tables) <= budget
                    for t in tables:  # one slot per key and no slot unused: no add lost or made twice
                        assert sorted(t.slots.values()) == list(range(t.used))
                    if budget > 32 * 4 * 33 * 8:  # every range's banks stay in the one table
                        assert len(ewt._memo) == len(tables[0].slots) == 32
        finally:
            sys.setswitchinterval(interval)
