"""The kernels' per-thread workspace (``repro.kernels.workspace``).

The batched kernels write their block temporaries into buffers reused
from call to call.  That is invisible only while four things hold, and
each test class here checks one of them:

- no result a caller receives is a workspace view, so a later call
  cannot change an earlier result (:class:`TestResultsOwnTheirMemory`);
- each thread has its own buffers, so two threads extracting at once
  get the single-thread rows (:class:`TestThreads`, and its generated
  form :class:`TestThreadsFuzz`, which CI runs under the deep profile);
- the workspace stays within :data:`WORKSPACE_BYTES` whatever the call
  size (:class:`TestBound`);
- a stream's retained samples are its own, so streams that share a
  thread's block buffer keep the batch rows (:class:`TestStreams`).
"""

from __future__ import annotations

import functools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.streaming import StreamingFeatureExtractor
from repro.data.records import EEGRecord
from repro.exceptions import FeatureError
from repro.features.extraction import extract_features
from repro.features.paper10 import Paper10FeatureExtractor
from repro.kernels import get_kernel
from repro.kernels import workspace
from repro.kernels.workspace import FRESH_BYTES, WORKSPACE_BYTES, workspace_bytes

FS = 256.0
#: The paper's 4 s window at 256 Hz and its 1 s hop.
N, HOP = 1024, 256

EXTRACTOR = Paper10FeatureExtractor()


def session_view(n_windows: int, seed: int) -> np.ndarray:
    """``n_windows`` windows as a session push hands them over: a
    (window, channel, sample) sliding view of one two-channel stream."""
    rng = np.random.default_rng(seed)
    stream = rng.standard_normal((2, (n_windows - 1) * HOP + N)) * 30.0
    view = np.lib.stride_tricks.sliding_window_view(stream, N, axis=1)
    return view[:, ::HOP].transpose(1, 0, 2)


def bits(value):
    """A bit-exact, independent copy of a kernel result."""
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return np.array(value, copy=True).view(np.int64)


def assert_bits(value, expected) -> None:
    if isinstance(expected, dict):
        assert set(value) == set(expected)
        for key in expected:
            assert_bits(value[key], expected[key])
    else:
        np.testing.assert_array_equal(np.asarray(value).view(np.int64), expected)


def workspace_views(value) -> list[str]:
    """The workspace slots of the calling thread that ``value`` shares
    memory with."""
    arrays = value.values() if isinstance(value, dict) else [value]
    return [
        slot
        for (slot, _), buf in workspace._local.buffers.items()
        for array in arrays
        if np.shares_memory(array, buf)
    ]


#: Each kernel as the Paper-10 extractor calls it, on the F8T4 channel
#: (or both channels, for the band powers) of a session view.
KERNEL_CALLS = {
    "dwt_details": lambda w: get_kernel("dwt_details")(w[:, 1], level=7),
    "band_powers": lambda w: get_kernel("band_powers")(
        w[:, :2], fs=FS, bands=("theta", (0.0, FS / 2), "delta")
    ),
    "sample_entropy": lambda w: get_kernel("sample_entropy")(
        np.ascontiguousarray(w[:, 1, :16]), m=2, k=(0.20, 0.35)
    ),
    "permutation_entropy": lambda w: get_kernel("permutation_entropy")(
        w[:, 1, :64], order=5
    ),
    "renyi_entropy": lambda w: get_kernel("renyi_entropy")(w[:, 1, :128]),
    "extract_batch": lambda w: EXTRACTOR.extract_batch(w, FS),
}


def in_fresh_thread(fn):
    """``fn()`` run on a new thread, whose workspace starts empty (this
    one's holds whatever earlier tests left); its result, or its
    exception raised here."""
    outcome = {}

    def run() -> None:
        try:
            outcome["value"] = fn()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestResultsOwnTheirMemory:
    @pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
    @pytest.mark.parametrize("n_windows", [1, 4, 57, 64])
    def test_second_call_leaves_first_result(self, name, n_windows):
        call = KERNEL_CALLS[name]

        def calls() -> None:
            first = call(session_view(n_windows, seed=1))
            expected = bits(first)
            call(session_view(n_windows, seed=2))
            assert_bits(first, expected)

        in_fresh_thread(calls)

    @pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
    def test_result_is_no_workspace_view(self, name):
        def views() -> list[str]:
            return workspace_views(KERNEL_CALLS[name](session_view(64, seed=3)))

        assert in_fresh_thread(views) == []


def run_threads(batches_per_thread: list[list[np.ndarray]]) -> list[list]:
    """One thread per batch list extracts its batches in turn, every
    call starting together with the other threads' (a barrier before
    each); returns each thread's rows."""
    rounds = max(map(len, batches_per_thread))
    barrier = threading.Barrier(len(batches_per_thread))
    results: list[list] = [[] for _ in batches_per_thread]
    errors: list[BaseException] = []

    def work(index: int) -> None:
        batches = batches_per_thread[index]
        try:
            for i in range(rounds):
                barrier.wait(timeout=30)
                if i < len(batches):
                    results[index].append(
                        EXTRACTOR.extract_batch(batches[i], FS)
                    )
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=work, args=(i,))
        for i in range(len(batches_per_thread))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors
    return results


@functools.lru_cache(maxsize=None)
def thread_batch(thread: int, n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Thread ``thread``'s ``n_windows``-window batch and its rows from
    this thread, alone.  Each thread's batches differ from the others',
    so that rows computed in a shared buffer would come out mixed."""
    batch = session_view(n_windows, seed=1000 * thread + n_windows)
    return batch, bits(EXTRACTOR.extract_batch(batch, FS))


def assert_threads_match_single(sizes: list[list[int]]) -> None:
    cases = [[thread_batch(t, n) for n in row] for t, row in enumerate(sizes)]
    got = run_threads([[batch for batch, _ in row] for row in cases])
    for got_row, row in zip(got, cases):
        for rows, (_, expected) in zip(got_row, row):
            assert_bits(rows, expected)


class TestThreads:
    def test_two_threads_match_single_thread(self):
        # Sizes on both sides of the sliding DWT's 8 rows and of the
        # Welch block, up to a call that runs past the workspace bound.
        sizes = [1, 4, 8, 16, 57, 64, 100, 130]
        assert_threads_match_single([sizes * 6, sizes[::-1] * 6])

    def test_more_threads_than_cores_with_fast_switching(self):
        sizes = [130, 64, 8, 57, 1, 100, 16, 4]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert_threads_match_single(
                [sizes[i:] + sizes[:i] for i in range(3)] * 2
            )
        finally:
            sys.setswitchinterval(switch)

    def test_threads_have_their_own_workspace(self):
        EXTRACTOR.extract_batch(session_view(64, seed=4), FS)
        assert workspace_bytes() > 0
        assert in_fresh_thread(workspace_bytes) == 0
        call = lambda: EXTRACTOR.extract_batch(session_view(64, seed=5), FS)
        assert 0 < held_after(call) <= WORKSPACE_BYTES


class TestThreadsFuzz:
    """Generated batch shapes on two threads (deep profile in CI)."""

    @given(
        st.lists(
            st.lists(st.integers(1, 130), min_size=1, max_size=4),
            min_size=2,
            max_size=2,
        )
    )
    @settings(deadline=None)
    def test_two_threads_match_single_thread(self, sizes):
        assert_threads_match_single(sizes)


def held_after(call) -> int:
    """Bytes a fresh thread's workspace holds after ``call()``."""
    return in_fresh_thread(lambda: (call(), workspace_bytes())[1])


class TestBound:
    def test_documented_bound(self):
        assert WORKSPACE_BYTES <= 1.5 * 2**20

    def test_large_call_stays_within_bound(self):
        big = session_view(600, seed=6)
        assert held_after(lambda: EXTRACTOR.extract_batch(big, FS)) <= (
            WORKSPACE_BYTES
        )

    def test_large_then_service_calls_stay_within_bound(self):
        def calls() -> None:
            EXTRACTOR.extract_batch(session_view(600, seed=7), FS)
            for n in (64, 57, 130, 1):
                EXTRACTOR.extract_batch(session_view(n, seed=n), FS)

        assert held_after(calls) <= WORKSPACE_BYTES

    def test_live_calls_hold_no_workspace(self):
        # A live session's 1-window step asks only for temporaries below
        # FRESH_BYTES.
        call = lambda: EXTRACTOR.extract_batch(session_view(1, seed=1), FS)
        assert held_after(call) == 0

    def test_service_block_fits_whole(self):
        # A 64-window block push takes every temporary of FRESH_BYTES or
        # more from the workspace: nothing it asks for is past the bound.
        def push() -> None:
            # A fresh stream's 64 windows, in one block.
            StreamingFeatureExtractor(fs=FS).push(record(67.0, seed=8).data)

        misses = []
        real = workspace.scratch

        def spy(slot, shape, dtype=float):
            array = real(slot, shape, dtype)
            if array.nbytes >= FRESH_BYTES and not workspace_views(array):
                misses.append(slot)
            return array

        with mock.patch("repro.kernels.vectorized.scratch", spy), mock.patch(
            "repro.kernels.plans.scratch", spy
        ), mock.patch("repro.core.streaming.scratch", spy):
            held_after(push)
        assert misses == []


def record(seconds: float, seed: int) -> EEGRecord:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, int(seconds * FS))) * 30.0
    return EEGRecord(data=data, fs=FS)


class TestStreams:
    def test_alternating_block_pushes_keep_batch_rows(self):
        records = [record(300.0, seed) for seed in (11, 12)]

        def pushes() -> list[np.ndarray]:
            streams = [StreamingFeatureExtractor(fs=FS) for _ in records]
            rows: list[list[np.ndarray]] = [[], []]
            block = 64 * HOP
            for start in range(0, records[0].n_samples, block):
                for i, (rec, stream) in enumerate(zip(records, streams)):
                    rows[i].append(stream.push(rec.data[:, start : start + block]))
            return [np.concatenate(got) for got in rows]

        for rec, got in zip(records, in_fresh_thread(pushes)):
            assert_bits(got, bits(extract_features(rec, EXTRACTOR).values))

    def test_retained_samples_are_no_workspace_view(self):
        def push() -> list[str]:
            stream = StreamingFeatureExtractor(fs=FS)
            stream.push(record(64.0, seed=13).data)
            return workspace_views(stream._buffer)

        assert in_fresh_thread(push) == []

    def test_failed_block_push_still_releases(self):
        data = record(64.0, seed=14).data.copy()
        data[1, 5000] = np.nan

        def push() -> list[str]:
            stream = StreamingFeatureExtractor(fs=FS)
            with pytest.raises(FeatureError, match="NaN"):
                stream.push(data)
            return workspace_views(stream._buffer)

        assert in_fresh_thread(push) == []
