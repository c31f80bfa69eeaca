"""ServiceTelemetry: the latency histogram and fleet-wide merging.

Pins the telemetry contract standalone (no processes, no service):
latencies land in fixed log-spaced buckets whose reduction stays within
0.55 % of exact, counters sum, the queue high-water mark is a max,
bucket counts merge exactly by summing (a split stream merges to the
bytes of one collector fed the whole stream), foreign schemas are
refused, and the merged view serializes byte-stably through
``telemetry_to_json``.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import ServiceTelemetry, telemetry_to_json
from repro.service.telemetry import BUCKETS_PER_OCTAVE, bucket_of

#: 2^(1/128) − 1: a bucket's geometric middle against anything in it.
BUCKET_ERROR = 2.0 ** (1.0 / (2 * BUCKETS_PER_OCTAVE)) - 1.0


def make_shard(latencies_s, opened=0, closed=0, rejected=0, shed=0,
               high_water=0, windows_per_chunk=1):
    """A real telemetry instance driven through its public surface."""
    telemetry = ServiceTelemetry()
    for _ in range(opened):
        telemetry.session_opened()
    for _ in range(closed):
        telemetry.session_closed()
    for latency in latencies_s:
        telemetry.chunk_ingested(high_water)
        telemetry.chunk_decided(latency, windows_per_chunk)
    for _ in range(rejected):
        telemetry.chunk_rejected()
    if shed:
        # Shed chunks must have been ingested first.
        for _ in range(shed):
            telemetry.chunk_ingested(high_water)
        telemetry.chunks_dropped(shed)
    return telemetry


def lognormal_latencies(n, seed):
    rng = np.random.default_rng(seed)
    return rng.lognormal(np.log(0.004), 0.6, n)


class TestHistogram:
    def test_accuracy_against_numpy(self):
        latencies = lognormal_latencies(10_000, seed=16)
        latency = make_shard(latencies).snapshot()["latency"]
        ms = latencies * 1e3
        exact = {
            "p50_ms": np.percentile(ms, 50, method="inverted_cdf"),
            "p95_ms": np.percentile(ms, 95, method="inverted_cdf"),
            "p99_ms": np.percentile(ms, 99, method="inverted_cdf"),
            "mean_ms": ms.mean(),
            "jitter_ms": ms.std(),
        }
        assert latency["count"] == 10_000
        for key, value in exact.items():
            assert latency[key] == pytest.approx(value, rel=0.006), key
        assert latency["max_ms"] == round(float(ms.max()), 3)

    def test_hour_range_fits_in_2048_buckets(self):
        latencies = np.geomspace(1e-6, 3600.0, 50_000)
        buckets = make_shard(latencies).snapshot()["latency"]["buckets"]
        assert len(buckets) <= 2048
        assert max(int(b) for b in buckets) < 2048
        assert sum(buckets.values()) == 50_000

    def test_sub_microsecond_and_zero_go_to_bucket_zero(self):
        assert bucket_of(0.0) == bucket_of(1e-7) == bucket_of(1e-6) == 0
        assert bucket_of(2e-6) == BUCKETS_PER_OCTAVE
        latency = make_shard([0.0, 5e-7, 0.0]).snapshot()["latency"]
        assert latency["buckets"] == {"0": 3}
        assert latency["count"] == 3
        # Read-backs are capped at the exact max.
        latency = make_shard([0.0, 0.0]).snapshot()["latency"]
        assert latency["p99_ms"] == latency["mean_ms"] == 0.0
        assert latency["max_ms"] == latency["jitter_ms"] == 0.0

    def test_nearest_rank_on_round_counts(self):
        # 100 latencies of 1..100 ms: nearest rank is the 50th, 95th and
        # 99th value, read back within half a bucket.
        latency = make_shard([i / 1e3 for i in range(1, 101)]).latency()
        for got, exact in ((latency.p50_ms, 50.0), (latency.p95_ms, 95.0),
                           (latency.p99_ms, 99.0)):
            assert got == pytest.approx(exact, rel=BUCKET_ERROR)

    def test_top_bucket_reads_back_at_most_the_max(self):
        latency = make_shard([0.0123456] * 3).snapshot()["latency"]
        assert latency["max_ms"] == 12.346
        for key in ("p50_ms", "p99_ms", "mean_ms"):
            assert latency[key] <= latency["max_ms"]
            assert latency[key] == pytest.approx(12.3456, rel=BUCKET_ERROR)
        assert latency["jitter_ms"] == 0.0

    def test_concurrent_deciders_lose_no_count(self):
        telemetry = ServiceTelemetry()
        latencies = lognormal_latencies(2_000, seed=7)

        def decide():
            for latency in latencies:
                telemetry.chunk_ingested(1)
                telemetry.chunk_decided(latency, 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decide) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = telemetry.snapshot()
        assert snap["chunks"]["processed"] == snap["latency"]["count"] == 8_000
        assert snap["latency"]["buckets"] == {
            b: 4 * n
            for b, n in make_shard(latencies).snapshot()["latency"][
                "buckets"
            ].items()
        }

    def test_empty_collector_reports_zeros(self):
        latency = ServiceTelemetry().snapshot()["latency"]
        assert latency["count"] == 0 and latency["buckets"] == {}
        assert latency["p99_ms"] == latency["max_ms"] == 0.0


class TestMerge:
    def test_counters_sum_and_high_water_is_max(self):
        a = make_shard([0.001] * 3, opened=2, closed=1, rejected=1,
                       high_water=5)
        b = make_shard([0.002] * 4, opened=3, closed=3, shed=2,
                       high_water=9)
        merged = ServiceTelemetry.merge([a.snapshot(), b.snapshot()])
        assert merged["workers"] == 2
        assert merged["sessions"]["opened"] == 5
        assert merged["sessions"]["closed"] == 4
        assert merged["chunks"]["ingested"] == 9  # 3 + 4 + 2 later shed
        assert merged["chunks"]["processed"] == 7
        assert merged["chunks"]["rejected"] == 1
        assert merged["chunks"]["shed"] == 2
        assert merged["windows"]["decided"] == 7
        assert merged["queue"]["high_water"] == 9  # max, not sum
        assert merged["latency"]["count"] == 7
        assert sum(merged["latency"]["buckets"].values()) == 7

    def test_split_stream_merges_to_the_whole_stream_bytes(self):
        # One seeded stream dealt across 3 collectors merges to exactly
        # what one collector fed the whole stream reports.
        latencies = lognormal_latencies(3_000, seed=2019)
        whole = make_shard(latencies, opened=3, high_water=4).snapshot()
        parts = [
            make_shard(latencies[i::3], opened=1, high_water=4).snapshot()
            for i in range(3)
        ]
        merged = ServiceTelemetry.merge(parts)
        assert telemetry_to_json(merged["latency"]) == telemetry_to_json(
            whole["latency"]
        )
        body = {
            k: v for k, v in merged.items() if k not in ("workers", "shards")
        }
        assert telemetry_to_json(body) == telemetry_to_json(whole)

    def test_percentiles_are_not_averaged_per_shard(self):
        # A fast shard and a slow shard: averaging their p99s would be
        # wrong; summed counts reproduce the percentile of the union.
        fast = [0.001 * (i + 1) for i in range(50)]
        slow = [0.100 * (i + 1) for i in range(50)]
        merged = ServiceTelemetry.merge([
            make_shard(fast).snapshot(),
            make_shard(slow).snapshot(),
        ])
        assert merged["latency"] == make_shard(fast + slow).snapshot()[
            "latency"
        ]
        assert merged["latency"]["p99_ms"] > 4_000.0
        assert merged["latency"]["max_ms"] == 5_000.0

    def test_shard_breakdowns_keep_their_buckets(self):
        snap = make_shard([0.001, 0.002]).snapshot()
        merged = ServiceTelemetry.merge([snap])
        assert len(merged["shards"]) == 1
        shard_view = merged["shards"][0]
        assert shard_view["chunks"]["processed"] == 2
        assert shard_view["latency"]["buckets"] == snap["latency"]["buckets"]
        assert merged["latency"]["buckets"] == snap["latency"]["buckets"]

    def test_empty_merge_is_a_zero_fleet(self):
        merged = ServiceTelemetry.merge([])
        assert merged["workers"] == 0
        assert merged["shards"] == []
        assert merged["chunks"]["ingested"] == 0
        assert merged["queue"]["high_water"] == 0
        assert merged["latency"]["count"] == 0
        assert merged["latency"]["buckets"] == {}

    def test_foreign_schema_is_refused(self):
        good = make_shard([0.001]).snapshot()
        assert good["schema"] == 3
        with pytest.raises(ServiceError):
            ServiceTelemetry.merge([good, dict(good, schema=99)])
        with pytest.raises(ServiceError):
            ServiceTelemetry.merge([None])

    def test_v2_reservoir_snapshot_is_refused(self):
        v2 = dict(make_shard([0.001]).snapshot(), schema=2)
        v2["latency"] = {
            k: v for k, v in v2["latency"].items() if k != "buckets"
        }
        v2["latency"].update(total=1, samples_ms=[1.0])
        with pytest.raises(ServiceError, match="schema 2"):
            ServiceTelemetry.merge([v2])

    def test_merged_snapshot_serializes_byte_stably(self):
        shards = [
            make_shard([0.001, 0.003], opened=1).snapshot(),
            make_shard([0.002], opened=2, rejected=1).snapshot(),
        ]
        first = telemetry_to_json(ServiceTelemetry.merge(shards))
        second = telemetry_to_json(ServiceTelemetry.merge(shards))
        assert first == second
        # Canonical form: sorted keys, no whitespace, valid JSON.
        assert json.loads(first) == ServiceTelemetry.merge(shards)
        assert " " not in first
        # Merging a merge's shards again is stable (round-trips JSON).
        again = ServiceTelemetry.merge(json.loads(first)["shards"])
        assert telemetry_to_json(again) == first
