"""Self-tests of the benchmark's metric math and correctness gates.

    python3 perfbench/selftest.py

Plain ``unittest`` (run from the repository root; needs ``src`` only for
the gate tests, which stream a short record through a real session).
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import stats  # noqa: E402
import sut  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(values, 99.0), 990.0)  # 10 beyond
        self.assertIsNone(stats.percentile(values[:999], 99.0))  # 9 beyond
        self.assertIsNone(stats.percentile([], 50.0))

    def test_median_by_nearest_rank(self):
        self.assertEqual(stats.percentile(range(1, 22), 50.0), 11.0)
        self.assertIsNone(stats.percentile(range(1, 20), 50.0))

    def test_tail_falls_back_to_the_highest_valid_percentile(self):
        values = list(range(1, 301))  # 300 samples: p99..p97.5 lack 10 beyond
        self.assertEqual(stats.tail_percentile(values, 99.0), (95.0, 285.0))
        self.assertEqual(stats.tail_percentile(range(1, 1001), 99.0), (99.0, 990.0))
        self.assertIsNone(stats.tail_percentile(range(5), 99.0))


class CapacityTest(unittest.TestCase):
    def test_log_linear_crossing(self):
        steps = [(40, 25.0, True), (80, 2500.0, False)]
        # 250 ms is half-way between 25 and 2500 in log space.
        self.assertAlmostEqual(stats.capacity(steps, 250.0, 999), 40 * 2 ** 0.5)

    def test_crossing_at_the_endpoints(self):
        self.assertAlmostEqual(
            stats.capacity([(50, 250.0, True), (60, 900.0, False)], 250.0, 999), 50.0
        )

    def test_no_failing_step_reports_the_cap(self):
        self.assertEqual(stats.capacity([(40, 20.0, True), (50, 30.0, True)], 250.0, 153.0), 153.0)

    def test_failure_without_latency_breach_takes_geometric_mean(self):
        steps = [(40, 20.0, True), (90, 100.0, False)]  # failed on backlog
        self.assertAlmostEqual(stats.capacity(steps, 250.0, 999), 60.0)

    def test_failing_base_scales_down(self):
        self.assertAlmostEqual(stats.capacity([(40, 500.0, False)], 250.0, 999), 20.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = {
            1: (0.0, 10.0, None),  # root
            2: (1.0, 4.0, 1),      # child
            3: (2.0, 3.0, 2),      # grandchild: not the root's business
            4: (5.0, 9.0, 1),      # child
        }
        self.assertEqual(stats.self_times(spans), {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})

    def test_child_clipped_to_parent(self):
        spans = {1: (0.0, 2.0, None), 2: (1.5, 2.5, 1)}
        self.assertEqual(stats.self_times(spans)[1], 1.5)


class HostSpeedTest(unittest.TestCase):
    def test_median_reference_time_inside_the_interval(self):
        # One sample a second; the reference took 4 ms, then 8 ms from t=20.
        samples = [(float(t), 0.004 if t < 20 else 0.008) for t in range(40)]
        self.assertEqual(hostspeed.speed(samples, 0.0, 15.0), 1.0)
        self.assertEqual(hostspeed.speed(samples, 25.0, 40.0), 0.5)

    def test_short_interval_is_widened_to_enough_samples(self):
        samples = [(float(t), 0.001 * (t + 1)) for t in range(20)]
        # [10, 11) holds one sample; widened to samples 6..14, median 11 ms.
        self.assertAlmostEqual(hostspeed.speed(samples, 10.0, 11.0), 0.004 / 0.011)
        # At the end, widening stops at the last sample: samples 11..19.
        self.assertAlmostEqual(hostspeed.speed(samples, 19.0, 25.0), 0.004 / 0.016)
        with self.assertRaises(ValueError):
            hostspeed.speed([], 0.0, 1.0)


class ImportTimeTest(unittest.TestCase):
    def test_outermost_scipy_imports_of_the_first_process(self):
        lines = [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       300 |        500 |   scipy",
            "import time:       200 |        700 |   scipy.signal",
            "import time:        50 |         50 |   numpy",
            "import time:      1000 |       2000 | repro",
            "import time:      9000 |       9000 |   scipy",  # another process
        ]
        times = sut.import_times(lines)
        self.assertEqual(times["import_s"], 0.002)
        self.assertAlmostEqual(times["import_scipy_s"], 0.0012)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import numpy as np

        from repro.data.records import EEGRecord
        from repro.service.config import ServiceConfig
        from repro.service.session import DetectorSession, batch_window_decisions

        data = np.random.default_rng(7).normal(size=(2, 256 * 12))
        cls.reference = batch_window_decisions(EEGRecord(data=data, fs=256.0))
        session = DetectorSession("s", ServiceConfig())
        for lo in range(0, data.shape[1], 300):
            session.push_chunk(data[:, lo : lo + 300])
        cls.streamed = session.poll_events()

    def test_streamed_decisions_pass(self):
        self.assertEqual(len(self.streamed), 9)
        self.assertEqual(gates.decision_gate("s", self.streamed, self.reference), [])

    def test_corrupted_decision_stream_fails(self):
        import dataclasses

        bad = list(self.streamed)
        bad[4] = dataclasses.replace(bad[4], score=bad[4].score + 1e-12)
        self.assertTrue(gates.decision_gate("s", bad, self.reference))
        self.assertTrue(gates.decision_gate("s", self.streamed[:-1], self.reference))

    def test_cohort_report_gate(self):
        passes = [{"records": 11, "failures": 0, "stats": {}}] * 2
        self.assertEqual(gates.cohort_gate(passes, ["R"], "R", warm=False), [])
        self.assertTrue(gates.cohort_gate(passes, ["R", "R'"], "R", warm=False))
        self.assertTrue(gates.cohort_gate(passes, ["X"], "R", warm=False))
        failed = [{"records": 10, "failures": 1, "stats": {}}]
        self.assertTrue(gates.cohort_gate(passes + failed, ["R"], "R", warm=False))

    def test_warm_gate_needs_every_record_from_the_store(self):
        def warm_pass(hits, misses):
            store = {"hits": hits, "misses": misses, "writes": misses}
            return {"records": 11, "failures": 0, "stats": {"store": store}}

        hit, miss = warm_pass(11, 0), warm_pass(10, 1)
        self.assertEqual(gates.cohort_gate([hit], ["R"], "R", warm=True), [])
        self.assertTrue(gates.cohort_gate([hit, miss], ["R"], "R", warm=True))


if __name__ == "__main__":
    unittest.main()
