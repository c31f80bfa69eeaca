"""Shared fixtures: small, fast synthetic records reused across tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import SyntheticEEGDataset

#: Opt-in deep run of the property and differential suites
#: (``--hypothesis-profile=deep``); the default profile stays in force
#: otherwise.
settings.register_profile(
    "deep", derandomize=True, max_examples=2000, deadline=None
)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test: keeps every test's data
    independent of execution order."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dataset() -> SyntheticEEGDataset:
    """Cohort dataset generating short (5-6 min) records for test speed."""
    return SyntheticEEGDataset(duration_range_s=(300.0, 360.0))


@pytest.fixture(scope="session")
def sample_record(dataset):
    """One deterministic single-seizure record (patient 1, seizure 0)."""
    return dataset.generate_sample(1, 0, 0)


@pytest.fixture(scope="session")
def seizure_free_record(dataset):
    """One deterministic interictal record."""
    return dataset.generate_seizure_free(1, 120.0, 0)


@pytest.fixture(scope="session")
def fitted_detector(dataset):
    """A small fitted RealTimeDetector on the service's default
    (Paper10) feature family — shared by the serialization and
    hot-swap suites, which only need *a* deterministic fitted forest."""
    from repro.features.paper10 import Paper10FeatureExtractor
    from repro.ml.validation import build_balanced_training_set
    from repro.selflearning.detector import RealTimeDetector

    ex = Paper10FeatureExtractor()
    seiz = [dataset.generate_sample(8, k, 0) for k in (0, 1)]
    free = [dataset.generate_seizure_free(8, 180.0, 0)]
    ts = build_balanced_training_set(seiz, free, ex, context_s=30.0)
    return RealTimeDetector(extractor=ex, n_estimators=8).fit(ts)


@pytest.fixture()
def counter(monkeypatch):
    """Counts every record the engine pipeline actually processes.

    Shared by the fail-fast and checkpoint suites to assert that
    cancelled/skipped work truly never ran.  Counts only in-process
    execution (serial and single-worker runs); process-pool workers keep
    their own copy of the count.
    """
    from repro.engine import executor as executor_module

    calls = {"n": 0}
    original = executor_module._WorkerContext.process

    def counting(self, task):
        calls["n"] += 1
        return original(self, task)

    monkeypatch.setattr(executor_module._WorkerContext, "process", counting)
    return calls
