"""Shared benchmark infrastructure.

Every bench reads two environment knobs (documented in EXPERIMENTS.md):

* ``REPRO_SAMPLES_PER_SEIZURE`` — evaluation samples per seizure
  (default 3; the paper uses 100);
* ``REPRO_PAPER_DURATIONS=1``   — switch record durations to the paper's
  30-60 min (default: 8-15 min for tractable laptop runtimes).

The expensive cohort labeling evaluation is computed once per pytest
session and shared by the Table I / Table II benches; every bench prints
its table (visible with ``-s``) and writes a JSON copy under
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core import (
    APosterioriLabeler,
    aggregate_cohort,
    deviation,
    normalized_deviation,
    score_seizure,
)
from repro.data import (
    DEFAULT_DURATION_RANGE_S,
    DEFAULT_SAMPLES_PER_SEIZURE,
    SyntheticEEGDataset,
    iter_evaluation_samples,
)
from repro.settings import ReproSettings

RESULTS_DIR = Path(__file__).parent / "results"


def save_results(name: str, payload: dict) -> Path:
    """Write a bench's results as JSON under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
    return path


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a fixed-width table to stdout (shown with pytest -s)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def bench_dataset() -> SyntheticEEGDataset:
    """The evaluation cohort at bench-scale record durations."""
    settings = ReproSettings.from_env()
    return SyntheticEEGDataset(
        duration_range_s=settings.resolve_duration_range(DEFAULT_DURATION_RANGE_S)
    )


@pytest.fixture(scope="session")
def cohort_evaluation(bench_dataset):
    """Run the full Sec. VI-A labeling evaluation once per session.

    Returns (CohortScore, seconds_elapsed, samples_per_seizure).
    """
    samples_per_seizure = ReproSettings.from_env().resolve_samples(
        DEFAULT_SAMPLES_PER_SEIZURE
    )
    labeler = APosterioriLabeler()
    per_seizure: dict[tuple[int, int], tuple[list[float], list[float]]] = {}
    start = time.perf_counter()
    for sample in iter_evaluation_samples(bench_dataset, samples_per_seizure):
        record = sample.record
        result = labeler.label(
            record, bench_dataset.mean_seizure_duration(sample.event.patient_id)
        )
        truth = record.annotations[0]
        deltas, norms = per_seizure.setdefault(sample.event.key, ([], []))
        deltas.append(deviation(truth, result.annotation))
        norms.append(
            normalized_deviation(truth, result.annotation, record.duration_s)
        )
    elapsed = time.perf_counter() - start
    scores = [
        score_seizure(pid, sid, deltas, norms)
        for (pid, sid), (deltas, norms) in sorted(per_seizure.items())
    ]
    return aggregate_cohort(scores), elapsed, samples_per_seizure
