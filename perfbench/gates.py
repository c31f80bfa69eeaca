"""Correctness gates: every run's outputs against the parity contracts.

Each gate returns a list of problems; an empty list passes.  A run with
any problem reports no metrics.
"""

from __future__ import annotations


def cohort_gate(passes: list[dict], reports: list[str], reference: str,
                warm: bool) -> list[str]:
    """Every pass's report is byte-identical to ``reference`` (made by
    another engine path) with no failed record; a warm pass must also be
    served entirely from the feature store (no extraction, no write)."""
    problems = []
    if reports != [reference]:
        problems.append(
            f"{len(reports)} distinct report(s), reference matched: "
            f"{reference in reports}"
        )
    records = passes[0]["records"] if passes else 0
    for i, p in enumerate(passes):
        if p["failures"] or p["records"] != records:
            problems.append(f"pass {i}: {p['failures']} failed record(s)")
        if warm:
            store = p["stats"].get("store", {})
            if store.get("hits") != records or store.get("misses") or store.get("writes"):
                problems.append(f"pass {i}: not served from the store: {store}")
    return problems


def decision_gate(label: str, events: list, reference: list) -> list[str]:
    """A session's polled + trailing decisions equal the batch decisions
    over the samples it streamed, window for window, bit for bit."""
    if events == reference:
        return []
    for i, (got, want) in enumerate(zip(events, reference)):
        if got != want:
            return [f"{label}: window {i} decided {got}, batch says {want}"]
    return [f"{label}: {len(events)} decisions, batch has {len(reference)}"]
