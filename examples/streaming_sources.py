"""The streaming record data plane: source -> chunks -> features -> label.

A cohort worker never materializes a record anymore: a task's
coordinates resolve to a :class:`SyntheticRecordSource` (a *recipe* — an
RNG entropy key plus small precomputed seizure/artifact overlays), the
signal is regenerated block-by-block on demand, and features stream out
of bounded chunks.  This example walks the layers by hand and shows the
bit-identity contract at every step:

    RecordSource (synthetic | EDF | array)
        |  synthetic: recipe digest (no signal pass)  -> cache/store key
        |  EDF/array: content digest (chunk-invariant) -> cache/store key
        |  iter_chunks(chunk_s)            O(chunk) signal in flight
        v
    StreamingFeatureExtractor (4 s window / 1 s hop)
        v
    FeatureMatrix -> Algorithm 1 -> label

Run:
    python examples/streaming_sources.py
"""

import numpy as np

from repro import APosterioriLabeler, SyntheticEEGDataset, api
from repro.data import record_content_digest, write_edf


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(600.0, 900.0))

    # --- a record as a stream, not an array ---------------------------
    source = api.open_source(dataset=dataset, patient_id=9, seizure_index=0)
    truth = source.annotations[0]
    print(f"source: {source}")
    print(f"true seizure: [{truth.onset_s:.0f}, {truth.offset_s:.0f}] s")
    print(f"recipe: entropy key + {len(source.patches)} overlay patch(es)")
    print(f"recipe digest (its cache/store identity): {source.recipe_digest()}")

    chunk_s = 30.0
    peak = 0
    n_chunks = 0
    for chunk in source.iter_chunks(chunk_s):
        peak = max(peak, chunk.nbytes)
        n_chunks += 1
    total_mb = source.n_samples * source.n_channels * 8 / 1e6
    print(
        f"streamed {n_chunks} chunks of <= {peak / 1e3:.0f} kB "
        f"(full record would be {total_mb:.1f} MB)"
    )

    # --- the chunk-invariant content identity -------------------------
    digests = {
        record_content_digest(source, cs) for cs in (7.5, chunk_s, 1e9)
    }
    print(f"content digest at 3 chunk sizes: {digests.pop()} (all equal)")

    # --- streamed features == batch features ==> same label -----------
    feats = api.extract(source, chunk_s=chunk_s)
    labeler = APosterioriLabeler()
    result = labeler.label_matrix(
        feats, dataset.mean_seizure_duration(9), source.duration_s
    )
    batch = labeler.label(
        source.materialize(), dataset.mean_seizure_duration(9)
    )
    assert np.array_equal(feats.values, batch.features.values)
    ann = result.annotation
    print(
        f"streamed label: [{ann.onset_s:.0f}, {ann.offset_s:.0f}] s "
        f"(batch label identical: "
        f"{ann == batch.annotation})"
    )

    # --- the same abstraction over an EDF file ------------------------
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "record.edf"
        write_edf(source.materialize(), path)
        edf = api.open_source(path)
        streamed = np.concatenate(list(edf.iter_chunks(15.0)), axis=1)
        print(
            f"EDF source: {edf.n_samples} samples decoded incrementally, "
            f"reassembly exact: "
            f"{np.array_equal(streamed, edf.materialize().data)}"
        )


if __name__ == "__main__":
    main()
