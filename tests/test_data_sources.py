"""Parity suite for the streaming record sources (the data plane).

The streaming contract: for every :class:`RecordSource`, concatenating
``iter_chunks(chunk_s)`` reassembles the batch array bit for bit at any
chunk size, metadata matches the batch object, and the streamed content
digest is invariant to chunking — so cache/store keys cannot depend on
how a record was streamed.
"""

import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.data import (
    SyntheticEEGDataset,
    read_edf,
    write_edf,
)
from repro.data.dataset import _PURPOSE_MONITOR, _PURPOSE_SAMPLE
from repro.data.seizures import (
    LazySeizureOverlay,
    SeizureMorphology,
    generate_ictal,
    seizure_overlay,
)
from repro.data.sources import (
    ArrayRecordSource,
    EDFRecordSource,
    SignalPatch,
    SyntheticRecordSource,
    rechunk,
    record_content_digest,
)
from repro.data.synthetic import (
    GEN_BLOCK_S,
    GENERATOR_VERSION,
    BackgroundEEGModel,
    block_spans,
    draw_block_entropy,
)
from repro.exceptions import DataError

#: Chunk sizes spanning sub-second, non-aligned, the generation block,
#: and one-chunk-covers-everything (the acceptance floor is >= 3 sizes).
CHUNK_SIZES = (0.5, 7.3, 60.0, 1e6)


class TestRechunk:
    def test_reassembles_any_split(self, rng):
        parts = [rng.standard_normal((2, n)) for n in (5, 1, 17, 3, 64)]
        whole = np.concatenate(parts, axis=1)
        for size in (1, 4, 9, 90, 1000):
            out = list(rechunk(iter(parts), size))
            assert all(c.shape[1] <= size for c in out)
            assert all(c.shape[1] == size for c in out[:-1])
            assert np.array_equal(np.concatenate(out, axis=1), whole)

    def test_invalid_size_rejected(self):
        with pytest.raises(DataError, match="chunk_samples"):
            list(rechunk(iter([]), 0))


class TestBlockSpans:
    def test_covers_every_sample_in_order(self):
        fs = 256.0
        n = int(150.5 * fs)
        spans = block_spans(n, fs)
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c and b - a == int(round(GEN_BLOCK_S * fs))

    def test_one_sample_tail_folds_into_previous_block(self):
        fs = 256.0
        block = int(round(GEN_BLOCK_S * fs))
        spans = block_spans(block + 1, fs)
        assert spans == [(0, block + 1)]

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            block_spans(1, 256.0)


class TestSyntheticRecordSource:
    @pytest.mark.parametrize("chunk_s", CHUNK_SIZES)
    def test_chunks_reassemble_batch_sample(self, dataset, sample_record, chunk_s):
        source = dataset.sample_source(1, 0, 0)
        data = np.concatenate(list(source.iter_chunks(chunk_s)), axis=1)
        assert data.shape == sample_record.data.shape
        assert np.array_equal(data, sample_record.data)

    def test_metadata_matches_batch_record(self, dataset, sample_record):
        source = dataset.sample_source(1, 0, 0)
        assert source.record_id == sample_record.record_id
        assert source.patient_id == sample_record.patient_id
        assert source.fs == sample_record.fs
        assert source.n_samples == sample_record.n_samples
        assert source.duration_s == sample_record.duration_s
        assert source.channel_names == sample_record.channel_names
        assert list(source.annotations) == sample_record.annotations

    def test_materialize_is_generate_sample(self, dataset, sample_record):
        rec = dataset.sample_source(1, 0, 0).materialize(chunk_s=13.7)
        assert np.array_equal(rec.data, sample_record.data)
        assert rec.annotations == sample_record.annotations

    def test_materialize_is_generate_monitoring_record(self, dataset):
        batch = dataset.generate_monitoring_record(*MONITORING)
        rec = dataset.monitoring_source(*MONITORING).materialize(chunk_s=13.7)
        assert np.array_equal(rec.data, batch.data)
        assert rec.annotations == batch.annotations
        assert rec.record_id == batch.record_id == "P01_MON_R000"
        assert rec.channel_names == batch.channel_names

    def test_artifact_and_clutter_patients_stream_identically(self, dataset):
        # Patient 2 schedules the Table-II outlier burst *and* clutter:
        # the patch path with overlapping families must still be exact.
        rec = dataset.generate_sample(2, 1, 0)
        source = dataset.sample_source(2, 1, 0)
        assert len(source.patches) > 2  # seizure + artifact/clutter waves
        for chunk_s in (3.1, 45.0):
            data = np.concatenate(list(source.iter_chunks(chunk_s)), axis=1)
            assert np.array_equal(data, rec.data)

    def test_seizure_free_source_parity(self, dataset, seizure_free_record):
        source = dataset.seizure_free_source(1, 120.0, 0)
        assert source.patches == ()
        data = np.concatenate(list(source.iter_chunks(11.0)), axis=1)
        assert np.array_equal(data, seizure_free_record.data)

    def test_window_labels_match_record(self, dataset, sample_record):
        source = dataset.sample_source(1, 0, 0)
        assert np.array_equal(
            source.window_labels(4.0, 1.0, 0.5),
            sample_record.window_labels(4.0, 1.0, 0.5),
        )

    def test_determinism_across_instances(self, dataset):
        a = dataset.sample_source(4, 1, 3)
        b = SyntheticEEGDataset(duration_range_s=(300.0, 360.0)).sample_source(4, 1, 3)
        for ca, cb in zip(a.iter_chunks(30.0), b.iter_chunks(30.0)):
            assert np.array_equal(ca, cb)

    def test_patch_validation(self, dataset):
        source = dataset.sample_source(1, 0, 0)
        with pytest.raises(DataError, match="does not fit"):
            SyntheticRecordSource(
                model=source.model,
                entropy=source.entropy,
                n_samples=100,
                fs=source.fs,
                patches=(SignalPatch(0, 50, np.ones(100)),),
            )
        with pytest.raises(DataError, match="channel"):
            SyntheticRecordSource(
                model=source.model,
                entropy=source.entropy,
                n_samples=1000,
                fs=source.fs,
                patches=(SignalPatch(7, 0, np.ones(10)),),
            )

    def test_bad_chunk_size_rejected(self, dataset):
        source = dataset.sample_source(1, 0, 0)
        for chunk_s in (0.0, float("nan")):
            with pytest.raises(DataError, match="chunk_s"):
                next(source.iter_chunks(chunk_s))


#: (patient, seizure) of a clean record, one with the Table-II outlier
#: artifact (``artifact_near_seizure``) and one with clutter bursts.
LAZY_CASES = [(1, 0), (3, 0), (2, 0)]
LAZY_IDS = ["clean", "artifact", "clutter"]

#: ``monitoring_source`` arguments of a short two-seizure Fig. 1 record:
#: patient, duration, seizure indices, sample index, minimum gap.
MONITORING = (1, 1200.0, [0, 1], 0, 120.0)


def lazy_source(dataset, case):
    """A fresh source of a ``LAZY_CASES`` sample, or of the
    ``MONITORING`` record for ``case == "monitoring"``."""
    if case == "monitoring":
        return dataset.monitoring_source(*MONITORING)
    return dataset.sample_source(*case)


def at_ictal_step(dataset, patient, seizure):
    """The sample generator of ``(patient, seizure, 0)`` advanced through
    the draws :meth:`SyntheticEEGDataset.sample_source` makes before the
    ictal one, with the arguments of that ictal draw."""
    prof = dataset.profile(patient)
    seiz_s = dataset.event(patient, seizure).duration_s
    rng = dataset._rng(patient, seizure, 0, _PURPOSE_SAMPLE)
    duration_s = float(rng.uniform(*dataset.duration_range_s))
    margin_s = max(10.0, 0.02 * duration_s)
    rng.uniform(margin_s, duration_s - seiz_s - margin_s)
    draw_block_entropy(rng)
    args = (seiz_s, dataset.fs, prof.morphology, prof.background.nominal_rms())
    return rng, args


class TestLazySeizureOverlay:
    """The seizure overlay is kept as its draw and shaped on first use;
    it must equal the eager overlay and leave the generator where the
    eager draw leaves it."""

    @pytest.mark.parametrize("case", LAZY_CASES, ids=LAZY_IDS)
    def test_patch_waves_equal_the_eager_overlay(self, dataset, case):
        rng, args = at_ictal_step(dataset, *case)
        eager = seizure_overlay(generate_ictal(*args, rng), dataset.fs)
        source = dataset.sample_source(*case)
        seizure = [p for p in source.patches if p.recipe is not None]
        assert [p.channel for p in seizure] == [0, 1]
        for patch in seizure:
            assert patch.wave.tobytes() == eager[patch.channel].tobytes()

    @pytest.mark.parametrize("case", LAZY_CASES, ids=LAZY_IDS)
    def test_generator_ends_where_the_eager_draw_ends(self, dataset, case):
        eager_rng, args = at_ictal_step(dataset, *case)
        generate_ictal(*args, eager_rng)
        lazy_rng, _ = at_ictal_step(dataset, *case)
        LazySeizureOverlay(*args, lazy_rng)
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
        assert lazy_rng.random() == eager_rng.random()

    def test_monitoring_waves_follow_the_draw_order(self, dataset):
        # Entropy key, then the slack parts, then each seizure's ictal
        # draw, every overlay scaled by the nominal background level.
        patient, duration_s, indices, sample, _ = MONITORING
        prof = dataset.profile(patient)
        rng = dataset._rng(patient, 0, sample, _PURPOSE_MONITOR)
        draw_block_entropy(rng)
        rng.uniform(0.5, 1.5, size=len(indices) + 1)
        source = dataset.monitoring_source(*MONITORING)
        assert len(source.patches) == 2 * len(indices)
        for i, k in enumerate(indices):
            eager = seizure_overlay(
                generate_ictal(
                    dataset.event(patient, k).duration_s, dataset.fs,
                    prof.morphology, prof.background.nominal_rms(), rng,
                ),
                dataset.fs,
            )
            for patch in source.patches[2 * i : 2 * i + 2]:
                assert patch.recipe is not None
                assert patch.wave.tobytes() == eager[patch.channel].tobytes()

    @pytest.mark.parametrize(
        "case", LAZY_CASES + ["monitoring"], ids=LAZY_IDS + ["monitoring"]
    )
    def test_materialize_is_chunk_invariant(self, dataset, case):
        # A fresh source per chunk size, so each stream shapes its own
        # overlay.
        records = [
            lazy_source(dataset, case).materialize(chunk_s)
            for chunk_s in (1.0, 37.0, 600.0)
        ]
        for rec in records[1:]:
            assert np.array_equal(rec.data, records[0].data)

    def test_keying_shapes_nothing(self, dataset, monkeypatch):
        from repro.data import seizures

        def boom(*args, **kwargs):
            raise AssertionError("seizure overlay shaped")

        monkeypatch.setattr(seizures, "shape_ictal", boom)
        for source in (
            dataset.sample_source(2, 1, 0),
            dataset.monitoring_source(*MONITORING),
        ):
            source.recipe_digest()
            with pytest.raises(AssertionError, match="shaped"):
                source.materialize()


class TestArrayRecordSource:
    @pytest.mark.parametrize("chunk_s", CHUNK_SIZES)
    def test_chunks_reassemble(self, sample_record, chunk_s):
        source = ArrayRecordSource(sample_record)
        data = np.concatenate(list(source.iter_chunks(chunk_s)), axis=1)
        assert np.array_equal(data, sample_record.data)

    def test_materialize_returns_original_object(self, sample_record):
        assert ArrayRecordSource(sample_record).materialize() is sample_record


class TestEDFRecordSource:
    @pytest.fixture(scope="class")
    def edf_path(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("edf") / "rec.edf"
        write_edf(dataset.generate_sample(8, 0, 0), path)
        return path

    @pytest.mark.parametrize("chunk_s", CHUNK_SIZES)
    def test_chunks_reassemble_batch_read(self, edf_path, chunk_s):
        batch = read_edf(edf_path)
        source = EDFRecordSource(edf_path)
        data = np.concatenate(list(source.iter_chunks(chunk_s)), axis=1)
        assert np.array_equal(data, batch.data)

    def test_metadata_matches_batch_read(self, edf_path):
        batch = read_edf(edf_path)
        source = EDFRecordSource(edf_path)
        assert source.record_id == batch.record_id
        assert source.patient_id == batch.patient_id
        assert source.fs == batch.fs
        assert source.n_samples == batch.n_samples
        assert source.channel_names == batch.channel_names


class TestContentDigest:
    def test_invariant_to_chunk_size_and_path(self, dataset, sample_record):
        source = dataset.sample_source(1, 0, 0)
        digests = {record_content_digest(source, cs) for cs in CHUNK_SIZES}
        digests.add(record_content_digest(sample_record))
        digests.add(record_content_digest(ArrayRecordSource(sample_record), 3.3))
        assert len(digests) == 1

    def test_different_records_differ(self, dataset):
        a = record_content_digest(dataset.sample_source(1, 0, 0))
        b = record_content_digest(dataset.sample_source(1, 0, 1))
        assert a != b

    def test_channel_swap_changes_digest(self, sample_record):
        # Per-channel hashing must still bind channel order: swapping
        # rows is different content, not a permutation-invariant bag.
        from repro.data.records import EEGRecord

        swapped = EEGRecord(
            data=sample_record.data[::-1].copy(),
            fs=sample_record.fs,
            channel_names=sample_record.channel_names,
        )
        assert record_content_digest(swapped) != record_content_digest(
            sample_record
        )


def pinned_source(**overrides) -> SyntheticRecordSource:
    """A small fixed recipe: 90 s at 64 Hz, one patch on channel 1."""
    fs = 64.0
    recipe = dict(
        model=BackgroundEEGModel(line_noise_uv=5.0),
        entropy=(11, 22, 33, 44),
        n_samples=int(90 * fs),
        fs=fs,
        patches=(
            SignalPatch(1, 2000, 25.0 * np.sin(2 * np.pi * 3.0 * np.arange(640) / fs)),
        ),
    )
    recipe.update(overrides)
    return SyntheticRecordSource(**recipe)


def lazy_seizure_source(
    duration_s: float = 20.0,
    morphology: SeizureMorphology = SeizureMorphology(),
    background: BackgroundEEGModel = BackgroundEEGModel(line_noise_uv=5.0),
    seed: int = 5,
) -> SyntheticRecordSource:
    """:func:`pinned_source` carrying a lazy seizure overlay instead of its
    eager patch, placed and built as ``sample_source`` builds it."""
    overlay = LazySeizureOverlay(
        duration_s, 64.0, morphology, background.nominal_rms(),
        np.random.default_rng(seed),
    )
    return pinned_source(patches=tuple(
        SignalPatch(
            ch, 1000, functools.partial(overlay.row, ch),
            size=overlay.n_samples, recipe=overlay.recipe,
        )
        for ch in range(overlay.n_channels)
    ))


#: ``record_content_digest(pinned_source())`` at the pinned generator
#: version, by the SIMD target numpy's float64 ``exp``/``sin`` loops run
#: on (AVX-512 rounds differently from AVX2 and the x86-64-v2 baseline).
PINNED_VERSION = 3
PINNED_DIGESTS = {
    "X86_V4": "6b026d0e739c678e3bf582334260a0a5",
    "X86_V3": "c65b3f900a003a418b4b8ab91e928e09",
    "baseline(X86_V2)": "c65b3f900a003a418b4b8ab91e928e09",
}

#: ``record_content_digest`` of :func:`pinned_sample_source`, whose
#: seizure overlay is keyed by its draw rather than its bytes: a change
#: to the ictal shaping moves this pin even though no recipe digest
#: moves.
PINNED_SAMPLE_DIGESTS = {
    "X86_V4": "98dc2c103594acd7696d123baef670bd",
    "X86_V3": "19d417c49424fd4d3af417a211285aed",
    "baseline(X86_V2)": "19d417c49424fd4d3af417a211285aed",
}


def pinned_sample_source() -> SyntheticRecordSource:
    """A short dataset sample (300 s at 64 Hz) with a lazy ictal overlay."""
    dataset = SyntheticEEGDataset(fs=64.0, duration_range_s=(300.0, 300.0))
    return dataset.sample_source(1, 0, 0)


class TestRecipeDigest:
    """Synthetic sources are cached by recipe, so the recipe digest must
    change whenever the waveform can."""

    def test_stale_entry_guard(self):
        # A store keyed by recipe serves whatever was extracted under the
        # same recipe digest.  Any edit that changes the waveform must
        # therefore bump GENERATOR_VERSION, and these pins with it.
        introspect = pytest.importorskip("numpy.lib.introspect")
        loops = introspect.opt_func_info(func_name="^(exp|sin)$", signature="float64")
        targets = {loops[name]["dd"]["current"] for name in ("exp", "sin")}
        target = targets.pop() if len(targets) == 1 else None
        digest = record_content_digest(pinned_source())
        sample = record_content_digest(pinned_sample_source())
        if target not in PINNED_DIGESTS:
            pytest.skip(f"no pin for float64 exp/sin on {loops}: {digest}, {sample}")
        assert (GENERATOR_VERSION, digest) == (
            PINNED_VERSION, PINNED_DIGESTS[target]
        ), "the waveform changed: bump GENERATOR_VERSION and re-pin"
        if target not in PINNED_SAMPLE_DIGESTS:
            pytest.skip(f"no sample pin for float64 exp/sin on {target}: {sample}")
        assert (GENERATOR_VERSION, sample) == (
            PINNED_VERSION, PINNED_SAMPLE_DIGESTS[target]
        ), "the seizure overlay changed: bump GENERATOR_VERSION and re-pin"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"entropy": (11, 22, 33, 45)},
            {"n_samples": int(90 * 64.0) + 1},
            {"fs": 65.0},
            {"n_channels": 3},
        ],
        ids=["entropy", "n_samples", "fs", "n_channels"],
    )
    def test_geometry_and_entropy_change_digest(self, overrides):
        assert pinned_source(**overrides).recipe_digest() != (
            pinned_source().recipe_digest()
        )

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(BackgroundEEGModel)]
    )
    def test_every_model_field_changes_digest(self, field):
        model = BackgroundEEGModel(line_noise_uv=5.0)
        changed = dataclasses.replace(model, **{field: getattr(model, field) + 0.125})
        assert pinned_source(model=changed).recipe_digest() != (
            pinned_source().recipe_digest()
        )

    def test_every_patch_detail_changes_digest(self):
        base = pinned_source()
        (patch,) = base.patches
        wave = patch.wave.copy()
        wave[17] = np.nextafter(wave[17], np.inf)
        variants = [
            SignalPatch(0, patch.start, patch.wave),
            SignalPatch(patch.channel, patch.start + 1, patch.wave),
            SignalPatch(patch.channel, patch.start, wave),
        ]
        digests = {pinned_source(patches=(v,)).recipe_digest() for v in variants}
        digests.add(base.recipe_digest())
        assert len(digests) == len(variants) + 1

    @pytest.mark.parametrize(
        "overrides",
        [
            *(
                {"morphology": dataclasses.replace(
                    SeizureMorphology(),
                    **{f.name: getattr(SeizureMorphology(), f.name) + 0.125},
                )}
                for f in dataclasses.fields(SeizureMorphology)
            ),
            {"duration_s": 20.001},  # same sample count: only the recipe moves
            {"background": BackgroundEEGModel(amplitude_uv=31.0, line_noise_uv=5.0)},
            {"seed": 6},
        ],
        ids=[
            *(f"morphology.{f.name}" for f in dataclasses.fields(SeizureMorphology)),
            "duration", "bg_rms", "saved_state",
        ],
    )
    def test_every_seizure_recipe_input_changes_digest(self, overrides):
        # The lazy overlay is hashed by its recipe, not its bytes, so
        # every input of the draw and the shaping must reach the digest.
        assert lazy_seizure_source(**overrides).recipe_digest() != (
            lazy_seizure_source().recipe_digest()
        )

    def test_lazy_overlay_matches_its_eager_patches(self):
        lazy = lazy_seizure_source()
        eager = pinned_source(patches=tuple(
            SignalPatch(p.channel, p.start, p.wave.copy()) for p in lazy.patches
        ))
        assert record_content_digest(lazy) == record_content_digest(eager)
        assert lazy.recipe_digest() != eager.recipe_digest()

    def test_patch_order_changes_digest(self):
        a = SignalPatch(0, 100, np.ones(8))
        b = SignalPatch(1, 300, np.full(8, 2.0))
        assert pinned_source(patches=(a, b)).recipe_digest() != (
            pinned_source(patches=(b, a)).recipe_digest()
        )

    def test_metadata_does_not_change_digest(self):
        assert pinned_source(record_id="x", patient_id="y").recipe_digest() == (
            pinned_source().recipe_digest()
        )

    def test_independent_builds_agree(self, dataset):
        again = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))
        assert dataset.sample_source(2, 1, 0).recipe_digest() == (
            again.sample_source(2, 1, 0).recipe_digest()
        )
        assert dataset.sample_source(2, 1, 0).recipe_digest() != (
            dataset.sample_source(2, 1, 1).recipe_digest()
        )

    def test_stable_across_processes(self, dataset):
        # No salted hash() anywhere: a fresh interpreter agrees.
        code = (
            "from repro.data import SyntheticEEGDataset\n"
            "ds = SyntheticEEGDataset(duration_range_s=(300.0, 360.0))\n"
            "print(ds.sample_source(2, 1, 0).recipe_digest())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        assert out == dataset.sample_source(2, 1, 0).recipe_digest()

    def test_sources_without_a_recipe(self, sample_record, tmp_path):
        path = tmp_path / "rec.edf"
        write_edf(sample_record, path)
        assert ArrayRecordSource(sample_record).recipe_digest() is None
        assert EDFRecordSource(path).recipe_digest() is None
