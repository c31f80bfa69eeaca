"""Minimal EDF reader/writer plus CHB-MIT-style annotation summaries.

CHB-MIT distributes recordings as EDF files with sidecar
``chbXX-summary.txt`` annotation files.  Neither MNE nor pyEDFlib is
available offline, so this module implements the subset of EDF needed to
persist and reload :class:`~repro.data.records.EEGRecord` objects
faithfully:

* fixed 256-byte main header + 256 bytes per signal header,
* 16-bit little-endian samples with physical/digital scaling,
* one-second data records,
* a CHB-MIT-like text summary for seizure annotations (EDF+ TAL streams
  are out of scope; CHB-MIT itself uses the text-summary convention).

Round-trip accuracy is bounded by the 16-bit quantization of the physical
range, which matches the acquisition resolution of the paper's ADS1299
front end (up to 16-bit in the described configuration).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import DataError, integer
from .records import EEGRecord, SeizureAnnotation

__all__ = [
    "EDFHeader",
    "read_edf_header",
    "write_edf",
    "read_edf",
    "write_summary",
    "read_summary",
    "save_record",
    "load_record",
]

_HDR_FIXED = 256
_HDR_PER_SIGNAL = 256


def _field(value: str, width: int) -> bytes:
    """Encode an ASCII header field, left-justified and space-padded."""
    raw = value.encode("ascii", errors="replace")
    if len(raw) > width:
        raw = raw[:width]
    return raw.ljust(width)


def _num(value: float, width: int) -> bytes:
    """Encode a number into a fixed-width ASCII field."""
    text = f"{value:.10g}"[:width]
    return _field(text, width)


def write_edf(record: EEGRecord, path: str | os.PathLike) -> None:
    """Write a record as 16-bit EDF with one-second data records.

    The physical range is chosen per channel as the symmetric range
    covering the data, so quantization error is at most
    ``range / 2**16`` per sample.  The trailing partial second (if any) is
    zero-padded in the file and trimmed on read via the duration stored in
    the recording-id field.
    """
    fs = record.fs
    if abs(fs - round(fs)) > 1e-9:
        raise DataError(f"EDF writer requires integer sampling rate, got {fs}")
    fs_i = int(round(fs))
    ns = record.n_channels
    n_records = math.ceil(record.n_samples / fs_i)

    phys_max = np.maximum(np.abs(record.data).max(axis=1), 1e-6)
    dig_max = 32767
    dig_min = -32768

    buf = io.BytesIO()
    header_bytes = _HDR_FIXED + _HDR_PER_SIGNAL * ns
    buf.write(_field("0", 8))
    buf.write(_field(record.patient_id or "X", 80))
    # Stash the exact sample count so reads can trim zero padding.
    buf.write(_field(f"{record.record_id} nsamples={record.n_samples}", 80))
    buf.write(_field("01.01.19", 8))
    buf.write(_field("00.00.00", 8))
    buf.write(_num(header_bytes, 8))
    buf.write(_field("", 44))
    buf.write(_num(n_records, 8))
    buf.write(_num(1, 8))  # record duration: 1 s
    buf.write(_num(ns, 4))

    for name in record.channel_names:
        buf.write(_field(name, 16))
    for _ in range(ns):
        buf.write(_field("AgAgCl electrode", 80))
    for _ in range(ns):
        buf.write(_field("uV", 8))
    for ch in range(ns):
        buf.write(_num(-phys_max[ch], 8))
    for ch in range(ns):
        buf.write(_num(phys_max[ch], 8))
    for _ in range(ns):
        buf.write(_num(dig_min, 8))
    for _ in range(ns):
        buf.write(_num(dig_max, 8))
    for _ in range(ns):
        buf.write(_field("HP:0.5Hz LP:100Hz", 80))
    for _ in range(ns):
        buf.write(_num(fs_i, 8))
    for _ in range(ns):
        buf.write(_field("", 32))

    # Digitize: phys -> dig linear map.
    padded = np.zeros((ns, n_records * fs_i))
    padded[:, : record.n_samples] = record.data
    scale = (dig_max - dig_min) / (2.0 * phys_max)
    digital = np.clip(
        np.round((padded + phys_max[:, None]) * scale[:, None]) + dig_min,
        dig_min,
        dig_max,
    ).astype("<i2")

    for rec_i in range(n_records):
        sl = slice(rec_i * fs_i, (rec_i + 1) * fs_i)
        for ch in range(ns):
            buf.write(digital[ch, sl].tobytes())

    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


@dataclass(frozen=True)
class EDFHeader:
    """Parsed EDF header: everything needed to stream the data records.

    ``n_samples`` is the per-channel sample count *after* trimming the
    writer's zero padding (the exact count stashed in the recording-id
    field), i.e. the length of the signal :func:`read_edf` returns.
    """

    patient_id: str
    record_id: str
    header_bytes: int
    n_records: int
    record_dur: float
    n_signals: int
    labels: tuple[str, ...]
    phys_min: tuple[float, ...]
    phys_max: tuple[float, ...]
    dig_min: tuple[int, ...]
    dig_max: tuple[int, ...]
    samples_per_record: int
    fs: float
    n_samples: int

    @property
    def total_samples(self) -> int:
        """Per-channel samples actually present in the data records
        (before padding trim)."""
        return self.n_records * self.samples_per_record


def read_edf_header(path: str | os.PathLike) -> EDFHeader:
    """Parse an EDF header without touching the signal payload.

    Reads only the fixed + per-signal header region (plus a file-size
    probe for the truncation check), so opening a multi-hour EDF costs
    kilobytes, not the whole file — the entry point of the incremental
    reading path (:class:`repro.data.sources.EDFRecordSource`).
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HDR_FIXED)
        if len(raw) < _HDR_FIXED:
            raise DataError(f"{path}: too short to be EDF")

        def text(buf: bytes, off: int, width: int) -> str:
            return buf[off : off + width].decode("ascii", errors="replace").strip()

        patient_id = text(raw, 8, 80)
        recording_field = text(raw, 88, 80)
        try:
            header_bytes = int(text(raw, 184, 8))
            n_records = int(text(raw, 236, 8))
            record_dur = float(text(raw, 244, 8))
            ns = int(text(raw, 252, 4))
        except ValueError as exc:
            raise DataError(f"{path}: malformed EDF numeric header: {exc}") from exc
        if ns < 1 or n_records < 0 or record_dur <= 0:
            raise DataError(f"{path}: inconsistent EDF header")

        sig = fh.read(header_bytes - _HDR_FIXED)
        off = 0

        def sig_fields(width: int) -> list[str]:
            nonlocal off
            out = [text(sig, off + i * width, width) for i in range(ns)]
            off += ns * width
            return out

        try:
            labels = sig_fields(16)
            sig_fields(80)  # transducer
            sig_fields(8)  # physical dimension
            phys_min = [float(v) for v in sig_fields(8)]
            phys_max = [float(v) for v in sig_fields(8)]
            dig_min = [int(float(v)) for v in sig_fields(8)]
            dig_max = [int(float(v)) for v in sig_fields(8)]
            sig_fields(80)  # prefiltering
            spr = [int(float(v)) for v in sig_fields(8)]
            sig_fields(32)  # reserved
        except ValueError as exc:
            raise DataError(f"{path}: malformed EDF numeric header: {exc}") from exc

        if off + _HDR_FIXED != header_bytes or len(sig) < off:
            raise DataError(
                f"{path}: header length mismatch ({off + _HDR_FIXED} parsed "
                f"vs {header_bytes} declared)"
            )
        if len(set(spr)) != 1:
            raise DataError(f"{path}: per-signal rates differ ({spr}); unsupported")

        fh.seek(0, os.SEEK_END)
        file_bytes = fh.tell()

    # Fail fast on a truncated payload: the streamed and batch paths must
    # agree that a short file is an error, not a silently shorter record.
    body_samples = max(0, (file_bytes - header_bytes) // 2)
    expected = n_records * ns * spr[0]
    if body_samples < expected:
        raise DataError(
            f"{path}: truncated data ({body_samples} samples, "
            f"expected {expected})"
        )

    # Trim zero padding if the writer stashed the exact count.
    record_id = recording_field
    n_samples = n_records * spr[0]
    if " nsamples=" in recording_field:
        record_id, _, count = recording_field.rpartition(" nsamples=")
        try:
            n_samples = min(n_samples, int(count))
        except ValueError:
            pass

    return EDFHeader(
        patient_id=patient_id,
        record_id=record_id,
        header_bytes=header_bytes,
        n_records=n_records,
        record_dur=record_dur,
        n_signals=ns,
        labels=tuple(labels),
        phys_min=tuple(phys_min),
        phys_max=tuple(phys_max),
        dig_min=tuple(dig_min),
        dig_max=tuple(dig_max),
        samples_per_record=spr[0],
        fs=spr[0] / record_dur,
        n_samples=n_samples,
    )


def iter_edf_record_groups(
    path: str | os.PathLike, header: EDFHeader, records_per_read: int = 64
) -> Iterator[np.ndarray]:
    """Yield physical-unit signal groups of ``records_per_read`` EDF data
    records each, shape (n_signals, k * samples_per_record), in order.

    The digital->physical map is applied per group with the same
    per-channel scale/offset as the batch reader, so concatenating every
    group is bit-identical to :func:`read_edf`'s array (before padding
    trim).  Peak memory is one group, whatever the file length.
    """
    integer(records_per_read, "records_per_read", DataError, 1)
    ns = header.n_signals
    spr = header.samples_per_record
    span = [
        (header.phys_max[ch] - header.phys_min[ch])
        / (header.dig_max[ch] - header.dig_min[ch])
        for ch in range(ns)
    ]
    with open(path, "rb") as fh:
        fh.seek(header.header_bytes)
        done = 0
        while done < header.n_records:
            k = min(records_per_read, header.n_records - done)
            blob = fh.read(k * ns * spr * 2)
            if len(blob) < k * ns * spr * 2:
                raise DataError(
                    f"{path}: truncated data record "
                    f"{done + len(blob) // (ns * spr * 2)} of {header.n_records}"
                )
            body = np.frombuffer(blob, dtype="<i2").reshape(k, ns, spr)
            group = np.empty((ns, k * spr))
            for ch in range(ns):
                dig = body[:, ch, :].reshape(-1).astype(float)
                group[ch] = (dig - header.dig_min[ch]) * span[ch] + header.phys_min[ch]
            done += k
            yield group


def read_edf(path: str | os.PathLike) -> EEGRecord:
    """Read an EDF file written by :func:`write_edf` (or any plain 16-bit
    EDF with constant per-signal rate and numeric header fields).

    Implemented as the materialization of the incremental reading path
    (:class:`repro.data.sources.EDFRecordSource`), so batch and streamed
    reads can never drift apart.
    """
    from .sources import EDFRecordSource

    return EDFRecordSource(path).materialize()


def write_summary(record: EEGRecord, path: str | os.PathLike) -> None:
    """Write a CHB-MIT-style text summary of the record's annotations."""
    lines = [
        f"File Name: {record.record_id}",
        f"Sampling Rate: {record.fs:g} Hz",
        f"Number of Seizures in File: {record.seizure_count}",
    ]
    for i, ann in enumerate(record.annotations, start=1):
        lines.append(f"Seizure {i} Start Time: {ann.onset_s:.3f} seconds")
        lines.append(f"Seizure {i} End Time: {ann.offset_s:.3f} seconds")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary(path: str | os.PathLike) -> list[SeizureAnnotation]:
    """Parse a summary file written by :func:`write_summary`."""
    starts: dict[int, float] = {}
    ends: dict[int, float] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("Seizure") and "Start Time:" in line:
                idx = int(line.split()[1])
                starts[idx] = float(line.split(":")[1].split()[0])
            elif line.startswith("Seizure") and "End Time:" in line:
                idx = int(line.split()[1])
                ends[idx] = float(line.split(":")[1].split()[0])
    if set(starts) != set(ends):
        raise DataError(f"{path}: mismatched seizure start/end entries")
    return [
        SeizureAnnotation(onset_s=starts[i], offset_s=ends[i])
        for i in sorted(starts)
    ]


def save_record(record: EEGRecord, basepath: str | os.PathLike) -> tuple[str, str]:
    """Persist a record as ``<basepath>.edf`` + ``<basepath>.seizures.txt``.

    Returns the two paths written.
    """
    edf_path = f"{basepath}.edf"
    summary_path = f"{basepath}.seizures.txt"
    write_edf(record, edf_path)
    write_summary(record, summary_path)
    return edf_path, summary_path


def load_record(basepath: str | os.PathLike) -> EEGRecord:
    """Load a record persisted by :func:`save_record`."""
    record = read_edf(f"{basepath}.edf")
    summary_path = f"{basepath}.seizures.txt"
    if os.path.exists(summary_path):
        record.annotations = read_summary(summary_path)
    return record
