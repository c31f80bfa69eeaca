"""One reused per-thread workspace for the kernels' block temporaries.

A batched Paper-10 call builds a handful of block-sized temporaries —
the Welch row copy, its ``rfft`` spectrum and PSD, the trapezoid
addends, the sliding DWT's level-1 polyphase copy and accumulators,
SampEn's pair tensor — and many of them reach 128 KiB, where glibc's
``malloc`` (at its default threshold) maps a fresh region and the
kernel page-faults every page of it on first touch.  Allocated fresh
on every call, they cost a 60-window call hundreds of minor faults.
:func:`scratch` hands each such temporary a buffer that lives on
between calls instead: one buffer per *slot* name, grown to the largest
request seen and reused at every call.

Rules that keep the reuse invisible:

- **Per thread.**  The buffers hang off a ``threading.local``, so a
  shard's two extracting threads never share one.
- **Never returned.**  A kernel writes its temporaries into scratch
  views and copies what it returns into arrays of its own: no array a
  caller receives (feature rows, DWT details, band powers, a stream's
  retained samples) is a workspace view.  Each slot name belongs to one
  function, and a view is dead once that function returns (or, for a
  generator, moves on), so no two live temporaries share a buffer.
- **Large only.**  A temporary under :data:`FRESH_BYTES` is allocated
  fresh, as before: ``malloc`` serves those from its heap without
  mapping anything, so a live session's 1-window calls keep their
  cost.
- **Bounded.**  One thread's workspace holds at most
  :data:`WORKSPACE_BYTES`.  A request that would take it past the bound
  gets a fresh array, freed as before, and the slot keeps the buffer it
  had.  So a 600-window call runs its Welch blocks (bounded by
  ``_PSD_CHUNK_BYTES``) in the workspace and its record-sized DWT and
  SampEn temporaries fresh, and the calls after it find the workspace
  no larger than the bound.

Writing into a scratch view with ``out=`` gives the same bits as the
out-of-place expression: every such step is elementwise or along a
contiguous row, and the layout is the same C order a fresh array has.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["FRESH_BYTES", "WORKSPACE_BYTES", "scratch", "workspace_bytes"]

#: Most bytes one thread's workspace holds.  A 64-window block push
#: takes 1.41 MB: the Welch block's row copy and spectrum (519 KB at
#: ``_PSD_CHUNK_BYTES``), the sliding DWT's stream buffers (480 KB),
#: the stream's block buffer (279 KB) and SampEn's pair tensor
#: (131 KB).
WORKSPACE_BYTES = 3 * 512 * 1024

#: Smallest temporary the workspace holds, in bytes.  A smaller one is
#: allocated fresh: ``malloc`` serves it from memory freed moments ago,
#: still in cache and already mapped, where a kept buffer has gone cold
#: since the last call.  Keeping every temporary, a traced live
#: ``repro serve`` run (1-window calls, 16 KB Welch rows) read band
#: powers 18 µs and SampEn 11 µs slower per call than fresh arrays.
FRESH_BYTES = 32 * 1024


class _Workspace(threading.local):
    def __init__(self) -> None:
        #: (slot, dtype) -> 1-D buffer
        self.buffers: dict[tuple[str, type], np.ndarray] = {}
        self.held = 0


_local = _Workspace()


def scratch(slot: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
    """An uninitialized C-contiguous ``shape`` array of ``dtype`` for
    ``slot``'s temporary: a view into this thread's workspace from
    :data:`FRESH_BYTES` up while the bound allows, else a fresh array.

    The contents are whatever the slot's last user left there.  The view
    stays valid until the next ``scratch`` call for the same slot on
    this thread.
    """
    size = math.prod(shape)
    need = size * np.dtype(dtype).itemsize
    if need < FRESH_BYTES:
        return np.empty(shape, dtype)
    key = (slot, dtype)
    buf = _local.buffers.get(key)
    if buf is None or buf.size < size:
        old = 0 if buf is None else buf.nbytes
        if _local.held - old + need > WORKSPACE_BYTES:
            return np.empty(shape, dtype)
        buf = np.empty(size, dtype)
        _local.buffers[key] = buf
        _local.held += need - old
    return buf[:size].reshape(shape)


def workspace_bytes() -> int:
    """Bytes the calling thread's workspace holds."""
    return _local.held
