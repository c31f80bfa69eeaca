"""Launch ``repro serve`` exactly as its CLI does, optionally traced.

Usage: ``python perfbench/serve_sut.py serve --port 0 [--workers N] ...``
(every argument goes to ``repro.cli.main``).  With ``PERFBENCH_TRACE_DIR``
set, the layer wrappers of ``layertrace`` are installed before the
service starts.  Shard workers are spawned processes that re-import this
file as ``__mp_main__``, so the same top-level code installs the
wrappers in every shard too, and the shard entry point is wrapped to
write its spans when the shard exits.
"""

from __future__ import annotations

import functools
import os
import sys

import layertrace

ROLE = "serve" if __name__ == "__main__" else "shard"
TRACER = layertrace.start_from_env(ROLE)

if TRACER is not None and ROLE == "shard":
    from repro.service import fleet

    _shard_main = fleet._shard_worker_main

    @functools.wraps(_shard_main)
    def _traced_shard_main(*args, **kwargs):
        try:
            return _shard_main(*args, **kwargs)
        finally:
            TRACER.dump(os.environ["PERFBENCH_TRACE_DIR"])

    fleet._shard_worker_main = _traced_shard_main


def main() -> int:
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        if TRACER is not None:
            TRACER.dump(os.environ["PERFBENCH_TRACE_DIR"])


if __name__ == "__main__":
    sys.exit(main())
