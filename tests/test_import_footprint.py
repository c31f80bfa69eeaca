"""What each kind of ``repro`` process imports.

numpy is the package's only runtime dependency; scipy is test-only (the
spectral cross-checks), so no process — CLI, engine worker, service
shard — ever loads it.  The package roots resolve their exports on first
use, so each process also loads only the ``repro`` modules it runs: a
bare ``import repro`` loads none, the cohort path never loads the
service, and a service shard never loads the engine.  Every probe runs
in a fresh interpreter, because this test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Every public name of the root and of each subpackage.
_RESOLVE_EVERY_EXPORT = """
import importlib, pkgutil
import repro
subpackages = [m.name for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg]
for package in [repro, *map(importlib.import_module, subpackages)]:
    for name in package.__all__:
        getattr(package, name)
"""

#: The imports ``perfbench/cohort_sut.py`` makes, then one serial record
#: of the baseline cohort (patients 1 and 8, 8-15 min records).
_COHORT_ENTRY = """
from repro.data.dataset import SyntheticEEGDataset
from repro.engine.executor import CohortEngine
from repro.engine.report import CohortReport
from repro.engine.tasks import cohort_tasks
from repro.exceptions import EngineError
from repro.kernels import get_kernel

dataset = SyntheticEEGDataset(seed=2019, duration_range_s=(480.0, 900.0))
task = cohort_tasks(dataset, patient_ids=(1, 8))[0]
report = CohortEngine(dataset, executor="serial").run([task])
assert report.n_records == 1, report
"""

#: ``repro serve`` in process, for a moment, on a free port.
_SERVE_ENTRY = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["serve", "--port", "0", "--max-seconds", "0.2"]) == 0
"""


def _loaded(code: str) -> list[str]:
    """The modules a fresh interpreter adds to ``sys.modules`` by
    running ``code``."""
    probe = textwrap.dedent(
        """
        import json, sys
        before = set(sys.modules)
        exec(compile(CODE, "<probe>", "exec"), {"__name__": "__probe__"})
        print(json.dumps(sorted(set(sys.modules) - before)))
        """
    ).replace("CODE", repr(code))
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env=env,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _repro_modules(loaded: list[str]) -> set[str]:
    return {m for m in loaded if m == "repro" or m.startswith("repro.")}


def _hits(loaded: list[str], forbidden: tuple[str, ...]) -> set[str]:
    return {
        m for m in loaded
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    }


def test_import_repro_is_numpy_only():
    loaded = {
        name.split(".")[0] for name in _loaded(_RESOLVE_EVERY_EXPORT)
        if name.split(".")[0] not in sys.stdlib_module_names
        and not name.startswith("_")
    }
    assert not {"scipy", "networkx"} & loaded, loaded
    assert loaded == {"numpy", "repro"}


def test_bare_import_loads_no_submodule():
    assert _repro_modules(_loaded("import repro")) == {"repro"}


def test_cohort_entry_loads_only_the_cohort_path():
    loaded = _loaded(_COHORT_ENTRY)
    assert not _hits(loaded, (
        "repro.service", "repro.cli", "repro.api", "repro.engine.sharding",
        "repro.platform", "repro.selflearning", "asyncio", "ssl",
        # A serial run needs neither the process pool nor the EDF reader.
        "concurrent.futures.process", "multiprocessing", "repro.data.edf",
    ))
    assert len(_repro_modules(loaded)) <= 50, sorted(_repro_modules(loaded))


def test_shard_worker_entry_loads_no_engine():
    loaded = _loaded("from repro.service.fleet import _shard_worker_main")
    assert not _hits(loaded, (
        "repro.engine", "repro.data.dataset", "repro.data.edf",
        "repro.platform", "repro.cli",
    ))


def test_serve_entry_loads_no_engine():
    loaded = _loaded(_SERVE_ENTRY)
    assert not _hits(loaded, (
        "repro.engine", "repro.data.dataset", "repro.data.edf",
        "repro.platform", "repro.selflearning.pipeline",
    ))


def test_parser_loads_neither_engine_nor_service():
    loaded = _loaded("from repro.cli import build_parser; build_parser()")
    assert _repro_modules(loaded) == {
        "repro", "repro.cli", "repro.exceptions", "repro.settings",
    }
    assert "numpy" not in loaded
