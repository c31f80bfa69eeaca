"""``import repro`` loads numpy and nothing else from outside the stdlib.

numpy is the package's only runtime dependency; scipy is test-only (the
spectral cross-checks), so no process — CLI, engine worker, service
shard — ever loads it.  Checked in a fresh interpreter, because this
test process has long since imported scipy elsewhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_PROBE = """
import json, sys
before = set(sys.modules)
import repro
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in loaded
    if name not in sys.stdlib_module_names and not name.startswith("_")
)))
"""


def test_import_repro_is_numpy_only():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        env=env,
        text=True,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert not {"scipy", "networkx"} & loaded, loaded
    assert loaded == {"numpy", "repro"}
