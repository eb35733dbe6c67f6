"""The package imports nothing beyond the standard library and numpy."""

import os
import subprocess
import sys

SCRIPT = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import eventsearch, eventsearch.cli\n"
    "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
)


def test_imports_only_stdlib_and_numpy():
    # a fresh interpreter, so that modules this test process has loaded do not hide an import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.split())
    assert {"eventsearch", "numpy"} <= imported
    assert imported - set(sys.stdlib_module_names) - {"eventsearch", "numpy"} == set()
