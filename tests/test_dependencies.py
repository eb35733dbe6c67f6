"""The package imports nothing beyond the standard library and numpy, and only numpy's public
names: pyproject.toml declares numpy>=1.24, and numpy._core does not exist before numpy 2.0."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

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


def _private(name: str) -> bool:
    return name == "core" or (name.startswith("_") and not name.endswith("__"))


def private_numpy_uses(source: str) -> list[str]:
    """Each import of, or attribute read from, numpy._* or numpy.core in source, as its text."""
    tree = ast.parse(source)
    names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "numpy":
                    names.add(alias.asname or "numpy")
                    if rest and _private(rest.split(".")[0]):
                        found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top, _, rest = (node.module or "").partition(".")
            if top == "numpy" and rest:
                if _private(rest.split(".")[0]):
                    found.append(node.module)
            elif top == "numpy":
                found += [f"numpy.{a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.einsum", []),
    ("import numpy as np\nnp.__version__", []),
    ("import numpy as np\nnp._core.multiarray.c_einsum", ["np._core"]),
    ("import numpy\nnumpy.core.umath.clip", ["numpy.core"]),
    ("import numpy._core.umath as um", ["numpy._core.umath"]),
    ("from numpy._core.multiarray import c_einsum", ["numpy._core.multiarray"]),
    ("from numpy.core import umath", ["numpy.core"]),
    ("from numpy import _core, linalg", ["numpy._core"]),
    ("from numpy.linalg import norm", []),
])
def test_private_numpy_scan(source, found):
    assert private_numpy_uses(source) == found


def test_src_uses_only_public_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): uses for path in files
             if (uses := private_numpy_uses(path.read_text(encoding="utf-8")))}
    assert found == {}
