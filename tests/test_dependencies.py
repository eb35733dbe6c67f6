"""The package imports nothing beyond the standard library and numpy, and only numpy's public
names: pyproject.toml declares numpy>=1.24, and numpy._core does not exist before numpy 2.0.
Nor does it name numpy.random, whose import every fresh process would pay for in time and
memory: the trainer draws from its own generator, and no CLI call loads numpy.random at all."""

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


def _forbidden(name: str) -> bool:
    return name in ("core", "random") or (name.startswith("_") and not name.endswith("__"))


def forbidden_numpy_uses(source: str) -> list[str]:
    """Each import of, or attribute read from, numpy._*, numpy.core or numpy.random in source, as
    its text."""
    tree = ast.parse(source)
    names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "numpy":
                    names.add(alias.asname or "numpy")
                    if rest and _forbidden(rest.split(".")[0]):
                        found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top, _, rest = (node.module or "").partition(".")
            if top == "numpy" and rest:
                if _forbidden(rest.split(".")[0]):
                    found.append(node.module)
            elif top == "numpy":
                found += [f"numpy.{a.name}" for a in node.names if _forbidden(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names and _forbidden(node.attr)):
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
    ("import numpy as np\nnp.random.default_rng(7).random(3)", ["np.random"]),
    ("import numpy.random as npr", ["numpy.random"]),
    ("from numpy.random import default_rng", ["numpy.random"]),
    ("from numpy import random", ["numpy.random"]),
    ("import numpy\nnumpy.random.seed(0)", ["numpy.random"]),
])
def test_private_numpy_scan(source, found):
    assert forbidden_numpy_uses(source) == found


def test_src_uses_only_public_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): uses for path in files
             if (uses := forbidden_numpy_uses(path.read_text(encoding="utf-8")))}
    assert found == {}


SESSION = """
import sys
from eventsearch.cli import main

corpus, work = sys.argv[1:]
index, model = f"{work}/2018-02.idx", f"{work}/2018-02.vec"
calls = [
    ["ingest", "--input", corpus, "--out-dir", work],
    ["train", "--input", corpus, "--month", "2018-02", "--min-count", "1", "--output", model],
    ["index", "--input", corpus, "--month", "2018-02", "--output", index],
    ["search", "--index", index, "--model", model, "--seed", "valentine necklace"],
    ["eval", "--index", index, "--model", model, "--seed", "valentine"],
    ["expand", "--model", model, "--seed", "winter coffee"],
    ["neighbors", "--model", model, "--word", "heart"],
]
print(*[main(argv) for argv in calls], "numpy.random" in sys.modules)
"""


def test_no_cli_call_imports_numpy_random(tmp_path):
    # every subcommand in one fresh interpreter, over the golden corpus
    corpus = Path(__file__).parent / "golden" / "corpus.tsv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", SESSION, str(corpus), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0 0 0 0 0 False"
