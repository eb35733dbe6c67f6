"""Golden CLI transcripts: the exact stdout and exit code of each call, and the sha256 of the
index file, over a fixed 30-line corpus, a hand-written vector file with planted clusters
(valentine, silver/gold, winter, coffee) and a one-word stop word file. Nothing in the fixture
is trained. A second case pins `ingest` over the same corpus: its stdout and the sha256 of each
partition file it writes.

    PYTHONPATH=src python tests/test_golden.py

rewrites tests/golden/transcripts.json and tests/golden/ingest.json from the current code; the
tests compare against them.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from eventsearch.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = GOLDEN / "transcripts.json"
INGEST = GOLDEN / "ingest.json"
SEARCH = ["search", "--index", "{index}", "--seed"]
CALLS = [
    ["index", "--input", "{corpus}", "--month", "2018-02", "--output", "{index}"],
    ["neighbors", "--model", "{model}", "--word", "valentine"],
    ["neighbors", "--model", "{model}", "--word", "winter", "--k", "2", "--min-sim", "0.5"],
    ["neighbors", "--model", "{model}", "--word", "box", "--min-sim", "0.7"],
    ["neighbors", "--model", "{model}", "--word", "pencil"],
    ["expand", "--model", "{model}", "--seed", "valentine jewelry"],
    ["expand", "--model", "{model}", "--seed", "winter coffee", "--k", "2", "--min-sim", "0.8"],
    SEARCH + ["heart necklace"],
    SEARCH + ["heart necklace", "--scorer", "bm25"],
    SEARCH + ["valentine", "--model", "{model}"],
    SEARCH + ["valentine", "--model", "{model}", "--scorer", "bm25", "--limit", "5"],
    SEARCH + ["snow", "--model", "{model}", "--threshold", "1.5"],
    SEARCH + ["chocolate", "--model", "{model}", "--scorer", "bm25", "--bm25-k1", "2.0",
              "--bm25-b", "0.5"],
    SEARCH + ["valentine", "--limit", "0"],
    ["search", "--index", "{missing}", "--seed", "valentine"],
    ["eval", "--index", "{index}", "--model", "{model}", "--seed", "valentine"],
    ["eval", "--index", "{index}", "--model", "{model}", "--seed", "winter", "--scorer", "bm25"],
    ["expand", "--model", "{model}", "--seed", "the valentine jewelry"],
    ["expand", "--model", "{model}", "--seed", "valentine jewelry", "--stopwords", "{stops}"],
    SEARCH + ["the heart", "--stopwords", "{stops}"],
]


def run_calls(workdir: Path):
    """(index sha256, [{argv, exit, stdout}]) for CALLS run in order in workdir."""
    paths = {"corpus": GOLDEN / "corpus.tsv", "model": GOLDEN / "model.vec",
             "index": workdir / "2018-02.idx", "missing": workdir / "missing.idx",
             "stops": GOLDEN / "stopwords.txt"}
    outcomes = []
    for argv in CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
        outcomes.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    return hashlib.sha256(paths["index"].read_bytes()).hexdigest(), outcomes


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_calls(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


def test_index_file_unchanged(session, golden):
    assert session[0] == golden["index_sha256"]


def test_transcripts_cover_the_calls(golden):
    assert [call["argv"] for call in golden["calls"]] == CALLS


@pytest.mark.parametrize("number", range(len(CALLS)),
                         ids=[f"{i}-{argv[0]}" for i, argv in enumerate(CALLS)])
def test_call_unchanged(session, golden, number):
    assert session[1][number] == golden["calls"][number]


def run_ingest(workdir: Path):
    """{exit, stdout, partitions: {file name: sha256}} of `ingest` over the corpus into workdir;
    stdout names workdir as {out_dir}."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["ingest", "--input", str(GOLDEN / "corpus.tsv"), "--out-dir", str(workdir)])
    partitions = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(workdir.iterdir())}
    return {"exit": code, "stdout": out.getvalue().replace(str(workdir), "{out_dir}"),
            "partitions": partitions}


def test_ingest_unchanged(tmp_path):
    assert run_ingest(tmp_path) == json.loads(INGEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        sha, calls = run_calls(Path(workdir))
    TRANSCRIPTS.write_text(json.dumps({"index_sha256": sha, "calls": calls}, indent=1) + "\n",
                           encoding="utf-8")
    with tempfile.TemporaryDirectory() as workdir:
        INGEST.write_text(json.dumps(run_ingest(Path(workdir)), indent=1) + "\n",
                          encoding="utf-8")
