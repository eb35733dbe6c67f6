"""Golden CLI transcripts: the exact stdout and exit code of each call, and the sha256 of the
index file, over a fixed 30-line corpus, a hand-written vector file with planted clusters
(valentine, silver/gold, winter, coffee) and a one-word stop word file. Nothing in the fixture
is trained. A second case pins `ingest` over the same corpus: its stdout and the sha256 of each
partition file it writes. A third pins the library's figures over the same fixture in full
precision, each float as its float.hex: most_similar scores, expand_query weights, retrieve's
scores and contributions, and count_hits and recall_increase.

    PYTHONPATH=src python tests/test_golden.py

rewrites tests/golden/transcripts.json, tests/golden/ingest.json and tests/golden/library.json
from the current code; the tests compare against them.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from eventsearch import (Bm25, TfIdf, build_index, expand_query, ingest, load_vectors,
                         most_similar, recall_increase, retrieve, segment_by_month)
from eventsearch.cli import main
from eventsearch.errors import UndefinedBaseline
from eventsearch.ranking import count_hits

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = GOLDEN / "transcripts.json"
INGEST = GOLDEN / "ingest.json"
LIBRARY = GOLDEN / "library.json"
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


LIBRARY_SEEDS = ["valentine", "valentine jewelry", "heart necklace", "winter coffee", "snow",
                 "chocolate", "pencil"]
LIBRARY_EXPANSIONS = [(4, 0.6), (2, 0.8), (4, 0.3)]  # (k, min_sim)
LIBRARY_SCORERS = {"tfidf": TfIdf(), "bm25": Bm25(), "bm25(1.7,0.3)": Bm25(1.7, 0.3)}
LIBRARY_THRESHOLDS = [0.0, 1.5, 3.0]  # 3.0 drops documents, 1.5 drops none
LIBRARY_LIMITS = [None, 3]


def run_library():
    """{section: figures} of the library over the golden month and model, every float as hex."""
    model = load_vectors(GOLDEN / "model.vec")
    with open(GOLDEN / "corpus.tsv", encoding="utf-8") as handle:
        month = segment_by_month(ingest(handle).documents)[0]
    index = build_index(month)
    neighbors = {f"{term} k={k}": [[n, s.hex()] for n, s in most_similar(model, term, k, -1.0)]
                 for k in (3, 16) for term in model.terms}  # k=3 keeps the k best of 15
    expansions = {f"{seed} k={k} min_sim={min_sim}":
                  [[t, w.hex()] for t, w in expand_query([seed], model, k=k, min_sim=min_sim)
                   .expansion_terms.items()]
                  for seed in LIBRARY_SEEDS for k, min_sim in LIBRARY_EXPANSIONS}
    ranked, hits, recall = {}, {}, {}
    for seed in LIBRARY_SEEDS:
        query = expand_query([seed], model)
        for name, scorer in LIBRARY_SCORERS.items():
            for threshold in LIBRARY_THRESHOLDS:
                case = f"{seed} {name} threshold={threshold}"
                for limit in LIBRARY_LIMITS:
                    ranked[f"{case} limit={limit}"] = [
                        [r.doc_id, r.score.hex(), [[t, c.hex()] for t, c in r.matched_terms]]
                        for r in retrieve(index, query, scorer, threshold, limit)]
                hits[case] = list(count_hits(index, query, scorer, threshold))
                try:
                    report = recall_increase(index, [seed], model, threshold=threshold,
                                             scorer=scorer)
                except UndefinedBaseline:
                    recall[case] = "UndefinedBaseline"
                else:
                    recall[case] = [report.seed_hits, report.expanded_hits,
                                    report.increase_pct.hex()]
    return {"most_similar": neighbors, "expand_query": expansions, "retrieve": ranked,
            "count_hits": hits, "recall_increase": recall}


@pytest.fixture(scope="module")
def library():
    return run_library()


@pytest.mark.parametrize("section", ["most_similar", "expand_query", "retrieve", "count_hits",
                                     "recall_increase"])
def test_library_unchanged(library, section):
    assert library[section] == json.loads(LIBRARY.read_text(encoding="utf-8"))[section]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        sha, calls = run_calls(Path(workdir))
    TRANSCRIPTS.write_text(json.dumps({"index_sha256": sha, "calls": calls}, indent=1) + "\n",
                           encoding="utf-8")
    with tempfile.TemporaryDirectory() as workdir:
        INGEST.write_text(json.dumps(run_ingest(Path(workdir)), indent=1) + "\n",
                          encoding="utf-8")
    LIBRARY.write_text(json.dumps(run_library(), indent=1) + "\n", encoding="utf-8")
