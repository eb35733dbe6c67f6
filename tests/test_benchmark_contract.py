"""What the benchmark relies on: the library functions its traced run wraps by
name, the planted-pair check it makes on season-build's trained vectors, the
files cli-session loads, and its brute-force output checks on a served month's
index and rankings."""

import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from eventsearch import cli
from eventsearch.corpus import format_month, ingest, segment_by_month
from eventsearch.embedding import EmbeddingModel, TrainConfig, load_vectors, sim, train
from eventsearch.evaluation import recall_increase
from eventsearch.expansion import expand_query
from eventsearch.index import build_index, load_index, save_index
from eventsearch.ranking import Bm25, TfIdf, retrieve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles the file without writing a bytecode cache next to it
TRACING = runpy.run_path(str(PERFBENCH / "tracing.py"))
BRUTE = runpy.run_path(str(PERFBENCH / "brute.py"))


@pytest.mark.parametrize("layer, func", TRACING["TARGETS"])
def test_traced_target_exists(layer, func):
    module = importlib.import_module(f"eventsearch.{layer}")
    assert callable(getattr(module, func, None)), f"eventsearch.{layer}.{func} is not callable"


@pytest.mark.parametrize("argv", [["ingest", "--out-dir", "{tmp}"],
                                  ["train", "--output", "{tmp}/o.vec", "--min-count", "1"],
                                  ["index", "--output", "{tmp}/o.idx"]])
def test_traced_ingest_names_its_input(tmp_path, monkeypatch, capsys, argv):
    """The traced run counts the lines a CLI call ingests from the file its handle names."""
    corpus = tmp_path / "c.tsv"
    corpus.write_text("d1\t2018-02-01\tc\tt u\nd2\t2018-02-02\tc\tt u\n", encoding="utf-8")
    named = []

    def traced_ingest(lines):
        named.append(TRACING["ATTRS"]["corpus.ingest"]({"lines": lines}))
        return ingest(lines)

    monkeypatch.setattr(cli, "ingest", traced_ingest)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main([*argv, "--input", str(corpus)]) == 0
    assert named == [{"path": str(corpus)}]


@pytest.fixture(scope="module")
def gen():
    """perfbench/gen.py, imported without writing bytecode into perfbench/."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        yield runpy.run_path(str(PERFBENCH / "gen.py"))


@pytest.mark.parametrize("seed", range(10))
def test_planted_pairs_train_closer_than_control(gen, seed):
    """season-build's check on the trained vectors: sim(a, b) > sim(a, control) every month."""
    season = gen["season"](seed, gen["SIZES"]["tiny"]["season"])
    flags = dict(gen["TRAIN_FLAGS"])
    cfg = TrainConfig(lr_initial=flags.pop("lr"), rng_seed=seed, **flags)
    months = segment_by_month(ingest(doc.tsv() for doc in season.docs).documents)
    assert [format_month(m.month_key) for m in months] == season.months
    for month in months:
        a, b, control = season.planted[format_month(month.month_key)]
        model = train(month, cfg)
        assert sim(model, a, b) > sim(model, a, control)


@pytest.mark.parametrize("seed", range(5))
def test_cli_files_load_exactly(gen, seed, tmp_path):
    """cli-session's vector file loads as gen's terms and vectors, bit for bit, and its
    month's saved and reloaded index has the brute-force document frequencies."""
    served = gen["served"](seed, gen["SIZES"]["tiny"]["cli"], "cli")
    (tmp_path / "model.vec").write_text("".join(served.vector_lines()), encoding="utf-8")
    model = load_vectors(tmp_path / "model.vec")
    assert model.terms == served.terms
    assert model._matrix.tobytes() == served.vectors.tobytes()
    (month,) = segment_by_month(ingest(doc.tsv() for doc in served.docs).documents)
    save_index(build_index(month), tmp_path / "month.idx")
    assert load_index(tmp_path / "month.idx").doc_freq == BRUTE["Corpus"](served.docs).df


@pytest.mark.parametrize("seed", range(5))
def test_served_month_passes_brute_force_checks(gen, seed, tmp_path):
    """search-warm's output gate: the loaded index's document frequencies, as
    season-build writes them to JSON, every retrieve op's ranking and every
    eval op's hit counts."""
    served = gen["served"](seed, gen["SIZES"]["tiny"]["search"], "search")
    (month,) = segment_by_month(ingest(doc.tsv() for doc in served.docs).documents)
    save_index(build_index(month), tmp_path / "month.idx")
    index = load_index(tmp_path / "month.idx")
    corpus = BRUTE["Corpus"](served.docs)
    assert json.loads(json.dumps(index.doc_freq)) == index.doc_freq == corpus.df
    model = EmbeddingModel(served.terms, served.vectors)
    vectors = BRUTE["Vectors"](served.terms, served.vectors)
    assert {op["op"] for op in served.ops} == {"retrieve", "eval"}
    for i, op in enumerate(served.ops):
        spec = op["scorer"]
        scorer = Bm25(spec["k1"], spec["b"]) if spec["kind"] == "bm25" else TfIdf()
        weights = vectors.expand(op["seed"].split(), op["k"], op["min_sim"])[1]
        if op["op"] == "eval":
            report = recall_increase(index, [op["seed"]], model, k=op["k"],
                                     min_sim=op["min_sim"], threshold=op["threshold"],
                                     scorer=scorer)
            seed_hits, hits, pct = corpus.recall(op["seed"].split(), weights, spec,
                                                 op["threshold"])
            assert (report.seed_hits, report.expanded_hits) == (seed_hits, hits), f"op {i}"
            assert abs(report.increase_pct - pct) <= BRUTE["SCORE_TOL"], f"op {i}"
            continue
        query = expand_query([op["seed"]], model, k=op["k"], min_sim=op["min_sim"])
        results = retrieve(index, query, scorer, threshold=op["threshold"], limit=op["limit"])
        kept = corpus.kept(weights, spec, op["threshold"])
        rows = [(r.doc_id, r.score, r.matched_terms) for r in results]
        assert BRUTE["check_ranking"](rows, kept, op["limit"], BRUTE["SCORE_TOL"], f"op {i}") == []


def test_curve_runs_at_one_tiny_size(capsys):
    """perfbench/curve.py runs on the library's public API: one size, one row per band."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        main = runpy.run_path(str(PERFBENCH / "curve.py"))["main"]
        patch.setitem(main.__globals__, "SIZES", (300,))
        assert main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("docs\t") and len(rows) == 3
    assert all(row.startswith("300\t") for row in rows)
