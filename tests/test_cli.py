"""CLI subcommands as thin adapters over the library, plus exit codes."""

import contextlib
import io
import logging
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from eventsearch import cli
from eventsearch.cli import main
from eventsearch.corpus import MonthlyCorpus, ingest, segment_by_month
from eventsearch.embedding import TrainConfig, load_vectors, save_vectors, train
from eventsearch.errors import EventSearchError
from eventsearch.evaluation import format_report, recall_increase
from eventsearch.expansion import expand_query, format_expansion
from eventsearch.index import load_index
from eventsearch.ranking import TfIdf, format_results, retrieve

from util import cooccurrence_corpus

CORPUS = (
    "# sample corpus\n"
    "v1\t2018-02-03\tJewelry\tValentine Heart Necklace\n"
    "v2\t2018-02-05\tJewelry\tValentine Ring\n"
    "v3\t2018-02-07\tGifts\tJewellery Box\n"
    "v4\t2018-02-09\tGifts\tPlain Mug\n"
    "b1\t2018-08-01\tSchool\tBackpack Bag\n"
    "malformed line\n"
)

VECTORS = "3 2\nvalentine 1.0 0.0\njewellery 0.8 0.6\nring 0.0 1.0\n"


@pytest.fixture
def workspace(tmp_path):
    corpus_path = tmp_path / "corpus.tsv"
    corpus_path.write_text(CORPUS, encoding="utf-8")
    model_path = tmp_path / "feb.vec"
    model_path.write_text(VECTORS, encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngestCommand:
    def test_writes_month_partitions(self, workspace, capsys):
        out_dir = workspace / "months"
        code, out, err = run(
            capsys, "ingest", "--input", str(workspace / "corpus.tsv"), "--out-dir", str(out_dir)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("2018-02\t4\t")
        assert lines[1].startswith("2018-08\t1\t")
        feb = (out_dir / "2018-02.tsv").read_text(encoding="utf-8")
        assert feb.splitlines()[0] == "v1\t2018-02-03\tJewelry\tValentine Heart Necklace"
        assert "malformed" in err  # skipped line reported on stderr

    def test_partition_files_reingest_cleanly(self, workspace, capsys):
        out_dir = workspace / "months"
        run(capsys, "ingest", "--input", str(workspace / "corpus.tsv"), "--out-dir", str(out_dir))
        with open(out_dir / "2018-02.tsv", encoding="utf-8") as handle:
            result = ingest(handle)
        assert [d.doc_id for d in result.documents] == ["v1", "v2", "v3", "v4"]
        assert len(result.errors) == 0

    def test_failed_write_keeps_old_partition(self, workspace, capsys, monkeypatch):
        out_dir = workspace / "months"
        argv = ["ingest", "--input", str(workspace / "corpus.tsv"), "--out-dir", str(out_dir)]
        run(capsys, *argv)
        before = (out_dir / "2018-02.tsv").read_bytes()

        def broken_segment(documents):
            feb, *rest = segment_by_month(documents)
            docs = list(feb.documents)
            docs[1] = replace(docs[1], sold_date=None)  # line 1 is written, then line 2 raises
            return [MonthlyCorpus(feb.month_key, tuple(docs)), *rest]

        monkeypatch.setattr(cli, "segment_by_month", broken_segment)
        with pytest.raises(AttributeError):
            main(argv)
        assert (out_dir / "2018-02.tsv").read_bytes() == before
        assert sorted(p.name for p in out_dir.iterdir()) == ["2018-02.tsv", "2018-08.tsv"]


class TestTrainCommand:
    def test_trains_and_matches_library(self, workspace, capsys):
        out = workspace / "trained.vec"
        code, _, _ = run(
            capsys, "train", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(out), "--dim", "8", "--epochs", "2",
        )
        assert code == 0

        with open(workspace / "corpus.tsv", encoding="utf-8") as handle:
            docs = ingest(handle).documents
        part = next(p for p in segment_by_month(docs) if p.month_key == (2018, 2))
        expected = io.StringIO()
        save_vectors(train(part, TrainConfig(dim=8, epochs=2)), expected)
        assert out.read_text(encoding="utf-8") == expected.getvalue()

    def test_identical_flags_are_byte_identical(self, workspace, capsys):
        a, b = workspace / "a.vec", workspace / "b.vec"
        for path in (a, b):
            run(
                capsys, "train", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
                "--output", str(path), "--dim", "8", "--epochs", "2",
            )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], TrainConfig()),
            (["--dim", "7"], replace(TrainConfig(), dim=7)),
            (["--window", "3"], replace(TrainConfig(), window=3)),
            (["--negatives", "2"], replace(TrainConfig(), negatives=2)),
            (["--epochs", "9"], replace(TrainConfig(), epochs=9)),
            (["--lr", "0.5"], replace(TrainConfig(), lr_initial=0.5)),
            (["--lr-final", "0.001"], replace(TrainConfig(), lr_final=0.001)),
            (["--min-count", "3"], replace(TrainConfig(), min_count=3)),
            (["--seed", "11"], replace(TrainConfig(), rng_seed=11)),
        ],
        ids=["defaults", "dim", "window", "negatives", "epochs", "lr", "lr-final", "min-count",
             "seed"],
    )
    def test_each_flag_reaches_its_config_field(self, workspace, capsys, monkeypatch,
                                                flags, expected):
        configs = []

        def fake_train(corpus, cfg):
            configs.append(cfg)
            raise EventSearchError("stop before training")

        monkeypatch.setattr(cli, "train", fake_train)
        code, _, _ = run(
            capsys, "train", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(workspace / "x.vec"), *flags,
        )
        assert code == 2
        assert configs == [expected]

    def test_diverging_run_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        with open(corpus, "w", encoding="utf-8") as handle:
            for doc in cooccurrence_corpus(n_docs=60).documents:
                handle.write(f"{doc.doc_id}\t{doc.sold_date}\t{doc.category}\t{doc.title}\n")
        code, out, err = run(
            capsys, "train", "--input", str(corpus), "--output", str(tmp_path / "x.vec"),
            "--lr", "1e6",
        )
        assert (code, out) == (1, "")
        assert "non-finite" in err
        assert list(tmp_path.iterdir()) == [corpus]

    def test_multi_month_without_selector_fails(self, workspace, capsys):
        code, _, err = run(
            capsys, "train", "--input", str(workspace / "corpus.tsv"),
            "--output", str(workspace / "x.vec"),
        )
        assert code == 2
        assert "--month" in err

    def test_absent_month_is_data_error(self, workspace, capsys):
        code, _, err = run(
            capsys, "train", "--input", str(workspace / "corpus.tsv"), "--month", "2019-01",
            "--output", str(workspace / "x.vec"),
        )
        assert code == 2


class TestNeighborsCommand:
    def test_listing(self, workspace, capsys):
        code, out, _ = run(
            capsys, "neighbors", "--model", str(workspace / "feb.vec"), "--word", "valentine",
            "--k", "2", "--min-sim", "0.5",
        )
        assert code == 0
        assert out.splitlines() == ["jewellery\t0.800000"]

    def test_oov_word_is_data_error(self, workspace, capsys):
        code, _, err = run(
            capsys, "neighbors", "--model", str(workspace / "feb.vec"), "--word", "zzz"
        )
        assert code == 2


class TestExpandCommand:
    def test_dump_matches_library(self, workspace, capsys):
        code, out, _ = run(
            capsys, "expand", "--model", str(workspace / "feb.vec"), "--seed", "valentine day"
        )
        assert code == 0
        model = load_vectors(workspace / "feb.vec")
        expected = format_expansion(expand_query(["valentine day"], model))
        assert out == expected + "\n"
        assert "jewellery\t0.800000\texpansion" in out.splitlines()


class TestIndexAndSearchCommands:
    def _build(self, workspace, capsys):
        index_path = workspace / "feb.idx"
        code, _, _ = run(
            capsys, "index", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(index_path),
        )
        assert code == 0
        return index_path

    def test_index_round_trips(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        index = load_index(index_path)
        assert index.doc_count == 4
        assert index.doc_freq["valentine"] == 2

    def test_search_matches_library(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        code, out, _ = run(
            capsys, "search", "--index", str(index_path), "--model", str(workspace / "feb.vec"),
            "--seed", "valentine",
        )
        assert code == 0
        index = load_index(index_path)
        model = load_vectors(workspace / "feb.vec")
        query = expand_query(["valentine"], model)
        expected = format_results(retrieve(index, query, TfIdf(), threshold=0.0))
        assert out == expected + "\n"
        assert {line.split("\t")[1] for line in out.splitlines()} == {"v1", "v2", "v3"}

    def test_seed_only_search(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        code, out, _ = run(
            capsys, "search", "--index", str(index_path), "--seed", "valentine"
        )
        assert code == 0
        assert {line.split("\t")[1] for line in out.splitlines()} == {"v1", "v2"}

    def test_seed_only_search_reads_stop_file(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        bad = workspace / "bad.stop"
        bad.write_text("Bad\n", encoding="utf-8")
        for stop_file, expected in ((workspace / "missing.stop", 2), (bad, 1)):
            code, out, err = run(
                capsys, "search", "--index", str(index_path), "--seed", "valentine",
                "--stopwords", str(stop_file),
            )
            assert (code, out) == (expected, "")
            assert "error" in err

    def test_threshold_above_everything_prints_nothing(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        code, out, _ = run(
            capsys, "search", "--index", str(index_path), "--seed", "valentine",
            "--threshold", "999",
        )
        assert code == 0
        assert out == ""

    def test_bm25_scorer_accepted(self, workspace, capsys):
        index_path = self._build(workspace, capsys)
        code, out, _ = run(
            capsys, "search", "--index", str(index_path), "--seed", "valentine",
            "--scorer", "bm25", "--bm25-k1", "1.5", "--bm25-b", "0.5",
        )
        assert code == 0
        assert out != ""


class TestEvalCommand:
    def test_report_matches_library(self, workspace, capsys):
        index_path = workspace / "feb.idx"
        run(
            capsys, "index", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(index_path),
        )
        code, out, _ = run(
            capsys, "eval", "--index", str(index_path), "--model", str(workspace / "feb.vec"),
            "--seed", "valentine",
        )
        assert code == 0
        index = load_index(index_path)
        model = load_vectors(workspace / "feb.vec")
        expected = format_report(recall_increase(index, ["valentine"], model))
        assert out == expected + "\n"
        assert out.splitlines()[-1] == "seed_hits=2 expanded_hits=3 increase=50.0%"


class TestLogging:
    def test_warning_goes_to_stderr(self, workspace, capsys):
        code, out, err = run(
            capsys, "expand", "--model", str(workspace / "feb.vec"), "--seed", "zzz valentine"
        )
        assert code == 0
        assert "jewellery" in out
        assert err == "WARNING seed term 'zzz' not in vocabulary, skipping expansion for it\n"

    def test_logger_restored_after_main(self, workspace, caplog, capsys):
        stream = io.StringIO()
        with contextlib.redirect_stderr(stream):
            assert main(["expand", "--model", str(workspace / "feb.vec"), "--seed", "zzz"]) == 0
        stream.close()
        caplog.set_level(logging.WARNING, logger="eventsearch")
        expand_query(["zzz valentine"], load_vectors(workspace / "feb.vec"))
        assert [r.getMessage() for r in caplog.records] == [
            "seed term 'zzz' not in vocabulary, skipping expansion for it"
        ]
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "neighbors", "--word", "x")
        assert code == 1

    def test_flag_out_of_domain(self, workspace, capsys):
        code, _, err = run(
            capsys, "expand", "--model", str(workspace / "feb.vec"), "--seed", "x", "--k", "9"
        )
        assert code == 1
        assert "1..4" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["neighbors", "--model", "{vec}", "--word", "valentine", "--min-sim", "nan"],
             "min_sim"),
            (["neighbors", "--model", "{vec}", "--word", "valentine", "--k", "0"], "k must be"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--k", "9"], "1..4"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--min-sim", "1.5"], "min_sim"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--limit", "0"], "limit"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--threshold", "-1"],
             "threshold"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--scorer", "bm25",
              "--bm25-b", "2"], "b must be"),
            (["train", "--input", "{tsv}", "--output", "{out}", "--dim", "0"], "dim"),
            (["train", "--input", "{tsv}", "--output", "{out}", "--lr", "-1"], "lr_"),
            (["train", "--input", "{tsv}", "--output", "{out}", "--lr", "inf"], "lr_initial"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--scorer", "bm25",
              "--bm25-k1", "inf"], "k1 must be finite"),
        ],
    )
    def test_library_rejects_flag_value(self, workspace, capsys, argv, message):
        paths = {"vec": workspace / "feb.vec", "idx": workspace / "feb.idx",
                 "tsv": workspace / "corpus.tsv", "out": workspace / "out.vec"}
        run(capsys, "index", "--input", str(paths["tsv"]), "--month", "2018-02",
            "--output", str(paths["idx"]))
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 1
        assert out == ""
        assert message in err

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "index", "--input", str(tmp_path / "nope.tsv"),
            "--output", str(tmp_path / "o.idx"),
        )
        assert code == 2

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("not a vector file\n", encoding="utf-8")
        code, _, err = run(capsys, "neighbors", "--model", str(bad), "--word", "x")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_module_entry_point(self, workspace):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "eventsearch.cli", "neighbors", "--model",
             str(workspace / "feb.vec"), "--word", "valentine", "--min-sim", "0.5"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "jewellery\t0.800000" in proc.stdout
