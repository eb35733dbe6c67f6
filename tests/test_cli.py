"""CLI subcommands as thin adapters over the library, plus exit codes."""

import argparse
import codecs
import contextlib
import io
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from eventsearch import cli
from eventsearch.cli import main
from eventsearch.corpus import MonthlyCorpus, ingest, segment_by_month
from eventsearch.embedding import LR_FINAL, TrainConfig, load_vectors, save_vectors, train
from eventsearch.errors import EventSearchError
from eventsearch.evaluation import format_report, recall_increase
from eventsearch.expansion import expand_query, format_expansion
from eventsearch.index import load_index
from eventsearch.ranking import TfIdf, format_results, retrieve

from util import cooccurrence_corpus, date_failing_to_write

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

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_any_line_ending_reads_alike(self, workspace, capsys, newline):
        base = run(capsys, "ingest", "--input", str(workspace / "corpus.tsv"),
                   "--out-dir", str(workspace / "lf"))
        other = workspace / "other.tsv"
        other.write_bytes(CORPUS.replace("\n", newline).encode("utf-8"))
        code, out, err = run(capsys, "ingest", "--input", str(other),
                             "--out-dir", str(workspace / "lf"))
        assert (code, out, err.replace(str(other), "")) == (
            base[0], base[1], base[2].replace(str(workspace / "corpus.tsv"), ""))

    def test_leading_byte_order_mark_dropped(self, workspace, capsys):
        base = run(capsys, "ingest", "--input", str(workspace / "corpus.tsv"),
                   "--out-dir", str(workspace / "plain"))
        marked = workspace / "marked.tsv"
        marked.write_bytes(codecs.BOM_UTF8 + CORPUS.encode("utf-8"))
        code, out, err = run(capsys, "ingest", "--input", str(marked),
                             "--out-dir", str(workspace / "plain"))
        assert (code, out, err.replace(str(marked), "")) == (
            base[0], base[1], base[2].replace(str(workspace / "corpus.tsv"), ""))

    def test_failed_write_keeps_old_partition(self, workspace, capsys, monkeypatch):
        out_dir = workspace / "months"
        argv = ["ingest", "--input", str(workspace / "corpus.tsv"), "--out-dir", str(out_dir)]
        run(capsys, *argv)
        before = (out_dir / "2018-02.tsv").read_bytes()

        listings = []  # the folder's names when the write of line 2's date fails

        def broken_segment(documents):
            feb, *rest = segment_by_month(documents)
            docs = list(feb.documents)
            day = docs[1].sold_date
            sold = date_failing_to_write(day.year, day.month, day.day, out_dir, listings)
            docs[1] = replace(docs[1], sold_date=sold)  # a February date: the partition takes it
            return [MonthlyCorpus(feb.month_key, tuple(docs)), *rest]

        monkeypatch.setattr(cli, "segment_by_month", broken_segment)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "eventsearch: error: no space left on device"
        (names,) = listings  # the write into a temporary file was under way
        assert names[0] == "2018-02.tsv" and names[2] == "2018-08.tsv" and len(names) == 3
        assert re.fullmatch(r"2018-02\.tsv\.\w+\.tmp", names[1])
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
            (["--lr", "1e-4"], replace(TrainConfig(), lr_initial=LR_FINAL)),
            (["--min-count", "3"], replace(TrainConfig(), min_count=3)),
            (["--seed", "11"], replace(TrainConfig(), rng_seed=11)),
        ],
        ids=["defaults", "dim", "window", "negatives", "epochs", "lr", "lr-floor", "min-count",
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

    def test_diverging_run_names_its_learning_rate_and_no_warning(self, tmp_path):
        # on this month, numpy overflows inside the scatter at this rate; run as a program,
        # so that stderr is what a user sees
        corpus, out = Path(__file__).parent / "golden" / "corpus.tsv", tmp_path / "x.vec"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "eventsearch.cli", "train", "--input", str(corpus),
             "--month", "2018-02", "--lr", "1e300", "--epochs", "5", "--dim", "8",
             "--min-count", "1", "--output", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "error: training diverged at learning rate 1e+300" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [("--seed", "-1", "rng_seed"),
                                                    ("--epochs", "0", "epochs"),
                                                    ("--window", "-2", "window")])
    def test_config_refused_before_input_is_read(self, tmp_path, capsys, flag, value, field):
        # the input does not exist: reading it would exit 2
        code, out, err = run(
            capsys, "train", "--input", str(tmp_path / "absent.tsv"),
            "--output", str(tmp_path / "x.vec"), flag, value,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"eventsearch: error: {field} must be >=")
        assert list(tmp_path.iterdir()) == []

    def test_seed_past_64_bits_refused_as_a_negative_seed_is(self, tmp_path, capsys):
        with pytest.raises(ValueError) as refused:
            TrainConfig(rng_seed=2**64)
        code, out, err = run(
            capsys, "train", "--input", str(tmp_path / "absent.tsv"),
            "--output", str(tmp_path / "x.vec"), "--seed", "18446744073709551616",
        )
        assert (code, out) == (1, "")
        assert err == f"eventsearch: error: {refused.value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message, shown", [("Unable to allocate 37.3 GiB", None),
                                                ("", "out of memory")])
    def test_out_of_memory_is_one_line_error(self, workspace, capsys, monkeypatch, message,
                                             shown):
        def huge_train(corpus, cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "train", huge_train)
        code, out, err = run(
            capsys, "train", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(workspace / "x.vec"),
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"eventsearch: error: {shown or message}"
        assert not (workspace / "x.vec").exists()

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

    def test_index_skips_doc_ids_no_artifact_can_hold(self, workspace, capsys):
        corpus, index_path = workspace / "ids.tsv", workspace / "ids.idx"
        bad = ["a b", "", "a\u00a0"]
        rows = [f"{doc_id}\t2018-02-01\tcat\tred heart\n" for doc_id in [*bad, "good"]]
        corpus.write_text("".join(rows), encoding="utf-8")
        code, out, err = run(capsys, "index", "--input", str(corpus), "--output", str(index_path))
        assert (code, out) == (0, "")
        for lineno, doc_id in enumerate(bad, 1):
            assert f"WARNING {corpus}:{lineno}: skipped: invalid doc_id {doc_id!r}\n" in err
        assert list(load_index(index_path).doc_store) == ["good"]

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
        for stop_file, expected in ((workspace / "missing.stop", 2), (bad, 2)):
            code, out, err = run(
                capsys, "search", "--index", str(index_path), "--seed", "valentine",
                "--stopwords", str(stop_file),
            )
            assert (code, out) == (expected, "")
            assert "error" in err
        assert err == (f"eventsearch: error: line 1: {bad}: stop words must be lowercase and "
                       "whitespace-free: 'Bad'\n")

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
            # checked under the default tfidf scorer too, which reads neither flag
            (["search", "--index", "{idx}", "--seed", "valentine", "--bm25-k1", "-5",
              "--bm25-b", "7"], "k1 must be > 0"),
            (["eval", "--index", "{idx}", "--model", "{vec}", "--seed", "valentine",
              "--bm25-b", "7"], "b must be"),
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

    @pytest.mark.parametrize("command", ["train", "index"])
    def test_month_refused_before_input_is_read(self, tmp_path, capsys, command):
        # the input does not exist: reading it would exit 2
        code, out, err = run(
            capsys, command, "--input", str(tmp_path / "absent.tsv"), "--month", "2018-13",
            "--output", str(tmp_path / "out"),
        )
        assert (code, out) == (1, "")
        assert err == "eventsearch: error: month out of range in '2018-13'\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "index", "--input", str(tmp_path / "nope.tsv"),
            "--output", str(tmp_path / "o.idx"),
        )
        assert code == 2

    def test_corpus_without_documents(self, tmp_path, capsys):
        corpus = tmp_path / "comments.tsv"
        corpus.write_text("# a corpus\n# of comments only\n", encoding="utf-8")
        output = tmp_path / "o.idx"
        code, out, err = run(capsys, "index", "--input", str(corpus), "--output", str(output))
        assert (code, out) == (2, "")
        assert "corpus contains no documents" in err
        assert not output.exists()

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.vec"
        bad.write_text("not a vector file\n", encoding="utf-8")
        code, _, err = run(capsys, "neighbors", "--model", str(bad), "--word", "x")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["ingest", "--input", "{bad}", "--out-dir", "{tmp}"], "tsv"),
            (["train", "--input", "{bad}", "--output", "{tmp}/o.vec"], "tsv"),
            (["index", "--input", "{bad}", "--output", "{tmp}/o.idx"], "tsv"),
            (["neighbors", "--model", "{bad}", "--word", "valentine"], "vec"),
            (["search", "--index", "{bad}", "--seed", "valentine"], "idx"),
            (["search", "--index", "{idx}", "--seed", "valentine", "--stopwords", "{bad}"],
             "stop"),
            (["expand", "--model", "{vec}", "--seed", "valentine", "--stopwords", "{bad}"],
             "stop"),
        ],
    )
    def test_file_not_utf8_is_data_error(self, workspace, capsys, argv, bad):
        idx = workspace / "feb.idx"
        run(capsys, "index", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(idx))
        good = {"tsv": CORPUS, "vec": VECTORS, "idx": idx.read_text(encoding="utf-8"),
                "stop": "the\nof\n"}[bad]
        lines = good.encode("utf-8").split(b"\n")
        lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]  # a byte no UTF-8 text holds, line 2
        path = workspace / f"bad.{bad}"
        path.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, *[arg.format(bad=path, tmp=workspace / "out", idx=idx,
                                                  vec=workspace / "feb.vec") for arg in argv])
        assert (code, out) == (2, "")
        assert err == f"eventsearch: error: line 2: {path} is not UTF-8 (byte 0xff)\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--index", "{idx}", "--seed", "valentine", "--model", ""],
            ["search", "--index", "{idx}", "--seed", "valentine", "--stopwords", ""],
            ["expand", "--model", "", "--seed", "valentine"],
            ["expand", "--model", "{vec}", "--seed", "valentine", "--stopwords", ""],
        ],
    )
    def test_empty_path_is_a_missing_file(self, workspace, capsys, argv):
        # an empty path names no file: no fall back to seed-only search or the built-in list
        idx = workspace / "feb.idx"
        run(capsys, "index", "--input", str(workspace / "corpus.tsv"), "--month", "2018-02",
            "--output", str(idx))
        code, out, err = run(capsys, *[arg.format(idx=idx, vec=workspace / "feb.vec")
                                       for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("eventsearch: error: ") and "''" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_module_entry_point(self, workspace):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "eventsearch.cli", *argv],
                                  capture_output=True, text=True, env=env)

        proc = module("neighbors", "--model", str(workspace / "feb.vec"), "--word", "valentine",
                      "--min-sim", "0.5")
        assert proc.returncode == 0
        assert "jewellery\t0.800000" in proc.stdout
        corpus = workspace / "corpus.tsv"
        proc = module("index", "--input", str(corpus), "--month", "2018-02",
                      "--output", str(workspace / "feb.idx"))
        assert proc.returncode == 0
        assert "INFO indexed 2018-02: 4 docs" in proc.stderr
        assert f"WARNING {corpus}:7: skipped: expected 4 tab-separated fields" in proc.stderr


COMMAND_ARGV = {
    "ingest": ["--input", "c.tsv", "--out-dir", "months"],
    "train": ["--input", "c.tsv", "--output", "m.vec", "--dim", "3", "--lr", "0.5"],
    "neighbors": ["--model", "m.vec", "--word", "w", "--k", "2"],
    "expand": ["--model", "m.vec", "--seed", "a b", "--stopwords", "s.txt"],
    "index": ["--input", "c.tsv", "--month", "2018-02", "--output", "m.idx"],
    "search": ["--index", "m.idx", "--seed", "a", "--scorer", "bm25", "--limit", "3"],
    "eval": ["--index", "m.idx", "--model", "m.vec", "--seed", "a", "--threshold", "0.5"],
}


def parse(parser, argv):
    """(exit code, stdout, stderr, Namespace or None) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return None, out.getvalue(), err.getvalue(), vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None


class TestParserParity:
    """A call builds only its own subcommand's parser, and parses as the full one does."""

    @pytest.mark.parametrize("name", sorted(COMMAND_ARGV))
    @pytest.mark.parametrize("kind", ["help", "missing flag", "unknown flag", "valid"])
    def test_one_subparser_parses_as_all(self, name, kind):
        argv = {"help": [name, "--help"], "missing flag": [name],
                "unknown flag": [name, *COMMAND_ARGV[name], "--nope"],
                "valid": [name, *COMMAND_ARGV[name]]}[kind]
        alone = parse(cli.build_parser(name), argv)
        assert alone == parse(cli.build_parser(), argv)
        assert alone[0] == {"help": 0, "valid": None}.get(kind, 1)
        if kind == "valid":
            assert alone[3]["command"] == name and alone[3]["func"] is cli.COMMANDS[name][2]

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 1), (["frobnicate"], 1)])
    def test_top_level_call_parses_with_every_command(self, capsys, argv, code):
        full = parse(cli.build_parser(), argv)
        assert run(capsys, *argv) == (code, *full[1:3])
        assert full[0] == code
        if argv:  # --help lists the commands, and an unknown one is told the choices
            assert all(name in full[1] + full[2] for name in cli.COMMANDS)

    def test_argv_defaults_to_sys_argv(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["eventsearch", "neighbors", "--model",
                                          str(workspace / "feb.vec"), "--word", "valentine"])
        assert main() == 0
        assert capsys.readouterr().out == "jewellery\t0.800000\n"

    @pytest.mark.parametrize("argv, built", [
        (["neighbors", "--model", "{vec}", "--word", "valentine"], 1),
        (["neighbors", "--help"], 1),
        (["--help"], 7),
        (["frobnicate"], 7),
    ])
    def test_call_builds_only_its_command(self, workspace, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        run(capsys, *[arg.format(vec=workspace / "feb.vec") for arg in argv])
        assert len(names) == built
        assert names == ([argv[0]] if built == 1 else list(cli.COMMANDS))
