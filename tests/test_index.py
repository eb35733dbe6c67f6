"""Inverted index construction, lookups, and persistence."""

import codecs
import contextlib
import io
import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventsearch import index as index_module
from eventsearch import ranking
from eventsearch.corpus import ItemDocument, MonthlyCorpus, segment_by_month, tokenize
from eventsearch.errors import DuplicateDocumentId, FormatError
from eventsearch.expansion import ExpandedQuery
from eventsearch.index import InvertedIndex, build_index, load_index, save_index

from util import Unseekable, corpus_from_token_lists


@pytest.fixture
def two_doc_index():
    # d1: [a, b, a], d2: [b, c]
    corpus = corpus_from_token_lists([["a", "b", "a"], ["b", "c"]])
    return build_index(corpus)


class TestBuildIndex:
    def test_hand_counted_postings(self, two_doc_index):
        index = two_doc_index
        assert index.doc_count == 2
        assert index.postings["a"] == [("d0000", 2)]
        assert index.postings["b"] == [("d0000", 1), ("d0001", 1)]
        assert index.postings["c"] == [("d0001", 1)]
        assert index.doc_freq["b"] == 2

    def test_empty_corpus(self):
        index = build_index(MonthlyCorpus((2018, 2), ()))
        assert index.doc_count == 0
        assert index.postings == {}
        assert index.doc_len.tolist() == []
        assert index.avg_doc_len == 0.0

    def test_document_lengths(self, two_doc_index):
        assert two_doc_index.doc_ids == ["d0000", "d0001"]
        assert two_doc_index.doc_len.tolist() == [3, 2]
        assert two_doc_index.avg_doc_len == 2.5

    def test_single_token_doc(self):
        index = build_index(corpus_from_token_lists([["x"]]))
        assert index.doc_freq["x"] == 1
        assert index.postings["x"] == [("d0000", 1)]

    def test_posting_tf_sums_to_token_count(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(20)]
        lists = [
            [str(w) for w in rng.choice(words, size=rng.integers(2, 11))] for _ in range(80)
        ]
        index = build_index(corpus_from_token_lists(lists))
        totals = {doc_id: 0 for doc_id in index.doc_store}
        for plist in index.postings.values():
            for doc_id, tf in plist:
                totals[doc_id] += tf
        for doc_id, doc in index.doc_store.items():
            assert totals[doc_id] == len(doc.tokens)

    def test_df_bounds_and_sorted_postings(self, two_doc_index):
        index = two_doc_index
        for term, plist in index.postings.items():
            assert index.doc_freq[term] == len(plist)
            assert 1 <= index.doc_freq[term] <= index.doc_count
            assert [d for d, _ in plist] == sorted(d for d, _ in plist)

    def test_duplicate_doc_ids_rejected(self):
        doc = ItemDocument.create("dup", date(2018, 2, 1), "", "a b")
        with pytest.raises(DuplicateDocumentId):
            build_index(MonthlyCorpus((2018, 2), (doc, doc)))


class TestIdf:
    def test_term_in_all_docs(self, two_doc_index):
        # df = N = 2 -> ln(3/3) + 1
        assert two_doc_index.idf("b") == pytest.approx(1.0, abs=1e-12)

    def test_df_one_of_two(self, two_doc_index):
        assert two_doc_index.idf("a") == pytest.approx(1.4054651081081644, abs=1e-9)

    def test_unseen_term(self, two_doc_index):
        assert two_doc_index.idf("zzz") == pytest.approx(math.log(3) + 1, abs=1e-12)

    def test_empty_index(self):
        index = build_index(MonthlyCorpus((2018, 2), ()))
        assert index.idf("anything") == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonincreasing_in_df(self):
        lists = [["common", "mid" if i < 10 else f"w{i}"] for i in range(30)]
        lists.append(["rare", "common"])
        index = build_index(corpus_from_token_lists(lists))
        assert index.idf("rare") > index.idf("mid") > index.idf("common")
        fixed_n = index.doc_count
        values = [math.log((fixed_n + 1) / (df + 1)) + 1 for df in range(0, fixed_n + 1)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_always_positive(self, two_doc_index):
        for term in list(two_doc_index.postings) + ["unseen"]:
            assert two_doc_index.idf(term) > 0

    def test_offsets_is_a_tuple_of_ints_spanning_each_term(self):
        rng = np.random.default_rng(5)
        for n_docs in (0, 1, 40):
            lists = [list(rng.choice(["a", "b", "c", "d", "e"], size=rng.integers(0, 6)))
                     for _ in range(n_docs)]
            index = build_index(corpus_from_token_lists(lists))
            assert type(index.offsets) is tuple
            assert all(type(offset) is int for offset in index.offsets)
            # term i's postings are the (term, row) keys from i * n up to (i + 1) * n
            n = max(index.doc_count, 1)
            keys = np.repeat(np.arange(len(index.terms)), np.diff(index.offsets)) * n
            keys += index.doc_rows
            spans = np.searchsorted(keys, np.arange(len(index.terms) + 1) * n)
            assert index.offsets == tuple(spans.tolist())
            assert list(index.doc_freq.values()) == np.diff(index.offsets).tolist()

    def test_equals_the_idf_ranking_applies(self):
        """idf(term) is, bit for bit, the idf _accumulate gives each of term's postings: with
        every delta 1.0, a tf = 1 posting contributes idf(term) under TfIdf."""
        lists = [["a", "b", "a"], ["b", "c"], ["c", "d", "d"], ["a", "c", "e", "e"], ["b"]]
        index = build_index(corpus_from_token_lists(lists))
        query = ExpandedQuery(("a", "b", "c", "d", "e", "zzz"), {})
        terms, counts, _, contribution, _ = ranking._accumulate(index, query, ranking.TfIdf(), 0.0)
        assert terms == ["a", "b", "c", "d", "e"]
        tfs = [tf for term in terms for _, tf in index.postings[term]]
        idfs = [index.idf(term) for term, count in zip(terms, counts) for _ in range(count)]
        assert sorted(set(tfs)) == [1, 2]
        got = [value.hex() for value in contribution.tolist()]
        assert [g for g, tf in zip(got, tfs) if tf == 1] == [
            idf.hex() for idf, tf in zip(idfs, tfs) if tf == 1]
        assert got == [(tf * idf * 1.0).hex() for tf, idf in zip(tfs, idfs)]

def _assert_same_index(a, b):
    assert a.month_key == b.month_key
    assert a.doc_count == b.doc_count
    assert a.postings == b.postings
    assert a.doc_freq == b.doc_freq
    assert set(a.doc_store) == set(b.doc_store)
    for doc_id, doc in a.doc_store.items():
        other = b.doc_store[doc_id]
        assert doc.tokens == other.tokens
        assert doc.sold_date == other.sold_date


class TestPersistence:
    def test_round_trip_two_docs(self, two_doc_index, tmp_path):
        path = tmp_path / "idx.txt"
        save_index(two_doc_index, path)
        _assert_same_index(two_doc_index, load_index(path))

    def test_round_trip_empty(self):
        index = build_index(MonthlyCorpus((2018, 2), ()))
        out = io.StringIO()
        save_index(index, out)
        loaded = load_index(io.StringIO(out.getvalue()))
        assert loaded.doc_count == 0
        assert loaded.month_key == (2018, 2)

    def test_category_tokens_survive(self, tmp_path):
        doc = ItemDocument.create("i1", date(2018, 2, 3), "Jewelry Gifts", "Heart Necklace")
        index = build_index(MonthlyCorpus((2018, 2), (doc,)))
        path = tmp_path / "idx.txt"
        save_index(index, path)
        loaded = load_index(path)
        got = loaded.doc_store["i1"]
        assert got.tokens == ("jewelry", "gifts", "heart", "necklace")
        assert got.category == "jewelry gifts"
        assert got.title == "heart necklace"

    def test_truncated_stream(self, two_doc_index):
        out = io.StringIO()
        save_index(two_doc_index, out)
        lines = out.getvalue().splitlines()
        truncated = "\n".join(lines[:2]) + "\n"  # drops one D line and all T lines
        with pytest.raises(FormatError):
            load_index(io.StringIO(truncated))

    def test_bad_header(self):
        for text in (
            "WRONG 2018-02 2\n",
            "INDEXv2 2018-02\n",
            "INDEXv2 2018-13 0\n",
            "INDEXv2 2018-2 0\n",
            "INDEXv2 2018-02 two\n",
            "INDEXv2 2018-02 -1\n",
            "INDEXv2 2018-02 +1\nD d1 2018-02-01 0 a\n",
            "INDEXv2 \u0662\u0660\u0661\u0668-\u0660\u0662 1\nD d1 2018-02-01 0 a\n",
        ):
            with pytest.raises(FormatError) as excinfo:
                load_index(io.StringIO(text))
            assert excinfo.value.line == 1, text

    def test_v1_file_rejected(self):
        text = "INDEXv1 2018-02 1\nD d1 2018-02-01 0 a\nT a 1 d1:1\n"
        with pytest.raises(FormatError, match="expected 'INDEXv2 ") as excinfo:
            load_index(io.StringIO(text))
        assert excinfo.value.line == 1

    def test_stray_line_rejected(self):
        for text, line in (
            ("INDEXv2 2018-02 2\nD d1 2018-02-01 0 a\nT a 1 d1:1\n", 3),
            ("INDEXv2 2018-02 3\nD d1 2018-02-01 0 a\n\nD d2 2018-02-01 0 a\n", 3),
            ("INDEXv2 2018-02 1\nX d1 2018-02-01 0 a\n", 2),
        ):
            with pytest.raises(FormatError) as excinfo:
                load_index(io.StringIO(text))
            assert excinfo.value.line == line, text

    def test_bad_document_line(self):
        for text in (
            "INDEXv2 2018-02 1\nD d1 2018-02-30 0 a\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 x a\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 2 a\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 0 A\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 0 a-b\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 0 a  b\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 0 \n",
            "INDEXv2 2018-02 1\nD  2018-02-01 0 a\n",
            "INDEXv2 2018-02 2\nD d1 2018-02-01 0 a\nD d1 2018-02-02 0 b\n",
            "INDEXv2 2018-02 1\nD x 20180201 0 a\n",
            "INDEXv2 2018-02 1\nD x 2018-W05-4 0 a\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 +1 a b\n",
            "INDEXv2 2018-02 1\nD d1 2018-02-01 \u0661 a b\n",
        ):
            with pytest.raises(FormatError) as excinfo:
                load_index(io.StringIO(text))
            assert excinfo.value.line == len(text.splitlines()), text

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "idx.txt"
        path.write_bytes(b"INDEXv2 2018-02 1\nD d1 2018-02-01 0 a\xc3\n")  # cut two-byte form
        with pytest.raises(FormatError, match="is not UTF-8 \\(byte 0xc3\\)") as excinfo:
            load_index(path)
        assert excinfo.value.line == 2

    def test_handle_not_utf8(self, tmp_path):
        """An open handle reports the line the path form gives; a handle whose buffer cannot
        be re-read reports the byte without a line."""
        path = tmp_path / "idx.txt"
        data = b"INDEXv2 2018-02 2\nD d1 2018-02-01 0 a\xff\nD d2 2018-02-01 0 b\n"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(FormatError, match="is not UTF-8 \\(byte 0xff\\)") as excinfo:
                load_index(handle)
        assert excinfo.value.line == 2
        with pytest.raises(FormatError, match="is not utf-8 \\(byte 0xff\\)") as excinfo:
            load_index(io.TextIOWrapper(Unseekable(data), encoding="utf-8"))
        assert excinfo.value.line is None

    def test_handle_not_utf8_counts_from_its_position(self, tmp_path):
        """Past a line the caller read, a bad byte reports the line a bad token does; a handle
        being iterated cannot tell its position, so its bad byte has no line."""
        path = tmp_path / "idx.txt"
        rows = b"".join(b"D d%d 2018-02-01 0 a\n" % i for i in range(600))
        for last in (b"D e 2018-02-01 0 A\n", b"D e 2018-02-01 0 \xff\n"):
            path.write_bytes(b"junk\nINDEXv2 2018-02 601\n" + rows + last)
            with open(path, encoding="utf-8") as handle:
                handle.readline()
                with pytest.raises(FormatError) as excinfo:
                    load_index(handle)
            assert excinfo.value.line == 602
        with open(path, encoding="utf-8") as handle:
            next(handle)
            with pytest.raises(FormatError, match="byte 0xff") as excinfo:
                load_index(handle)
        assert excinfo.value.line is None

    def test_document_count_mismatch_names_the_line_after_the_promised_or_present_rows(self):
        rows = "".join(f"D d{i} 2018-02-01 0 a\n" for i in range(3))
        for count, line in ((1, 3), (5, 5)):
            with pytest.raises(FormatError, match="header promises") as excinfo:
                load_index(io.StringIO(f"INDEXv2 2018-02 {count}\n{rows}"))
            assert excinfo.value.line == line

    def test_leading_byte_order_mark_dropped(self, two_doc_index, tmp_path):
        out = io.StringIO()
        save_index(two_doc_index, out)
        path = tmp_path / "idx.txt"
        path.write_bytes(codecs.BOM_UTF8 + out.getvalue().encode("utf-8"))
        _assert_same_index(two_doc_index, load_index(path))

    def test_cut_inside_last_line(self):
        text = "INDEXv2 2018-02 1\nD d1 2018-02-01 0 ab"  # complete file ends "abc\n"
        with pytest.raises(FormatError) as excinfo:
            load_index(io.StringIO(text))
        assert excinfo.value.line == 2

    def test_doc_outside_partition_month(self):
        text = "INDEXv2 2018-02 1\nD d1 2018-03-01 0 a\n"
        with pytest.raises(FormatError) as excinfo:
            load_index(io.StringIO(text))
        assert excinfo.value.line == 2

    def test_unserializable_doc_id(self):
        doc = ItemDocument.create("has space", date(2018, 2, 1), "", "a")
        index = build_index(MonthlyCorpus((2018, 2), (doc,)))
        with pytest.raises(FormatError):
            save_index(index, io.StringIO())

    def test_file_holds_header_and_documents_only(self, two_doc_index):
        empty = ItemDocument.create("d0002", date(2018, 2, 3), "", "")  # no tokens at all
        index = InvertedIndex((2018, 2), {**two_doc_index.doc_store, "d0002": empty})
        out = io.StringIO()
        save_index(index, out)
        assert out.getvalue() == (
            "INDEXv2 2018-02 3\nD d0000 2018-02-01 0 a b a\nD d0001 2018-02-02 0 b c\n"
            "D d0002 2018-02-03 0\n"
        )

    def test_failed_save_keeps_old_file(self, two_doc_index, tmp_path):
        path = tmp_path / "idx.txt"
        save_index(two_doc_index, path)
        before = path.read_bytes()
        good = two_doc_index.doc_store["d0000"]
        broken = ItemDocument("d0001", None, "", "b", ("b",))  # no date: fails mid-write
        index = InvertedIndex((2018, 2), {"d0000": good, "d0001": broken})
        with pytest.raises(AttributeError):
            save_index(index, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx.txt"]

    def test_doc_outside_the_month_is_refused_before_dest_is_touched(self, two_doc_index,
                                                                      tmp_path):
        # load_index would refuse the line such a document gets
        path = tmp_path / "idx.txt"
        save_index(two_doc_index, path)
        before = path.read_bytes()
        doc = ItemDocument.create("d1", date(2018, 3, 5), "cat", "heart necklace")
        index = build_index(MonthlyCorpus((2018, 2), (doc,)))
        for dest in (path, out := io.StringIO()):
            with pytest.raises(FormatError, match="dated 2018-03-05 outside partition 2018-02"):
                save_index(index, dest)
        assert path.read_bytes() == before and out.getvalue() == ""
        assert [p.name for p in tmp_path.iterdir()] == ["idx.txt"]

    def test_save_failing_mid_write_keeps_old_file(self, two_doc_index, tmp_path):
        path = tmp_path / "idx.txt"
        save_index(two_doc_index, path)
        before = path.read_bytes()
        good = two_doc_index.doc_store["d0000"]
        broken = ItemDocument("d0001", date(2018, 2, 2), None, "b", ("b",))  # fails mid-write
        index = InvertedIndex((2018, 2), {"d0000": good, "d0001": broken})
        with pytest.raises(AttributeError):
            save_index(index, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx.txt"]


_TOKENS = st.lists(st.text("abz09é", min_size=1, max_size=3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.text("ab:,-", min_size=1, max_size=3), _TOKENS, _TOKENS, st.integers(1, 28)),
        max_size=5,
        unique_by=lambda doc: doc[0],
    )
)
def test_round_trip_equals_build_and_every_prefix_fails(specs):
    docs = tuple(
        ItemDocument.create(doc_id, date(2018, 2, day), " ".join(category), " ".join(title))
        for doc_id, category, title, day in specs
    )
    index = build_index(MonthlyCorpus((2018, 2), docs))
    out = io.StringIO()
    save_index(index, out)
    text = out.getvalue()
    loaded = load_index(io.StringIO(text))
    _assert_same_index(index, loaded)
    assert list(loaded.doc_store.values()) == list(docs)
    again = io.StringIO()
    save_index(loaded, again)
    assert again.getvalue() == text
    for cut in range(len(text)):
        with pytest.raises(FormatError):
            load_index(io.StringIO(text[:cut]))


def reference_load_index(text):
    """load_index line by line, every rule and message written out and every date parsed, for
    a complete file whose header is 'INDEXv2 2018-02 <n>'."""
    lines = text.split("\n")[:-1]
    doc_count = int(lines[0].split(" ")[2])
    if len(lines) - 1 != doc_count:
        raise FormatError(f"header promises {doc_count} documents, found {len(lines) - 1}",
                          line=min(doc_count, len(lines) - 1) + 2)
    documents = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(" ")
        if fields[0] != "D" or len(fields) < 4:
            raise FormatError(
                f"expected 'D <doc_id> <date> <category count> <tokens>', got {line!r}", line=lineno
            )
        _, doc_id, date_text, count_text = fields[:4]
        tokens = fields[4:]
        if not doc_id or any(c.isspace() for c in doc_id):
            raise FormatError(f"invalid doc_id {doc_id!r}", line=lineno)
        sold = None
        if re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", date_text):
            with contextlib.suppress(ValueError):  # no such day
                sold = date(*map(int, date_text.split("-")))
        if sold is None:
            raise FormatError(f"invalid date {date_text!r}", line=lineno)
        if (sold.year, sold.month) != (2018, 2):
            raise FormatError(f"document dated {date_text} outside partition 2018-02", line=lineno)
        if not (count_text.isascii() and count_text.isdigit()):
            raise FormatError(f"invalid category token count {count_text!r}", line=lineno)
        cat_count = int(count_text)
        if cat_count > len(tokens):
            raise FormatError(f"category token count {cat_count} out of range", line=lineno)
        if any(not token or token != token.lower() or not token.isalnum() for token in tokens):
            raise FormatError(f"tokens are not in normalized form: {tokens}", line=lineno)
        if doc_id in documents:
            raise FormatError(f"duplicate doc_id {doc_id!r}", line=lineno)
        documents[doc_id] = ItemDocument(doc_id, sold, " ".join(tokens[:cat_count]),
                                         " ".join(tokens[cat_count:]), tuple(tokens))
    return build_index(MonthlyCorpus((2018, 2), tuple(documents.values())))


_PLANTED_DATES = ["2018-02-30", "2018-03-01", "2017-02-01", "20180201", "2018-2-01",
                  "2018-02-0\u0661", "2018-02-01"]
_PLANTED_DOC_IDS = ["", "a\tb", "a\u00a0", "\x1c", "a\u3000b"]
_PLANTED_COUNTS = ["+1", "\u0661", "9", "-1", "", "01"]
_PLANTED_TOKENS = ["A", "a-b", "", "\u00e9", "\u0130", "\u03a3", "a\tb", "\u00b2", "\u03c2",
                   "\u0307", "\u01c5", "\u212a", "\u00df"]


@st.composite
def index_files(draw):
    """A file save_index writes for 2018-02, zero-token documents included, then up to three
    planted faults: a doc_id, date, category count or token replaced or added, a count one
    past the tokens, a planted date put on two lines, a line given another line's date text,
    a doc_id repeated, a line not starting 'D' or cut after its date, or a header promising
    one document more."""
    docs = draw(st.lists(
        st.tuples(st.text("ab1", min_size=1, max_size=2), st.integers(1, 28),
                  st.lists(st.text("ab1\u00e9", min_size=1, max_size=2), max_size=3),
                  st.integers(0, 3)),
        max_size=6, unique_by=lambda doc: doc[0],
    ))
    rows = [["D", doc_id, f"2018-02-{day:02d}", str(min(cat, len(tokens)))] + tokens
            for doc_id, day, tokens, cat in docs]
    count = len(rows)
    for fault, pick, planted in draw(st.lists(
        st.tuples(st.sampled_from(["doc_id", "date", "date twice", "shared date", "count",
                                   "count over", "token", "repeat", "kind", "cut", "header"]),
                  st.integers(0, 99), st.integers(0, 99)),
        max_size=3,
    )):
        if fault == "header":
            count += 1
        elif rows:
            row = rows[pick % len(rows)]
            other = rows[planted % len(rows)]
            if fault == "doc_id":
                row[1] = _PLANTED_DOC_IDS[planted % len(_PLANTED_DOC_IDS)]
            elif fault == "date":
                row[2] = _PLANTED_DATES[planted % len(_PLANTED_DATES)]
            elif fault == "date twice":
                row[2] = other[2] = _PLANTED_DATES[pick % len(_PLANTED_DATES)]
            elif fault == "shared date":
                row[2] = other[2]
            elif fault == "count" and len(row) > 3:
                row[3] = _PLANTED_COUNTS[planted % len(_PLANTED_COUNTS)]
            elif fault == "count over" and len(row) > 3:
                row[3] = str(len(row) - 3)
            elif fault == "token" and len(row) > 3:
                token = _PLANTED_TOKENS[planted % len(_PLANTED_TOKENS)]
                row.insert(4 + planted % (len(row) - 3), token)
            elif fault == "repeat":
                row[1] = other[1]
            elif fault == "kind":
                row[0] = "X"
            elif fault == "cut":
                del row[3:]
    lines = [f"INDEXv2 2018-02 {count}"] + [" ".join(row) for row in rows]
    return "".join(f"{line}\n" for line in lines)


def _index_outcome(load, text):
    try:
        index = load(text)
    except FormatError as exc:
        return str(exc)
    arrays = (index.doc_len, index.tfs, index.doc_rows)
    return (list(index.doc_store.items()), index.terms, index.offsets,
            [array.tolist() for array in arrays])


_GOOD = "D a 2018-02-01 0 a\n"


@settings(max_examples=400, deadline=None)
@given(index_files())
# one fault per rule on the line after a good one, so no rule rests on a random draw alone
@example(f"INDEXv2 2018-02 2\n{_GOOD}X b 2018-02-01 0 a\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D b 2018-02-01\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D \t 2018-02-01 0 a\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D b 2018-02-30 0 a\n")
@example(f"INDEXv2 2018-02 3\n{_GOOD}D b 2018-03-01 0 a\nD c 2018-03-01 0 a\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D b 2018-02-01 +1 a\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D b 2018-02-01 2 a\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D b 2018-02-01 0 A\n")
@example(f"INDEXv2 2018-02 2\n{_GOOD}D a 2018-02-02 0 b\n")
@example(f"INDEXv2 2018-02 3\n{_GOOD}D b 2018-02-01 1 b c\n")
@example(f"INDEXv2 2018-02 3\n{_GOOD}D b 2018-02-01 1 b c\nD c 2018-02-02 0\n")
@example(f"INDEXv2 2018-02 1\n{_GOOD}D b 2018-02-01 0 a\n")  # a document more than promised
@example(f"INDEXv2 2018-02 1\n{_GOOD}D b 2018-02-01 0 a\nD c 2018-02-30 0 a\n")  # count first
def test_load_index_matches_line_by_line_reference(text):
    """The same documents and postings arrays, or the same error message and line."""
    got = _index_outcome(lambda text: load_index(io.StringIO(text)), text)
    assert got == _index_outcome(reference_load_index, text)


@given(st.lists(st.text() | st.text(st.characters(categories=("L", "N")))))
@example(["\u00b2", "\u03c2", "\u00df", "1"])  # a digit, a final sigma, a sharp s lower() keeps
def test_lowercase_alphanumeric_tokens_are_their_own_tokenize(tokens):
    """load_index skips tokenize on a line whose tokens pass this test."""
    joined = " ".join(tokens)
    if all(map(str.isalnum, tokens)) and joined.lower() == joined:
        assert tokenize(joined) == tokens


def test_load_index_parses_each_date_text_once(monkeypatch):
    docs = tuple(ItemDocument.create(f"d{i}", date(2018, 2, 1 + i % 5), "", f"w{i % 3}")
                 for i in range(40))
    out = io.StringIO()
    save_index(build_index(MonthlyCorpus((2018, 2), docs)), out)
    calls = []

    def parse_date(text):
        calls.append(text)
        return real(text)

    real = index_module.parse_date
    monkeypatch.setattr(index_module, "parse_date", parse_date)
    loaded = load_index(io.StringIO(out.getvalue()))
    assert sorted(calls) == [f"2018-02-0{day}" for day in range(1, 6)]
    assert [doc.sold_date for doc in loaded.doc_store.values()] == [doc.sold_date for doc in docs]


def reference_save_index(index):
    """save_index's text by a tokenize call on every document's category."""
    lines = [f"INDEXv2 {index.month_key[0]:04d}-{index.month_key[1]:02d} {index.doc_count}\n"]
    for doc in index.doc_store.values():
        fields = ["D", doc.doc_id, doc.sold_date.isoformat(), str(len(tokenize(doc.category))),
                  *doc.tokens]
        lines.append(" ".join(fields) + "\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["", "Jewelry", "Home & Garden", "!!", "a_b c"]),
                          st.sampled_from(["", "Heart Necklace", "x", "Snow-Boots 42"]),
                          st.integers(1, 28)), max_size=30))
def test_saved_index_text_counts_each_documents_category(drawn):
    docs = tuple(ItemDocument.create(f"d{i}", date(2018, 2, day), category, title)
                 for i, (category, title, day) in enumerate(drawn))
    index = build_index(MonthlyCorpus((2018, 2), docs))
    out = io.StringIO()
    save_index(index, out)
    assert out.getvalue() == reference_save_index(index)


def _reference_build(documents):
    """(postings, doc_freq, doc_len) by the nested loops of a per-term-sort builder."""
    postings = {}
    for doc in documents:
        counts = {}
        for token in doc.tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, count in counts.items():
            postings.setdefault(term, []).append((doc.doc_id, count))
    for plist in postings.values():
        plist.sort(key=lambda entry: entry[0])
    doc_freq = {term: len(plist) for term, plist in postings.items()}
    return postings, doc_freq, {doc.doc_id: len(doc.tokens) for doc in documents}


# numpy orders "a\x00" equal to "a"; Python puts it after
_DOC_IDS = st.sampled_from(["a", "a\x00", "a\x00\x00", "\x00", "", "b", "Z", "\u00e9", "\u4e00"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_DOC_IDS, _TOKENS), max_size=8, unique_by=lambda doc: doc[0]))
def test_build_equals_nested_loop_reference(specs):
    docs = tuple(
        ItemDocument.create(doc_id, date(2018, 2, 1), "", " ".join(tokens))
        for doc_id, tokens in specs
    )
    index = build_index(MonthlyCorpus((2018, 2), docs))
    postings, doc_freq, doc_len = _reference_build(docs)
    assert index.postings == postings
    assert index.doc_freq == doc_freq
    assert all(type(df) is int for df in index.doc_freq.values())
    assert all(type(tf) is int for plist in index.postings.values() for _, tf in plist)
    assert dict(zip(index.doc_ids, index.doc_len.tolist())) == doc_len
    assert index.terms == sorted(postings)
    assert index.avg_doc_len == (sum(doc_len.values()) / len(docs) if docs else 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_DOC_IDS, _TOKENS), max_size=8, unique_by=lambda doc: doc[0]),
       st.randoms(use_true_random=False), _TOKENS)
def test_build_ignores_document_order(specs, random, seeds):
    """Rows follow doc_id order, so a permutation of the documents changes only doc_store's
    order, and with it the order save_index writes."""
    docs = [ItemDocument.create(doc_id, date(2018, 2, 1), "", " ".join(tokens))
            for doc_id, tokens in specs]
    shuffled = random.sample(docs, len(docs))
    a, b = (build_index(MonthlyCorpus((2018, 2), tuple(order))) for order in (docs, shuffled))
    assert list(b.doc_store.values()) == shuffled
    assert a.doc_ids == b.doc_ids == sorted(doc.doc_id for doc in docs)
    assert a.terms == b.terms and a.offsets == b.offsets
    for name in ("doc_len", "tfs", "doc_rows"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()
    query = ExpandedQuery(tuple(sorted(set(seeds))), {"a": 0.5, "z": 0.25})
    for scorer in (ranking.TfIdf(), ranking.Bm25()):
        assert ranking.retrieve(a, query, scorer) == ranking.retrieve(b, query, scorer)


class TestSelfConsistency:
    def test_rebuild_from_doc_store_matches(self):
        rng = np.random.default_rng(23)
        words = [f"w{i}" for i in range(25)]
        for _ in range(10):
            lists = [
                [str(w) for w in rng.choice(words, size=rng.integers(2, 11))]
                for _ in range(int(rng.integers(10, 60)))
            ]
            index = build_index(corpus_from_token_lists(lists))
            docs = list(index.doc_store.values())
            (corpus,) = segment_by_month(docs)
            rebuilt = build_index(corpus)
            _assert_same_index(index, rebuilt)

    def test_round_trip_then_rebuild(self):
        rng = np.random.default_rng(29)
        words = [f"w{i}" for i in range(15)]
        lists = [
            [str(w) for w in rng.choice(words, size=rng.integers(2, 8))] for _ in range(40)
        ]
        index = build_index(corpus_from_token_lists(lists))
        out = io.StringIO()
        save_index(index, out)
        loaded = load_index(io.StringIO(out.getvalue()))
        (corpus,) = segment_by_month(list(loaded.doc_store.values()))
        _assert_same_index(loaded, build_index(corpus))
