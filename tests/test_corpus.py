"""Tokenization, ingestion, and monthly partitioning."""

import contextlib
import copy
import dataclasses
import io
import pickle
import re
import string
from collections import Counter
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventsearch import corpus as corpus_module
from eventsearch.corpus import (
    ItemDocument,
    MonthlyCorpus,
    format_month,
    ingest,
    parse_month,
    parse_record_line,
    segment_by_month,
    tokenize,
)
from eventsearch.errors import DuplicateDocumentId
from eventsearch.index import build_index, load_index, save_index
from eventsearch.textfile import FIELD

from oracle import reference_tokenize


class TestTokenize:
    def test_category_prefix_and_apostrophe_split(self):
        got = tokenize("Jewelry") + tokenize("Valentine's Day Heart Necklace")
        assert got == ["jewelry", "valentine", "s", "day", "heart", "necklace"]

    def test_empty_inputs(self):
        assert tokenize("") == []

    def test_digits_and_case(self):
        assert tokenize("Toys LEGO 75192") == ["toys", "lego", "75192"]

    def test_single_char_and_digit_tokens_kept(self):
        assert tokenize("a 1 b2") == ["a", "1", "b2"]

    def test_underscore_and_punctuation_split(self):
        assert tokenize("snake_case-and.dots!") == ["snake", "case", "and", "dots"]

    def test_case_insensitive(self):
        rng = np.random.default_rng(7)
        alphabet = string.ascii_letters + string.digits + " '!-_éÅ"
        for _ in range(200):
            chars = rng.choice(list(alphabet), size=rng.integers(0, 30))
            text = "".join(chars)
            assert tokenize(text) == tokenize(text.lower())

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(11)
        alphabet = string.ascii_letters + string.digits + " .,'?-"
        for _ in range(200):
            chars = rng.choice(list(alphabet), size=rng.integers(0, 40))
            toks = tokenize("".join(chars))
            assert tokenize(" ".join(toks)) == toks


# any text, weighted towards the spaces and alphanumerics tokenize's regex-free form takes
_TEXTS = st.text(st.sampled_from(" aZ9_-\t\u00e9\u03a3\u0130") | st.characters(), max_size=12)


@settings(max_examples=500, deadline=None)
@given(_TEXTS)
@example("")
@example(" ")
@example("a  b")
@example(" a")
@example("a ")
@example("a\tb")
@example("snake_case")
@example("\u0130stanbul")
@example("\u0391\u03a3 \u0392")
@example("x\u00b2")
@example("\u0661\u0662 ab")
def test_tokenize_equals_the_reference(text):
    assert tokenize(text) == reference_tokenize(text)


class TestItemDocument:
    @settings(max_examples=200, deadline=None)
    @given(category=_TEXTS, title=_TEXTS)
    @example(category="\u0391\u03a3", title="\u0392")  # a final sigma stays final
    @example(category="", title="")
    @example(category="Toys  LEGO", title="x_y")
    def test_tokens_are_the_category_then_the_title_and_load_back(self, category, title):
        docs = (ItemDocument("d0", date(2018, 2, 1), category, title),
                ItemDocument("d1", date(2018, 2, 2), title, category))
        assert docs[0].tokens == (*reference_tokenize(category), *reference_tokenize(title))
        assert docs[1].tokens == (*reference_tokenize(title), *reference_tokenize(category))
        index = build_index(MonthlyCorpus((2018, 2), docs))
        out = io.StringIO()
        save_index(index, out)
        loaded = load_index(io.StringIO(out.getvalue()))
        assert [d.tokens for d in loaded.doc_store.values()] == [d.tokens for d in docs]
        assert loaded.doc_len.tolist() == index.doc_len.tolist()
        assert loaded.postings == index.postings

    def test_replace_derives_the_tokens_anew_and_none_can_be_given(self):
        doc = ItemDocument("d0", date(2018, 2, 1), "Jewelry", "Heart Necklace")
        assert ItemDocument.create("d0", date(2018, 2, 1), "Jewelry", "Heart Necklace") == doc
        assert dataclasses.replace(doc, title="Silver Ring").tokens == ("jewelry", "silver", "ring")
        assert dataclasses.replace(doc, category="").tokens == ("heart", "necklace")
        with pytest.raises(TypeError):
            ItemDocument("d0", date(2018, 2, 1), "Jewelry", "Heart", ("jewelry", "heart"))
        with pytest.raises(TypeError):
            ItemDocument("d0", date(2018, 2, 1), "Jewelry", "Heart", tokens=("jewelry",))
        with pytest.raises(ValueError, match="tokens"):
            dataclasses.replace(doc, tokens=("x",))

    @pytest.mark.parametrize("category, title", [(None, "b"), ("a", None), (1, "b")])
    def test_category_or_title_that_is_not_text_refused(self, category, title):
        with pytest.raises(TypeError):
            ItemDocument("d0", date(2018, 2, 1), category, title)

    def test_pickle_and_copy_round_trip(self):
        doc = ItemDocument("d0", date(2018, 2, 1), "Jewelry", "Heart Necklace")
        for back in (pickle.loads(pickle.dumps(doc)), copy.copy(doc), copy.deepcopy(doc)):
            assert back == doc and back.tokens == ("jewelry", "heart", "necklace")
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.title = "Ring"


class TestIngest:
    def test_well_formed_line(self):
        result = ingest(["i1\t2018-02-03\tJewelry\tValentine Heart Necklace"])
        assert len(result.errors) == 0
        (doc,) = result.documents
        assert doc.doc_id == "i1"
        assert doc.month_key == (2018, 2)
        assert list(doc.tokens) == ["jewelry", "valentine", "heart", "necklace"]

    def test_invalid_month_skipped_and_counted(self):
        result = ingest(["i2\t2018-13-01\tX\tY"])
        assert result.documents == []
        assert len(result.errors) == 1
        assert result.errors[0][0] == 1

    def test_empty_stream(self):
        result = ingest([])
        assert result.documents == [] and len(result.errors) == 0

    def test_comments_and_blank_lines_ignored(self):
        lines = ["# header", "", "i1\t2018-02-03\tA\tB", "# trailing"]
        result = ingest(lines)
        assert [d.doc_id for d in result.documents] == ["i1"]
        assert len(result.errors) == 0

    def test_wrong_field_count_counted_with_line_number(self):
        lines = ["i1\t2018-02-03\tA\tB", "too\tfew", "i2\t2018-02-04\tA\tB\textra"]
        result = ingest(lines)
        assert [d.doc_id for d in result.documents] == ["i1"]
        assert [lineno for lineno, _ in result.errors] == [2, 3]

    def test_duplicate_doc_id_is_fatal(self):
        lines = ["i1\t2018-02-03\tA\tB", "i1\t2018-02-04\tA\tC"]
        with pytest.raises(DuplicateDocumentId):
            ingest(lines)

    def test_doc_id_no_artifact_can_hold_skipped_with_line_number(self):
        bad = ["", "a b", "a\u00a0"]
        result = ingest([f"{doc_id}\t2018-02-03\tA\tB" for doc_id in [*bad, "i1"]])
        assert [d.doc_id for d in result.documents] == ["i1"]
        want = [(lineno, f"invalid doc_id {doc_id!r}") for lineno, doc_id in enumerate(bad, 1)]
        assert result.errors == want

    def test_bad_date_shapes_rejected(self):
        result = ingest(["i1\t2018-2-3\tA\tB", "i2\t2018-02-30\tA\tB"])
        assert result.documents == []
        assert len(result.errors) == 2


class TestSegmentByMonth:
    def _doc(self, doc_id, iso):
        return ItemDocument(doc_id, date.fromisoformat(iso), "c", "t")

    def test_two_partitions(self):
        docs = [
            self._doc("d1", "2018-02-01"),
            self._doc("d2", "2018-02-28"),
            self._doc("d3", "2018-08-15"),
        ]
        parts = segment_by_month(docs)
        assert [p.month_key for p in parts] == [(2018, 2), (2018, 8)]
        assert [len(p) for p in parts] == [2, 1]

    def test_empty(self):
        assert segment_by_month([]) == []

    def test_single_partition_of_many(self):
        docs = [self._doc(f"d{i}", "2018-03-10") for i in range(1000)]
        parts = segment_by_month(docs)
        assert len(parts) == 1 and len(parts[0]) == 1000

    def test_no_doc_lost_or_duplicated(self):
        rng = np.random.default_rng(3)
        docs = [
            self._doc(f"d{i}", f"20{rng.integers(10, 20):02d}-{rng.integers(1, 13):02d}-01")
            for i in range(300)
        ]
        parts = segment_by_month(docs)
        assert sum(len(p) for p in parts) == len(docs)
        all_ids = [d.doc_id for p in parts for d in p.documents]
        assert sorted(all_ids) == sorted(d.doc_id for d in docs)
        for p in parts:
            assert all(d.month_key == p.month_key for d in p.documents)

    def test_input_order_kept_within_partition(self):
        docs = [self._doc(f"d{i}", "2018-05-02") for i in range(10)]
        (part,) = segment_by_month(docs)
        assert [d.doc_id for d in part.documents] == [f"d{i}" for i in range(10)]

    def test_duplicate_within_partition_rejected(self):
        docs = [self._doc("x", "2018-05-02"), self._doc("x", "2018-05-03")]
        with pytest.raises(DuplicateDocumentId, match=r"2018-05: \['x'\]"):
            segment_by_month(docs)


class TestMonthHelpers:
    def test_round_trip(self):
        assert parse_month("2018-02") == (2018, 2)
        assert format_month((2018, 2)) == "2018-02"

    @pytest.mark.parametrize(
        "bad",
        ["2018-2", "2018/02", "2018-13", "abcd-ef", "2018-02-01", "\u0662\u0660\u0661\u0668-\u0660\u0662"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_month(bad)


class TestMonthlyCorpus:
    def test_document_outside_the_month_refused(self):
        doc = ItemDocument("d1", date(2018, 3, 5), "cat", "heart necklace")
        # 30 more strays, each on its own date: the one named is the first in document order
        more = [ItemDocument(f"s{day}", date(2018, 3, day), "", "a")
                for day in (*range(31, 5, -1), 1, 2, 3, 4)]
        feb = ItemDocument("d0", date(2018, 2, 28), "", "a")
        with pytest.raises(ValueError) as excinfo:
            MonthlyCorpus((2018, 2), (feb, doc, *more))
        assert str(excinfo.value) == "document 'd1' dated 2018-03-05 outside partition 2018-02"

    @pytest.mark.parametrize("sold", [datetime(2018, 2, 1, 9, 30), datetime(2018, 2, 1),
                                      "2018-02-01", None, 20180201])
    def test_sold_date_that_is_not_a_plain_date_refused(self, sold):
        # a datetime is a date, but save_index would write its time, which load_index refuses
        feb = ItemDocument("d0", date(2018, 2, 1), "", "a")
        docs = (feb, ItemDocument("d1", sold, "cat", "heart"),
                ItemDocument("d2", datetime(2018, 2, 3), "", "b"))
        with pytest.raises(ValueError) as excinfo:
            MonthlyCorpus((2018, 2), docs)
        assert str(excinfo.value) == f"document 'd1' has sold_date {sold!r}, not a date"

    def test_first_document_at_fault_named_whatever_its_fault(self):
        stray = ItemDocument("d1", date(2018, 3, 1), "", "a")
        timed = ItemDocument("d2", datetime(2018, 2, 2), "", "a")
        timed_fault = f"'d2' has sold_date {timed.sold_date!r}, not a date"
        for docs, fault in [((stray, timed), "'d1' dated 2018-03-01 outside partition 2018-02"),
                            ((timed, stray), timed_fault)]:
            with pytest.raises(ValueError) as excinfo:
                MonthlyCorpus((2018, 2), docs)
            assert str(excinfo.value) == f"document {fault}"

    @pytest.mark.parametrize("key", [(2018, 13), (2018, 0), (12345, 1), (-1, 1), (2018, 2.0),
                                     [2018, 2], (2018, 2, 1), (2018,), None, ("2018", 2),
                                     (True, 1)])
    def test_key_that_yyyy_mm_cannot_hold_refused(self, key):
        with pytest.raises(ValueError, match=re.escape(f"invalid month key {key!r}")):
            MonthlyCorpus(key, ())

    def test_year_zero_is_a_month(self):
        assert MonthlyCorpus((0, 1), ()).month_key == (0, 1)

    def test_duplicate_checked_before_dates(self):
        docs = [ItemDocument("x", date(2018, m, 1), "c", "t") for m in (3, 3)]
        with pytest.raises(DuplicateDocumentId, match=r"2018-02: \['x'\]"):
            MonthlyCorpus((2018, 2), tuple(docs))


def _reference_ingest(lines):
    """(documents, errors) of ingest by parse_record_line on each line that is not skipped."""
    documents, errors = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        try:
            documents.append(parse_record_line(line))
        except ValueError as exc:
            errors.append((lineno, str(exc)))
    return documents, errors


# "{i}" makes a doc_id unique per line; the templates hold valid doc_ids that are and are not
# alphanumeric, and invalid ones (empty, holding a space or a no-break space, a comment)
_DOC_IDS = ["d{i}", "a-{i}", "\u00e9{i}", "\u0661\u0662{i}", "x_{i}", "", "a {i}", "{i} ",
            "x\u00a0{i}", "#{i}"]
_DATES = ["2018-02-03", "2018-02-28", "2018-12-31", "2019-01-01", "2018-02-30", "2018-2-3",
          "2018-13-01", "\uff12\uff10\uff11\uff18-02-03", ""]
_CATEGORIES = ["Jewelry", "", "!!", "-", "Home & Garden", "a_b", "\u00c9t\u00e9", "Toys  LEGO"]
_TITLES = ["Heart Necklace", "", "Snow-Boots 42", "caf\u00e9 MUG", "!?", "x_y"]
# a record's fields joined by tabs, or: too few, too many, empty, spaces, a comment
_SHAPES = ["record", "record\r\n", "three", "five", "empty", "spaces", "comment"]


@st.composite
def corpus_lines(draw):
    lines = []
    for i, shape in enumerate(draw(st.lists(st.sampled_from(_SHAPES), max_size=40))):
        fields = [draw(st.sampled_from(_DOC_IDS)).format(i=i), draw(st.sampled_from(_DATES)),
                  draw(st.sampled_from(_CATEGORIES)), draw(st.sampled_from(_TITLES))]
        line = {"three": "\t".join(fields[:3]), "five": "\t".join(fields + ["extra"]),
                "empty": "", "spaces": "   ", "comment": "# " + "\t".join(fields)}.get(shape)
        lines.append(("\t".join(fields) + shape[6:]) if line is None else line + "\n")
    return lines


@settings(max_examples=200, deadline=None)
@given(corpus_lines())
def test_ingest_equals_parse_record_line_per_line(lines):
    result = ingest(lines)
    documents, errors = _reference_ingest(lines)
    assert result.errors == errors
    assert len(result.documents) == len(documents)
    for doc, want in zip(result.documents, documents):
        for name in ("doc_id", "sold_date", "category", "title", "tokens"):
            assert getattr(doc, name) == getattr(want, name)
        assert doc == ItemDocument(doc.doc_id, doc.sold_date, doc.category, doc.title)


def test_ingest_parses_each_date_once(monkeypatch):
    dates = ["2018-02-01", "2018-02-02", "2018-03-04", "2018-02-30"]
    categories = ["Jewelry", "Home Garden", "!!"]
    lines = [f"d{i}\t{dates[i % 4]}\t{categories[i % 3]}\tw{i}" for i in range(60)]
    calls = []

    def spy(text):
        calls.append(text)
        return parse_date(text)

    parse_date = corpus_module.parse_date
    monkeypatch.setattr(corpus_module, "parse_date", spy)
    for _ in range(2):  # what one call learns is not kept for the next
        calls.clear()
        result = ingest(lines)
        assert len(result.documents) == 45 and len(result.errors) == 15
        counts = Counter(calls)
        assert [counts[text] for text in dates] == [1, 1, 1, 15]


def test_every_alphanumeric_code_point_is_a_field():
    # ingest takes an alphanumeric doc_id without FIELD's regex: no alphanumeric is whitespace
    alnum = "".join(c for c in map(chr, range(0x110000)) if c.isalnum())
    assert FIELD.fullmatch(alnum)


_KEY_YEARS = st.sampled_from([-1, 0, 1, 2018, 9999, 10000, 12345]) | st.integers(-2, 12500)


@settings(max_examples=300, deadline=None)
@given(key=st.tuples(_KEY_YEARS, st.integers(-1, 14)),
       specs=st.lists(st.tuples(st.sampled_from("abcdefghijkl"), st.integers(-3, 34),
                                st.text("ab \u00e91-", max_size=6)), max_size=6))
@example(key=(2018, 0), specs=[])
@example(key=(2018, 13), specs=[])
@example(key=(12345, 1), specs=[])
@example(key=(0, 1), specs=[])
@example(key=(-1, 1), specs=[])
@example(key=(0, 1), specs=[("a", 0, "x")])
@example(key=(2018, 2), specs=[("a", 27, "x"), ("b", 28, "y")])
@example(key=(2018, 12), specs=[("a", -1, "x"), ("b", 0, "y"), ("c", 30, ""), ("d", 31, "z")])
def test_partition_rules_and_round_trip(key, specs):
    """MonthlyCorpus refuses exactly a key YYYY-MM cannot hold, a repeated doc_id or a document
    dated outside the key; whatever it takes saves and loads back unchanged. Documents are dated
    a few days either side of the first and last day of the month nearest the key."""
    first = date(min(max(key[0], 1), 9999), min(max(key[1], 1), 12), 1)
    docs = []
    for doc_id, offset, title in specs:
        with contextlib.suppress(OverflowError):  # before year 1 or after 9999
            docs.append(ItemDocument(doc_id, first + timedelta(offset), "", title))
    month = f"{key[0]:04d}-{key[1]:02d}" if 0 <= key[0] <= 9999 and 1 <= key[1] <= 12 else None
    strays = [doc for doc in docs if (doc.sold_date.year, doc.sold_date.month) != key]
    if month is None:
        with pytest.raises(ValueError):
            MonthlyCorpus(key, tuple(docs))
    elif len({doc.doc_id for doc in docs}) < len(docs):
        with pytest.raises(DuplicateDocumentId):
            MonthlyCorpus(key, tuple(docs))
    elif strays:
        with pytest.raises(ValueError) as excinfo:
            MonthlyCorpus(key, tuple(docs))
        assert str(excinfo.value) == (f"document {strays[0].doc_id!r} dated "
                                      f"{strays[0].sold_date.isoformat()} outside partition {month}")
    else:
        out = io.StringIO()
        save_index(build_index(MonthlyCorpus(key, tuple(docs))), out)
        loaded = load_index(io.StringIO(out.getvalue()))
        assert loaded.month_key == key and out.getvalue().startswith(f"INDEXv2 {month} ")
        assert [(d.doc_id, d.tokens) for d in loaded.doc_store.values()] == [
            (d.doc_id, d.tokens) for d in docs]
