"""Tokenization, ingestion, and monthly partitioning."""

import string
from collections import Counter
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventsearch import corpus as corpus_module
from eventsearch.corpus import (
    ItemDocument,
    format_month,
    ingest,
    parse_month,
    parse_record_line,
    segment_by_month,
    tokenize,
)
from eventsearch.errors import DuplicateDocumentId
from eventsearch.textfile import FIELD


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
        return ItemDocument.create(doc_id, date.fromisoformat(iso), "c", "t")

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
        assert doc == ItemDocument.create(doc.doc_id, doc.sold_date, doc.category, doc.title)


def test_ingest_parses_each_date_and_tokenizes_each_category_once(monkeypatch):
    dates = ["2018-02-01", "2018-02-02", "2018-03-04", "2018-02-30"]
    categories = ["Jewelry", "Home Garden", "!!"]
    lines = [f"d{i}\t{dates[i % 4]}\t{categories[i % 3]}\tw{i}" for i in range(60)]
    calls = []

    def spy(real):
        def wrapped(text):
            calls.append(text)
            return real(text)
        return wrapped

    monkeypatch.setattr(corpus_module, "parse_date", spy(corpus_module.parse_date))
    monkeypatch.setattr(corpus_module, "tokenize", spy(corpus_module.tokenize))
    for _ in range(2):  # what one call learns is not kept for the next
        calls.clear()
        result = ingest(lines)
        assert len(result.documents) == 45 and len(result.errors) == 15
        counts = Counter(calls)
        assert [counts[text] for text in dates] == [1, 1, 1, 15]
        assert [counts[text] for text in categories] == [1, 1, 1]


def test_every_alphanumeric_code_point_is_a_field():
    # ingest takes an alphanumeric doc_id without FIELD's regex: no alphanumeric is whitespace
    alnum = "".join(c for c in map(chr, range(0x110000)) if c.isalnum())
    assert FIELD.fullmatch(alnum)
