"""Tokenization, ingestion, and monthly partitioning."""

import string
from datetime import date

import numpy as np
import pytest

from eventsearch.corpus import (
    ItemDocument,
    format_month,
    ingest,
    parse_month,
    segment_by_month,
    tokenize,
)
from eventsearch.errors import DuplicateDocumentId


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
