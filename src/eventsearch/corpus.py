"""Item ingestion: title tokenization, record parsing, monthly partitioning.

Item titles are treated as bags of words prefixed with their category name,
and matching downstream is case-insensitive, so all normalization happens
here, once, at ingest time.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Iterable

from .errors import DuplicateDocumentId
from .textfile import FIELD

# Maximal runs of Unicode alphanumerics; underscore and all punctuation split.
_ALNUM_RUN = re.compile(r"[^\W_]+", re.UNICODE)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

MonthKey = tuple[int, int]


def tokenize(text: str) -> list[str]:
    """The package's one normalizer: lowercases text and splits it on any non-alphanumeric
    character, dropping empty fragments; digit-only and one-character tokens are kept. Words
    all alphanumeric, one space apart, skip the regex: every alphanumeric is a word character."""
    words = (text := text.lower()).split(" ")
    return words if "" not in words and "".join(words).isalnum() else _ALNUM_RUN.findall(text)


def format_month(month_key: MonthKey) -> str:
    return f"{month_key[0]:04d}-{month_key[1]:02d}"


def parse_date(text: str) -> date:
    """Parse a YYYY-MM-DD date in ASCII digits; raises ValueError otherwise."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"invalid date {text!r}, expected YYYY-MM-DD")
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"invalid date {text!r}") from None


def parse_month(text: str) -> MonthKey:
    """Parse a YYYY-MM selector; raises ValueError if malformed."""
    m = re.fullmatch(r"([0-9]{4})-([0-9]{2})", text)
    if m is None:
        raise ValueError(f"expected YYYY-MM, got {text!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in {text!r}")
    return year, month


@dataclass(frozen=True, slots=True)
class ItemDocument:
    """One sellable item, the unit of retrieval. Its tokens are derived, never given: the
    category's, then the title's, from one tokenize of both texts joined by a space; a category
    or title that is not a str raises TypeError. dataclasses.replace derives them anew."""

    doc_id: str
    sold_date: date
    category: str
    title: str
    tokens: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(tokenize(self.category + " " + self.title)))

    @classmethod
    def create(cls, doc_id: str, sold_date: date, category: str, title: str) -> "ItemDocument":
        return cls(doc_id, sold_date, category, title)  # the constructor, by an older name

    @property
    def month_key(self) -> MonthKey:
        return (self.sold_date.year, self.sold_date.month)


@dataclass(frozen=True)
class MonthlyCorpus:
    """Documents sold within one calendar month, the unit of training and indexing, stating its
    rules: month_key is two ints, not bools, that YYYY-MM writes and reads back, doc_ids are
    unique (else DuplicateDocumentId), and each sold_date is a date in it, not a datetime."""

    month_key: MonthKey
    documents: tuple[ItemDocument, ...]

    def __post_init__(self):
        if not (isinstance(key := self.month_key, tuple) and list(map(type, key)) == [int, int]
                and 0 <= key[0] <= 9999 and 1 <= key[1] <= 12):
            raise ValueError(f"invalid month key {key!r}")
        month = format_month(key)
        if len({doc.doc_id for doc in self.documents}) != len(self.documents):
            counts = Counter(doc.doc_id for doc in self.documents)
            dupes = [doc_id for doc_id, n in counts.items() if n > 1]
            raise DuplicateDocumentId(f"duplicate doc_ids in {month}: {dupes}")

        def fault(sold) -> str:  # a datetime is a date, but save_index would write its time too
            if isinstance(sold, datetime) or not isinstance(sold, date):
                return f"has sold_date {sold!r}, not a date"
            in_month = (sold.year, sold.month) == key
            return "" if in_month else f"dated {sold.isoformat()} outside partition {month}"
        for sold in {doc.sold_date for doc in self.documents}:  # each distinct date once
            if fault(sold):  # name the first document, in order, at fault
                doc = next(doc for doc in self.documents if fault(doc.sold_date))
                raise ValueError(f"document {doc.doc_id!r} {fault(doc.sold_date)}")

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class IngestResult:
    """Parsed documents plus per-line errors from one ingestion run."""

    documents: list[ItemDocument] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)


def parse_record_line(line: str) -> ItemDocument:
    """Parse one TAB-separated record: doc_id, sold_date, category, title.

    Raises ValueError on wrong field count, an empty or whitespace-holding doc_id, or a bad date.
    """
    return _parse_record(line, {})


def _parse_record(line: str, dates: dict[str, date]) -> ItemDocument:
    """parse_record_line, reading each date from dates, which gains the date texts it lacks; a
    text that fails parse_date is not kept."""
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
    doc_id, date_text, category, title = fields
    if not (doc_id.isalnum() or FIELD.fullmatch(doc_id)):  # no alphanumeric is whitespace
        raise ValueError(f"invalid doc_id {doc_id!r}")
    if (sold := dates.get(date_text)) is None:
        sold = dates[date_text] = parse_date(date_text)
    return ItemDocument(doc_id, sold, category, title)


def ingest(lines: Iterable[str]) -> IngestResult:
    """Parse line-delimited records, skipping and counting malformed lines.

    Empty lines and lines starting with '#' are skipped; any other line, one
    of spaces too, is a record, and a malformed one is reported with its line
    number. Each distinct date text is parsed once per call. A duplicate
    doc_id is fatal and raises DuplicateDocumentId.
    """
    result = IngestResult()
    seen: dict[str, int] = {}
    dates: dict[str, date] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        try:
            doc = _parse_record(line, dates)
        except ValueError as exc:
            result.errors.append((lineno, str(exc)))
            continue
        if doc.doc_id in seen:
            raise DuplicateDocumentId(
                f"doc_id {doc.doc_id!r} on line {lineno} already seen on line {seen[doc.doc_id]}"
            )
        seen[doc.doc_id] = lineno
        result.documents.append(doc)
    return result


def segment_by_month(documents: Iterable[ItemDocument]) -> list[MonthlyCorpus]:
    """Partition documents by (year, month) of sold_date, ascending, each in its input order."""
    buckets: dict[MonthKey, list[ItemDocument]] = {}
    for doc in documents:
        buckets.setdefault(doc.month_key, []).append(doc)
    return [MonthlyCorpus(key, tuple(buckets[key])) for key in sorted(buckets)]
