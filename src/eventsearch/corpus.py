"""Item ingestion: title tokenization, record parsing, monthly partitioning.

Item titles are treated as bags of words prefixed with their category name,
and matching downstream is case-insensitive, so all normalization happens
here, once, at ingest time.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable

from .errors import DuplicateDocumentId
from .textfile import FIELD

# Maximal runs of Unicode alphanumerics; underscore and all punctuation split.
_ALNUM_RUN = re.compile(r"[^\W_]+", re.UNICODE)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

MonthKey = tuple[int, int]


def tokenize(text: str) -> list[str]:
    """The package's one normalizer: lowercases text and splits it on any non-alphanumeric
    character, dropping empty fragments. Digit-only and single-character tokens are kept."""
    return _ALNUM_RUN.findall(text.lower())


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


@dataclass(frozen=True)
class ItemDocument:
    """One sellable item; the unit of retrieval."""

    doc_id: str
    sold_date: date
    category: str
    title: str
    tokens: tuple[str, ...]

    @classmethod
    def create(cls, doc_id: str, sold_date: date, category: str, title: str) -> "ItemDocument":
        """Build a document whose tokens are category's, then title's."""
        return cls._create(doc_id, sold_date, category, tokenize(category), title)

    @classmethod
    def _create(cls, doc_id: str, sold_date: date, category: str, category_tokens: list[str],
                title: str) -> "ItemDocument":
        return cls(doc_id, sold_date, category, title, (*category_tokens, *tokenize(title)))

    @property
    def month_key(self) -> MonthKey:
        return (self.sold_date.year, self.sold_date.month)


@dataclass(frozen=True)
class MonthlyCorpus:
    """Documents sold within one calendar month; the unit of embedding training."""

    month_key: MonthKey
    documents: tuple[ItemDocument, ...]

    def __post_init__(self):
        if len({doc.doc_id for doc in self.documents}) != len(self.documents):
            counts = Counter(doc.doc_id for doc in self.documents)
            dupes = [doc_id for doc_id, n in counts.items() if n > 1]
            month = format_month(self.month_key)
            raise DuplicateDocumentId(f"duplicate doc_ids in {month}: {dupes}")

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
    return _parse_record(line, {}, {})


def _parse_record(line: str, dates: dict[str, date],
                  categories: dict[str, list[str]]) -> ItemDocument:
    """parse_record_line, reading each date and category's tokens from dates and categories,
    which gain the texts they lack; a date text that fails parse_date is not kept."""
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
    doc_id, date_text, category, title = fields
    if not (doc_id.isalnum() or FIELD.fullmatch(doc_id)):  # no alphanumeric is whitespace
        raise ValueError(f"invalid doc_id {doc_id!r}")
    if (sold := dates.get(date_text)) is None:
        sold = dates[date_text] = parse_date(date_text)
    if (category_tokens := categories.get(category)) is None:
        category_tokens = categories[category] = tokenize(category)
    return ItemDocument._create(doc_id, sold, category, category_tokens, title)


def ingest(lines: Iterable[str]) -> IngestResult:
    """Parse line-delimited records, skipping and counting malformed lines.

    Empty lines and lines starting with '#' are skipped; any other line, one
    of spaces too, is a record, and a malformed one is reported with its line
    number. Each distinct date text is parsed, and each distinct category
    tokenized, once per call. A duplicate doc_id is fatal and raises
    DuplicateDocumentId.
    """
    result = IngestResult()
    seen: dict[str, int] = {}
    dates: dict[str, date] = {}
    categories: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        try:
            doc = _parse_record(line, dates, categories)
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
    """Partition documents by (year, month) of sold_date, ascending by month.

    Documents keep their input order within each partition; doc_ids must be
    unique within a partition.
    """
    buckets: dict[MonthKey, list[ItemDocument]] = {}
    for doc in documents:
        buckets.setdefault(doc.month_key, []).append(doc)
    return [MonthlyCorpus(key, tuple(buckets[key])) for key in sorted(buckets)]
