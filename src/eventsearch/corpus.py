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

# Maximal runs of Unicode alphanumerics; underscore and all punctuation split.
_ALNUM_RUN = re.compile(r"[^\W_]+", re.UNICODE)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

MonthKey = tuple[int, int]


def _split(text: str) -> list[str]:
    return _ALNUM_RUN.findall(text.lower())


def tokenize(category: str, title: str) -> list[str]:
    """Normalized bag-of-words tokens: category tokens first, then title tokens.

    Lowercases, splits on any non-alphanumeric character, and drops empty
    fragments. Digit-only and single-character tokens are kept.
    """
    return _split(category) + _split(title)


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
        """Build a document with tokens derived from category and title."""
        return cls(doc_id, sold_date, category, title, tuple(tokenize(category, title)))

    @property
    def month_key(self) -> MonthKey:
        return (self.sold_date.year, self.sold_date.month)


@dataclass(frozen=True)
class MonthlyCorpus:
    """Documents sold within one calendar month; the unit of embedding training."""

    month_key: MonthKey
    documents: tuple[ItemDocument, ...]

    def __post_init__(self):
        counts = Counter(doc.doc_id for doc in self.documents)
        if len(counts) != len(self.documents):
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

    Raises ValueError on wrong field count or a bad date.
    """
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
    doc_id, date_text, category, title = fields
    return ItemDocument.create(doc_id, parse_date(date_text), category, title)


def ingest(lines: Iterable[str]) -> IngestResult:
    """Parse line-delimited records, skipping and counting malformed lines.

    Lines starting with '#' and blank lines are ignored. A duplicate doc_id
    is fatal and raises DuplicateDocumentId.
    """
    result = IngestResult()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        try:
            doc = parse_record_line(line)
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
