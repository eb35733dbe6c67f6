"""Inverted index over one monthly partition: columnar postings, document lengths, smoothed idf.

A built index is immutable and safe for unlimited concurrent readers.
"""

from __future__ import annotations

import math
from datetime import date
from functools import cached_property

import numpy as np

from .corpus import (ItemDocument, MonthKey, MonthlyCorpus, format_month, parse_date, parse_month,
                     tokenize)
from .errors import FormatError
from .textfile import FIELD, PathOrFile, read_lines, writer

FORMAT = "INDEXv2"


class InvertedIndex:
    """Columnar postings (Zobel & Moffat, ACM CSUR 2006): term i of the sorted terms has postings
    offsets[i]:offsets[i + 1] (Python ints) of doc_rows and tfs; row r is doc_ids[r], the r-th
    doc_id in sorted order, of doc_len[r] tokens. doc_store keeps its input order."""

    def __init__(self, month_key: MonthKey, doc_store: dict[str, ItemDocument]):
        self.month_key = month_key
        self.doc_store = doc_store
        # Python's order, not numpy's: numpy compares 'a\x00' equal to 'a'
        self.doc_ids = sorted(doc_store)
        self.doc_count = len(doc_store)
        docs = list(map(doc_store.__getitem__, self.doc_ids))
        self.doc_len = np.array([len(doc.tokens) for doc in docs], np.int64)
        # mean token count over all documents; 0.0 for an empty index
        self.avg_doc_len = int(self.doc_len.sum()) / self.doc_count if doc_store else 0.0
        self.terms = sorted({token for doc in docs for token in doc.tokens})
        self.term_rows = {term: i for i, term in enumerate(self.terms)}
        term_ids = [self.term_rows[token] for doc in docs for token in doc.tokens]
        # one sort over (term, document row) keys; a key's count is its posting's tf
        n = max(self.doc_count, 1)
        keys = np.array(term_ids, np.int64) * n + np.arange(self.doc_count).repeat(self.doc_len)
        keys, self.tfs = np.unique(keys, return_counts=True)
        self.offsets = tuple(np.searchsorted(keys, np.arange(len(self.terms) + 1) * n).tolist())
        self.doc_rows = keys % n
        for array in (self.doc_len, self.tfs, self.doc_rows):
            array.flags.writeable = False

    @cached_property
    def postings(self) -> dict[str, list[tuple[str, int]]]:
        """term -> [(doc_id, tf)] in doc_id order; a view derived on first access."""
        pairs = list(zip(map(self.doc_ids.__getitem__, self.doc_rows.tolist()), self.tfs.tolist()))
        spans = zip(self.terms, self.offsets, self.offsets[1:])
        return {term: pairs[lo:hi] for term, lo, hi in spans}

    @cached_property
    def doc_freq(self) -> dict[str, int]:
        """term -> number of documents holding it; a view derived on first access."""
        return dict(zip(self.terms, np.diff(self.offsets).tolist()))

    def idf(self, term: str) -> float:
        """ln((N + 1) / (df + 1)) + 1; smoothed, strictly positive."""
        row = self.term_rows.get(term)
        df = 0 if row is None else self.offsets[row + 1] - self.offsets[row]
        return math.log((self.doc_count + 1) / (df + 1)) + 1.0


def build_index(corpus: MonthlyCorpus) -> InvertedIndex:
    """Index every (term, document) occurrence of a monthly corpus."""
    return InvertedIndex(corpus.month_key, {doc.doc_id: doc for doc in corpus.documents})


def save_index(index: InvertedIndex, dest: PathOrFile) -> None:
    """Write the index as a single portable UTF-8 file.

    Line 1 is "INDEXv2 <year>-<month> N"; then one "D" line per document
    with its tokens, prefixed by how many of them came from the category.
    Postings are not stored: load_index rebuilds them from the tokens.
    A doc_id that is empty or holds whitespace, or a document dated outside
    the index's month, would not load: FormatError, before dest is touched.
    """
    for doc_id, doc in index.doc_store.items():
        if not FIELD.fullmatch(doc_id):
            raise FormatError(f"doc_id {doc_id!r} cannot be serialized in index format")
        if doc.month_key != index.month_key:
            raise FormatError(f"document {doc_id!r} dated {doc.sold_date.isoformat()} outside "
                              f"partition {format_month(index.month_key)}")
    counts: dict[str, str] = {}  # category text -> its token count, counted once
    with writer(dest) as handle:
        handle.write(f"{FORMAT} {format_month(index.month_key)} {index.doc_count}\n")
        for doc in index.doc_store.values():
            if (category_tokens := counts.get(doc.category)) is None:
                category_tokens = counts[doc.category] = str(len(tokenize(doc.category)))
            fields = ("D", doc.doc_id, doc.sold_date.isoformat(), category_tokens, *doc.tokens)
            handle.write(" ".join(fields) + "\n")


def _parse_doc_line(line: str, lineno: int, month_key: MonthKey,
                    dates: dict[str, date]) -> ItemDocument:
    fields = line.split(" ")
    if fields[0] != "D" or len(fields) < 4:
        raise FormatError(f"expected 'D <doc_id> <date> <category count> <tokens>', got {line!r}",
                          line=lineno)
    _, doc_id, date_text, cat_count_text = fields[:4]
    tokens = fields[4:]
    if not FIELD.fullmatch(doc_id):
        raise FormatError(f"invalid doc_id {doc_id!r}", line=lineno)
    sold = dates.get(date_text)
    if sold is None:
        try:
            sold = parse_date(date_text)
        except ValueError:
            raise FormatError(f"invalid date {date_text!r}", line=lineno) from None
        if (sold.year, sold.month) != month_key:
            raise FormatError(f"document dated {date_text} outside partition "
                              f"{format_month(month_key)}", line=lineno)
        dates[date_text] = sold
    if not (cat_count_text.isascii() and cat_count_text.isdigit()):  # int() takes '+1', '١'
        raise FormatError(f"invalid category token count {cat_count_text!r}", line=lineno)
    cat_count = int(cat_count_text)
    if cat_count > len(tokens):
        raise FormatError(f"category token count {cat_count} out of range", line=lineno)
    # lowercase alphanumeric tokens are exactly tokenize(joined): only other lines are tokenized
    joined = " ".join(tokens)
    if not all(map(str.isalnum, tokens)) or joined.lower() != joined:
        if tokenize(joined) != tokens:
            raise FormatError(f"tokens are not in normalized form: {tokens}", line=lineno)
    # raw category/title text is not stored; rebuild normalized forms from tokens
    category = " ".join(tokens[:cat_count])
    title = " ".join(tokens[cat_count:])
    return ItemDocument(doc_id, sold, category, title, tuple(tokens))


def load_index(source: PathOrFile) -> InvertedIndex:
    """Read an index file back, validating every line, and rebuild its postings."""
    lines = read_lines(source, "index")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != FORMAT:
        raise FormatError(f"expected '{FORMAT} <year>-<month> N', got {lines[0]!r}", line=1)
    try:
        month_key = parse_month(header[1])
    except ValueError as exc:
        raise FormatError(str(exc), line=1) from None
    if not (header[2].isascii() and header[2].isdigit()):
        raise FormatError(f"invalid document count {header[2]!r}", line=1)
    doc_count = int(header[2])
    if len(lines) - 1 != doc_count:
        raise FormatError(f"header promises {doc_count} documents, found {len(lines) - 1}",
                          line=min(doc_count, len(lines) - 1) + 2)

    documents: dict[str, ItemDocument] = {}
    dates: dict[str, date] = {}  # each date text that passed its checks, parsed once
    for lineno, line in enumerate(lines[1:], start=2):
        doc = _parse_doc_line(line, lineno, month_key, dates)
        if doc.doc_id in documents:
            raise FormatError(f"duplicate doc_id {doc.doc_id!r}", line=lineno)
        documents[doc.doc_id] = doc
    return InvertedIndex(month_key, documents)
