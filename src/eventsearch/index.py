"""Inverted index over one monthly partition: columnar postings, document lengths, smoothed idf.

A built index is immutable and safe for unlimited concurrent readers.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .corpus import (ItemDocument, MonthKey, MonthlyCorpus, format_month, parse_date, parse_month,
                     tokenize)
from .errors import DuplicateDocumentId, FormatError
from .textfile import FIELD, PathOrFile, read_lines, writer

FORMAT = "INDEXv2"


class InvertedIndex:
    """Columnar postings (Zobel & Moffat, ACM CSUR 2006): term i of the sorted terms has
    postings offsets[i]:offsets[i + 1] of doc_rows and tfs, in doc_id order; document row r
    is doc_ids[r] (doc_store order), of doc_len[r] tokens and rank doc_rank[r] by doc_id."""

    def __init__(self, month_key: MonthKey, doc_store: dict[str, ItemDocument]):
        self.month_key = month_key
        self.doc_store = doc_store
        self.doc_ids = list(doc_store)
        self.doc_count = len(doc_store)
        self.doc_len = np.array([len(doc.tokens) for doc in doc_store.values()], np.int64)
        # mean token count over all documents; 0.0 for an empty index
        self.avg_doc_len = int(self.doc_len.sum()) / self.doc_count if doc_store else 0.0
        # Python's order, not numpy's: numpy compares 'a\x00' equal to 'a'
        by_rank = np.array(sorted(range(self.doc_count), key=self.doc_ids.__getitem__), np.intp)
        self.doc_rank = np.argsort(by_rank)  # the inverse permutation
        self.terms = sorted({token for doc in doc_store.values() for token in doc.tokens})
        self.term_rows = {term: i for i, term in enumerate(self.terms)}
        term_ids = [self.term_rows[token] for doc in doc_store.values() for token in doc.tokens]
        # one sort over (term, doc rank) keys; a key's count is its posting's tf
        n = max(self.doc_count, 1)
        keys = np.array(term_ids, dtype=np.int64) * n + np.repeat(self.doc_rank, self.doc_len)
        keys, self.tfs = np.unique(keys, return_counts=True)
        self.offsets = np.searchsorted(keys, np.arange(len(self.terms) + 1) * n)
        self.doc_rows = by_rank[keys % n]
        for array in (self.doc_len, self.doc_rank, self.tfs, self.offsets, self.doc_rows):
            array.flags.writeable = False

    @cached_property
    def postings(self) -> dict[str, list[tuple[str, int]]]:
        """term -> [(doc_id, tf)] in doc_id order; a view derived on first access."""
        pairs = list(zip(map(self.doc_ids.__getitem__, self.doc_rows.tolist()), self.tfs.tolist()))
        bounds = self.offsets.tolist()
        return {term: pairs[lo:hi] for term, lo, hi in zip(self.terms, bounds, bounds[1:])}

    @cached_property
    def doc_freq(self) -> dict[str, int]:
        """term -> number of documents holding it; a view derived on first access."""
        return dict(zip(self.terms, np.diff(self.offsets).tolist()))

    def idf(self, term: str) -> float:
        """ln((N + 1) / (df + 1)) + 1; smoothed, strictly positive."""
        row = self.term_rows.get(term)
        df = 0 if row is None else int(self.offsets[row + 1] - self.offsets[row])
        return math.log((self.doc_count + 1) / (df + 1)) + 1.0


def build_index(corpus: MonthlyCorpus) -> InvertedIndex:
    """Index every (term, document) occurrence of a monthly corpus."""
    return InvertedIndex(corpus.month_key, {doc.doc_id: doc for doc in corpus.documents})


def save_index(index: InvertedIndex, dest: PathOrFile) -> None:
    """Write the index as a single portable UTF-8 file.

    Line 1 is "INDEXv2 <year>-<month> N"; then one "D" line per document
    with its tokens, prefixed by how many of them came from the category.
    Postings are not stored: load_index rebuilds them from the tokens.
    doc_ids that are empty or contain whitespace cannot be represented and
    raise FormatError.
    """
    for doc_id in index.doc_store:
        if not FIELD.fullmatch(doc_id):
            raise FormatError(f"doc_id {doc_id!r} cannot be serialized in index format")
    with writer(dest) as handle:
        handle.write(f"{FORMAT} {format_month(index.month_key)} {index.doc_count}\n")
        for doc in index.doc_store.values():
            category_tokens = len(tokenize(doc.category, ""))
            token_list = " ".join(doc.tokens)
            sep = " " if token_list else ""
            handle.write(
                f"D {doc.doc_id} {doc.sold_date.isoformat()} {category_tokens}{sep}{token_list}\n"
            )


def _parse_doc_line(line: str, lineno: int, month_key: MonthKey) -> ItemDocument:
    fields = line.split(" ")
    if fields[0] != "D" or len(fields) < 4:
        raise FormatError(f"expected 'D <doc_id> <date> <category count> <tokens>', got {line!r}",
                          line=lineno)
    _, doc_id, date_text, cat_count_text = fields[:4]
    tokens = fields[4:]
    if not FIELD.fullmatch(doc_id):
        raise FormatError(f"invalid doc_id {doc_id!r}", line=lineno)
    try:
        sold = parse_date(date_text)
    except ValueError:
        raise FormatError(f"invalid date {date_text!r}", line=lineno) from None
    if (sold.year, sold.month) != month_key:
        raise FormatError(
            f"document dated {date_text} outside partition {format_month(month_key)}", line=lineno
        )
    if not (cat_count_text.isascii() and cat_count_text.isdigit()):  # int() takes '+1', '١'
        raise FormatError(f"invalid category token count {cat_count_text!r}", line=lineno)
    cat_count = int(cat_count_text)
    if cat_count > len(tokens):
        raise FormatError(f"category token count {cat_count} out of range", line=lineno)
    if tokenize("", " ".join(tokens)) != tokens:
        raise FormatError(f"tokens are not in normalized form: {tokens}", line=lineno)
    # raw category/title text is not stored; rebuild normalized forms from tokens
    category = " ".join(tokens[:cat_count])
    title = " ".join(tokens[cat_count:])
    return ItemDocument(doc_id, sold, category, title, tuple(tokens))


def _bulk_documents(lines: list[str], month_key: MonthKey) -> tuple[ItemDocument, ...]:
    """The D lines' documents, all checked at once: ValueError where a line may break a rule
    that _parse_doc_line checks."""
    rows = [line.split(" ") for line in lines]
    if not all(fields[0] == "D" and len(fields) >= 4 and FIELD.fullmatch(fields[1])
               and fields[3].isascii() and fields[3].isdigit()
               and int(fields[3]) <= len(fields) - 4 for fields in rows):
        raise ValueError("a line is malformed")
    dates = {text: parse_date(text) for text in {fields[2] for fields in rows}}
    # a space splits tokens and lower() changes nothing a normalized token holds, so the
    # whole stream is normalized exactly when every line's tokens are
    stream = [token for fields in rows for token in fields[4:]]
    if (any((sold.year, sold.month) != month_key for sold in dates.values())
            or tokenize("", " ".join(stream)) != stream):
        raise ValueError("a date or a token is malformed")
    return tuple(ItemDocument(fields[1], dates[fields[2]], " ".join(fields[4 : 4 + int(fields[3])]),
                              " ".join(fields[4 + int(fields[3]) :]), tuple(fields[4:]))
                 for fields in rows)


def load_index(source: PathOrFile) -> InvertedIndex:
    """Read an index file back, validating every line, and rebuild its postings."""
    lines = read_lines(source, "index")
    header = lines[0].split(" ")
    if header[0] == "INDEXv1":
        raise FormatError(
            "index format v1 is no longer read; rebuild the file with 'eventsearch index'", line=1
        )
    if len(header) != 3 or header[0] != FORMAT:
        raise FormatError(f"expected '{FORMAT} <year>-<month> N', got {lines[0]!r}", line=1)
    try:
        month_key = parse_month(header[1])
    except ValueError as exc:
        raise FormatError(str(exc), line=1) from None
    if not (header[2].isascii() and header[2].isdigit()):
        raise FormatError(f"invalid document count {header[2]!r}", line=1)
    doc_count = int(header[2])

    if len(lines) - 1 == doc_count:
        try:  # all lines at once; on any fault the line-by-line pass below names its line
            return build_index(MonthlyCorpus(month_key, _bulk_documents(lines[1:], month_key)))
        except (ValueError, DuplicateDocumentId):
            pass
    documents: dict[str, ItemDocument] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        doc = _parse_doc_line(line, lineno, month_key)
        if doc.doc_id in documents:
            raise FormatError(f"duplicate doc_id {doc.doc_id!r}", line=lineno)
        documents[doc.doc_id] = doc
    if len(documents) != doc_count:
        raise FormatError(
            f"header promises {doc_count} documents, found {len(documents)}", line=len(lines) + 1
        )
    return build_index(MonthlyCorpus(month_key, tuple(documents.values())))
