"""Inverted index over one monthly partition: postings, document lengths, and smoothed idf.

A built index is immutable and safe for unlimited concurrent readers.
"""

from __future__ import annotations

import math
import re

from .corpus import (ItemDocument, MonthKey, MonthlyCorpus, format_month, parse_date, parse_month,
                     tokenize)
from .errors import FormatError
from .textfile import PathOrFile, read_lines, writer

FORMAT = "INDEXv2"
# doc_ids travel through space-separated fields on disk
_SERIALIZABLE_ID = re.compile(r"\S+")


class InvertedIndex:
    """term -> postings, document frequencies and lengths, and the document store."""

    def __init__(
        self,
        month_key: MonthKey,
        postings: dict[str, list[tuple[str, int]]],
        doc_store: dict[str, ItemDocument],
    ):
        self.month_key = month_key
        self.postings = postings
        self.doc_store = doc_store
        self.doc_freq = {term: len(plist) for term, plist in postings.items()}
        self.doc_count = len(doc_store)
        self.doc_len = {doc_id: len(doc.tokens) for doc_id, doc in doc_store.items()}
        # mean token count over all documents; 0.0 for an empty index
        self.avg_doc_len = sum(self.doc_len.values()) / self.doc_count if doc_store else 0.0

    def idf(self, term: str) -> float:
        """ln((N + 1) / (df + 1)) + 1; smoothed, strictly positive."""
        df = self.doc_freq.get(term, 0)
        return math.log((self.doc_count + 1) / (df + 1)) + 1.0


def build_index(corpus: MonthlyCorpus) -> InvertedIndex:
    """Index every (term, document) occurrence of a monthly corpus."""
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_store: dict[str, ItemDocument] = {}
    for doc in corpus.documents:
        doc_store[doc.doc_id] = doc
        counts: dict[str, int] = {}
        for token in doc.tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, count in counts.items():
            postings.setdefault(term, []).append((doc.doc_id, count))
    for plist in postings.values():
        plist.sort(key=lambda entry: entry[0])
    return InvertedIndex(corpus.month_key, postings, doc_store)


def save_index(index: InvertedIndex, dest: PathOrFile) -> None:
    """Write the index as a single portable UTF-8 file.

    Line 1 is "INDEXv2 <year>-<month> N"; then one "D" line per document
    with its tokens, prefixed by how many of them came from the category.
    Postings are not stored: load_index rebuilds them from the tokens.
    doc_ids that are empty or contain whitespace cannot be represented and
    raise FormatError.
    """
    for doc_id in index.doc_store:
        if not _SERIALIZABLE_ID.fullmatch(doc_id):
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
    if not _SERIALIZABLE_ID.fullmatch(doc_id):
        raise FormatError(f"invalid doc_id {doc_id!r}", line=lineno)
    try:
        sold = parse_date(date_text)
    except ValueError:
        raise FormatError(f"invalid date {date_text!r}", line=lineno) from None
    if (sold.year, sold.month) != month_key:
        raise FormatError(
            f"document dated {date_text} outside partition {format_month(month_key)}", line=lineno
        )
    try:
        cat_count = int(cat_count_text)
    except ValueError:
        raise FormatError(f"invalid category token count {cat_count_text!r}", line=lineno) from None
    if not 0 <= cat_count <= len(tokens):
        raise FormatError(f"category token count {cat_count} out of range", line=lineno)
    if tokenize("", " ".join(tokens)) != tokens:
        raise FormatError(f"tokens are not in normalized form: {tokens}", line=lineno)
    # raw category/title text is not stored; rebuild normalized forms from tokens
    category = " ".join(tokens[:cat_count])
    title = " ".join(tokens[cat_count:])
    return ItemDocument(doc_id, sold, category, title, tuple(tokens))


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
    try:
        doc_count = int(header[2])
    except ValueError:
        raise FormatError(f"invalid document count {header[2]!r}", line=1) from None
    if doc_count < 0:
        raise FormatError(f"invalid document count {doc_count}", line=1)

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
