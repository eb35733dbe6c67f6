"""Embedding-weighted scoring and retrieval over the inverted index.

A document's score is the sum over query terms of a per-term weight
(tf * idf, or the BM25 saturated variant) multiplied by the query's delta
factor: 1 for seed terms, the expansion similarity weight otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Union

import numpy as np

from .embedding import _integer
from .errors import UnknownDocument
from .expansion import ExpandedQuery
from .index import InvertedIndex


@dataclass(frozen=True)
class TfIdf:
    """Plain tf * idf per-term weight."""


@dataclass(frozen=True)
class Bm25:
    """Okapi-style saturated per-term weight with length normalization."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not self.k1 > 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not math.isfinite(self.k1):
            raise ValueError(f"k1 must be finite, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class RankedResult(NamedTuple):
    doc_id: str
    score: float
    matched_terms: tuple[tuple[str, float], ...]


ScorerKind = Union[TfIdf, Bm25]
_result = partial(tuple.__new__, RankedResult)  # RankedResult._make without its Python frame


def _accumulate(index: InvertedIndex, query: ExpandedQuery, scorer: ScorerKind, threshold: float):
    """Every document's score under query, with the postings that made it.

    Terms, in lexicographic order, add their contributions into one dense accumulator
    in O(N + sum of their df). Returns the terms, each term's posting count, and per posting
    its document row and contribution, then the scores indexed by document row."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    terms = sorted(query.all_terms() & index.term_rows.keys())
    spans = [index.offsets[i : i + 2] for i in map(index.term_rows.get, terms)]
    counts = [hi - lo for lo, hi in spans]
    rows = np.concatenate([index.doc_rows[lo:hi] for lo, hi in spans] or [index.doc_rows[:0]])
    tfs = np.concatenate([index.tfs[lo:hi] for lo, hi in spans] or [index.tfs[:0]])
    idf = np.array([index.idf(term) for term in terms]).repeat(counts)
    delta = np.array([query.delta(term) for term in terms]).repeat(counts)
    if isinstance(scorer, Bm25):  # each posting's share: its term's weight times delta
        norm = 1.0 - scorer.b + scorer.b * (index.doc_len[rows] / index.avg_doc_len)
        contribution = idf * tfs * (scorer.k1 + 1.0) / (tfs + scorer.k1 * norm) * delta
    else:
        contribution = tfs * idf * delta
    # in posting order: term after term for each document, from 0.0; with no postings,
    # bincount returns int64 zeros, so the cast keeps every score a float
    scores = np.bincount(rows, contribution, minlength=index.doc_count).astype(float, copy=False)
    return terms, counts, rows, contribution, scores


def _results(index: InvertedIndex, accumulated, hits: np.ndarray) -> list[RankedResult]:
    """The RankedResults of the document rows hits, in that order, from _accumulate's output."""
    terms, counts, rows, contribution, scores = accumulated
    (position := np.empty(index.doc_count, np.intp)).fill(-1)
    position[hits] = np.arange(len(hits))
    at = position[rows]
    kept = (at >= 0).nonzero()[0]
    term_of = np.arange(len(terms)).repeat(counts)[kept]
    matched = [()] * len(hits)
    for i, t, value in zip(at[kept].tolist(), term_of.tolist(), contribution[kept].tolist()):
        matched[i] += ((terms[t], value),)
    doc_ids = map(index.doc_ids.__getitem__, hits.tolist())
    return list(map(_result, zip(doc_ids, scores[hits].tolist(), matched)))


def score_document(
    index: InvertedIndex,
    doc_id: str,
    query: ExpandedQuery,
    scorer: ScorerKind = TfIdf(),
) -> RankedResult:
    """Score one document, listing each term's contribution in lexicographic order; this is
    retrieve's result for the document, whether or not retrieve would keep it."""
    if doc_id not in index.doc_store:
        raise UnknownDocument(doc_id)
    row = np.array([bisect_left(index.doc_ids, doc_id)])  # doc_ids is sorted in Python's order
    return _results(index, _accumulate(index, query, scorer, 0.0), row)[0]


def count_hits(index: InvertedIndex, query: ExpandedQuery, scorer: ScorerKind,
               threshold: float) -> tuple[int, int]:
    """len(retrieve(...)) of query.without_expansion() and of query, from one accumulation."""
    terms, counts, rows, contribution, scores = _accumulate(index, query, scorer, threshold)
    # seed deltas are 1.0 in both queries, and bincount adds in the seed-only query's order
    seed = np.array([term in query.seed_terms for term in terms], bool).repeat(counts)
    seed_scores = np.bincount(rows[seed], contribution[seed], minlength=index.doc_count)
    return int(np.count_nonzero(seed_scores > threshold)), int(np.count_nonzero(scores > threshold))


def retrieve(
    index: InvertedIndex,
    query: ExpandedQuery,
    scorer: ScorerKind = TfIdf(),
    threshold: float = 0.0,
    limit: int | None = None,
) -> list[RankedResult]:
    """Documents matching any query term, kept when score > threshold,
    sorted by score descending with doc_id breaking ties; only the documents
    returned get matched_terms."""
    if limit is not None and _integer("limit", limit) < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    accumulated = _accumulate(index, query, scorer, threshold)
    scores = accumulated[-1]
    hits = (scores > threshold).nonzero()[0]
    hits = hits[(-scores[hits]).argsort(kind="stable")][:limit]  # rows ascend: doc_id order
    return _results(index, accumulated, hits)


def format_results(results: list[RankedResult]) -> str:
    """One line per result: rank, doc_id, score, and term:contribution pairs."""
    lines = []
    for rank, result in enumerate(results, start=1):
        pairs = ",".join(f"{term}:{value:.6f}" for term, value in result.matched_terms)
        lines.append(f"{rank}\t{result.doc_id}\t{result.score:.6f}\t{pairs}")
    return "\n".join(lines)
