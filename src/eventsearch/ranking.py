"""Embedding-weighted scoring and retrieval over the inverted index.

A document's score is the sum over query terms of a per-term weight
(tf * idf, or the BM25 saturated variant) multiplied by the query's delta
factor: 1 for seed terms, the expansion similarity weight otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


ScorerKind = Union[TfIdf, Bm25]


@dataclass(frozen=True)
class RankedResult:
    doc_id: str
    score: float
    matched_terms: tuple[tuple[str, float], ...]


def _contribution(
    scorer: ScorerKind, tf: int, idf: float, delta: float, doc_len: int, avgdl: float
) -> float:
    """One query term's share of a document's score: its weight times delta."""
    if isinstance(scorer, Bm25):
        norm = 1.0 - scorer.b + scorer.b * (doc_len / avgdl)
        return idf * tf * (scorer.k1 + 1.0) / (tf + scorer.k1 * norm) * delta
    return tf * idf * delta


def score_document(
    index: InvertedIndex,
    doc_id: str,
    query: ExpandedQuery,
    scorer: ScorerKind = TfIdf(),
) -> RankedResult:
    """Score one document, listing each term's contribution; the terms are
    summed in lexicographic order, bit-identical to retrieve's result."""
    if doc_id not in index.doc_store:
        raise UnknownDocument(doc_id)
    tokens = index.doc_store[doc_id].tokens
    doc_len, avgdl = index.doc_len[doc_id], index.avg_doc_len
    score = 0.0
    matched = []
    for term in sorted(query.all_terms()):
        tf = tokens.count(term)
        if tf == 0:
            continue
        contribution = _contribution(scorer, tf, index.idf(term), query.delta(term), doc_len, avgdl)
        matched.append((term, contribution))
        score += contribution
    return RankedResult(doc_id, score, tuple(matched))


def retrieve(
    index: InvertedIndex,
    query: ExpandedQuery,
    scorer: ScorerKind = TfIdf(),
    threshold: float = 0.0,
    limit: int | None = None,
) -> list[RankedResult]:
    """Documents matching any query term, kept when score > threshold,
    sorted by score descending with doc_id breaking ties.

    Scores accumulate term at a time over the postings, terms in the same
    order as score_document, in O(sum of the query terms' df)."""
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    doc_len, avgdl = index.doc_len, index.avg_doc_len
    scores: dict[str, float] = {}
    matched: dict[str, list[tuple[str, float]]] = {}
    for term in sorted(query.all_terms()):
        idf, delta = index.idf(term), query.delta(term)
        for doc_id, tf in index.postings.get(term, ()):
            contribution = _contribution(scorer, tf, idf, delta, doc_len[doc_id], avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution
            matched.setdefault(doc_id, []).append((term, contribution))
    results = [
        RankedResult(doc_id, score, tuple(matched[doc_id]))
        for doc_id, score in scores.items()
        if score > threshold
    ]
    results.sort(key=lambda r: (-r.score, r.doc_id))
    if limit is not None:
        results = results[:limit]
    return results


def format_results(results: list[RankedResult]) -> str:
    """One line per result: rank, doc_id, score, and term:contribution pairs."""
    lines = []
    for rank, result in enumerate(results, start=1):
        pairs = ",".join(f"{term}:{value:.6f}" for term, value in result.matched_terms)
        lines.append(f"{rank}\t{result.doc_id}\t{result.score:.6f}\t{pairs}")
    return "\n".join(lines)
