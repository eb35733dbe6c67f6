"""Seasonal event merchandise retrieval.

Pipeline: ingest item records, partition them by sold month, train one
word-embedding model per month, expand curated event seed keywords with
embedding neighbors, and rank items with an embedding-weighted tf-idf
(or BM25) score over an inverted index.
"""

import logging

from .corpus import (
    ItemDocument,
    MonthlyCorpus,
    ingest,
    segment_by_month,
    tokenize,
)
from .embedding import (
    EmbeddingModel,
    TrainConfig,
    load_vectors,
    most_similar,
    save_vectors,
    sim,
    train,
)
from .evaluation import RecallReport, recall_increase
from .expansion import ExpandedQuery, StopwordList, expand_query, seed_only_query
from .index import InvertedIndex, build_index, load_index, save_index
from .ranking import Bm25, RankedResult, TfIdf, retrieve, score_document

# the library stays silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Bm25",
    "EmbeddingModel",
    "ExpandedQuery",
    "InvertedIndex",
    "ItemDocument",
    "MonthlyCorpus",
    "RankedResult",
    "RecallReport",
    "StopwordList",
    "TfIdf",
    "TrainConfig",
    "build_index",
    "expand_query",
    "ingest",
    "load_index",
    "load_vectors",
    "most_similar",
    "recall_increase",
    "retrieve",
    "save_index",
    "save_vectors",
    "score_document",
    "seed_only_query",
    "segment_by_month",
    "sim",
    "tokenize",
    "train",
]
