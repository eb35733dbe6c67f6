"""Acceptance suite: every criterion at its stated tolerance.

Each test prints through conftest's session summary as one PASS/FAIL line.
Expected values come from the independent oracles in oracle.py or from
frozen hand computations, never from the code paths under test.
"""

import io
import time

import numpy as np
import pytest

from eventsearch.embedding import (
    EmbeddingModel,
    TrainConfig,
    load_vectors,
    most_similar,
    save_vectors,
    sim,
    train,
)
from eventsearch.errors import DimensionMismatch, FormatError
from eventsearch.evaluation import recall_increase
from eventsearch.expansion import ExpandedQuery, StopwordList, expand_query
from eventsearch.index import build_index, load_index, save_index
from eventsearch.ranking import TfIdf, retrieve, score_document

from oracle import brute_force_retrieve, oracle_expand
from util import (
    DRIFT_CONFIG,
    cooccurrence_corpus,
    corpus_from_token_lists,
    drift_corpora,
    query_weights,
    random_docs,
    random_query,
)


def _random_cases(n_corpora=20, seed=101):
    """The shared corpus/query/threshold triples for criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    for _ in range(n_corpora):
        corpus = random_docs(rng, int(rng.integers(50, 201)))
        query = random_query(rng)
        threshold = float(rng.choice([0.0, 0.5, 1.5, 3.0]))
        yield corpus, query, threshold


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for corpus, query, threshold in _random_cases():
        index = build_index(corpus)
        got = retrieve(index, query, TfIdf(), threshold)
        expected = brute_force_retrieve(list(corpus.documents), query_weights(query), threshold)
        assert [r.doc_id for r in got] == [doc_id for doc_id, _, _ in expected]
        for result, (_, score, _) in zip(got, expected):
            assert abs(result.score - score) <= 1e-9
        checked += 1
    assert checked >= 20
    assert time.monotonic() - started < 10.0


def test_criterion_2_expansion_monotonicity():
    for corpus, query, threshold in _random_cases():
        index = build_index(corpus)
        seed_results = retrieve(index, query.without_expansion(), TfIdf(), threshold)
        full_results = retrieve(index, query, TfIdf(), threshold)
        seed_ids = {r.doc_id for r in seed_results}
        full_ids = {r.doc_id for r in full_results}
        assert seed_ids <= full_ids
        full_scores = {r.doc_id: r.score for r in full_results}
        for r in seed_results:
            assert full_scores[r.doc_id] >= r.score


def test_criterion_3_expansion_constraints():
    rng = np.random.default_rng(131)
    stopwords = StopwordList(["t00", "t01", "the"])
    for _ in range(25):
        vectors = {}
        for i in range(12):
            vec = rng.normal(size=5)
            vectors[f"t{i:02d}"] = vec / np.linalg.norm(vec)
        model = EmbeddingModel(list(vectors), np.array(list(vectors.values())))
        seeds = [f"t{i:02d}" for i in rng.choice(12, size=3, replace=False)]
        query = expand_query(seeds, model, stopwords, k=4, min_sim=0.6)

        per_seed, expected_weights = oracle_expand(vectors, query.seed_terms, stopwords, 4, 0.6)
        for candidates in per_seed.values():
            assert len(candidates) <= 4  # per-seed cap before merging
        assert set(query.expansion_terms) == set(expected_weights)
        for term, weight in query.expansion_terms.items():
            assert weight > 0.6
            assert term not in stopwords
            assert term not in query.seed_terms
            assert abs(query.delta(term) - expected_weights[term]) <= 1e-9
        for term in query.seed_terms:
            assert query.delta(term) == 1.0


def test_criterion_4_weighted_tfidf_hand_values():
    index = build_index(corpus_from_token_lists([["a", "a", "b"], ["b", "c"]]))
    seed_case = score_document(index, "d0000", ExpandedQuery(("a",), {}))
    assert abs(seed_case.score - 2.8109302162163288) <= 1e-6
    expansion_case = score_document(index, "d0000", ExpandedQuery(("zzz",), {"b": 0.8}))
    assert abs(expansion_case.score - 0.8) <= 1e-6


def test_criterion_5_embedding_sanity():
    started = time.monotonic()
    corpus = cooccurrence_corpus(n_docs=500)
    cfg = TrainConfig()  # default seed 42
    model = train(corpus, cfg)
    assert sim(model, "a", "b") > sim(model, "a", "c")
    retrained = train(corpus, cfg)
    assert model.terms == retrained.terms
    for term in model.terms:
        assert np.array_equal(model.vector(term), retrained.vector(term))
    assert time.monotonic() - started < 60.0


def test_criterion_6_seasonal_drift():
    month1, month2 = drift_corpora()
    cfg = TrainConfig(**DRIFT_CONFIG)
    model1 = train(month1, cfg)
    model2 = train(month2, cfg)
    top1_feb = most_similar(model1, "p", k=1, min_sim=-1.0)[0][0]
    top1_aug = most_similar(model2, "p", k=1, min_sim=-1.0)[0][0]
    assert top1_feb == "a"  # month 1 pairs the probe with a
    assert top1_aug == "b"  # month 2 pairs it with b
    assert top1_feb != top1_aug


def test_criterion_7_recall_increase_arithmetic():
    lists = (
        [["valentine", "heart", "gift"]] * 4
        + [["jewellery", "ring"]] * 9
        + [["plain", "stuff"]] * 2
    )
    index = build_index(corpus_from_token_lists(lists))
    no_stops = StopwordList([])

    expanding = EmbeddingModel(
        ["valentine", "jewellery", "stuff"],
        np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]]),
    )
    report = recall_increase(index, ["valentine"], expanding, no_stops, threshold=0.0)
    assert report.seed_hits == 4
    assert report.expanded_hits == 13
    assert report.increase_pct == 225.0

    lonely = EmbeddingModel(["valentine", "stuff"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    empty = recall_increase(index, ["valentine"], lonely, no_stops, threshold=0.0)
    assert empty.expansion_terms == ()
    assert empty.increase_pct == 0.0


def test_criterion_8_format_round_trips():
    # vectors: exact vocabulary, per-component error <= 1e-6
    rng = np.random.default_rng(137)
    vectors = {f"w{i:02d}": rng.normal(size=7) for i in range(30)}
    model = EmbeddingModel(list(vectors), np.array(list(vectors.values())))
    buffer = io.StringIO()
    save_vectors(model, buffer)
    loaded = load_vectors(io.StringIO(buffer.getvalue()))
    assert loaded.terms == model.terms
    for term, vec in vectors.items():
        assert np.max(np.abs(loaded.vector(term) - vec)) <= 1e-6

    # index: lossless round trip of counts, postings, df, and tokens
    corpus = random_docs(rng, 60)
    index = build_index(corpus)
    buffer = io.StringIO()
    save_index(index, buffer)
    reloaded = load_index(io.StringIO(buffer.getvalue()))
    assert reloaded.doc_count == index.doc_count
    assert reloaded.postings == index.postings
    assert reloaded.doc_freq == index.doc_freq
    assert reloaded.month_key == index.month_key
    for doc_id, doc in index.doc_store.items():
        assert reloaded.doc_store[doc_id].tokens == doc.tokens

    # malformed inputs: the documented errors, with line locations
    with pytest.raises(FormatError) as bad_header:
        load_vectors(io.StringIO("bad header line\n"))
    assert bad_header.value.line == 1
    with pytest.raises(DimensionMismatch, match="line 3"):
        load_vectors(io.StringIO("2 2\na 1.0 2.0\nb 1.0 2.0 3.0\n"))
    with pytest.raises(FormatError) as truncated:
        load_index(io.StringIO("INDEXv2 2018-02 5\nD d1 2018-02-01 0 a\n"))
    assert truncated.value.line == 3
