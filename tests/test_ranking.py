"""Scoring and retrieval against the brute-force oracle and hand values."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventsearch import ranking
from eventsearch.corpus import ItemDocument, MonthlyCorpus
from eventsearch.errors import UnknownDocument
from eventsearch.expansion import ExpandedQuery
from eventsearch.index import build_index
from eventsearch.ranking import (Bm25, RankedResult, TfIdf, count_hits, format_results, retrieve,
                                score_document)

from oracle import brute_force_retrieve
from util import corpus_from_token_lists, query_weights, random_docs, random_query


@pytest.fixture
def small_index():
    # d0000: [a, a, b], d0001: [b, c]; df(a)=1, df(b)=2, N=2
    return build_index(corpus_from_token_lists([["a", "a", "b"], ["b", "c"]]))


class TestScoreDocument:
    def test_seed_term_hand_value(self, small_index):
        query = ExpandedQuery(("a",), {})
        result = score_document(small_index, "d0000", query)
        # 2 * (ln(3/2) + 1) * 1
        assert result.score == pytest.approx(2.8109302162163288, abs=1e-6)
        assert result.matched_terms == (("a", pytest.approx(2.8109302162163288, abs=1e-6)),)

    def test_expansion_term_hand_value(self, small_index):
        query = ExpandedQuery(("zzz",), {"b": 0.8})
        result = score_document(small_index, "d0000", query)
        # 1 * (ln(3/3) + 1) * 0.8
        assert result.score == pytest.approx(0.8, abs=1e-6)

    def test_no_shared_terms(self, small_index):
        query = ExpandedQuery(("zzz",), {})
        result = score_document(small_index, "d0001", query)
        assert result.score == 0.0 and type(result.score) is float
        assert result.matched_terms == ()

    def test_unknown_document(self, small_index):
        with pytest.raises(UnknownDocument):
            score_document(small_index, "d9999", ExpandedQuery(("a",), {}))

    def test_rows_found_in_python_string_order(self):
        # numpy compares "a\x00" equal to "a", so a numpy search would score "a" in its place
        docs = tuple(ItemDocument.create(doc_id, date(2018, 2, 1), "", title)
                     for doc_id, title in (("b", "y"), ("a\x00", "x x y"), ("a", "x")))
        index = build_index(MonthlyCorpus((2018, 2), docs))
        query = ExpandedQuery(("x",), {"y": 0.7})
        results = retrieve(index, query)
        assert len({result.score for result in results}) == 3  # a wrong row shows
        assert [score_document(index, result.doc_id, query) for result in results] == results

    def test_score_is_sum_of_contributions(self, small_index):
        query = ExpandedQuery(("a", "b"), {"c": 0.7})
        result = score_document(small_index, "d0001", query)
        assert result.score == pytest.approx(
            sum(c for _, c in result.matched_terms), abs=1e-9
        )

    def test_duplicate_seed_mentions_count_once(self, small_index):
        once = score_document(small_index, "d0000", ExpandedQuery(("a",), {}))
        twice = score_document(small_index, "d0000", ExpandedQuery(("a", "a"), {}))
        assert once.score == twice.score


class TestDeltaScaling:
    def test_expansion_weight_scales_linearly(self, small_index):
        rng = np.random.default_rng(59)
        for _ in range(50):
            weight = float(rng.uniform(0.61, 1.0))
            scale = float(rng.uniform(0.05, 1.0))
            base = score_document(small_index, "d0000", ExpandedQuery(("zzz",), {"b": weight}))
            scaled = score_document(
                small_index, "d0000", ExpandedQuery(("zzz",), {"b": weight * scale})
            )
            assert scaled.score == pytest.approx(base.score * scale, rel=1e-12)

    def test_seed_only_reduces_to_plain_tfidf(self, small_index):
        query = ExpandedQuery(("a", "b"), {})
        result = score_document(small_index, "d0000", query)
        plain = 2 * small_index.idf("a") + 1 * small_index.idf("b")
        assert result.score == pytest.approx(plain, abs=1e-12)


class TestBm25:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Bm25(k1=0.0)
        with pytest.raises(ValueError):
            Bm25(b=1.5)
        with pytest.raises(ValueError):
            Bm25(k1=math.nan)
        with pytest.raises(ValueError):
            Bm25(k1=math.inf)

    def test_hand_value(self, small_index):
        # d0000 has |d| = 3, avgdl = 2.5; tf(a) = 2, idf(a) = ln(3/2)+1
        k1, b = 1.2, 0.75
        idf = math.log(3 / 2) + 1
        norm = 1 - b + b * (3 / 2.5)
        expected = idf * 2 * (k1 + 1) / (2 + k1 * norm)
        result = score_document(small_index, "d0000", ExpandedQuery(("a",), {}), Bm25(k1, b))
        assert result.score == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_tf_and_bounded(self):
        scorer = Bm25()
        lists = [["x"] * n + ["pad"] for n in range(1, 9)]
        index = build_index(corpus_from_token_lists(lists))
        query = ExpandedQuery(("x",), {})
        scores = [
            score_document(index, f"d{i:04d}", query, scorer).score for i in range(len(lists))
        ]
        assert all(a < b for a, b in zip(scores, scores[1:]))
        bound = index.idf("x") * (scorer.k1 + 1)
        assert all(s <= bound for s in scores)

    def test_delta_multiplies_whole_weight(self, small_index):
        scorer = Bm25()
        full = score_document(small_index, "d0000", ExpandedQuery(("b",), {}), scorer)
        weighted = score_document(small_index, "d0000", ExpandedQuery(("zzz",), {"b": 0.4}), scorer)
        assert weighted.score == pytest.approx(full.score * 0.4, rel=1e-12)


class TestRetrieve:
    def test_threshold_zero_returns_all_candidates(self, small_index):
        query = ExpandedQuery(("b",), {})
        results = retrieve(small_index, query, threshold=0.0)
        assert {r.doc_id for r in results} == {"d0000", "d0001"}
        assert all(r.score > 0 for r in results)

    def test_threshold_above_max(self, small_index):
        query = ExpandedQuery(("a",), {})
        assert retrieve(small_index, query, threshold=100.0) == []

    def test_limit(self, small_index):
        query = ExpandedQuery(("b",), {})
        assert len(retrieve(small_index, query, limit=1)) == 1

    def test_order_score_desc_then_doc_id(self):
        # two docs with identical token bags tie exactly; doc_id breaks it
        index = build_index(corpus_from_token_lists([["x", "y"], ["x", "y"], ["x", "x"]]))
        results = retrieve(index, ExpandedQuery(("x",), {}))
        assert [r.doc_id for r in results] == ["d0002", "d0000", "d0001"]

    def test_ties_follow_python_string_order(self):
        # numpy compares "a\x00" equal to "a"; Python, and retrieve, put it after
        ids = ["\u00e9", "a\x00", "b", "a", "\u4e00"]
        docs = tuple(ItemDocument.create(i, date(2018, 2, 1), "", "x y") for i in ids)
        index = build_index(MonthlyCorpus((2018, 2), docs))
        for scorer in (TfIdf(), Bm25()):
            results = retrieve(index, ExpandedQuery(("x",), {"y": 0.7}), scorer)
            assert [r.doc_id for r in results] == sorted(ids)
            assert retrieve(index, ExpandedQuery(("x",), {"y": 0.7}), scorer, limit=2) == results[:2]

    def test_negative_threshold_rejected(self, small_index):
        with pytest.raises(ValueError):
            retrieve(small_index, ExpandedQuery(("a",), {}), threshold=-0.1)

    def test_nan_threshold_rejected(self, small_index):
        with pytest.raises(ValueError):
            retrieve(small_index, ExpandedQuery(("a",), {}), threshold=math.nan)

    def test_limit_below_one_rejected(self, small_index):
        for limit in (0, -1):
            with pytest.raises(ValueError):
                retrieve(small_index, ExpandedQuery(("a",), {}), limit=limit)

    def test_limit_checked_before_accumulating(self, small_index, monkeypatch):
        def accumulate(*args):
            raise AssertionError("a bad limit paid for an accumulation")

        monkeypatch.setattr(ranking, "_accumulate", accumulate)
        for limit in (0, -1, 2.0):
            with pytest.raises(ValueError, match="limit"):
                retrieve(small_index, ExpandedQuery(("a",), {}), limit=limit)

    def test_query_matching_no_posting(self, small_index):
        for scorer in (TfIdf(), Bm25()):
            assert retrieve(small_index, ExpandedQuery(("zzz",), {"yyy": 0.9}), scorer) == []

    def test_empty_index(self):
        index = build_index(MonthlyCorpus((2018, 2), ()))
        for scorer in (TfIdf(), Bm25()):
            assert retrieve(index, ExpandedQuery(("a",), {"b": 0.9}), scorer) == []


_POOL = ["a", "b", "c", "d", "e"]


@st.composite
def _queries(draw):
    seeds = draw(st.lists(st.sampled_from(_POOL + ["zzz"]), min_size=1, max_size=3, unique=True))
    others = st.sampled_from([t for t in _POOL + ["yyy"] if t not in seeds])
    weights = st.floats(0.6, 1.0, exclude_min=True)
    return ExpandedQuery(tuple(seeds), draw(st.dictionaries(others, weights, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_POOL), max_size=8), max_size=12),
    _queries(),
    st.one_of(st.just(TfIdf()), st.builds(Bm25, st.floats(0.1, 3.0), st.floats(0.0, 1.0))),
    st.sampled_from([0.0, 0.5, 2.0, 4.0]),
    st.sampled_from([None, 1, 2, 3, 4, 5]),
)
def test_retrieve_equals_score_document(token_lists, query, scorer, threshold, limit):
    corpus = corpus_from_token_lists(token_lists)
    index = build_index(corpus)
    results = retrieve(index, query, scorer, threshold)
    # bit for bit: score_document shares retrieve's code, so only the oracle sees a change
    # in summation order
    bm25 = (scorer.k1, scorer.b) if isinstance(scorer, Bm25) else None
    expected = brute_force_retrieve(list(corpus.documents), query_weights(query), threshold,
                                    bm25=bm25)
    assert [(r.doc_id, r.score, list(r.matched_terms)) for r in results] == expected
    seed_results = retrieve(index, query.without_expansion(), scorer, threshold)
    assert count_hits(index, query, scorer, threshold) == (len(seed_results), len(results))
    returned = {r.doc_id: r for r in results}
    for doc_id in index.doc_store:
        scored = score_document(index, doc_id, query, scorer)
        assert type(scored.score) is float  # also for a document no query term matches
        if doc_id in returned:
            assert returned[doc_id] == scored
        else:
            assert scored.score <= threshold
    assert retrieve(index, query, scorer, threshold, limit) == results[:limit]
    if results:  # the threshold is strict: a document scoring exactly on it is cut
        cut = results[-1].score
        assert retrieve(index, query, scorer, cut) == [r for r in results if r.score > cut]



@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_POOL), max_size=8), max_size=12),
    st.lists(st.sampled_from(_POOL + ["zzz"]), min_size=1, max_size=3, unique=True),
    st.dictionaries(st.sampled_from(_POOL + ["yyy"]), st.floats(0.6, 1.0, exclude_min=True),
                    max_size=3),
    st.one_of(st.just(TfIdf()), st.builds(Bm25, st.floats(0.1, 3.0), st.floats(0.0, 1.0))),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
)
def test_count_hits_equals_both_retrieves(token_lists, seeds, expansion, scorer, threshold):
    # an expansion term may also be a seed term, which counts with delta 1.0 in both queries
    index = build_index(corpus_from_token_lists(token_lists))
    query = ExpandedQuery(tuple(seeds), expansion)
    expected = tuple(len(retrieve(index, q, scorer, threshold))
                     for q in (query.without_expansion(), query))
    assert count_hits(index, query, scorer, threshold) == expected


def _reference_results(index, accumulated, hits):
    """(doc_id, score.hex(), matched_terms) of the document rows hits, built one posting at a
    time: every posting, in term order, appends (term, contribution) to its document's list
    when that document is a hit."""
    terms, counts, rows, contribution, scores = accumulated
    where = {row: i for i, row in enumerate(hits)}
    matched = [[] for _ in hits]
    term_of = [term for term, count in zip(terms, counts) for _ in range(count)]
    for term, row, value in zip(term_of, rows.tolist(), contribution.tolist()):
        if row in where:
            matched[where[row]].append((term, value))
    return [(index.doc_ids[row], float(scores[row]).hex(), tuple(pairs))
            for row, pairs in zip(hits, matched)]


def _as_compared(results):
    assert all(type(r) is RankedResult for r in results)
    return [(r.doc_id, r.score.hex(), r.matched_terms) for r in results]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_POOL), max_size=8), max_size=12),
    _queries(),
    st.one_of(st.just(TfIdf()), st.builds(Bm25, st.floats(0.1, 3.0), st.floats(0.0, 1.0))),
    st.sampled_from([0.0, 0.5, 2.0, 4.0]),
    st.sampled_from([None, 1, 2, 3, 4, 5]),
)
def test_results_equal_per_posting_reference(token_lists, query, scorer, threshold, limit):
    index = build_index(corpus_from_token_lists(token_lists))
    accumulated = ranking._accumulate(index, query, scorer, threshold)
    scores = accumulated[-1]
    hits = [row for row in range(index.doc_count) if scores[row] > threshold]
    hits.sort(key=lambda row: (-scores[row], index.doc_ids[row]))
    expected = _reference_results(index, accumulated, hits[:limit])
    assert _as_compared(retrieve(index, query, scorer, threshold, limit)) == expected
    everything = ranking._accumulate(index, query, scorer, 0.0)
    for row, doc_id in enumerate(index.doc_ids):
        scored = _as_compared([score_document(index, doc_id, query, scorer)])
        assert scored == _reference_results(index, everything, [row])


class TestRankedResult:
    def test_type_contract(self, small_index):
        result = score_document(small_index, "d0000", ExpandedQuery(("a",), {"b": 0.8}))
        assert RankedResult._fields == ("doc_id", "score", "matched_terms")
        for name in ("score", "extra"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0.0)
        assert hash(result) == hash(("d0000", result.score, result.matched_terms))
        assert type(result.score) is float
        assert result == RankedResult._make((result.doc_id, result.score, result.matched_terms))
        assert result == tuple(result)


class TestOracleEquivalence:
    def _check(self, corpus, query, scorer, threshold, bm25=None):
        index = build_index(corpus)
        got = retrieve(index, query, scorer, threshold)
        expected = brute_force_retrieve(
            list(corpus.documents), query_weights(query), threshold, bm25=bm25
        )
        assert [r.doc_id for r in got] == [doc_id for doc_id, _, _ in expected]
        for result, (_, score, matched) in zip(got, expected):
            assert result.score == pytest.approx(score, abs=1e-9)
            assert [t for t, _ in result.matched_terms] == [t for t, _ in matched]
            for (_, a), (_, b) in zip(result.matched_terms, matched):
                assert a == pytest.approx(b, abs=1e-9)

    def test_tfidf_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            corpus = random_docs(rng, int(rng.integers(20, 120)))
            query = random_query(rng)
            threshold = float(rng.choice([0.0, 1.0, 3.0]))
            self._check(corpus, query, TfIdf(), threshold)

    def test_bm25_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            corpus = random_docs(rng, int(rng.integers(20, 100)))
            query = random_query(rng)
            self._check(corpus, query, Bm25(), 0.0, bm25=(1.2, 0.75))


class TestExpansionMonotonicity:
    def test_expanded_superset_and_scores_never_decrease(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            corpus = random_docs(rng, int(rng.integers(20, 120)))
            index = build_index(corpus)
            query = random_query(rng)
            threshold = float(rng.choice([0.0, 1.0, 2.5]))
            seed_results = retrieve(index, query.without_expansion(), threshold=threshold)
            full_results = retrieve(index, query, threshold=threshold)
            assert {r.doc_id for r in seed_results} <= {r.doc_id for r in full_results}
            full_by_id = {r.doc_id: r.score for r in full_results}
            for r in seed_results:
                assert full_by_id[r.doc_id] >= r.score


class TestFormatResults:
    def test_layout(self, small_index):
        results = retrieve(small_index, ExpandedQuery(("a",), {"b": 0.8}))
        text = format_results(results)
        lines = text.splitlines()
        assert lines[0].startswith("1\td0000\t")
        rank, doc_id, score, pairs = lines[0].split("\t")
        assert score == f"{results[0].score:.6f}"
        assert pairs == ",".join(f"{t}:{c:.6f}" for t, c in results[0].matched_terms)
