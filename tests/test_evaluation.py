"""Recall-increase arithmetic and report formatting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eventsearch.embedding import EmbeddingModel
from eventsearch.errors import UndefinedBaseline
from eventsearch.evaluation import format_report, recall_increase
from eventsearch.expansion import StopwordList, expand_query
from eventsearch.index import build_index
from eventsearch.ranking import Bm25, TfIdf, retrieve

from util import corpus_from_token_lists, random_docs

NO_STOPS = StopwordList([])


def model_from(vectors):
    return EmbeddingModel(list(vectors), np.array(list(vectors.values()), dtype=float))


@pytest.fixture
def scenario_index():
    """4 docs match the seed, 9 match only the expansion word, 2 match neither."""
    lists = (
        [["valentine", "heart", "gift"]] * 4
        + [["jewellery", "ring"]] * 9
        + [["plain", "stuff"]] * 2
    )
    return build_index(corpus_from_token_lists(lists))


EXPANDING_MODEL = {"valentine": (1.0, 0.0), "jewellery": (0.8, 0.6), "stuff": (0.0, 1.0)}
LONELY_MODEL = {"valentine": (1.0, 0.0), "stuff": (0.0, 1.0)}


class TestRecallIncrease:
    def test_hand_built_225_percent(self, scenario_index):
        model = model_from(EXPANDING_MODEL)
        report = recall_increase(scenario_index, ["valentine"], model, NO_STOPS, threshold=0.0)
        assert report.seed_hits == 4
        assert report.expanded_hits == 13
        assert report.increase_pct == 225.0
        assert report.expansion_terms[0][0] == "jewellery"

    def test_empty_expansion_is_zero(self, scenario_index):
        model = model_from(LONELY_MODEL)
        report = recall_increase(scenario_index, ["valentine"], model, NO_STOPS)
        assert report.expansion_terms == ()
        assert report.seed_hits == report.expanded_hits == 4
        assert report.increase_pct == 0.0

    def test_seed_matching_nothing(self, scenario_index):
        model = model_from({"unicorn": (1.0, 0.0)})
        with pytest.raises(UndefinedBaseline):
            recall_increase(scenario_index, ["unicorn"], model, NO_STOPS)

    def test_report_is_pure(self, scenario_index):
        model = model_from(EXPANDING_MODEL)
        first = recall_increase(scenario_index, ["valentine"], model, NO_STOPS)
        second = recall_increase(scenario_index, ["valentine"], model, NO_STOPS)
        assert first == second

    def test_scorer_and_threshold_travel_into_report(self, scenario_index):
        model = model_from(EXPANDING_MODEL)
        scorer = Bm25(k1=1.4, b=0.5)
        report = recall_increase(
            scenario_index, ["valentine"], model, NO_STOPS, threshold=0.25, scorer=scorer
        )
        assert report.scorer == scorer
        assert report.threshold == 0.25
        assert report.month_key == scenario_index.month_key

    def test_increase_never_negative_on_random_corpora(self):
        rng = np.random.default_rng(73)
        pool = [f"w{i:02d}" for i in range(20)]
        checked = 0
        for _ in range(25):
            corpus = random_docs(rng, int(rng.integers(20, 80)), pool=pool)
            vectors = {}
            for w in pool:
                vec = rng.normal(size=4)
                vectors[w] = vec / np.linalg.norm(vec)
            model = EmbeddingModel(list(vectors), np.array(list(vectors.values())))
            seed = [str(rng.choice(pool))]
            index = build_index(corpus)
            try:
                report = recall_increase(index, seed, model, NO_STOPS)
            except UndefinedBaseline:
                continue
            checked += 1
            assert report.increase_pct >= 0.0
            assert report.expanded_hits >= report.seed_hits
        assert checked > 10


_POOL = ["a", "b", "c", "d", "e", "f"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_POOL), max_size=8), max_size=12),
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=5, unique=True),
    st.data(),
    st.lists(st.sampled_from(_POOL), min_size=1, max_size=2, unique=True),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.one_of(st.just(TfIdf()), st.builds(Bm25, st.floats(0.1, 3.0), st.floats(0.0, 1.0))),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
)
def test_hits_are_the_lengths_of_retrieve(token_lists, terms, data, seed, min_sim, scorer,
                                          threshold):
    """retrieve is the reference for the counts recall_increase reports."""
    matrix = data.draw(arrays(np.float64, (len(terms), 3), elements=st.integers(-3, 3)))
    assume(np.all(np.any(matrix != 0, axis=1)))
    model = EmbeddingModel(terms, matrix)
    index = build_index(corpus_from_token_lists(token_lists))
    query = expand_query(seed, model, NO_STOPS, min_sim=min_sim)
    seed_hits = len(retrieve(index, query.without_expansion(), scorer, threshold))
    expanded_hits = len(retrieve(index, query, scorer, threshold))
    try:
        report = recall_increase(index, seed, model, NO_STOPS, min_sim=min_sim,
                                 threshold=threshold, scorer=scorer)
    except UndefinedBaseline:
        assert seed_hits == 0
    else:
        assert (report.seed_hits, report.expanded_hits) == (seed_hits, expanded_hits)


class TestFormatReport:
    def test_summary_line(self, scenario_index):
        model = model_from(EXPANDING_MODEL)
        report = recall_increase(scenario_index, ["valentine"], model, NO_STOPS)
        lines = format_report(report).splitlines()
        assert lines[-1] == "seed_hits=4 expanded_hits=13 increase=225.0%"
        assert "month=2018-02" in lines
        assert "seed_terms=valentine" in lines
        assert "expansion_terms=jewellery:0.800000" in lines
        assert "scorer=tfidf" in lines
        assert "seed_hits=4" in lines
        assert "expanded_hits=13" in lines
        assert "increase_pct=225.0" in lines

    def test_bm25_scorer_line(self, scenario_index):
        model = model_from(EXPANDING_MODEL)
        report = recall_increase(
            scenario_index, ["valentine"], model, NO_STOPS, scorer=Bm25()
        )
        assert "scorer=bm25(k1=1.2,b=0.75)" in format_report(report).splitlines()
