"""Query expansion: candidate selection, weight merging, and delta."""

import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eventsearch import embedding
from eventsearch.embedding import EmbeddingModel, sim
from eventsearch.errors import AllStopwords, EmptySeed, FormatError, NotInQuery, ZeroVector
from eventsearch.expansion import (
    ExpandedQuery,
    StopwordList,
    expand_query,
    format_expansion,
    seed_only_query,
)

from oracle import oracle_expand
from util import hand_cosine


def model_from(vectors, month_key=None):
    return EmbeddingModel(list(vectors), np.array(list(vectors.values()), dtype=float), month_key)


NO_STOPS = StopwordList([])

# jewelry along x; jewellery placed at cos 0.93 from it; the other seed
# terms point elsewhere so no second pair clears 0.6
JEWELRY_FIXTURE = {
    "jewelry": (1.0, 0.0),
    "jewellery": (0.93, math.sqrt(1 - 0.93**2)),
    "valentines": (0.0, 1.0),
    "day": (-1.0, 0.0),
}


class TestExpandQuery:
    def test_jewellery_093(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["valentines day jewelry"], model, NO_STOPS, k=4, min_sim=0.6)
        assert query.seed_terms == ("valentines", "day", "jewelry")
        assert set(query.expansion_terms) == {"jewellery"}
        assert query.expansion_terms["jewellery"] == pytest.approx(0.93, abs=1e-9)

    def test_all_seed_terms_oov(self):
        model = model_from({"x": (1.0, 0.0), "y": (0.9, 0.1)})
        query = expand_query(["unseen", "words"], model, NO_STOPS)
        assert query.expansion_terms == {}
        assert query.seed_terms == ("unseen", "words")

    def test_merge_takes_max_weight(self):
        # j sits at cos 0.7 from seed a and cos 0.9 from seed b
        phi_j = math.acos(0.7)
        phi_b = phi_j - math.acos(0.9)
        vectors = {
            "a": (1.0, 0.0),
            "j": (math.cos(phi_j), math.sin(phi_j)),
            "b": (math.cos(phi_b), math.sin(phi_b)),
        }
        model = model_from(vectors)
        query = expand_query(["a", "b"], model, NO_STOPS, k=4, min_sim=0.6)
        assert set(query.expansion_terms) == {"j"}
        assert query.expansion_terms["j"] == pytest.approx(0.9, abs=1e-9)
        expected = max(hand_cosine(vectors["j"], vectors["a"]), hand_cosine(vectors["j"], vectors["b"]))
        assert query.expansion_terms["j"] == pytest.approx(expected, abs=1e-12)

    def test_stop_seed_terms_kept_but_generate_nothing(self):
        stops = StopwordList(["to"])
        model = model_from(
            {"to": (1.0, 0.0), "near": (0.99, math.sqrt(1 - 0.99**2)), "school": (0.0, 1.0)}
        )
        query = expand_query(["back to school"], model, stops)
        assert "to" in query.seed_terms
        # 'near' is close to 'to' only; a stop seed proposes no candidates
        assert "near" not in query.expansion_terms

    def test_stopword_candidates_dropped(self):
        stops = StopwordList(["the"])
        model = model_from({"q": (1.0, 0.0), "the": (1.0, 0.0), "w": (0.8, 0.6)})
        query = expand_query(["q"], model, stops)
        assert set(query.expansion_terms) == {"w"}

    def test_empty_seed(self):
        model = model_from(JEWELRY_FIXTURE)
        with pytest.raises(EmptySeed):
            expand_query([], model, NO_STOPS)
        with pytest.raises(EmptySeed):
            expand_query(["...", "!!"], model, NO_STOPS)

    def test_all_stopwords(self):
        stops = StopwordList(["the", "of"])
        model = model_from(JEWELRY_FIXTURE)
        with pytest.raises(AllStopwords):
            expand_query(["the of"], model, stops)

    def test_seed_normalization_dedupes(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["Jewelry", "JEWELRY day"], model, NO_STOPS)
        assert query.seed_terms == ("jewelry", "day")

    @pytest.mark.parametrize("k", [0, 5, 2.0])
    def test_k_out_of_range(self, k):
        model = model_from(JEWELRY_FIXTURE)
        with pytest.raises(ValueError, match="k must be"):
            expand_query(["jewelry"], model, NO_STOPS, k=k)

    @pytest.mark.parametrize("min_sim", [0.0, 1.0, -0.2])
    def test_min_sim_out_of_range(self, min_sim):
        model = model_from(JEWELRY_FIXTURE)
        with pytest.raises(ValueError):
            expand_query(["jewelry"], model, NO_STOPS, min_sim=min_sim)

    def test_zero_row_is_never_a_candidate(self):
        model = model_from({**JEWELRY_FIXTURE, "blank": (0.0, 0.0)})
        query = expand_query(["valentines day jewelry"], model, NO_STOPS, k=4, min_sim=0.01)
        plain = expand_query(["valentines day jewelry"], model_from(JEWELRY_FIXTURE), NO_STOPS,
                             k=4, min_sim=0.01)
        assert query == plain

    def test_zero_seed_vector_raises(self):
        model = model_from({**JEWELRY_FIXTURE, "blank": (0.0, 0.0)})
        with pytest.raises(ZeroVector):
            expand_query(["blank jewelry"], model, NO_STOPS)
        # a stop word proposes no candidates, so its vector is never used
        query = expand_query(["blank jewelry"], model, StopwordList(["blank"]))
        assert set(query.expansion_terms) == {"jewellery"}

    def test_oov_warning_names_month_only_when_known(self, caplog):
        caplog.set_level(logging.WARNING, logger="eventsearch")
        expand_query(["zzz jewelry"], model_from(JEWELRY_FIXTURE), NO_STOPS)
        dated = model_from(JEWELRY_FIXTURE, month_key=(2018, 2))
        expand_query(["zzz jewelry"], dated, NO_STOPS)
        assert [r.getMessage() for r in caplog.records] == [
            "seed term 'zzz' not in vocabulary, skipping expansion for it",
            "seed term 'zzz' not in 2018-02 vocabulary, skipping expansion for it",
        ]

    def test_library_writes_nothing_to_stderr(self, capfd):
        # a fresh interpreter has no logging set up, unlike this test process
        script = (
            "import numpy as np\n"
            "from eventsearch import EmbeddingModel, expand_query\n"
            "model = EmbeddingModel(['a'], np.array([[1.0, 0.0]]))\n"
            "expand_query(['zzz a'], model)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", script], env=env, timeout=60).returncode == 0
        assert capfd.readouterr().err == ""


class TestDelta:
    def test_seed_term_is_one(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["valentines day jewelry"], model, NO_STOPS)
        assert query.delta("jewelry") == 1.0

    def test_stop_seed_term_is_one(self):
        query = ExpandedQuery(("to", "school"), {})
        assert query.delta("to") == 1.0

    def test_expansion_term_weight(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["valentines day jewelry"], model, NO_STOPS)
        assert query.delta("jewellery") == pytest.approx(0.93, abs=1e-9)

    def test_not_in_query(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["valentines day jewelry"], model, NO_STOPS)
        with pytest.raises(NotInQuery):
            query.delta("necklace")


def random_model(rng, n_terms=14, dim=4):
    vectors = {}
    for i in range(n_terms):
        vec = rng.normal(size=dim)
        vectors[f"t{i:02d}"] = vec / np.linalg.norm(vec)
    return vectors


class TestAgainstOracle:
    def test_randomized_models_match_oracle(self):
        rng = np.random.default_rng(37)
        stops = StopwordList(["t00", "t01"])
        for _ in range(30):
            vectors = random_model(rng)
            model = model_from(vectors)
            seeds = [f"t{i:02d}" for i in rng.choice(14, size=3, replace=False)]
            k = int(rng.integers(1, 5))
            query = expand_query(seeds, model, stops, k=k, min_sim=0.6)
            per_seed, expected = oracle_expand(vectors, query.seed_terms, stops, k, 0.6)
            assert set(query.expansion_terms) == set(expected)
            for term, weight in query.expansion_terms.items():
                assert weight == pytest.approx(expected[term], abs=1e-9)
                assert weight > 0.6
            for candidates in per_seed.values():
                assert len(candidates) <= k


def numbered_model(matrix):
    return EmbeddingModel([f"t{i}" for i in range(len(matrix))], matrix)


class TestInvariants:
    def test_weight_above_min_sim_on_a_cosine(self):
        """A 6 x 24 model whose t0-t5 cosine BLAS once gave two values that differ in the
        last bits; min_sim set to the lower one came back as t5's weight."""
        model = numbered_model(np.random.default_rng(1).standard_normal((6, 24)))
        min_sim = 0.012356812577105001
        query = expand_query(["t0"], model, NO_STOPS, k=4, min_sim=min_sim)
        assert query.expansion_terms
        assert all(weight > min_sim for weight in query.expansion_terms.values())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 40), st.data())
    def test_weights_above_min_sim_set_to_a_cosine(self, seed, n_terms, dim, data):
        model = numbered_model(np.random.default_rng(seed).standard_normal((n_terms, dim)))
        terms = model.terms
        seeds = data.draw(st.lists(st.sampled_from(terms), min_size=1, max_size=2, unique=True))
        other = data.draw(st.sampled_from([t for t in terms if t != seeds[0]]))
        min_sim = sim(model, seeds[0], other)
        assume(0.0 < min_sim < 1.0)
        query = expand_query(seeds, model, NO_STOPS, k=4, min_sim=min_sim)
        assert all(weight > min_sim for weight in query.expansion_terms.values())

    def test_one_scan_per_content_seed(self, monkeypatch):
        """expand_query takes every cosine from one scan per in-vocabulary content seed."""
        scanned = []
        kernel = embedding._cosines

        def counting(model, row):
            scanned.append(row)
            return kernel(model, row)

        monkeypatch.setattr(embedding, "_cosines", counting)
        model = numbered_model(np.random.default_rng(5).standard_normal((30, 3)))
        query = expand_query(["t3 t7 zzz t9 t4"], model, StopwordList(["t9"]), k=4, min_sim=0.2)
        assert len(query.expansion_terms) > 4  # candidates from more than one seed
        assert scanned == [3, 7, 4]

    def _random_setup(self, rng):
        vectors = random_model(rng, n_terms=16)
        model = model_from(vectors)
        seeds = [f"t{i:02d}" for i in rng.choice(16, size=2, replace=False)]
        return model, seeds

    def test_weights_in_open_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            model, seeds = self._random_setup(rng)
            query = expand_query(seeds, model, NO_STOPS, min_sim=0.5)
            for term, weight in query.expansion_terms.items():
                assert 0.5 < weight <= 1.0
                assert term not in query.seed_terms

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        model, seeds = self._random_setup(rng)
        a = expand_query(seeds, model, NO_STOPS)
        b = expand_query(seeds, model, NO_STOPS)
        assert a == b

    def test_raising_min_sim_never_adds(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            model, seeds = self._random_setup(rng)
            loose = expand_query(seeds, model, NO_STOPS, min_sim=0.3)
            tight = expand_query(seeds, model, NO_STOPS, min_sim=0.7)
            assert set(tight.expansion_terms) <= set(loose.expansion_terms)

    def test_raising_k_never_removes(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            model, seeds = self._random_setup(rng)
            small = expand_query(seeds, model, NO_STOPS, k=1, min_sim=0.3)
            large = expand_query(seeds, model, NO_STOPS, k=4, min_sim=0.3)
            assert set(small.expansion_terms) <= set(large.expansion_terms)


class TestSeedOnlyQuery:
    def test_no_expansion(self):
        query = seed_only_query(["Valentines Day"])
        assert query.seed_terms == ("valentines", "day")
        assert query.expansion_terms == {}

    def test_without_expansion_strips_map(self):
        model = model_from(JEWELRY_FIXTURE)
        query = expand_query(["valentines day jewelry"], model, NO_STOPS)
        bare = query.without_expansion()
        assert bare.seed_terms == query.seed_terms
        assert bare.expansion_terms == {}

    def test_empty_seed(self):
        with pytest.raises(EmptySeed):
            seed_only_query([""])

    @pytest.mark.parametrize(
        "k, min_sim", [(0, 0.6), (5, 0.6), (2.0, 0.6), (4, 0.0), (4, 1.0), (4, math.nan)]
    )
    def test_same_parameter_checks_as_expansion(self, k, min_sim):
        with pytest.raises(ValueError):
            seed_only_query(["valentines"], k=k, min_sim=min_sim)


class TestStopwordList:
    def test_built_in_list(self):
        stops = StopwordList.built_in()
        assert "the" in stops and "to" in stops
        assert "jewelry" not in stops and "day" not in stops
        assert 40 <= len(stops) <= 90
        for word in stops:
            assert word == word.lower()
            assert not any(ch.isspace() for ch in word)

    def test_built_in_list_is_parsed_once(self):
        assert StopwordList.built_in() is StopwordList.built_in()

    def test_from_file_reads_the_file_each_time(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("foo\n", encoding="utf-8")
        first = StopwordList.from_file(path)
        path.write_text("bar\n", encoding="utf-8")
        assert list(StopwordList.from_file(path)) == ["bar"] and list(first) == ["foo"]

    def test_from_file_with_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nfoo\n\nbar\n", encoding="utf-8")
        stops = StopwordList.from_file(path)
        assert "foo" in stops and "bar" in stops and len(stops) == 2

    def test_from_file_not_utf8(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_bytes(b"# comment\nfoo\n\x80bar\n")
        with pytest.raises(FormatError, match=re.escape(f"line 3: {path} is not UTF-8")) as excinfo:
            StopwordList.from_file(path)
        assert excinfo.value.line == 3

    def test_rejects_uppercase(self):
        with pytest.raises(ValueError):
            StopwordList(["Bad"])


class TestDumpFormat:
    def test_seed_first_then_weight_sorted(self):
        query = ExpandedQuery(
            ("valentines", "day", "jewelry"),
            {"jewellery": 0.93, "bookbag": 0.93, "hearts": 0.7},
        )
        lines = format_expansion(query).splitlines()
        assert lines[:3] == [
            "valentines\t1.000000\tseed",
            "day\t1.000000\tseed",
            "jewelry\t1.000000\tseed",
        ]
        assert lines[3:] == [
            "bookbag\t0.930000\texpansion",
            "jewellery\t0.930000\texpansion",
            "hearts\t0.700000\texpansion",
        ]
