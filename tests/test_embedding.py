"""Embedding training, similarity queries, and the word2vec text format."""

import io
import math

import numpy as np
import pytest

from eventsearch.embedding import (
    EmbeddingModel,
    TrainConfig,
    cosine_similarity,
    load_vectors,
    most_similar,
    negative_sampling_distribution,
    save_vectors,
    sim,
    train,
)
from eventsearch.errors import (
    DimensionMismatch,
    EmptyVocabulary,
    FormatError,
    NoTrainingPairs,
    OutOfVocabulary,
    ZeroVector,
)

from util import (
    DRIFT_CONFIG,
    cooccurrence_corpus,
    corpus_from_token_lists,
    drift_corpora,
    hand_cosine,
)


def model_from(vectors, dim=2):
    return EmbeddingModel({t: np.array(v, dtype=float) for t, v in vectors.items()}, dim=dim)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity((3.0, 4.0), (3.0, 4.0)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_antiparallel(self):
        assert cosine_similarity((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            cosine_similarity((0.0, 0.0), (1.0, 2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert cosine_similarity(2 * a, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-9
            )

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = rng.normal(size=4) * 10.0 ** rng.integers(-3, 4)
            assert -1.0 <= cosine_similarity(a, a) <= 1.0


class TestSim:
    def test_identity_is_exactly_one(self):
        model = model_from({"valentine": (0.3, 0.7)})
        assert sim(model, "valentine", "valentine") == 1.0

    def test_out_of_vocabulary(self):
        model = model_from({"valentine": (1.0, 0.0)})
        with pytest.raises(OutOfVocabulary):
            sim(model, "valentine", "zzz-absent")

    def test_hand_built_093(self):
        # u along x, v placed so cos(u, v) = 0.93, the Table-2-style weight
        v = (0.93, math.sqrt(1 - 0.93**2))
        model = model_from({"jewelry": (1.0, 0.0), "jewellery": v})
        assert sim(model, "jewelry", "jewellery") == pytest.approx(0.93, abs=1e-9)
        assert sim(model, "jewelry", "jewellery") == pytest.approx(
            hand_cosine((1.0, 0.0), v), abs=1e-12
        )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(9)
        vectors = {f"w{i}": rng.normal(size=6) for i in range(12)}
        model = EmbeddingModel(vectors, dim=6)
        terms = list(vectors)
        for i in terms:
            for j in terms:
                assert abs(sim(model, i, j) - sim(model, j, i)) <= 1e-12


FIXTURE = {"q": (1.0, 0.0), "a": (1.0, 0.0), "b": (0.8, 0.6), "c": (0.0, 1.0)}


class TestMostSimilar:
    def test_threshold_and_order(self):
        model = model_from(FIXTURE)
        got = most_similar(model, "q", k=4, min_sim=0.6)
        assert [t for t, _ in got] == ["a", "b"]
        assert got[0][1] == pytest.approx(1.0, abs=1e-9)
        assert got[1][1] == pytest.approx(0.8, abs=1e-9)

    def test_high_threshold(self):
        model = model_from(FIXTURE)
        got = most_similar(model, "q", k=4, min_sim=0.99)
        assert [t for t, _ in got] == ["a"]

    def test_truncation(self):
        model = model_from(FIXTURE)
        got = most_similar(model, "q", k=1, min_sim=0.6)
        assert [t for t, _ in got] == ["a"]

    def test_ties_break_lexicographically(self):
        model = model_from({"q": (1.0, 0.0), "z": (2.0, 0.0), "m": (3.0, 0.0)})
        got = most_similar(model, "q", k=4, min_sim=0.5)
        assert [t for t, _ in got] == ["m", "z"]

    def test_never_returns_query_term(self):
        model = model_from(FIXTURE)
        for k in (1, 2, 4):
            assert "q" not in [t for t, _ in most_similar(model, "q", k=k, min_sim=-1.0)]

    def test_out_of_vocabulary(self):
        model = model_from(FIXTURE)
        with pytest.raises(OutOfVocabulary):
            most_similar(model, "nope", k=2, min_sim=0.6)

    def test_k_must_be_positive(self):
        model = model_from(FIXTURE)
        with pytest.raises(ValueError):
            most_similar(model, "q", k=0, min_sim=0.6)

    def test_nan_min_sim_rejected(self):
        model = model_from(FIXTURE)
        with pytest.raises(ValueError):
            most_similar(model, "q", k=2, min_sim=math.nan)

    def test_zero_row_is_nobodys_neighbor(self):
        model = model_from({**FIXTURE, "z": (0.0, 0.0)})
        for term in ("q", "a", "b", "c"):
            got = most_similar(model, term, k=4, min_sim=-1.0)
            assert got == most_similar(model_from(FIXTURE), term, k=4, min_sim=-1.0)

    def test_zero_query_vector_raises(self):
        model = model_from({**FIXTURE, "z": (0.0, 0.0)})
        with pytest.raises(ZeroVector):
            most_similar(model, "z", k=4, min_sim=-1.0)
        with pytest.raises(ZeroVector):
            most_similar(model_from({"z": (0.0, 0.0)}), "z", k=4, min_sim=-1.0)


class TestVectorFileFormat:
    def test_header_line(self):
        model = model_from({"a": (1.0, 2.0, 3.0), "b": (4.0, 5.0, 6.0)}, dim=3)
        out = io.StringIO()
        save_vectors(model, out)
        assert out.getvalue().splitlines()[0] == "2 3"

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        model = EmbeddingModel(vectors, dim=5)
        out = io.StringIO()
        save_vectors(model, out)
        loaded = load_vectors(io.StringIO(out.getvalue()))
        assert loaded.terms == model.terms
        assert loaded.dim == 5
        for term in vectors:
            assert np.max(np.abs(loaded.vector(term) - vectors[term])) <= 1e-6

    def test_round_trip_via_path(self, tmp_path):
        model = model_from({"x": (0.1, -2.5)}, dim=2)
        path = tmp_path / "m.vec"
        save_vectors(model, path)
        loaded = load_vectors(path)
        assert loaded.terms == ["x"]
        assert np.allclose(loaded.vector("x"), [0.1, -2.5], atol=1e-12)

    def test_wrong_component_count(self):
        text = "2 3\na 1.0 2.0 3.0\nb 1.0 2.0 3.0 4.0\n"
        with pytest.raises(DimensionMismatch, match="line 3"):
            load_vectors(io.StringIO(text))

    def test_malformed_header(self):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO("not a header\na 1.0\n"))
        assert excinfo.value.line == 1

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            load_vectors(io.StringIO("3 2\na 1.0 2.0\nb 3.0 4.0\n"))

    def test_non_numeric_component(self):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO("1 2\na 1.0 oops\n"))
        assert excinfo.value.line == 2

    def test_duplicate_word(self):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO("2 1\na 1.0\na 2.0\n"))
        assert excinfo.value.line == 3

    def test_empty_file(self):
        with pytest.raises(FormatError):
            load_vectors(io.StringIO(""))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("2 2\na nan 1.0\nb 1.0 2.0\n", 2),
            ("2 2\na 1.0 2.0\nb inf 2.0\n", 3),
            ("1 2\na 1.0 -inf\n", 2),
        ],
    )
    def test_non_finite_component(self, text, line):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO(text))
        assert excinfo.value.line == line

    def test_cut_inside_last_line(self):
        # the complete row is "b 1.0 2.25\n"; without its newline it is known to be cut
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO("2 2\na 1.0 2.0\nb 1.0 2.2"))
        assert excinfo.value.line == 3

    def test_failed_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "m.vec"
        save_vectors(model_from(FIXTURE), path)
        before = path.read_bytes()
        model = model_from(FIXTURE)
        model._vectors["b"] = None  # rows before "b" are written, then the write raises
        with pytest.raises(TypeError):
            save_vectors(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.vec"]


class TestTrain:
    def test_two_word_vocabulary(self):
        corpus = corpus_from_token_lists([["x", "y"]])
        cfg = TrainConfig(dim=8, min_count=1)
        model = train(corpus, cfg)
        assert sorted(model.terms) == ["x", "y"]
        assert model.dim == 8
        assert model.vector("x").shape == (8,)
        assert model.month_key == corpus.month_key
        assert model.trained_on_docs == 1

    def test_one_token_docs_have_no_pairs(self):
        corpus = corpus_from_token_lists([["x"], ["x"], ["x"]])
        with pytest.raises(NoTrainingPairs):
            train(corpus, TrainConfig(min_count=2))

    def test_empty_vocabulary(self):
        corpus = corpus_from_token_lists([["x", "y"]])
        with pytest.raises(EmptyVocabulary):
            train(corpus, TrainConfig(min_count=2))

    def test_min_count_filters_vocabulary(self):
        corpus = corpus_from_token_lists([["x", "y"], ["x", "y"], ["x", "z"]])
        model = train(corpus, TrainConfig(dim=4, min_count=2))
        assert sorted(model.terms) == ["x", "y"]

    def test_deterministic_repeat(self):
        corpus = cooccurrence_corpus(n_docs=60)
        cfg = TrainConfig(dim=12, epochs=2)
        first = train(corpus, cfg)
        second = train(corpus, cfg)
        assert first.terms == second.terms
        for term in first.terms:
            assert np.array_equal(first.vector(term), second.vector(term))

    def test_seed_changes_vectors(self):
        corpus = cooccurrence_corpus(n_docs=60)
        a = train(corpus, TrainConfig(dim=12, epochs=2, rng_seed=1))
        b = train(corpus, TrainConfig(dim=12, epochs=2, rng_seed=2))
        assert any(not np.array_equal(a.vector(t), b.vector(t)) for t in a.terms)

    def test_no_zero_vectors(self):
        corpus = cooccurrence_corpus(n_docs=60)
        model = train(corpus, TrainConfig(dim=12, epochs=2))
        for term in model.terms:
            assert np.linalg.norm(model.vector(term)) > 0.0

    def test_cooccurrence_beats_disjoint(self):
        model = train(cooccurrence_corpus())
        assert sim(model, "a", "b") > sim(model, "a", "c")

    def test_seasonal_drift(self):
        month1, month2 = drift_corpora()
        cfg = TrainConfig(**DRIFT_CONFIG)
        model1 = train(month1, cfg)
        model2 = train(month2, cfg)
        assert most_similar(model1, "p", k=1, min_sim=-1.0)[0][0] == "a"
        assert most_similar(model2, "p", k=1, min_sim=-1.0)[0][0] == "b"
        # relative order of the two partners flips between months
        assert sim(model1, "p", "a") > sim(model1, "p", "b")
        assert sim(model2, "p", "b") > sim(model2, "p", "a")


class TestNegativeSampling:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            counts = rng.integers(1, 500, size=rng.integers(1, 80))
            dist = negative_sampling_distribution(counts)
            assert abs(dist.sum() - 1.0) <= 1e-9
            assert np.all(dist > 0)

    def test_proportional_to_count_power(self):
        dist = negative_sampling_distribution(np.array([16.0, 1.0]))
        # 16^0.75 = 8, 1^0.75 = 1
        assert dist[0] == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert dist[1] == pytest.approx(1.0 / 9.0, abs=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"negatives": -1},
            {"epochs": 0},
            {"min_count": 0},
            {"lr_final": 0.0},
            {"lr_final": 0.5, "lr_initial": 0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
