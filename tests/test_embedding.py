"""Embedding training, similarity queries, and the word2vec text format."""

import codecs
import hashlib
import io
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eventsearch import embedding
from eventsearch.corpus import ingest, segment_by_month
from eventsearch.embedding import (
    BATCH_PAIRS,
    BLOCK_ROWS,
    EmbeddingModel,
    TrainConfig,
    _NoiseTable,
    _pairs,
    _ScatterPlan,
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
from eventsearch.expansion import StopwordList, expand_query
from eventsearch.index import build_index
from eventsearch.ranking import retrieve

from util import (
    DRIFT_CONFIG,
    Unseekable,
    cooccurrence_corpus,
    corpus_from_token_lists,
    drift_corpora,
    hand_cosine,
)


def model_from(vectors):
    return EmbeddingModel(list(vectors), np.array(list(vectors.values()), dtype=float))


class TestEmbeddingModel:
    def test_dim_comes_from_the_matrix(self):
        model = EmbeddingModel(["a", "b"], np.arange(6).reshape(2, 3))
        assert (model.dim, model.terms, len(model)) == (3, ["a", "b"], 2)
        assert model.vector("b").tolist() == [3.0, 4.0, 5.0]
        assert model.vector("b").dtype == np.float64

    @pytest.mark.parametrize("matrix", [np.ones(2), np.ones((2, 2, 1)), np.float64(1.0)])
    def test_matrix_not_2d(self, matrix):
        with pytest.raises(DimensionMismatch) as excinfo:
            EmbeddingModel(["a", "b"], matrix)
        assert excinfo.value.line is None

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_wrong_row_count(self, rows):
        with pytest.raises(DimensionMismatch) as excinfo:
            EmbeddingModel(["a", "b"], np.ones((rows, 2)))
        assert excinfo.value.line is None

    @pytest.mark.parametrize("terms", [[], ["a"]])
    def test_zero_columns(self, terms):
        with pytest.raises(ValueError, match="dim must be positive"):
            EmbeddingModel(terms, np.ones((len(terms), 0)))

    def test_duplicate_terms(self):
        with pytest.raises(ValueError, match="duplicate term 'a'"):
            EmbeddingModel(["a", "b", "a"], np.ones((3, 2)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_component(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingModel(["a", "b"], [[1.0, 2.0], [3.0, value]])

    @pytest.mark.parametrize("row", [[1.7976931348623157e308, 0.0], [1e200, 1e200], [0.0, 1e155]])
    def test_row_whose_norm_overflows(self, row):
        # np.linalg.norm squares the components: these norms would read inf, and sim() 1.0
        with pytest.raises(ValueError, match="norm that overflows"):
            EmbeddingModel(["a", "b"], [[1.0, 2.0], row])

    def test_vector_out_of_vocabulary(self):
        with pytest.raises(OutOfVocabulary):
            model_from({"a": (1.0, 0.0)}).vector("zzz-absent")

    def test_empty_model_keeps_its_dim(self):
        model = EmbeddingModel([], np.empty((0, 7)))
        assert (model.dim, model.terms, len(model)) == (7, [], 0)
        assert "a" not in model
        assert saved(model) == "0 7\n"
        assert load_vectors(io.StringIO(saved(model))).dim == 7


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
        model = model_from(vectors)
        terms = list(vectors)
        for i in terms:
            for j in terms:
                assert sim(model, i, j) == sim(model, j, i)

    def test_matches_cosine_of_the_rows(self):
        rng = np.random.default_rng(10)
        vectors = {f"w{i}": rng.normal(size=5) * 10.0 ** rng.integers(-3, 4) for i in range(12)}
        model = model_from(vectors)
        for i in vectors:
            for j in vectors:
                expected = 1.0 if i == j else hand_cosine(vectors[i], vectors[j])
                assert sim(model, i, j) == pytest.approx(expected, abs=1e-12)
                assert -1.0 <= sim(model, i, j) <= 1.0

    def test_zero_row(self):
        model = model_from({"z": (0.0, 0.0), "a": (1.0, 0.0)})
        assert sim(model, "z", "z") == 1.0
        for i, j in (("z", "a"), ("a", "z")):
            with pytest.raises(ZeroVector):
                sim(model, i, j)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 40), st.integers(-3, 3))
    @example(seed=1, n_terms=6, dim=24, scale=0)  # a pair BLAS scored two ways
    def test_one_value_per_pair(self, seed, n_terms, dim, scale):
        """sim(a, b), sim(b, a) and b's score in a's most_similar scan are one number."""
        matrix = np.random.default_rng(seed).standard_normal((n_terms, dim)) * 10.0**scale
        model = EmbeddingModel([f"t{i}" for i in range(n_terms)], matrix)
        for a in model.terms:
            scan = dict(most_similar(model, a, k=n_terms, min_sim=-math.inf))
            assert len(scan) == n_terms - 1
            for b, score in scan.items():
                assert sim(model, a, b) == sim(model, b, a) == score


class TestCosines:
    def test_zero_row_is_nan(self):
        model = model_from({"z": (0.0, 0.0), "a": (1.0, 0.0), "b": (0.6, 0.8)})
        assert np.isnan(embedding._cosines(model, 0)).all()
        for row in (1, 2):
            scan = embedding._cosines(model, row)
            assert np.isnan(scan[0]) and not np.isnan(scan[1:]).any()

    def test_parallel_rows_clipped_exactly(self):
        v = np.array([0.7, 0.3, 0.0])
        model = model_from({"a": v, "b": 3 * v, "c": -7 * v})
        # the division alone overshoots [-1, 1] for these rows
        dots = np.einsum("ij,j->i", model._matrix, model._matrix[0])
        raw = dots / (model._norms * model._norms[0])
        assert raw[1] > 1.0 and raw[2] < -1.0
        assert embedding._cosines(model, 0).tolist() == [1.0, 1.0, -1.0]


FIXTURE = {"q": (1.0, 0.0), "a": (1.0, 0.0), "b": (0.8, 0.6), "c": (0.0, 1.0)}


@st.composite
def small_models(draw):
    """term -> vector maps of small integer rows, with zero and parallel rows mixed in."""
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):
        rows.append([0] * dim)
    for _ in range(draw(st.integers(0, 2))):
        scale = draw(st.integers(1, 3))
        rows.append([scale * c for c in draw(st.sampled_from(rows))])
    return {f"t{i}": np.array(r, dtype=float) for i, r in enumerate(rows)}


def saved(model):
    out = io.StringIO()
    save_vectors(model, out)
    return out.getvalue()


class TestMostSimilar:
    def test_threshold_and_order(self):
        model = model_from(FIXTURE)
        got = most_similar(model, "q", k=4, min_sim=0.6)
        assert [t for t, _ in got] == ["a", "b"]
        assert got[0][1] == pytest.approx(1.0, abs=1e-9)
        assert got[1][1] == pytest.approx(0.8, abs=1e-9)
        # "c" is orthogonal to "q": a score of exactly 0.0 does not pass 0.0
        assert [t for t, _ in most_similar(model, "q", k=4, min_sim=0.0)] == ["a", "b"]

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
        for k in (0, 1.5):
            with pytest.raises(ValueError, match="k must be"):
                most_similar(model, "q", k=k, min_sim=0.6)

    def test_nan_min_sim_rejected(self):
        model = model_from(FIXTURE)
        with pytest.raises(ValueError):
            most_similar(model, "q", k=2, min_sim=math.nan)

    def test_zero_row_is_nobodys_neighbor(self):
        model = model_from({**FIXTURE, "z": (0.0, 0.0)})
        for term in ("q", "a", "b", "c"):
            got = most_similar(model, term, k=4, min_sim=-1.0)
            assert got == most_similar(model_from(FIXTURE), term, k=4, min_sim=-1.0)

    @settings(max_examples=200, deadline=None)
    @given(small_models(), st.data(), st.integers(1, 5), st.floats(-1.0, 1.0, exclude_max=True))
    def test_matches_brute_force_scan(self, drawn, data, k, min_sim):
        vectors = drawn
        model = model_from(vectors)
        term = data.draw(st.sampled_from(sorted(vectors)))
        if not vectors[term].any():
            with pytest.raises(ZeroVector):
                most_similar(model, term, k, min_sim)
            return
        brute = {
            other: max(-1.0, min(1.0, hand_cosine(vectors[term], vec)))
            for other, vec in vectors.items()
            if other != term and vec.any()
        }
        assume(all(abs(score - min_sim) > 1e-9 for score in brute.values()))
        passing = [(other, score) for other, score in brute.items() if score > min_sim]
        expected = sorted(passing, key=lambda pair: (-pair[1], pair[0]))[:k]
        got = most_similar(model, term, k, min_sim)
        assert len(got) == len(expected)
        assert len({other for other, _ in got}) == len(got)
        for (got_term, got_score), (_, exp_score) in zip(got, expected):
            assert -1.0 <= got_score <= 1.0
            assert abs(got_score - exp_score) <= 1e-9
            # a term other than the expected one only where the two scores tie
            assert abs(brute[got_term] - exp_score) <= 1e-9

    def test_model_keeps_its_own_copy(self):
        matrix = np.array(list(FIXTURE.values()))
        model = EmbeddingModel(list(FIXTURE), matrix)
        before = most_similar(model, "q", k=4, min_sim=-1.0), saved(model)
        matrix[:] = 7.0
        model.vector("q")[:] = 7.0
        model.vector("c")[:] = 0.0
        assert (most_similar(model, "q", k=4, min_sim=-1.0), saved(model)) == before

    def test_zero_query_vector_raises(self):
        model = model_from({**FIXTURE, "z": (0.0, 0.0)})
        with pytest.raises(ZeroVector):
            most_similar(model, "z", k=4, min_sim=-1.0)
        with pytest.raises(ZeroVector):
            most_similar(model_from({"z": (0.0, 0.0)}), "z", k=4, min_sim=-1.0)



@pytest.mark.parametrize("zero_row", [0, 2, 4], ids=["first", "middle", "last"])
def test_zero_rows_nan_norm_never_leaks(zero_row, tmp_path):
    """A zero row's norm is held as nan inside the model; no nan reaches a vector, a saved
    file or a result, and the row round-trips bit for bit, the sign of each zero kept."""
    terms = ["a", "b", "c", "d", "e"]
    rows = [(1.0, 0.0, 0.5), (0.8, 0.6, 0.0), (0.0, 1.0, 0.2), (-0.5, 0.5, 1.0)]
    rows.insert(zero_row, (0.0, -0.0, 0.0))
    model, zero = EmbeddingModel(terms, np.array(rows)), terms[zero_row]
    others = [t for t in terms if t != zero]
    assert [np.isnan(norm) for norm in model._norms] == [t == zero for t in terms]
    path = tmp_path / "m.vec"
    save_vectors(model, path)
    assert "nan" not in path.read_text(encoding="utf-8")
    loaded = load_vectors(path)
    assert loaded.terms == terms and loaded._matrix.tobytes() == model._matrix.tobytes()
    assert saved(loaded) == path.read_text(encoding="utf-8")
    index = build_index(corpus_from_token_lists([terms, ["a", "b"], [zero, zero], ["c"]]))
    for m in (model, loaded):
        assert m.vector(zero).tobytes() == np.array(rows[zero_row]).tobytes()
        assert not any(np.isnan(m.vector(t)).any() for t in terms)
        with pytest.raises(ZeroVector):
            most_similar(m, zero, k=4, min_sim=-1.0)
        for t in others:
            scan = most_similar(m, t, k=4, min_sim=-1.0)
            assert [u for u, _ in sorted(scan)] == [u for u in others if u != t]
            assert not any(math.isnan(score) or math.isnan(sim(m, t, u)) for u, score in scan)
            with pytest.raises(ZeroVector):
                sim(m, t, zero)
            query = expand_query([t], m, StopwordList([]), k=4, min_sim=0.01)
            assert zero not in query.expansion_terms
            assert not any(map(math.isnan, query.expansion_terms.values()))
            for result in retrieve(index, query):
                assert not math.isnan(result.score)
                assert not any(math.isnan(value) for _, value in result.matched_terms)


class TestVectorFileFormat:
    def test_header_line(self):
        model = model_from({"a": (1.0, 2.0, 3.0), "b": (4.0, 5.0, 6.0)})
        out = io.StringIO()
        save_vectors(model, out)
        assert out.getvalue().splitlines()[0] == "2 3"

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        model = model_from(vectors)
        out = io.StringIO()
        save_vectors(model, out)
        loaded = load_vectors(io.StringIO(out.getvalue()))
        assert loaded.terms == model.terms
        assert loaded.dim == 5
        for term in vectors:
            assert np.max(np.abs(loaded.vector(term) - vectors[term])) <= 1e-6

    def test_round_trip_via_path(self, tmp_path):
        model = model_from({"x": (0.1, -2.5)})
        path = tmp_path / "m.vec"
        save_vectors(model, path)
        loaded = load_vectors(path)
        assert loaded.terms == ["x"]
        assert np.allclose(loaded.vector("x"), [0.1, -2.5], atol=1e-12)

    def test_wrong_component_count(self):
        text = "2 3\na 1.0 2.0 3.0\nb 1.0 2.0 3.0 4.0\n"
        with pytest.raises(DimensionMismatch, match="line 3") as excinfo:
            load_vectors(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_malformed_header(self):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO("not a header\na 1.0\n"))
        assert excinfo.value.line == 1

    def test_zero_dim_header(self):
        with pytest.raises(FormatError, match="invalid header sizes") as excinfo:
            load_vectors(io.StringIO("2 0\na\nb\n"))
        assert excinfo.value.line == 1

    def test_header_dim_no_row_has(self):
        # the matrix is allocated only after a row has shown the header's dim
        with pytest.raises(DimensionMismatch) as excinfo:
            load_vectors(io.StringIO("1 1000000000000\nw 1.0\n"))
        assert excinfo.value.line == 2

    def test_no_rows_keep_the_header_dim(self):
        model = load_vectors(io.StringIO("0 1000000000000\n"))
        assert len(model) == 0 and model.dim == 10**12 and model.month_key is None

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            load_vectors(io.StringIO("3 2\na 1.0 2.0\nb 3.0 4.0\n"))

    @pytest.mark.parametrize("text", ["3 2\na 1 2\n", "1 2\na 1 2\nb 1 2\nc 1 2\n"])
    def test_row_count_mismatch_names_the_line_after_the_promised_or_present_rows(self, text):
        with pytest.raises(FormatError, match="header promises") as excinfo:
            load_vectors(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_bytes(codecs.BOM_UTF8 + b"1 1\na 1.0\n")
        assert load_vectors(path).terms == ["a"]
        path.write_bytes(codecs.BOM_UTF8 + b"1 1\na\xff 1.0\n")
        with pytest.raises(FormatError, match="is not UTF-8") as excinfo:
            load_vectors(path)
        assert excinfo.value.line == 2

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

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "m.vec"
        path.write_bytes(b"2 1\na 1.0\nb\xe9 2.0\n")
        with pytest.raises(FormatError, match="is not UTF-8 \\(byte 0xe9\\)") as excinfo:
            load_vectors(path)
        assert excinfo.value.line == 3

    def test_handle_not_utf8(self, tmp_path):
        """An open handle reports the line the path form gives; a handle whose buffer cannot
        be re-read reports the byte without a line."""
        path = tmp_path / "m.vec"
        data = b"2 1\na\xff 1.0\nb 2.0\n"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(FormatError, match="is not UTF-8 \\(byte 0xff\\)") as excinfo:
                load_vectors(handle)
        assert excinfo.value.line == 2
        with pytest.raises(FormatError, match="is not utf-8 \\(byte 0xff\\)") as excinfo:
            load_vectors(io.TextIOWrapper(Unseekable(data), encoding="utf-8"))
        assert excinfo.value.line is None

    @pytest.mark.parametrize("last_row", [b"w2000 \xff\n", b"w2000 4x\n"])
    def test_lines_counted_from_the_handle_position(self, tmp_path, last_row):
        """A bad byte and a bad number in one row report one line, counted from where the
        handle stood, past the decoder's first chunk."""
        path = tmp_path / "m.vec"
        rows = b"".join(b"w%d 1.5\n" % i for i in range(2000))
        path.write_bytes(b"junk\n2001 1\n" + rows + last_row)
        with open(path, encoding="utf-8") as handle:
            handle.readline()
            with pytest.raises(FormatError) as excinfo:
                load_vectors(handle)
        assert excinfo.value.line == 2002

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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 2\na 1e200 0.0\nb 1e200 1e200\nc 0.0 1e200\n", 2),
            ("2 1\na 1.0\nb 1.7976931348623157e308\n", 3),
        ],
    )
    def test_row_whose_norm_overflows(self, text, line):
        with pytest.raises(FormatError, match="norm overflows") as excinfo:
            load_vectors(io.StringIO(text))
        assert excinfo.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 2\na 1_0 \u0661\n", 2),  # float() reads these as 10.0 and 1.0
            ("1 2\na 1.0 2.0\r\n", 2),
            ("1 2\na 1.0 \t2.0\n", 2),
            ("1 2\na 1.0 2.0\u3000\n", 2),
            ("+1 2\na 1.0 2.0\n", 1),
            ("1 2_0\na 1.0 2.0\n", 1),
        ],
    )
    def test_number_forms_the_writer_never_writes(self, text, line):
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO(text))
        assert excinfo.value.line == line

    @pytest.mark.parametrize("word", ["a\tb", "a\rb", "a\x1cb", "a\xa0b", "a\u2028b"])
    def test_words_the_writer_refuses(self, word):
        with pytest.raises(FormatError):
            saved(EmbeddingModel([word], [[1.0, 2.0]]))
        with pytest.raises(FormatError) as excinfo:
            load_vectors(io.StringIO(f"2 2\nb 3.0 4.0\n{word} 1.0 2.0\n"))
        assert excinfo.value.line == 3

    def test_non_ascii_and_underscored_terms_load(self):
        model = load_vectors(io.StringIO("2 1\n\u00e9_\u0661 1.5\nb_ -2.0\n"))
        assert model.terms == ["\u00e9_\u0661", "b_"]
        assert model.vector("\u00e9_\u0661").tolist() == [1.5]

    @pytest.mark.parametrize("term", ["a b", "", "a\tb", "a\nb", "a\u00a0b"])
    def test_unwritable_term_refused_before_writing(self, term, tmp_path):
        path = tmp_path / "m.vec"
        save_vectors(model_from(FIXTURE), path)
        before = path.read_bytes()
        with pytest.raises(FormatError):
            save_vectors(EmbeddingModel(["ok", term], np.ones((2, 2))), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.vec"]

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
        rows = list(model._matrix)
        rows[model.terms.index("b")] = None  # rows before "b" are written, then the write raises
        model._matrix = rows
        with pytest.raises(TypeError):
            save_vectors(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.vec"]


# at most 4 components of at most 6e153 keep every row's squared norm below the float64 maximum;
# larger rows are refused (test_row_whose_norm_overflows)
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 6e153]),
    st.floats(-6e153, 6e153),
)


@st.composite
def vector_models(draw):
    """Unique terms and a finite float64 matrix, zero rows included."""
    terms = draw(st.lists(st.text("abz09é:-", min_size=1, max_size=3), max_size=5, unique=True))
    dim = draw(st.integers(1, 4))
    return terms, draw(arrays(np.float64, (len(terms), dim), elements=_COMPONENTS))


@settings(max_examples=100, deadline=None)
@given(vector_models())
def test_vector_round_trip_is_exact_and_every_prefix_fails(drawn):
    terms, matrix = drawn
    text = saved(EmbeddingModel(terms, matrix))
    loaded = load_vectors(io.StringIO(text))
    assert (loaded.terms, loaded.dim) == (terms, matrix.shape[1])
    assert loaded._matrix.tobytes() == matrix.tobytes()
    assert saved(loaded) == text
    for cut in range(len(text)):
        with pytest.raises(FormatError):
            load_vectors(io.StringIO(text[:cut]))


# 1e-05 and 1e16 are where repr switches to exponent form; 1e-4 and 1e15 are not
_REPR_SWITCHES = st.sampled_from([-0.0, 5e-324, 1e-5, 1e-4, 1e15, 9999999999999998.0, 1e16, 1e22,
                                  -1e22, 0.1, -123.456])


def reference_save_vectors(model):
    """save_vectors' text by a repr(float(c)) call per component."""
    rows = [f"{term} " + " ".join(repr(float(c)) for c in model._matrix[i]) + "\n"
            for i, term in enumerate(model.terms)]
    return f"{len(model)} {model.dim}\n" + "".join(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.text("abz09\u00e9:-", min_size=1, max_size=3), min_size=n, max_size=n,
             unique=True),
    arrays(np.float64, st.tuples(st.just(n), st.integers(1, 4)),
           elements=st.one_of(_REPR_SWITCHES, _COMPONENTS)))))
def test_saved_text_is_each_components_repr(drawn):
    model = EmbeddingModel(*drawn)
    assert saved(model) == reference_save_vectors(model)


def reference_load_vectors(text):
    """load_vectors line by line, with a float() call per component, for a complete file
    whose header is '<n> <dim>' with dim >= 1: (terms, matrix), or the error raised."""
    lines = text.split("\n")[:-1]
    vocab_size, dim = map(int, lines[0].split(" "))
    if len(lines) - 1 != vocab_size:
        raise FormatError(f"header promises {vocab_size} rows, file has {len(lines) - 1}",
                          line=min(vocab_size, len(lines) - 1) + 2)
    words, matrix = {}, np.empty((vocab_size, dim))
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        word = fields[0]
        if not word or any(c.isspace() for c in word):
            raise FormatError(f"word {word!r} is empty or holds whitespace", line=lineno)
        if word in words:
            raise FormatError(f"duplicate word {word!r}", line=lineno)
        if len(fields) - 1 != dim:
            raise DimensionMismatch(
                f"line {lineno}: row has {len(fields) - 1} components, header says {dim}"
            )
        text = row[len(word) + 1 :]
        if not text.isascii() or any(c in text for c in "_\t\r\x0b\x0c"):
            raise FormatError(f"number in a form never written, in row {word!r}", line=lineno)
        try:
            components = [float(c) for c in fields[1:]]
        except ValueError:
            message = f"non-numeric vector component in row {word!r}"
            raise FormatError(message, line=lineno) from None
        if not all(map(math.isfinite, components)):
            raise FormatError(f"non-finite vector component in row {word!r}", line=lineno)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm([components], axis=1)[0]):
                raise FormatError(f"vector norm overflows float64 in row {word!r}", line=lineno)
        matrix[lineno - 2] = components
        words[word] = None
    return list(words), matrix


# forms a component or word can take that save_vectors never writes, and some it does
_PLANTED_COMPONENTS = ["1_0", " 1", "+1", "Infinity", "nan", "\u0661", "1e5", ".5", "1.", "-0",
                       "0x1p3", "", "\t2", "junk", "1e400", "1\x1c", "1.7976931348623157e308",
                       "  1", "1 ", "1  0"]
_PLANTED_WORDS = ["", "a b", "a\tb", "a\u3000b", "\u00e9", "a_b", "1", "\x85", "\xa0", "\u2028",
                  "a\x1cb"]


@st.composite
def vector_files(draw):
    """A file save_vectors writes, then up to three planted faults: a component or word
    replaced, a word repeated, a row one component short or long, a component moved to the
    next row, or a '0 <dim>' header."""
    dim = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("ab_\u00e9", min_size=1, max_size=2), max_size=6, unique=True))
    components = st.floats(-1e150, 1e150).map(repr)  # no norm overflows unless planted
    rows = [[word] + draw(st.lists(components, min_size=dim, max_size=dim)) for word in words]
    header = f"{len(rows)} {dim}"
    faults = ["component", "word", "repeat", "short", "long", "shift", "header"]
    for fault, pick, planted in draw(st.lists(
        st.tuples(st.sampled_from(faults), st.integers(0, 99), st.integers(0, 99)), max_size=3
    )):
        if fault == "header":
            header = f"0 {dim}"
        elif rows:
            i = pick % len(rows)
            row = rows[i]
            planted_component = _PLANTED_COMPONENTS[planted % len(_PLANTED_COMPONENTS)]
            if fault == "component" and len(row) > 1:
                row[1 + planted % (len(row) - 1)] = planted_component
            elif fault == "word":
                row[0] = _PLANTED_WORDS[planted % len(_PLANTED_WORDS)]
            elif fault == "repeat":
                row[0] = rows[planted % len(rows)][0]
            elif fault == "short" and len(row) > 1:
                row.pop()
            elif fault == "long":
                row.append("0.5")
            elif fault == "shift" and len(row) > 1 and i + 1 < len(rows):
                rows[i + 1].insert(1, row.pop())
    return "".join(f"{line}\n" for line in [header] + [" ".join(row) for row in rows])


def _outcome(load, text):
    try:
        return load(text)
    except (FormatError, DimensionMismatch) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block_rows", [1, 2, BLOCK_ROWS])
@settings(max_examples=300, deadline=None)
@given(vector_files())
@example("2 2\na 1.0\nb 2.0 3.0 4.0\n")  # both rows' counts wrong, the file's total right
@example("4 2\na 1.0 2.0\nb nan 1.0\nc 1.0 2.0\nd 1.0\n")  # a later block's count fault
@example("2 1\nb junk\nx\ty 1.0\n")  # a bad word after a non-numeric row, in one block
@example("3 1\na 1.0\nb 2.0\na 3.0\n")  # a word repeated in the next block of two rows
@example("1 1\n_ \n")  # an empty body, a line that loadtxt would skip
@example("2 2\na 1.0\x1c 2.0\nb 1.0 2.0\n")  # \x1c-\x1f: loadtxt strips them, float() refuses
@example("2 2\na 1.0 2.0\nb \x1f1.0 2.0\n")  # the same, in a later row of the block
@example("1 2\na 1.0 2.0#\n")  # a comment mark to loadtxt by default
@example('1 2\na 1.0 "2.0"\n')  # a quoted field to loadtxt with quotechar='"'
@example("1 1\na  1.0\n")  # components led by a space: a count of 2, not a number read
@example("1 2\na 1_0 2.0 3.0\n")  # a count and a form fault: the count is reported
@example("2 1\na \nb \n")  # every line empty to loadtxt: non-numeric, and no warning
def test_load_vectors_matches_line_by_line_reference(block_rows, text):
    """Same terms and matrix bytes, or the same error type, message and line."""
    def bulk(text):
        model = load_vectors(io.StringIO(text))
        return model.terms, model._matrix

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embedding, "BLOCK_ROWS", block_rows)
        got = _outcome(bulk, text)
    want = _outcome(reference_load_vectors, text)
    if isinstance(want[1], np.ndarray):
        assert (got[0], got[1].tobytes()) == (want[0], want[1].tobytes())
    else:
        assert got == want


def test_clean_blocks_read_once_and_only_a_faulty_block_reread(monkeypatch):
    """A clean file is read in whole blocks; a faulty block is re-read one row at a time,
    up to its first faulty row, whose line is reported."""
    calls = []
    rows = embedding._rows

    def counted(block, *args):
        calls.append(len(block))
        return rows(block, *args)

    def vector_file(lines):
        return io.StringIO(f"{len(lines)} 1\n" + "".join(f"{line}\n" for line in lines))

    monkeypatch.setattr(embedding, "_rows", counted)
    clean = [f"w{i} 1.5" for i in range(2 * BLOCK_ROWS + 1)]
    assert len(load_vectors(vector_file(clean))) == len(clean)
    assert calls == [BLOCK_ROWS, BLOCK_ROWS, 1]

    calls.clear()
    fifth_of_second = BLOCK_ROWS + 4
    faulty = clean[:fifth_of_second] + [f"w{fifth_of_second} junk"] + clean[fifth_of_second + 1 :]
    with pytest.raises(FormatError, match="non-numeric") as excinfo:
        load_vectors(vector_file(faulty))
    assert excinfo.value.line == 2 + fifth_of_second
    assert calls == [BLOCK_ROWS, BLOCK_ROWS] + [1] * 5


def test_whitespace_is_printable_only_as_space():
    """load_vectors passes a block's words, each cut at its first ' ', without a regex call when
    they are non-empty and printable. That rests on two facts of this Python's Unicode data,
    checked over every code point: \\s matches exactly what str.isspace() accepts, and of those
    only ' ' is printable."""
    every = "".join(map(chr, range(0x110000)))
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces
    assert [c for c in spaces if c.isprintable()] == [" "]


def reference_pairs(sentences, window):
    """(center, context) pairs by the nested position loops of a per-pair trainer."""
    pairs = []
    for sent in sentences:
        n = len(sent)
        for pos in range(n):
            for ctx_pos in range(max(0, pos - window), min(n, pos + window + 1)):
                if ctx_pos != pos:
                    pairs.append((sent[pos], sent[ctx_pos]))
    return pairs


class TestPairs:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 30), max_size=10), max_size=6),
        st.integers(1, 6),
    )
    def test_matches_nested_loops(self, sentences, window):
        centers, contexts = _pairs(sentences, window)
        assert list(zip(centers.tolist(), contexts.tolist())) == reference_pairs(sentences, window)

    def test_window_past_the_longest_sentence_changes_nothing(self):
        sentences = [[0, 1, 2], [3, 4], [5, 6, 7, 8]]
        longest = _pairs(sentences, 4)
        for window in (5, 10**5):
            for got, want in zip(_pairs(sentences, window), longest):
                assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_memory_does_not_grow_past_the_longest_sentence(self):
        tracemalloc.start()
        try:
            _pairs([[0, 1, 2], [3, 4], [5, 6, 7, 8]], 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10), max_size=6), st.integers(1, 6))
    def test_no_training_pairs_exactly_when_none(self, lengths, window):
        # distinct tokens, all kept by min_count=1, so no document loses a position
        lists, serial = [], iter(range(100))
        for n in lengths:
            lists.append([f"t{next(serial)}" for _ in range(n)])
        corpus = corpus_from_token_lists(lists)
        cfg = TrainConfig(dim=2, window=window, negatives=1, epochs=1, min_count=1)
        if sum(lengths) == 0:
            with pytest.raises(EmptyVocabulary):
                train(corpus, cfg)
        elif not reference_pairs(lists, window):
            with pytest.raises(NoTrainingPairs):
                train(corpus, cfg)
        else:
            assert len(train(corpus, cfg)) == sum(lengths)


def reference_scatter_add(matrix, rows, updates):
    """matrix[rows] += updates, summing repeated rows in a fixed order."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    firsts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[firsts]] += np.add.reduceat(updates[order], firsts)


class TestScatterPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 40),
        st.integers(1, 70),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_every_batch_adds_like_the_reference(self, n, n_rows, per_batch, dim, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n_rows, n)
        plan = _ScatterPlan(rows, per_batch)
        # magnitudes spread over many decades, so that another summing order shows in the bits
        scales = 10.0 ** rng.integers(-8, 9, (n, 1))
        updates = rng.standard_normal((n, dim)) * scales
        got = rng.standard_normal((rows.max() + 1, dim))
        want = got.copy()
        for b, lo in enumerate(range(0, n, per_batch)):
            batch = slice(lo, lo + per_batch)
            plan.add(got, b, updates[batch])
            reference_scatter_add(want, rows[batch], updates[batch])
            assert got.tobytes() == want.tobytes()


def reference_train(corpus, cfg):
    """(terms, matrix) from a trainer that draws, ramps and sorts anew for every batch."""
    counts = Counter(t for doc in corpus.documents for t in doc.tokens)
    terms = sorted((t for t in counts if counts[t] >= cfg.min_count), key=lambda t: (-counts[t], t))
    ids = {term: i for i, term in enumerate(terms)}
    sentences = [[ids[t] for t in doc.tokens if t in ids] for doc in corpus.documents]
    centers, contexts = _pairs(sentences, cfg.window)

    noise_cdf = np.cumsum(negative_sampling_distribution([counts[t] for t in terms]))
    rng = np.random.default_rng(cfg.rng_seed)
    syn0 = (rng.random((len(terms), cfg.dim)) - 0.5) / cfg.dim
    syn1 = np.zeros_like(syn0)

    n_pairs, total = len(centers), len(centers) * cfg.epochs
    labels = np.r_[1.0, np.zeros(cfg.negatives)]
    for epoch_start in range(0, total, n_pairs):
        for lo in range(0, n_pairs, BATCH_PAIRS):
            center, context = centers[lo : lo + BATCH_PAIRS], contexts[lo : lo + BATCH_PAIRS]
            steps = epoch_start + lo + np.arange(len(center))
            lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * (steps / total)
            draws = np.searchsorted(noise_cdf, rng.random((len(center), cfg.negatives)))
            targets = np.column_stack((context, np.minimum(draws, len(terms) - 1)))
            center_vecs, out_vecs = syn0[center], syn1[targets]
            dots = np.clip(np.einsum("bd,btd->bt", center_vecs, out_vecs), -60.0, 60.0)
            g = lr[:, None] * (labels - 1.0 / (1.0 + np.exp(-dots)))
            g[:, 1:][targets[:, 1:] == context[:, None]] = 0.0
            reference_scatter_add(syn0, center, np.einsum("bt,btd->bd", g, out_vecs))
            out_grads = np.einsum("bt,bd->btd", g, center_vecs).reshape(-1, cfg.dim)
            reference_scatter_add(syn1, targets.ravel(), out_grads)
    return terms, syn0


def assert_trains_like_reference(corpus, cfg):
    model = train(corpus, cfg)
    terms, matrix = reference_train(corpus, cfg)
    assert model.terms == terms
    assert model._matrix.tobytes() == matrix.tobytes()


def pair_corpus(n_docs):
    """n_docs two-token documents over 13 terms: 2 * n_docs pairs at window 1."""
    return corpus_from_token_lists([[f"a{i % 7}", f"b{i % 6}"] for i in range(n_docs)])


class TestTrainMatchesPerBatchReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=8), min_size=1, max_size=40),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical(self, token_lists, dim, window, negatives, epochs, min_count, seed):
        corpus = corpus_from_token_lists(token_lists)
        cfg = TrainConfig(dim=dim, window=window, negatives=negatives, epochs=epochs,
                          min_count=min_count, rng_seed=seed)
        try:
            assert_trains_like_reference(corpus, cfg)
        except (EmptyVocabulary, NoTrainingPairs):
            assume(False)  # TestPairs covers when these are raised

    # fewer pairs than one batch; one block exactly; more than two blocks, the last partial
    @pytest.mark.parametrize("n_docs", [20, 2048, 4500])
    def test_bit_identical_across_block_sizes(self, n_docs):
        cfg = TrainConfig(dim=6, window=1, negatives=5, epochs=2, min_count=1, rng_seed=7)
        corpus = pair_corpus(n_docs)
        assert len(_pairs([[0, 1]] * n_docs, 1)[0]) == 2 * n_docs
        assert_trains_like_reference(corpus, cfg)

    def test_bit_identical_with_keys_wider_than_16_bits(self, monkeypatch):
        # 4096 terms in one full block: the last batch's (batch, row) keys pass 63 * 4096
        corpus = corpus_from_token_lists([[f"a{i}", f"b{i}"] for i in range(2048)])
        cfg = TrainConfig(dim=4, window=1, negatives=2, epochs=2, min_count=1, rng_seed=3)
        key_types = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            key_types.append(a.dtype)
            return argsort(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", recording)
            train(corpus, cfg)
        assert len(key_types) == 2 and all(t.itemsize > 2 for t in key_types)
        assert_trains_like_reference(corpus, cfg)

    # one full block of 64 batches over V terms: V - 1 cycled, then the rarest (id V - 1) in
    # the last batch, so the largest stacked (batch, row) key is 64 * 2V - 1
    @pytest.mark.parametrize("n_terms, key_type", [(512, np.uint16), (513, np.uint32)])
    def test_bit_identical_at_the_16_bit_key_edge(self, monkeypatch, n_terms, key_type):
        cycled = [f"t{i % (n_terms - 1)}" for i in range(4094)]
        corpus = corpus_from_token_lists([cycled[i : i + 2] for i in range(0, 4094, 2)]
                                         + [["t0", "zzz"]])
        cfg = TrainConfig(dim=4, window=1, negatives=2, epochs=1, min_count=1, rng_seed=5)
        keys = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            keys.append((a.dtype, int(a.max())))
            return argsort(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", recording)
            model = train(corpus, cfg)
        assert len(model) == n_terms and model.terms[-1] == "zzz"
        assert keys == [(np.dtype(key_type), 128 * n_terms - 1)]
        assert_trains_like_reference(corpus, cfg)

    def test_bit_identical_when_noise_buckets_crowd(self, monkeypatch):
        # one term seen 10^4 times beside 50 seen twice: about five tail cdf entries share
        # each of the 128 guide buckets past the head's, so those draws take the binary search
        tails = [[f"t{i}", "h"] for i in range(50)]
        corpus = corpus_from_token_lists([["h", "h"]] * 4950 + tails * 2)
        cfg = TrainConfig(dim=4, window=1, negatives=5, epochs=1, min_count=1, rng_seed=11)
        searched = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            if a[-1] == np.inf:  # the sampler's fallback; the table itself is built without inf
                searched.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", recording)
            model = train(corpus, cfg)
        assert len(model) == 51 and len(searched) == 3 and min(searched) > 0
        assert_trains_like_reference(corpus, cfg)

    @pytest.mark.parametrize("n_docs, epochs", [(20, 1), (2048, 3), (2049, 2), (4500, 2)])
    def test_draws_once_per_block_of_4096_pairs(self, monkeypatch, n_docs, epochs):
        draws = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size):
                draws.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        train(pair_corpus(n_docs), TrainConfig(dim=4, window=1, epochs=epochs, min_count=1))
        # one draw for the initial vectors, then one per block of 64 batches in each epoch
        assert len(draws) == 1 + epochs * math.ceil(2 * n_docs / 4096)


class TestTrain:
    def test_two_word_vocabulary(self):
        corpus = corpus_from_token_lists([["x", "y"]])
        cfg = TrainConfig(dim=8, min_count=1)
        model = train(corpus, cfg)
        assert sorted(model.terms) == ["x", "y"]
        assert model.dim == 8
        assert model.vector("x").shape == (8,)
        assert model.month_key == corpus.month_key

    def test_one_term_vocabulary_by_hand(self):
        # every noise draw is the context itself and is dropped, so each pair makes
        # only its positive update, and both vectors stay on the initial direction
        cfg = TrainConfig(dim=4, epochs=3, min_count=1)
        model = train(corpus_from_token_lists([["x", "x"]] * 50), cfg)
        n_pairs, total = 100, 300
        lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * np.arange(total) / total
        syn0 = (np.random.default_rng(cfg.rng_seed).random(4) - 0.5) / 4
        syn1 = np.zeros(4)
        for start in range(0, total, n_pairs):
            for lo in range(0, n_pairs, BATCH_PAIRS):
                batch_lr = lr[start + lo : start + min(lo + BATCH_PAIRS, n_pairs)]
                g = np.sum(batch_lr * (1.0 - 1.0 / (1.0 + math.exp(-(syn0 @ syn1)))))
                syn0, syn1 = syn0 + g * syn1, syn1 + g * syn0
        assert np.allclose(model.vector("x"), syn0, rtol=1e-12, atol=0.0)

    def test_diverging_run_names_its_learning_rate(self):
        # numpy overflows inside the scatter at this rate, and pytest makes its warning an error
        corpus = corpus_from_token_lists([["a", "b", "c", "d", "e"]] * 3)
        with pytest.raises(ValueError, match=r"diverged at learning rate 1e\+300"):
            train(corpus, TrainConfig(dim=8, lr_initial=1e300, min_count=1))

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

    def test_terms_by_descending_count_then_term(self):
        # counts: c 4, a 2, b 2 (tied, so by term), d 1, e 1
        corpus = corpus_from_token_lists([["b", "a", "c"], ["c", "b", "a"], ["c", "d"], ["e", "c"]])
        assert train(corpus, TrainConfig(dim=4, min_count=1)).terms == ["c", "a", "b", "d", "e"]
        assert train(corpus, TrainConfig(dim=4, min_count=2)).terms == ["c", "a", "b"]

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

    @pytest.mark.parametrize("rng_seed", range(5))
    def test_cooccurrence_beats_disjoint(self, rng_seed):
        model = train(cooccurrence_corpus(), TrainConfig(rng_seed=rng_seed))
        assert sim(model, "a", "b") > sim(model, "a", "c")

    @pytest.mark.parametrize("rng_seed", range(5))
    def test_seasonal_drift(self, rng_seed):
        month1, month2 = drift_corpora()
        cfg = TrainConfig(**DRIFT_CONFIG, rng_seed=rng_seed)
        model1 = train(month1, cfg)
        model2 = train(month2, cfg)
        assert most_similar(model1, "p", k=1, min_sim=-1.0)[0][0] == "a"
        assert most_similar(model2, "p", k=1, min_sim=-1.0)[0][0] == "b"
        # relative order of the two partners flips between months
        assert sim(model1, "p", "a") > sim(model1, "p", "b")
        assert sim(model2, "p", "b") > sim(model2, "p", "a")


GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.tsv"


def test_golden_month_trains_to_pinned_bits(tmp_path):
    # The per-batch reference shares numpy's primitives with train, so only a stored value
    # shows drift from the vectors train has written before. The value is from numpy 2.4.6;
    # a numpy upgrade that moves einsum's last bits regenerates it, with a CHANGES.md note.
    lines = GOLDEN_CORPUS.read_text(encoding="utf-8").splitlines()
    month = {c.month_key: c for c in segment_by_month(ingest(lines).documents)}[(2018, 2)]
    save_vectors(train(month, TrainConfig(dim=8, epochs=3, min_count=1, rng_seed=7)),
                 tmp_path / "2018-02.vec")
    digest = hashlib.sha256((tmp_path / "2018-02.vec").read_bytes()).hexdigest()
    assert digest == "79cc097b27278cf741cc367697fe4bab3876ca375519dd0139d14eb2ffc327d2"


@st.composite
def noise_cdfs(draw):
    """A cdf of count^0.75 over 1-300 descending counts whose head:tail ratio reaches 10^6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_terms, decades = draw(st.integers(1, 300)), draw(st.floats(0.0, 6.0))
    counts = np.sort(np.round(10.0 ** rng.uniform(0.0, decades, n_terms)))[::-1]
    return np.cumsum(negative_sampling_distribution(counts))


class TestNoiseTable:
    @settings(max_examples=200, deadline=None)
    @given(noise_cdfs(), st.integers(0, 2**32 - 1))
    def test_every_draw_is_the_binary_searchs(self, cdf, seed):
        M = 1 << (2 * len(cdf) - 1).bit_length()
        table = _NoiseTable(cdf)
        assert len(table.guide) == M + 1
        near = np.r_[cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)]
        edges = np.r_[0.0, 1.0 - 2.0**-53, np.arange(M) / M, near[(near >= 0.0) & (near < 1.0)]]
        keys = np.random.default_rng(seed).random((500, 5))
        for drawn in (keys, edges):
            assert np.array_equal(table.draw(drawn), np.searchsorted(cdf, drawn))

    def test_a_crowded_bucket_falls_back_to_binary_search(self, monkeypatch):
        # M = 8: 0.9 and 0.95 both fall in bucket 7, [0.875, 1)
        cdf = np.array([0.9, 0.95, 1.0])
        table = _NoiseTable(cdf)
        assert table.crowded.tolist() == [False] * 7 + [True]
        searched = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            searched.append(np.asarray(v).tolist())
            return searchsorted(a, v, *args, **kwargs)

        keys = np.array([0.5, 0.875, 0.9, 0.93, 0.95, 0.97, 0.86])
        monkeypatch.setattr(np, "searchsorted", recording)
        assert table.draw(keys).tolist() == [0, 0, 0, 1, 1, 2, 0]
        assert searched == [[0.875, 0.9, 0.93, 0.95, 0.97]]


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
            {"lr_initial": math.inf},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("dim", 2.5), ("window", 1.5), ("negatives", 2.0), ("epochs", 2.5), ("min_count", 1.5),
         ("rng_seed", 1.0), ("rng_seed", "3"), ("rng_seed", -1)],
    )
    def test_non_integer_or_negative_field_named(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_numpy_integers_accepted_as_python_ints(self):
        # 1600 pairs: with a uint8 epochs, n_pairs * epochs would overflow
        corpus = cooccurrence_corpus(n_docs=200)
        as_numpy = train(corpus, TrainConfig(dim=np.int64(4), window=np.int32(2),
                                             epochs=np.uint8(1), rng_seed=np.uint32(3)))
        as_python = train(corpus, TrainConfig(dim=4, window=2, epochs=1, rng_seed=3))
        assert as_numpy._matrix.tobytes() == as_python._matrix.tobytes()
        assert TrainConfig(epochs=np.uint8(3)) == TrainConfig(epochs=3)
