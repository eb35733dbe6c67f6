"""Per-month word embeddings: skip-gram with negative sampling at desk scale.

Training derives every (center, context) pair once and takes its SGD steps
over fixed minibatches of BATCH_PAIRS pairs as array operations. It stays
single-threaded, seeded and free of stochastic window shrinking, so a
(corpus order, seed) pair always reproduces the same vectors bit for bit.
Models are immutable after construction and safe for concurrent read-only
queries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import MonthKey, MonthlyCorpus
from .errors import (
    DimensionMismatch,
    EmptyVocabulary,
    FormatError,
    NoTrainingPairs,
    OutOfVocabulary,
    ZeroVector,
)
from .textfile import FIELD, PathOrFile, read_lines, writer

NOISE_POWER = 0.75
# (center, context) pairs per SGD step. A batch reads the vectors as they stood before
# it; at 256 its summed stale updates no longer separate the seasonal-drift test months.
BATCH_PAIRS = 64
# vector-file rows per numpy conversion; a whole 3.4k-row file at once peaks 8 MB higher
BLOCK_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    """Skip-gram hyperparameters, sized for corpora of short titles."""

    dim: int = 50
    window: int = 4
    negatives: int = 5
    epochs: int = 5
    lr_initial: float = 0.025
    lr_final: float = 1e-4
    min_count: int = 2
    rng_seed: int = 42

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.lr_final <= self.lr_initial:
            raise ValueError(
                f"need 0 < lr_final <= lr_initial, got {self.lr_final} / {self.lr_initial}"
            )
        if not math.isfinite(self.lr_initial):
            raise ValueError(f"lr_initial must be finite, got {self.lr_initial}")


class EmbeddingModel:
    """Immutable term -> vector map for one month, held as one read-only (V, dim) matrix."""

    def __init__(self, terms: Iterable[str], matrix: np.ndarray, month_key: MonthKey | None = None):
        """Row i of matrix is the vector of the i-th term; the model keeps its own copy."""
        self._terms = list(terms)
        self._matrix = np.array(matrix, dtype=np.float64)
        if self._matrix.ndim != 2 or len(self._matrix) != len(self._terms):
            raise DimensionMismatch(
                f"matrix has shape {self._matrix.shape}, expected ({len(self._terms)}, dim)"
            )
        self.dim = self._matrix.shape[1]
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        self._rows: dict[str, int] = {}
        for i, term in enumerate(self._terms):
            if self._rows.setdefault(term, i) != i:
                raise ValueError(f"duplicate term {term!r}")
        self._norms = _norms(self._matrix)
        if not np.isfinite(self._norms).all():
            raise ValueError("matrix holds a non-finite component or a norm that overflows")
        self._matrix.flags.writeable = False
        self._norms.flags.writeable = False
        self.month_key = month_key

    @property
    def terms(self) -> list[str]:
        """Terms in row order (training writes frequency order)."""
        return list(self._terms)

    def vector(self, term: str) -> np.ndarray:
        if term not in self._rows:
            raise OutOfVocabulary(term)
        return self._matrix[self._rows[term]].copy()

    def __contains__(self, term: str) -> bool:
        return term in self._rows

    def __len__(self) -> int:
        return len(self._terms)


def _norms(matrix: np.ndarray) -> np.ndarray:
    """Row norms; a row whose norm overflows gets inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(matrix, axis=1)


def sim(model: EmbeddingModel, i: str, j: str) -> float:
    """Cosine similarity between two vocabulary terms; sim(i, i) is 1.0."""
    if i not in model:
        raise OutOfVocabulary(i)
    if j not in model:
        raise OutOfVocabulary(j)
    if i == j:
        return 1.0
    a, b = model._rows[i], model._rows[j]
    if model._norms[a] == 0.0 or model._norms[b] == 0.0:
        raise ZeroVector("cosine similarity undefined for zero-magnitude vector")
    value = float(model._matrix[a] @ model._matrix[b] / (model._norms[a] * model._norms[b]))
    return max(-1.0, min(1.0, value))


def most_similar(
    model: EmbeddingModel, term: str, k: int, min_sim: float
) -> list[tuple[str, float]]:
    """Up to k nearest terms with similarity strictly above min_sim.

    Sorted by score descending, ties broken lexicographically; never
    contains the query term itself. A zero vector has no direction: it is
    nobody's neighbor, and as the query's vector it raises ZeroVector.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if math.isnan(min_sim):
        raise ValueError("min_sim must be a number, got nan")
    if term not in model:
        raise OutOfVocabulary(term)
    row = model._rows[term]
    if model._norms[row] == 0.0:
        raise ZeroVector(f"{term!r} has a zero vector")
    # a zero row scores 0/0 = nan, which no threshold passes
    with np.errstate(invalid="ignore"):
        scores = model._matrix @ model._matrix[row] / (model._norms * model._norms[row])
    np.clip(scores, -1.0, 1.0, out=scores)
    scores[row] = np.nan
    hits = np.flatnonzero(scores > min_sim)
    if len(hits) > k:  # keep the k best and every score tied with the k-th
        hits = hits[scores[hits] >= np.partition(scores[hits], -k)[-k]]
    scored = [(model._terms[i], float(scores[i])) for i in hits]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def negative_sampling_distribution(counts: np.ndarray) -> np.ndarray:
    """Noise distribution proportional to unigram count^0.75, normalized."""
    weights = np.asarray(counts, dtype=np.float64) ** NOISE_POWER
    return weights / weights.sum()


def _pairs(sentences: list[list[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) id pairs in window, by document, then position, then context position."""
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    ids = np.array([i for s in sentences for i in s], dtype=np.intp)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    ctx = np.arange(len(ids))[:, None] + np.r_[-window:0, 1 : window + 1]
    keep = (ctx >= starts[:, None]) & (ctx < ends[:, None])
    return np.broadcast_to(ids[:, None], ctx.shape)[keep], ids[ctx[keep]]


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """matrix[rows] += updates, summing repeated rows in a fixed order."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    firsts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[firsts]] += np.add.reduceat(updates[order], firsts)


def train(corpus: MonthlyCorpus, cfg: TrainConfig | None = None) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors on one month of titles.

    Context pairs come from a fixed symmetric window and never cross
    document boundaries. Each epoch walks them in corpus order, BATCH_PAIRS
    at a time: a batch reads the vectors as they stood before it, draws
    cfg.negatives noise words per pair (dropping a draw equal to the pair's
    context), and adds its summed gradients at once. The learning rate falls
    linearly per pair. The result is bit-identical for a given document
    order and cfg.

    Raises EmptyVocabulary if no term survives cfg.min_count, and
    NoTrainingPairs if the window yields no (center, context) pair.
    """
    cfg = cfg or TrainConfig()
    counts = Counter(t for doc in corpus.documents for t in doc.tokens)
    # ids run in order of descending count, ties broken by term
    terms = sorted((t for t in counts if counts[t] >= cfg.min_count), key=lambda t: (-counts[t], t))
    if not terms:
        raise EmptyVocabulary(f"no term appears >= {cfg.min_count} times")
    ids = {term: i for i, term in enumerate(terms)}
    sentences = [[ids[t] for t in doc.tokens if t in ids] for doc in corpus.documents]
    centers, contexts = _pairs(sentences, cfg.window)
    if len(centers) == 0:
        raise NoTrainingPairs("window over the corpus yields no (center, context) pairs")

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
            _scatter_add(syn0, center, np.einsum("bt,btd->bd", g, out_vecs))
            out_grads = np.einsum("bt,bd->btd", g, center_vecs).reshape(-1, cfg.dim)
            _scatter_add(syn1, targets.ravel(), out_grads)

    return EmbeddingModel(terms, syn0, corpus.month_key)


def save_vectors(model: EmbeddingModel, dest: PathOrFile) -> None:
    """Write the model in word2vec text format.

    Header line is "<vocab_size> <dim>"; each row is the word followed by
    its components as shortest round-trip decimals, space-separated.
    A term that is empty or holds whitespace raises FormatError before dest is touched.
    """
    for term in model._terms:
        if not FIELD.fullmatch(term):
            raise FormatError(f"term {term!r} cannot be written in vector format")
    with writer(dest) as handle:
        handle.write(f"{len(model)} {model.dim}\n")
        for term, row in zip(model._terms, model._matrix):
            components = " ".join(repr(float(c)) for c in row)
            handle.write(f"{term} {components}\n")


def _unwritten_form(text: str) -> bool:
    """Whether component text holds what float() reads but save_vectors never writes."""
    return not text.isascii() or any(c in text for c in "_\t\r\x0b\x0c")


def _bulk_rows(rows: list[str], dim: int) -> tuple[list[str], np.ndarray]:
    """Words and components of the rows, BLOCK_ROWS rows per numpy conversion: ValueError
    where a row may break a rule that load_vectors checks line by line."""
    words = [row.partition(" ")[0] for row in rows]
    if not all(map(FIELD.fullmatch, words)):  # EmbeddingModel refuses a repeated word
        raise ValueError("a word is empty or holds whitespace")
    matrix = np.empty((len(rows), dim))
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = rows[lo : lo + BLOCK_ROWS]
        if any(row.count(" ") != dim for row in block):
            raise ValueError("a row has the wrong component count")
        text = " ".join([row.partition(" ")[2] for row in block])
        if _unwritten_form(text):
            raise ValueError("a number is in a form never written")
        matrix[lo : lo + len(block)] = np.array(text.split(" "), np.float64).reshape(-1, dim)
    return words, matrix


def load_vectors(source: PathOrFile, month_key: MonthKey | None = None) -> EmbeddingModel:
    """Read a word2vec text file back into an EmbeddingModel.

    Raises FormatError (with the offending line number) on malformed content, including
    nan and inf components, a row whose norm overflows float64, and words and numbers in
    forms save_vectors never writes (a word holding whitespace, '1_0', '\u0661', whitespace
    but ' '), and DimensionMismatch when a row's component count differs from the header.
    """
    lines = read_lines(source, "vector")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise FormatError(f"header must be '<vocab_size> <dim>', got {lines[0]!r}", line=1)
    if not all(field.isascii() and field.isdigit() for field in header):
        raise FormatError(f"non-integer header fields in {lines[0]!r}", line=1)
    vocab_size, dim = int(header[0]), int(header[1])
    if dim < 1:
        raise FormatError(f"invalid header sizes {vocab_size} {dim}", line=1)
    if len(lines) - 1 != vocab_size:
        raise FormatError(
            f"header promises {vocab_size} rows, file has {len(lines) - 1}", line=len(lines)
        )

    try:  # the whole file in bulk; on any fault the line-by-line pass below names its line
        return EmbeddingModel(*_bulk_rows(lines[1:], dim), month_key)
    except ValueError:
        pass
    words: dict[str, None] = {}  # an ordered set, for the duplicate check
    matrix = np.empty((vocab_size, dim), dtype=np.float64)
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        word = fields[0]
        if not FIELD.fullmatch(word):
            raise FormatError(f"word {word!r} is empty or holds whitespace", line=lineno)
        if word in words:
            raise FormatError(f"duplicate word {word!r}", line=lineno)
        if len(fields) - 1 != dim:
            raise DimensionMismatch(
                f"line {lineno}: row has {len(fields) - 1} components, header says {dim}"
            )
        if _unwritten_form(row[len(word) + 1 :]):
            raise FormatError(f"number in a form never written, in row {word!r}", line=lineno)
        try:
            components = [float(c) for c in fields[1:]]
        except ValueError:
            raise FormatError(f"non-numeric vector component in row {word!r}", line=lineno) from None
        if not all(map(math.isfinite, components)):
            raise FormatError(f"non-finite vector component in row {word!r}", line=lineno)
        matrix[lineno - 2] = components
        if not np.isfinite(_norms(matrix[lineno - 2 : lineno - 1]))[0]:
            raise FormatError(f"vector norm overflows float64 in row {word!r}", line=lineno)
        words[word] = None
    return EmbeddingModel(words, matrix, month_key)
