"""Per-month word embeddings: skip-gram with negative sampling at desk scale.

Training derives every (center, context) pair once and takes its SGD steps
over fixed minibatches of BATCH_PAIRS pairs as array operations. What no
batch's step depends on (noise draws, learning rates, scatter orders) is made
once per block of BLOCK_PAIRS pairs. It stays single-threaded, seeded and
free of stochastic window shrinking, so a (corpus order, seed) pair always
reproduces the same vectors bit for bit.
Models are immutable after construction and safe for concurrent read-only
queries.
"""

from __future__ import annotations

import math
import operator
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
# pairs (64 batches) whose noise draws, learning rates and scatter plans are made in one
# pass; whole epochs at once would hold ~8 arrays of n_pairs x (1 + negatives) entries
BLOCK_PAIRS = 64 * BATCH_PAIRS
# vector-file rows per numpy conversion; a whole 3.4k-row file at once peaks 8 MB higher
BLOCK_ROWS = 512


def _integer(name: str, value) -> int:
    try:  # a Python int, which numpy's fixed-width arithmetic cannot wrap
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        least = dict(dim=1, window=1, negatives=1, epochs=1, min_count=1, rng_seed=0)
        for name, bound in least.items():
            object.__setattr__(self, name, value := _integer(name, getattr(self, name)))
            if value < bound:
                raise ValueError(f"{name} must be >= {bound}, got {value}")
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


def _cosines(model: EmbeddingModel, row: int) -> np.ndarray:
    """The one cosine kernel: each row's cosine with the given row in [-1, 1]; nan if zero."""
    with np.errstate(invalid="ignore"):  # einsum, unlike BLAS, is symmetric in the two rows
        scores = np.einsum("ij,j->i", model._matrix, model._matrix[row])
        scores /= model._norms * model._norms[row]
    return np.minimum(np.maximum(scores, -1.0, out=scores), 1.0, out=scores)


def sim(model: EmbeddingModel, i: str, j: str) -> float:
    """Cosine similarity between two vocabulary terms; sim(i, i) is 1.0. It is entry j of
    i's scan, so it equals j's score in most_similar(i) and sim(j, i) bit for bit."""
    for term in (i, j):
        if term not in model:
            raise OutOfVocabulary(term)
    if i == j:
        return 1.0
    a, b = model._rows[i], model._rows[j]
    if model._norms[a] == 0.0 or model._norms[b] == 0.0:
        raise ZeroVector("cosine similarity undefined for zero-magnitude vector")
    return float(_cosines(model, a)[b])


def most_similar(
    model: EmbeddingModel, term: str, k: int, min_sim: float
) -> list[tuple[str, float]]:
    """Up to k nearest terms with similarity strictly above min_sim, from one cosine scan.

    Sorted by score descending, ties broken lexicographically; never contains the query
    term itself. Each score is the pair's sim value, bit for bit. A zero vector has no
    direction: it is nobody's neighbor, and as the query's vector it raises ZeroVector.
    """
    if _integer("k", k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if math.isnan(min_sim):
        raise ValueError("min_sim must be a number, got nan")
    if term not in model:
        raise OutOfVocabulary(term)
    return _neighbors(model, term, k, min_sim)[0]


def _neighbors(model: EmbeddingModel, term: str, k: int, min_sim: float):
    """most_similar without its argument checks, and the scan it chose from."""
    row = model._rows[term]
    if model._norms[row] == 0.0:
        raise ZeroVector(f"{term!r} has a zero vector")
    scores = _cosines(model, row)
    scores[row] = np.nan
    hits = (scores > min_sim).nonzero()[0]
    if len(hits) > k:  # keep the k best and every score tied with the k-th
        hits = hits[scores[hits] >= np.partition(scores[hits], -k)[-k]]
    scored = [(model._terms[i], float(scores[i])) for i in hits]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k], scores


def negative_sampling_distribution(counts: np.ndarray) -> np.ndarray:
    """Noise distribution proportional to unigram count^0.75, normalized."""
    weights = np.asarray(counts, dtype=np.float64) ** NOISE_POWER
    return weights / weights.sum()


def _pairs(sentences: list[list[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) id pairs in window, by document, then position, then context position."""
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    # an offset past the longest sentence is masked out everywhere: no memory for it
    window = min(window, int(lengths.max(initial=0)))
    ids = np.array([i for s in sentences for i in s], dtype=np.intp)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    ctx = np.arange(len(ids))[:, None] + np.r_[-window:0, 1 : window + 1]
    keep = (ctx >= starts[:, None]) & (ctx < ends[:, None])
    return np.broadcast_to(ids[:, None], ctx.shape)[keep], ids[ctx[keep]]


class _ScatterPlan:
    """Scatters for consecutive batches of per_batch rows each, planned by one stable sort.

    add(matrix, b, updates) does matrix[batch b's rows] += updates, summing repeated rows
    in the order a stable argsort of that batch's rows alone would give. The (batch, row)
    key is cast to its narrowest unsigned type, so that numpy radix-sorts keys of 16 bits
    or fewer; a stable order is unique, so the cast changes the speed, not the plan.
    """

    def __init__(self, rows: np.ndarray, per_batch: int):
        key = np.arange(len(rows)) // per_batch * (rows.max() + 1) + rows
        order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
        key = key[order]
        firsts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        self.rows = rows[order[firsts]]
        self.order, self.firsts = order % per_batch, firsts % per_batch
        self.cuts = np.searchsorted(firsts, range(0, len(rows) + per_batch, per_batch)).tolist()
        self.per_batch = per_batch

    def add(self, matrix: np.ndarray, b: int, updates: np.ndarray) -> None:
        runs = slice(self.cuts[b], self.cuts[b + 1])
        order = self.order[b * self.per_batch : (b + 1) * self.per_batch]
        matrix[self.rows[runs]] += np.add.reduceat(updates[order], self.firsts[runs])


def train(corpus: MonthlyCorpus, cfg: TrainConfig | None = None) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors on one month of titles.

    Context pairs come from a fixed symmetric window and never cross
    document boundaries. Each epoch walks them in corpus order, BATCH_PAIRS
    at a time: a batch reads the vectors as they stood before it, draws
    cfg.negatives noise words per pair (dropping a draw equal to the pair's
    context), and adds its summed gradients at once. The learning rate falls
    linearly per pair. The draws, rates and the order in which each batch sums
    its gradients are made a block of BLOCK_PAIRS pairs at a time, the same
    values as batch by batch. The result is bit-identical for a given document
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
        for start in range(0, n_pairs, BLOCK_PAIRS):
            block = slice(start, start + BLOCK_PAIRS)
            center, context = centers[block], contexts[block]
            steps = epoch_start + start + np.arange(len(center))
            lrs = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * (steps / total)
            draws = np.searchsorted(noise_cdf, rng.random((len(center), cfg.negatives)))
            targets = np.column_stack((context, np.minimum(draws, len(terms) - 1)))
            dropped = targets[:, 1:] == context[:, None]
            plan0 = _ScatterPlan(center, BATCH_PAIRS)
            plan1 = _ScatterPlan(targets.ravel(), BATCH_PAIRS * (1 + cfg.negatives))
            for b, lo in enumerate(range(0, len(center), BATCH_PAIRS)):
                batch = slice(lo, lo + BATCH_PAIRS)
                center_vecs, out_vecs = syn0[center[batch]], syn1[targets[batch]]
                dots = np.clip(np.einsum("bd,btd->bt", center_vecs, out_vecs), -60.0, 60.0)
                g = lrs[batch, None] * (labels - 1.0 / (1.0 + np.exp(-dots)))
                g[:, 1:][dropped[batch]] = 0.0
                plan0.add(syn0, b, np.einsum("bt,btd->bd", g, out_vecs))
                plan1.add(syn1, b, np.einsum("bt,bd->btd", g, center_vecs).reshape(-1, cfg.dim))

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


def _rows(rows: list[str], dim: int, line: int, words: dict[str, None]) -> np.ndarray:
    """Components of consecutive vector-file rows, the first on the given line, in one numpy
    conversion; words, the ordered set of earlier rows' words, gains theirs once all pass. Else
    the first check below that a row fails raises, under the first row's line and word."""
    fresh = dict.fromkeys([row.partition(" ")[0] for row in rows])
    word = next(iter(fresh))
    if not all(map(FIELD.fullmatch, fresh)):
        raise FormatError(f"word {word!r} is empty or holds whitespace", line=line)
    if len(fresh) < len(rows) or not fresh.keys().isdisjoint(words):
        raise FormatError(f"duplicate word {word!r}", line=line)
    if any((count := row.count(" ")) != dim for row in rows):
        raise DimensionMismatch(f"row has {count} components, header says {dim}", line=line)
    text = " ".join([row.partition(" ")[2] for row in rows])
    if not text.isascii() or any(c in text for c in "_\t\r\x0b\x0c"):  # float() reads these
        raise FormatError(f"number in a form never written, in row {word!r}", line=line)
    try:  # loadtxt skips an empty line and strips \x1c-\x1f around a number; float() refuses both
        if not text or any(c in text for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError
        matrix = np.loadtxt([text], np.float64, delimiter=" ", comments=None).reshape(-1, dim)
    except ValueError:
        raise FormatError(f"non-numeric vector component in row {word!r}", line=line) from None
    if not np.isfinite(_norms(matrix)).all():  # a nan or inf component gives one too
        overflow = np.isfinite(matrix).all()
        fault = "vector norm overflows float64" if overflow else "non-finite vector component"
        raise FormatError(f"{fault} in row {word!r}", line=line)
    words.update(fresh)
    return matrix


def load_vectors(source: PathOrFile) -> EmbeddingModel:
    """Read a word2vec text file back into an EmbeddingModel.

    Raises FormatError (with the offending line number) on malformed content, including
    nan and inf components, a row whose norm overflows float64, and words and numbers in
    forms save_vectors never writes (a word holding whitespace, '1_0', '\u0661', whitespace
    but ' '), and DimensionMismatch (with its line number) when a row's component count
    differs from the header.
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
        raise FormatError(f"header promises {vocab_size} rows, file has {len(lines) - 1}",
                          line=min(vocab_size, len(lines) - 1) + 2)

    words: dict[str, None] = {}
    matrix = np.empty((0, dim))  # sized once a row has shown the header's dim
    for lo in range(0, vocab_size, BLOCK_ROWS):
        block = lines[1 + lo : 1 + lo + BLOCK_ROWS]
        try:
            rows = _rows(block, dim, lo + 2, words)
        except (FormatError, DimensionMismatch):  # re-read row by row to name the first fault
            for i, row in enumerate(block):
                _rows([row], dim, lo + 2 + i, words)
            raise
        if lo == 0:
            matrix = np.empty((vocab_size, dim))
        matrix[lo : lo + len(block)] = rows
    return EmbeddingModel(words, matrix)
