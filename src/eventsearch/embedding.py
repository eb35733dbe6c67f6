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
from itertools import chain, repeat
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
# pairs (64 batches) whose noise draws, learning rates and one scatter plan over the stacked
# weight rows are made in one pass; whole epochs would hold ~8 n_pairs x (2 + negatives) arrays
BLOCK_PAIRS = 64 * BATCH_PAIRS
# vector-file rows per numpy conversion; a whole 3.4k-row file at once peaks 8 MB higher
BLOCK_ROWS = 512
# the learning rate falls linearly from TrainConfig.lr_initial to this over the whole run
LR_FINAL = 1e-4


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
    min_count: int = 2
    rng_seed: int = 42

    def __post_init__(self):
        least = dict(dim=1, window=1, negatives=1, epochs=1, min_count=1, rng_seed=0)
        for name, bound in least.items():
            object.__setattr__(self, name, value := _integer(name, getattr(self, name)))
            if value < bound:
                raise ValueError(f"{name} must be >= {bound}, got {value}")
        if self.rng_seed >= 2**64:  # the generator's state is one uint64
            raise ValueError(f"rng_seed must be < 2**64, got {self.rng_seed}")
        if not LR_FINAL <= self.lr_initial:
            raise ValueError(f"lr_initial must be >= {LR_FINAL}, the final learning rate, "
                             f"got {self.lr_initial}")
        if not math.isfinite(self.lr_initial):
            raise ValueError(f"lr_initial must be finite, got {self.lr_initial}")


class EmbeddingModel:
    """Immutable term -> vector map for one month, held as one read-only (V, dim) matrix and its
    row norms, a zero row's as nan: that row's cosines come out nan, so it is nobody's neighbor."""

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
        self._norms[self._norms == 0.0] = np.nan
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
    """The one cosine kernel: each row's cosine with the given row, which must not be zero, in
    [-1, 1]; nan for a zero row, whose nan norm divides quietly, raising no floating-point flag."""
    scores = np.einsum("ij,j->i", model._matrix, model._matrix[row])  # symmetric, unlike BLAS
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
    if not (model._norms[a] > 0.0 and model._norms[b] > 0.0):
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
    if not model._norms[row] > 0.0:
        raise ZeroVector(f"{term!r} has a zero vector")
    scores = _cosines(model, row)
    scores[row] = np.nan
    hits = (scores > min_sim).nonzero()[0]
    if len(hits) > k:  # keep the k best and every score tied with the k-th
        (best := scores[hits]).partition(-k)
        hits = hits[scores[hits] >= best[-k]]
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
    ids = np.fromiter(chain.from_iterable(sentences), np.intp, int(lengths.sum()))
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    ctx = np.arange(len(ids))[:, None] + np.r_[-window:0, 1 : window + 1]
    keep = (ctx >= starts[:, None]) & (ctx < ends[:, None])
    return np.broadcast_to(ids[:, None], ctx.shape)[keep], ids[ctx[keep]]


class _ScatterPlan:
    """Scatters for consecutive batches of per_batch rows each, planned by one stable sort.

    add(matrix, b, updates) does matrix[batch b's rows] += updates, the batch's one buffer,
    summing repeated rows in the order a stable argsort of that batch's rows alone would give.
    The (batch, row) key is cast to its narrowest unsigned type, so that numpy radix-sorts keys
    of 16 bits or fewer; a stable order is unique, so the cast changes the speed, not the plan.
    A sorted slot stays in its batch, so subtracting its batch's start makes it local.
    """

    def __init__(self, rows: np.ndarray, per_batch: int):
        n = len(rows)
        key = np.arange(-(-n // per_batch)).repeat(per_batch)[:n] * (rows.max() + 1) + rows
        order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
        key = key[order]
        firsts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        self.rows = rows[order[firsts]]
        self.cuts = np.searchsorted(firsts, range(0, n + per_batch, per_batch)).tolist()
        starts = np.arange(0, n, per_batch).repeat(per_batch)[:n]
        self.order, self.firsts = order - starts, firsts - starts[firsts]
        self.per_batch = per_batch

    def add(self, matrix: np.ndarray, b: int, updates: np.ndarray) -> None:
        runs = slice(self.cuts[b], self.cuts[b + 1])
        order = self.order[b * self.per_batch : (b + 1) * self.per_batch]
        matrix[self.rows[runs]] += np.add.reduceat(updates.take(order, axis=0), self.firsts[runs])


class _NoiseTable:
    """draw(keys) is np.searchsorted(cdf, keys), key for key, through a guide table (Chen &
    Asau, 1974) of M >= 2 len(cdf) buckets; M is a power of two, so int(key * M) and k / M are
    exact. Bucket k draws guide[k] or the next id, unless two or more cdf entries crowd it."""

    def __init__(self, cdf: np.ndarray):
        M = 1 << (2 * len(cdf) - 1).bit_length()
        self.guide = np.searchsorted(cdf, np.arange(M + 1) / M)
        self.cdf, self.crowded = np.r_[cdf, np.inf], np.diff(self.guide) > 1

    def draw(self, keys: np.ndarray) -> np.ndarray:
        buckets = (keys * len(self.crowded)).astype(np.intp)
        draws = self.guide[buckets]
        draws += self.cdf[draws] < keys  # the appended inf makes guide[k] == len(cdf) safe
        crowded = self.crowded[buckets]
        draws[crowded] = np.searchsorted(self.cdf, keys[crowded])
        return draws


_GAMMA, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))


class _SplitMix64:
    """SplitMix64 (Steele, Lea & Flood, 2014) over a counter: draw i (1, 2, ... over its life) is
    mix(mix(seed) + i * gamma)'s top 53 bits over 2**53; random(shape) continues the stream."""

    def __init__(self, seed: int):
        self.state, self.drawn = self._mix(np.array([seed], np.uint64)), 0

    def random(self, shape) -> np.ndarray:
        self.drawn += (n := math.prod(shape))
        i = np.arange(self.drawn - n + 1, self.drawn + 1, dtype=np.uint64)
        return ((self._mix(self.state + i * _GAMMA) >> _S11) * 2.0**-53).reshape(shape)

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:  # the finalizer; uint64 array arithmetic wraps silently
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        return z ^ (z >> _S31)


def train(corpus: MonthlyCorpus, cfg: TrainConfig | None = None) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors on one month of titles.

    Context pairs come from a fixed symmetric window and never cross document boundaries. One
    (2V, dim) weights matrix holds the V input vectors, then the V output vectors, which are
    discarded. Each epoch walks the pairs in corpus order, BATCH_PAIRS at a time, at a learning
    rate falling linearly per pair: a batch reads its centers' and targets' rows (a target is
    the context or one of cfg.negatives noise draws, a draw equal to the context dropped) in one
    gather, as they stood before it, writes its updates into one buffer and sums them in one
    scatter. Draws (a guide table's, each a binary search's), rates and one scatter plan are
    made per block of BLOCK_PAIRS pairs as batch by batch would, so the result is bit-identical
    for a given document order and cfg.

    Raises EmptyVocabulary if no term survives cfg.min_count, NoTrainingPairs if the window
    yields no (center, context) pair, and ValueError naming the learning rate if training
    diverges to a non-finite vector or norm.
    """
    cfg = cfg or TrainConfig()
    counts = Counter(chain.from_iterable(doc.tokens for doc in corpus.documents))
    # ids run in order of descending count, ties broken by term
    terms = sorted((t for t in counts if counts[t] >= cfg.min_count), key=lambda t: (-counts[t], t))
    if not terms:
        raise EmptyVocabulary(f"no term appears >= {cfg.min_count} times")
    ids = {term: i for i, term in enumerate(terms)}
    sentences = [[ids[t] for t in doc.tokens if t in ids] for doc in corpus.documents]
    centers, contexts = _pairs(sentences, cfg.window)
    if len(centers) == 0:
        raise NoTrainingPairs("window over the corpus yields no (center, context) pairs")

    noise = _NoiseTable(np.cumsum(negative_sampling_distribution([counts[t] for t in terms])))
    rng = _SplitMix64(cfg.rng_seed)
    V = len(terms)
    weights = np.r_[(rng.random((V, cfg.dim)) - 0.5) / cfg.dim, np.zeros((V, cfg.dim))]

    n_pairs, total = len(centers), len(centers) * cfg.epochs
    labels = np.r_[1.0, np.zeros(cfg.negatives)]
    updates = np.empty((BATCH_PAIRS, 2 + cfg.negatives, cfg.dim))  # one batch's, reused
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run is refused below
        for epoch_start in range(0, total, n_pairs):
            for start in range(0, n_pairs, BLOCK_PAIRS):
                block = slice(start, start + BLOCK_PAIRS)
                center, context = centers[block], contexts[block]
                steps = epoch_start + start + np.arange(len(center))
                lrs = cfg.lr_initial + (LR_FINAL - cfg.lr_initial) * (steps / total)
                draws = noise.draw(rng.random((len(center), cfg.negatives)))
                rows = np.column_stack((center, V + context, V + np.minimum(draws, V - 1)))
                dropped = rows[:, 2:] == rows[:, 1, None]
                plan = _ScatterPlan(rows.ravel(), BATCH_PAIRS * (2 + cfg.negatives))
                for b, lo in enumerate(range(0, len(center), BATCH_PAIRS)):
                    batch = slice(lo, lo + BATCH_PAIRS)
                    vecs = weights.take(rows[batch], axis=0)
                    center_vecs, out_vecs = vecs[:, 0], vecs[:, 1:]
                    dots = np.einsum("bd,btd->bt", center_vecs, out_vecs)
                    np.minimum(np.maximum(dots, -60.0, out=dots), 60.0, out=dots)
                    g = lrs[batch, None] * (labels - 1.0 / (1.0 + np.exp(-dots)))
                    g[:, 1:][dropped[batch]] = 0.0
                    np.einsum("bt,btd->bd", g, out_vecs, out=updates[: len(g), 0])
                    np.einsum("bt,bd->btd", g, center_vecs, out=updates[: len(g), 1:])
                    plan.add(weights, b, updates[: len(g)].reshape(-1, cfg.dim))
                del steps, lrs, draws, rows, dropped, plan  # before the next block's draws
    if not np.isfinite(_norms(weights[:V])).all():
        raise ValueError(f"training diverged at learning rate {cfg.lr_initial!r}: a vector is "
                         "non-finite or its norm overflows")

    return EmbeddingModel(terms, weights[:V], corpus.month_key)


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
            handle.write(f"{term} {' '.join(map(repr, np.ndarray.tolist(row)))}\n")


def _rows(rows: list[str], dim: int, line: int, words: dict[str, None]) -> np.ndarray:
    """Components of consecutive vector-file rows, the first on the given line, in one numpy
    conversion; words, the ordered set of earlier rows' words, gains theirs once all pass. Else
    the first check below that a row fails raises, under the first row's line and word. Cheap
    sufficient tests pass clean rows; the word regex and the count run only on their refusal."""
    fresh = dict.fromkeys([row.partition(" ")[0] for row in rows])
    word = next(iter(fresh))
    # a word holds no " ", and every other character \s matches is non-printable
    if not (all(fresh) and "".join(fresh).isprintable()) and not all(map(FIELD.fullmatch, fresh)):
        raise FormatError(f"word {word!r} is empty or holds whitespace", line=line)
    if len(fresh) < len(rows) or not fresh.keys().isdisjoint(words):
        raise FormatError(f"duplicate word {word!r}", line=line)
    comps = [row.partition(" ")[2] for row in rows]
    text = " ".join(comps)
    written = text.isascii() and not any(c in text for c in "_\t\r\x0b\x0c")  # float() reads these
    try:  # loadtxt skips an empty line and strips \x1c-\x1f around a number; float() refuses
        # both. Components led by " " break the count, however a loadtxt splits their line.
        if (not (written and all(comps)) or any(c in text for c in "\x1c\x1d\x1e\x1f")
                or any(map(str.startswith, comps, repeat(" ")))):
            raise ValueError
        # one line per row: loadtxt refuses a row whose column count differs from the first's,
        # so the shape stands for each row's count of dim spaces
        matrix = np.loadtxt(comps, np.float64, delimiter=" ", comments=None, ndmin=2)
        if matrix.shape != (len(rows), dim):
            raise ValueError
    except ValueError:  # the first rule, in order, that a row breaks
        if any((count := row.count(" ")) != dim for row in rows):
            raise DimensionMismatch(f"row has {count} components, header says {dim}",
                                    line=line) from None
        if not written:
            raise FormatError(f"number in a form never written, in row {word!r}",
                              line=line) from None
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
