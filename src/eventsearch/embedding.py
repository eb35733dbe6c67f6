"""Per-month word embeddings: skip-gram with negative sampling at desk scale.

The trainer is deliberately single-threaded and free of stochastic window
shrinking so that a (corpus order, seed) pair always reproduces the same
vectors bit for bit. Models are immutable after construction and safe for
concurrent read-only queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import MonthKey, MonthlyCorpus, Vocabulary
from .errors import (
    DimensionMismatch,
    EmptyVocabulary,
    FormatError,
    NoTrainingPairs,
    OutOfVocabulary,
    ZeroVector,
)
from .textfile import PathOrFile, read_lines, writer

NOISE_POWER = 0.75


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


class EmbeddingModel:
    """Immutable term -> vector map for one monthly partition."""

    def __init__(
        self,
        vectors: dict[str, np.ndarray],
        dim: int,
        month_key: MonthKey | None = None,
        trained_on_docs: int = 0,
    ):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        for term, vec in vectors.items():
            if vec.shape != (dim,):
                raise DimensionMismatch(
                    f"vector for {term!r} has shape {vec.shape}, expected ({dim},)"
                )
        self._vectors = {term: np.array(vec, dtype=np.float64) for term, vec in vectors.items()}
        self.dim = dim
        self.month_key = month_key
        self.trained_on_docs = trained_on_docs

    @property
    def terms(self) -> list[str]:
        """Vocabulary in insertion order (training writes frequency order)."""
        return list(self._vectors)

    def vector(self, term: str) -> np.ndarray:
        if term not in self._vectors:
            raise OutOfVocabulary(term)
        return self._vectors[term].copy()

    def __contains__(self, term: str) -> bool:
        return term in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)


def cosine_similarity(a: Iterable[float], b: Iterable[float]) -> float:
    """dot(a, b) / (|a| |b|), clamped to [-1, 1] against float drift."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"vector lengths differ: {va.shape} vs {vb.shape}")
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity undefined for zero-magnitude vector")
    value = float(np.dot(va, vb)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


def sim(model: EmbeddingModel, i: str, j: str) -> float:
    """Cosine similarity between two vocabulary terms; sim(i, i) is 1.0."""
    if i not in model:
        raise OutOfVocabulary(i)
    if j not in model:
        raise OutOfVocabulary(j)
    if i == j:
        return 1.0
    return cosine_similarity(model._vectors[i], model._vectors[j])


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
    query_vec = model._vectors[term]
    if np.linalg.norm(query_vec) == 0.0:
        raise ZeroVector(f"{term!r} has a zero vector")
    scored = []
    for other, vec in model._vectors.items():
        if other == term:
            continue
        try:
            score = cosine_similarity(query_vec, vec)
        except ZeroVector:  # the query's norm is not zero, so the other's is
            continue
        if score > min_sim:
            scored.append((other, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def negative_sampling_distribution(counts: np.ndarray) -> np.ndarray:
    """Noise distribution proportional to unigram count^0.75, normalized."""
    weights = np.asarray(counts, dtype=np.float64) ** NOISE_POWER
    return weights / weights.sum()


def _sigmoid(x: float) -> float:
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def train(corpus: MonthlyCorpus, cfg: TrainConfig | None = None) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors on one month of titles.

    Context pairs come from a fixed symmetric window and never cross
    document boundaries. Training is deterministic for a given document
    order and cfg.rng_seed.

    Raises EmptyVocabulary if no term survives cfg.min_count, and
    NoTrainingPairs if the windowed corpus yields zero (center, context)
    pairs.
    """
    cfg = cfg or TrainConfig()
    vocab = Vocabulary.from_documents(corpus.documents, min_count=cfg.min_count)
    if len(vocab) == 0:
        raise EmptyVocabulary(f"no term appears >= {cfg.min_count} times")

    sentences = []
    total_pairs = 0
    for doc in corpus.documents:
        ids = [vocab.id_of(t) for t in doc.tokens if t in vocab]
        if len(ids) < 2:
            continue
        sentences.append(np.array(ids, dtype=np.intp))
        n = len(ids)
        for pos in range(n):
            total_pairs += min(n, pos + cfg.window + 1) - max(0, pos - cfg.window) - 1
    if total_pairs == 0:
        raise NoTrainingPairs("window over the corpus yields no (center, context) pairs")

    counts = np.array([vocab.count_of(t) for t in vocab.terms], dtype=np.float64)
    noise_cdf = np.cumsum(negative_sampling_distribution(counts))

    rng = np.random.default_rng(cfg.rng_seed)
    vocab_size = len(vocab)
    syn0 = (rng.random((vocab_size, cfg.dim)) - 0.5) / cfg.dim
    syn1 = np.zeros((vocab_size, cfg.dim))

    total_updates = total_pairs * cfg.epochs
    lr_span = cfg.lr_final - cfg.lr_initial
    step = 0
    for _ in range(cfg.epochs):
        for sent in sentences:
            n = len(sent)
            for pos in range(n):
                center = sent[pos]
                lo = max(0, pos - cfg.window)
                hi = min(n, pos + cfg.window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    context = sent[ctx_pos]
                    lr = cfg.lr_initial + lr_span * (step / total_updates)
                    step += 1

                    center_vec = syn0[center]
                    grad = np.zeros(cfg.dim)
                    draws = np.searchsorted(noise_cdf, rng.random(cfg.negatives))
                    draws = np.minimum(draws, vocab_size - 1)
                    targets = [(context, 1.0)]
                    targets += [(int(t), 0.0) for t in draws if t != context]
                    for target, label in targets:
                        out_vec = syn1[target]
                        g = lr * (label - _sigmoid(float(np.dot(center_vec, out_vec))))
                        grad += g * out_vec
                        syn1[target] = out_vec + g * center_vec
                    syn0[center] = center_vec + grad

    vectors = {term: syn0[vocab.id_of(term)] for term in vocab.terms}
    return EmbeddingModel(
        vectors, dim=cfg.dim, month_key=corpus.month_key, trained_on_docs=len(corpus.documents)
    )


def save_vectors(model: EmbeddingModel, dest: PathOrFile) -> None:
    """Write the model in word2vec text format.

    Header line is "<vocab_size> <dim>"; each row is the word followed by
    its components as shortest round-trip decimals, space-separated.
    """
    with writer(dest) as handle:
        handle.write(f"{len(model)} {model.dim}\n")
        for term in model.terms:
            components = " ".join(repr(float(c)) for c in model._vectors[term])
            handle.write(f"{term} {components}\n")


def load_vectors(source: PathOrFile, month_key: MonthKey | None = None) -> EmbeddingModel:
    """Read a word2vec text file back into an EmbeddingModel.

    Raises FormatError (with the offending line number) on malformed
    content, including nan and inf components, and DimensionMismatch when
    a row's component count differs from the header.
    """
    lines = read_lines(source, "vector")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise FormatError(f"header must be '<vocab_size> <dim>', got {lines[0]!r}", line=1)
    try:
        vocab_size, dim = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"non-integer header fields in {lines[0]!r}", line=1) from None
    if vocab_size < 0 or dim < 1:
        raise FormatError(f"invalid header sizes {vocab_size} {dim}", line=1)
    if len(lines) - 1 != vocab_size:
        raise FormatError(
            f"header promises {vocab_size} rows, file has {len(lines) - 1}", line=len(lines)
        )

    vectors: dict[str, np.ndarray] = {}
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        word = fields[0]
        if not word:
            raise FormatError("row starts with an empty word", line=lineno)
        if word in vectors:
            raise FormatError(f"duplicate word {word!r}", line=lineno)
        if len(fields) - 1 != dim:
            raise DimensionMismatch(
                f"line {lineno}: row has {len(fields) - 1} components, header says {dim}"
            )
        try:
            components = [float(c) for c in fields[1:]]
        except ValueError:
            raise FormatError(f"non-numeric vector component in row {word!r}", line=lineno) from None
        if not all(map(math.isfinite, components)):
            raise FormatError(f"non-finite vector component in row {word!r}", line=lineno)
        vectors[word] = np.array(components, dtype=np.float64)
    return EmbeddingModel(vectors, dim=dim, month_key=month_key)
