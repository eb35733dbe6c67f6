"""Seed-keyword expansion with embedding neighbors.

Each non-stop seed term proposes up to k neighbors whose similarity is
strictly above min_sim; merged candidates are weighted by their maximum
similarity to any non-stop seed term. Those weights later feed the
per-term delta factor of the ranking formula.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .corpus import format_month, tokenize
from .embedding import EmbeddingModel, _integer, _neighbors
from .errors import AllStopwords, EmptySeed, NotInQuery
from .textfile import reader

log = logging.getLogger(__name__)

DEFAULT_K = 4
DEFAULT_MIN_SIM = 0.6


class StopwordList:
    """Set of lowercase function words; built-in list ships as a data file."""

    def __init__(self, words: Iterable[str]):
        cleaned = set()
        for word in words:
            if word != word.lower() or any(ch.isspace() for ch in word) or not word:
                raise ValueError(f"stop words must be lowercase and whitespace-free: {word!r}")
            cleaned.add(word)
        self._words = frozenset(cleaned)

    @classmethod
    @cache  # parsed once per process and shared: the list is immutable
    def built_in(cls) -> "StopwordList":
        text = resources.files("eventsearch").joinpath("data/stopwords.txt").read_text("utf-8")
        return cls._parse(text.splitlines())

    @classmethod
    def from_file(cls, path: str | Path) -> "StopwordList":
        with reader(path) as handle:
            return cls._parse(handle)

    @classmethod
    def _parse(cls, lines: Iterable[str]) -> "StopwordList":
        words = []
        for raw in lines:
            line = raw.strip()
            if line and not line.startswith("#"):
                words.append(line)
        return cls(words)

    def __contains__(self, word: str) -> bool:
        return word in self._words

    def __iter__(self):
        return iter(sorted(self._words))

    def __len__(self) -> int:
        return len(self._words)


@dataclass(frozen=True)
class ExpandedQuery:
    """Seed terms (delta 1) plus expansion terms with weights in (min_sim, 1]."""

    seed_terms: tuple[str, ...]
    expansion_terms: dict[str, float]

    def all_terms(self) -> set[str]:
        return set(self.seed_terms) | set(self.expansion_terms)

    def delta(self, term: str) -> float:
        """1.0 for seed terms (stop words included), the merged max-sim
        weight for expansion terms."""
        if term in self.seed_terms:
            return 1.0
        if term in self.expansion_terms:
            return self.expansion_terms[term]
        raise NotInQuery(term)

    def without_expansion(self) -> "ExpandedQuery":
        return ExpandedQuery(self.seed_terms, {})


def seed_only_query(
    seed: Iterable[str],
    k: int = DEFAULT_K,
    min_sim: float = DEFAULT_MIN_SIM,
) -> ExpandedQuery:
    """Normalized query with an empty expansion map (no model involved).

    Seed entries are tokenized and deduplicated, keeping first-seen order. k and min_sim
    take no part in it, but they must be valid for expand_query.
    """
    if not 1 <= _integer("k", k) <= 4:
        raise ValueError(f"k must be in 1..4, got {k}")
    if not 0.0 < min_sim < 1.0:
        raise ValueError(f"min_sim must be in (0, 1), got {min_sim}")
    terms: list[str] = []
    seen = set()
    for raw in seed:
        for token in tokenize("", raw):
            if token not in seen:
                seen.add(token)
                terms.append(token)
    if not terms:
        raise EmptySeed("no seed terms left after normalization")
    return ExpandedQuery(tuple(terms), {})


def expand_query(
    seed: Iterable[str],
    model: EmbeddingModel,
    stopwords: StopwordList | None = None,
    k: int = DEFAULT_K,
    min_sim: float = DEFAULT_MIN_SIM,
) -> ExpandedQuery:
    """Expand seed keywords with embedding neighbors.

    Each non-stop seed term in the model vocabulary proposes, from one cosine scan, up to k
    candidates with similarity strictly above min_sim; stop words and seed terms are dropped.
    A candidate j weighs max(sim(j, m)) over the non-stop seed terms m, read from their scans,
    so at least the score that proposed it. expansion_terms is by weight descending, then term.

    Raises EmptySeed for an empty seed and AllStopwords when every seed
    term is a stop word. Seed terms missing from the vocabulary contribute
    no candidates but stay in the query.
    """
    query = seed_only_query(seed, k, min_sim)
    stopwords = stopwords if stopwords is not None else StopwordList.built_in()
    content_terms = [t for t in query.seed_terms if t not in stopwords]
    if not content_terms:
        raise AllStopwords(f"every seed term is a stop word: {list(query.seed_terms)}")

    in_vocab = [t for t in content_terms if t in model]
    month = "" if model.month_key is None else f"{format_month(model.month_key)} "
    for missing in (t for t in content_terms if t not in model):
        log.warning("seed term %r not in %svocabulary, skipping expansion for it", missing, month)

    scans = [_neighbors(model, term, k, min_sim) for term in in_vocab]  # the only cosines
    candidates = {n for neighbors, _ in scans for n, _ in neighbors
                  if n not in stopwords and n not in query.seed_terms}
    weighted = {j: float(max(scan[model._rows[j]] for _, scan in scans)) for j in candidates}
    ordered = dict(sorted(weighted.items(), key=lambda item: (-item[1], item[0])))
    return ExpandedQuery(query.seed_terms, ordered)


def format_expansion(query: ExpandedQuery) -> str:
    """One line per term: "<term>\\t<weight>\\t<seed|expansion>".

    Seed terms come first in input order, then expansion terms by weight
    descending (ties lexicographic); weights carry 6 decimal places.
    """
    lines = [f"{term}\t{1.0:.6f}\tseed" for term in query.seed_terms]
    ranked = sorted(query.expansion_terms.items(), key=lambda item: (-item[1], item[0]))
    lines += [f"{term}\t{weight:.6f}\texpansion" for term, weight in ranked]
    return "\n".join(lines)
