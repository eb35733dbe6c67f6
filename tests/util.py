"""Shared fixtures and independent oracles used across test modules.

Everything here recomputes expectations from raw math or raw token lists,
never through the code paths under test.
"""

import io
import math
from datetime import date

import numpy as np

from eventsearch.corpus import ItemDocument, MonthlyCorpus
from eventsearch.expansion import ExpandedQuery

WORD_POOL = [f"w{i:02d}" for i in range(40)]


class Unseekable(io.BytesIO):
    """Bytes read as from a pipe: no going back to the start."""

    def seekable(self):
        return False


def date_failing_to_write(year, month, day, folder, listings):
    """A date, so every partition rule takes it, whose isoformat (which a save calls to write
    it) appends the sorted file names in folder to listings, then raises OSError as a write
    failing midway would."""

    class FailingDate(date):
        def isoformat(self):
            listings.append(sorted(p.name for p in folder.iterdir()))
            raise OSError("no space left on device")

    return FailingDate(year, month, day)


def corpus_from_token_lists(token_lists, month=(2018, 2)):
    """MonthlyCorpus whose doc titles are exactly the given token lists."""
    year, mon = month
    docs = tuple(
        ItemDocument(f"d{i:04d}", date(year, mon, 1 + i % 28), "", " ".join(tokens))
        for i, tokens in enumerate(token_lists)
    )
    return MonthlyCorpus((year, mon), docs)


def hand_cosine(u, v):
    """Cosine from first principles; the oracle for similarity checks."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def cooccurrence_corpus(n_docs=500, seed=0):
    """Corpus where 'a' and 'b' share every document and 'c' never meets them.

    Even documents pair a and b with a filler from one pool; odd documents
    put c among fillers from a disjoint pool, so a and b share contexts
    while c shares nothing with them: sim(a, b) must dominate sim(a, c).
    """
    rng = np.random.default_rng(seed)
    ab_fillers = [f"f{i:02d}" for i in range(15)]
    c_fillers = [f"g{i:02d}" for i in range(15)]
    lists = []
    for i in range(n_docs):
        if i % 2 == 0:
            lists.append(["a", "b", str(rng.choice(ab_fillers))])
        else:
            picks = rng.choice(c_fillers, size=3, replace=False)
            lists.append(["c", *map(str, picks)])
    return corpus_from_token_lists(lists)


def drift_corpora():
    """Two monthly partitions with opposite co-occurrence for probe word 'p'.

    In month 1 the probe p co-occurs with partner a, and p and a appear
    interchangeably across one small context pool while outsider b lives
    entirely in a disjoint pool; month 2 swaps a and b. Trained per month,
    p's nearest neighbor must be that month's partner.
    """
    context = [f"c{i}" for i in range(5)]
    elsewhere = [f"d{i}" for i in range(5)]

    def month(partner, outsider, pm):
        lists = [["p", partner]] * 5
        for c in context:
            lists += [["p", c]] * 20 + [[partner, c]] * 20
        for d in elsewhere:
            lists += [[outsider, d]] * 40
        return corpus_from_token_lists(lists, month=pm)

    return month("a", "b", (2018, 2)), month("b", "a", (2018, 8))


DRIFT_CONFIG = dict(negatives=10, epochs=10)


def random_docs(rng, n_docs, pool=WORD_POOL, month=(2018, 2)):
    """Corpus of n_docs with pool-drawn categories and 2..10-token titles."""
    year, mon = month
    docs = []
    for i in range(n_docs):
        title = " ".join(str(w) for w in rng.choice(pool, size=int(rng.integers(2, 11))))
        category = str(rng.choice(pool))
        docs.append(
            ItemDocument(
                f"d{i:03d}", date(year, mon, int(rng.integers(1, 29))), category, title
            )
        )
    return MonthlyCorpus(month, tuple(docs))


def random_query(rng, pool=WORD_POOL, max_expansion=3):
    """Query with 1..3 pool seeds and up to max_expansion weighted terms."""
    n_seed = int(rng.integers(1, 4))
    seeds = [str(w) for w in rng.choice(pool, size=n_seed, replace=False)]
    others = [w for w in pool if w not in seeds]
    expansion = {}
    for w in rng.choice(others, size=int(rng.integers(0, max_expansion + 1)), replace=False):
        expansion[str(w)] = float(rng.uniform(0.601, 1.0))
    return ExpandedQuery(tuple(seeds), expansion)


def query_weights(query):
    """term -> delta map of a query, for feeding the brute-force oracle."""
    weights = {term: 1.0 for term in query.seed_terms}
    weights.update(query.expansion_terms)
    return weights
