"""Brute-force reference implementations, independent of the library.

These recompute expected results from raw token lists and raw vectors with
plain Python arithmetic: no inverted index, no postings, no model queries.
They exist so the fast paths can be checked against exhaustive scans.
"""

import math
import re

from util import hand_cosine


def reference_tokenize(text):
    """tokenize by its definition alone: the maximal runs of Unicode letters and digits of the
    lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


def brute_force_retrieve(docs, weights, threshold=0.0, limit=None, bm25=None):
    """Score every document with sum(tf * idf * weight) over the weighted terms.

    df and idf are recounted from scratch by scanning all documents. With
    bm25=(k1, b), the per-term tf*idf is replaced by the saturated variant.
    Returns (doc_id, score, matched) tuples sorted by score desc, doc_id asc.
    """
    n = len(docs)
    idf = {}
    for term in weights:
        df = sum(1 for d in docs if term in d.tokens)
        idf[term] = math.log((n + 1) / (df + 1)) + 1.0
    avgdl = sum(len(d.tokens) for d in docs) / n if n else 0.0

    results = []
    for d in docs:
        score = 0.0
        matched = []
        for term in sorted(weights):
            tf = list(d.tokens).count(term)
            if tf == 0:
                continue
            if bm25 is not None:
                k1, b = bm25
                norm = 1.0 - b + b * (len(d.tokens) / avgdl)
                base = idf[term] * tf * (k1 + 1.0) / (tf + k1 * norm)
            else:
                base = tf * idf[term]
            contribution = base * weights[term]
            matched.append((term, contribution))
            score += contribution
        if score > threshold:
            results.append((d.doc_id, score, matched))
    results.sort(key=lambda r: (-r[1], r[0]))
    if limit is not None:
        results = results[:limit]
    return results


def oracle_expand(vectors, seed_terms, stopwords, k, min_sim):
    """Recompute expansion candidates and weights from raw vectors.

    Returns (per_seed, weights): per-seed candidate lists before merging
    (capped at k, similarity strictly above min_sim, sorted by score then
    term), and the merged term -> max-similarity weight map.
    """
    stops = {t for t in seed_terms if t in stopwords}
    in_vocab = [t for t in seed_terms if t not in stops and t in vectors]
    per_seed = {}
    candidates = set()
    for m in in_vocab:
        scored = []
        for j, vec in vectors.items():
            if j == m:
                continue
            s = hand_cosine(vectors[m], vec)
            if s > min_sim:
                scored.append((j, s))
        scored.sort(key=lambda p: (-p[1], p[0]))
        per_seed[m] = scored[:k]
        for j, _ in per_seed[m]:
            if j not in stopwords and j not in seed_terms:
                candidates.add(j)
    weights = {
        j: max(hand_cosine(vectors[j], vectors[m]) for m in in_vocab) for j in candidates
    }
    return per_seed, weights


MASK64 = (1 << 64) - 1


def splitmix64_mix(z):
    """SplitMix64's finalizer on a Python int, each product masked back to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_doubles(seed):
    """The endless stream of doubles in [0, 1) that SplitMix64 (Steele, Lea & Flood, 2014)
    seeded with mix(seed) yields, as the algorithm is usually written: add gamma to the state,
    mix it, keep the top 53 bits."""
    state = splitmix64_mix(seed)
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        yield (splitmix64_mix(state) >> 11) / 2**53
