"""Brute-force expectations and output checks, independent of eventsearch.

Expected rankings come from scanning every generated token list; expected
expansions come from the raw vectors. Nothing here imports the program.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-9
PRINTED_TOL = 5e-7 + SCORE_TOL  # values the CLI prints with 6 decimals


class Corpus:
    """Scores documents by scanning all of them; no postings."""

    def __init__(self, docs):
        self.docs = docs
        self.sets = [frozenset(d.tokens) for d in docs]
        self.n = len(docs)
        self.avgdl = sum(len(d.tokens) for d in docs) / self.n if self.n else 0.0
        self.df: dict[str, int] = {}
        for token_set in self.sets:
            for t in token_set:
                self.df[t] = self.df.get(t, 0) + 1

    def idf(self, term: str) -> float:
        return math.log((self.n + 1) / (self.df.get(term, 0) + 1)) + 1.0

    def candidates(self, terms) -> int:
        terms = frozenset(terms)
        return sum(1 for s in self.sets if s & terms)

    def scores(self, weights: dict[str, float], scorer: dict) -> dict[str, tuple]:
        """doc_id -> (score, ((term, contribution), ...)) for every document
        holding a weighted term; terms are summed in lexicographic order."""
        terms = frozenset(weights)
        order = sorted(weights)
        out = {}
        for doc, token_set in zip(self.docs, self.sets):
            if not token_set & terms:
                continue
            score, matched = 0.0, []
            for term in order:
                tf = doc.tokens.count(term)
                if tf == 0:
                    continue
                idf = self.idf(term)
                if scorer["kind"] == "bm25":
                    k1, b = scorer["k1"], scorer["b"]
                    norm = 1.0 - b + b * (len(doc.tokens) / self.avgdl)
                    base = idf * tf * (k1 + 1.0) / (tf + k1 * norm)
                else:
                    base = tf * idf
                contribution = base * weights[term]
                matched.append((term, contribution))
                score += contribution
            out[doc.doc_id] = (score, tuple(matched))
        return out

    def kept(self, weights, scorer, threshold) -> dict[str, tuple]:
        return {d: v for d, v in self.scores(weights, scorer).items() if v[0] > threshold}

    def recall(self, seeds, weights, scorer, threshold) -> tuple[int, int, float]:
        """(seed-only hits, expanded hits, increase in %) of a recall_increase call."""
        seed_hits = len(self.kept({t: 1.0 for t in seeds}, scorer, threshold))
        hits = len(self.kept(weights, scorer, threshold))
        return seed_hits, hits, 100.0 * (hits - seed_hits) / seed_hits


class Vectors:
    """Cosines over the raw vector rows."""

    def __init__(self, terms, matrix):
        self.terms = list(terms)
        self.m = np.asarray(matrix, dtype=np.float64)
        self.row = {t: i for i, t in enumerate(self.terms)}
        self.norms = np.sqrt((self.m * self.m).sum(axis=1))

    def cosines(self, term: str) -> np.ndarray:
        """Cosine of term to every row; its own row reads -2 so it never ranks."""
        i = self.row[term]
        out = (self.m @ self.m[i]) / (self.norms * self.norms[i])
        out[i] = -2.0
        return np.clip(out, -1.0, 1.0)

    def neighbours(self, term: str, k: int, min_sim: float) -> list[tuple[str, float]]:
        cos = self.cosines(term)
        above = [(self.terms[j], float(cos[j])) for j in np.flatnonzero(cos > min_sim)]
        above.sort(key=lambda p: (-p[1], p[0]))
        return above[:k]

    def expand(self, seed_terms, k: int, min_sim: float):
        """(neighbours proposed per seed term, term -> delta weight).

        Seeds weigh 1; each merged candidate weighs its largest cosine to
        any seed term. Generated terms are never stop words.
        """
        seeds = list(dict.fromkeys(seed_terms))
        in_vocab = [t for t in seeds if t in self.row]
        proposed = {t: self.neighbours(t, k, min_sim) for t in in_vocab}
        candidates = {j for t in in_vocab for j, _ in proposed[t] if j not in seeds}
        weights = {t: 1.0 for t in seeds}
        for j in candidates:
            weights[j] = max(float(self.cosines(m)[self.row[j]]) for m in in_vocab)
        return proposed, weights


def read_vectors(path):
    """Parse a word2vec text file: (terms, rows as lists of floats, header)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        terms, rows = [], []
        for line in handle:
            fields = line.rstrip("\n").split(" ")
            terms.append(fields[0])
            rows.append([float(x) for x in fields[1:]])
    return terms, rows, (int(header[0]), int(header[1]))


def check_ranking(actual, expected: dict, limit, tol: float, where: str) -> list[str]:
    """Compare (doc_id, score, matched) rows with the expected kept set.

    Documents whose expected scores differ by less than tol may appear in
    either order, and either side of a limit cut.
    """
    want = sorted(expected.items(), key=lambda kv: (-kv[1][0], kv[0]))
    if limit is not None:
        want = want[:limit]
    if len(actual) != len(want):
        return [f"{where}: {len(actual)} results, expected {len(want)}"]
    errors, seen = [], set()
    for pos, (doc_id, score, matched) in enumerate(actual):
        if doc_id in seen or doc_id not in expected:
            errors.append(f"{where}: unexpected or repeated document {doc_id} at rank {pos + 1}")
            continue
        seen.add(doc_id)
        exp_score, exp_matched = expected[doc_id]
        if abs(score - exp_score) > tol or abs(exp_score - want[pos][1][0]) > tol:
            errors.append(f"{where}: {doc_id} scored {score!r} at rank {pos + 1}, "
                          f"expected {exp_score!r} there {want[pos][1][0]!r}")
        if [t for t, _ in matched] != [t for t, _ in exp_matched] or any(
            abs(a - b) > tol for (_, a), (_, b) in zip(matched, exp_matched)
        ):
            errors.append(f"{where}: {doc_id} term contributions {matched} != {exp_matched}")
        if len(errors) > 5:
            break
    return errors


def check_weights(actual: dict, expected: dict, tol: float, where: str) -> list[str]:
    if set(actual) != set(expected):
        return [f"{where}: expansion terms {sorted(actual)} != {sorted(expected)}"]
    bad = [t for t in actual if abs(actual[t] - expected[t]) > tol]
    return [f"{where}: weight of {t} {actual[t]!r} != {expected[t]!r}" for t in bad]


# ------------------------------------------------------------- CLI output


def parse_search(text: str):
    rows = []
    for line in text.splitlines():
        _, doc_id, score, pairs = line.split("\t")
        matched = tuple((p.rsplit(":", 1)[0], float(p.rsplit(":", 1)[1]))
                        for p in pairs.split(",") if p)
        rows.append((doc_id, float(score), matched))
    return rows


def parse_eval(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out.setdefault(key, value)  # the closing summary line repeats seed_hits
    expansion = {}
    for item in out.get("expansion_terms", "").split():
        term, weight = item.rsplit(":", 1)
        expansion[term] = float(weight)
    out["expansion"] = expansion
    return out


def parse_expand(text: str):
    """(seed terms in order, expansion term -> weight, expansion order)."""
    seeds, weights, order = [], {}, []
    for line in text.splitlines():
        term, weight, kind = line.split("\t")
        if kind == "seed":
            seeds.append(term)
        else:
            weights[term] = float(weight)
            order.append(term)
    return seeds, weights, order


def parse_neighbors(text: str):
    return [(t, float(s)) for t, s in (line.split("\t") for line in text.splitlines())]
