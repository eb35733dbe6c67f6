"""Seeded, deterministic inputs for the benchmark workloads.

Everything here depends only on the workload seed and the size profile, so
the same seed always gives byte-identical input files. Generated tokens are
lowercase letters plus digits: they survive the program's tokenizer
unchanged and never collide with an English stop word.

Two kinds of input are made:

* a multi-month raw TSV corpus for ``season-build``, whose embeddings the
  program trains itself;
* one served month for ``search-warm`` and ``cli-session``: a month file
  (indexed by the program before the run), a word2vec text vector file with
  planted neighbour clusters, and a fixed script of operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import brute

# Cosines planted between a cluster head and its members, before jitter.
# Every value stays >= 0.03 away from each MIN_SIMS entry, and neighbouring
# values stay >= 0.03 apart, so neither the min_sim cut nor the top-k cut
# can be decided by the last ulp of a cosine.
MEMBER_COSINES = (0.94, 0.87, 0.80, 0.76, 0.68, 0.63, 0.50)
COSINE_JITTER = 0.01
MIN_SIMS = (0.58, 0.72)
# Distance every decision value (min_sim, score threshold) keeps from the
# values it is compared with.
MARGIN = 1e-6

VECTOR_MIN_COUNT = 3

# season-build documents: plain Zipf titles, titles with an event word,
# planted pair documents, control documents
KIND_SHARES = (0.35, 0.15, 0.3, 0.2)

TRAIN_FLAGS = dict(dim=24, window=2, negatives=4, epochs=2, lr=0.1, min_count=2)


@dataclass(frozen=True)
class Doc:
    doc_id: str
    date: str
    category: str
    tokens: tuple[str, ...]  # category token first, as the program tokenizes

    @property
    def title(self) -> str:
        return " ".join(self.tokens[1:])

    def tsv(self) -> str:
        return f"{self.doc_id}\t{self.date}\t{self.category}\t{self.title}\n"


@dataclass(frozen=True)
class SeasonSize:
    months: tuple[tuple[int, int], ...]
    docs_per_month: tuple[int, ...]
    zipf_vocab: int


@dataclass(frozen=True)
class ServedSize:
    docs: int
    zipf_vocab: int
    filler_terms: int  # vector-file terms that occur in no document
    dim: int
    head_clusters: int
    mid_clusters: int
    event_clusters: int
    retrieve_ops: int
    eval_ops: int


SIZES = {
    "full": {
        "season": SeasonSize(tuple((2018, m) for m in range(7, 13)),
                             (180, 200, 220, 240, 260, 300), 1200),
        "search": ServedSize(1400, 1400, 0, 32, 2, 8, 8, 84, 16),
        "cli": ServedSize(1200, 1500, 3000, 32, 0, 4, 8, 0, 0),
    },
    "tiny": {
        "season": SeasonSize(((2018, 10), (2018, 11), (2018, 12)), (150, 170, 190), 400),
        "search": ServedSize(300, 400, 0, 24, 1, 3, 3, 12, 4),
        "cli": ServedSize(200, 300, 200, 24, 0, 3, 6, 0, 0),
    },
}


def _zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return weights / weights.sum()


def zipf_term(rank: int) -> str:
    return f"w{rank:05d}"


def _fixed_counts(total: int, probs) -> np.ndarray:
    """Whole counts summing to total, each as close to total * p as can be."""
    exact = total * np.asarray(probs, dtype=np.float64)
    counts = np.floor(exact).astype(np.int64)
    # the largest remainders round up
    counts[np.argsort(counts - exact, kind="stable")[:total - int(counts.sum())]] += 1
    return counts


def _zipf_titles(rng, count: int, vocab: int, lo: int, hi: int) -> list[list[str]]:
    """Titles of lo..hi Zipf words.

    The number of titles of each length and the number of times each word
    occurs are fixed by count and vocab, so every seed costs the program the
    same; the seed decides which title gets which words.
    """
    lengths = rng.permutation(lo + np.arange(count) % (hi - lo + 1))
    draws = rng.permutation(np.repeat(np.arange(vocab),
                                      _fixed_counts(int(lengths.sum()), _zipf_probs(vocab))))
    titles, pos = [], 0
    for length in lengths:
        titles.append([zipf_term(int(r)) for r in draws[pos:pos + length]])
        pos += length
    return titles


# ---------------------------------------------------------------- season-build


@dataclass
class Season:
    docs: list[Doc]  # raw corpus order
    months: list[str]  # "YYYY-MM", ascending
    planted: dict[str, tuple[str, str, str]]  # month -> (a, b, control)

    def month_docs(self, month: str) -> list[Doc]:
        return [d for d in self.docs if d.date.startswith(month)]


def season(seed: int, size: SeasonSize) -> Season:
    """Raw corpus over several months.

    Titles draw from one Zipf vocabulary. Each month adds its own event
    words, and a rotating trio of synonyms drifts: in month m, trio[m] and
    trio[m+1] share every document and every context, while trio[m+2]
    (the control) shares none of them.
    """
    rng = np.random.default_rng([seed, 1])
    trio = ("syn0", "syn1", "syn2")
    pair_ctx = [f"pctx{i}" for i in range(8)]
    ctrl_ctx = [f"qctx{i}" for i in range(8)]
    categories = [f"cat{i:02d}" for i in range(12)]
    docs: list[Doc] = []
    planted = {}
    months = []
    for m, ((year, mon), n_docs) in enumerate(zip(size.months, size.docs_per_month)):
        month = f"{year:04d}-{mon:02d}"
        months.append(month)
        a, b, ctrl = trio[m % 3], trio[(m + 1) % 3], trio[(m + 2) % 3]
        planted[month] = (a, b, ctrl)
        events = [f"ev{mon:02d}{x}" for x in "abc"]
        kinds = rng.permutation(np.repeat(np.arange(4), _fixed_counts(n_docs, KIND_SHARES)))
        plain = iter(_zipf_titles(rng, int(np.sum(kinds == 0)), size.zipf_vocab, 3, 6))
        eventful = iter(_zipf_titles(rng, int(np.sum(kinds == 1)), size.zipf_vocab, 2, 5))
        for i, kind in enumerate(kinds):
            if kind == 0:
                category, words = str(rng.choice(categories)), next(plain)
            elif kind == 1:
                # the month's event words take turns, so each occurs equally often
                category = str(rng.choice(categories))
                words = next(eventful) + [events[int(np.sum(kinds[:i] == 1)) % 3]]
            elif kind == 2:
                category = "cpair"
                words = [a, b] + [str(w) for w in rng.choice(pair_ctx, size=2, replace=False)]
            else:
                category = "cctrl"
                words = [ctrl] + [str(w) for w in rng.choice(ctrl_ctx, size=3, replace=False)]
            if kind >= 2:
                words = [words[j] for j in rng.permutation(len(words))]
            day = 1 + int(rng.integers(28))
            docs.append(Doc(f"s{year:04d}{mon:02d}n{i:05d}", f"{month}-{day:02d}", category,
                            (category, *words)))
    order = rng.permutation(len(docs))
    return Season([docs[i] for i in order], months, planted)


def _token_counts(docs: list[Doc]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for doc in docs:
        for t in doc.tokens:
            counts[t] = counts.get(t, 0) + 1
    return counts


def training_pairs(docs: list[Doc], window: int, min_count: int) -> int:
    """(center, context) pairs one epoch visits, counted from the token lists."""
    counts = _token_counts(docs)
    pairs = 0
    for doc in docs:
        n = sum(1 for t in doc.tokens if counts[t] >= min_count)
        if n < 2:
            continue
        for pos in range(n):
            pairs += min(n, pos + window + 1) - max(0, pos - window) - 1
    return pairs


def vocabulary_size(docs: list[Doc], min_count: int) -> int:
    return sum(1 for c in _token_counts(docs).values() if c >= min_count)


# ------------------------------------------------------------- served month


@dataclass
class Cluster:
    head: str
    members: list[str]  # in descending order of planted cosine to the head
    band: str  # "head", "mid" or "event"


@dataclass
class Served:
    month: str
    docs: list[Doc]
    terms: list[str]  # vector-file row order
    vectors: np.ndarray  # (len(terms), dim), exactly as written
    clusters: list[Cluster]
    ops: list[dict] = field(default_factory=list)

    def vector_lines(self) -> list[str]:
        lines = [f"{len(self.terms)} {self.vectors.shape[1]}\n"]
        for term, row in zip(self.terms, self.vectors):
            lines.append(term + " " + " ".join(repr(float(c)) for c in row) + "\n")
        return lines


def _insert(rng, titles: list[list[str]], term: str, n_docs: int) -> None:
    for i in rng.choice(len(titles), size=n_docs, replace=False):
        titles[int(i)].append(term)


def served(seed: int, size: ServedSize, kind: str) -> Served:
    """One month of documents plus planted vectors and an operation script.

    Cluster heads are orthonormal directions; a member is its head
    direction at a planted cosine plus noise orthogonal to every head, and
    every other term lies orthogonal to every head. A head's neighbours are
    therefore exactly its members, at the planted cosines.
    """
    rng = np.random.default_rng([seed, 2 if kind == "search" else 3])
    month = "2018-12"
    titles = _zipf_titles(rng, size.docs, size.zipf_vocab, 3, 7)
    categories = [f"cat{i:02d}" for i in range(24)]
    doc_categories = [str(c) for c in rng.choice(categories, size=size.docs)]

    clusters: list[Cluster] = []
    # Heads sit at fixed Zipf ranks, so every seed gives the same candidate
    # counts to within sampling noise; only the identities of documents move.
    for c in range(size.head_clusters):
        members = [zipf_term(20 + 7 * c + j) for j in range(len(MEMBER_COSINES))]
        clusters.append(Cluster(zipf_term(c), members, "head"))
    for c in range(size.mid_clusters):
        members = [zipf_term(60 + 11 * c + j) for j in range(len(MEMBER_COSINES))]
        clusters.append(Cluster(zipf_term(4 + c), members, "mid"))
    for c in range(size.event_clusters):
        head = f"ev{c:02d}"
        members = [f"ev{c:02d}s{j}" for j in range(len(MEMBER_COSINES))]
        _insert(rng, titles, head, max(3, size.docs * (4 + 3 * c) // 1000))
        for j, member in enumerate(members):
            _insert(rng, titles, member, max(2, size.docs * (2 + j % 4) // 1000))
        clusters.append(Cluster(head, members, "event"))

    docs = []
    for i, (category, title) in enumerate(zip(doc_categories, titles)):
        day = 1 + int(rng.integers(28))
        docs.append(Doc(f"m{i:06d}", f"{month}-{day:02d}", category, (category, *title)))

    # like a trained model, the vector file holds the terms that occur at
    # least VECTOR_MIN_COUNT times, plus every planted cluster term
    seen = dict.fromkeys(t for t, c in _token_counts(docs).items() if c >= VECTOR_MIN_COUNT)
    for cl in clusters:
        for t in (cl.head, *cl.members):
            seen.setdefault(t, None)
    for i in range(size.filler_terms):
        seen.setdefault(f"f{i:06d}", None)
    terms = [list(seen)[i] for i in rng.permutation(len(seen))]
    row = {t: i for i, t in enumerate(terms)}

    dim = size.dim
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    heads, rest = basis[:, :len(clusters)], basis[:, len(clusters):]

    def orthogonal_noise() -> np.ndarray:
        v = rest @ rng.standard_normal(rest.shape[1])
        return v / np.linalg.norm(v)

    vectors = np.empty((len(terms), dim))
    for t, i in row.items():
        vectors[i] = orthogonal_noise() * rng.uniform(0.5, 2.0)
    for c, cl in enumerate(clusters):
        vectors[row[cl.head]] = heads[:, c] * rng.uniform(0.5, 2.0)
        for member, base in zip(cl.members, MEMBER_COSINES):
            cos = base + rng.uniform(-COSINE_JITTER, COSINE_JITTER)
            vec = cos * heads[:, c] + math.sqrt(1.0 - cos * cos) * orthogonal_noise()
            vectors[row[member]] = vec * rng.uniform(0.5, 2.0)
    # what the file holds is what every reader sees: round-trip through repr
    vectors = np.array([[float(repr(float(x))) for x in r] for r in vectors])

    out = Served(month, docs, terms, vectors, clusters)
    out.ops = _search_ops(rng, out, size) if kind == "search" else _cli_ops(rng, out)
    _check_margins(out)
    return out


def _clear_threshold(scores: list[float], quantile: float) -> float:
    """A threshold near the given score quantile, >= MARGIN from every score."""
    distinct = sorted(set(scores))
    if len(distinct) < 2:
        return 0.0
    start = min(len(distinct) - 2, int(quantile * (len(distinct) - 1)))
    for i in range(start, -1, -1):
        lo, hi = distinct[i], distinct[i + 1]
        if hi - lo > 4 * MARGIN:
            return (lo + hi) / 2
    return 0.0


def _scorer_spec(i: int) -> dict:
    if i % 2 == 0:
        return {"kind": "tfidf"}
    k1, b = ((1.2, 0.75), (1.6, 0.5))[(i // 2) % 2]
    return {"kind": "bm25", "k1": k1, "b": b}


def _search_ops(rng, out: Served, size: ServedSize) -> list[dict]:
    """Fixed mix of expand+retrieve and recall_increase operations.

    Seeds range from Zipf head terms (thousands of candidate documents)
    through mid-frequency terms (hundreds) to event terms (tens).
    """
    by_band = {band: [c.head for c in out.clusters if c.band == band]
               for band in ("head", "mid", "event")}
    taken = {band: 0 for band in by_band}
    members = {c.head: c.members for c in out.clusters}

    def take(band: str) -> str:
        # cycle through each band, so every seed's mix holds the same clusters
        pool = by_band[band] or by_band["mid"]
        taken[band] += 1
        return pool[(taken[band] - 1) % len(pool)]

    ctx = brute.Corpus(out.docs)
    vecs = brute.Vectors(out.terms, out.vectors)
    ops = []
    for i in range(size.retrieve_ops):
        slot = i % 50
        band = "head" if slot < 3 else "mid" if slot < 28 else "event"
        seed_terms = [take(band)]
        if i % 3 == 0:
            seed_terms.append(take("event" if band != "event" else "mid"))
        elif i % 6 == 1:
            # a head with one of its own members: their neighbour lists
            # overlap and include each other, so fewer terms merge than
            # are proposed, and weights take the larger of two cosines
            seed_terms.append(members[seed_terms[0]][(i // 6) % 3])
        op = {"op": "retrieve", "seed": " ".join(seed_terms), "k": (4, 3, 2)[(i // 3) % 3],
              "min_sim": MIN_SIMS[0] if i % 7 < 5 else MIN_SIMS[1],
              "scorer": _scorer_spec(i), "limit": 10 if i % 4 in (1, 2) else None,
              "threshold": 0.0}
        if i % 5 == 4:
            weights = vecs.expand(op["seed"].split(), op["k"], op["min_sim"])[1]
            scores = [s for s, _ in ctx.scores(weights, op["scorer"]).values()]
            op["threshold"] = _clear_threshold(scores, 0.5)
        ops.append(op)
    for i in range(size.eval_ops):
        op = {"op": "eval", "seed": take("mid" if i % 2 == 0 else "event"),
              "k": (4, 2)[i % 2], "min_sim": MIN_SIMS[(i // 2) % 2],
              "scorer": _scorer_spec(i + 1), "threshold": 0.0}
        if i % 4 == 3:
            seed_scores = [s for s, _ in ctx.scores({op["seed"]: 1.0}, op["scorer"]).values()]
            weights = vecs.expand([op["seed"]], op["k"], op["min_sim"])[1]
            expanded = [s for s, _ in ctx.scores(weights, op["scorer"]).values()]
            # below the best seed-only score, so the seed-only query keeps a hit
            op["threshold"] = _clear_threshold(seed_scores + expanded, 0.3)
            if not any(s > op["threshold"] for s in seed_scores):
                op["threshold"] = 0.0
        ops.append(op)
    return [ops[i] for i in rng.permutation(len(ops))]


def _cli_ops(rng, out: Served) -> list[dict]:
    """Fixed CLI script over narrow seeds: search, eval, expand, neighbors.

    Every seed uses the same clusters, so scripts of different seeds cost
    the same to within sampling noise; only documents and vectors differ.
    """
    e = [c.head for c in out.clusters if c.band == "event"]
    m = [c.head for c in out.clusters if c.band == "mid"]
    tfidf = {"kind": "tfidf"}
    ops = [
        {"op": "search", "seed": e[0], "k": 4, "min_sim": MIN_SIMS[0], "scorer": tfidf,
         "limit": None, "threshold": 0.0},
        {"op": "search", "seed": f"{e[1]} {e[2]}", "k": 3, "min_sim": MIN_SIMS[1],
         "scorer": {"kind": "bm25", "k1": 1.2, "b": 0.75}, "limit": 10, "threshold": 0.0},
        {"op": "search", "seed": e[3], "k": 2, "min_sim": MIN_SIMS[0],
         "scorer": {"kind": "bm25", "k1": 1.6, "b": 0.5}, "limit": None, "threshold": 0.0},
        {"op": "search", "seed": m[0], "k": 4, "min_sim": MIN_SIMS[1], "scorer": tfidf,
         "limit": 20, "threshold": 0.0},
        {"op": "eval", "seed": e[4], "k": 4, "min_sim": MIN_SIMS[0], "scorer": tfidf,
         "threshold": 0.0},
        {"op": "eval", "seed": e[5], "k": 2, "min_sim": MIN_SIMS[1],
         "scorer": {"kind": "bm25", "k1": 1.2, "b": 0.75}, "threshold": 0.0},
        {"op": "eval", "seed": m[1], "k": 3, "min_sim": MIN_SIMS[0], "scorer": tfidf,
         "threshold": 0.0},
        {"op": "expand", "seed": e[0], "k": 4, "min_sim": MIN_SIMS[0]},
        {"op": "expand", "seed": f"{e[1]} {m[2]}", "k": 3, "min_sim": MIN_SIMS[1]},
        {"op": "expand", "seed": f"{e[2]} {e[2]}s1", "k": 2, "min_sim": MIN_SIMS[0]},
        {"op": "neighbors", "word": e[3], "k": 5, "min_sim": MIN_SIMS[0]},
        {"op": "neighbors", "word": m[2], "k": 3, "min_sim": MIN_SIMS[1]},
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def _check_margins(out: Served) -> None:
    """Refuse inputs whose outcome the last ulp of a cosine could flip."""
    vecs = brute.Vectors(out.terms, out.vectors)
    for op in out.ops:
        seeds = [op["word"]] if op["op"] == "neighbors" else op["seed"].split()
        for term in seeds:
            if term not in vecs.row:
                raise ValueError(f"generator bug: seed term {term!r} has no vector")
            cosines = vecs.cosines(term)
            for min_sim in MIN_SIMS:
                if np.any(np.abs(cosines - min_sim) < MARGIN):
                    raise ValueError(f"generator bug: a cosine of {term!r} sits on {min_sim}")
            above = np.sort(cosines[cosines > op["min_sim"]])[::-1]
            if len(above) > 1 and np.any(np.diff(above[:op["k"] + 1]) > -MARGIN):
                raise ValueError(f"generator bug: near-tied neighbours of {term!r}")
