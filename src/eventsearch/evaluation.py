"""Recall impact of query expansion at a fixed threshold.

"Recall" here is the retrieved-set size above the threshold; the report
compares the seed-only query against the expanded one under identical
scoring settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import MonthKey, format_month
from .embedding import EmbeddingModel
from .errors import UndefinedBaseline
from .expansion import DEFAULT_K, DEFAULT_MIN_SIM, StopwordList, expand_query
from .index import InvertedIndex
from .ranking import Bm25, ScorerKind, TfIdf, count_hits


@dataclass(frozen=True)
class RecallReport:
    seed_terms: tuple[str, ...]
    expansion_terms: tuple[tuple[str, float], ...]
    seed_hits: int
    expanded_hits: int
    increase_pct: float
    threshold: float
    scorer: ScorerKind
    month_key: MonthKey


def recall_increase(
    index: InvertedIndex,
    seed: list[str],
    model: EmbeddingModel,
    stopwords: StopwordList | None = None,
    k: int = DEFAULT_K,
    min_sim: float = DEFAULT_MIN_SIM,
    threshold: float = 0.0,
    scorer: ScorerKind = TfIdf(),
) -> RecallReport:
    """Count the seed-only query's hits and the expanded query's, and report the growth.

    Raises UndefinedBaseline when the seed-only query retrieves nothing;
    a percentage increase over zero has no meaning.
    """
    query = expand_query(seed, model, stopwords, k=k, min_sim=min_sim)
    seed_hits = count_hits(index, query.without_expansion(), scorer, threshold)
    expanded_hits = count_hits(index, query, scorer, threshold)
    if seed_hits == 0:
        raise UndefinedBaseline("seed-only query retrieved no documents")
    increase_pct = 100.0 * (expanded_hits - seed_hits) / seed_hits
    return RecallReport(
        seed_terms=query.seed_terms,
        expansion_terms=tuple(query.expansion_terms.items()),
        seed_hits=seed_hits,
        expanded_hits=expanded_hits,
        increase_pct=increase_pct,
        threshold=threshold,
        scorer=scorer,
        month_key=index.month_key,
    )


def format_report(report: RecallReport) -> str:
    """Machine-readable key=value lines plus a one-line human summary."""
    expansion = " ".join(f"{t}:{w:.6f}" for t, w in report.expansion_terms)
    scorer = report.scorer
    if isinstance(scorer, Bm25):
        scorer_text = f"bm25(k1={scorer.k1!r},b={scorer.b!r})"
    else:
        scorer_text = "tfidf"
    lines = [
        f"month={format_month(report.month_key)}",
        f"seed_terms={' '.join(report.seed_terms)}",
        f"expansion_terms={expansion}",
        f"threshold={report.threshold!r}",
        f"scorer={scorer_text}",
        f"seed_hits={report.seed_hits}",
        f"expanded_hits={report.expanded_hits}",
        f"increase_pct={report.increase_pct!r}",
        f"seed_hits={report.seed_hits} expanded_hits={report.expanded_hits} "
        f"increase={round(report.increase_pct, 4)}%",
    ]
    return "\n".join(lines)
