"""Reference curve: retrieve latency over corpus size.

    python3 perfbench/curve.py

Builds one generated month per size in SIZES with the search-warm
generator, indexes it in-process, and times a seed-only ``retrieve`` (tf-idf, threshold 0) for
one head, one mid-frequency and one event term, best of three. Prints one
line per (size, term): candidates, milliseconds and microseconds per
candidate. Takes about a minute at these sizes.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from datetime import date
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eventsearch as es  # noqa: E402
from eventsearch.corpus import ItemDocument, MonthlyCorpus  # noqa: E402

import gen  # noqa: E402

SIZES = (2000, 4000, 8000)
SEED = 1


def main() -> int:
    base = replace(gen.SIZES["full"]["search"], head_clusters=1, mid_clusters=1,
                   event_clusters=1, retrieve_ops=0, eval_ops=0)
    print("docs\tband\tterm\tcandidates\tretrieve_ms\tus_per_candidate")
    for n in SIZES:
        month = gen.served(SEED, replace(base, docs=n), "search")
        docs = tuple(ItemDocument.create(d.doc_id, date.fromisoformat(d.date), d.category, d.title)
                     for d in month.docs)
        index = es.build_index(MonthlyCorpus((2018, 12), docs))
        for cluster in month.clusters:
            query = es.seed_only_query([cluster.head])
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                results = es.retrieve(index, query)
                best = min(best, perf_counter() - start)
            print(f"{n}\t{cluster.band}\t{cluster.head}\t{len(results)}\t{best * 1e3:.2f}\t"
                  f"{best * 1e6 / len(results):.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
