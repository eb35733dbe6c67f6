"""Spans around the public functions of each eventsearch layer.

Wrapping happens from the benchmark's side: every loaded ``eventsearch``
module that holds a reference to a wrapped function gets the wrapper in its
place, so calls between layers (``cli`` -> ``embedding.train``,
``evaluation`` -> ``ranking.retrieve``) open nested spans. Spans stay in
memory; the caller writes them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced run; the module is the layer.
TARGETS = (
    ("cli", "main"),
    ("corpus", "ingest"),
    ("corpus", "segment_by_month"),
    ("embedding", "train"),
    ("embedding", "save_vectors"),
    ("embedding", "load_vectors"),
    ("embedding", "most_similar"),
    ("index", "build_index"),
    ("index", "save_index"),
    ("index", "load_index"),
    ("expansion", "expand_query"),
    ("ranking", "retrieve"),
    ("evaluation", "recall_increase"),
)


def _path(value):
    if isinstance(value, (str, os.PathLike)):
        return os.fspath(value)
    return getattr(value, "name", None)


def _month(corpus):
    year, month = corpus.month_key
    return f"{year:04d}-{month:02d}"


def _query(query):
    return {"seed_terms": list(query.seed_terms), "expansion": dict(query.expansion_terms)}


def _scorer(scorer):
    if type(scorer).__name__ == "Bm25":
        return {"kind": "bm25", "k1": scorer.k1, "b": scorer.b}
    return {"kind": "tfidf"}


# What each span records about its call, so that counts can be computed later
# from the generated inputs: which file, which month, which terms.
ATTRS = {
    "cli.main": lambda a: {"command": a["argv"][0]},
    "corpus.ingest": lambda a: {"path": _path(a["lines"])},
    "embedding.train": lambda a: {"month": _month(a["corpus"])},
    "embedding.save_vectors": lambda a: {"path": _path(a["dest"])},
    "embedding.load_vectors": lambda a: {"path": _path(a["source"])},
    "index.build_index": lambda a: {"month": _month(a["corpus"])},
    "index.save_index": lambda a: {"path": _path(a["dest"])},
    "index.load_index": lambda a: {"path": _path(a["source"])},
    "expansion.expand_query": lambda a: {"seed": list(a["seed"]), "k": a["k"],
                                         "min_sim": a["min_sim"]},
    "ranking.retrieve": lambda a: {**_query(a["query"]), "scorer": _scorer(a["scorer"]),
                                   "threshold": a["threshold"]},
}


class Tracer:
    """Records (name, start, end, parent index, attrs) for each wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, func in TARGETS:
            module = sys.modules.get(f"eventsearch.{layer}")
            if module is None:  # a layer the workload never imports does no work
                continue
            original = getattr(module, func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for name, mod in list(sys.modules.items()):
                if name == "eventsearch" or name.startswith("eventsearch."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        describe = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = describe(bound.arguments)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and properly nested, so children never overlap
    and their durations can simply be summed.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
