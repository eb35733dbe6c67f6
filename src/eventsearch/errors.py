"""Exception types shared across the package."""

from __future__ import annotations


class EventSearchError(Exception):
    """Base class for every error raised by this package."""


class DuplicateDocumentId(EventSearchError):
    """Two records share a doc_id where uniqueness is required."""


class EmptyVocabulary(EventSearchError):
    """No term survived the min_count filter."""


class NoTrainingPairs(EventSearchError):
    """The corpus yields zero (center, context) pairs under the window."""


class ZeroVector(EventSearchError):
    """Cosine similarity is undefined for a zero-magnitude vector."""


class _LineError(EventSearchError):
    """An error that may name the line of a file it was found on, as "line N: " in front."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatch(_LineError):
    """Vector lengths disagree with each other or with a declared dimension."""


class OutOfVocabulary(EventSearchError):
    """A term is absent from the embedding model."""

    def __init__(self, term: str):
        super().__init__(f"term not in vocabulary: {term!r}")
        self.term = term


class FormatError(_LineError):
    """A persisted file violates its documented format."""


class UnknownDocument(EventSearchError):
    """A doc_id is not present in the index."""

    def __init__(self, doc_id: str):
        super().__init__(f"unknown document: {doc_id!r}")
        self.doc_id = doc_id


class EmptySeed(EventSearchError):
    """The seed keyword list is empty after normalization."""


class AllStopwords(EventSearchError):
    """Every seed term is a stop word, so no expansion is possible."""


class NotInQuery(EventSearchError):
    """A term belongs to neither the seed nor the expansion of a query."""

    def __init__(self, term: str):
        super().__init__(f"term not in query: {term!r}")
        self.term = term


class UndefinedBaseline(EventSearchError):
    """Recall increase is undefined when the seed-only query retrieves nothing."""
