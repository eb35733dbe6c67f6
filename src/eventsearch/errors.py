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


class _Absent(EventSearchError):
    """A missing value, alone in args so that a pickle round trip keeps it: "message: 'value'"."""

    def __str__(self):
        return f"{self.message}: {self.args[0]!r}"


class OutOfVocabulary(_Absent):
    """A term is absent from the embedding model."""

    message = "term not in vocabulary"
    term = property(lambda self: self.args[0])


class FormatError(_LineError):
    """A persisted file violates its documented format."""


class UnknownDocument(_Absent):
    """A doc_id is not present in the index."""

    message = "unknown document"
    doc_id = property(lambda self: self.args[0])


class EmptySeed(EventSearchError):
    """The seed keyword list is empty after normalization."""


class AllStopwords(EventSearchError):
    """Every seed term is a stop word, so no expansion is possible."""


class NotInQuery(_Absent):
    """A term belongs to neither the seed nor the expansion of a query."""

    message = "term not in query"
    term = property(lambda self: self.args[0])


class UndefinedBaseline(EventSearchError):
    """Recall increase is undefined when the seed-only query retrieves nothing."""
