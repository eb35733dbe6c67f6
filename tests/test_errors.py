"""The package's exception types."""

import pickle

import pytest

from eventsearch import errors

_CLASSES = [value for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.EventSearchError)
            and not name.startswith("_")]
_ABSENT = {errors.OutOfVocabulary: ("term", "term not in vocabulary"),
           errors.UnknownDocument: ("doc_id", "unknown document"),
           errors.NotInQuery: ("term", "term not in query")}


def _instances(cls):
    if cls in _ABSENT:
        return [cls("abc")]
    if issubclass(cls, errors._LineError):
        return [cls("bad row"), cls("bad row", line=7)]
    return [cls("something went wrong")]


@pytest.mark.parametrize("exc", [exc for cls in _CLASSES for exc in _instances(cls)],
                         ids=lambda exc: f"{type(exc).__name__}-{getattr(exc, 'line', None)}")
def test_pickle_round_trip_keeps_the_error(exc):
    """A process pool hands errors back pickled: type, message and attributes survive."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    for attribute in ("line", "term", "doc_id"):
        assert getattr(back, attribute, None) == getattr(exc, attribute, None)


@pytest.mark.parametrize("cls", list(_ABSENT))
def test_absent_value_message_and_attribute(cls):
    field, message = _ABSENT[cls]
    exc = cls("it's")
    assert str(exc) == f"{message}: \"it's\""
    assert getattr(exc, field) == "it's"
    assert exc.args == ("it's",)

