"""Reading the package's UTF-8 text files, and writing its index, vector and partition files.

Written files end every line with "\\n". A path is written atomically:
readers see the old file or the complete new one, never a partial write.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

from .errors import FormatError

PathOrFile = Union[str, Path, IO[str]]
# a doc_id or term travels as one space-separated field: non-empty, no whitespace
FIELD = re.compile(r"\S+")


@contextmanager
def reader(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """The UTF-8 file at path, less one leading byte order mark, as open() with newline reads
    it. A byte that is not UTF-8 raises FormatError naming path and the first such byte's line."""
    with open(path, encoding="utf-8-sig", newline=newline) as handle, _decoding(handle):
        yield handle


@contextmanager
def _decoding(handle: IO[str]) -> Iterator[IO[str]]:
    """Yields handle, turning a UnicodeDecodeError from reading it into FormatError. The decoder
    saw one chunk, so the bad byte's line comes from re-reading the binary buffer from where the
    handle stood on entry, as an open() handle's can be re-read; else only the byte is named."""
    buffer = getattr(handle, "buffer", None)
    try:  # a UTF-8 handle's tell() is its byte offset; a handle being iterated refuses it
        start = handle.tell() if buffer is not None and buffer.seekable() else None
    except OSError:
        start = None
    try:
        yield handle
    except UnicodeDecodeError as exc:
        name = getattr(handle, "name", "input")
        if start is not None:
            buffer.seek(start)
            data = buffer.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                message = f"{name} is not UTF-8 (byte {data[first.start]:#04x})"
                raise FormatError(message, line=data.count(b"\n", 0, first.start) + 1) from None
        raise FormatError(f"{name} is not {exc.encoding} (byte {exc.object[exc.start]:#04x})")


def read_lines(source: PathOrFile, kind: str) -> list[str]:
    """The lines of a complete artifact, without their newlines.

    Raises FormatError for an empty file, and for one whose last line has no
    newline: that file was cut in the middle of a line.
    """
    is_path = isinstance(source, (str, Path))
    with reader(source, newline="\n") if is_path else _decoding(source) as handle:
        text = handle.read()
    if not text:
        raise FormatError(f"empty {kind} file", line=1)
    lines = text.split("\n")
    if lines.pop() != "":
        raise FormatError(f"{kind} file is truncated inside its last line", line=len(lines) + 1)
    return lines


@contextmanager
def writer(dest: PathOrFile) -> Iterator[IO[str]]:
    """A handle for writing one artifact to dest.

    A file object is written directly. A path is written to a temporary file
    in the same directory, which replaces dest once the body completes and
    is removed if the body raises.
    """
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    temp = f"{dest}.{os.getpid()}.tmp"
    handle = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(temp, dest)
    except BaseException:
        os.remove(temp)
        raise
