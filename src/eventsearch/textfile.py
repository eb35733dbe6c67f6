"""Reading and writing the package's text artifacts: index and vector files.

Both are UTF-8 with a "\\n" after every line. A path is written atomically:
readers see the old file or the complete new one, never a partial write.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

from .errors import FormatError

PathOrFile = Union[str, Path, IO[str]]


def read_lines(source: PathOrFile, kind: str) -> list[str]:
    """The lines of a complete artifact, without their newlines.

    Raises FormatError for an empty file, and for one whose last line has no
    newline: that file was cut in the middle of a line.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="\n") as handle:
            text = handle.read()
    else:
        text = source.read()
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
