"""Artifact files: the one module that opens a file or frames a model.

Files are written by :func:`atomic_open` and read by :func:`read_text`,
and every text reader splits lines with :func:`read_lines`. Tables are a
header line plus one line per row, cells joined by tabs; a bad row is
reported as ``<path>:<line>: <problem>``. Models are JSON under a format
marker and version; a missing key, wrong shape or non-finite number in
one raises :class:`ModelFormatError` naming the path.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

T = TypeVar("T")

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a model file is missing, malformed, or mismatched."""


@contextmanager
def atomic_open(path) -> Iterator[TextIO]:
    """Write text to ``.<name>.<pid>.tmp`` beside ``path``, creating the
    directory, and move it over ``path`` only if the block succeeds.

    On an exception the temp file is deleted and ``path`` keeps its old
    bytes. The temp file gets the umask's permissions, as ``open(path,
    "w")`` would. Nothing is fsynced: this guards against a stage that
    dies or raises mid-write, not against a power cut.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """The UTF-8 text of ``path``, newlines as they are on disk; a byte
    that is not UTF-8 raises ValueError naming the file and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None


def write_tsv(path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of cell strings."""
    with atomic_open(path) as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def read_lines(path) -> list[str]:
    """The lines of ``path``'s text. A line ends at ``\n`` and nowhere
    else, and a ``\r`` just before the ``\n`` is dropped."""
    return read_text(path).replace("\r\n", "\n").split("\n")


def read_table(path, header: Sequence[str]) -> list[tuple[int, list[str]]]:
    """The line number and cells of every row after a header that must
    equal ``header``. Blank lines are skipped; a row of the wrong width
    raises ValueError naming the file and line."""
    lines = [(lineno, line.split("\t"))
             for lineno, line in enumerate(read_lines(path), 1)
             if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    lineno, cells = lines[0]
    if cells != list(header):
        raise ValueError(
            f"{path}:{lineno}: expected header {list(header)}, got {cells}"
        )
    for lineno, cells in lines[1:]:
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"got {len(cells)}"
            )
    return lines[1:]


def read_tsv(path, header: Sequence[str],
             parse_row: Callable[[list[str]], T]) -> list[T]:
    """``parse_row`` of each row of :func:`read_table`; its ValueError,
    KeyError or IndexError raises ValueError naming the file and line."""
    rows = []
    for lineno, cells in read_table(path, header):
        try:
            rows.append(parse_row(cells))
        except (ValueError, KeyError, IndexError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def save_json_model(path, format_name: str, body: dict) -> None:
    """Write ``body`` under the format marker as one line of sorted JSON."""
    doc = {"format": format_name, "format_version": FORMAT_VERSION, **body}
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_json_model(path, format_name: str,
                    build: Callable[[dict], T]) -> T:
    """Parse a model file, check its marker and version, and ``build`` it.

    A KeyError, TypeError or ValueError from ``build`` becomes a
    ModelFormatError naming the file and, for a KeyError, the missing key.
    """
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != format_name:
        raise ModelFormatError(f"{path}: not a {format_name} file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {doc.get('format_version')!r}"
        )
    try:
        return build(doc)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def finite_array(values, key: str, shape: tuple) -> np.ndarray:
    """``values`` as a float array of ``shape``; ModelFormatError naming
    ``key`` if one is not a number, the count does not fit, or one is NaN
    or infinite."""
    try:
        arr = np.asarray(values, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{key}: {exc}") from None
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"{key}: non-finite value")
    return arr
