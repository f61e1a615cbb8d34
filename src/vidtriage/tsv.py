"""Tab-separated tables: the one writer and reader of every pipeline table.

A table is a header line followed by one line per row, cells joined by
tabs. The reader checks the header and every row's width, and reports a
bad row as ``<path>:<line>: <problem>``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def write_tsv(path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Write a header and rows of cell strings, creating the parent dir."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def read_tsv(path, header: Sequence[str],
             parse_row: Callable[[list[str]], T]) -> list[T]:
    """Parse every row after a header that must equal ``header``.

    Blank lines are skipped. A row of the wrong width, or one whose
    ``parse_row`` raises ValueError, KeyError or IndexError, raises
    ValueError naming the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line.rstrip("\n").split("\t"))
                 for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    lineno, cells = lines[0]
    if cells != list(header):
        raise ValueError(
            f"{path}:{lineno}: expected header {list(header)}, got {cells}"
        )
    rows = []
    for lineno, cells in lines[1:]:
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"got {len(cells)}"
            )
        try:
            rows.append(parse_row(cells))
        except (ValueError, KeyError, IndexError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows
