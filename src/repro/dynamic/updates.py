"""Parsing, normalisation and application of graph update operations.

The serve layer and the ``repro dynamic`` CLI accept updates in two forms:

* **tuples** — ``("add_edge", u, v)``, ``("remove_edge", u, v)``,
  ``("add_vertex", u)``, ``("remove_vertex", u)``, with the short aliases
  ``"+"`` / ``"-"`` for the edge operations, and
* **script lines** — one operation per line, e.g.::

      # comments and blank lines are ignored
      add 1 2
      remove 3 4
      add-vertex 99
      remove-vertex 7
      + 5 6
      - 1 2

Labels that parse as integers become ``int`` (matching the edge-list reader
used everywhere else); everything else stays a string.  :func:`apply_updates`
applies a batch to a graph; an engine then catches up with
:meth:`repro.engine.MQCEEngine.sync`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from ..errors import ReproError


class UpdateError(ReproError, ValueError):
    """Raised for malformed update operations or scripts."""


class UpdateOp(NamedTuple):
    """One normalised update operation."""

    op: str
    u: object
    v: object = None


#: Accepted spellings for each operation (script tokens and tuple tags).
_ALIASES = {
    "add_edge": "add_edge", "add": "add_edge", "+": "add_edge",
    "remove_edge": "remove_edge", "remove": "remove_edge", "-": "remove_edge",
    "del": "remove_edge",
    "add_vertex": "add_vertex", "add-vertex": "add_vertex", "+v": "add_vertex",
    "remove_vertex": "remove_vertex", "remove-vertex": "remove_vertex",
    "-v": "remove_vertex",
}

_EDGE_OPS = ("add_edge", "remove_edge")


def _coerce_label(token):
    if isinstance(token, str):
        try:
            return int(token)
        except ValueError:
            return token
    return token


def normalise_update(entry) -> UpdateOp:
    """Normalise one tuple/list/UpdateOp entry into an :class:`UpdateOp`."""
    if isinstance(entry, UpdateOp):
        return entry
    try:
        tag, *operands = entry
    except TypeError as exc:
        raise UpdateError(f"an update must be a (op, ...) sequence, got {entry!r}") from exc
    op = _ALIASES.get(str(tag).lower())
    if op is None:
        raise UpdateError(f"unknown update operation {tag!r}; "
                          f"expected one of {sorted(set(_ALIASES.values()))}")
    expected = 2 if op in _EDGE_OPS else 1
    if len(operands) != expected:
        raise UpdateError(f"{op} takes {expected} operand(s), got {len(operands)}: {entry!r}")
    operands = [_coerce_label(token) for token in operands]
    return UpdateOp(op, *operands)


def parse_updates(lines: Iterable[str]) -> list[UpdateOp]:
    """Parse an update script (an iterable of lines) into operations."""
    updates: list[UpdateOp] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            updates.append(normalise_update(line.split()))
        except UpdateError as exc:
            raise UpdateError(f"line {number}: {exc}") from None
    return updates


def read_update_script(path) -> list[UpdateOp]:
    """Read and parse an update script file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_updates(handle)


def apply_updates(graph, updates: Iterable) -> None:
    """Apply a batch of update operations (tuples or :class:`UpdateOp`) to ``graph``."""
    for entry in updates:
        update = normalise_update(entry)
        mutator = getattr(graph, update.op)
        if update.v is None:
            mutator(update.u)
        else:
            mutator(update.u, update.v)
