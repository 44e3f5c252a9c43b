"""The kit's canonical JSON writer: sorted keys, 2-space indent, trailing newline.

Every document a command writes, and every campaign report, goes through
``stream_json`` (or ``canonical_json``, the join of its pieces), so
identical runs are byte-identical.  Standard library only, so a command
that writes JSON loads no BIST module for it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable
from typing import Any

SCHEMA_VERSION = 1

# How ``json`` writes a scalar of each exact type.
_encode_str = json.encoder.encode_basestring
_SCALAR_TEXT = {
    str: _encode_str,
    int: repr,
    float: lambda value: float.__repr__(value) if math.isfinite(value) else json.dumps(value),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _TextRows:
    """A list that arrives row by row as JSON text: ``rows(inner)`` yields
    each row's items joined for a list whose item lines start with ``inner``
    (``"," + inner`` between two), or "" for a row with none."""

    def __init__(self, rows: Callable[[str], Iterable[str]]) -> None:
        self.rows = rows


def canonical_json(obj: Any) -> str:
    """Canonical serialization: sorted keys, 2-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, with a ``_TextRows`` written as the list
    it stands for: the join of ``stream_json``'s pieces."""
    chunks: list[str] = []
    stream_json(obj, chunks.append)
    return "".join(chunks)


def stream_json(obj: Any, emit: Callable[[str], None]) -> None:
    """Emit the pieces whose join is ``canonical_json(obj)``, in order; the walk
    raises only on a value that ``json.dumps`` rejects, after the pieces before it."""
    _write(obj, "\n", "", emit)
    emit("\n")


def _write(value: Any, newline: str, head: str, emit: Callable[[str], None]) -> None:
    """Emit ``head`` and then ``value`` as indented JSON, for a level whose
    lines start with ``newline``.  ``json`` indents with its pure-Python
    encoder, so this walks the kit's own types itself: a dict with str keys
    key by key, a list or tuple item by item, a ``_TextRows`` one piece per
    row, a scalar of exact type (``str``, ``int``, ``float``, ``bool``,
    ``None``) as ``json`` writes it.  Any other value (a subclass, an
    unknown object, a dict whose first sorted key is not a str: sorting
    fails on a str beside any other key) goes to _dump."""
    kind = type(value)
    text = _SCALAR_TEXT.get(kind)
    if text:
        emit(head + text(value))
        return
    if kind not in (dict, list, tuple, _TextRows):
        return _dump(value, newline, head, emit)
    if not value:
        emit(head + ("{}" if kind is dict else "[]"))
        return
    inner = newline + "  "
    separator = "," + inner
    if kind is dict:
        items = sorted(value.items())
        if not isinstance(items[0][0], str):
            return _dump(value, newline, head, emit)
        opener = head + "{" + inner
        for key, child in items:
            key = _encode_str(key)
            text = _SCALAR_TEXT.get(type(child))
            if text:
                emit(f"{opener}{key}: {text(child)}")
            else:
                _write(child, inner, f"{opener}{key}: ", emit)
            opener = separator
        emit(newline + "}")
        return
    if kind is _TextRows:
        # One piece per row that holds items; with none, the list is empty.
        opener = head + "[" + inner
        for text in value.rows(inner):
            if text:
                emit(opener + text)
                opener = separator
        emit(newline + "]" if opener is separator else head + "[]")
        return
    opener = head + "[" + inner
    for child in value:
        _write(child, inner, opener, emit)
        opener = separator
    emit(newline + "]")


def _dump(value: Any, newline: str, head: str, emit: Callable[[str], None]) -> None:
    """``_write`` for any value by ``json.dumps``, re-indented to this level:
    exact, as ``json`` writes a newline only to indent (never in a string)."""
    text = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)
    emit(head + text.replace("\n", newline))
