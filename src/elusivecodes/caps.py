"""Resource caps for the enumerative routines.

Every routine that materialises a vertex set, a group closure, or an
orbit checks its size against a cap first and raises ResourceCapError
instead of thrashing, and checks every vertex-action table's bytes the
same way before building it.  Caps are read from the environment on each
call so tests and long-running drivers can adjust them without re-imports.
"""

from __future__ import annotations

import os

__all__ = [
    "ResourceCapError",
    "vertex_cap",
    "group_cap",
    "orbit_cap",
    "table_bytes_cap",
    "check_table_bytes",
]

_DEFAULT_VERTEX_CAP = 10_000_000
_DEFAULT_GROUP_CAP = 10_000_000
_DEFAULT_ORBIT_CAP = 10_000_000
_DEFAULT_TABLE_BYTES_CAP = 1 << 30


class ResourceCapError(RuntimeError):
    """Raised when an enumeration would exceed a configured cap."""


def _read(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def vertex_cap() -> int:
    """Max number of vertices any routine may enumerate."""
    return _read("ELUSIVECODES_MAX_VERTICES", _DEFAULT_VERTEX_CAP)


def group_cap() -> int:
    """Max group order any routine may list element by element."""
    return _read("ELUSIVECODES_MAX_GROUP", _DEFAULT_GROUP_CAP)


def orbit_cap() -> int:
    """Max orbit length any orbit computation may materialise."""
    return _read("ELUSIVECODES_MAX_ORBIT", _DEFAULT_ORBIT_CAP)


def table_bytes_cap() -> int:
    """Max bytes of any vertex-action table, a search's or a group's, and of
    the keys generate_group lists."""
    return _read("ELUSIVECODES_MAX_TABLE_BYTES", _DEFAULT_TABLE_BYTES_CAP)


def check_table_bytes(rows: int, n: int, itemsize: int) -> None:
    """Raise ResourceCapError if a (rows, n) table of ``itemsize``-byte
    cells is over the table-bytes cap."""
    nbytes = rows * n * itemsize
    if nbytes > table_bytes_cap():
        raise ResourceCapError(f"action table of {nbytes} bytes over the table-bytes cap")
