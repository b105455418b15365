"""Exhaustive search for elusive pairs at fixed (m, q, delta).

The decision procedure: a code C with minimum distance delta admits an
elusive pair iff the FULL setwise stabiliser of its neighbour set in
Aut(H(m,q)) moves C — that stabiliser is the weakest group that could
work, so testing it decides the question for every subgroup at once.

Codes are enumerated one per equivalence class by canonical
augmentation: grow by vertex index above the current maximum, keep a
branch only while the sorted index sequence is the lexicographic
minimum over the full automorphism orbit.  Removing the largest element
of a lex-minimal set leaves a lex-minimal set, so every canonical code
is reached from the canonical singleton {0} and pruning non-canonical
nodes loses nothing.  ``_canonical_codes`` is that walk: one serial
depth-first traversal from {0}, which enumeration and the search both
iterate.

Every node therefore contains vertex 0, and the search acts only through
the table of Stab(0) = S_{q-1} wr S_m, the stabiliser of vertex 0, and
its cosets {x : x(c) = u}.  All children of a node are decided in one
batch: one gather over the |C| cosets that send a codeword to 0 rejects
most candidates by the batch lemma, and each survivor is rescanned only
on its own new coset and its tied rows.  The mover test and a Found
stabiliser read the same cosets {x : x(0) = u}, one per u to which a
fixer of Γ1(C) can send 0; the U(C) prune often leaves only u in C,
which settles the mover test unread.  See ``_kernels.fixer_cosets``.

The traversal always runs to exhaustion (no early exit), so the
certificate counts every canonical code; "Found" is the first hit in
depth-first order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .autgroup import (
    Group,
    _compose_keys,
    _digits,
    _row_keys,
    _sort_keys,
    _stab0_coord_perms,
    _translation_keys,
    stab0_action_table,
)
from .caps import ResourceCapError, group_cap, vertex_cap
from .codes import Code, _code_at, format_code
from .hamming import space_size

__all__ = [
    "SearchCertificate",
    "enumerate_codes",
    "search_elusive",
    "format_certificate",
    "write_certificate",
]


# ---------------------------------------------------------------------------
# orderly enumeration

class _SearchSpace:
    """Shared read-only arrays for one (m, q, delta) search.

    Every node of the walk contains vertex 0, so the search never holds the
    table of all of Aut(H(m,q)): it holds the table of Stab(0), the
    stabiliser of vertex 0, built in closed form, and reaches each coset
    {x : x(c) = u} = {s_u h t_c : h in Stab(0)} through the translation
    arrays ``minus[c]`` (v -> v - c) and ``plus[u]`` (v -> v + u), digit by
    digit mod q.  Raises ValueError when delta > m, and ResourceCapError when
    the space, the order of Stab(0) or the bytes of its table are over their
    caps, before the table is allocated.
    """

    def __init__(self, m: int, q: int, delta: int):
        if delta > m:
            raise ValueError(f"need 1 <= delta <= m, got delta={delta}, m={m}")
        self.m, self.q, self.delta = m, q, delta
        self.n = space_size(m, q)
        if self.n > vertex_cap():
            raise ResourceCapError(f"H({m},{q}) too large to enumerate")
        rows = math.factorial(q - 1) ** m * math.factorial(m)
        if rows > group_cap():
            raise ResourceCapError(f"Stab(0) in Aut(H({m},{q})) order {rows} over the group cap")
        self.stab0 = stab0_action_table(m, q)
        powers, entries = _digits(m, q)
        self.minus = (((entries[None, :, :] - entries[:, None, :]) % q) @ powers).astype(np.int32)
        self.plus = (((entries[None, :, :] + entries[:, None, :]) % q) @ powers).astype(np.int32)
        self.dist = (entries[:, None, :] != entries[None, :, :]).sum(axis=2).astype(np.int16)
        # adjacency rows: the m(q-1) neighbouring indices of each vertex, increasing
        self.adj = np.nonzero(self.dist == 1)[1].reshape(self.n, -1).astype(np.int32)

    def stabiliser(self, code: list[int]) -> Group:
        """The setwise stabiliser of Γ1(C) in Aut(H(m,q)), members in full-table row order.

        Its members are the elements s_u h, in the cosets that
        _kernels.fixer_cosets lists (the ones the mover test scans), that
        map Γ1(C) into Γ1(C); being bijections, they fix it.  Each is packed
        as the key of "h then s_u", and the keys are sorted, which is
        full-table row order.
        """
        m, q = self.m, self.q
        nb_mask, us, _ = _kernels.fixer_cosets(code, self.adj)
        imgs = self.stab0.T.take(np.flatnonzero(nb_mask), axis=0)  # h(n) for n in Γ1(C)
        cosets, rows = np.nonzero([nb_mask[self.plus[u]].take(imgs).all(axis=0) for u in us.tolist()])
        h = _row_keys(rows, m, _stab0_coord_perms(q))
        return Group(m, q, None, _sort_keys(_compose_keys(h, _translation_keys(us[cosets], 1, m, q), m, q)))


def _check_parameters(m: int, q: int, delta: int, max_size: int | None, threads: int = 1) -> None:
    if m < 1 or q < 2 or delta < 1:
        raise ValueError(f"bad parameters m={m} q={q} delta={delta}")
    if max_size is not None and max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _canonical_codes(space: _SearchSpace, max_size: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Depth first from {0}: every canonical code of at least two words, with
    its minimum distance, each code before its children.  The children of C
    are C + [v] for each v > max C at distance >= delta from every codeword;
    {0} itself, with minimum distance m, is neither tested nor yielded."""

    def children(code: list[int], arr: np.ndarray, cand: np.ndarray, cur_min: int):
        if not cand.size or (max_size is not None and len(code) >= max_size):
            return
        for pos in np.flatnonzero(_kernels.canonical_children(space.stab0, arr, cand, space.minus)).tolist():
            v = int(cand[pos])
            child = code + [v]
            child_arr = np.array(child, dtype=np.int32)
            child_min = min(cur_min, int(space.dist[v, arr].min()))
            yield child, child_min
            rest = cand[pos + 1 :]
            yield from children(child, child_arr, rest[space.dist[v, rest] >= space.delta], child_min)

    first = np.nonzero(space.dist[0] >= space.delta)[0].astype(np.int32)
    yield from children([0], np.zeros(1, dtype=np.int32), first, space.m)


def enumerate_codes(
    m: int, q: int, delta: int, max_size: int | None = None
) -> Iterator[Code]:
    """One representative per equivalence class of codes with |C| >= 2 and
    pairwise distance >= delta, in canonical depth-first order."""
    _check_parameters(m, q, delta, max_size)
    for code, _ in _canonical_codes(_SearchSpace(m, q, delta), max_size):
        yield _code_at(code, m, q)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class SearchCertificate:
    m: int
    q: int
    delta: int
    outcome: str  # Found | NoneExhaustive | Aborted
    canonical_codes_examined: int
    max_code_size_seen: int
    found_pair: tuple[Code, Group] | None
    filters_applied: tuple[str, ...]
    wall_time: float


def search_elusive(
    m: int,
    q: int,
    delta: int,
    *,
    parity_filter: bool = True,
    threads: int = 1,
    max_size: int | None = None,
) -> SearchCertificate:
    """Exhaustively decide whether (m, q, delta) admits an elusive pair.

    Every enumerated code with minimum distance exactly delta is tested
    against the setwise stabiliser of its neighbour set in the full
    automorphism group.  The traversal is always complete; Found reports
    the first hit in depth-first order together with that full stabiliser.
    The walk is serial: ``threads`` must be at least 1 and has no effect.
    """
    start = time.perf_counter()
    _check_parameters(m, q, delta, max_size, threads)
    filters = ("parity",) if parity_filter else ()

    def cert(outcome, examined=0, max_seen=0, found=None):
        return SearchCertificate(
            m=m,
            q=q,
            delta=delta,
            outcome=outcome,
            canonical_codes_examined=examined,
            max_code_size_seen=max_seen,
            found_pair=found,
            filters_applied=filters,
            wall_time=time.perf_counter() - start,
        )

    if parity_filter and delta == 3 and (m * (q - 1)) % 2 == 1:
        # no elusive pair can have delta=3 with m(q-1) odd
        return cert("NoneExhaustive")
    if delta > m:
        return cert("NoneExhaustive")
    try:
        space = _SearchSpace(m, q, delta)
    except ResourceCapError:
        return cert("Aborted")

    examined = max_seen = 0
    hit = None
    for code, cur_min in _canonical_codes(space, max_size):
        examined += 1
        max_seen = max(max_seen, len(code))
        if hit is None and cur_min == delta:
            if _kernels.first_mover(space.stab0, code, space.plus, space.adj) >= 0:
                hit = code
    if hit is None:
        return cert("NoneExhaustive", examined, max_seen)
    return cert("Found", examined, max_seen, (_code_at(hit, m, q), space.stabiliser(hit)))


def format_certificate(cert: SearchCertificate, *, wall_time: bool = True) -> str:
    pair = cert.found_pair
    lines = [
        f"canonical_codes_examined={cert.canonical_codes_examined}",
        f"delta={cert.delta}",
        f"filters_applied={','.join(cert.filters_applied)}",
        f"found_stabiliser_order={'' if pair is None else pair[1].order}",
        f"m={cert.m}",
        f"max_code_size_seen={cert.max_code_size_seen}",
        f"outcome={cert.outcome}",
        f"q={cert.q}",
    ]
    if wall_time:
        lines.append(f"wall_time_seconds={cert.wall_time:.6f}")
    text = "\n".join(lines) + "\n"
    if pair is not None:
        text += "found_code_begin\n" + format_code(pair[0]) + "found_code_end\n"
    return text


def write_certificate(path, cert: SearchCertificate) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_certificate(cert))
