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
its cosets {x : x(c) = u}.  A canonical code of two or more words has
L(d) = (q^d - 1)/(q - 1), the least vertex of weight d = d(C), as its
second word (the min-distance lemma), so the children of {0} are decided
without the table and every code below {0, L(d)} keeps minimum distance
d.  Deeper nodes of one size have their children decided a block at a
time over pair cosets, the rows that send a codeword to 0 and one at
distance d from it to L(d): one gather over the pairs inside each C
rejects most candidates by the batch lemma, and each survivor is
rescanned only on its new pair cosets and the old ones that tie it.  The
mover test and a Found stabiliser read the same cosets {x : x(0) = u},
one per u to which a fixer of Γ1(C) can send 0; the U(C) prune often
leaves only u in C, which settles the mover test unread.  The search
runs that prune once per block of codes in depth-first order
(``_kernels.fixer_cosets`` answers each code of a block as it would
alone) and scans only the codes it leaves, in the same order, stopping
at the first hit, so the hit is the one a test of each code in turn
finds.  A scan sieves each coset's rows a block of Γ1(C)'s columns at a
time (``_kernels._fixer_rows``), dropping only rows that are no fixers.

The traversal always runs to exhaustion (no early exit), so the
certificate counts every canonical code; "Found" is the first hit in
depth-first order.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .autgroup import (
    Group,
    _digits,
    _point_keys,
    _points,
    _sort_keys,
    _stab0_keys,
    _vertices,
    stab0_action_table,
)
from .caps import ResourceCapError, check_table_bytes, group_cap, vertex_cap
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

def _least(q: int, w: int) -> int:
    """L(w) = (q^w - 1)/(q - 1), the least vertex of weight w."""
    return (q**w - 1) // (q - 1)


class _SearchSpace:
    """Shared read-only arrays for one (m, q, delta) search.

    Every node of the walk contains vertex 0, so the search never holds the
    table of all of Aut(H(m,q)): it holds the table of Stab(0), the
    stabiliser of vertex 0, built in closed form, and reaches each coset
    {x : x(c) = u} = {s_u h t_c : h in Stab(0)} through one translation
    array, ``minus[c, x] = x - c`` digit by digit mod q: t_c is the row
    ``minus[c]``, and s_u, v -> v + u, the row ``minus[minus[u, 0]]``.
    ``minus`` is its one q^m x q^m array: distances are read off it as
    d(c, x) = ``weight[minus[c, x]]``, ``weight`` the vector of Hamming
    weights.  It also holds the neighbour rows ``adj``, unsorted, and for
    the canonicity kernel the representatives ``rep`` and the tables
    ``pair_table(d)`` of the pair cosets (see
    _kernels.canonical_children).  Raises ValueError when delta > m, and
    ResourceCapError when the space, the order of Stab(0) or the bytes of
    one of its tables or of ``minus`` are over their caps, before that
    array is allocated.
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
        check_table_bytes(self.n, self.n, 4)
        # minus[c, x] = x - c and weight[v] = wt(v), built one digit position
        # j at a time in place: minus viewed as the (c, x) digit grid gains
        # (x_j - c_j mod q) q^(m-1-j), so no other q^m x q^m array exists
        self.minus = np.zeros((self.n, self.n), dtype=np.int32)
        self.weight = np.zeros(self.n, dtype=np.int16)
        steps = np.arange(q, dtype=np.int32)
        for j in range(m):
            high, low = q**j, q ** (m - 1 - j)
            grid = self.minus.reshape(high, q, low, high, q, low)
            grid += ((steps - steps[:, None]) % q * low)[:, None, None, :, None]
            self.weight.reshape(high, q, low)[:, 1:] += 1
        # adjacency rows: adj[v] = v + e for the m(q-1) vertices e of weight 1
        self.adj = self.minus[self.minus[:, :1], np.flatnonzero(self.weight == 1)]
        # rep[y]: a row of Stab(0) sending y to L(wt y), found by a scan of
        # the table a few vertices at a time
        least = np.array([_least(q, w) for w in range(m + 1)], dtype=np.int32).take(self.weight)
        by_vertex = self.stab0.T
        self.rep = np.empty(self.n, dtype=np.int32)
        step = max(1, (1 << 20) // rows)
        for lo in range(0, self.n, step):
            self.rep[lo : lo + step] = (by_vertex[lo : lo + step] == least[lo : lo + step, None]).argmax(axis=1)
        self._pair_tables: dict[int, np.ndarray] = {}

    def pair_table(self, d: int) -> np.ndarray:
        """The vertex-major table of K_d = Stab(0) ∩ Stab(L(d)), built on first use."""
        if d not in self._pair_tables:
            least = _least(self.q, d)
            by_vertex = self.stab0.T
            fixers = np.flatnonzero(by_vertex[least] == least)
            check_table_bytes(fixers.size, self.n, 4)
            self._pair_tables[d] = by_vertex[:, fixers]
        return self._pair_tables[d]

    def stabiliser(self, code: list[int]) -> Group:
        """The setwise stabiliser of Γ1(C) in Aut(H(m,q)), members in generate_group order.

        Its members are the elements s_u h, in the cosets that
        _kernels.fixer_cosets lists (the ones the mover test scans), that
        map Γ1(C) into Γ1(C); being bijections, they fix it.  Each is
        composed as "h then s_u" on point rows (autgroup._points) and
        packed as a key, and the keys are sorted by value, which is
        generate_group order.
        """
        m, q = self.m, self.q
        nb, off = _kernels.fixer_cosets([code], self.adj)
        us, rows = zip(*_kernels._fixer_rows(self.stab0, np.asarray(code), nb[0], off[0], self.minus, self.adj))
        us, rows = np.repeat(us, [r.size for r in rows]), np.concatenate(rows)
        # s_u sends the point (s, a) to (s, a + u_s mod q)
        shift = (np.arange(q) + _digits(m, q, us)[1][..., None]) % q
        s_u = (np.arange(0, m * q, q)[:, None] + shift).reshape(len(us), m * q)
        h = _points(_stab0_keys(rows, m, q), m, q)
        return Group(m, q, None, _sort_keys(_point_keys(np.take_along_axis(s_u, h, axis=1), m, q)))


def _check_parameters(m: int, q: int, delta: int, max_size: int | None, threads: int = 1) -> None:
    if m < 1 or q < 2 or delta < 1:
        raise ValueError(f"bad parameters m={m} q={q} delta={delta}")
    if max_size is not None and max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _canonical_codes(space: _SearchSpace, max_size: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Depth first from {0}: every canonical code of at least two words, with
    its minimum distance, each code before its children; {0} itself is
    neither tested nor yielded.

    By the min-distance lemma (see _kernels.canonical_children) the
    canonical children of {0} are the {0, L(d)} for delta <= d <= m, and
    every code below {0, L(d)} has minimum distance d: its children are C +
    [v] for each v > max C at distance >= d from every codeword, the others
    being non-canonical.  A root {0, L(d)} with no candidates is a leaf,
    so the walk builds the table of K_d only for a d whose kernel it calls.

    A node is [code, rest (its parent's candidates after it), children],
    the children None until decided; reaching such a node, the walk decides
    it and the next nodes of its size's FIFO in one kernel call (_decide).
    Depth-order lemma: each FIFO fills in depth-first order, so the node
    reached heads its FIFO.  By induction on the size: nodes of one size
    are decided in that order, each appending its children in order, and
    depth-first order visits a node's subtree before any later node of its
    size.  A verdict reads only its parent and candidate: the codes come as
    with one call a node."""
    limit = space.n if max_size is None else max_size
    for d in range(space.delta, space.m + 1):
        least = _least(space.q, d)
        cand = np.flatnonzero((space.weight >= d) & (space.weight.take(space.minus[least]) >= d))
        cand = cand[cand > least].astype(np.int32)
        root = [[0, least], cand, None if limit > 2 and cand.size else ()]
        stack, waiting = [root], {2: deque([root])}
        while stack:
            node = stack.pop()
            yield node[0], d
            if node[2] is None:
                _decide(space, waiting, len(node[0]), d, limit)
            stack.extend(reversed(node[2]))


def _decide(space: _SearchSpace, waiting: dict, k: int, d: int, limit: int) -> None:
    """Decide the children of the head of FIFO ``waiting[k]`` and of the next
    nodes while |K_d| k^2 (k + the longest rest) a node, about the cells of
    its old pair cosets, fits _CHILD_CELLS.  A node's candidates are the
    vertices of its rest at distance >= d from its last word."""
    fifo, rows = waiting[k], space.pair_table(d).shape[1]
    block, most = [fifo.popleft()], 0
    while fifo:
        most = max(most, block[-1][1].size, fifo[0][1].size)
        if rows * k * k * (k + most) * (len(block) + 1) > _kernels._CHILD_CELLS:
            break
        block.append(fifo.popleft())
    codes, rest = np.array([node[0] for node in block], dtype=np.int32), np.concatenate([node[1] for node in block])
    owner = np.arange(len(block)).repeat([node[1].size for node in block])
    far = space.weight.take(space.minus[codes[:, -1].take(owner), rest]) >= d
    cand, owner = rest[far], owner[far]
    starts = owner.searchsorted(np.arange(len(block) + 1))  # node b's candidates: starts[b] to starts[b + 1]
    live = (starts[1:] > starts[:-1]).nonzero()[0]
    for node in block:
        node[1:] = None, []  # its rest read, its children to come
    if live.size:
        keep = _kernels.canonical_children(space, codes[live], cand, starts[np.append(live, len(block))])
        fifo, ends, kept = waiting.setdefault(k + 1, deque()), starts[1:].tolist(), keep.nonzero()[0]
        for i, b, v in zip(kept.tolist(), owner[kept].tolist(), cand[kept].tolist()):
            leaf = i + 1 == ends[b] or k + 1 >= limit
            node = [block[b][0] + [v], None if leaf else cand[i + 1 : ends[b]], () if leaf else None]
            block[b][2].append(node)
            if not leaf:
                fifo.append(node)


def enumerate_codes(m: int, q: int, delta: int, max_size: int | None = None) -> Iterator[Code]:
    """One representative per equivalence class of codes with |C| >= 2 and
    pairwise distance >= delta, in canonical depth-first order."""
    _check_parameters(m, q, delta, max_size)
    space = _SearchSpace(m, q, delta)
    vertices = _vertices(np.arange(space.n), m, q)  # each vertex decoded once
    for code, _ in _canonical_codes(space, max_size):
        yield Code(tuple(vertices[v] for v in code))


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
    automorphism group.  A hit does not end the traversal; Found reports
    the first hit in depth-first order together with that full stabiliser.
    With ``max_size`` the walk grows no code past that many words, and a
    NoneExhaustive outcome covers only that size-bounded tree.  The walk is
    serial: ``threads`` must be at least 1 and has no effect.
    """
    start = time.perf_counter()
    _check_parameters(m, q, delta, max_size, threads)
    filters = ("parity",) if parity_filter else ()

    def cert(outcome, examined=0, max_seen=0, found=None):  # the fields in SearchCertificate's order
        return SearchCertificate(m, q, delta, outcome, examined, max_seen, found, filters, time.perf_counter() - start)

    if parity_filter and delta == 3 and (m * (q - 1)) % 2 == 1:
        # no elusive pair can have delta=3 with m(q-1) odd, a case of the
        # spectral lemma.  Let A be the adjacency matrix of H(m,q) and let C
        # have minimum distance >= 3: no two codewords are adjacent and a
        # vertex of Γ1(C) is adjacent to exactly one, so A 1_C = 1_{Γ1(C)}.
        # An x fixing Γ1(C) then gives A(1_C - 1_{C^x}) = 0.  The
        # eigenvalues of A are θ_j = (q-1)m - qj, j = 0..m (Brouwer, Cohen
        # and Neumaier, Distance-Regular Graphs, §9.2), and since
        # gcd(q, q-1) = 1 one is zero only when q | m.  So for q ∤ m, A is
        # invertible and C^x = C.  m(q-1) odd means m odd and q even, so
        # q ∤ m.  tests/test_search.py::
        # test_no_elusive_pair_when_q_does_not_divide_m checks q ∤ m by
        # complete searches.
        return cert("NoneExhaustive")
    if delta > m:
        return cert("NoneExhaustive")
    try:
        space = _SearchSpace(m, q, delta)
    except ResourceCapError:
        return cert("Aborted")

    examined = max_seen = 0
    hit, block = None, []
    per_block = max(1, _kernels._PRUNE_CELLS // space.n)
    for code, cur_min in _canonical_codes(space, max_size):
        examined += 1
        max_seen = max(max_seen, len(code))
        if hit is None and cur_min == delta:
            block.append(code)
            if len(block) == per_block:
                hit, block = _first_hit(space, block), []
    if hit is None and block:
        hit = _first_hit(space, block)
    if hit is None:
        return cert("NoneExhaustive", examined, max_seen)
    return cert("Found", examined, max_seen, (_code_at(hit, m, q), space.stabiliser(hit)))


def _first_hit(space: _SearchSpace, block: list[list[int]]) -> list[int] | None:
    """The first code of ``block`` that a fixer of its Γ1(C) moves, or None.

    One U(C) prune (_kernels.fixer_cosets) settles every code of the block
    whose fixers all lie in the cosets of its codewords; first_mover scans
    the others, given their rows of it, in order up to the first hit."""
    nb, off = _kernels.fixer_cosets(block, space.adj)
    for i in np.flatnonzero(off.any(axis=1)).tolist():
        if _kernels.first_mover(space.stab0, block[i], space.minus, space.adj, (nb[i], off[i])) >= 0:
            return block[i]
    return None


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
