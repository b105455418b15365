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
nodes loses nothing.

Every node therefore contains vertex 0, and the search acts only through
the table of Stab(0) = S_{q-1} wr S_m, the stabiliser of vertex 0, and
its cosets {x : x(c) = u}.  The canonicity test scans the |C| cosets
that send a codeword to 0, the mover test scans only the cosets the U(C)
prune leaves (often none), and a Found stabiliser is collected from the
|Γ1(C)| cosets that send min Γ1(C) into Γ1(C); see ``_kernels``.

The traversal always runs to exhaustion (no early exit), which makes
the certificate counts independent of the worker count; "Found" is the
first hit in deterministic branch order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .autgroup import (
    Automorphism,
    Group,
    _compose_keys,
    _digits,
    _row_keys,
    _sort_keys,
    _stab0_coord_perms,
    _translation_keys,
    apply,
    stab0_action_table,
)
from .caps import ResourceCapError, group_cap, vertex_cap
from .codes import Code, _code_at, format_code, min_distance
from .hamming import Vertex, distance, space_size, sphere

__all__ = [
    "PreSet",
    "PartitionCheck",
    "SearchCertificate",
    "common_neighbours",
    "fourth_vertex",
    "pre_codewords",
    "check_partition_lemma",
    "enumerate_codes",
    "search_elusive",
    "format_certificate",
    "write_certificate",
]


# ---------------------------------------------------------------------------
# the distance-2 geometry behind the pruning lemmas

def common_neighbours(a: Vertex, b: Vertex) -> frozenset[Vertex]:
    """The two shared neighbours of a pair at distance 2."""
    if distance(a, b) != 2:
        raise ValueError("common neighbours are only taken at distance exactly 2")
    i, j = (k for k in range(a.m) if a.entries[k] != b.entries[k])
    return frozenset((a.replace(i, b.entries[i]), a.replace(j, b.entries[j])))


def fourth_vertex(a: Vertex, mu: Vertex, nu: Vertex) -> Vertex:
    """The unique b with common_neighbours(a, b) == {mu, nu}.

    mu and nu must be neighbours of a at mutual distance 2; b takes
    mu's change and nu's change simultaneously.
    """
    if distance(a, mu) != 1 or distance(a, nu) != 1 or distance(mu, nu) != 2:
        raise ValueError("need two neighbours of a at mutual distance 2")
    (i,) = (k for k in range(a.m) if a.entries[k] != mu.entries[k])
    (j,) = (k for k in range(a.m) if a.entries[k] != nu.entries[k])
    return a.replace(i, mu.entries[i]).replace(j, nu.entries[j])


@dataclass(frozen=True)
class PreSet:
    """Vertices at distance 2 from ``base`` that the mover sends back into the code."""

    base: Vertex
    mover: Automorphism
    members: frozenset[Vertex]


def pre_codewords(C: Code, x: Automorphism, alpha: Vertex) -> PreSet:
    """All pi with d(alpha, pi) = 2 and pi^x in C.

    Only defined when alpha is a codeword that x moves out of the code,
    and the code has minimum distance at least 3.
    """
    if alpha not in C:
        raise ValueError("alpha must be a codeword")
    if apply(x, alpha) in C:
        raise ValueError("x must move alpha out of the code")
    if min_distance(C) < 3:
        raise ValueError("pre-codewords need minimum distance >= 3")
    members = frozenset(pi for pi in sphere(alpha, 2) if apply(x, pi) in C)
    return PreSet(alpha, x, members)


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of the three partition clauses around one (codeword, mover) pair."""

    passed: bool
    base_partition_ok: bool  # parts Γ1(alpha)∩Γ1(pi) tile Γ1(alpha)
    pre_partition_ok: bool  # for each pi: parts Γ1(pi)∩Γ1(beta) tile Γ1(pi)
    entry_separation_ok: bool  # other pre-codewords change some third entry
    part_sizes_two: bool
    part_count: int
    expected_part_count: float


def _is_partition(parts: Sequence[frozenset[Vertex]], whole: frozenset[Vertex]) -> bool:
    seen: set[Vertex] = set()
    for part in parts:
        if not part or (part & seen):
            return False
        seen.update(part)
    return seen == whole


def check_partition_lemma(C: Code, x: Automorphism, alpha: Vertex) -> PartitionCheck:
    """Check the pre-codeword partition structure at one codeword.

    Verifies that the common-neighbour parts of the pre-codewords tile
    the neighbourhood of alpha, that codeword parts tile each
    pre-codeword's neighbourhood, and that distinct pre-codewords
    disagree with alpha in distinct entry pairs; all parts must have
    size 2.
    """
    pre = pre_codewords(C, x, alpha)
    sphere1_alpha = frozenset(sphere(alpha, 1))
    members = sorted(pre.members)

    base_parts = [sphere1_alpha & frozenset(sphere(pi, 1)) for pi in members]
    base_partition_ok = _is_partition(base_parts, sphere1_alpha)
    sizes_ok = all(len(p) == 2 for p in base_parts)

    pre_partition_ok = True
    for pi in members:
        sphere1_pi = frozenset(sphere(pi, 1))
        codewords_at_2 = [beta for beta in C.words if distance(pi, beta) == 2]
        parts = [sphere1_pi & frozenset(sphere(beta, 1)) for beta in codewords_at_2]
        if not _is_partition(parts, sphere1_pi):
            pre_partition_ok = False
        if not all(len(p) == 2 for p in parts):
            sizes_ok = False

    entry_separation_ok = True
    for pi in members:
        changed = {k for k in range(alpha.m) if alpha.entries[k] != pi.entries[k]}
        for other in members:
            if other == pi:
                continue
            part = sphere1_alpha & frozenset(sphere(other, 1))
            if not any(
                next(k for k in range(alpha.m) if alpha.entries[k] != v.entries[k]) not in changed
                for v in part
            ):
                entry_separation_ok = False

    expected = alpha.m * (alpha.q - 1) / 2
    return PartitionCheck(
        passed=base_partition_ok and pre_partition_ok and entry_separation_ok and sizes_ok,
        base_partition_ok=base_partition_ok,
        pre_partition_ok=pre_partition_ok,
        entry_separation_ok=entry_separation_ok,
        part_sizes_two=sizes_ok,
        part_count=len(base_parts),
        expected_part_count=expected,
    )


# ---------------------------------------------------------------------------
# orderly enumeration

class _SearchSpace:
    """Shared read-only arrays for one (m, q, delta) search.

    Every node of the walk contains vertex 0, so the search never holds the
    table of all of Aut(H(m,q)): it holds the table of Stab(0), the
    stabiliser of vertex 0, built in closed form, and reaches each coset
    {x : x(c) = u} = {s_u h t_c : h in Stab(0)} through the translation
    arrays ``minus[c]`` (v -> v - c) and ``plus[u]`` (v -> v + u), digit by
    digit mod q.  Raises ResourceCapError when the order of Stab(0) or the
    bytes of its table are over their caps, before the table is allocated.
    """

    def __init__(self, m: int, q: int, delta: int):
        self.m, self.q, self.delta = m, q, delta
        self.n = space_size(m, q)
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

    def stabiliser(self, idxs: Sequence[int]) -> Group:
        """The setwise stabiliser of Γ1(C) in Aut(H(m,q)), members in full-table row order.

        With n0 = min Γ1(C), every member maps n0 to some n in Γ1(C), so the
        members are the elements of the |Γ1(C)| cosets
        {x : x(n0) = n} = {s_n h t_n0 : h in Stab(0)} that fix Γ1(C), composed
        as packed keys and sorted by key, which is full-table row order.
        Only the columns of Γ1(C) are read: a bijection that maps Γ1(C) into
        Γ1(C) maps it onto Γ1(C).
        """
        m, q = self.m, self.q
        nb_mask, _ = self.masks(idxs)
        nb = np.nonzero(nb_mask)[0]
        imgs = self.stab0[:, self.minus[nb[0], nb]]  # h(n - n0) for n in Γ1(C)
        # fixes[i, h]: row h of the coset {x : x(n0) = nb[i]} maps Γ1(C) into Γ1(C)
        fixes = [nb_mask[self.plus[n]][imgs].all(axis=1) for n in nb]
        cosets, rows = np.nonzero(np.array(fixes))
        h = _row_keys(rows, m, _stab0_coord_perms(q))
        t_h = _compose_keys(_translation_keys(nb[:1], -1, m, q), h, m, q)
        return Group(m, q, None, _sort_keys(_compose_keys(t_h, _translation_keys(nb[cosets], 1, m, q), m, q)))

    def masks(self, idxs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        code_mask = np.zeros(self.n, dtype=np.uint8)
        arr = np.asarray(idxs, dtype=np.int32)
        code_mask[arr] = 1
        nb_mask = np.zeros(self.n, dtype=np.uint8)
        nb_mask[self.adj[arr].ravel()] = 1
        nb_mask[arr] = 0
        return nb_mask, code_mask


def _check_parameters(m: int, q: int, delta: int, max_size: int | None, threads: int = 1) -> None:
    if m < 1 or q < 2 or delta < 1:
        raise ValueError(f"bad parameters m={m} q={q} delta={delta}")
    if max_size is not None and max_size < 2:
        raise ValueError(f"max_size must be at least 2, got {max_size}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


_Task = tuple[list[int], np.ndarray, int]  # (code, candidates above its maximum, its min distance)


def _prepare(m: int, q: int, delta: int) -> tuple[_SearchSpace, list[_Task]]:
    """The search arrays and the root tasks, one per canonical pair {0, v}.

    Raises ResourceCapError when the space, the group or its table is over
    its cap.
    """
    if delta > m:
        raise ValueError(f"need 1 <= delta <= m, got delta={delta}, m={m}")
    if space_size(m, q) > vertex_cap():
        raise ResourceCapError(f"H({m},{q}) too large to enumerate")
    space = _SearchSpace(m, q, delta)

    idx = np.arange(space.n, dtype=np.int32)
    roots = idx[(idx > 0) & (space.dist[0, idx] >= delta)]
    tasks = []
    for pos in range(roots.size):
        v = int(roots[pos])
        rest = roots[pos + 1 :]
        tasks.append(([0, v], rest[space.dist[v, rest] >= delta], int(space.dist[0, v])))
    return space, tasks


def _walk(
    space: _SearchSpace, code: list[int], cand: np.ndarray, cur_min: int, max_size: int | None
) -> Iterator[tuple[list[int], int]]:
    """Depth first from ``code``: every canonical code in its subtree, with
    its minimum distance."""
    arr = np.array(code, dtype=np.int32)
    if not _kernels.is_canonical(space.stab0, arr, space.minus):
        return
    yield code, cur_min
    if max_size is not None and len(code) >= max_size:
        return
    for pos in range(cand.size):
        v = int(cand[pos])
        rest = cand[pos + 1 :]
        new_cand = rest[space.dist[v, rest] >= space.delta]
        new_min = min(cur_min, int(space.dist[v, arr].min()))
        yield from _walk(space, code + [v], new_cand, new_min, max_size)


def enumerate_codes(
    m: int, q: int, delta: int, max_size: int | None = None
) -> Iterator[Code]:
    """One representative per equivalence class of codes with |C| >= 2 and
    pairwise distance >= delta, in canonical depth-first order."""
    _check_parameters(m, q, delta, max_size)
    space, tasks = _prepare(m, q, delta)
    for task in tasks:
        for code, _ in _walk(space, *task, max_size):
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
    automorphism group.  The traversal is always complete, so the counts
    are identical for any thread count; Found reports the first hit in
    branch order together with that full stabiliser.
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
        space, tasks = _prepare(m, q, delta)
    except ResourceCapError:
        return cert("Aborted")

    def run_task(task: _Task) -> tuple[int, int, list[int] | None]:
        examined = max_seen = 0
        hit = None
        for code, cur_min in _walk(space, *task, max_size):
            examined += 1
            max_seen = max(max_seen, len(code))
            if hit is None and cur_min == delta:
                nb_mask, code_mask = space.masks(code)
                mover = _kernels.first_mover(
                    space.stab0, nb_mask, code_mask, space.minus, space.plus, space.adj
                )
                if mover >= 0:
                    hit = code
        return examined, max_seen, hit

    if threads == 1:
        results = [run_task(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_task, tasks))

    examined = sum(r[0] for r in results)
    max_seen = max((r[1] for r in results), default=0)
    hit = next((r[2] for r in results if r[2] is not None), None)
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
