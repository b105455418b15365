"""Automorphisms of H(m, q): the semidirect product S_q^m x| S_m.

An automorphism is a tuple (g_1, ..., g_m; sigma): first each entry is
mapped through its coordinate permutation, then positions are permuted,
so the entry at position j of the image comes from position sigma^-1(j).
The convention is a right action: ``compose(x, y)`` means "x then y",
and apply(compose(x, y), v) == apply(y, apply(x, v)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import perms
from .caps import ResourceCapError, check_table_bytes, group_cap, orbit_cap
from .hamming import Vertex, space_size
from .perms import Perm

__all__ = [
    "Automorphism",
    "Group",
    "identity_automorphism",
    "apply",
    "compose",
    "inverse",
    "diag",
    "top",
    "wreath_embed",
    "generate_group",
    "orbit",
    "diag_top_generators",
    "wreath_generators",
    "full_group_generators",
    "parse_automorphism",
    "format_automorphism",
    "vertex_action_table",
    "full_action_table",
    "stab0_action_table",
    "full_group_element",
    "stab0_group_element",
    "full_group_row",
]


@dataclass(frozen=True)
class Automorphism:
    """(coord_maps; position_map): entry permutations, then a position shuffle."""

    coord_maps: tuple[Perm, ...]
    position_map: Perm

    def __post_init__(self) -> None:
        if not self.coord_maps:
            raise ValueError("need at least one coordinate permutation")
        q = self.coord_maps[0].degree
        for p in self.coord_maps:
            if p.degree != q:
                raise ValueError("coordinate permutations must share one degree")
        if self.position_map.degree != len(self.coord_maps):
            raise ValueError(
                f"position map degree {self.position_map.degree} != {len(self.coord_maps)} coordinates"
            )

    @property
    def m(self) -> int:
        return len(self.coord_maps)

    @property
    def q(self) -> int:
        return self.coord_maps[0].degree

    @cached_property
    def _sources(self) -> tuple[int, ...]:
        # _sources[j] = position feeding entry j of the image
        return perms.inverse(self.position_map).images

    @cached_property
    def sort_key(self) -> tuple[int, ...]:
        """Concatenated image arrays of (g_1, ..., g_m, sigma); canonical order key."""
        key: tuple[int, ...] = ()
        for p in self.coord_maps:
            key += p.images
        return key + self.position_map.images

    def is_identity(self) -> bool:
        return all(not perms.cycles(p) for p in self.coord_maps) and not perms.cycles(
            self.position_map
        )

    def __str__(self) -> str:
        return format_automorphism(self)


def identity_automorphism(m: int, q: int) -> Automorphism:
    return Automorphism((perms.identity(q),) * m, perms.identity(m))


def apply(x: Automorphism, v: Vertex) -> Vertex:
    """Image of v under x: entries mapped coordinate-wise, then repositioned."""
    if x.q != v.q or x.m != v.m:
        raise ValueError(f"automorphism of H({x.m},{x.q}) applied to vertex of H({v.m},{v.q})")
    ent = v.entries
    cm = x.coord_maps
    return Vertex(tuple(cm[s].images[ent[s]] for s in x._sources), v.q)


def compose(x: Automorphism, y: Automorphism) -> Automorphism:
    """The automorphism 'x then y'."""
    if x.m != y.m or x.q != y.q:
        raise ValueError("cannot compose automorphisms of different spaces")
    sigma = x.position_map
    coord = tuple(
        perms.compose(x.coord_maps[i], y.coord_maps[sigma.images[i]]) for i in range(x.m)
    )
    return Automorphism(coord, perms.compose(sigma, y.position_map))


def inverse(x: Automorphism) -> Automorphism:
    inv_sigma = perms.inverse(x.position_map)
    coord = tuple(perms.inverse(x.coord_maps[inv_sigma.images[j]]) for j in range(x.m))
    return Automorphism(coord, inv_sigma)


def diag(y: Perm, m: int) -> Automorphism:
    """Same alphabet permutation in every coordinate, positions untouched."""
    return Automorphism((y,) * m, perms.identity(m))


def top(z: Perm, q: int | None = None) -> Automorphism:
    """Pure position permutation; the alphabet size defaults to the degree of z."""
    if q is None:
        q = z.degree
    return Automorphism((perms.identity(q),) * z.degree, z)


def wreath_embed(parts: Sequence[Automorphism], block_perm: Perm) -> Automorphism:
    """Embed l automorphisms of H(m,q), plus a block shuffle, into H(lm,q).

    Block k owns coordinates km..km+m-1.  Part k acts inside block k,
    then whole blocks are permuted by block_perm.
    """
    if not parts:
        raise ValueError("need at least one block part")
    m, q = parts[0].m, parts[0].q
    for p in parts:
        if p.m != m or p.q != q:
            raise ValueError("all block parts must act on the same H(m,q)")
    l = len(parts)
    if block_perm.degree != l:
        raise ValueError(f"block permutation degree {block_perm.degree} != {l} blocks")
    coord: list[Perm] = []
    images = [0] * (l * m)
    for k in range(l):
        part = parts[k]
        for i in range(m):
            coord.append(part.coord_maps[i])
            images[m * k + i] = m * block_perm.images[k] + part.position_map.images[i]
    return Automorphism(tuple(coord), Perm(tuple(images)))


@dataclass(frozen=True)
class Group:
    """A subgroup of Aut(H(m,q)) given by generators, with elements when enumerated."""

    m: int
    q: int
    generators: tuple[Automorphism, ...]
    elements: tuple[Automorphism, ...] | None = None

    def __post_init__(self) -> None:
        for g in self.generators:
            if g.m != self.m or g.q != self.q:
                raise ValueError("generator acts on the wrong space")

    @property
    def order(self) -> int | None:
        return None if self.elements is None else len(self.elements)

    def identity(self) -> Automorphism:
        return identity_automorphism(self.m, self.q)

    @cached_property
    def table(self) -> np.ndarray:
        """vertex_action_table of the elements, rows in element order; built once."""
        if self.elements is None:
            raise ResourceCapError("acting through the table needs an enumerated group")
        check_table_bytes(len(self.elements), space_size(self.m, self.q))
        return vertex_action_table(self.elements, self.m, self.q)


def generate_group(
    gens: Iterable[Automorphism], cap: int | None = None, *, m: int | None = None, q: int | None = None
) -> Group:
    """Close ``gens`` under composition.

    Returns a Group with ``elements`` sorted by canonical key when the
    closure stays within ``cap`` and the group cap, whichever is smaller;
    otherwise a generators-only Group with ``elements`` absent.
    """
    gens = tuple(gens)
    if not gens:
        if m is None or q is None:
            raise ValueError("need m and q for an empty generating set")
        ident = identity_automorphism(m, q)
        return Group(m, q, (), (ident,))
    m, q = gens[0].m, gens[0].q
    cap = group_cap() if cap is None else min(cap, group_cap())
    ident = identity_automorphism(m, q)
    seen: set[Automorphism] = {ident}
    frontier: list[Automorphism] = [ident]
    while frontier:
        new: list[Automorphism] = []
        for e in frontier:
            for g in gens:
                f = compose(e, g)
                if f not in seen:
                    seen.add(f)
                    if len(seen) > cap:
                        return Group(m, q, gens, None)
                    new.append(f)
        frontier = new
    elements = tuple(sorted(seen, key=lambda x: x.sort_key))
    return Group(m, q, gens, elements)


def orbit(gens: Iterable[Automorphism], seed, cap: int | None = None) -> set:
    """Smallest gens-closed set containing ``seed``.

    ``seed`` may be a Vertex or a set/sequence of Vertex (a code); in the
    set-valued case the orbit is a set of frozensets of Vertex.
    """
    gens = tuple(gens)
    if cap is None:
        cap = orbit_cap()
    if isinstance(seed, Vertex):
        start = seed
        act = apply
    else:
        start = frozenset(seed)
        if not start or not all(isinstance(v, Vertex) for v in start):
            raise ValueError("set-valued seed must be a nonempty set of Vertex")

        def act(x: Automorphism, s: frozenset) -> frozenset:
            return frozenset(apply(x, v) for v in s)

    out = {start}
    frontier = [start]
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                t = act(g, s)
                if t not in out:
                    out.add(t)
                    if len(out) > cap:
                        raise ResourceCapError(f"orbit exceeded cap {cap}")
                    new.append(t)
        frontier = new
    return out


# ---------------------------------------------------------------------------
# named generator presets

def diag_top_generators(q: int) -> list[Automorphism]:
    """Generators of the group of diagonal alphabet maps and position shuffles on H(q,q)."""
    y1 = perms.transposition(q, 0, 1) if q >= 2 else perms.identity(q)
    y2 = perms.cycle(q, tuple(range(q)))
    # q = 2 collapses the pairs; dict.fromkeys drops duplicates keeping order
    return list(dict.fromkeys([diag(y1, q), diag(y2, q), top(y1), top(y2)]))


def wreath_generators(q: int, l: int) -> list[Automorphism]:
    """Generators of the block-wreath closure of diag-top acting on H(lq,q)."""
    if l < 1:
        raise ValueError(f"need at least one block, got {l}")
    ident = identity_automorphism(q, q)
    out = [
        wreath_embed([g] + [ident] * (l - 1), perms.identity(l))
        for g in diag_top_generators(q)
    ]
    if l >= 2:
        out.append(wreath_embed([ident] * l, perms.transposition(l, 0, 1)))
        out.append(wreath_embed([ident] * l, perms.cycle(l, tuple(range(l)))))
    return list(dict.fromkeys(out))


def full_group_generators(m: int, q: int) -> list[Automorphism]:
    """Generators of all of Aut(H(m,q)): order (q!)^m * m!."""
    ident_q = perms.identity(q)
    firsts = [perms.transposition(q, 0, 1), perms.cycle(q, tuple(range(q)))]
    out = [
        Automorphism((y,) + (ident_q,) * (m - 1), perms.identity(m)) for y in firsts
    ]
    if m >= 2:
        out.append(top(perms.transposition(m, 0, 1), q))
        out.append(top(perms.cycle(m, tuple(range(m))), q))
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# text format and action tables

def format_automorphism(x: Automorphism) -> str:
    """Render as ``g: <perm>,...,<perm> ; sigma: <perm>``."""
    gs = ",".join(perms.format_perm(p) for p in x.coord_maps)
    return f"g: {gs} ; sigma: {perms.format_perm(x.position_map)}"


def parse_automorphism(text: str, m: int, q: int) -> Automorphism:
    """Inverse of format_automorphism for a known ambient H(m,q)."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"expected 'g: ... ; sigma: ...', got {text!r}")
    g_part, s_part = parts[0].strip(), parts[1].strip()
    if not g_part.startswith("g:") or not s_part.startswith("sigma:"):
        raise ValueError(f"expected 'g: ... ; sigma: ...', got {text!r}")
    coord_texts = [t.strip() for t in g_part[2:].split(",")]
    if len(coord_texts) != m:
        raise ValueError(f"expected {m} coordinate permutations, got {len(coord_texts)}")
    coord = tuple(perms.parse_perm(t, q) for t in coord_texts)
    sigma = perms.parse_perm(s_part[len("sigma:"):].strip(), m)
    return Automorphism(coord, sigma)


def read_group(path) -> Group:
    """Load a generators-only Group from a text file.

    Format: '#' comments, first significant line ``m q``, then one
    automorphism per line in the format_automorphism syntax.
    """
    m = q = None
    gens: list[Automorphism] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if m is None:
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"line {lineno}: header must be 'm q'")
                m, q = int(fields[0]), int(fields[1])
                continue
            gens.append(parse_automorphism(line, m, q))
    if m is None:
        raise ValueError("missing 'm q' header line")
    return Group(m, q, tuple(gens))


def _digits(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, entries): place values q^(m-1-j) and entries[v, j], digit j of vertex v."""
    powers = np.array([q ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    idx = np.arange(space_size(m, q), dtype=np.int64)
    return powers, (idx[:, None] // powers[None, :]) % q


def vertex_action_table(elements: Sequence[Automorphism], m: int, q: int) -> np.ndarray:
    """Row e, column v: index of vertex v under elements[e].

    Vertices are keyed by their base-q index; see hamming.vertex_index.
    """
    powers, entries = _digits(m, q)
    table = np.empty((len(elements), entries.shape[0]), dtype=np.int32)
    for e, x in enumerate(elements):
        src = x._sources
        w = np.empty_like(entries)
        for j in range(m):
            s = src[j]
            cmap = np.asarray(x.coord_maps[s].images, dtype=np.int64)
            w[:, j] = cmap[entries[:, s]]
        table[e] = w @ powers
    return table


def _action_table(m: int, q: int, coord_perms: Sequence[Perm]) -> np.ndarray:
    """vertex_action_table of every (g_1, ..., g_m; sigma) with each g_s in
    ``coord_perms``, rows lexicographic in (g_1, ..., g_m, sigma) by
    position in ``coord_perms`` and in lexicographic S_m order.

    Source position s holds digit g_s(v_s), which lands at position
    sigma(s), worth q^(m-1-sigma(s)).
    """
    powers, entries = _digits(m, q)
    sq = np.array([p.images for p in coord_perms], dtype=np.int32)  # (len(coord_perms), q)
    sm = np.array([p.images for p in perms.symmetric_group(m)], dtype=np.int64)  # (m!, m)
    weight = powers[sm].astype(np.int32)  # weight[k, s] = q^(m-1-sigma_k(s))
    n = entries.shape[0]
    # built vertex-major, so each column of the (rows, n) result is
    # contiguous: the search's kernels gather whole columns
    table = np.zeros((n, 1, len(sm)), dtype=np.int32)
    for s in range(m):
        # term[v, i, k] = g_i(v_s) * q^(m-1-sigma_k(s))
        term = sq[:, entries[:, s]].T[:, :, None] * weight[None, None, :, s]
        table = (table[:, :, None, :] + term[:, None, :, :]).reshape(n, -1, len(sm))
    return table.reshape(n, -1).T


def _stab0_coord_perms(q: int) -> list[Perm]:
    # the permutations fixing 0 are the first (q-1)! in lexicographic order
    return perms.symmetric_group(q)[: math.factorial(q - 1)]


def full_action_table(m: int, q: int) -> np.ndarray:
    """vertex_action_table of all of Aut(H(m,q)), built in closed form.

    Rows follow ``generate_group`` order (lexicographic in g_1, ..., g_m,
    sigma), so row ((i_1 q! + i_2) q! + ... + i_m) m! + k is the element
    whose g_s is the i_s-th and whose sigma is the k-th permutation in
    lexicographic order; see full_group_element and full_group_row.
    The caller checks the table's size against the caps first.
    """
    return _action_table(m, q, perms.symmetric_group(q))


def stab0_action_table(m: int, q: int) -> np.ndarray:
    """vertex_action_table of Stab(0) = S_{q-1} wr S_m, built in closed form.

    Stab(0) is every (g_1, ..., g_m; sigma) with each g_s(0) = 0.  Its rows
    are the rows of full_action_table(m, q) with ``table[:, 0] == 0``, in
    the same order, so row ((i_1 (q-1)! + i_2) ... + i_m) m! + k is the
    element with the same i_s and k as in the full table; see
    stab0_group_element.  The caller checks the table's size against the
    caps first.
    """
    return _action_table(m, q, _stab0_coord_perms(q))


def _element(row: int, m: int, coord_perms: Sequence[Perm], name: str) -> Automorphism:
    row, k = divmod(row, math.factorial(m))
    ranks = []
    for _ in range(m):
        row, i = divmod(row, len(coord_perms))
        ranks.append(i)
    if row:
        raise ValueError(f"row index out of range for {name}")
    return Automorphism(tuple(coord_perms[i] for i in reversed(ranks)), perms.symmetric_group(m)[k])


def full_group_element(row: int, m: int, q: int) -> Automorphism:
    """The automorphism behind row ``row`` of full_action_table(m, q)."""
    return _element(row, m, perms.symmetric_group(q), f"Aut(H({m},{q}))")


def stab0_group_element(row: int, m: int, q: int) -> Automorphism:
    """The automorphism behind row ``row`` of stab0_action_table(m, q)."""
    return _element(row, m, _stab0_coord_perms(q), f"Stab(0) in Aut(H({m},{q}))")


def full_group_row(x: Automorphism) -> int:
    """The row of ``x`` in full_action_table(x.m, x.q): full_group_element's inverse."""
    row = 0
    for g in x.coord_maps:
        row = row * math.factorial(x.q) + perms.lex_rank(g)
    return row * math.factorial(x.m) + perms.lex_rank(x.position_map)
