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
from .hamming import Vertex, space_size, vertex_index
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
        """Concatenated image arrays of (g_1, ..., g_m, sigma); canonical order
        key, and as a numpy row the library's packed element format (``_keys``)."""
        return tuple(a for p in self.coord_maps for a in p.images) + self.position_map.images

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


class Group:
    """A subgroup of Aut(H(m,q)): generators and, when enumerated, packed keys.

    ``keys`` holds the packed keys (``Automorphism.sort_key`` rows) of every
    element, sorted by value, which is generate_group order; it is None
    when the group was not enumerated.  The keys are the whole group: it
    acts by imaging only the vertices asked about (``_key_table``), and
    ``elements`` decodes them on first use.  ``generators`` None means the
    group is given by its keys alone and is generated by its elements.
    Groups compare and hash by identity: one subgroup has many generating
    sets, and the key array has no value equality.
    """

    def __init__(
        self, m: int, q: int, generators: Sequence[Automorphism] | None, keys: np.ndarray | None = None
    ) -> None:
        if generators is None and keys is None:
            raise ValueError("a group needs generators or keys")
        self.m, self.q, self.keys = m, q, keys
        self._generators = None if generators is None else tuple(generators)
        for g in self._generators or ():
            if g.m != m or g.q != q:
                raise ValueError("generator acts on the wrong space")

    @cached_property
    def generators(self) -> tuple[Automorphism, ...]:
        return self.elements if self._generators is None else self._generators

    @property
    def order(self) -> int | None:
        return None if self.keys is None else len(self.keys)

    @cached_property
    def elements(self) -> tuple[Automorphism, ...] | None:
        """The elements in key order, decoded from ``keys`` on first use."""
        return None if self.keys is None else _sorted_elements(self.keys, self.m, self.q)


def generate_group(
    gens: Iterable[Automorphism], cap: int | None = None, *, m: int | None = None, q: int | None = None
) -> Group:
    """Close ``gens`` under composition.

    Returns a Group with its keys sorted by value when the closure stays
    within ``cap`` and the group cap, whichever is smaller; otherwise a
    generators-only Group with ``keys`` absent; breadth first over packed
    keys.  ``m`` and ``q`` name the space of an empty generating set.
    """
    gens = tuple(gens)
    if gens:
        m, q = gens[0].m, gens[0].q
    elif m is None or q is None:
        raise ValueError("need m and q for an empty generating set")
    gen_keys = _keys(gens, m, q)
    cap = group_cap() if cap is None else min(cap, group_cap())
    # the orbit of the identity under right multiplication by the generators,
    # one generator per batch, so no candidate array spans every generator
    keys = _closure(_keys([identity_automorphism(m, q)], m, q),
                    lambda layer: (_compose_keys(layer, g, m, q) for g in gen_keys), cap)
    return Group(m, q, gens) if keys is None else Group(m, q, gens, _sort_keys(keys))


def orbit(gens: Iterable[Automorphism], seed, cap: int | None = None) -> set:
    """Smallest gens-closed set containing ``seed``, walked on vertex indices.

    ``seed`` may be a Vertex or a set/sequence of Vertex (a code); in the
    set-valued case the orbit is a set of frozensets of Vertex.  A vertex
    of another space than the generators raises apply()'s ValueError.
    A vertex orbit is the orbit of a one-vertex set.
    """
    gens = tuple(gens)
    start = frozenset([seed] if isinstance(seed, Vertex) else seed)
    if not start or not all(isinstance(v, Vertex) for v in start):
        raise ValueError("set-valued seed must be a nonempty set of Vertex")
    m, q = (gens[0].m, gens[0].q) if gens else (min(start).m, min(start).q)
    rows = _set_orbit(_keys(gens, m, q), _indices(start, m, q), m, q, cap)
    words = _vertices(rows.ravel(), m, q)
    if isinstance(seed, Vertex):
        return set(words)
    return {frozenset(words[i : i + len(start)]) for i in range(0, len(words), len(start))}


def _set_orbit(keys: np.ndarray, idx: np.ndarray, m: int, q: int, cap: int | None = None) -> np.ndarray:
    """Orbit of the vertex set with the sorted indices ``idx`` under the
    elements behind ``keys``, as sorted index rows in discovery order;
    ResourceCapError over ``cap`` or the orbit cap, whichever is smaller."""
    # a whole layer at once: set i under keys[e] is row e * len(layer) + i
    def step(layer):
        return [np.sort(_key_table(keys, m, q, layer.ravel()).reshape(-1, len(idx)), axis=1)]
    cap = orbit_cap() if cap is None else min(cap, orbit_cap())
    rows = _closure(idx[None, :], step, cap)
    if rows is None:
        raise ResourceCapError(f"orbit exceeded cap {cap}")
    return rows


def _closure(start: np.ndarray, step, cap: int) -> np.ndarray | None:
    """Every row reachable from the 2-D integer rows ``start`` through
    ``step``, once each in breadth-first order; None as soon as more than
    ``cap`` are found.  ``step(layer)`` yields, batch by batch, the candidate
    rows the newest layer leads to; see _fresh_rows for what is new."""
    seen = [start[:0, 0]] if start.shape[1] == 1 else set()
    layer, layers, batches = start, [], [start]
    while len(layer):
        fresh = [start[:0]]
        for rows in batches:
            fresh.append(_fresh_rows(rows, seen, cap))
            if fresh[-1] is None:
                return None
        layers.append(layer := np.concatenate(fresh))
        batches = step(layer)
    return np.concatenate(layers)


def _fresh_rows(rows: np.ndarray, seen: set[bytes] | list[np.ndarray], cap: int) -> np.ndarray | None:
    """The rows of the C-contiguous 2-D ``rows`` not in ``seen``, once each
    in first-occurrence order, each added to ``seen``; None as soon as
    ``seen`` holds more than ``cap``.  ``seen`` is the set of row bytes, or
    for 1-wide rows a list holding the sorted array of their values, with
    no Python object per row; fresh 1-wide rows come out sorted."""
    if isinstance(seen, list):
        seen[0] = np.sort(np.concatenate((seen[0], new := _new_values(rows, seen[0]))))
        return None if len(seen[0]) > cap else new[:, None]
    keep = []
    for i, row in enumerate(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()):
        if row not in seen:
            seen.add(row)
            if len(seen) > cap:
                return None
            keep.append(i)
    return rows[keep]


def _new_values(values: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``values`` missing from the sorted distinct
    ``known``, by sorts and searches: np.isin and np.unique cost ~20 us a
    call, paid per layer of a walk, and np.unique's first imports numpy.ma."""
    v = np.sort(values, axis=None)
    v = np.concatenate((v[:1], v[1:][v[1:] != v[:-1]]))
    return v[known.take(np.searchsorted(known, v), mode="clip") != v] if len(known) else v


def _indices(vertices: Iterable[Vertex], m: int, q: int) -> np.ndarray:
    """Sorted indices of ``vertices``, in _key_table's dtype; apply()'s
    ValueError for a vertex of another space."""
    out = []
    for v in vertices:
        if v.m != m or v.q != q:
            raise ValueError(f"automorphism of H({m},{q}) applied to vertex of H({v.m},{v.q})")
        out.append(vertex_index(v))
    return np.sort(np.array(out, dtype=_index_dtype(m, q)))


def _index_dtype(m: int, q: int) -> type:
    """int32 when every vertex index of H(m,q) fits in it, else int64;
    ValueError for a space with more than 2^63 vertices."""
    if space_size(m, q) > 1 << 63:
        raise ValueError(f"H({m},{q}) has more than 2^63 vertices, too many to index")
    return np.int32 if space_size(m, q) <= 1 << 31 else np.int64


def _vertices(idxs: np.ndarray, m: int, q: int) -> list[Vertex]:
    """The vertices with indices ``idxs``, in order."""
    return [Vertex(tuple(e), q) for e in _digits(m, q, idxs)[1].tolist()]


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


def _digits(m: int, q: int, idxs=None) -> tuple[np.ndarray, np.ndarray]:
    """(powers, entries): place values q^(m-1-j) and entries[i, j], digit j
    of vertex idxs[i]; of every vertex, in index order, by default."""
    powers = np.array([q ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    idx = np.arange(space_size(m, q), dtype=np.int64) if idxs is None else np.asarray(idxs, dtype=np.int64)
    return powers, (idx[:, None] // powers[None, :]) % q


def vertex_action_table(elements: Sequence[Automorphism], m: int, q: int) -> np.ndarray:
    """Row e, column v: index of vertex v under elements[e].

    Vertices are keyed by their base-q index; see hamming.vertex_index.
    Raises ValueError for an element of another space, and ResourceCapError
    for a table over the table-bytes cap.
    """
    return _key_table(_keys(elements, m, q), m, q)


def _key_table(keys: np.ndarray, m: int, q: int, idxs=None) -> np.ndarray:
    """Row e, column i: index of vertex idxs[i] under the element behind
    keys[e]; every vertex in index order by default, the
    vertex_action_table.  A broadcast over the keys that loops over the m
    positions, after checking the table's bytes against the cap.
    """
    check_table_bytes(len(keys), space_size(m, q) if idxs is None else len(idxs))
    g, sigma = _split(keys, m, q)
    powers, entries = _digits(m, q, idxs)
    weight = powers.astype(_index_dtype(m, q))[sigma]  # weight[e, s] = q^(m-1-sigma_e(s))
    table = np.zeros((len(keys), entries.shape[0]), dtype=weight.dtype)
    for s in range(m):
        # source position s holds digit g_s(v_s), which lands at position sigma(s)
        table += g[:, s, entries[:, s]] * weight[:, s, None]
    return table


def _action_table(m: int, q: int, coord_perms: Sequence[Perm]) -> np.ndarray:
    """vertex_action_table of every (g_1, ..., g_m; sigma) with each g_s in
    ``coord_perms``, rows lexicographic in (g_1, ..., g_m, sigma) by
    position in ``coord_perms`` and in lexicographic S_m order.

    Source position s holds digit g_s(v_s), which lands at position
    sigma(s), worth q^(m-1-sigma(s)).  Checks the table's bytes against
    the cap before allocating.
    """
    check_table_bytes(len(coord_perms) ** m * math.factorial(m), space_size(m, q))
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
    lexicographic order; see full_group_element.
    """
    return _action_table(m, q, perms.symmetric_group(q))


def stab0_action_table(m: int, q: int) -> np.ndarray:
    """vertex_action_table of Stab(0) = S_{q-1} wr S_m, built in closed form.

    Stab(0) is every (g_1, ..., g_m; sigma) with each g_s(0) = 0.  Its rows
    are the rows of full_action_table(m, q) with ``table[:, 0] == 0``, in
    the same order, so row ((i_1 (q-1)! + i_2) ... + i_m) m! + k is the
    element with the same i_s and k as in the full table; see
    stab0_group_element.
    """
    return _action_table(m, q, _stab0_coord_perms(q))


def _row_keys(rows, m: int, coord_perms: Sequence[Perm]) -> np.ndarray:
    """Keys of rows of _action_table(m, q, coord_perms), read as digits
    (i_1, ..., i_m, k); ValueError for a row out of range."""
    coord = np.array([p.images for p in coord_perms], dtype=np.int32)
    sm = np.array([p.images for p in perms.symmetric_group(m)], dtype=np.int32)
    *ranks, k = np.unravel_index(rows, (len(coord),) * m + (len(sm),))
    return np.concatenate([coord[np.stack(ranks, axis=-1)].reshape(len(k), -1), sm[k]], axis=1)


def full_group_element(row: int, m: int, q: int) -> Automorphism:
    """The automorphism behind row ``row`` of full_action_table(m, q)."""
    return _sorted_elements(_row_keys([row], m, perms.symmetric_group(q)), m, q)[0]


def stab0_group_element(row: int, m: int, q: int) -> Automorphism:
    """The automorphism behind row ``row`` of stab0_action_table(m, q)."""
    return _sorted_elements(_row_keys([row], m, _stab0_coord_perms(q)), m, q)[0]


def _keys(elements: Sequence[Automorphism], m: int, q: int) -> np.ndarray:
    """The packed keys (sort_key) of ``elements`` as rows, whose order is
    generate_group order and full-table row order.  ValueError for an element
    of another space."""
    if any(x.m != m or x.q != q for x in elements):
        raise ValueError(f"automorphisms of different spaces, expected H({m},{q})")
    return np.array([x.sort_key for x in elements], dtype=np.int32).reshape(len(elements), m * (q + 1))


def _split(keys: np.ndarray, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, sigma): g[..., s, a] = g_s(a) and sigma[..., s] = sigma(s)."""
    return keys[..., : m * q].reshape(keys.shape[:-1] + (m, q)), keys[..., m * q :]


def _compose_keys(x: np.ndarray, y: np.ndarray, m: int, q: int) -> np.ndarray:
    """Keys of 'x then y', as ``compose``, row by row; a single key on
    either side pairs with every row of the other.

    c'_s = y.c_{sigma_x(s)} o x.c_s and sigma' = y.sigma o sigma_x, read by
    flat gathers from y's coordinate maps and position map.
    """
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    (xg, xs), yg, ys = _split(x, m, q), y[:, : m * q], y[:, m * q :]
    rows = np.arange(len(y), dtype=np.int32)[:, None]  # a single row of y broadcasts
    g = yg.ravel()[(xs * q + rows * (m * q))[..., None] + xg]
    return np.concatenate([g.reshape(len(g), m * q), ys.ravel()[xs + rows * m]], axis=1)


def _translation_keys(idxs: np.ndarray, sign: int, m: int, q: int) -> np.ndarray:
    """Keys of v -> v + sign * c, digit by digit mod q, for each vertex index c in ``idxs``."""
    g = (np.arange(q) + sign * _digits(m, q, idxs)[1][..., None]) % q
    keys = np.concatenate([g.reshape(len(idxs), -1), np.broadcast_to(np.arange(m), (len(idxs), m))], axis=1)
    return keys.astype(np.int32)


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Key rows sorted by value (not by bytes): generate_group order."""
    return keys[np.lexsort(keys.T[::-1])]


def _sorted_elements(keys: np.ndarray, m: int, q: int) -> tuple[Automorphism, ...]:
    """The automorphisms behind key rows, in row order, sharing one Perm per
    distinct image tuple; a Group passes its keys, sorted by value."""
    g, sigma = _split(keys, m, q)
    shared = []
    for images in map(np.ascontiguousarray, (g.reshape(-1, q), sigma)):
        rows = images.view(np.dtype((np.void, images[0].nbytes))).ravel()  # np.unique(axis=0) is 8x slower
        _, first, idx = np.unique(rows, return_index=True, return_inverse=True)
        distinct = [Perm(tuple(r)) for r in images[first].tolist()]
        shared.append([distinct[i] for i in idx.reshape(-1).tolist()])
    g_perms, s_perms = shared
    return tuple(Automorphism(tuple(g_perms[e * m : (e + 1) * m]), s) for e, s in enumerate(s_perms))
