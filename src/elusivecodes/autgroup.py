"""Automorphisms of H(m, q): the semidirect product S_q^m x| S_m.

An automorphism is a tuple (g_1, ..., g_m; sigma): first each entry is
mapped through its coordinate permutation, then positions are permuted,
so the entry at position j of the image comes from position sigma^-1(j).
The convention is a right action: ``compose(x, y)`` means "x then y",
and apply(compose(x, y), v) == apply(y, apply(x, v)).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations
from operator import itemgetter
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
    "stab0_action_table",
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
    """A subgroup of Aut(H(m,q)): generators, and its stabiliser chain or packed keys.

    ``keys`` holds the packed keys (``Automorphism.sort_key`` rows) of every
    element, sorted by value, which is generate_group order.  A group that
    generate_group builds within the caps holds its stabiliser chain
    (_stabiliser_chain) and lists its keys from it on first read; its
    order is read off the chain.  A group given by keys holds them, and
    they must be the whole group: ``generators`` None means it is generated
    by its elements, and its chain is built from its keys only when a set
    test first asks for one (_transporters), which then refuses keys that
    generate more elements than they are.  A group with neither, over the
    cap or read from a file, has ``keys``, ``order`` and ``elements`` None.
    The group acts by imaging only the vertices asked about (``_key_table``),
    and ``elements`` decodes the keys on first use.  Groups compare and
    hash by identity: one subgroup has many generating sets, and the key
    array has no value equality.
    """

    def __init__(
        self, m: int, q: int, generators: Sequence[Automorphism] | None, keys: np.ndarray | None = None
    ) -> None:
        if generators is None and keys is None:
            raise ValueError("a group needs generators or keys")
        self.m, self.q, self._keys = m, q, keys
        self._generators = None if generators is None else tuple(generators)
        for g in self._generators or ():
            if g.m != m or g.q != q:
                raise ValueError("generator acts on the wrong space")

    @cached_property
    def _chain(self) -> list[tuple[int, np.ndarray]] | None:
        """The stabiliser chain; generate_group sets it, and a group given
        by keys builds it from them on first use, ValueError when they
        generate more elements than they are."""
        if self._keys is None:
            return None
        chain = _stabiliser_chain(self._keys, self.m, self.q)
        if _chain_order(chain) != len(self._keys):
            raise ValueError(f"{len(self._keys)} keys generate a group of order {_chain_order(chain)}")
        return chain

    @property
    def keys(self) -> np.ndarray | None:
        if self._keys is None and self._chain is not None:
            self._keys = _sort_keys(_transversal_product(self._chain, self.m, self.q))
        return self._keys

    @cached_property
    def generators(self) -> tuple[Automorphism, ...]:
        return self.elements if self._generators is None else self._generators

    @property
    def order(self) -> int | None:
        if self._keys is not None:
            return len(self._keys)
        return None if self._chain is None else _chain_order(self._chain)

    @cached_property
    def elements(self) -> tuple[Automorphism, ...] | None:
        """The elements in key order, decoded from ``keys`` on first use."""
        return None if self.keys is None else _sorted_elements(self.keys, self.m, self.q)


def generate_group(
    gens: Iterable[Automorphism], cap: int | None = None, *, m: int | None = None, q: int | None = None
) -> Group:
    """The group generated by ``gens``, as its stabiliser chain.

    Returns a Group that holds the chain when the order stays within
    ``cap`` and the group cap, whichever is smaller, and lists its keys,
    sorted by value, on first read; otherwise a generators-only Group with
    ``keys`` and ``order`` absent.  Within the caps it first checks the
    bytes of the key array it would list against the table-bytes cap.
    ``m`` and ``q`` name the space of an empty generating set.

    The order |G| is the product of the chain's orbit lengths, read before
    any element is listed (see _stabiliser_chain).  Every g in G is one
    product u_{k-1} ... u_1 u_0 ("u_{k-1} first") with u_i from
    transversal i: g u_0^-1 fixes b_0 for the u_0 with u_0(b_0) = g(b_0),
    so it lies in the stabiliser of b_0, which the levels below describe,
    and so on down the chain; the images of b_0, b_1, ... recover the
    choices, so distinct choices give distinct elements.  So the |G|
    products list G once each; they are imaged back to keys, one to one
    because the action on points is faithful, and sorted.
    """
    gens = tuple(gens)
    if gens:
        m, q = gens[0].m, gens[0].q
    elif m is None or q is None:
        raise ValueError("need m and q for an empty generating set")
    chain = _stabiliser_chain(_keys(gens, m, q), m, q)
    order = _chain_order(chain)
    group = Group(m, q, gens)
    if order > (group_cap() if cap is None else min(cap, group_cap())):
        return group
    check_table_bytes(order, m * (q + 1), 4)
    group._chain = chain
    return group


def _group_order(keys: np.ndarray, m: int, q: int) -> int:
    """Order of the group generated by the elements behind ``keys``,
    with no element listed."""
    return _chain_order(_stabiliser_chain(keys, m, q))


def _chain_order(chain: list[tuple[int, np.ndarray]]) -> int:
    """|G|, the product of the orbit lengths of G's stabiliser chain."""
    return math.prod(len(trans) for _, trans in chain)


def _points(keys: np.ndarray, m: int, q: int) -> np.ndarray:
    """Point rows of key rows: column s*q + a holds the point sigma(s)*q + g_s(a).

    An automorphism sends the entry a at position s to the entry g_s(a) at
    position sigma(s), so it permutes the m*q points (s, a).  The action is
    faithful: a point row that fixes every (s, 0) has sigma = 1, and then
    fixing every (s, a) means every g_s = 1.  Point rows compose as
    ``compose`` does, "x then y" being the row x gathered through y.
    """
    g, sigma = _split(keys, m, q)
    return (sigma[..., None] * q + g).reshape(len(keys), m * q)


def _stabiliser_chain(keys: np.ndarray, m: int, q: int) -> list[tuple[int, np.ndarray]]:
    """(base point b_i, transversal i) per level of a stabiliser chain of
    the group G generated by the elements behind ``keys``, acting on the
    m*q points of _points; transversal i is an int32 array of point rows,
    the identity first.

    Products read left to right, as ``compose``: "x y" is x then y.  Level
    i has a base point b_i and strong generators S_i, each fixing
    b_0, ..., b_{i-1}; its transversal holds, for each point p of the orbit
    of b_i under <S_i>, one element u_p of <S_i> with u_p(b_i) = p.  Sims'
    method, deterministic: level i is complete when every Schreier
    generator u_p s u_{s(p)}^-1, for p in the orbit and s in S_i, sifts
    through the levels below it to the identity; a residue that does not
    is a new strong generator of every level down to where it stopped,
    which then is completed first.  By Schreier's lemma those generators
    generate the stabiliser of b_i in <S_i>, so once every level is
    complete <S_{i+1}> is that stabiliser, and |G| is the product of the
    orbit lengths (orbit-stabiliser, level by level).

    The elements behind ``keys`` are taken one at a time, each sifted
    through the chain completed for those before it: one that sifts to
    the identity lies in their group and is dropped, and the residue of
    one that does not is a new strong generator of every level down to
    where it stopped.  So a group given by all its keys is built from the
    few that generate it.

    Each level keeps a FIFO queue of its untested pairs (p, s): a new
    strong generator is queued with every orbit point, a new orbit point
    with every strong generator, so each pair is taken once.  A pair whose
    s(p) is new is a tree edge: u_{s(p)} := u_p s makes its Schreier
    generator the identity, and it is not sifted.  Every other pair is
    sifted once: transversal entries are never overwritten, so its
    Schreier generator is the one of the final transversal, and one that
    sifted to the identity stays sifted as the levels below grow.  A sift
    composes only at the levels whose base point h moves; where h fixes
    b_i, u_{b_i} is the identity.  Points are plain tuples: the degree is
    m*q, at most a few dozen here.
    """
    n = m * q
    ident = tuple(range(n))
    # per level: (base point, strong generators as (s, s^-1),
    #             {p: (u_p, u_p^-1)}, queue of untested (p, strong index))
    levels: list[tuple] = []

    def then(x, y):
        # itemgetter of n >= 2 indices returns a tuple; something is
        # composed only when some element moves a point, so n >= 2
        return itemgetter(*x)(y)

    def inverse_of(x):
        inv = [0] * n
        for i, xi in enumerate(x):
            inv[xi] = i
        return tuple(inv)

    def sift(h, start):
        for i in range(start, len(levels)):
            b, _, trans, _ = levels[i]
            if h[b] != b:
                u = trans.get(h[b])
                if u is None:
                    return h, i
                h = then(h, u[1])
        return h, len(levels)

    def add(h, top, bottom):
        if bottom == len(levels):
            b = next(p for p in range(n) if h[p] != p)
            levels.append((b, [], {b: (ident, ident)}, deque()))
        pair = (h, inverse_of(h))
        for _, strong, trans, queue in levels[top : bottom + 1]:
            queue.extend((p, len(strong)) for p in trans)
            strong.append(pair)

    def complete():
        i = len(levels) - 1
        while i >= 0:
            _, strong, trans, queue = levels[i]
            nxt = i - 1
            while queue:
                p, k = queue.popleft()
                (s, s_inv), (u, u_inv) = strong[k], trans[p]
                t = s[p]
                if t not in trans:
                    trans[t] = (then(u, s), then(s_inv, u_inv))
                    queue.extend((t, e) for e in range(len(strong)))
                    continue
                h, j = sift(then(then(u, s), trans[t][1]), i + 1)
                if h != ident:
                    add(h, i + 1, j)
                    nxt = j
                    break
            i = nxt

    for h in map(tuple, _points(keys, m, q).tolist()):
        h, j = sift(h, 0)
        if h != ident:
            add(h, 0, j)
            complete()
    return [(b, np.array([u for u, _ in trans.values()], dtype=np.int32)) for b, _, trans, _ in levels]


def _transversal_product(chain: list[tuple[int, np.ndarray]], m: int, q: int) -> np.ndarray:
    """Keys of every product u_{k-1} ... u_0 ("u_{k-1} first") of one
    element of each transversal of ``chain``, unsorted.

    One broadcast gather per level, deepest first, in int32; generate_group
    checks the bytes of the key array against the table-bytes cap.
    """
    points = np.arange(m * q, dtype=np.int32)[None, :]
    for _, trans in reversed(chain):
        # row (t, r): point row r, then transversal element t
        points = trans[:, points].reshape(-1, m * q)
    return _point_keys(points, m, q)


def _transporters(G: Group, idx: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Sorted keys of {g in G : idx^g = target}, for the sorted vertex
    indices ``idx`` and ``target``; G must hold a chain or keys.

    The simplest refinement of Leon's partition backtrack, run down G's
    stabiliser chain.  Every element of G is one product u_{k-1} ... u_0
    ("u_{k-1} first") of transversal elements, as in generate_group.  Level
    i extends every live partial product w = u_i ... u_0 by the whole of
    transversal i in one gather, on point rows.  A vertex contains the
    point (s, a) when its entry at s is a.  A product is kept only if the
    multiset {(⟦w(b_0) ∈ t⟧, ..., ⟦w(b_i) ∈ t⟧) : t in target} equals
    {(⟦b_0 ∈ v⟧, ..., ⟦b_i ∈ v⟧) : v in idx}; each leaf, a whole element,
    images idx and is kept if the image is ``target``.

    Base-incidence lemma: a product whose multisets differ has no
    extension g with idx^g = target.  Every extension is g = h then w,
    with h = u_{k-1} ... u_{i+1} fixing b_0, ..., b_i, so g(b_j) = w(b_j)
    for j <= i.  An automorphism sends the point p of a vertex v to the
    point g(p) of g(v), so ⟦g(p) ∈ g(v)⟧ = ⟦p ∈ v⟧.  If idx^g = target,
    v -> g(v) is a bijection from idx onto target that keeps every
    ⟦w(b_j) ∈ g(v)⟧ = ⟦b_j ∈ v⟧, so the two multisets are equal.

    The incidence vectors are kept as class labels: the vertices of idx
    are split by their bit at each base point in turn, and a vertex of
    target under w takes the class of idx with its vector, or -1 where idx
    has none, so two multisets are equal when their sorted labels are.
    Checks each level's point rows (live x orbit x m*q int32) and target's
    labels under them (live x orbit x |target| int32), together, against
    the table-bytes cap before gathering them; _key_table checks the
    leaves' images of idx.
    """
    m, q, n = G.m, G.q, G.m * G.q
    if len(idx) != len(target):
        return np.empty((0, m * (q + 1)), dtype=np.int32)

    def incidence(vs):
        # row i, column s*q + a: whether vertex vs[i] has entry a at position s
        inc = np.zeros((len(vs), n), dtype=bool)
        inc[np.arange(len(vs))[:, None], np.arange(0, n, q) + _digits(m, q, vs)[1]] = True
        return inc

    own, by_point = incidence(idx), incidence(target).T
    live = np.arange(n, dtype=np.int32)[None, :]
    classes = np.zeros(len(idx), dtype=np.int32)  # of each vertex of idx
    labels = np.zeros((1, len(target)), dtype=np.int32)  # of each vertex of target, per live row
    for b, trans in G._chain:
        # split[2c + bit]: the class that class c and the bit at b make
        pairs = 2 * classes + own[:, b]
        seen = np.zeros(2 * len(idx) + 2, dtype=bool)
        seen[pairs] = True
        split = np.where(seen, np.cumsum(seen, dtype=np.int32) - 1, -1)
        classes = split[pairs]
        check_table_bytes(len(live) * len(trans), n + len(target), 4)
        # row r * |trans| + t: transversal element t, then live row r
        live = live[:, trans].reshape(-1, n)
        bits = by_point[live[:, b]].reshape(len(labels), len(trans), len(target))
        labels = split[2 * labels[:, None, :] + bits].reshape(len(live), len(target))
        keep = (np.sort(labels, axis=1) == np.sort(classes)).all(axis=1)
        live, labels = live[keep], labels[keep]
    keys = _point_keys(live, m, q)
    images = np.sort(_key_table(keys, m, q, idx), axis=1)
    return _sort_keys(keys[(images == target).all(axis=1)])


def _point_keys(points: np.ndarray, m: int, q: int) -> np.ndarray:
    """Keys of the point rows ``points``: the inverse of _points."""
    keys = np.empty((len(points), m * (q + 1)), dtype=np.int32)
    np.remainder(points, q, out=keys[:, : m * q])
    np.floor_divide(points[:, ::q], q, out=keys[:, m * q :])
    return keys


def _orbit_schreier(keys: np.ndarray, target: np.ndarray, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(Schreier keys, transversal keys) of an orbit of vertex sets under
    the elements behind ``keys``, from the edges _set_orbit returns with it.

    Edge (i, g) takes row i through keys[g] to row target[i*k + g]; every
    row but row 0 is the target of some edge.  t_0 is the identity, and
    t_j is t_i then g for the first edge (i, g) into j, which leaves an
    earlier row.  By Schreier's lemma the t_i g t_j^-1 of every edge, on
    point rows (_points; inverses are argsorts), generate the stabiliser
    of row 0; they come in edge order, once each, identities (tree edges
    among them) dropped.
    """
    k, n, r = len(keys), m * q, int(target.max(initial=0)) + 1
    first = np.full(r, len(target))
    np.minimum.at(first, target, np.arange(len(target)))
    gens = _points(keys, m, q)
    trans = np.tile(np.arange(n, dtype=np.int32), (r, 1))
    for j in range(1, r):
        trans[j] = gens[first[j] % k][trans[first[j] // k]]
    # row i*k + g: t_i then g, then t_j^-1
    words = gens[np.arange(k)[None, :, None], trans[:, None, :]].reshape(-1, n)
    words = np.take_along_axis(np.argsort(trans, axis=1).astype(np.int32)[target], words, axis=1)
    words = words[(words != np.arange(n)).any(axis=1)]
    _, at = np.unique(_void_rows(words), return_index=True)
    return _point_keys(words[np.sort(at)], m, q), _point_keys(trans, m, q)


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
    rows = _set_orbit(_keys(gens, m, q), _indices(start, m, q), m, q, cap)[0]
    words = _vertices(rows.ravel(), m, q)
    if isinstance(seed, Vertex):
        return set(words)
    return {frozenset(words[i : i + len(start)]) for i in range(0, len(words), len(start))}


def _set_orbit(
    keys: np.ndarray, idx: np.ndarray, m: int, q: int, cap: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, target): the orbit of the vertex set with the sorted indices
    ``idx`` under the elements behind ``keys``, and the orbit's edges.

    The library's one breadth-first walk.  ``rows`` holds each set of the
    orbit once, as a sorted index row, in the order a FIFO queue finds
    them: each layer is imaged at once, image-major, set i under keys[0],
    keys[1], ... in turn, and one dict from row bytes to row number keeps
    the new rows.  Set i under keys[e] is row target[i * len(keys) + e].
    ResourceCapError once the orbit, the seed counted, has more rows than
    ``cap`` or the orbit cap, whichever is smaller.
    """
    cap = orbit_cap() if cap is None else min(cap, orbit_cap())
    index = {idx.tobytes(): 0}
    layers, target = [idx[None, :]], []
    while len(index) <= cap and len(layers[-1]):
        known, layer = len(index), layers[-1]
        table = _key_table(keys, m, q, layer.ravel()).reshape(len(keys), *layer.shape)
        images = np.sort(table.swapaxes(0, 1).reshape(-1, layer.shape[1]), axis=1)
        rows = _void_rows(images).tolist()
        edges = np.array([index.setdefault(row, len(index)) for row in rows], dtype=np.intp)
        new = edges >= known
        layers.append(np.empty((len(index) - known, layer.shape[1]), dtype=images.dtype))
        layers[-1][edges[new] - known] = images[new]
        target.append(edges)
    if len(index) > cap:
        raise ResourceCapError(f"orbit exceeded cap {cap}")
    return np.concatenate(layers), np.concatenate(target)


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """The C-contiguous 2-D ``rows`` as one void scalar per row, whose
    bytes compare as the row's; np.unique(axis=0) is 8x slower, and the S
    dtype drops trailing NUL bytes."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


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
    positions, after checking the table's bytes, in _index_dtype cells,
    against the cap.
    """
    dtype = np.dtype(_index_dtype(m, q))
    check_table_bytes(len(keys), space_size(m, q) if idxs is None else len(idxs), dtype.itemsize)
    g, sigma = _split(keys, m, q)
    powers, entries = _digits(m, q, idxs)
    weight = powers.astype(dtype)[sigma]  # weight[e, s] = q^(m-1-sigma_e(s))
    table = np.zeros((len(keys), entries.shape[0]), dtype=weight.dtype)
    for s in range(m):
        # source position s holds digit g_s(v_s), which lands at position sigma(s)
        table += g[:, s, entries[:, s]] * weight[:, s, None]
    return table


# cells of the temporary each step of stab0_action_table adds into the table
_BUILD_CELLS = 1 << 14


def stab0_action_table(m: int, q: int) -> np.ndarray:
    """vertex_action_table of Stab(0) = S_{q-1} wr S_m, built in closed form.

    Stab(0) is every (g_1, ..., g_m; sigma) with each g_s(0) = 0.  Its rows
    are in generate_group order, lexicographic in (g_1, ..., g_m, sigma):
    row ((i_1 (q-1)! + i_2) ... + i_m) m! + k is the element whose g_s is
    the i_s-th permutation of S_q fixing 0 and whose sigma is the k-th of
    S_m, each in lexicographic order; _stab0_keys decodes it.

    Source position s holds digit g_s(v_s), which lands at position
    sigma(s), worth q^(m-1-sigma(s)).  Checks the table's bytes against
    the cap before allocating, and allocates the table once: each position
    s adds its term, a few vertices at a time, into the table read as an
    array over (v, i_1, ..., i_m, k), so the build holds the table and at
    most about _BUILD_CELLS more cells.
    """
    rows = math.factorial(q - 1) ** m * math.factorial(m)
    check_table_bytes(rows, space_size(m, q), 4)
    powers, entries = _digits(m, q)
    sq, sm = _stab0_factors(m, q)
    weight = powers.astype(np.int32)[sm]  # weight[k, s] = q^(m-1-sigma_k(s))
    n, f = entries.shape[0], len(sq)
    # built vertex-major, so each column of the (rows, n) result is
    # contiguous: the search's kernels gather whole columns
    table = np.zeros((n, rows), dtype=np.int32)
    step = max(1, _BUILD_CELLS // (f * len(sm)))
    for s in range(m):
        # the table as (v, i_1 .. i_{s-1}, i_s, i_{s+1} .. i_m, k)
        at_s = table.reshape(n, f**s, f, f ** (m - 1 - s), len(sm))
        for lo in range(0, n, step):
            # term[v, i_s, k] = g_{i_s}(v_s) * q^(m-1-sigma_k(s))
            g = sq[:, entries[lo : lo + step, s]].T
            at_s[lo : lo + step] += g[:, None, :, None, None] * weight[:, s]
    return table.T


def _stab0_factors(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(g images, sigma images) of Stab(0)'s factors, each in lexicographic
    order, as perms.symmetric_group lists them: the (q-1)! permutations of
    S_q fixing 0, and all of S_m."""

    def images(points, n):
        return np.fromiter(chain.from_iterable(permutations(points)), dtype=np.int32).reshape(-1, n)

    g = images(range(1, q), q - 1)
    return np.concatenate([np.zeros((len(g), 1), dtype=np.int32), g], axis=1), images(range(m), m)


def _stab0_keys(rows, m: int, q: int) -> np.ndarray:
    """Keys of rows of stab0_action_table(m, q), read as digits
    (i_1, ..., i_m, k); ValueError for a row out of range."""
    coord, sm = _stab0_factors(m, q)
    *ranks, k = np.unravel_index(rows, (len(coord),) * m + (len(sm),))
    return np.concatenate([coord[np.stack(ranks, axis=-1)].reshape(len(k), -1), sm[k]], axis=1)


def _keys(elements: Sequence[Automorphism], m: int, q: int) -> np.ndarray:
    """The packed keys (sort_key) of ``elements`` as rows, whose order is
    generate_group order.  ValueError for an element of another space."""
    if any(x.m != m or x.q != q for x in elements):
        raise ValueError(f"automorphisms of different spaces, expected H({m},{q})")
    return np.array([x.sort_key for x in elements], dtype=np.int32).reshape(len(elements), m * (q + 1))


def _split(keys: np.ndarray, m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, sigma): g[..., s, a] = g_s(a) and sigma[..., s] = sigma(s)."""
    return keys[..., : m * q].reshape(keys.shape[:-1] + (m, q)), keys[..., m * q :]


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Non-negative integer rows sorted by value (not by bytes): for keys,
    generate_group order.

    Each row is read as digits in base b = max + 1 and packed, d digits a
    word, into int64 words, with b^d <= 2^63 so that no word overflows.
    The words compare as the digits they hold, so sorting on them sorts on
    every column, and one word needs no lexsort.  A word of one digit
    (d = 1) is the column itself, as for vertex-index rows near 2^63.
    """
    if not keys.size:
        return keys.copy()
    b, d = int(keys.max()) + 1, 1
    while d < keys.shape[1] and b ** (d + 1) <= 1 << 63:
        d += 1
    powers = np.array([b ** (d - 1 - j) for j in range(d)], dtype=np.int64)
    words = [keys[:, lo : lo + d] @ powers[: min(d, keys.shape[1] - lo)] for lo in range(0, keys.shape[1], d)]
    return keys[np.argsort(words[0]) if len(words) == 1 else np.lexsort(words[::-1])]


def _sorted_elements(keys: np.ndarray, m: int, q: int) -> tuple[Automorphism, ...]:
    """The automorphisms behind key rows, in row order, sharing one Perm per
    distinct image tuple; a Group passes its keys, sorted by value."""
    g, sigma = _split(keys, m, q)
    shared = []
    for images in map(np.ascontiguousarray, (g.reshape(-1, q), sigma)):
        _, first, idx = np.unique(_void_rows(images), return_index=True, return_inverse=True)
        distinct = [Perm(tuple(r)) for r in images[first].tolist()]
        shared.append([distinct[i] for i in idx.reshape(-1).tolist()])
    g_perms, s_perms = shared
    return tuple(Automorphism(tuple(g_perms[e * m : (e + 1) * m]), s) for e, s in enumerate(s_perms))
