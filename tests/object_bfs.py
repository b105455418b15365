"""Breadth-first search over Automorphism and Vertex objects: the test
oracles for generate_group, which lists the products of a stabiliser
chain's transversals, for orbit, one breadth-first walk over
sorted vertex-index rows, for the code orbit and Schreier generators that
verify_elusive reads off that walk's edges on point rows, and for the
transitivity tests; and random_automorphism, the tests' one seeded random
element of Aut(H(m,q)).

Each follows the definition: act with every generator on everything found
so far until nothing new appears.
"""

from __future__ import annotations

from typing import Sequence

from elusivecodes.autgroup import Automorphism, apply, compose, identity_automorphism, inverse
from elusivecodes.caps import ResourceCapError
from elusivecodes.hamming import Vertex, vertex_index
from elusivecodes.perms import Perm


def random_automorphism(rng, m: int, q: int) -> Automorphism:
    """An element of Aut(H(m,q)) drawn from ``rng``: m coordinate maps, then sigma."""
    coord = tuple(Perm(tuple(rng.sample(range(q), q))) for _ in range(m))
    return Automorphism(coord, Perm(tuple(rng.sample(range(m), m))))


def closure(gens: Sequence[Automorphism], m: int, q: int, cap: int) -> tuple[Automorphism, ...] | None:
    """The elements of <gens> in sort-key order, or None once more than ``cap`` are found."""
    ident = identity_automorphism(m, q)
    seen = {ident}
    if len(seen) > cap:
        return None
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                f = compose(e, g)
                if f not in seen:
                    seen.add(f)
                    if len(seen) > cap:
                        return None
                    new.append(f)
        frontier = new
    return tuple(sorted(seen, key=lambda x: x.sort_key))


def orbit(gens: Sequence[Automorphism], seed, cap: int) -> set:
    """Smallest gens-closed set containing ``seed``, a Vertex or a set of
    Vertex, by apply(); ResourceCapError once it has more than ``cap`` members."""
    if isinstance(seed, Vertex):
        start = seed
        act = apply
    else:
        start = frozenset(seed)

        def act(x: Automorphism, s: frozenset) -> frozenset:
            return frozenset(apply(x, v) for v in s)

    out = {start}
    if len(out) > cap:
        raise ResourceCapError(f"orbit exceeded cap {cap}")
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


def code_orbit(C, gens: Sequence[Automorphism], cap: int):
    """FIFO orbit of the word set of the code C by apply(), with Schreier
    generators of the stabiliser of C.

    Returns (images as increasing vertex-index tuples in discovery order,
    the distinct non-identity t_i g t_j^-1 in edge order (i, g), the
    transversal element of the first image other than C or None), where t_j
    is t_i then g for the edge (i, g) that found image j;
    ResourceCapError once more than ``cap`` images are found.
    """
    start = tuple(sorted(C.words, key=vertex_index))
    index = {tuple(map(vertex_index, start)): 0}
    order = [start]
    transversal = [identity_automorphism(C.m, C.q)]
    schreier: list[Automorphism] = []
    seen_schreier: set[Automorphism] = set()
    witness = None
    at = 0
    while at < len(order):
        i = at
        at += 1
        for g in gens:
            img = tuple(sorted((apply(g, v) for v in order[i]), key=vertex_index))
            word = compose(transversal[i], g)
            j = index.get(key := tuple(map(vertex_index, img)))
            if j is None:
                index[key] = len(order)
                order.append(img)
                transversal.append(word)
                if witness is None:
                    witness = word
                if len(order) > cap:
                    raise ResourceCapError(f"code orbit exceeded cap {cap}")
            else:
                stab_el = compose(word, inverse(transversal[j]))
                if not stab_el.is_identity() and stab_el not in seen_schreier:
                    seen_schreier.add(stab_el)
                    schreier.append(stab_el)
    return [tuple(map(vertex_index, words)) for words in order], schreier, witness
