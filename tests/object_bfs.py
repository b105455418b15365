"""Breadth-first search over Automorphism and Vertex objects: the test
oracles for generate_group and orbit, which walk one closure over packed
keys and over sorted vertex-index rows.

Each follows the definition: act with every generator on everything found
so far until nothing new appears.
"""

from __future__ import annotations

from typing import Sequence

from elusivecodes.autgroup import Automorphism, apply, compose, identity_automorphism
from elusivecodes.caps import ResourceCapError
from elusivecodes.hamming import Vertex


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
