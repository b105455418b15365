"""Group closure by breadth-first search over Automorphism objects: the test
oracle for generate_group, which closes over packed keys.

Follows the definition: compose every element found so far with every
generator until nothing new appears, then sort by ``sort_key``.
"""

from __future__ import annotations

from typing import Sequence

from elusivecodes.autgroup import Automorphism, compose, identity_automorphism


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
