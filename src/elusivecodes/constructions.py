"""The code families under study.

Permutation codes live in H(q,q): the word of a permutation g has entry
k equal to g(k).  Product codes concatenate l codewords, block k owning
coordinates km..km+m-1.  The parity subcode keeps the tuples whose count
of even-permutation blocks is even (or odd, for the complement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

from . import perms
from .caps import ResourceCapError, vertex_cap
from .codes import Code
from .hamming import Vertex, distance
from .perms import Perm

__all__ = [
    "PermCodeSpec",
    "perm_vertex",
    "perm_code",
    "sym_code",
    "alt_code",
    "odd_coset_code",
    "nu",
    "product_code",
    "mu",
    "parity_code",
    "rep_code",
    "union_code",
]


@dataclass(frozen=True)
class PermCodeSpec:
    """Which permutations to turn into codewords: a named family or an explicit list."""

    q: int
    source: str | tuple[Perm, ...]  # "sym" | "alt" | "oddcoset" | explicit perms

    def members(self) -> list[Perm]:
        if isinstance(self.source, str):
            if self.source == "sym":
                return perms.symmetric_group(self.q)
            if self.source == "alt":
                return perms.alternating_group(self.q)
            if self.source == "oddcoset":
                return [p for p in perms.symmetric_group(self.q) if not perms.is_even(p)]
            raise ValueError(f"unknown permutation family {self.source!r}")
        out = list(self.source)
        if len(set(out)) != len(out):
            raise ValueError("explicit permutation list has repeats")
        for p in out:
            if p.degree != self.q:
                raise ValueError(f"permutation degree {p.degree} != q={self.q}")
        return out


def perm_vertex(g: Perm) -> Vertex:
    """The word of g in H(q,q): entry k is g(k)."""
    return Vertex(g.images, g.degree)


def perm_code(spec: PermCodeSpec) -> Code:
    members = spec.members()
    if not members:
        raise ValueError("empty permutation family")
    return Code.from_words(perm_vertex(g) for g in members)


def sym_code(q: int) -> Code:
    return perm_code(PermCodeSpec(q, "sym"))


def alt_code(q: int) -> Code:
    return perm_code(PermCodeSpec(q, "alt"))


def odd_coset_code(q: int) -> Code:
    return perm_code(PermCodeSpec(q, "oddcoset"))


def nu(g: Perm, i: int, j: int) -> Vertex:
    """The neighbour of the word of g that holds g(j) in entry i.

    Entry k is g(k) except at k = i, where it is g(j); i != j makes this
    adjacent to the word of g.
    """
    if i == j:
        raise ValueError("entries i and j must differ")
    q = g.degree
    for a in (i, j):
        if not 0 <= a < q:
            raise ValueError(f"entry index {a} outside [0, {q})")
    entries = list(g.images)
    entries[i] = g.images[j]
    return Vertex(tuple(entries), q)


def product_code(C: Code, l: int) -> Code:
    """All concatenations of l codewords of C, in H(lm, q)."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if len(C) ** l > vertex_cap():
        raise ResourceCapError(f"product code would have {len(C)**l} words")
    q = C.q
    words = []
    for combo in _iproduct(C.words, repeat=l):
        entries: tuple[int, ...] = ()
        for w in combo:
            entries += w.entries
        words.append(Vertex(entries, q))
    return Code.from_words(words)


def mu(bold_alpha: Sequence[Vertex], nu_vertex: Vertex, i: int) -> Vertex:
    """Concatenation with block i replaced by an adjacent vertex.

    The replacement must be adjacent to block i, so the result is
    adjacent to the concatenation of the blocks themselves.
    """
    l = len(bold_alpha)
    if not 0 <= i < l:
        raise ValueError(f"block index {i} outside [0, {l})")
    if distance(bold_alpha[i], nu_vertex) != 1:
        raise ValueError("replacement vertex is not adjacent to its block")
    q = nu_vertex.q
    entries: tuple[int, ...] = ()
    for k, w in enumerate(bold_alpha):
        entries += nu_vertex.entries if k == i else w.entries
    return Vertex(entries, q)


def parity_code(q: int, l: int, parity: str = "even") -> Code:
    """Block tuples over S_q whose count of even-permutation blocks has the given parity."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if math.factorial(q) ** l > vertex_cap():
        raise ResourceCapError(f"parity code would scan {math.factorial(q)**l} tuples")
    want = 0 if parity == "even" else 1
    sq = perms.symmetric_group(q)
    words = []
    for combo in _iproduct(sq, repeat=l):
        evens = sum(1 for g in combo if perms.is_even(g))
        if evens % 2 == want:
            entries: tuple[int, ...] = ()
            for g in combo:
                entries += g.images
            words.append(Vertex(entries, q))
    return Code.from_words(words)


def rep_code(m: int, q: int) -> Code:
    """The q constant words of H(m,q)."""
    return Code.from_words(Vertex((a,) * m, q) for a in range(q))


def union_code(C: Code, D: Code) -> Code:
    if C.m != D.m or C.q != D.q:
        raise ValueError(f"cannot union codes of H({C.m},{C.q}) and H({D.m},{D.q})")
    return Code.from_words(C.words + D.words)
