"""Permutations of {0, ..., n-1} with a small parser and printer.

Composition is left-to-right: ``compose(p, r)`` applies p first, then r.
Text forms accepted by :func:`parse_perm` are cycle notation
``"(0 2)(1 3)"``, image-list notation ``"[2,3,0,1]"``, and ``"id"``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import permutations as _permutations

from .caps import ResourceCapError, group_cap

__all__ = [
    "Perm",
    "identity",
    "compose",
    "inverse",
    "parity",
    "is_even",
    "transposition",
    "cycle",
    "symmetric_group",
    "alternating_group",
    "lex_rank",
    "parse_perm",
    "format_perm",
]


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation given by its image tuple: ``a -> images[a]``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of range({n}): {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __str__(self) -> str:
        return format_perm(self)


def identity(n: int) -> Perm:
    return Perm(tuple(range(n)))


def compose(p: Perm, r: Perm) -> Perm:
    """The permutation 'p then r': a -> r(p(a))."""
    if p.degree != r.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {r.degree}")
    return Perm(tuple(r.images[b] for b in p.images))


def inverse(p: Perm) -> Perm:
    inv = [0] * p.degree
    for a, b in enumerate(p.images):
        inv[b] = a
    return Perm(tuple(inv))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points omitted, each cycle led by its minimum."""
    seen = [False] * p.degree
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        a = p.images[start]
        while a != start:
            seen[a] = True
            cyc.append(a)
            a = p.images[a]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def parity(p: Perm) -> str:
    """'even' or 'odd' according to the sign of p."""
    swaps = sum(len(c) - 1 for c in cycles(p))
    return "even" if swaps % 2 == 0 else "odd"


def is_even(p: Perm) -> bool:
    return parity(p) == "even"


def transposition(n: int, a: int, b: int) -> Perm:
    if a == b:
        raise ValueError("transposition needs two distinct points")
    images = list(range(n))
    images[a], images[b] = b, a
    return Perm(tuple(images))


def cycle(n: int, points: tuple[int, ...]) -> Perm:
    """The cycle sending points[i] -> points[i+1], other points fixed."""
    if len(set(points)) != len(points):
        raise ValueError(f"repeated point in cycle {points}")
    images = list(range(n))
    for i, a in enumerate(points):
        images[a] = points[(i + 1) % len(points)]
    return Perm(tuple(images))


def symmetric_group(n: int) -> list[Perm]:
    """All n! permutations of degree n, in lexicographic image order."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if math.factorial(n) > group_cap():
        raise ResourceCapError(f"S_{n} has {math.factorial(n)} elements, over the cap {group_cap()}")
    return [Perm(images) for images in _permutations(range(n))]


def alternating_group(n: int) -> list[Perm]:
    """The even permutations of degree n, in lexicographic image order."""
    return [p for p in symmetric_group(n) if is_even(p)]


def lex_rank(p: Perm) -> int:
    """Position of p in symmetric_group(p.degree): its lexicographic rank."""
    im, n = p.images, p.degree
    return sum(
        sum(1 for b in im[i + 1 :] if b < a) * math.factorial(n - 1 - i)
        for i, a in enumerate(im)
    )


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse 'id', cycle notation, or an image list into a Perm of ``degree``."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if text == "id":
        return identity(degree)
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated image list: {text!r}")
        body = text[1:-1].strip()
        images = tuple(int(tok) for tok in body.split(",")) if body else ()
        if len(images) != degree:
            raise ValueError(f"image list {text!r} has length {len(images)}, expected {degree}")
        return Perm(images)
    if not text.startswith("("):
        raise ValueError(f"cannot parse permutation {text!r}")
    consumed = _CYCLE_RE.sub("", text).strip()
    if consumed:
        raise ValueError(f"trailing junk in permutation {text!r}")
    p = identity(degree)
    for body in _CYCLE_RE.findall(text):
        points = tuple(int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok)
        if len(points) < 2:
            raise ValueError(f"cycle needs at least two points: ({body})")
        for a in points:
            if not 0 <= a < degree:
                raise ValueError(f"point {a} outside range({degree})")
        # disjointness is enforced one cycle at a time; overlapping cycles
        # compose left to right like everything else here
        p = compose(p, cycle(degree, points))
    return p


def format_perm(p: Perm) -> str:
    """Cycle-notation text, 'id' for the identity."""
    cs = cycles(p)
    if not cs:
        return "id"
    return "".join("(" + " ".join(str(a) for a in c) + ")" for c in cs)
