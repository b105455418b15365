"""Codes: vertex sets with metric invariants, orbits, stabilisers, equivalence.

A Code stores its words sorted and duplicate-free.  Neighbour sets are
built from the codewords' index digits (no ambient enumeration); the
definitional gamma_r sweep enumerates the space and is cap-guarded.  Set
tests, stabilisers and equivalences image only the set under test, by
packed key.  Stabilisers and equivalences ask one search down the
group's stabiliser chain, autgroup._transporters, which elements carry
one set onto another, and list no group.  A test of
generators that asks whether they fix a set and whether they are
transitive on it images the set once (_image_positions) and reads both
off that table, walking the orbit of the least vertex inside it
(_transitive_on).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .autgroup import (
    Automorphism,
    Group,
    _digits,
    _index_dtype,
    _indices,
    _key_table,
    _keys,
    _sorted_elements,
    _transporters,
    _vertices,
    apply,
)
from .caps import ResourceCapError, check_table_bytes
from .hamming import Vertex, all_vertices, distance, neighbours

__all__ = [
    "Code",
    "min_distance",
    "covering_radius",
    "neighbour_set",
    "gamma_r",
    "fixes_setwise",
    "is_transitive",
    "setwise_stabiliser",
    "are_equivalent",
    "is_neighbour_transitive",
    "apply_to_code",
    "read_code",
    "write_code",
    "format_code",
    "format_vertex_set",
    "words_array",
]


@dataclass(frozen=True)
class Code:
    """A nonempty set of vertices of one H(m,q), sorted lexicographically."""

    words: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a code needs at least one word")
        m, q = self.words[0].m, self.words[0].q
        for w in self.words:
            if w.m != m or w.q != q:
                raise ValueError("codewords live in different Hamming graphs")
        if any(a >= b for a, b in zip(self.words, self.words[1:])):
            raise ValueError("codewords must be strictly sorted; use Code.from_words")

    @classmethod
    def from_words(cls, words: Iterable[Vertex]) -> "Code":
        return cls(tuple(sorted(set(words))))

    @property
    def m(self) -> int:
        return self.words[0].m

    @property
    def q(self) -> int:
        return self.words[0].q

    @cached_property
    def word_set(self) -> frozenset[Vertex]:
        return frozenset(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.word_set


def words_array(C: Code) -> np.ndarray:
    """(|C|, m) int16 matrix of codeword entries."""
    return np.array([w.entries for w in C.words], dtype=np.int16)


def min_distance(C: Code) -> int:
    """Least pairwise distance over distinct codewords; needs |C| >= 2."""
    if len(C) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    return int(_kernels.min_distance_words(words_array(C)))


def covering_radius(C: Code) -> int:
    """Largest distance from any vertex of the space to the code."""
    rho = 0
    for v in all_vertices(C.m, C.q):
        rho = max(rho, min(distance(v, w) for w in C.words))
    return rho


def neighbour_set(C: Code) -> frozenset[Vertex]:
    """Vertices at distance exactly 1 from the code: the union of the
    codeword spheres of radius 1 minus the code, which covers every
    candidate even when two codewords are adjacent."""
    return frozenset(v for w in C.words for v in neighbours(w)) - C.word_set


def _neighbour_indices(idx: np.ndarray, m: int, q: int) -> np.ndarray:
    """Sorted indices of Γ1 of the code with the sorted indices ``idx``, in
    _key_table's dtype: digit j of index i moved by s = 1..q-1 is
    i + ((d_j + s) mod q - d_j) q^(m-1-j)."""
    powers, digits = _digits(m, q, idx)
    digits = digits[..., None]
    nb = np.sort(idx[:, None, None] + ((digits + np.arange(1, q)) % q - digits) * powers[:, None], axis=None)
    # distinct, then not in the code: by sorts and searches, as np.setdiff1d
    # costs 4-7x more here
    nb = nb[np.append(True, nb[1:] != nb[:-1])]
    return nb[idx.take(np.searchsorted(idx, nb), mode="clip") != nb].astype(_index_dtype(m, q))


def gamma_r(C: Code, r: int) -> frozenset[Vertex]:
    """Vertices at code-distance exactly r, by cap-guarded sweep of the space."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    out = set()
    for v in all_vertices(C.m, C.q):
        if min(distance(v, w) for w in C.words) == r:
            out.add(v)
    return frozenset(out)


def apply_to_code(x: Automorphism, C: Code) -> Code:
    return Code.from_words(apply(x, w) for w in C.words)


def fixes_setwise(x: Automorphism, S: Iterable[Vertex]) -> bool:
    """True iff S^x = S; a vertex of another space raises apply()'s error."""
    idx = _indices(S, x.m, x.q)
    return bool((np.sort(_key_table(_keys([x], x.m, x.q), x.m, x.q, idx)[0]) == idx).all())


def is_transitive(gens: Sequence[Automorphism], S: Iterable[Vertex]) -> bool:
    """True iff the gens-orbit of one element of S is all of S.

    Every generator must fix S setwise, otherwise orbits are not even
    contained in S and the question is ill-posed.
    """
    S = S.word_set if isinstance(S, Code) else frozenset(S)
    if not S:
        raise ValueError("transitivity on the empty set is ill-posed")
    gens = tuple(gens)
    m, q = (gens[0].m, gens[0].q) if gens else (min(S).m, min(S).q)
    at = _image_positions(_keys(gens, m, q), _indices(S, m, q), m, q)
    if at is None:
        raise ValueError("a generator moves the set off itself")
    return _transitive_on(at)


def _image_positions(keys: np.ndarray, idx: np.ndarray, m: int, q: int) -> np.ndarray | None:
    """Row e, column i: the position in the sorted indices ``idx`` of the
    image of idx[i] under the element behind keys[e]; None when an image
    leaves ``idx``, that is, when some element moves the set.

    One image table answers both set tests: whether each element fixes the
    set, and (_transitive_on) whether they are transitive on it.  Checks
    the bytes of the position table, intp cells, against the cap before
    imaging.
    """
    check_table_bytes(len(keys), len(idx), np.dtype(np.intp).itemsize)
    images = _key_table(keys, m, q, idx)
    at = np.searchsorted(idx, images)
    return at if (idx.take(at, mode="clip") == images).all() else None


def _transitive_on(at: np.ndarray | None) -> bool:
    """True iff the elements whose _image_positions of a set are ``at``
    generate a group that carries the set's first point onto the whole
    set; False for None: a set that some element moves is the orbit of
    none of its points.

    The orbit of position 0 is walked in the table, a layer at a time, each
    position once per layer: without that a layer holds every path to its
    positions.
    """
    if at is None:
        return False
    reached = np.zeros(at.shape[1], dtype=bool)
    reached[0] = True
    layer = np.zeros(1, dtype=np.intp)
    while layer.size:
        step = np.zeros(at.shape[1], dtype=bool)
        step[at[:, layer]] = True
        layer = np.flatnonzero(step & ~reached)
        reached |= step
    return bool(reached.all())


def _code_at(idxs: np.ndarray, m: int, q: int) -> Code:
    """The code whose words have the increasing indices ``idxs``."""
    return Code(tuple(_vertices(idxs, m, q)))


def setwise_stabiliser(G: Group, S: Iterable[Vertex]) -> Group:
    """The subgroup {x in G : S^x = S}, in G's key order, kept as keys;
    found down G's stabiliser chain, which images only S."""
    idx = _indices(S, G.m, G.q)
    if G.order is None:
        raise ResourceCapError("a setwise stabiliser needs an enumerated group")
    return Group(G.m, G.q, None, _transporters(G, idx, idx))


def are_equivalent(C: Code, D: Code, G: Group) -> Automorphism | None:
    """The first y in G, in key order, with C^y = D, or None; found down
    G's stabiliser chain, which images only C."""
    if G.order is None:
        raise ResourceCapError("an equivalence needs an enumerated group")
    if C.m != D.m or C.q != D.q or len(C) != len(D):
        return None
    keys = _transporters(G, _indices(C, G.m, G.q), _indices(D, G.m, G.q))
    return _sorted_elements(keys[:1], G.m, G.q)[0] if len(keys) else None


def is_neighbour_transitive(gens: Sequence[Automorphism], C: Code) -> bool:
    """Gens fix C setwise and act transitively on both C and its neighbour set."""
    m, q = C.m, C.q
    keys, code = _keys(tuple(gens), m, q), _indices(C, m, q)
    if not _transitive_on(_image_positions(keys, code, m, q)):
        return False
    nb = _neighbour_indices(code, m, q)
    return not nb.size or _transitive_on(_image_positions(keys, nb, m, q))


# ---------------------------------------------------------------------------
# file format: '#' comments, first line 'm q', one word per line

def format_vertex_set(vertices: Sequence[Vertex], m: int, q: int,
                      header_comments: Sequence[str] = ()) -> str:
    """Code-file text for a possibly-empty vertex set (rows sorted)."""
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"{m} {q}")
    lines.extend(" ".join(str(e) for e in w.entries) for w in sorted(set(vertices)))
    return "\n".join(lines) + "\n"


def format_code(C: Code, header_comments: Sequence[str] = ()) -> str:
    return format_vertex_set(C.words, C.m, C.q, header_comments)


def write_code(path, C: Code, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code(C, header_comments))


def parse_code(text: str) -> Code:
    m = q = None
    words: list[Vertex] = []
    seen: set[Vertex] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if m is None:
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: header must be 'm q'")
            m, q = int(fields[0]), int(fields[1])
            if m < 1 or q < 2:
                raise ValueError(f"line {lineno}: need m >= 1 and q >= 2")
            continue
        if len(fields) != m:
            raise ValueError(f"line {lineno}: expected {m} entries, got {len(fields)}")
        v = Vertex(tuple(int(f) for f in fields), q)
        if v in seen:
            raise ValueError(f"line {lineno}: duplicate codeword {v}")
        seen.add(v)
        words.append(v)
    if m is None:
        raise ValueError("missing 'm q' header line")
    if not words:
        raise ValueError("code file contains no words")
    return Code.from_words(words)


def read_code(path) -> Code:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code(fh.read())
