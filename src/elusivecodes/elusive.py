"""Deciding whether (C, X) is an elusive pair, and what the images look like.

A pair is elusive when the group fixes the neighbour set of C setwise
but moves C itself.  Verification works from generators alone: if every
generator fixes the neighbour set, so does the generated group, and a
group element moving C is exhibited explicitly.  The stabiliser X_C of C
is reached through Schreier generators of the action on the r code
images; the exact order ``xc_order`` closes X_C alone, up to
``enum_cap // r``, since |X| = r * |X_C|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .autgroup import (
    Automorphism,
    Group,
    _key_table,
    _keys,
    compose,
    format_automorphism,
    generate_group,
    identity_automorphism,
    inverse,
)
from .caps import ResourceCapError, group_cap, orbit_cap
from .codes import (
    Code,
    _code_at,
    _indices,
    _is_set,
    _neighbour_indices,
    _transitive_on,
    neighbour_set,
    setwise_stabiliser,
    write_code,
)
from .hamming import Vertex, neighbours

__all__ = [
    "ElusiveReport",
    "StabiliserFlags",
    "verify_elusive",
    "code_stabiliser_analysis",
    "neighbour_degree_profile",
    "neighbour_degree_map",
    "format_report",
    "write_report",
]

# verify_elusive closes X_C up to this // r, so it bounds |X| = r * |X_C|;
# code_stabiliser_analysis closes a generators-only X_C up to this
XC_ENUM_CAP = 50_000


@dataclass(frozen=True)
class ElusiveReport:
    is_elusive: bool
    fixes_neighbours: bool
    fixes_code: bool
    image_count_r: int
    images_pairwise_disjoint: bool
    images_intersection: Code | None
    x_transitive_on_neighbours: bool
    xc_order: int | None
    xc_transitive_on_code: bool
    xc_transitive_on_neighbours: bool
    witness_mover: Automorphism | None
    images: tuple[Code, ...]  # every C^x, sorted; images[k] backs the .image<k> file


@dataclass(frozen=True)
class StabiliserFlags:
    transitive_on_code: bool
    transitive_on_neighbours: bool


def _code_orbit(C: Code, gens: Sequence[Automorphism], cap: int):
    """BFS orbit of the word set of C, imaging each found set through the
    generators' keys.

    Returns (images as increasing index tuples in discovery order, Schreier
    generators of the stabiliser of C, first word moving C or None).
    """
    m, q = C.m, C.q
    keys = _keys(gens, m, q)
    start = tuple(_indices(C, m, q).tolist())
    index = {start: 0}
    order = [start]
    transversal = [identity_automorphism(m, q)]
    schreier: list[Automorphism] = []
    seen_schreier: set[Automorphism] = set()
    witness = None
    at = 0
    while at < len(order):
        i = at
        at += 1
        images = np.sort(_key_table(keys, m, q, order[i]), axis=1).tolist()
        for g, img in zip(gens, map(tuple, images)):
            word = compose(transversal[i], g)
            j = index.get(img)
            if j is None:
                index[img] = len(order)
                order.append(img)
                transversal.append(word)
                if witness is None and img != start:
                    witness = word
                if len(order) > cap:
                    raise ResourceCapError(f"code orbit exceeded cap {cap}")
            else:
                stab_el = compose(word, inverse(transversal[j]))
                if not stab_el.is_identity() and stab_el not in seen_schreier:
                    seen_schreier.add(stab_el)
                    schreier.append(stab_el)
    return order, schreier, witness


def _stabiliser_flags(keys: np.ndarray, code: np.ndarray, nb: np.ndarray, m: int, q: int) -> StabiliserFlags:
    """Transitivity of the group generated by the elements behind ``keys``
    on C and Γ1(C), given as sorted vertex indices."""
    return StabiliserFlags(
        transitive_on_code=_transitive_on(keys, code, m, q),
        transitive_on_neighbours=bool(nb.size) and _transitive_on(keys, nb, m, q),
    )


def verify_elusive(
    C: Code, gens: Sequence[Automorphism], *, enum_cap: int = XC_ENUM_CAP
) -> ElusiveReport:
    """Full elusivity report for the pair (C, X = <gens>).

    ``xc_order`` is |X_C|, found by closing the Schreier generators of X_C
    up to ``enum_cap // r``, that is, when |X| = r * |X_C| is at most
    ``enum_cap`` and the group cap; otherwise None.  The transitivity flags
    need only the generators.  Only C, Γ1(C) and the vertices their images
    and orbits reach are imaged, never the whole space.
    """
    gens = tuple(gens)
    if enum_cap < 1:
        raise ValueError(f"enum_cap must be at least 1, got {enum_cap}")
    if len(C) < 2:
        raise ValueError("elusivity needs a code with at least two words")
    for g in gens:
        if g.m != C.m or g.q != C.q:
            raise ValueError("generator acts on the wrong space")
    m, q = C.m, C.q
    code, keys = _indices(C, m, q), _keys(gens, m, q)
    nb = _neighbour_indices(code, m, q)

    fixes_neighbours = bool(_is_set(_key_table(keys, m, q, nb), nb).all())
    images_keys, schreier, witness = _code_orbit(C, gens, orbit_cap())
    r = len(images_keys)
    fixes_code = r == 1
    image_idxs = np.array(sorted(images_keys))  # row k: the indices of images[k]
    images = tuple(_code_at(row, m, q) for row in image_idxs)

    if r >= 2:
        # each image is a set, so a vertex in every image is a run of r
        # equal values in the sorted indices of all images
        flat = np.sort(image_idxs.ravel())
        images_pairwise_disjoint = bool((flat[1:] != flat[:-1]).all())
        common = flat[r - 1 :][flat[r - 1 :] == flat[: len(flat) - r + 1]]
        images_intersection = _code_at(common, m, q) if common.size else None
    else:
        images_pairwise_disjoint = True
        images_intersection = None

    x_transitive_on_neighbours = bool(nb.size) and _transitive_on(keys, nb, m, q)
    xc = generate_group(schreier, cap=min(enum_cap, group_cap()) // r, m=m, q=q)
    xc_flags = _stabiliser_flags(_keys(schreier, m, q), code, nb, m, q)

    return ElusiveReport(
        is_elusive=fixes_neighbours and not fixes_code,
        fixes_neighbours=fixes_neighbours,
        fixes_code=fixes_code,
        image_count_r=r,
        images_pairwise_disjoint=images_pairwise_disjoint,
        images_intersection=images_intersection,
        x_transitive_on_neighbours=x_transitive_on_neighbours,
        xc_order=xc.order,
        xc_transitive_on_code=xc_flags.transitive_on_code,
        xc_transitive_on_neighbours=xc_flags.transitive_on_neighbours,
        witness_mover=witness if not fixes_code else None,
        images=images,
    )


def code_stabiliser_analysis(C: Code, G: Group) -> tuple[Group, StabiliserFlags]:
    """The subgroup of G fixing C setwise, with its transitivity flags.

    Uses setwise_stabiliser when G is enumerated, otherwise Schreier
    generators from the orbit of C, closed when |X_C| is at most
    ``XC_ENUM_CAP`` and the group cap.  The flags act on the vertex indices
    of C and Γ1(C) through the keys of the Schreier generators, or of every
    element of the stabiliser.
    """
    if G.m != C.m or G.q != C.q:
        raise ValueError("group acts on the wrong space")
    m, q = C.m, C.q
    if G.keys is None:
        _, schreier, _ = _code_orbit(C, G.generators, orbit_cap())
        xc = generate_group(schreier, cap=XC_ENUM_CAP, m=m, q=q)
        keys = _keys(schreier, m, q)
    else:
        xc = setwise_stabiliser(G, C)
        keys = xc.keys
    code = _indices(C, m, q)
    return xc, _stabiliser_flags(keys, code, _neighbour_indices(code, m, q), m, q)


def neighbour_degree_map(C: Code) -> dict[Vertex, int]:
    """For each neighbour-set vertex, how many of its neighbours are back in the neighbour set."""
    nb = neighbour_set(C)
    return {v: sum(1 for w in neighbours(v) if w in nb) for v in nb}


def neighbour_degree_profile(C: Code) -> Counter:
    """Multiset of the neighbour-degree values over the whole neighbour set."""
    return Counter(neighbour_degree_map(C).values())


# ---------------------------------------------------------------------------
# report serialization: alphabetical key=value lines, images as code files

def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Automorphism):
        return format_automorphism(value)
    if isinstance(value, Code):
        return ";".join(" ".join(str(e) for e in w.entries) for w in value.words)
    raise TypeError(f"cannot serialize {value!r}")


def format_report(report: ElusiveReport) -> str:
    """Every field but the images, one ``key=value`` line each, keys sorted."""
    keys = sorted(f.name for f in fields(ElusiveReport) if f.name != "images")
    return "".join(f"{k}={_fmt_value(getattr(report, k))}\n" for k in keys)


def write_report(path, report: ElusiveReport) -> None:
    """Write the key=value report to ``path`` and each image to ``path.image<k>``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    for k, img in enumerate(report.images):
        write_code(f"{path}.image{k}", img, header_comments=(f"image {k} of the code orbit",))
