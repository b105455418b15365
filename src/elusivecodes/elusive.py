"""Deciding whether (C, X) is an elusive pair, and what the images look like.

A pair is elusive when the group fixes the neighbour set of C setwise
but moves C itself.  Verification works from generators alone: if every
generator fixes the neighbour set, so does the generated group.  The r
images of C are walked by the library's one breadth-first walk
(autgroup._set_orbit), which returns the orbit's edges with it; on point
rows they give a witness moving C and the Schreier generators of X_C
(autgroup._orbit_schreier).  The exact order
``xc_order`` is the product of the orbit lengths of their stabiliser
chain, with no element listed, reported when |X| = r * |X_C| is within
``enum_cap`` and the group cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .autgroup import (
    Automorphism,
    Group,
    _group_order,
    _keys,
    _orbit_schreier,
    _set_orbit,
    _sort_keys,
    _sorted_elements,
    format_automorphism,
    generate_group,
)
from .caps import group_cap
from .codes import (
    Code,
    _code_at,
    _image_positions,
    _indices,
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

# verify_elusive reports |X_C| up to this // r, so it bounds |X| = r * |X_C|;
# code_stabiliser_analysis lists a generators-only X_C up to this
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


def _stabiliser_flags(keys: np.ndarray, code: np.ndarray, nb: np.ndarray, m: int, q: int) -> StabiliserFlags:
    """Transitivity of the group generated by the elements behind ``keys``
    on C and Γ1(C), given as sorted vertex indices."""
    return StabiliserFlags(
        transitive_on_code=_transitive_on(_image_positions(keys, code, m, q)),
        transitive_on_neighbours=bool(nb.size) and _transitive_on(_image_positions(keys, nb, m, q)),
    )


def verify_elusive(
    C: Code, gens: Sequence[Automorphism], *, enum_cap: int = XC_ENUM_CAP
) -> ElusiveReport:
    """Full elusivity report for the pair (C, X = <gens>).

    ``xc_order`` is |X_C|, the order of the group the Schreier generators
    of X_C generate, read off their stabiliser chain without listing an
    element; it is reported when it is at most
    ``min(enum_cap, group cap) // r``, that is, when |X| = r * |X_C| is
    within both, and is None otherwise.  The transitivity flags need only
    the generators.  Only C, Γ1(C) and the vertices their images and
    orbits reach are imaged, never the whole space.
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

    nb_at = _image_positions(keys, nb, m, q)  # one table for both Γ1 tests
    fixes_neighbours = nb_at is not None
    orbit, target = _set_orbit(keys, code, m, q)
    schreier_keys, transversal = _orbit_schreier(keys, target, m, q)
    r = len(orbit)
    fixes_code = r == 1
    image_idxs = _sort_keys(orbit)  # row k: the indices of images[k]
    images = tuple(_code_at(row, m, q) for row in image_idxs)

    # each image is a set, so a vertex in every image is a run of r equal
    # values in the sorted indices of all images; C alone shares nothing
    flat = np.sort(image_idxs.ravel())
    images_pairwise_disjoint = bool((flat[1:] != flat[:-1]).all())
    common = flat[r - 1 :][flat[r - 1 :] == flat[: len(flat) - r + 1]]
    images_intersection = _code_at(common, m, q) if common.size and r >= 2 else None

    x_transitive_on_neighbours = bool(nb.size) and _transitive_on(nb_at)
    xc_order = _group_order(schreier_keys, m, q)
    if xc_order > min(enum_cap, group_cap()) // r:
        xc_order = None
    xc_flags = _stabiliser_flags(schreier_keys, code, nb, m, q)

    return ElusiveReport(
        is_elusive=fixes_neighbours and not fixes_code,
        fixes_neighbours=fixes_neighbours,
        fixes_code=fixes_code,
        image_count_r=r,
        images_pairwise_disjoint=images_pairwise_disjoint,
        images_intersection=images_intersection,
        x_transitive_on_neighbours=x_transitive_on_neighbours,
        xc_order=xc_order,
        xc_transitive_on_code=xc_flags.transitive_on_code,
        xc_transitive_on_neighbours=xc_flags.transitive_on_neighbours,
        witness_mover=None if fixes_code else _sorted_elements(transversal[1:2], m, q)[0],
        images=images,
    )


def code_stabiliser_analysis(C: Code, G: Group) -> tuple[Group, StabiliserFlags]:
    """The subgroup of G fixing C setwise, with its transitivity flags.

    Uses setwise_stabiliser when G's order is known (G holds its chain or
    its keys), otherwise Schreier generators from the orbit of C, listed
    when |X_C| is at most ``XC_ENUM_CAP`` and the group cap.  The flags act
    on the vertex indices of C and Γ1(C) through the keys of the Schreier
    generators, or of every element of the stabiliser.
    """
    if G.m != C.m or G.q != C.q:
        raise ValueError("group acts on the wrong space")
    m, q = C.m, C.q
    code = _indices(C, m, q)
    if G.order is None:
        gens = _keys(G.generators, m, q)
        keys = _orbit_schreier(gens, _set_orbit(gens, code, m, q)[1], m, q)[0]
        xc = generate_group(_sorted_elements(keys, m, q), cap=XC_ENUM_CAP, m=m, q=q)
    else:
        xc = setwise_stabiliser(G, C)
        keys = xc.keys
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
