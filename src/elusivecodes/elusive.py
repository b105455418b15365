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
from dataclasses import dataclass
from typing import Sequence

from .autgroup import (
    Automorphism,
    Group,
    apply,
    compose,
    format_automorphism,
    generate_group,
    identity_automorphism,
    inverse,
    orbit,
)
from .caps import ResourceCapError, group_cap, orbit_cap
from .codes import Code, fixes_setwise, neighbour_set, setwise_stabiliser, write_code
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
    """BFS orbit of the word set of C.

    Returns (image keys in discovery order, Schreier generators of the
    stabiliser of C, first word moving C or None).
    """
    start = C.words
    index = {start: 0}
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
            img = tuple(sorted(apply(g, w) for w in order[i]))
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


def _stabiliser_flags(C: Code, nb: frozenset[Vertex], gens: Sequence[Automorphism]) -> StabiliserFlags:
    return StabiliserFlags(
        transitive_on_code=orbit(gens, C.words[0]) == C.word_set,
        transitive_on_neighbours=bool(nb) and orbit(gens, min(nb)) == nb,
    )


def verify_elusive(
    C: Code, gens: Sequence[Automorphism], *, enum_cap: int = XC_ENUM_CAP
) -> ElusiveReport:
    """Full elusivity report for the pair (C, X = <gens>).

    ``xc_order`` is |X_C|, found by closing the Schreier generators of X_C
    up to ``enum_cap // r``, that is, when |X| = r * |X_C| is at most
    ``enum_cap`` and the group cap; otherwise None.  The transitivity flags
    need only the generators.
    """
    gens = tuple(gens)
    if enum_cap < 1:
        raise ValueError(f"enum_cap must be at least 1, got {enum_cap}")
    if len(C) < 2:
        raise ValueError("elusivity needs a code with at least two words")
    for g in gens:
        if g.m != C.m or g.q != C.q:
            raise ValueError("generator acts on the wrong space")
    nb = neighbour_set(C)

    fixes_neighbours = all(fixes_setwise(g, nb) for g in gens)
    images_keys, schreier, witness = _code_orbit(C, gens, orbit_cap())
    r = len(images_keys)
    fixes_code = r == 1
    images = tuple(Code(key) for key in sorted(images_keys))

    if r >= 2:
        sets = [img.word_set for img in images]
        images_pairwise_disjoint = all(
            not (sets[a] & sets[b]) for a in range(r) for b in range(a + 1, r)
        )
        common = frozenset.intersection(*sets)
        images_intersection = Code.from_words(common) if common else None
    else:
        images_pairwise_disjoint = True
        images_intersection = None

    x_transitive_on_neighbours = bool(nb) and orbit(gens, min(nb)) == nb
    xc = generate_group(schreier, cap=min(enum_cap, group_cap()) // r, m=C.m, q=C.q)
    xc_flags = _stabiliser_flags(C, nb, xc.generators)

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
    ``XC_ENUM_CAP`` and the group cap.
    """
    if G.m != C.m or G.q != C.q:
        raise ValueError("group acts on the wrong space")
    nb = neighbour_set(C)
    if G.elements is None:
        _, schreier, _ = _code_orbit(C, G.generators, orbit_cap())
        xc = generate_group(schreier, cap=XC_ENUM_CAP, m=C.m, q=C.q)
    else:
        xc = setwise_stabiliser(G, C)
    return xc, _stabiliser_flags(C, nb, xc.generators)


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
    keys = [
        "fixes_code",
        "fixes_neighbours",
        "image_count_r",
        "images_intersection",
        "images_pairwise_disjoint",
        "is_elusive",
        "witness_mover",
        "x_transitive_on_neighbours",
        "xc_order",
        "xc_transitive_on_code",
        "xc_transitive_on_neighbours",
    ]
    lines = [f"{k}={_fmt_value(getattr(report, k))}" for k in keys]
    return "\n".join(lines) + "\n"


def write_report(path, report: ElusiveReport) -> None:
    """Write the key=value report to ``path`` and each image to ``path.image<k>``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    for k, img in enumerate(report.images):
        write_code(f"{path}.image{k}", img, header_comments=(f"image {k} of the code orbit",))
