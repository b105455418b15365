"""Executable lemma batteries behind the ``lemmas`` CLI subcommand.

The distance-2 geometry of H(m,q) and the pre-codeword partition
structure around a moved codeword live here too, beside the ``neigh``
and ``partition`` batteries that check them.

Each suite returns (name, ok, detail) triples; a battery passes when
every triple is ok.  Everything here is exhaustive at desk scale except
the explicitly seeded random spot checks in the action suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

import numpy as np

from . import _kernels
from . import constructions as cons
from . import perms
from .autgroup import (
    Automorphism,
    _row_keys,
    apply,
    compose,
    diag,
    diag_top_generators,
    full_action_table,
    full_group_generators,
    generate_group,
    identity_automorphism,
    stab0_action_table,
    top,
    vertex_action_table,
    wreath_embed,
    wreath_generators,
)
from .codes import Code, _neighbour_indices, min_distance, neighbour_set
from .elusive import verify_elusive
from .hamming import Vertex, all_vertices, distance, neighbours, sphere
from .search import _canonical_codes, _SearchSpace

__all__ = [
    "PreSet",
    "PartitionCheck",
    "common_neighbours",
    "fourth_vertex",
    "pre_codewords",
    "check_partition_lemma",
    "suite_same",
    "suite_act",
    "suite_partition",
    "suite_neigh",
    "SUITES",
]


# ---------------------------------------------------------------------------
# the distance-2 geometry behind the pruning lemmas

def common_neighbours(a: Vertex, b: Vertex) -> frozenset[Vertex]:
    """The two shared neighbours of a pair at distance 2."""
    if distance(a, b) != 2:
        raise ValueError("common neighbours are only taken at distance exactly 2")
    i, j = (k for k in range(a.m) if a.entries[k] != b.entries[k])
    return frozenset((a.replace(i, b.entries[i]), a.replace(j, b.entries[j])))


def fourth_vertex(a: Vertex, mu: Vertex, nu: Vertex) -> Vertex:
    """The unique b with common_neighbours(a, b) == {mu, nu}.

    mu and nu must be neighbours of a at mutual distance 2; b takes
    mu's change and nu's change simultaneously.
    """
    if distance(a, mu) != 1 or distance(a, nu) != 1 or distance(mu, nu) != 2:
        raise ValueError("need two neighbours of a at mutual distance 2")
    (i,) = (k for k in range(a.m) if a.entries[k] != mu.entries[k])
    (j,) = (k for k in range(a.m) if a.entries[k] != nu.entries[k])
    return a.replace(i, mu.entries[i]).replace(j, nu.entries[j])


@dataclass(frozen=True)
class PreSet:
    """Vertices at distance 2 from ``base`` that the mover sends back into the code."""

    base: Vertex
    mover: Automorphism
    members: frozenset[Vertex]


def pre_codewords(C: Code, x: Automorphism, alpha: Vertex) -> PreSet:
    """All pi with d(alpha, pi) = 2 and pi^x in C.

    Only defined when alpha is a codeword that x moves out of the code,
    and the code has minimum distance at least 3.
    """
    if alpha not in C:
        raise ValueError("alpha must be a codeword")
    if apply(x, alpha) in C:
        raise ValueError("x must move alpha out of the code")
    if min_distance(C) < 3:
        raise ValueError("pre-codewords need minimum distance >= 3")
    members = frozenset(pi for pi in sphere(alpha, 2) if apply(x, pi) in C)
    return PreSet(alpha, x, members)


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of the three partition clauses around one (codeword, mover) pair."""

    passed: bool
    base_partition_ok: bool  # parts Γ1(alpha)∩Γ1(pi) tile Γ1(alpha)
    pre_partition_ok: bool  # for each pi: parts Γ1(pi)∩Γ1(beta) tile Γ1(pi)
    entry_separation_ok: bool  # other pre-codewords change some third entry
    part_sizes_two: bool
    part_count: int
    expected_part_count: float


def _is_partition(parts: Sequence[frozenset[Vertex]], whole: frozenset[Vertex]) -> bool:
    seen: set[Vertex] = set()
    for part in parts:
        if not part or (part & seen):
            return False
        seen.update(part)
    return seen == whole


def check_partition_lemma(C: Code, x: Automorphism, alpha: Vertex) -> PartitionCheck:
    """Check the pre-codeword partition structure at one codeword.

    Verifies that the common-neighbour parts of the pre-codewords tile
    the neighbourhood of alpha, that codeword parts tile each
    pre-codeword's neighbourhood, and that distinct pre-codewords
    disagree with alpha in distinct entry pairs; all parts must have
    size 2.
    """
    pre = pre_codewords(C, x, alpha)
    sphere1_alpha = frozenset(sphere(alpha, 1))
    members = sorted(pre.members)

    base_parts = [sphere1_alpha & frozenset(sphere(pi, 1)) for pi in members]
    base_partition_ok = _is_partition(base_parts, sphere1_alpha)
    sizes_ok = all(len(p) == 2 for p in base_parts)

    pre_partition_ok = True
    for pi in members:
        sphere1_pi = frozenset(sphere(pi, 1))
        codewords_at_2 = [beta for beta in C.words if distance(pi, beta) == 2]
        parts = [sphere1_pi & frozenset(sphere(beta, 1)) for beta in codewords_at_2]
        if not _is_partition(parts, sphere1_pi):
            pre_partition_ok = False
        if not all(len(p) == 2 for p in parts):
            sizes_ok = False

    entry_separation_ok = True
    for pi in members:
        changed = {k for k in range(alpha.m) if alpha.entries[k] != pi.entries[k]}
        for other in members:
            if other == pi:
                continue
            part = sphere1_alpha & frozenset(sphere(other, 1))
            if not any(
                next(k for k in range(alpha.m) if alpha.entries[k] != v.entries[k]) not in changed
                for v in part
            ):
                entry_separation_ok = False

    expected = alpha.m * (alpha.q - 1) / 2
    return PartitionCheck(
        passed=base_partition_ok and pre_partition_ok and entry_separation_ok and sizes_ok,
        base_partition_ok=base_partition_ok,
        pre_partition_ok=pre_partition_ok,
        entry_separation_ok=entry_separation_ok,
        part_sizes_two=sizes_ok,
        part_count=len(base_parts),
        expected_part_count=expected,
    )


# ---------------------------------------------------------------------------
# the batteries

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def suite_same() -> list[Check]:
    """Neighbour-set identities across the constructed families."""
    out = []
    for q in (3, 4, 5):
        a, s, o = cons.alt_code(q), cons.sym_code(q), cons.odd_coset_code(q)
        same = neighbour_set(a) == neighbour_set(s) == neighbour_set(o)
        out.append(_check(f"gamma1-even-odd-full-q{q}", same, "neighbour sets differ"))
        out.append(
            _check(
                f"even-odd-union-q{q}",
                a.word_set | o.word_set == s.word_set and not (a.word_set & o.word_set),
                "even/odd words do not split the full permutation code",
            )
        )
    for q, l in ((3, 2), (3, 3)):
        prod = cons.product_code(cons.sym_code(q), l)
        par = cons.parity_code(q, l)
        out.append(
            _check(
                f"gamma1-product-parity-q{q}l{l}",
                neighbour_set(prod) == neighbour_set(par),
                "parity subcode has a different neighbour set",
            )
        )
    for q, l in ((3, 2), (3, 3), (4, 2)):
        par = cons.parity_code(q, l)
        odd = cons.parity_code(q, l, "odd")
        prod = cons.product_code(cons.sym_code(q), l)
        ok = par.word_set | odd.word_set == prod.word_set and not (par.word_set & odd.word_set)
        out.append(_check(f"parity-split-q{q}l{l}", ok, "even/odd blocks do not split the product"))
    for q in (4, 5):
        a, r = cons.alt_code(q), cons.rep_code(q, q)
        u = cons.union_code(a, r)
        na, nr = neighbour_set(a), neighbour_set(r)
        ok = neighbour_set(u) == na | nr and not (na & nr)
        out.append(_check(f"gamma1-union-disjoint-q{q}", ok, "union neighbour set is not a disjoint union"))
    return out


def _act_identity_holds(q: int) -> bool:
    sq = perms.symmetric_group(q)
    for y in sq:
        for z in sq:
            x = compose(diag(y, q), top(z))
            z_inv = perms.inverse(z)
            for g in sq:
                target = perms.compose(perms.compose(z_inv, g), y)
                if apply(x, cons.perm_vertex(g)) != cons.perm_vertex(target):
                    return False
                for i in range(q):
                    for j in range(q):
                        if i == j:
                            continue
                        lhs = apply(x, cons.nu(g, i, j))
                        if lhs != cons.nu(target, z.images[i], z.images[j]):
                            return False
    return True


def _nu_swap_holds(q: int) -> bool:
    for g in perms.symmetric_group(q):
        for i in range(q):
            for j in range(q):
                if i != j:
                    swapped = perms.compose(perms.transposition(q, i, j), g)
                    if cons.nu(g, i, j) != cons.nu(swapped, j, i):
                        return False
    return True


def _nu_covers_neighbours(q: int) -> bool:
    for g in perms.symmetric_group(q):
        images = {cons.nu(g, i, j) for i in range(q) for j in range(q) if i != j}
        if images != sphere(cons.perm_vertex(g), 1):
            return False
    return True


def _mu_equivariance_holds() -> bool:
    q, l = 3, 2
    blocks = cons.sym_code(q).words
    sigma = perms.transposition(l, 0, 1)
    x = wreath_embed([identity_automorphism(q, q)] * l, sigma)
    for a0, a1 in _iproduct(blocks, repeat=2):
        bold = (a0, a1)
        permuted = (a1, a0)
        for i in range(l):
            for nb in neighbours(bold[i]):
                lhs = apply(x, cons.mu(bold, nb, i))
                if lhs != cons.mu(permuted, nb, sigma.images[i]):
                    return False
    return True


def _coset_kernels_agree(m: int, q: int, delta: int) -> tuple[bool, bool, bool, bool]:
    """(canonicity, batch, mover, fixers) verdicts of the coset kernels
    against the full table: is_canonical and canonical_children on every
    child of every node the walk tests; at every code it could scan,
    first_mover, and every full-table row fixing Γ1(C) sending 0 into the
    cosets fixer_cosets lists, the Found stabiliser being those rows."""
    space = _SearchSpace(m, q, delta)
    full = full_action_table(m, q)
    canonical = list(_canonical_codes(space))
    canon_ok = batch_ok = True
    for code in [[0]] + [code for code, _ in canonical]:
        cand = np.array(
            [v for v in range(code[-1] + 1, space.n) if space.dist[v, code].min() >= delta], dtype=np.int32
        )
        batch = _kernels.canonical_children(space.stab0, np.array(code, dtype=np.int32), cand, space.minus)
        for v, in_batch in zip(cand.tolist(), batch):
            child = code + [v]
            imgs = np.sort(full[:, child], axis=1)
            least = imgs[np.lexsort(imgs.T[::-1])[0]]  # the lexicographically least image
            want = np.array_equal(least, child)
            canon_ok &= _kernels.is_canonical(space.stab0, np.array(child), space.minus) == want
            batch_ok &= bool(in_batch) == want
    mover_ok = fixers_ok = True
    for code in (code for code, cur_min in canonical if cur_min == delta):
        nb_mask = np.zeros(space.n, dtype=bool)
        nb_mask[_neighbour_indices(np.array(code), m, q)] = True
        code_mask = np.zeros(space.n, dtype=bool)
        code_mask[code] = True
        rows = np.flatnonzero(_kernels.stabiliser_rows(full, nb_mask))
        moved = bool((code_mask[full[rows]] != code_mask).any())
        got = _kernels.first_mover(space.stab0, code, space.plus, space.adj)
        mover_ok &= (got >= 0) == moved
        _, us, _ = _kernels.fixer_cosets(code, space.adj)
        fixers_ok &= bool(np.isin(full[rows, 0], us).all()) and np.array_equal(
            space.stabiliser(code).keys, _row_keys(rows, m, perms.symmetric_group(q))
        )
    return canon_ok, batch_ok, mover_ok, fixers_ok


def suite_act(seed: int = 0) -> list[Check]:
    """The group-action identity on permutation words, plus action axioms
    and the search's coset kernels against the full table."""
    full33 = full_action_table(3, 3)
    out = [
        _check("act-identity-q3", _act_identity_holds(3), "diag/top action identity fails"),
        _check("act-identity-q4", _act_identity_holds(4), "diag/top action identity fails"),
        _check("nu-swap-q3", _nu_swap_holds(3), "swap identity fails"),
        _check("nu-swap-q4", _nu_swap_holds(4), "swap identity fails"),
        _check("nu-covers-q3", _nu_covers_neighbours(3), "neighbour parametrisation misses vertices"),
        _check("mu-equivariance-q3l2", _mu_equivariance_holds(), "block equivariance fails"),
        _check(
            "full-table-closed-form-h33",
            np.array_equal(
                full33,
                vertex_action_table(generate_group(full_group_generators(3, 3)).elements, 3, 3),
            ),
            "closed-form table differs from the BFS group's table",
        ),
        _check(
            "stab0-closed-form-h33",
            np.array_equal(stab0_action_table(3, 3), full33[full33[:, 0] == 0]),
            "Stab(0) table differs from the full table's rows fixing vertex 0",
        ),
    ]
    agree = [_coset_kernels_agree(3, 3, delta) for delta in (2, 3)]
    out.append(
        _check(
            "coset-canonicity-h33",
            all(canon for canon, _, _, _ in agree),
            "coset canonicity differs from the full-table scan",
        )
    )
    out.append(
        _check(
            "batch-children-h33",
            all(batch for _, batch, _, _ in agree),
            "batch canonicity of a node's children differs from the full-table scan",
        )
    )
    out.append(
        _check(
            "mover-prune-h33",
            all(mover for _, _, mover, _ in agree),
            "pruned coset mover scan differs from the full-table scan",
        )
    )
    out.append(
        _check(
            "fixer-cosets-h33",
            all(fixers for _, _, _, fixers in agree),
            "a fixer of Γ1(C) lies outside the listed cosets, or the Found stabiliser differs from its rows",
        )
    )
    rng = random.Random(seed)
    gens = full_group_generators(4, 3)
    verts = list(all_vertices(4, 3))

    def random_element():
        x = identity_automorphism(4, 3)
        for _ in range(rng.randrange(1, 7)):
            x = compose(x, rng.choice(gens))
        return x

    ok_axiom = ok_isometry = True
    for _ in range(100):
        x, y = random_element(), random_element()
        u, v = rng.choice(verts), rng.choice(verts)
        if apply(compose(x, y), u) != apply(y, apply(x, u)):
            ok_axiom = False
        if distance(apply(x, u), apply(x, v)) != distance(u, v):
            ok_isometry = False
    out.append(_check("action-axiom-random-h43", ok_axiom, "compose/apply mismatch"))
    out.append(_check("isometry-random-h43", ok_isometry, "distance not preserved"))
    return out


def _elusive_pairs_for_partition():
    yield "alt-q3", cons.alt_code(3), diag_top_generators(3)
    yield "alt-q4", cons.alt_code(4), diag_top_generators(4)
    yield "parity-q3l2", cons.parity_code(3, 2), wreath_generators(3, 2)
    yield "parity-q3l3", cons.parity_code(3, 3), wreath_generators(3, 3)
    yield "union-q4", cons.union_code(cons.alt_code(4), cons.rep_code(4, 4)), diag_top_generators(4)


def suite_partition() -> list[Check]:
    """Pre-codeword partition clauses on every verified elusive pair here."""
    out = []
    for name, C, gens in _elusive_pairs_for_partition():
        report = verify_elusive(C, gens, enum_cap=1)
        if not report.is_elusive:
            out.append(_check(f"partition-{name}", False, "pair failed to verify as elusive"))
            continue
        x = report.witness_mover
        expected = C.m * (C.q - 1) // 2
        moved = [w for w in C.words if apply(x, w) not in C]
        ok = bool(moved)
        detail = ""
        for alpha in moved:
            res = check_partition_lemma(C, x, alpha)
            if not (res.passed and res.part_count == expected):
                ok = False
                detail = f"failure at codeword {alpha}"
                break
        out.append(_check(f"partition-{name}", ok, detail))
    return out


def suite_neigh() -> list[Check]:
    """Distance-2 geometry of H(4,3): common neighbours and reconstruction."""
    verts = list(all_vertices(4, 3))
    ok_pairs = ok_recon = ok_unique = True
    for a in verts:
        part_owner: dict[frozenset, Vertex] = {}
        for b in verts:
            if b != a and distance(a, b) == 2:
                pair = common_neighbours(a, b)
                mu_v, nu_v = sorted(pair)
                if len(pair) != 2 or distance(mu_v, nu_v) != 2:
                    ok_pairs = False
                if distance(a, mu_v) != 1 or distance(b, mu_v) != 1:
                    ok_pairs = False
                if fourth_vertex(a, mu_v, nu_v) != b:
                    ok_recon = False
                if pair in part_owner:
                    ok_unique = False
                part_owner[pair] = b
        # exhaustive converse: every neighbour pair at mutual distance 2 is hit once
        nbs = sorted(neighbours(a))
        expected = sum(
            1
            for s in range(len(nbs))
            for t in range(s + 1, len(nbs))
            if distance(nbs[s], nbs[t]) == 2
        )
        if len(part_owner) != expected:
            ok_unique = False
    return [
        _check("common-neighbours-count-h43", ok_pairs, "pair at distance 2 without exactly two shared neighbours"),
        _check("fourth-vertex-reconstruction-h43", ok_recon, "reconstruction mismatch"),
        _check("fourth-vertex-uniqueness-h43", ok_unique, "a neighbour pair determines more than one vertex"),
    ]


SUITES = {
    "same": lambda seed=0: suite_same(),
    "act": suite_act,
    "partition": lambda seed=0: suite_partition(),
    "neigh": lambda seed=0: suite_neigh(),
}
