"""Executable lemma batteries behind the ``lemmas`` CLI subcommand.

The distance-2 geometry of H(m,q) and the pre-codeword partition
structure around a moved codeword live here too, beside the ``neigh``
and ``partition`` batteries that check them.

Each suite returns (name, ok, detail) triples; a battery passes when
every triple is ok.  Everything here is exhaustive at desk scale except
the explicitly seeded random spot checks in the action suite.
"""

from __future__ import annotations

import math
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
    _chain_order,
    _key_table,
    _keys,
    _stabiliser_chain,
    apply,
    compose,
    diag,
    diag_top_generators,
    full_group_generators,
    generate_group,
    identity_automorphism,
    stab0_action_table,
    top,
    wreath_embed,
    wreath_generators,
)
from .codes import (
    Code,
    _code_at,
    _neighbour_indices,
    apply_to_code,
    are_equivalent,
    min_distance,
    neighbour_set,
    setwise_stabiliser,
)
from .elusive import verify_elusive
from .hamming import Vertex, all_vertices, distance, neighbours, sphere, vertex_index
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
        split = a.word_set | o.word_set == s.word_set and not (a.word_set & o.word_set)
        out.append(_check(f"gamma1-even-odd-full-q{q}", same, "neighbour sets differ"))
        out.append(_check(f"even-odd-union-q{q}", split, "even/odd words do not split the full permutation code"))
    for q, l in ((3, 2), (3, 3)):
        same = neighbour_set(cons.product_code(cons.sym_code(q), l)) == neighbour_set(cons.parity_code(q, l))
        out.append(_check(f"gamma1-product-parity-q{q}l{l}", same, "parity subcode has a different neighbour set"))
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


def _full_table(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, table): the sorted keys of all of Aut(H(m,q)), listed by its
    stabiliser chain, and their vertex action table, row e imaging by
    keys[e]; it shares no code with the Stab(0) closed form."""
    keys = generate_group(full_group_generators(m, q)).keys
    return keys, _key_table(keys, m, q)


def _space_arrays_agree(m: int, q: int) -> bool:
    """The search space's arrays of H(m,q) against their definitions on
    Vertex objects: minus[c, x] is the index of x - c digit by digit mod q,
    weight[minus[c, x]] is the distance d(c, x), and adj[c] lists the
    indices of the neighbours of c."""
    space = _SearchSpace(m, q, 1)
    verts = list(all_vertices(m, q))
    ok = True
    for c, u in enumerate(verts):
        diffs = [Vertex(tuple((a - b) % q for a, b in zip(x.entries, u.entries)), q) for x in verts]
        ok &= space.minus[c].tolist() == [vertex_index(y) for y in diffs]
        ok &= space.weight.take(space.minus[c]).tolist() == [distance(u, x) for x in verts]
        ok &= sorted(space.adj[c].tolist()) == sorted(vertex_index(x) for x in neighbours(u))
    return ok


def _coset_kernels_agree(m: int, q: int, delta: int) -> tuple[bool, bool, bool, bool, bool]:
    """(canonicity, batch, mover, fixers, min-distance) verdicts of the coset
    kernels and the walk's lemmas against the _full_table: is_canonical on
    every child with pairwise distance >= delta of every node the walk
    tests, and canonical_children on those at distance >= d(C), one call
    for the nodes of each size and minimum distance; at every
    code it could scan, first_mover, and every full-table row fixing Γ1(C)
    sending 0 into the cosets fixer_cosets lists, the Found stabiliser
    being those rows; and the min-distance lemma: every canonical C has
    C[1] = L(d(C)), L(w) = (q^w - 1)/(q - 1), a child of {0} is canonical
    iff it is {0, L(d)}, and every child nearer than d(C) to C is not."""
    space = _SearchSpace(m, q, delta)
    keys, full = _full_table(m, q)
    canonical = list(_canonical_codes(space))
    dist = space.weight.take(space.minus)  # d(c, x) = wt(x - c)
    canon_ok = min_ok = True
    depths: dict[tuple[int, int], list] = {}  # (size, d): (code, candidates, verdicts) of each node
    for code in [[0]] + [code for code, _ in canonical]:
        near = dist[:, code].min(axis=1)
        cand = np.array([v for v in range(code[-1] + 1, space.n) if near[v] >= delta], dtype=np.int32)
        d = int(dist[np.ix_(code, code)][np.triu_indices(len(code), 1)].min()) if len(code) > 1 else None
        least = None if d is None else (q**d - 1) // (q - 1)
        min_ok &= least is None or code[1] == least
        wants = []
        for v in cand.tolist():
            child = code + [v]
            imgs = np.sort(full[:, child], axis=1)
            want = np.array_equal(imgs[np.lexsort(imgs.T[::-1])[0]], child)  # the lexicographically least image
            canon_ok &= _kernels.is_canonical(space.stab0, np.array(child), space.minus) == want
            if d is None:
                min_ok &= want == (v == (q ** near[v] - 1) // (q - 1))
            elif near[v] < d:
                min_ok &= not want
            wants.append(want)
        far = d is not None and near[cand] >= d
        if np.any(far):
            depths.setdefault((len(code), d), []).append((code, cand[far], np.array(wants)[far]))
    batch_ok = True
    for codes, cands, wants in (zip(*nodes) for nodes in depths.values()):
        starts = np.cumsum([0] + [c.size for c in cands])
        batch = _kernels.canonical_children(space, np.array(codes, dtype=np.int32), np.concatenate(cands), starts)
        batch_ok &= np.array_equal(batch, np.concatenate(wants))
    mover_ok = fixers_ok = True
    for code in (code for code, cur_min in canonical if cur_min == delta):
        nb_mask = np.zeros(space.n, dtype=bool)
        nb_mask[_neighbour_indices(np.array(code), m, q)] = True
        code_mask = np.zeros(space.n, dtype=bool)
        code_mask[code] = True
        rows = np.flatnonzero(_kernels.stabiliser_rows(full, nb_mask))
        moved = bool((code_mask[full[rows]] != code_mask).any())
        got = _kernels.first_mover(space.stab0, code, space.minus, space.adj)
        mover_ok &= (got >= 0) == moved
        _, (off,) = _kernels.fixer_cosets([code], space.adj)
        fixers_ok &= bool((off | code_mask)[full[rows, 0]].all())
        fixers_ok &= np.array_equal(space.stabiliser(code).keys, keys[rows])
    return canon_ok, batch_ok, mover_ok, fixers_ok, bool(min_ok)


def _depth_batches_agree() -> bool:
    """The walks of H(3,3) at delta = 1, to size 6, 2 and 3 deciding one node
    a kernel call (_CHILD_CELLS = 0) and a whole depth a call (2^62) yield
    the same codes in the same order (search._canonical_codes)."""
    budget, walks = _kernels._CHILD_CELLS, []
    cases = [(_SearchSpace(3, 3, delta), size) for delta, size in ((1, 6), (2, None), (3, None))]
    try:
        for cells in (0, 1 << 62):
            _kernels._CHILD_CELLS = cells
            walks.append([list(_canonical_codes(space, size)) for space, size in cases])
    finally:
        _kernels._CHILD_CELLS = budget
    return walks[0] == walks[1]


def _u_prune_block_agrees() -> bool:
    r"""fixer_cosets on one block holding every code of minimum distance
    delta of H(3,3), for delta = 2 and 3, so codes of several sizes share
    the block, against the definitions on Vertex objects: nb[b] is Γ1(C),
    and off[b], whose count is the spread, is U(C) \ C, where U(C) = {u not
    in Γ1(C) : S1(u) ⊆ Γ1(C)}."""
    spaces = [_SearchSpace(3, 3, delta) for delta in (2, 3)]
    block = [code for space in spaces for code, cur_min in _canonical_codes(space) if cur_min == space.delta]
    nb, off = _kernels.fixer_cosets(block, spaces[1].adj)
    ok = len({len(code) for code in block}) > 1
    verts = list(all_vertices(3, 3))
    for code, nb_row, off_row in zip(block, nb, off):
        C = _code_at(code, 3, 3)
        gamma = neighbour_set(C)
        U = {u for u in verts if u not in gamma and sphere(u, 1) <= gamma}
        ok &= {verts[v] for v in np.flatnonzero(nb_row)} == gamma
        ok &= {verts[v] for v in np.flatnonzero(off_row)} == U - C.word_set
    return bool(ok)


def suite_act(seed: int = 0) -> list[Check]:
    """The group-action identity on permutation words, plus action axioms,
    the search's coset kernels against the table of the chain-listed full
    group, and the stabiliser chain's listing, orders and set searches
    against their definitions."""
    _, full33 = _full_table(3, 3)
    out = [
        _check("act-identity-q3", _act_identity_holds(3), "diag/top action identity fails"),
        _check("act-identity-q4", _act_identity_holds(4), "diag/top action identity fails"),
        _check("nu-swap-q3", _nu_swap_holds(3), "swap identity fails"),
        _check("nu-swap-q4", _nu_swap_holds(4), "swap identity fails"),
        _check("nu-covers-q3", _nu_covers_neighbours(3), "neighbour parametrisation misses vertices"),
        _check("mu-equivariance-q3l2", _mu_equivariance_holds(), "block equivariance fails"),
    ]
    stab0 = np.array_equal(stab0_action_table(3, 3), full33[full33[:, 0] == 0])
    out.append(_check("stab0-closed-form-h33", stab0, "Stab(0) table differs from the full group's rows fixing 0"))
    out.append(_check("space-arrays-h33", _space_arrays_agree(3, 3), "minus, weight or adj differs from its definition"))
    canon, batch, mover, fixers, min_ok = map(all, zip(*(_coset_kernels_agree(3, 3, delta) for delta in (2, 3))))
    out += [
        _check("coset-canonicity-h33", canon, "coset canonicity differs from the full-table scan"),
        _check("batch-children-h33", batch, "batch canonicity of a node's children differs from the full-table scan"),
        _check("depth-batch-h33", _depth_batches_agree(), "a whole depth a call changes the walk's codes or order"),
        _check("mover-prune-h33", mover, "pruned coset mover scan differs from the full-table scan"),
        _check("fixer-cosets-h33", fixers, "a fixer lies off the listed cosets, or the Found stabiliser differs"),
        _check("u-prune-block-h33", _u_prune_block_agrees(), "a block's Γ1(C) masks or U(C) spreads are wrong"),
        _check("min-distance-h33", min_ok, "C[1] is not L(d(C)), or a child nearer than d(C) is canonical"),
    ]
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
    listed = all(
        generate_group(gens).elements == _closure_by_compose(gens, m, q)
        for gens, m, q in ((full_group_generators(3, 3), 3, 3), (wreath_generators(3, 2), 6, 3))
    )
    orders = all(
        _chain_order(_stabiliser_chain(_keys(full_group_generators(m, q), m, q), m, q))
        == math.factorial(q) ** m * math.factorial(m)
        for m, q in ((4, 3), (3, 4))
    )
    return out + [
        _check("group-chain", listed and orders, "chain listing is not the compose closure, or wrong |G|"),
        _check("set-stabiliser-chain-h33", _set_searches_agree(), "a chain-searched stabiliser or transporter is wrong"),
    ]


def _set_searches_agree() -> bool:
    """setwise_stabiliser and are_equivalent, which search down the chain
    of Aut(H(3,3)), against the definition on Automorphism objects of its
    compose closure: the stabilisers of rep(3,3) and of Γ1(alt(3)) are the
    elements x with apply(x, v) over the set giving the set, and the
    transporter from alt(3) to odd_coset(3) is the first, in sort-key
    order, with apply_to_code(x, alt(3)) = odd_coset(3)."""
    gens = full_group_generators(3, 3)
    G, elements = generate_group(gens), _closure_by_compose(gens, 3, 3)
    ok = True
    for S in (cons.rep_code(3, 3).word_set, neighbour_set(cons.alt_code(3))):
        ok &= setwise_stabiliser(G, S).elements == tuple(x for x in elements if {apply(x, v) for v in S} == S)
    alt, odd = cons.alt_code(3), cons.odd_coset_code(3)
    want = next((x for x in elements if apply_to_code(x, alt) == odd), None)
    return ok and want is not None and are_equivalent(alt, odd, G) == want


def _closure_by_compose(gens: Sequence[Automorphism], m: int, q: int) -> tuple[Automorphism, ...]:
    """Every element of <gens>, composing Automorphism objects until nothing
    new appears, in sort-key order: the definition generate_group lists."""
    seen = {identity_automorphism(m, q)}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {compose(x, g) for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return tuple(sorted(seen, key=lambda x: x.sort_key))


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
        expected = sum(distance(nbs[s], nbs[t]) == 2 for s in range(len(nbs)) for t in range(s + 1, len(nbs)))
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
