import math
import random

import numpy as np
import pytest

from elusivecodes import autgroup, perms
from elusivecodes.autgroup import (
    Automorphism,
    Group,
    apply,
    compose,
    diag,
    diag_top_generators,
    format_automorphism,
    full_action_table,
    full_group_element,
    full_group_generators,
    generate_group,
    identity_automorphism,
    inverse,
    orbit,
    parse_automorphism,
    read_group,
    stab0_action_table,
    stab0_group_element,
    top,
    vertex_action_table,
    wreath_embed,
    wreath_generators,
)
from elusivecodes.caps import ResourceCapError
from elusivecodes.codes import Code, are_equivalent, fixes_setwise, neighbour_set, setwise_stabiliser
from elusivecodes.constructions import rep_code
from elusivecodes.elusive import verify_elusive
from elusivecodes.hamming import Vertex, all_vertices, distance, vertex_index
from elusivecodes.perms import Perm
from object_bfs import closure
from object_bfs import orbit as orbit_by_apply


def _random_automorphism(rng, m, q):
    coord = tuple(Perm(tuple(rng.sample(range(q), q))) for _ in range(m))
    return Automorphism(coord, Perm(tuple(rng.sample(range(m), m))))


def test_automorphism_validation():
    with pytest.raises(ValueError):
        Automorphism((perms.identity(3), perms.identity(4)), perms.identity(2))
    with pytest.raises(ValueError):
        Automorphism((perms.identity(3),), perms.identity(2))
    with pytest.raises(ValueError):
        Automorphism((), perms.identity(0))


def test_apply_moves_entries_then_positions():
    # entry permutation only
    x = diag(perms.cycle(3, (0, 1, 2)), 2)
    assert apply(x, Vertex((0, 2), 3)) == Vertex((1, 0), 3)
    # position permutation only: entry at position j comes from sigma^-1(j)
    y = top(perms.cycle(3, (0, 1, 2)))
    assert apply(y, Vertex((0, 1, 2), 3)) == Vertex((2, 0, 1), 3)
    # mixed: first coordinate map acts in its own column, then columns shuffle
    z = Automorphism(
        (perms.transposition(3, 0, 1), perms.identity(3), perms.identity(3)),
        perms.cycle(3, (0, 1, 2)),
    )
    assert apply(z, Vertex((0, 0, 0), 3)) == Vertex((0, 1, 0), 3)


def test_compose_matches_sequential_application():
    rng = random.Random(42)
    verts = list(all_vertices(3, 3))
    for _ in range(100):
        x = _random_automorphism(rng, 3, 3)
        y = _random_automorphism(rng, 3, 3)
        v = rng.choice(verts)
        assert apply(compose(x, y), v) == apply(y, apply(x, v))


def test_inverse_undoes_apply():
    rng = random.Random(43)
    verts = list(all_vertices(4, 3))
    for _ in range(100):
        x = _random_automorphism(rng, 4, 3)
        v = rng.choice(verts)
        assert apply(inverse(x), apply(x, v)) == v
    x = _random_automorphism(rng, 4, 3)
    assert compose(x, inverse(x)).is_identity()
    assert compose(inverse(x), x).is_identity()


def test_automorphisms_are_isometries():
    rng = random.Random(44)
    verts = list(all_vertices(4, 3))
    for _ in range(100):
        x = _random_automorphism(rng, 4, 3)
        u, v = rng.choice(verts), rng.choice(verts)
        assert distance(apply(x, u), apply(x, v)) == distance(u, v)


def test_generate_group_orders():
    # |S_q^m x| S_m| = (q!)^m * m!
    for m, q, want in ((2, 2, 8), (2, 3, 72), (3, 2, 48), (3, 3, 1296)):
        G = generate_group(full_group_generators(m, q))
        assert G.order == want == math.factorial(q) ** m * math.factorial(m)
    assert generate_group(full_group_generators(4, 3)).order == 31104


def test_generate_group_sorted_and_closed():
    G = generate_group(full_group_generators(2, 3))
    keys = [x.sort_key for x in G.elements]
    assert keys == sorted(keys)
    elems = set(G.elements)
    for a in G.elements[:12]:
        for b in G.elements[:12]:
            assert compose(a, b) in elems


def _subgroup_h34_generators():
    from test_codes import _subgroup_h34

    return _subgroup_h34(34).generators


@pytest.mark.parametrize(
    "gens, m, q",
    [
        (lambda: full_group_generators(2, 3), 2, 3),
        (lambda: full_group_generators(3, 2), 3, 2),
        (lambda: full_group_generators(3, 3), 3, 3),
        (lambda: wreath_generators(3, 2), 6, 3),
        (lambda: diag_top_generators(4), 4, 4),
        (_subgroup_h34_generators, 3, 4),
        # images up to 256 need two bytes, so key order must be by value
        (lambda: [Automorphism((perms.cycle(300, (0, 1, 256)),), perms.identity(1))], 1, 300),
    ],
    ids=["full-2-3", "full-3-2", "full-3-3", "wreath-3-2", "diag-top-4", "subgroup-h34", "3-cycle-h1-300"],
)
def test_generate_group_matches_object_bfs(gens, m, q):
    gens = gens()
    elements = closure(gens, m, q, cap=10**6)
    assert generate_group(gens).elements == elements
    # the cap boundary: the order itself enumerates, one less does not
    assert generate_group(gens, cap=len(elements)).elements == elements
    assert generate_group(gens, cap=len(elements) - 1).elements is None
    assert closure(gens, m, q, cap=len(elements) - 1) is None


def test_generate_group_cap_returns_generators_only():
    G = generate_group(full_group_generators(3, 3), cap=100)
    assert G.elements is None and G.order is None
    assert len(G.generators) == 4


def test_generate_group_explicit_cap_respects_group_cap(monkeypatch):
    # an explicit cap above ELUSIVECODES_MAX_GROUP must not lift the guard
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "100")
    assert generate_group(full_group_generators(3, 3), cap=10_000).elements is None


def test_stabiliser_and_equivalence_need_elements():
    # both act element by element, so a generators-only group is refused
    G = generate_group(full_group_generators(3, 3), cap=1)
    rep = rep_code(3, 3)
    with pytest.raises(ResourceCapError):
        setwise_stabiliser(G, rep)
    with pytest.raises(ResourceCapError):
        are_equivalent(rep, rep, G)


def test_generate_group_empty_gens():
    G = generate_group((), m=2, q=3)
    assert G.order == 1 and G.elements[0].is_identity()
    # the trivial group honours the cap like any other closure
    assert generate_group((), cap=0, m=2, q=3).elements is None
    assert generate_group((), cap=1, m=2, q=3).elements == (identity_automorphism(2, 3),)


def test_mixed_spaces_are_rejected_up_front():
    # m(q+1) = 12 on both spaces, so their packed keys have one width
    h33 = diag(perms.cycle(3, (0, 1, 2)), 3)
    h42 = top(perms.cycle(4, (0, 1, 2, 3)), 2)
    for gens in ([h33, h42], [h42, h33]):
        with pytest.raises(ValueError, match="different spaces"):
            generate_group(gens)
    with pytest.raises(ValueError, match="different spaces"):
        vertex_action_table([identity_automorphism(3, 3), h42], 3, 3)


def test_diag_top_group_order():
    # diagonal S_q x position S_q acting on H(q,q); the two factors intersect
    # trivially, so the closure has order (q!)^2
    assert generate_group(diag_top_generators(3)).order == 36
    assert generate_group(diag_top_generators(4)).order == 576
    assert generate_group(diag_top_generators(5)).order == 14400


def test_wreath_group_order():
    # (diag-top wr S_l) on H(lq, q): order (q!^2)^l * l!
    assert generate_group(wreath_generators(3, 2)).order == 2592


def test_generator_presets_drop_duplicates_keeping_order():
    # at q = 2, l = 1 or m = 1 generators coincide; each appears once, first
    # occurrence first
    def fmt(gens):
        return [format_automorphism(g) for g in gens]

    assert fmt(diag_top_generators(1)) == ["g: id ; sigma: id"]
    assert fmt(diag_top_generators(2)) == ["g: (0 1),(0 1) ; sigma: id", "g: id,id ; sigma: (0 1)"]
    assert fmt(wreath_generators(2, 1)) == fmt(diag_top_generators(2))
    assert fmt(wreath_generators(3, 1)) == fmt(diag_top_generators(3)) == [
        "g: (0 1),(0 1),(0 1) ; sigma: id",
        "g: (0 1 2),(0 1 2),(0 1 2) ; sigma: id",
        "g: id,id,id ; sigma: (0 1)",
        "g: id,id,id ; sigma: (0 1 2)",
    ]
    assert fmt(wreath_generators(2, 2)) == [
        "g: (0 1),(0 1),id,id ; sigma: id",
        "g: id,id,id,id ; sigma: (0 1)",
        "g: id,id,id,id ; sigma: (0 2)(1 3)",
    ]
    assert fmt(full_group_generators(1, 2)) == ["g: (0 1) ; sigma: id"]
    assert fmt(full_group_generators(1, 3)) == ["g: (0 1) ; sigma: id", "g: (0 1 2) ; sigma: id"]
    assert fmt(full_group_generators(2, 2)) == ["g: (0 1),id ; sigma: id", "g: id,id ; sigma: (0 1)"]
    assert fmt(full_group_generators(3, 2)) == [
        "g: (0 1),id,id ; sigma: id",
        "g: id,id,id ; sigma: (0 1)",
        "g: id,id,id ; sigma: (0 1 2)",
    ]


def test_wreath_embed_block_action():
    # part acting in block 0, blocks swapped: the two halves trade places
    ident = identity_automorphism(2, 3)
    part = Automorphism(
        (perms.transposition(3, 0, 1), perms.identity(3)), perms.identity(2)
    )
    x = wreath_embed([part, ident], perms.transposition(2, 0, 1))
    v = Vertex((0, 2, 1, 1), 3)
    # block 0 = (0,2) -> (1,2) then moves to block 1; block 1 = (1,1) moves to block 0
    assert apply(x, v) == Vertex((1, 1, 1, 2), 3)


def test_wreath_embed_respects_composition():
    rng = random.Random(45)
    for _ in range(50):
        p0, p1 = (_random_automorphism(rng, 2, 3) for _ in range(2))
        r0, r1 = (_random_automorphism(rng, 2, 3) for _ in range(2))
        bp = Perm(tuple(rng.sample(range(2), 2)))
        bq = Perm(tuple(rng.sample(range(2), 2)))
        x = wreath_embed([p0, p1], bp)
        y = wreath_embed([r0, r1], bq)
        v = Vertex(tuple(rng.randrange(3) for _ in range(4)), 3)
        assert apply(compose(x, y), v) == apply(y, apply(x, v))


def test_orbit_of_vertex():
    gens = full_group_generators(3, 3)
    orb = orbit(gens, Vertex((0, 0, 0), 3))
    assert orb == set(all_vertices(3, 3))


def test_orbit_of_set():
    gens = diag_top_generators(3)
    code = frozenset({Vertex((0, 0, 0), 3), Vertex((1, 1, 1), 3), Vertex((2, 2, 2), 3)})
    orb = orbit(gens, code)
    assert orb == {code}
    # a single word has a bigger orbit than a fixed set
    orb2 = orbit(gens, frozenset({Vertex((0, 1, 2), 3)}))
    assert len(orb2) == 6


def test_orbit_cap():
    gens = full_group_generators(3, 3)
    with pytest.raises(ResourceCapError):
        orbit(gens, Vertex((0, 0, 0), 3), cap=5)


def test_orbit_explicit_cap_respects_orbit_cap(monkeypatch):
    # an explicit cap above ELUSIVECODES_MAX_ORBIT must not lift the guard
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "5")
    gens = full_group_generators(3, 3)
    with pytest.raises(ResourceCapError):
        orbit(gens, Vertex((0, 0, 0), 3), cap=100)
    with pytest.raises(ResourceCapError):
        orbit(gens, {Vertex((0, 0, 0), 3), Vertex((1, 1, 1), 3)}, cap=100)
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "27")
    assert len(orbit(gens, Vertex((0, 0, 0), 3), cap=100)) == 27


def test_spaces_past_2_63_vertices_are_refused():
    # every vertex index of H(63,2) fits in int64, not every one of H(64,2)
    shift = top(perms.cycle(63, tuple(range(63))), 2)
    assert len(orbit([shift], Vertex((1,) + (0,) * 62, 2))) == 63
    shift = top(perms.cycle(64, tuple(range(64))), 2)
    v, w = Vertex((1,) + (0,) * 63, 2), Vertex((1,) * 64, 2)
    for call in (
        lambda: orbit([shift], v),
        lambda: fixes_setwise(shift, [v, w]),
        lambda: verify_elusive(Code.from_words([v, w]), [shift]),
    ):
        with pytest.raises(ValueError, match=r"2\^63"):
            call()


@pytest.mark.parametrize(
    "gens, m, q, sizes",
    [
        (lambda: full_group_generators(3, 3), 3, 3, (2, 3)),
        (lambda: diag_top_generators(3), 3, 3, (2, 3)),
        (lambda: full_group_generators(4, 3), 4, 3, (2,)),
        (lambda: full_group_generators(3, 4), 3, 4, (2, 3)),
        (_subgroup_h34_generators, 3, 4, (2, 3)),
    ],
    ids=["full-3-3", "diag-top-3", "full-4-3", "full-3-4", "subgroup-h34"],
)
def test_orbit_matches_object_bfs(gens, m, q, sizes):
    gens = gens()
    rng = random.Random(m * 10 + q)
    verts = list(all_vertices(m, q))
    seeds = rng.sample(verts, 3) + [frozenset(rng.sample(verts, k)) for k in sizes]
    seeds.append(frozenset(Vertex((a,) * m, q) for a in range(q)))  # the repetition code
    for seed in seeds:
        want = orbit_by_apply(gens, seed, cap=10**6)
        assert orbit(gens, seed) == want
        # the cap boundary: the orbit's size passes, one less raises
        assert orbit(gens, seed, cap=len(want)) == want
        with pytest.raises(ResourceCapError):
            orbit(gens, seed, cap=len(want) - 1)
        # no generators: the seed alone
        assert orbit((), seed) == {seed}


def test_format_parse_roundtrip():
    rng = random.Random(46)
    for _ in range(50):
        x = _random_automorphism(rng, 3, 4)
        assert parse_automorphism(format_automorphism(x), 3, 4) == x
    e = identity_automorphism(2, 3)
    assert format_automorphism(e) == "g: id,id ; sigma: id"


def test_parse_automorphism_rejects_garbage():
    for bad in ("", "g: id,id", "sigma: id ; g: id,id", "g: id ; sigma: id ; x"):
        with pytest.raises(ValueError):
            parse_automorphism(bad, 2, 3)
    with pytest.raises(ValueError):
        parse_automorphism("g: id,id,id ; sigma: id", 2, 3)


def test_read_group(tmp_path):
    p = tmp_path / "grp.txt"
    p.write_text(
        "# a two-generator group on H(2,3)\n"
        "2 3\n"
        "g: (0 1),(0 1) ; sigma: id\n"
        "g: id,id ; sigma: (0 1)\n"
    )
    G = read_group(p)
    assert (G.m, G.q) == (2, 3)
    assert len(G.generators) == 2
    assert G.generators[1] == top(perms.transposition(2, 0, 1), 3)


def test_read_group_missing_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_group(p)


def test_vertex_action_table_matches_apply():
    G = generate_group(full_group_generators(2, 3))
    table = vertex_action_table(G.elements, 2, 3)
    assert table.shape == (72, 9)
    verts = list(all_vertices(2, 3))
    for e, x in enumerate(G.elements):
        for v in verts:
            assert table[e, vertex_index(v)] == vertex_index(apply(x, v))
    # every row is a permutation of the vertex indices
    for row in table:
        assert sorted(row) == list(range(9))


def test_vertex_action_table_random_spotcheck():
    rng = random.Random(47)
    elems = [_random_automorphism(rng, 4, 3) for _ in range(20)]
    table = vertex_action_table(elems, 4, 3)
    verts = list(all_vertices(4, 3))
    for _ in range(200):
        e = rng.randrange(20)
        v = rng.choice(verts)
        assert table[e, vertex_index(v)] == vertex_index(apply(elems[e], v))
    assert table.dtype == np.int32


@pytest.mark.parametrize("m, q", [(3, 3), (4, 3), (5, 2)])
def test_full_action_table_matches_bfs_table(m, q, full33, full43):
    # the closed form against generate_group + vertex_action_table, row for row
    G = {(3, 3): full33, (4, 3): full43}.get((m, q))
    if G is None:
        G = generate_group(full_group_generators(m, q))
    closed = full_action_table(m, q)
    assert closed.dtype == np.int32
    assert np.array_equal(closed, vertex_action_table(G.elements, m, q))


def test_full_action_table_random_rows_h34():
    # H(3,4): 82944 rows; 500 seeded rows checked against apply() on every vertex
    rng = random.Random(48)
    table = full_action_table(3, 4)
    assert table.shape == (math.factorial(4) ** 3 * math.factorial(3), 64)
    verts = list(all_vertices(3, 4))
    for row in rng.sample(range(table.shape[0]), 500):
        x = full_group_element(row, 3, 4)
        assert [vertex_index(apply(x, v)) for v in verts] == [
            table[row, vertex_index(v)] for v in verts
        ]


def test_full_group_element_decodes_every_row_h33(full33):
    assert [full_group_element(i, 3, 3) for i in range(full33.order)] == list(full33.elements)
    with pytest.raises(ValueError):
        full_group_element(full33.order, 3, 3)


@pytest.mark.parametrize("m, q", [(3, 3), (4, 3), (3, 4), (5, 2)])
def test_stab0_action_table_is_the_filtered_full_table(m, q):
    # Stab(0)'s rows are the full table's rows fixing vertex 0, in order
    full = full_action_table(m, q)
    stab0 = stab0_action_table(m, q)
    assert stab0.dtype == np.int32
    assert stab0.shape[0] == math.factorial(q - 1) ** m * math.factorial(m)
    assert np.array_equal(stab0, full[full[:, 0] == 0])


@pytest.mark.parametrize("m, q", [(3, 3), (2, 4)])
def test_stab0_group_element_decodes_every_row(m, q):
    stab0 = stab0_action_table(m, q)
    elems = [stab0_group_element(i, m, q) for i in range(stab0.shape[0])]
    assert np.array_equal(vertex_action_table(elems, m, q), stab0)
    with pytest.raises(ValueError):
        stab0_group_element(stab0.shape[0], m, q)


def test_group_decodes_its_keys_only_when_asked(monkeypatch):
    decoded = []
    real = autgroup._sorted_elements

    def counting(keys, m, q):
        decoded.append(len(keys))
        return real(keys, m, q)

    monkeypatch.setattr(autgroup, "_sorted_elements", counting)
    G = generate_group(full_group_generators(4, 3))
    assert G.order == 31104
    stab = setwise_stabiliser(G, neighbour_set(rep_code(4, 3)))
    assert stab.order == 144 and stab.keys.shape == (144, 16)
    assert decoded == []
    assert G.elements == closure(full_group_generators(4, 3), 4, 3, cap=10**6)
    assert decoded == [31104]
    # a group given by keys alone is generated by its elements
    assert stab.generators == stab.elements
    assert decoded == [31104, 144]


def test_groups_compare_by_identity():
    # a deliberate choice: one subgroup has many generating sets, and a key
    # array has no value equality, so a Group is equal only to itself
    G = generate_group(full_group_generators(2, 3))
    H = Group(G.m, G.q, G.generators, G.keys)
    assert G == G and G != H
    assert len({G, H, G}) == 2
    assert np.array_equal(G.keys, H.keys) and G.elements == H.elements


@pytest.mark.parametrize("m, q", [(3, 3), (9, 3), (1, 300)])
def test_compose_keys_matches_compose(m, q):
    # at H(1,300) images reach 299, past one byte
    rng = random.Random(m * 1000 + q)
    xs = [_random_automorphism(rng, m, q) for _ in range(12)]
    ys = [_random_automorphism(rng, m, q) for _ in range(12)]
    kx, ky = autgroup._keys(xs, m, q), autgroup._keys(ys, m, q)
    # row by row, as _SearchSpace.stabiliser composes
    want = autgroup._keys([compose(x, y) for x, y in zip(xs, ys)], m, q)
    assert np.array_equal(autgroup._compose_keys(kx, ky, m, q), want)
    # a single key on either side pairs with every row of the other
    for j in range(3):
        want = autgroup._keys([compose(x, ys[j]) for x in xs], m, q)
        assert np.array_equal(autgroup._compose_keys(kx, ky[j], m, q), want)
        want = autgroup._keys([compose(xs[j], y) for y in ys], m, q)
        assert np.array_equal(autgroup._compose_keys(kx[j : j + 1], ky, m, q), want)
