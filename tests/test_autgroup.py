import math
import random

import numpy as np
import pytest

from elusivecodes import perms
from elusivecodes.autgroup import (
    Automorphism,
    apply,
    compose,
    diag,
    diag_top_generators,
    format_automorphism,
    full_action_table,
    full_group_element,
    full_group_generators,
    full_group_row,
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
from elusivecodes.hamming import Vertex, all_vertices, distance, vertex_index
from elusivecodes.perms import Perm


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


def test_generate_group_cap_returns_generators_only():
    G = generate_group(full_group_generators(3, 3), cap=100)
    assert G.elements is None and G.order is None
    assert len(G.generators) == 4


def test_generate_group_explicit_cap_respects_group_cap(monkeypatch):
    # an explicit cap above ELUSIVECODES_MAX_GROUP must not lift the guard
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "100")
    assert generate_group(full_group_generators(3, 3), cap=10_000).elements is None


def test_group_table_needs_elements():
    G = generate_group(full_group_generators(3, 3), cap=1)
    with pytest.raises(ResourceCapError):
        G.table


def test_generate_group_empty_gens():
    G = generate_group((), m=2, q=3)
    assert G.order == 1 and G.elements[0].is_identity()


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


def test_full_group_row_inverts_full_group_element(full33):
    assert [full_group_row(x) for x in full33.elements] == list(range(full33.order))
    rng = random.Random(49)
    for row in rng.sample(range(math.factorial(4) ** 3 * math.factorial(3)), 300):
        assert full_group_row(full_group_element(row, 3, 4)) == row
