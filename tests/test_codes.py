import itertools
import random

import numpy as np
import pytest

from elusivecodes import autgroup, perms
from elusivecodes.autgroup import (
    Automorphism,
    apply,
    compose,
    diag,
    diag_top_generators,
    full_group_generators,
    generate_group,
    inverse,
    orbit,
    top,
    vertex_action_table,
)
from elusivecodes.caps import ResourceCapError
from elusivecodes.codes import (
    Code,
    _indices,
    _neighbour_indices,
    apply_to_code,
    are_equivalent,
    covering_radius,
    fixes_setwise,
    format_code,
    format_vertex_set,
    gamma_r,
    is_neighbour_transitive,
    is_transitive,
    min_distance,
    neighbour_set,
    parse_code,
    read_code,
    setwise_stabiliser,
    words_array,
    write_code,
)
from elusivecodes.constructions import rep_code
from elusivecodes.elusive import StabiliserFlags, code_stabiliser_analysis
from elusivecodes.hamming import Vertex, all_vertices, distance, sphere, vertex_index
from elusivecodes.perms import Perm
from object_bfs import orbit as orbit_by_apply


def V(text, q=3):
    return Vertex(tuple(int(c) for c in text), q)


REP33 = Code.from_words([V("000"), V("111"), V("222")])


def test_code_construction_sorts_and_dedups():
    C = Code.from_words([V("222"), V("000"), V("111"), V("000")])
    assert C.words == (V("000"), V("111"), V("222"))
    assert len(C) == 3 and V("111") in C and V("012") not in C
    assert list(C) == list(C.words)


def test_code_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        Code.from_words([V("000"), Vertex((0, 0), 3)])
    with pytest.raises(ValueError):
        Code.from_words([V("000"), Vertex((0, 0, 0), 4)])
    with pytest.raises(ValueError):
        Code.from_words([])


def test_words_array():
    arr = words_array(REP33)
    assert arr.shape == (3, 3)
    assert arr.tolist() == [[0, 0, 0], [1, 1, 1], [2, 2, 2]]


def test_min_distance():
    assert min_distance(REP33) == 3
    assert min_distance(Code.from_words([V("000"), V("011")])) == 2
    with pytest.raises(ValueError):
        min_distance(Code.from_words([V("000")]))
    # oracle: brute pairwise minimum on a random code
    rng = random.Random(11)
    verts = list(all_vertices(4, 3))
    for _ in range(20):
        words = rng.sample(verts, rng.randrange(2, 10))
        C = Code.from_words(words)
        brute = min(distance(a, b) for a, b in itertools.combinations(C.words, 2))
        assert min_distance(C) == brute


def test_covering_radius():
    # 012 sits at distance 2 from every repeat word
    assert covering_radius(REP33) == 2
    assert covering_radius(Code.from_words([V("000")])) == 3
    assert covering_radius(Code.from_words(all_vertices(3, 3))) == 0


def test_neighbour_indices_match_sphere_union():
    # Γ1(C) by definition: the radius-1 spheres of the codewords, minus C;
    # the indices share the code's dtype, which is _key_table's
    rng = random.Random(19)
    cases = [
        REP33,
        rep_code(16, 4),  # 2^32 vertices: int64 indices
        Code.from_words([V("000"), V("001"), V("222")]),  # minimum distance 1
    ]
    for m, q in [(1, 4), (3, 3), (2, 5), (4, 2)]:
        verts = list(all_vertices(m, q))
        cases += [Code.from_words(rng.sample(verts, rng.randrange(1, 5))) for _ in range(10)]
    for C in cases:
        idx = _indices(C, C.m, C.q)
        nb = _neighbour_indices(idx, C.m, C.q)
        want = set().union(*(sphere(w, 1) for w in C.words)) - C.word_set
        assert nb.tolist() == sorted(vertex_index(v) for v in want)
        assert nb.dtype == idx.dtype
        assert neighbour_set(C) == want
    assert _indices(rep_code(16, 4), 16, 4).dtype == np.int64


def test_neighbour_set_needs_no_vertex_index():
    # H(64,2) has 2^64 vertices, past every index dtype, yet Γ1 is still a set of vertices
    C = rep_code(64, 2)
    assert len(neighbour_set(C)) == 128
    assert all(min(distance(v, w) for w in C.words) == 1 for v in neighbour_set(C))


def test_neighbour_set_is_gamma_one():
    rng = random.Random(12)
    verts = list(all_vertices(3, 3))
    for _ in range(20):
        C = Code.from_words(rng.sample(verts, rng.randrange(1, 8)))
        assert neighbour_set(C) == gamma_r(C, 1)
    assert len(neighbour_set(REP33)) == 18
    assert gamma_r(REP33, 0) == REP33.word_set
    # the six all-distinct words are the whole distance-2 shell
    assert gamma_r(REP33, 2) == frozenset(
        v for v in all_vertices(3, 3) if len(set(v.entries)) == 3
    )


def test_gamma_r_partitions_space():
    C = Code.from_words([V("000"), V("012")])
    shells = [gamma_r(C, r) for r in range(4)]
    assert sum(len(s) for s in shells) == 27
    for a, b in itertools.combinations(shells, 2):
        assert not (a & b)


def test_apply_to_code_and_fixes_setwise():
    x = diag(perms.cycle(3, (0, 1, 2)), 3)
    assert apply_to_code(x, REP33) == REP33
    assert fixes_setwise(x, REP33)
    y = diag(perms.transposition(3, 0, 1), 3)
    D = Code.from_words([V("000"), V("011")])
    assert apply_to_code(y, D) == Code.from_words([V("111"), V("100")])
    assert not fixes_setwise(y, D)
    assert fixes_setwise(y, {V("001"), V("110")})


def test_is_transitive():
    gens = diag_top_generators(3)
    assert is_transitive(gens, REP33)
    with pytest.raises(ValueError):
        is_transitive(gens, {V("000"), V("011")})
    with pytest.raises(ValueError):
        is_transitive(gens, set())
    assert is_transitive([], {V("000")})


def test_setwise_stabiliser(full33):
    # oracle: 000, 111, 222 are fixed setwise by any position shuffle (3! = 6)
    # combined with a diagonal alphabet map (3! = 6); no mixed-coordinate map
    # keeps all three words constant, so the stabiliser has order 36
    H = setwise_stabiliser(full33, REP33)
    assert H.order == 36
    assert all(fixes_setwise(x, REP33) for x in H.elements)
    # complement within the big group moves the code
    moved = sum(1 for x in full33.elements if not fixes_setwise(x, REP33))
    assert moved == full33.order - H.order
    with pytest.raises(ResourceCapError):
        setwise_stabiliser(generate_group(full_group_generators(3, 3), cap=1), REP33)


def test_are_equivalent(full33):
    C = Code.from_words([V("000"), V("111")])
    D = Code.from_words([V("222"), V("111")])
    y = are_equivalent(C, D, full33)
    assert y is not None and apply_to_code(y, C) == D
    E = Code.from_words([V("000"), V("011")])  # distance 2, not 3
    assert are_equivalent(C, E, full33) is None
    assert are_equivalent(C, REP33, full33) is None  # different sizes


def test_is_neighbour_transitive():
    assert is_neighbour_transitive(diag_top_generators(3), REP33)
    # top maps fix every repeat word pointwise, so they cannot be transitive
    tops = [top(perms.transposition(3, 0, 1), 3), top(perms.cycle(3, (0, 1, 2)), 3)]
    assert not is_neighbour_transitive(tops, REP33)
    # a generator that moves the code fails immediately
    bad = [diag(perms.transposition(3, 0, 1), 2)]
    C2 = Code.from_words([Vertex((0, 0), 3), Vertex((1, 2), 3)])
    assert not is_neighbour_transitive(bad, C2)


def test_format_and_parse_roundtrip():
    text = format_code(REP33, header_comments=["three repeats"])
    assert text.startswith("# three repeats\n3 3\n")
    assert parse_code(text) == REP33
    rng = random.Random(13)
    verts = list(all_vertices(4, 3))
    for _ in range(20):
        C = Code.from_words(rng.sample(verts, rng.randrange(1, 9)))
        assert parse_code(format_code(C)) == C


def test_format_vertex_set_empty():
    assert format_vertex_set([], 3, 3) == "3 3\n"


def test_parse_code_errors():
    with pytest.raises(ValueError):
        parse_code("")
    with pytest.raises(ValueError):
        parse_code("3 3\n")
    with pytest.raises(ValueError):
        parse_code("3\n0 0 0\n")
    with pytest.raises(ValueError):
        parse_code("3 3\n0 0\n")
    with pytest.raises(ValueError):
        parse_code("3 3\n0 0 0\n0 0 0\n")
    with pytest.raises(ValueError):
        parse_code("3 3\n0 0 5\n")


def test_write_read_roundtrip(tmp_path):
    p = tmp_path / "code.txt"
    write_code(p, REP33, header_comments=["a comment"])
    assert read_code(p) == REP33


def test_stabiliser_is_a_group(full33):
    H = setwise_stabiliser(full33, REP33)
    elems = set(H.elements)
    sample = list(H.elements)[:15]
    for a in sample:
        for b in sample:
            from elusivecodes.autgroup import compose

            assert compose(a, b) in elems


# ---------------------------------------------------------------------------
# the table paths against the apply() definition

def _stabiliser_by_apply(G, S):
    S = frozenset(S)
    return tuple(x for x in G.elements if frozenset(apply(x, v) for v in S) == S)


def _equivalence_by_apply(C, D, G):
    return next((y for y in G.elements if apply_to_code(y, C) == D), None)


def _analysis_by_apply(C, G):
    kept = _stabiliser_by_apply(G, C)
    nb = neighbour_set(C)
    return kept, StabiliserFlags(
        transitive_on_code=orbit_by_apply(kept, C.words[0], 10**6) == C.word_set,
        transitive_on_neighbours=bool(nb) and orbit_by_apply(kept, min(nb), 10**6) == nb,
    )


def _subgroup_h34(seed):
    """<diag(S_4), top(S_3)>, order 144, conjugated by a seeded element of Aut(H(3,4))."""
    rng = random.Random(seed)
    a = Automorphism(
        tuple(Perm(tuple(rng.sample(range(4), 4))) for _ in range(3)),
        Perm(tuple(rng.sample(range(3), 3))),
    )
    gens = [
        diag(perms.transposition(4, 0, 1), 3),
        diag(perms.cycle(4, (0, 1, 2, 3)), 3),
        top(perms.transposition(3, 0, 1), 4),
        top(perms.cycle(3, (0, 1, 2)), 4),
    ]
    return generate_group([compose(compose(inverse(a), g), a) for g in gens])


def _cross_check(G, codes, rng, with_neighbours):
    for C in codes:
        sets = [C.word_set] + ([neighbour_set(C)] if with_neighbours else [])
        for S in sets:
            assert setwise_stabiliser(G, S).elements == _stabiliser_by_apply(G, S)
        xc, flags = code_stabiliser_analysis(C, G)
        assert (xc.elements, flags) == _analysis_by_apply(C, G)
        D = apply_to_code(rng.choice(G.elements), C)
        y = are_equivalent(C, D, G)
        assert y == _equivalence_by_apply(C, D, G)
        assert apply_to_code(y, C) == D
        E = Code.from_words(rng.sample(list(all_vertices(C.m, C.q)), len(C)))
        assert are_equivalent(C, E, G) == _equivalence_by_apply(C, E, G)


def _seeded_codes(m, q, seed, sizes):
    rng = random.Random(seed)
    verts = list(all_vertices(m, q))
    return [rep_code(m, q)] + [Code.from_words(rng.sample(verts, k)) for k in sizes]


def test_table_paths_match_apply_h33(full33):
    _cross_check(full33, _seeded_codes(3, 3, 33, (2, 3, 4)), random.Random(1), True)


def test_table_paths_match_apply_h43(full43):
    # code sets only: the apply() scan of a neighbour set over 31104 elements is slow
    _cross_check(full43, _seeded_codes(4, 3, 43, (3,)), random.Random(2), False)


def test_table_paths_match_apply_subgroup_h34():
    G = _subgroup_h34(34)
    assert G.order == 144
    _cross_check(G, _seeded_codes(3, 4, 34, (2, 3, 5)), random.Random(3), True)


def test_setwise_stabiliser_checks_table_bytes_first(full33, monkeypatch):
    real = autgroup._digits

    def refuse(*args):
        raise AssertionError("the images of the set were started")

    # _key_table checks the bytes of REP33's images before _digits builds
    # its first array
    monkeypatch.setattr(autgroup, "_digits", refuse)
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "15551")  # 1296 * 3 * 4 - 1
    with pytest.raises(ResourceCapError):
        setwise_stabiliser(full33, REP33)
    with pytest.raises(ResourceCapError):
        are_equivalent(REP33, REP33, full33)
    monkeypatch.setattr(autgroup, "_digits", real)
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "15552")
    assert setwise_stabiliser(full33, REP33).order == 36  # S_3 x S_3
    assert are_equivalent(REP33, REP33, full33) is not None


def test_stabilisers_and_equivalence_image_only_the_set(monkeypatch):
    # a cap one byte under the group's table over all of H(4,3): the
    # stabilisers and the equivalence image only the set under test
    G = generate_group(full_group_generators(4, 3))
    rep = rep_code(4, 3)
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", str(31104 * 81 * 4 - 1))
    assert setwise_stabiliser(G, neighbour_set(rep)).order == 144
    assert are_equivalent(rep, rep, G) is not None
    xc, flags = code_stabiliser_analysis(rep, G)
    assert xc.order == 144
    assert flags == StabiliserFlags(transitive_on_code=True, transitive_on_neighbours=True)


def test_table_paths_keep_the_vertex_space_error(full33):
    other = Code.from_words([V("00", 3), V("11", 3)])
    with pytest.raises(ValueError, match=r"automorphism of H\(3,3\) applied to vertex of H\(2,3\)"):
        setwise_stabiliser(full33, other)
    with pytest.raises(ValueError, match=r"automorphism of H\(3,3\) applied to vertex of H\(2,3\)"):
        are_equivalent(other, other, full33)


def test_another_space_raises_the_apply_error():
    # index arithmetic alone would not notice: (0,1,2) of H(3,4) has index 6,
    # inside H(3,3), and (3,3,3) has index 63, past its 27 vertices
    gens = diag_top_generators(3)
    for v in (Vertex((0, 1, 2), 4), Vertex((3, 3, 3), 4)):
        error = r"automorphism of H\(3,3\) applied to vertex of H\(3,4\)"
        with pytest.raises(ValueError, match=error):
            orbit(gens, v)
        with pytest.raises(ValueError, match=error):
            orbit(gens, {V("000"), v})
        with pytest.raises(ValueError, match=error):
            fixes_setwise(gens[0], {V("000"), v})
        with pytest.raises(ValueError, match=error):
            is_transitive(gens, {V("000"), v})


def _rep_16_4_generators():
    """<diag(S_4), top(S_16)>, which fixes rep(16,4) and is transitive on it and its neighbours."""
    return [
        diag(perms.transposition(4, 0, 1), 16),
        diag(perms.cycle(4, (0, 1, 2, 3)), 16),
        top(perms.transposition(16, 0, 1), 4),
        top(perms.cycle(16, tuple(range(16))), 4),
    ]


def test_set_tests_and_orbits_image_only_what_they_reach(monkeypatch):
    # H(16,4) has 2^32 vertices, past int32 indices: a table over the space
    # would take 16 GiB, so under a 1 MiB table-bytes cap only the vertices
    # a test or walk reaches can be imaged
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", str(1 << 20))
    C, gens = rep_code(16, 4), _rep_16_4_generators()
    nb = neighbour_set(C)
    assert len(nb) == 4 * 16 * 3
    assert all(fixes_setwise(g, C) and fixes_setwise(g, nb) for g in gens)
    assert not fixes_setwise(gens[0], {C.words[0], C.words[2]})
    assert is_transitive(gens, C) and is_transitive(gens, nb)
    assert is_neighbour_transitive(gens, C)
    assert orbit(gens, C.words[-1]) == C.word_set
    assert orbit(gens, min(nb)) == nb
    assert orbit(gens, C.word_set) == {C.word_set}
    assert orbit(gens, {C.words[0]}) == {frozenset([w]) for w in C.words}
    with pytest.raises(ResourceCapError):
        vertex_action_table(gens, 16, 4)
