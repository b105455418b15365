import random

import pytest

from elusivecodes import perms
from elusivecodes.autgroup import (
    Group,
    _indices,
    _keys,
    _orbit_schreier,
    _set_orbit,
    _sorted_elements,
    apply,
    diag,
    diag_top_generators,
    full_group_generators,
    generate_group,
    identity_automorphism,
    top,
    wreath_generators,
)
from elusivecodes.caps import ResourceCapError
from elusivecodes.codes import (
    Code,
    apply_to_code,
    fixes_setwise,
    is_neighbour_transitive,
    is_transitive,
    neighbour_set,
    read_code,
    setwise_stabiliser,
)
from elusivecodes.constructions import (
    alt_code,
    odd_coset_code,
    parity_code,
    rep_code,
    union_code,
)
from elusivecodes.elusive import (
    XC_ENUM_CAP,
    StabiliserFlags,
    code_stabiliser_analysis,
    format_report,
    neighbour_degree_map,
    neighbour_degree_profile,
    verify_elusive,
    write_report,
)
from elusivecodes.hamming import Vertex, all_vertices
from object_bfs import code_orbit, random_automorphism
from object_bfs import orbit as orbit_by_apply


@pytest.fixture(scope="module")
def alt3_report():
    return verify_elusive(alt_code(3), diag_top_generators(3))


def test_alt3_is_elusive(alt3_report):
    rep = alt3_report
    assert rep.is_elusive
    assert rep.fixes_neighbours and not rep.fixes_code
    assert rep.image_count_r == 2
    assert rep.images_pairwise_disjoint
    assert rep.images_intersection is None
    assert rep.x_transitive_on_neighbours
    assert rep.xc_order == 18
    assert rep.xc_transitive_on_code and rep.xc_transitive_on_neighbours
    assert rep.witness_mover is not None


def test_alt3_images_are_the_two_cosets(alt3_report):
    assert set(alt3_report.images) == {alt_code(3), odd_coset_code(3)}


def test_alt3_golden_report_text(alt3_report):
    assert format_report(alt3_report) == (
        "fixes_code=false\n"
        "fixes_neighbours=true\n"
        "image_count_r=2\n"
        "images_intersection=\n"
        "images_pairwise_disjoint=true\n"
        "is_elusive=true\n"
        "witness_mover=g: (0 1),(0 1),(0 1) ; sigma: id\n"
        "x_transitive_on_neighbours=true\n"
        "xc_order=18\n"
        "xc_transitive_on_code=true\n"
        "xc_transitive_on_neighbours=true\n"
    )


def test_witness_actually_witnesses(alt3_report):
    w = alt3_report.witness_mover
    C = alt_code(3)
    assert apply_to_code(w, C) != C
    moved_nb = frozenset(
        v for img in (apply_to_code(w, C),) for v in neighbour_set(img)
    )
    assert moved_nb == neighbour_set(C)


def test_images_share_one_neighbour_set(alt3_report):
    nb = neighbour_set(alt_code(3))
    for img in alt3_report.images:
        assert neighbour_set(img) == nb


def test_orbit_stabiliser_budget(alt3_report):
    X = generate_group(diag_top_generators(3))
    assert X.order == 36
    assert alt3_report.image_count_r * alt3_report.xc_order == X.order
    XC, flags = code_stabiliser_analysis(alt_code(3), X)
    assert XC.order == 18
    assert flags.transitive_on_code and flags.transitive_on_neighbours
    # and the same subgroup falls out of a direct setwise filter
    direct = setwise_stabiliser(X, alt_code(3))
    assert set(direct.elements) == set(XC.elements)


def test_code_stabiliser_analysis_from_generators_only():
    X = Group(3, 3, tuple(diag_top_generators(3)))  # no elements enumerated
    XC, flags = code_stabiliser_analysis(alt_code(3), X)
    assert XC.order == 18
    assert flags.transitive_on_code and flags.transitive_on_neighbours


def test_code_stabiliser_analysis_over_its_listing_cap():
    # X_C of order 139,968 > XC_ENUM_CAP comes back generators-only: the
    # Schreier generators of the code orbit, with flags read off them
    C, gens = parity_code(3, 3), wreath_generators(3, 3)
    XC, flags = code_stabiliser_analysis(C, Group(9, 3, tuple(gens)))
    assert XC.order is None and XC.keys is None
    assert XC.generators == tuple(code_orbit(C, gens, 10)[1]) and len(XC.generators) == 8
    rep = verify_elusive(C, gens, enum_cap=10**9)
    assert generate_group(XC.generators).order == rep.xc_order == 139968 > XC_ENUM_CAP
    assert flags == StabiliserFlags(rep.xc_transitive_on_code, rep.xc_transitive_on_neighbours)
    assert flags.transitive_on_code and flags.transitive_on_neighbours


def test_alt5_big_coset_pair():
    rep = verify_elusive(alt_code(5), diag_top_generators(5))
    assert rep.is_elusive and rep.image_count_r == 2
    assert rep.xc_order == 7200
    assert rep.images_pairwise_disjoint and rep.images_intersection is None


def test_parity_pair_q3_l2():
    rep = verify_elusive(parity_code(3, 2), wreath_generators(3, 2))
    assert rep.is_elusive
    assert rep.image_count_r == 2
    assert rep.images_pairwise_disjoint and rep.images_intersection is None
    assert rep.xc_order == 1296  # half of the wreath closure order 2592
    assert set(rep.images) == {parity_code(3, 2), parity_code(3, 2, parity="odd")}
    assert rep.x_transitive_on_neighbours


def test_parity_pair_q3_l3_over_enum_cap():
    rep = verify_elusive(parity_code(3, 3), wreath_generators(3, 3), enum_cap=1000)
    assert rep.is_elusive and rep.image_count_r == 2
    assert rep.xc_order is None  # closure larger than the enumeration cap
    assert set(rep.images) == {parity_code(3, 3), parity_code(3, 3, parity="odd")}


def test_union_pair_q4_intersection():
    U = union_code(alt_code(4), rep_code(4, 4))
    rep = verify_elusive(U, diag_top_generators(4))
    assert rep.is_elusive and rep.image_count_r == 2
    assert not rep.images_pairwise_disjoint
    assert rep.images_intersection == rep_code(4, 4)
    assert rep.xc_order == 288
    assert set(rep.images) == {U, union_code(odd_coset_code(4), rep_code(4, 4))}


def test_not_elusive_when_code_is_fixed():
    rep = verify_elusive(rep_code(3, 3), diag_top_generators(3))
    assert not rep.is_elusive
    assert rep.fixes_code and rep.fixes_neighbours
    assert rep.image_count_r == 1
    assert rep.witness_mover is None
    assert rep.images == (rep_code(3, 3),)
    assert rep.images_intersection is None and rep.images_pairwise_disjoint


def test_not_elusive_when_neighbours_move():
    C = Code.from_words([Vertex((0, 0, 0), 3), Vertex((0, 1, 1), 3)])
    gens = [diag(perms.transposition(3, 0, 2), 3)]
    rep = verify_elusive(C, gens)
    assert not rep.fixes_neighbours and not rep.is_elusive
    # in H(1,4), (0 2)(1 3) swaps the code {0,1} with its neighbours {2,3}:
    # the orbit of 2 has as many members as the neighbour set, but is {0,2}
    C = Code.from_words([Vertex((0,), 4), Vertex((1,), 4)])
    rep = verify_elusive(C, [diag(perms.Perm((2, 3, 0, 1)), 1)])
    assert not rep.fixes_neighbours and not rep.x_transitive_on_neighbours


def test_verify_elusive_input_validation():
    with pytest.raises(ValueError):
        verify_elusive(Code.from_words([Vertex((0, 0, 0), 3)]), diag_top_generators(3))
    with pytest.raises(ValueError):
        verify_elusive(alt_code(3), [top(perms.transposition(4, 0, 1), 4)])
    for bad_cap in (0, -1):
        with pytest.raises(ValueError, match="enum_cap"):
            verify_elusive(alt_code(3), [], enum_cap=bad_cap)
        with pytest.raises(ValueError, match="enum_cap"):
            verify_elusive(alt_code(3), diag_top_generators(3), enum_cap=bad_cap)


@pytest.mark.parametrize(
    "C, gens, full",
    [
        pytest.param(alt_code(3), diag_top_generators(3), None, id="alt3"),
        pytest.param(alt_code(4), diag_top_generators(4), None, id="alt4"),
        pytest.param(parity_code(3, 2), wreath_generators(3, 2), None, id="parity32"),
        pytest.param(
            union_code(alt_code(4), rep_code(4, 4)), diag_top_generators(4), None, id="union4"
        ),
        pytest.param(rep_code(3, 3), full_group_generators(3, 3), "full33", id="rep33-full"),
        pytest.param(rep_code(4, 3), full_group_generators(4, 3), "full43", id="rep43-full"),
    ],
)
def test_xc_order_is_the_closure_of_x_over_r(C, gens, full, request):
    # orbit-stabiliser |X| = r * |X_C|, against X closed by BFS; the full
    # groups come from the session fixtures
    X = request.getfixturevalue(full) if full else generate_group(gens)
    rep = verify_elusive(C, gens)
    assert X.order % rep.image_count_r == 0
    assert rep.xc_order == X.order // rep.image_count_r


def test_xc_order_cap_boundaries(monkeypatch):
    # enum_cap bounds |X| = r * |X_C|: alt3 has |X| = 36, r = 2
    assert verify_elusive(alt_code(3), diag_top_generators(3), enum_cap=35).xc_order is None
    assert verify_elusive(alt_code(3), diag_top_generators(3), enum_cap=36).xc_order == 18
    # r = 3 with a trivial X_C: no Schreier generators, and enum_cap // r = 0
    # must still read as over the cap
    C = Code.from_words([Vertex((0, 1, 2), 3), Vertex((1, 2, 0), 3)])
    gens = [top(perms.cycle(3, (0, 1, 2)), 3)]
    assert verify_elusive(C, gens, enum_cap=2).xc_order is None
    rep = verify_elusive(C, gens, enum_cap=3)
    assert rep.image_count_r == 3 and rep.xc_order == 1
    # the group cap bounds |X| too, not |X_C|
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "20")
    assert verify_elusive(alt_code(3), diag_top_generators(3)).xc_order is None
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "36")
    assert verify_elusive(alt_code(3), diag_top_generators(3)).xc_order == 18


def test_degree_profiles():
    assert dict(neighbour_degree_profile(alt_code(3))) == {3: 18}
    assert dict(neighbour_degree_profile(alt_code(4))) == {6: 144}
    assert dict(neighbour_degree_profile(rep_code(4, 4))) == {2: 48}
    # for q = 4 the two halves' neighbour sets see each other and the
    # profile flattens; from q = 5 they are too far apart and it splits
    U4 = union_code(alt_code(4), rep_code(4, 4))
    assert dict(neighbour_degree_profile(U4)) == {8: 192}
    U5 = union_code(alt_code(5), rep_code(5, 5))
    assert dict(neighbour_degree_profile(U5)) == {9: 1200, 3: 100}


def test_degree_map_counts_inside_neighbour_set():
    C = alt_code(3)
    nb = neighbour_set(C)
    dm = neighbour_degree_map(C)
    assert set(dm) == nb
    v = min(nb)
    from elusivecodes.hamming import neighbours

    assert dm[v] == sum(1 for w in neighbours(v) if w in nb)


def test_degree_profile_invariant_on_images(alt3_report):
    profiles = {
        tuple(sorted(neighbour_degree_profile(img).items()))
        for img in alt3_report.images
    }
    assert len(profiles) == 1


def test_write_report_with_images(tmp_path, alt3_report):
    path = tmp_path / "report.txt"
    write_report(path, alt3_report)
    assert path.read_text() == format_report(alt3_report)
    img0 = read_code(f"{path}.image0")
    img1 = read_code(f"{path}.image1")
    assert (img0, img1) == alt3_report.images


def test_verify_in_a_large_space_images_only_what_it_reaches(monkeypatch):
    # H(16,4) has 2^32 vertices: a table over the space would take 16 GiB,
    # so under a 1 MiB table-bytes cap only C, its neighbours and what
    # their images and orbits reach can be imaged
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", str(1 << 20))
    rep = rep_code(16, 4)
    gens = [
        diag(perms.transposition(4, 0, 1), 16),
        diag(perms.cycle(4, (0, 1, 2, 3)), 16),
        top(perms.transposition(16, 0, 1), 4),
        top(perms.cycle(16, tuple(range(16))), 4),
    ]
    report = verify_elusive(rep, gens, enum_cap=100)
    assert report.fixes_code and report.fixes_neighbours and not report.is_elusive
    assert report.image_count_r == 1 and report.xc_order is None
    assert report.x_transitive_on_neighbours
    assert report.xc_transitive_on_code and report.xc_transitive_on_neighbours

    # the 4-cycle on every entry carries {0^16, 1^16} round four images,
    # each meeting the next; only the identity fixes the code
    C = Code.from_words([Vertex((0,) * 16, 4), Vertex((1,) * 16, 4)])
    report = verify_elusive(C, [gens[1]])
    assert (report.image_count_r, report.fixes_code, report.fixes_neighbours) == (4, False, False)
    assert not report.images_pairwise_disjoint and report.images_intersection is None
    assert report.images[0] == C and report.xc_order == 1
    assert not (report.x_transitive_on_neighbours or report.xc_transitive_on_code)
    assert not report.xc_transitive_on_neighbours


def _union(q):
    return union_code(alt_code(q), rep_code(q, q))


def _code_orbit_by_closure(C, gens, cap):
    """code_orbit's three answers, from the shared walk on packed keys."""
    m, q = C.m, C.q
    keys = _keys(gens, m, q)
    rows, target = _set_orbit(keys, _indices(C.words, m, q), m, q, cap)
    schreier, transversal = _orbit_schreier(keys, target, m, q)
    witness = _sorted_elements(transversal[1:2], m, q)[0] if len(rows) > 1 else None
    return [tuple(row) for row in rows.tolist()], list(_sorted_elements(schreier, m, q)), witness


def test_code_orbit_matches_object_bfs():
    # the same images in the same FIFO order, the same Schreier generators
    # in the same order and the same witness as the object BFS over apply()
    pairs = [
        (alt_code(3), diag_top_generators(3)),
        (alt_code(4), diag_top_generators(4)),
        (alt_code(5), diag_top_generators(5)),
        (parity_code(3, 2), wreath_generators(3, 2)),
        (parity_code(3, 3), wreath_generators(3, 3)),
        (_union(4), diag_top_generators(4)),
        (_union(5), diag_top_generators(5)),
        (rep_code(3, 3), full_group_generators(3, 3)),  # r = 36
        (rep_code(4, 3), full_group_generators(4, 3)),  # r = 216
    ]
    for C, gens in pairs:
        assert _code_orbit_by_closure(C, gens, 10_000) == code_orbit(C, gens, 10_000)
    # codes of 2-5 words under 1-3 seeded random elements; most orbits pass
    # the small cap, and then both walks must refuse them
    compared = 0
    for m, q in [(3, 3), (4, 3), (3, 4), (5, 2)]:
        rng = random.Random(100 * m + q)
        verts = list(all_vertices(m, q))
        for _ in range(20):
            C = Code.from_words(rng.sample(verts, rng.randint(2, 5)))
            gens = [random_automorphism(rng, m, q) for _ in range(rng.randint(1, 3))]
            try:
                expected = code_orbit(C, gens, 200)
            except ResourceCapError:
                with pytest.raises(ResourceCapError):
                    _code_orbit_by_closure(C, gens, 200)
                continue
            assert _code_orbit_by_closure(C, gens, 200) == expected
            compared += len(expected[1]) > 0
    assert compared >= 6  # orbits whose stabiliser needs Schreier generators


def _transitive_by_apply(gens, S):
    # the definition: the orbit of the least vertex of S is S
    return bool(S) and orbit_by_apply(gens, min(S), 10**6) == set(S)


def test_transitivity_matches_the_orbit_definition():
    # is_transitive, is_neighbour_transitive and verify_elusive's three
    # flags against the object BFS, on seeded random codes, unions of
    # vertex orbits and their neighbour sets, under 1-3 random elements
    seen = set()
    for m, q in [(3, 3), (4, 3), (3, 4), (5, 2)]:
        rng = random.Random(17 * m + q)
        verts = list(all_vertices(m, q))
        for trial in range(15):
            gens = [random_automorphism(rng, m, q) for _ in range(rng.randint(1, 3))]
            if trial % 3 == 0:  # most of these are moved by the generators
                words = set(rng.sample(verts, rng.randint(2, 5)))
            else:  # fixed: one or two vertex orbits
                words = set()
                while len(words) < 2:
                    words |= orbit_by_apply(gens, rng.choice(verts), 10**6)
            C = Code.from_words(words)
            nb = neighbour_set(C)
            for S in filter(None, (C.word_set, nb)):  # Γ1 of the whole space is empty
                if all(frozenset(apply(g, v) for v in S) == S for g in gens):
                    want = _transitive_by_apply(gens, S)
                    assert is_transitive(gens, S) == want
                    seen.add(want)
                else:
                    with pytest.raises(ValueError, match="moves the set"):
                        is_transitive(gens, S)
                    seen.add("moved")
            want = _transitive_by_apply(gens, C.word_set) and (not nb or _transitive_by_apply(gens, nb))
            assert is_neighbour_transitive(gens, C) == want
            try:
                schreier = code_orbit(C, gens, 200)[1]
            except ResourceCapError:
                continue
            report = verify_elusive(C, gens)
            assert report.x_transitive_on_neighbours == _transitive_by_apply(gens, nb)
            assert report.xc_transitive_on_code == _transitive_by_apply(schreier, C.word_set)
            assert report.xc_transitive_on_neighbours == _transitive_by_apply(schreier, nb)
            seen.add(("xc", report.fixes_code, report.xc_transitive_on_code))
    assert {True, False, "moved"} <= seen
    assert {("xc", False, False), ("xc", True, True), ("xc", True, False)} <= seen


def test_one_image_table_answers_fixing_and_transitivity():
    # verify_elusive reads fixes_neighbours off the table its transitivity
    # flag walks: against the sieve of fixes_setwise, one generator at a
    # time, and is_transitive raises exactly when a generator moves Γ1
    seen = set()
    for m, q in [(3, 3), (4, 3), (3, 4)]:
        rng = random.Random(23 * m + q)
        verts = list(all_vertices(m, q))
        for trial in range(8):
            gens = [random_automorphism(rng, m, q) for _ in range(rng.randint(1, 2))]
            if trial % 2:  # a union of vertex orbits, whose Γ1 the generators fix
                words = set()
                while len(words) < 2:
                    words |= orbit_by_apply(gens, rng.choice(verts), 10**6)
            else:
                words = set(rng.sample(verts, rng.randint(2, 4)))
            C = Code.from_words(words)
            nb = neighbour_set(C)
            report = verify_elusive(C, gens)
            fixes = all(fixes_setwise(g, nb) for g in gens)
            assert report.fixes_neighbours == fixes
            if not nb:
                continue
            if fixes:
                assert report.x_transitive_on_neighbours == is_transitive(gens, nb)
            else:
                assert not report.x_transitive_on_neighbours
                with pytest.raises(ValueError, match="moves the set"):
                    is_transitive(gens, nb)
            seen.add(fixes)
    assert seen == {True, False}


def test_transitivity_flags_walk_only_inside_the_set(monkeypatch):
    # diag(S_3) moves {000, 111} round 3 images and moves its neighbour
    # set, whose least vertex 001 has an orbit of 6 in H(3,3); the flag is
    # False from the images of the set alone, with no walk outside it
    C = Code.from_words([Vertex((0, 0, 0), 3), Vertex((1, 1, 1), 3)])
    gens = [diag(perms.cycle(3, (0, 1, 2)), 3), diag(perms.transposition(3, 0, 1), 3)]
    assert len(orbit_by_apply(gens, min(neighbour_set(C)), 10**6)) == 6
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "3")
    report = verify_elusive(C, gens)
    assert report.image_count_r == 3 and not report.fixes_neighbours
    assert not report.x_transitive_on_neighbours
    # a set the group fixes is walked inside itself too: Γ1(rep(3,3)),
    # 18 vertices in one orbit of diag-top, past an orbit cap of 1
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "1")
    report = verify_elusive(rep_code(3, 3), diag_top_generators(3))
    assert report.image_count_r == 1 and report.x_transitive_on_neighbours


def test_empty_and_identity_generating_sets():
    for gens in ([], [identity_automorphism(3, 3)]):
        rep = verify_elusive(alt_code(3), gens)
        assert rep.fixes_code and not rep.is_elusive
        assert rep.image_count_r == 1 and rep.xc_order == 1
        assert rep.witness_mover is None
    XC, _ = code_stabiliser_analysis(alt_code(3), Group(3, 3, ()))
    assert XC.order == 1


def test_code_orbit_cap(monkeypatch):
    monkeypatch.setenv("ELUSIVECODES_MAX_ORBIT", "1")
    with pytest.raises(ResourceCapError, match="orbit exceeded cap 1"):
        verify_elusive(alt_code(3), diag_top_generators(3))
