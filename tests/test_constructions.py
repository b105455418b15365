import itertools

import pytest

from elusivecodes import perms
from elusivecodes.caps import ResourceCapError
from elusivecodes.codes import min_distance, neighbour_set
from elusivecodes.constructions import (
    PermCodeSpec,
    alt_code,
    mu,
    nu,
    odd_coset_code,
    parity_code,
    perm_code,
    perm_vertex,
    product_code,
    rep_code,
    sym_code,
    union_code,
)
from elusivecodes.hamming import Vertex, distance, sphere


def test_sym_code_over_group_cap(monkeypatch):
    # S_4 has 24 elements; perms.symmetric_group refuses it under a cap of 10
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "10")
    with pytest.raises(ResourceCapError):
        sym_code(4)


def test_perm_vertex():
    assert perm_vertex(perms.identity(3)) == Vertex((0, 1, 2), 3)
    assert perm_vertex(perms.cycle(4, (0, 1, 2, 3))) == Vertex((1, 2, 3, 0), 4)


def test_perm_code_sizes_and_distances():
    S3 = sym_code(3)
    assert len(S3) == 6 and min_distance(S3) == 2
    S4 = sym_code(4)
    assert len(S4) == 24 and min_distance(S4) == 2
    A4 = alt_code(4)
    assert len(A4) == 12 and min_distance(A4) == 3
    A5 = alt_code(5)
    assert len(A5) == 60 and min_distance(A5) == 3
    O4 = odd_coset_code(4)
    assert len(O4) == 12 and min_distance(O4) == 3
    assert not (A4.word_set & O4.word_set)
    assert A4.word_set | O4.word_set == S4.word_set


def test_perm_code_explicit_and_errors():
    two = (perms.identity(3), perms.cycle(3, (0, 1, 2)))
    C = perm_code(PermCodeSpec(3, two))
    assert len(C) == 2
    with pytest.raises(ValueError):
        perm_code(PermCodeSpec(3, "weird"))
    with pytest.raises(ValueError):
        perm_code(PermCodeSpec(3, (perms.identity(3), perms.identity(3))))
    with pytest.raises(ValueError):
        perm_code(PermCodeSpec(3, (perms.identity(4),)))
    with pytest.raises(ValueError):
        perm_code(PermCodeSpec(3, ()))


def test_two_perm_words_distance():
    # distance between words of g and h equals the points moved by g^-1 h
    for g, h in itertools.product(perms.symmetric_group(4), repeat=2):
        moved = sum(1 for a in range(4) if g.images[a] != h.images[a])
        assert distance(perm_vertex(g), perm_vertex(h)) == moved


def test_nu_neighbours():
    g = perms.cycle(4, (0, 1, 2, 3))  # word 1230
    assert nu(g, 0, 1) == Vertex((2, 2, 3, 0), 4)
    assert nu(g, 3, 0) == Vertex((1, 2, 3, 1), 4)
    with pytest.raises(ValueError):
        nu(g, 2, 2)
    with pytest.raises(ValueError):
        nu(g, 0, 4)
    # every nu-vertex is adjacent to the word and is not itself a perm word
    for g in perms.symmetric_group(3):
        for i, j in itertools.permutations(range(3), 2):
            v = nu(g, i, j)
            assert distance(v, perm_vertex(g)) == 1
            assert len(set(v.entries)) < 3


def test_nu_covers_neighbour_set_of_alt_code():
    # with distance 3 between codewords, each neighbour comes from exactly
    # one codeword, as one nu-vertex
    C = alt_code(4)
    from_nu = {
        nu(g, i, j)
        for g in perms.alternating_group(4)
        for i, j in itertools.permutations(range(4), 2)
    }
    assert from_nu == set(neighbour_set(C))
    assert len(from_nu) == len(C) * 4 * 3


def test_product_code():
    C = rep_code(2, 3)
    P = product_code(C, 2)
    assert (P.m, P.q, len(P)) == (4, 3, 9)
    assert Vertex((0, 0, 2, 2), 3) in P
    assert Vertex((0, 1, 2, 2), 3) not in P
    assert min_distance(P) == 2
    with pytest.raises(ValueError):
        product_code(C, 0)


def test_product_code_cap(monkeypatch):
    monkeypatch.setenv("ELUSIVECODES_MAX_VERTICES", "8")
    with pytest.raises(ResourceCapError):
        product_code(rep_code(2, 3), 2)


def test_mu_block_replacement():
    blocks = [Vertex((0, 1, 2), 3), Vertex((2, 0, 1), 3)]
    nu_v = Vertex((0, 1, 1), 3)
    assert mu(blocks, nu_v, 0) == Vertex((0, 1, 1, 2, 0, 1), 3)
    assert mu(blocks, Vertex((2, 2, 1), 3), 1) == Vertex((0, 1, 2, 2, 2, 1), 3)
    with pytest.raises(ValueError):
        mu(blocks, Vertex((1, 0, 1), 3), 0)  # distance 2 from block 0
    with pytest.raises(ValueError):
        mu(blocks, nu_v, 2)
    # mu output is adjacent to the plain concatenation
    concat = Vertex(blocks[0].entries + blocks[1].entries, 3)
    assert distance(mu(blocks, nu_v, 0), concat) == 1


def test_parity_code_sizes():
    # half of the (q!)^l block tuples in each class
    E = parity_code(3, 2)
    O = parity_code(3, 2, parity="odd")
    assert len(E) == len(O) == 18
    assert not (E.word_set & O.word_set)
    full = product_code(sym_code(3), 2)
    assert E.word_set | O.word_set == full.word_set
    # blocks that change must change parity class together, which costs a
    # third entry: the halves have distance 3 while the full product has 2
    assert min_distance(E) == 3 and min_distance(O) == 3
    assert min_distance(full) == 2


def test_parity_code_membership():
    E = parity_code(3, 2)
    # two even blocks -> even count 2 -> in the even class
    assert Vertex((0, 1, 2, 1, 2, 0), 3) in E
    # one even, one odd -> count 1 -> odd class
    assert Vertex((0, 1, 2, 1, 0, 2), 3) not in E
    assert Vertex((0, 1, 2, 1, 0, 2), 3) in parity_code(3, 2, parity="odd")


def test_parity_code_errors():
    with pytest.raises(ValueError):
        parity_code(3, 2, parity="both")
    with pytest.raises(ValueError):
        parity_code(3, 0)


def test_rep_code():
    R = rep_code(4, 3)
    assert len(R) == 3 and min_distance(R) == 4
    assert R.words[0] == Vertex((0, 0, 0, 0), 3)
    R2 = rep_code(5, 5)
    assert len(R2) == 5 and min_distance(R2) == 5


def test_union_code_alt_with_repeats():
    # the union family: even permutation words plus the constant words
    for q in (4, 5):
        A = alt_code(q)
        R = rep_code(q, q)
        U = union_code(A, R)
        assert len(U) == len(A) + len(R)
        assert min_distance(U) == 3
        # constant words sit at distance q-1 >= 3 from every permutation word
        assert all(
            distance(a, r) == q - 1 for a in A.words for r in R.words
        )
        # neighbour sets of the two halves are disjoint, so the union's
        # neighbour set splits cleanly
        assert neighbour_set(U) == neighbour_set(A) | neighbour_set(R)
        assert not (neighbour_set(A) & neighbour_set(R))


def test_union_code_errors():
    with pytest.raises(ValueError):
        union_code(rep_code(2, 3), rep_code(3, 3))
    with pytest.raises(ValueError):
        union_code(rep_code(2, 3), rep_code(2, 4))


def test_sphere_of_perm_word_splits_by_entry_multiset():
    # neighbours of a perm word in H(q,q) are exactly the nu vertices,
    # each with one duplicated alphabet symbol
    g = perms.identity(4)
    for v in sphere(perm_vertex(g), 1):
        counts = sorted(v.entries.count(a) for a in set(v.entries))
        assert counts in ([1, 1, 2], [1, 2], [2])
