"""Acceptance gate: one test per shipped guarantee, with its runtime budget.

Run with ``pytest tests/test_acceptance.py -v`` to get one PASS/FAIL line
per criterion.
"""

import math
import random
import time
from contextlib import contextmanager

from elusivecodes import perms
from elusivecodes.autgroup import (
    Automorphism,
    apply,
    compose,
    diag_top_generators,
    identity_automorphism,
    inverse,
    orbit,
    wreath_generators,
)
from elusivecodes.codes import (
    Code,
    are_equivalent,
    fixes_setwise,
    is_neighbour_transitive,
    min_distance,
    neighbour_set,
    parse_code,
    format_code,
)
from elusivecodes.constructions import (
    alt_code,
    parity_code,
    product_code,
    rep_code,
    sym_code,
    union_code,
)
from elusivecodes.elusive import neighbour_degree_map, verify_elusive
from elusivecodes.hamming import Vertex, distance, sphere
from elusivecodes.search import search_elusive


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion exceeded its {seconds}s budget: {elapsed:.1f}s"


def test_criterion_01_neighbour_set_identity():
    with budget(10):
        for q in (3, 4, 5):
            assert neighbour_set(alt_code(q)) == neighbour_set(sym_code(q))


def test_criterion_02_minimum_distance_table():
    with budget(30):
        for q in (3, 4, 5, 6):
            assert min_distance(sym_code(q)) == 2
            assert min_distance(alt_code(q)) == 3
        assert min_distance(rep_code(3, 3)) == 3
        assert min_distance(rep_code(5, 5)) == 5
        for q, l in ((3, 2), (3, 3), (4, 2)):
            assert min_distance(parity_code(q, l)) == 3


def test_criterion_03_neighbour_transitivity():
    with budget(60):
        for q in (3, 4):
            assert is_neighbour_transitive(diag_top_generators(q), sym_code(q))
        for q, l in ((3, 2), (3, 3)):
            P = product_code(sym_code(q), l)
            assert is_neighbour_transitive(wreath_generators(q, l), P)


def test_criterion_04_elusive_pair_verification():
    with budget(120):
        for q in (3, 4, 5):
            rep = verify_elusive(alt_code(q), diag_top_generators(q))
            assert rep.is_elusive and rep.image_count_r == 2
            assert rep.images_pairwise_disjoint
        for q, l in ((3, 2), (3, 3)):
            rep = verify_elusive(parity_code(q, l), wreath_generators(q, l))
            assert rep.is_elusive and rep.image_count_r == 2
            assert rep.images_pairwise_disjoint
        for q in (4, 5):
            U = union_code(alt_code(q), rep_code(q, q))
            rep = verify_elusive(U, diag_top_generators(q))
            assert rep.is_elusive and rep.image_count_r == 2
            assert rep.images_intersection == rep_code(q, q)


def test_criterion_05_degree_profile_q5():
    with budget(120):
        U = union_code(alt_code(5), rep_code(5, 5))
        dm = neighbour_degree_map(U)
        alt_side = neighbour_set(alt_code(5))
        rep_side = neighbour_set(rep_code(5, 5))
        assert set(dm) == alt_side | rep_side and not (alt_side & rep_side)
        assert all(dm[v] == 9 for v in alt_side)  # 3(q-2)
        assert all(dm[v] == 3 for v in rep_side)  # q-2
        # the acting group has exactly two orbits on the neighbour set
        gens = diag_top_generators(5)
        remaining = set(dm)
        orbits = 0
        while remaining:
            seed = min(remaining)
            remaining -= orbit(gens, seed)
            orbits += 1
        assert orbits == 2


def test_criterion_06_q4_exceptional_element():
    with budget(10):
        h = perms.Perm((2, 3, 0, 1))  # the double transposition (0 2)(1 3)
        x = Automorphism(
            (perms.identity(4), perms.identity(4), h, h), perms.identity(4)
        )
        U = union_code(alt_code(4), rep_code(4, 4))
        assert fixes_setwise(x, neighbour_set(U))
        assert not fixes_setwise(x, U)
        assert apply(x, Vertex((0, 0, 2, 3), 4)) == Vertex((0, 0, 0, 1), 4)


def test_criterion_07_non_existence_4_3_3():
    with budget(900):
        filtered = search_elusive(4, 3, 3)
        unfiltered = search_elusive(4, 3, 3, parity_filter=False)
        assert filtered.outcome == "NoneExhaustive"
        assert unfiltered.outcome == "NoneExhaustive"
        assert (
            filtered.canonical_codes_examined
            == unfiltered.canonical_codes_examined
            == 24
        )


def test_criterion_08_positive_control_3_3_3(full33):
    with budget(60):
        cert = search_elusive(3, 3, 3)
        assert cert.outcome == "Found"
        code, stab = cert.found_pair
        assert are_equivalent(code, alt_code(3), full33) is not None
        assert verify_elusive(code, stab.generators).is_elusive


def test_criterion_09_lemma_batteries(lemma_checks):
    # the seed-0 runs are shared with tests/test_lemmas.py
    with budget(300):
        for checks in (lemma_checks("neigh"), lemma_checks("act"), lemma_checks("partition")):
            assert checks and all(ok for _, ok, _ in checks)


def test_criterion_10_property_suite():
    rng = random.Random(0)

    def rperm(n):
        return perms.Perm(tuple(rng.sample(range(n), n)))

    for _ in range(100):
        m = rng.randrange(2, 5)
        q = rng.randrange(2, 5)
        x = Automorphism(tuple(rperm(q) for _ in range(m)), rperm(m))
        y = Automorphism(tuple(rperm(q) for _ in range(m)), rperm(m))
        u = Vertex(tuple(rng.randrange(q) for _ in range(m)), q)
        v = Vertex(tuple(rng.randrange(q) for _ in range(m)), q)
        e = identity_automorphism(m, q)
        # action axioms
        assert apply(e, u) == u
        assert apply(compose(x, y), u) == apply(y, apply(x, u))
        assert apply(inverse(x), apply(x, u)) == u
        # isometry
        assert distance(apply(x, u), apply(x, v)) == distance(u, v)
        # sphere-size formula
        r = rng.randrange(0, m + 1)
        assert len(sphere(u, r)) == math.comb(m, r) * (q - 1) ** r
        # parity homomorphism
        a, b = rperm(q), rperm(q)
        assert perms.is_even(perms.compose(a, b)) == (
            perms.is_even(a) == perms.is_even(b)
        )
        # file round-trip
        C = Code.from_words({u, v})
        assert parse_code(format_code(C)) == C
