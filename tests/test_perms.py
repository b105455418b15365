import itertools
import math
import random

import pytest

from elusivecodes.perms import (
    Perm,
    alternating_group,
    compose,
    cycle,
    cycles,
    format_perm,
    identity,
    inverse,
    is_even,
    parity,
    parse_perm,
    symmetric_group,
    transposition,
)


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0))
    with pytest.raises(ValueError):
        Perm((0, 2))
    with pytest.raises(ValueError):
        Perm((1, 2, 3))


def test_identity_and_compose():
    e = identity(3)
    t = transposition(3, 0, 1)
    assert compose(e, t) == t == compose(t, e)
    assert compose(t, t) == e
    # "apply p then r" convention: 0 -(01)-> 1 -(12)-> 2
    p = transposition(3, 0, 1)
    r = transposition(3, 1, 2)
    assert compose(p, r).images == (2, 0, 1)
    assert compose(r, p).images == (1, 2, 0)


def test_call_is_image_lookup():
    g = Perm((2, 0, 1))
    assert [g(a) for a in range(3)] == [2, 0, 1]


def test_inverse():
    g = Perm((2, 0, 3, 1))
    assert compose(g, inverse(g)) == identity(4)
    assert compose(inverse(g), g) == identity(4)


def test_cycle_constructor_and_parity():
    c = cycle(4, (0, 1, 2))
    assert c.images == (1, 2, 0, 3)
    assert parity(c) == "even" and is_even(c)
    assert parity(transposition(4, 0, 3)) == "odd"
    assert is_even(identity(5))


def test_cycles_decomposition():
    g = Perm((1, 0, 3, 4, 2))
    assert cycles(g) == [(0, 1), (2, 3, 4)]
    assert cycles(identity(3)) == []


def test_symmetric_group_enumeration():
    s3 = symmetric_group(3)
    assert len(s3) == 6
    assert s3[0] == identity(3)
    assert s3 == sorted(s3)
    assert [g.images for g in symmetric_group(2)] == [(0, 1), (1, 0)]


def test_alternating_group():
    a3 = alternating_group(3)
    assert [g.images for g in a3] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    a4 = alternating_group(4)
    assert len(a4) == 12
    assert all(is_even(g) for g in a4)
    # closure under composition
    assert {compose(a, b) for a, b in itertools.product(a4, a4)} == set(a4)


def test_group_axioms_random():
    rng = random.Random(13)
    s5 = symmetric_group(5)
    for _ in range(100):
        a, b, c = (rng.choice(s5) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, inverse(a)) == identity(5)
    assert len(s5) == math.factorial(5)


def test_parse_and_format_roundtrip():
    assert parse_perm("id", 4) == identity(4)
    assert parse_perm("(0 1 2)", 4) == cycle(4, (0, 1, 2))
    assert parse_perm("[1, 0, 2]", 3) == transposition(3, 0, 1)
    assert parse_perm("(0 1)(2 3)", 4).images == (1, 0, 3, 2)
    # overlapping cycles compose left to right
    assert parse_perm("(0 1)(1 2)", 3).images == (2, 0, 1)
    for g in symmetric_group(4):
        assert parse_perm(format_perm(g), 4) == g


def test_format_perm_text():
    assert format_perm(identity(3)) == "id"
    assert format_perm(cycle(5, (1, 3, 2))) == "(1 3 2)"
    assert format_perm(Perm((1, 0, 3, 2))) == "(0 1)(2 3)"


def test_parse_perm_rejects_garbage():
    for bad in ("", "(0 1", "(0 9)", "[0, 0, 1]", "fish"):
        with pytest.raises(ValueError):
            parse_perm(bad, 3)
