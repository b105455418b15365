import itertools
import random

import numpy as np
import pytest

from dense_kernels import first_mover, is_canonical
from elusivecodes import _kernels, search
from elusivecodes._kernels import min_distance_words, stabiliser_rows
from elusivecodes.autgroup import full_action_table, vertex_action_table
from elusivecodes.hamming import all_vertices, distance, vertex_from_index


@pytest.fixture(scope="module")
def table33(full33):
    return vertex_action_table(full33.elements, 3, 3)


def _mask(indices, n=27):
    mask = np.zeros(n, dtype=bool)
    mask[list(indices)] = True
    return mask


def _random_cases(rng, count, max_size=6, n=27):
    for _ in range(count):
        size = rng.randrange(1, max_size + 1)
        yield np.array(sorted(rng.sample(range(n), size)), dtype=np.int32)


def test_np_is_canonical_against_python_oracle(table33):
    rng = random.Random(21)
    for code in _random_cases(rng, 60):
        # oracle: direct scan, no tricks
        want = all(
            sorted(table33[r, code]) >= list(code) for r in range(table33.shape[0])
        )
        assert is_canonical(table33, code) == want


def test_np_stabiliser_rows_against_python_oracle(table33):
    rng = random.Random(22)
    for code in _random_cases(rng, 30):
        mask = _mask(code)
        want = np.array(
            [set(table33[r, code]) == set(code) for r in range(table33.shape[0])]
        )
        got = stabiliser_rows(table33, mask)
        assert (got == want).all()


def test_np_first_mover_against_python_oracle(table33):
    rng = random.Random(23)
    for code in _random_cases(rng, 30):
        nb = set()
        for idx in code:
            v = vertex_from_index(int(idx), 3, 3)
            for w in all_vertices(3, 3):
                if distance(v, w) == 1:
                    nb.add(w)
        nb_idx = {w.entries for w in nb}
        nb_indices = [
            i
            for i, w in enumerate(all_vertices(3, 3))
            if w.entries in nb_idx and i not in set(int(c) for c in code)
        ]
        nb_mask = _mask(nb_indices)
        code_mask = _mask(code)
        want = -1
        for r in range(table33.shape[0]):
            fixes_nb = set(np.nonzero(nb_mask[table33[r]])[0]) == set(
                np.nonzero(nb_mask)[0]
            )
            if not fixes_nb:
                continue
            moves_code = set(table33[r, code]) != set(int(c) for c in code)
            if moves_code:
                want = r
                break
        assert first_mover(table33, nb_mask, code_mask) == want


def test_np_min_distance_against_python_oracle():
    rng = random.Random(24)
    for _ in range(40):
        m = rng.randrange(1, 7)
        q = rng.randrange(2, 5)
        n = rng.randrange(2, min(12, q**m + 1))
        rows = set()
        while len(rows) < n:
            rows.add(tuple(rng.randrange(q) for _ in range(m)))
        words = np.array(sorted(rows), dtype=np.int16)
        want = min(
            sum(1 for t in range(m) if a[t] != b[t])
            for a, b in itertools.combinations(words.tolist(), 2)
        )
        assert min_distance_words(words) == want


@pytest.mark.parametrize(
    "m, q, delta, kwargs",
    [
        (3, 3, 2, {}),
        (3, 3, 3, {}),
        (4, 3, 3, {}),
        (5, 2, 2, {}),
        (3, 4, 3, {"parity_filter": False}),
        (4, 3, 2, {"max_size": 4}),
    ],
)
def test_coset_kernels_match_dense_oracle_on_every_call(m, q, delta, kwargs, monkeypatch):
    # every canonicity test and mover scan of a real search, checked
    # against the dense kernel over the full table
    full = full_action_table(m, q)
    calls = {"canonical": 0, "mover": 0}
    coset_canonical, coset_mover = _kernels.is_canonical, _kernels.first_mover

    def checked_canonical(table, code, minus):
        got = coset_canonical(table, code, minus)
        assert got == is_canonical(full, code), code
        calls["canonical"] += 1
        return got

    def checked_mover(table, nb_mask, code_mask, *arrays):
        got = coset_mover(table, nb_mask, code_mask, *arrays)
        assert (got >= 0) == (first_mover(full, nb_mask, code_mask) >= 0), np.nonzero(code_mask)
        calls["mover"] += 1
        return got

    monkeypatch.setattr(_kernels, "is_canonical", checked_canonical)
    monkeypatch.setattr(_kernels, "first_mover", checked_mover)
    search.search_elusive(m, q, delta, **kwargs)
    assert calls["canonical"] > 0 and calls["mover"] > 0


@pytest.mark.parametrize(
    "m, q, delta, max_size",
    [(2, 3, 1, None), (3, 2, 1, 6), (3, 3, 1, 4), (2, 4, 1, 5), (4, 3, 3, None), (6, 2, 3, None)],
)
def test_first_mover_matches_dense_oracle_at_every_scannable_code(m, q, delta, max_size):
    # every canonical code with minimum distance exactly delta, also past the
    # first hit, where a search stops scanning; at delta = 1 the U(C) prune
    # does not hold and must not be applied
    space = search._SearchSpace(m, q, delta)
    full = full_action_table(m, q)
    scanned = 0
    for code, cur_min in search._canonical_codes(space, max_size):
        if cur_min != delta:
            continue
        nb_mask, code_mask = space.masks(code)
        got = _kernels.first_mover(
            space.stab0, nb_mask, code_mask, space.minus, space.plus, space.adj
        )
        assert (got >= 0) == (first_mover(full, nb_mask, code_mask) >= 0), code
        scanned += 1
    assert scanned > 0


def test_mover_prune_settles_without_the_table():
    # U(C) = {u not in Γ1(C) : S1(u) ⊆ Γ1(C)}, by definition on Vertex objects;
    # where U(C) ⊆ C the scan must answer -1 without reading the table
    from elusivecodes.codes import _code_at, neighbour_set
    from elusivecodes.hamming import sphere, vertex_index

    space = search._SearchSpace(4, 3, 3)
    settled = scans = 0
    for code, cur_min in search._canonical_codes(space):
        if cur_min != 3:
            continue
        scans += 1
        C = _code_at(code, 4, 3)
        nb = neighbour_set(C)
        U = {u for u in all_vertices(4, 3) if u not in nb and sphere(u, 1) <= nb}
        if not U <= C.word_set:
            continue
        settled += 1
        nb_mask, code_mask = space.masks(code)
        assert {vertex_index(w) for w in nb} == set(np.nonzero(nb_mask)[0].tolist())
        assert _kernels.first_mover(
            None, nb_mask, code_mask, space.minus, space.plus, space.adj
        ) == -1
    assert (settled, scans) == (19, 22)
