import itertools
import random

import numpy as np
import pytest

import orderly_walk
from dense_kernels import first_mover, is_canonical
from elusivecodes import _kernels, search
from elusivecodes._kernels import min_distance_words, stabiliser_rows
from elusivecodes.autgroup import _row_keys, full_action_table, vertex_action_table
from elusivecodes.codes import _neighbour_indices
from elusivecodes.hamming import all_vertices, distance, space_size, vertex_from_index
from elusivecodes.perms import symmetric_group


@pytest.fixture(scope="module")
def table33(full33):
    return vertex_action_table(full33.elements, 3, 3)


def _mask(indices, n=27):
    mask = np.zeros(n, dtype=bool)
    mask[list(indices)] = True
    return mask


def _oracle_masks(code, m, q):
    # Γ1(C) and C for the dense oracle, built apart from the search's kernels
    n = space_size(m, q)
    return _mask(_neighbour_indices(np.asarray(code), m, q), n), _mask(code, n)


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


def _checked_children(full, verdicts):
    """canonical_children, with every verdict checked against the dense
    kernel on the child itself and counted in ``verdicts``."""
    batch = _kernels.canonical_children

    def checked(table, code, cand, minus):
        got = batch(table, code, cand, minus)
        assert got.shape == cand.shape
        for v, ok in zip(cand, got):
            assert ok == is_canonical(full, np.append(code, v)), (code, v)
            verdicts[bool(ok)] += 1
        return got

    return checked


@pytest.mark.parametrize(
    "m, q, delta, max_size",
    [
        (3, 3, 1, 5),
        (2, 4, 1, 5),
        (3, 3, 2, None),
        (3, 3, 3, None),
        (4, 3, 3, None),
        (4, 3, 2, 4),
        (3, 4, 3, None),
        (5, 2, 2, None),
    ],
)
def test_canonical_children_match_dense_oracle_at_every_node(m, q, delta, max_size, monkeypatch):
    # every child the batch accepts or rejects, against the dense kernel over
    # the full table; the walk itself against one that tests each child alone
    space = search._SearchSpace(m, q, delta)
    want = list(orderly_walk.canonical_codes(space, max_size))
    verdicts = {True: 0, False: 0}
    monkeypatch.setattr(_kernels, "canonical_children", _checked_children(full_action_table(m, q), verdicts))
    assert list(search._canonical_codes(space, max_size)) == want
    assert verdicts[True] == len(want) and verdicts[False] > 0


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
    # every batch of children and every mover scan of a real search, checked
    # against the dense kernels over the full table
    full = full_action_table(m, q)
    verdicts = {True: 0, False: 0}
    calls = {"mover": 0}
    coset_mover = _kernels.first_mover

    def checked_mover(table, code, plus, adj):
        got = coset_mover(table, code, plus, adj)
        assert (got >= 0) == (first_mover(full, *_oracle_masks(code, m, q)) >= 0), code
        calls["mover"] += 1
        return got

    monkeypatch.setattr(_kernels, "canonical_children", _checked_children(full, verdicts))
    monkeypatch.setattr(_kernels, "first_mover", checked_mover)
    search.search_elusive(m, q, delta, **kwargs)
    assert verdicts[True] > 0 and calls["mover"] > 0


@pytest.mark.parametrize(
    "m, q, delta, max_size",
    [
        (2, 3, 1, None),
        (3, 2, 1, 6),
        (3, 3, 1, 4),
        (2, 4, 1, 5),
        (3, 3, 2, None),
        (4, 3, 3, None),
        (5, 2, 2, None),
        (6, 2, 3, None),
    ],
)
def test_first_mover_matches_dense_oracle_at_every_scannable_code(m, q, delta, max_size):
    # every canonical code with minimum distance exactly delta, also past the
    # first hit, where a search stops scanning: the mover verdict, every
    # full-table row fixing Γ1(C) sending 0 into a coset fixer_cosets lists,
    # and the Found stabiliser equal to those rows; at delta = 1 the U(C)
    # prune does not hold and must not be applied
    space = search._SearchSpace(m, q, delta)
    full = full_action_table(m, q)
    scanned = 0
    for code, cur_min in search._canonical_codes(space, max_size):
        if cur_min != delta:
            continue
        nb_mask, code_mask = _oracle_masks(code, m, q)
        got = _kernels.first_mover(space.stab0, code, space.plus, space.adj)
        assert (got >= 0) == (first_mover(full, nb_mask, code_mask) >= 0), code
        rows = np.flatnonzero(stabiliser_rows(full, nb_mask))
        cosets_nb, us, _ = _kernels.fixer_cosets(code, space.adj)
        assert np.array_equal(cosets_nb, nb_mask) and np.isin(full[rows, 0], us).all(), code
        assert np.array_equal(space.stabiliser(code).keys, _row_keys(rows, m, symmetric_group(q))), code
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
        nb_mask, _, _ = _kernels.fixer_cosets(code, space.adj)
        assert {vertex_index(w) for w in nb} == set(np.flatnonzero(nb_mask).tolist())
        assert _kernels.first_mover(None, code, space.plus, space.adj) == -1
    assert (settled, scans) == (19, 22)


def test_first_missing_across_bit_words():
    # codes of up to 130 words span three 63-bit words; images hold a prefix
    # of the code, so the least missing codeword lands in every word
    rng = np.random.default_rng(7)
    n = 300
    for k in (1, 5, 62, 63, 64, 126, 127, 130):
        code = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int32)
        others = np.setdiff1d(np.arange(n), code)
        imgs, want = [], []
        for held in sorted({0, 1, k // 2, k - 1, k, *rng.integers(0, k + 1, size=6).tolist()}):
            img = np.concatenate([code[:held], rng.choice(others, size=k - held, replace=False)])
            imgs.append(rng.permutation(img))
            want.append(held)
        got = _kernels._first_missing(np.array(imgs, dtype=np.int32).T, code, n)
        assert got.tolist() == want, k


@pytest.mark.parametrize("k", [63, 64, 70])
def test_canonical_children_of_a_code_past_one_bit_word(k):
    # {0, ..., k-1} is the least k-set, so canonical; its children in H(4,3)
    # against the dense kernel
    space = search._SearchSpace(4, 3, 1)
    full = full_action_table(4, 3)
    code = np.arange(k, dtype=np.int32)
    cand = np.arange(k, space.n, dtype=np.int32)
    got = _kernels.canonical_children(space.stab0, code, cand, space.minus)
    assert got.tolist() == [is_canonical(full, np.append(code, v)) for v in cand]
