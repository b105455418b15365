import itertools
import random
import tracemalloc

import numpy as np
import pytest

import orderly_walk
from dense_kernels import first_mover, is_canonical
from elusivecodes import _kernels, search
from elusivecodes._kernels import min_distance_words, stabiliser_rows
from elusivecodes.autgroup import _digits, vertex_action_table
from elusivecodes.codes import _neighbour_indices
from elusivecodes.hamming import all_vertices, distance, space_size, vertex_from_index
from elusivecodes.lemmas import _full_table


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
    """canonical_children over a batch of codes, with every verdict checked
    against the dense kernel on the child itself and counted in ``verdicts``."""
    batch = _kernels.canonical_children

    def checked(space, codes, cand, starts):
        got = batch(space, codes, cand, starts)
        assert got.shape == cand.shape and len(starts) == len(codes) + 1
        for code, lo, hi in zip(codes, starts[:-1], starts[1:]):
            for v, ok in zip(cand[lo:hi], got[lo:hi]):
                assert ok == is_canonical(full, np.append(code, v)), (code, v)
                verdicts[bool(ok)] += 1
        return got

    return checked


@pytest.mark.parametrize(
    "m, q, delta, max_size",
    [
        (3, 3, 1, 5),
        (3, 3, 1, 6),
        (2, 4, 1, 5),
        (3, 3, 2, None),
        (3, 3, 3, None),
        (4, 3, 3, None),
        (4, 3, 2, 4),
        (3, 4, 3, None),
        (5, 2, 2, None),
        (6, 2, 3, None),
        (6, 2, 4, None),
    ],
)
def test_canonical_children_match_dense_oracle_at_every_node(m, q, delta, max_size, monkeypatch):
    # every child the batch accepts or rejects, and every child the walk
    # settles without the kernel, against the dense kernel over the full
    # table; the walk itself against one that tests each child alone
    space = search._SearchSpace(m, q, delta)
    _, full = _full_table(m, q)
    want = list(orderly_walk.canonical_codes(space, max_size))
    verdicts = {True: 0, False: 0}
    monkeypatch.setattr(_kernels, "canonical_children", _checked_children(full, verdicts))
    assert list(search._canonical_codes(space, max_size)) == want
    _check_walk_settled(space, full, want, max_size, verdicts)
    assert verdicts[True] == len(want) and verdicts[False] > 0


@pytest.mark.parametrize(
    "m, q, delta, max_size",
    [(3, 3, 1, 6), (3, 3, 2, None), (4, 3, 2, 5), (5, 2, 2, None), (6, 2, 3, None), (3, 4, 3, None)],
)
def test_walk_order_is_the_same_at_every_child_budget(m, q, delta, max_size, monkeypatch):
    # one node a call (budget 0), blocks that take part of a depth (2^16)
    # and a whole depth a call (2^62) yield the codes of the walk that tests
    # each child alone, in its order
    space = search._SearchSpace(m, q, delta)
    want = list(orderly_walk.canonical_codes(space, max_size))
    for cells in (0, 1 << 16, 1 << 62):
        monkeypatch.setattr(_kernels, "_CHILD_CELLS", cells)
        assert list(search._canonical_codes(space, max_size)) == want, cells


@pytest.mark.parametrize("m, q, delta, max_size, most", [(5, 2, 2, None, 16), (4, 3, 2, 5, 7)])
def test_walk_decides_a_depth_per_kernel_call(m, q, delta, max_size, most, monkeypatch):
    # the deep-walk triples decide each depth of each subtree {0, L(d)} in
    # one call (173 and 76 calls at one call per node)
    calls = []
    batch = _kernels.canonical_children

    def counted(space, codes, cand, starts):
        calls.append(len(codes))
        return batch(space, codes, cand, starts)

    monkeypatch.setattr(_kernels, "canonical_children", counted)
    list(search._canonical_codes(search._SearchSpace(m, q, delta), max_size))
    assert len(calls) <= most and max(calls) > 1


def _check_walk_settled(space, full, want, max_size, verdicts):
    """The dense verdict on each child with pairwise distance >= delta that
    the walk decides by the min-distance lemma alone: a child of {0} is
    canonical iff it is {0, L(d)}, L(d) = (q^d - 1)/(q - 1), and a child of
    a code of minimum distance d nearer than d to it is not."""
    q, entries = space.q, _digits(space.m, space.q)[1]
    nodes = [([0], None)] + [(code, d) for code, d in want if max_size is None or len(code) < max_size]
    for code, d in nodes:
        for v in range(code[-1] + 1, space.n):
            near = int(np.count_nonzero(entries[code] != entries[v], axis=1).min())
            if near < space.delta or (d is not None and near >= d):
                continue  # not a child, or one the kernel decides
            ok = is_canonical(full, np.array(code + [v]))
            assert ok == (d is None and v == (q**near - 1) // (q - 1)), (code, v)
            verdicts[ok] += 1


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
    # every batch of children, every code the block U(C) prune settles and
    # every mover scan of a real search, checked against the dense kernels
    # over the full table; the two stages together decide every code of
    # minimum distance delta up to the first hit, which only the scan finds
    _, full = _full_table(m, q)
    verdicts = {True: 0, False: 0}
    settled, scanned = [], []
    prune, coset_mover = _kernels.fixer_cosets, _kernels.first_mover

    def checked_prune(codes, adj):
        nb, off = prune(codes, adj)
        for code, row in zip(codes, off):
            if not row.any():
                assert first_mover(full, *_oracle_masks(code, m, q)) == -1, code
                settled.append(list(code))
        return nb, off

    def checked_mover(table, code, minus, adj, masks=None):
        got = coset_mover(table, code, minus, adj, masks)
        assert (got >= 0) == (first_mover(full, *_oracle_masks(code, m, q)) >= 0), code
        scanned.append(list(code))
        return got

    monkeypatch.setattr(_kernels, "canonical_children", _checked_children(full, verdicts))
    monkeypatch.setattr(_kernels, "fixer_cosets", checked_prune)
    monkeypatch.setattr(_kernels, "first_mover", checked_mover)
    cert = search.search_elusive(m, q, delta, **kwargs)
    space = search._SearchSpace(m, q, delta)
    reached = [code for code, d in search._canonical_codes(space, kwargs.get("max_size")) if d == delta]
    if cert.found_pair is not None:
        reached = reached[: reached.index(scanned[-1]) + 1]
    assert all(code in settled or code in scanned for code in reached)
    assert not any(code in settled for code in scanned)
    assert verdicts[True] > 0 and settled and len(scanned) >= (cert.outcome == "Found")


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
    keys, full = _full_table(m, q)
    scanned = 0
    for code, cur_min in search._canonical_codes(space, max_size):
        if cur_min != delta:
            continue
        nb_mask, code_mask = _oracle_masks(code, m, q)
        got = _kernels.first_mover(space.stab0, code, space.minus, space.adj)
        assert (got >= 0) == (first_mover(full, nb_mask, code_mask) >= 0), code
        rows = np.flatnonzero(stabiliser_rows(full, nb_mask))
        (cosets_nb,), (off,) = _kernels.fixer_cosets([code], space.adj)
        assert np.array_equal(cosets_nb, nb_mask) and (off | code_mask)[full[rows, 0]].all(), code
        assert np.array_equal(space.stabiliser(code).keys, keys[rows]), code
        scanned += 1
    assert scanned > 0


@pytest.mark.parametrize(
    "m, q, delta, max_size", [(3, 3, 2, None), (5, 2, 2, None), (6, 2, 3, None), (3, 3, 1, 4), (2, 4, 1, 5)]
)
@pytest.mark.parametrize("cells", [1, 100])
def test_row_sieve_matches_dense_oracle_block_by_block(m, q, delta, max_size, cells, monkeypatch):
    # a first block of one or a few columns takes the sieve through many
    # blocks: the same first mover row as one block, and the Found
    # stabiliser still the full-table rows fixing Γ1(C); at delta = 1 the
    # columns of S1(0) stay in the sieve where some S1(u) leaves Γ1(C)
    space = search._SearchSpace(m, q, delta)
    keys, full = _full_table(m, q)
    codes = [code for code, cur_min in search._canonical_codes(space, max_size) if cur_min == delta]
    want = [_kernels.first_mover(space.stab0, code, space.minus, space.adj) for code in codes]
    monkeypatch.setattr(_kernels, "_SIEVE_CELLS", cells)
    for code, row in zip(codes, want):
        nb_mask, code_mask = _oracle_masks(code, m, q)
        assert _kernels.first_mover(space.stab0, code, space.minus, space.adj) == row, code
        assert (row >= 0) == (first_mover(full, nb_mask, code_mask) >= 0), code
        rows = np.flatnonzero(stabiliser_rows(full, nb_mask))
        assert np.array_equal(space.stabiliser(code).keys, keys[rows]), code
    assert any(row >= 0 for row in want) and any(row < 0 for row in want)


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
        (nb_mask,), _ = _kernels.fixer_cosets([code], space.adj)
        assert {vertex_index(w) for w in nb} == set(np.flatnonzero(nb_mask).tolist())
        assert _kernels.first_mover(None, code, space.minus, space.adj) == -1
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
        got = _kernels._first_missing(np.array(imgs, dtype=np.int32).T, code[None], n)
        assert got.tolist() == want, k


@pytest.mark.parametrize("k", [63, 64, 70])
def test_canonical_children_of_a_code_past_one_bit_word(k):
    # {0, ..., k-1} is the least k-set, so canonical; its children in H(4,3)
    # against the dense kernel
    space = search._SearchSpace(4, 3, 1)
    _, full = _full_table(4, 3)
    code = np.arange(k, dtype=np.int32)
    cand = np.arange(k, space.n, dtype=np.int32)
    got = _kernels.canonical_children(space, code[None], cand, np.array([0, cand.size]))
    assert got.tolist() == [is_canonical(full, np.append(code, v)) for v in cand]


@pytest.mark.parametrize(
    "size, last",
    [pytest.param(12, 14, id="14"), pytest.param(12, 128, id="128"), pytest.param(15, 128, id="ties")],
)
def test_canonical_children_stay_in_their_chunk_budget(size, last):
    # {0, ..., size-1} is the least set of its size in H(7,2), so canonical.
    # Twelve words hold forty old pairs, gathered in two chunks with
    # candidates 12 and 13 and in twenty with every candidate.  With fifteen
    # words and every candidate, the survivors' tied pair cosets outnumber
    # their new ones four to one and take ten chunks, which only a rule
    # that counts them keeps in budget.  A chunk and its temporaries stay
    # within the bytes of the Stab(0) table the rule allows, checked on the
    # heap numpy allocates
    space = search._SearchSpace(7, 2, 1)
    code, cand = np.arange(size, dtype=np.int32), np.arange(size, last, dtype=np.int32)
    rows, n = space.stab0.shape
    tracemalloc.start()
    try:
        keep = _kernels.canonical_children(space, code[None], cand, np.array([0, cand.size]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.tolist() == [_kernels.is_canonical(space.stab0, np.append(code, v), space.minus) for v in cand]
    assert peak <= 4 * max(rows * n, 1 << 16)
