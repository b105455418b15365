import itertools
import random

import numpy as np
import pytest

from elusivecodes._kernels import (
    first_mover,
    is_canonical,
    min_distance_words,
    stabiliser_rows,
)
from elusivecodes.autgroup import vertex_action_table
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
