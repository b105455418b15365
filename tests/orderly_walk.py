"""The orderly walk one child at a time: the test oracle for
search._canonical_codes, which decides the children of a block of
same-size nodes in one _kernels.canonical_children call and keeps
depth-first order by the depth-order lemma.

Each child C + [v] with pairwise distance >= delta is kept iff
_kernels.is_canonical accepts it, with no min-distance lemma, no batch
lemma and no shared gather; distances are counted on the digits of
autgroup._digits, not read off the search space.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from elusivecodes import _kernels
from elusivecodes.autgroup import _digits


def canonical_codes(space, max_size: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Depth first from {0}: every canonical code of at least two words with
    its minimum distance, each code before its children, in the order of
    search._canonical_codes."""
    entries = _digits(space.m, space.q)[1]

    def dist(v: int, idx: np.ndarray) -> np.ndarray:
        return np.count_nonzero(entries[idx] != entries[v], axis=1)

    def children(code: list[int], arr: np.ndarray, cand: np.ndarray, cur_min: int):
        if max_size is not None and len(code) >= max_size:
            return
        for pos in range(cand.size):
            v = int(cand[pos])
            child = code + [v]
            child_arr = np.array(child, dtype=np.int32)
            if not _kernels.is_canonical(space.stab0, child_arr, space.minus):
                continue
            child_min = min(cur_min, int(dist(v, arr).min()))
            yield child, child_min
            rest = cand[pos + 1 :]
            yield from children(child, child_arr, rest[dist(v, rest) >= space.delta], child_min)

    first = np.flatnonzero(dist(0, np.arange(space.n)) >= space.delta).astype(np.int32)
    yield from children([0], np.zeros(1, dtype=np.int32), first, space.m)
