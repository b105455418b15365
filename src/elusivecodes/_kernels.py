"""Hot kernels of the search, vectorised with numpy.

All kernels work on the vertex-index representation: a vertex of H(m,q)
is its base-q rank, an automorphism is a row of a (|G|, q^m) action
table, and a code is a sorted int32 array of ranks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "is_canonical",
    "first_mover",
    "stabiliser_rows",
    "min_distance_words",
]

BACKEND = "numpy"


def is_canonical(table: np.ndarray, code: np.ndarray) -> bool:
    """True iff no group element maps ``code`` to a lexicographically smaller sorted image."""
    imgs = np.sort(table[:, code], axis=1)
    diff = imgs != code[None, :]
    has_diff = diff.any(axis=1)
    if not has_diff.any():
        return True
    first = diff.argmax(axis=1)
    rows = np.nonzero(has_diff)[0]
    vals = imgs[rows, first[rows]]
    return bool((vals > code[first[rows]]).all())


def stabiliser_rows(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean row selector: which group elements fix {v : mask[v]} setwise."""
    return (mask[table] == mask[None, :]).all(axis=1)


def first_mover(table: np.ndarray, nb_mask: np.ndarray, code_mask: np.ndarray) -> int:
    """First row fixing nb_mask setwise while moving code_mask, else -1."""
    fix_nb = stabiliser_rows(table, nb_mask)
    move_code = (code_mask[table] != code_mask[None, :]).any(axis=1)
    hits = np.nonzero(fix_nb & move_code)[0]
    return int(hits[0]) if hits.size else -1


def min_distance_words(words: np.ndarray) -> int:
    """Minimum pairwise Hamming distance of the rows of ``words``."""
    n, m = words.shape
    best = m
    for i in range(n - 1):
        d = int((words[i + 1 :] != words[i]).sum(axis=1).min())
        if d < best:
            best = d
            if best == 1:
                return 1
    return best
