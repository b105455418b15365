"""Dense kernels: the test oracles for the search's coset kernels and for
the set search down a stabiliser chain, ``autgroup._transporters``.

Each scans every row of an action table, following the definition with
no pruning.  The search itself never builds the full table; it works on
the cosets of Stab(0) through ``_kernels``.  The chain search prunes
partial products by their base-point incidences; ``carriers`` images the
whole set under every listed key, sorts each image and compares it with
the target.
"""

from __future__ import annotations

import numpy as np

from elusivecodes._kernels import stabiliser_rows
from elusivecodes.autgroup import _key_table


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


def first_mover(table: np.ndarray, nb_mask: np.ndarray, code_mask: np.ndarray) -> int:
    """First row fixing nb_mask setwise while moving code_mask, else -1."""
    fix_nb = stabiliser_rows(table, nb_mask)
    move_code = (code_mask[table] != code_mask[None, :]).any(axis=1)
    hits = np.nonzero(fix_nb & move_code)[0]
    return int(hits[0]) if hits.size else -1


def carriers(keys: np.ndarray, m: int, q: int, idx: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Increasing row numbers of the keys whose sorted image of the sorted
    indices ``idx`` is ``target``."""
    return np.flatnonzero((np.sort(_key_table(keys, m, q, idx), axis=1) == target).all(axis=1))
