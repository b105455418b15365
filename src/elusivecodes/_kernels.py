"""Hot kernels of the search, vectorised with numpy.

All kernels work on the vertex-index representation: a vertex of H(m,q)
is its base-q rank, an automorphism is a row of a (|G|, q^m) action
table, and a code is a sorted int32 array of ranks.  The search's
kernels take the table of Stab(0), the stabiliser of vertex 0, and reach
the rest of Aut(H(m,q)) through its cosets: every element is s_u h t_c
for a translation t_c: v -> v - c, an h in Stab(0), and the translation
s_u: v -> v + u.
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


def is_canonical(table: np.ndarray, code: np.ndarray, minus: np.ndarray) -> bool:
    r"""True iff no element of Aut(H(m,q)) maps ``code`` to a lexicographically
    smaller sorted image.

    ``table`` is the action table of Stab(0), ``minus[c]`` the row of the
    translation t_c: v -> v - c (digit by digit mod q), and ``code`` is
    sorted with ``code[0] == 0``.

    Coset canonicity: if g maps C to a sorted image D < C, then
    D[0] <= C[0] = 0, so 0 is in D and g(c) = 0 for some codeword c.  Then
    h = g t_c^-1 fixes 0, so g = h t_c lies in the coset Stab(0) t_c.  Only
    the |C| cosets {h t_c : h in Stab(0)} need scanning: row h of coset c
    images C as table[h, minus[c, C]].

    No image is sorted.  For sets D != C of one size, D < C iff the least
    element a of D \ C lies below every element of C \ D, that is iff every
    codeword below a is in D.  The images below a are all codewords, so
    that holds iff they are as many as the codewords below a.
    """
    n = table.shape[1]
    imgs = table[:, minus[code][:, code]]  # imgs[h, i, j] = h(code[j] - code[i])
    not_code = np.arange(n, dtype=np.int32)
    not_code[code] = n
    least_out = not_code[imgs].min(axis=2)  # a for each image; n where the image is C
    codewords_below = np.searchsorted(code, np.arange(n + 1))
    images_below = (imgs < least_out[..., None]).sum(axis=2)
    smaller = (images_below == codewords_below[least_out]) & (least_out < n)
    return not smaller.any()


def stabiliser_rows(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean row selector: which group elements fix {v : mask[v]} setwise."""
    return (mask[table] == mask[None, :]).all(axis=1)


def first_mover(
    table: np.ndarray,
    nb_mask: np.ndarray,
    code_mask: np.ndarray,
    minus: np.ndarray,
    plus: np.ndarray,
    adj: np.ndarray,
) -> int:
    r"""-1 iff no element of Aut(H(m,q)) fixes nb_mask setwise while moving
    code_mask; otherwise the row h of the first such element s_u h t_c,
    scanning the cosets (c, u) in increasing order.

    ``table`` is the action table of Stab(0), ``minus[c]`` and ``plus[u]``
    the rows of v -> v - c and v -> v + u, ``adj`` the neighbour rows, and
    nb_mask is Γ1(C), the vertices at distance 1 from the code C.

    U(C) prune: let U(C) = {u not in Γ1(C) : S1(u) ⊆ Γ1(C)} and let C have
    minimum distance >= 2.  Take x fixing Γ1(C) setwise and c in C.  Then
    c is not in Γ1(C), so neither is x(c); and S1(c) ⊆ Γ1(C), so
    S1(x(c)) = x(S1(c)) ⊆ Γ1(C).  So x maps C into U(C), and if x also
    moves C it sends some codeword into U(C) \ C.  Hence U(C) ⊆ C means
    no mover exists.  Otherwise every mover lies in a coset
    {x : x(c) = u} = {s_u h t_c : h in Stab(0)} with c in C and u in
    U(C) \ C; every element there moves C, and being a bijection it fixes
    Γ1(C) setwise iff it maps Γ1(C) into Γ1(C).  At minimum distance 1,
    S1(c) may meet C, so u runs over every vertex outside C and Γ1(C).
    """
    code = np.nonzero(code_mask)[0]
    nb = np.nonzero(nb_mask)[0]
    targets = (nb_mask == 0) & (code_mask == 0)
    if not code_mask[adj[code]].any():  # minimum distance >= 2: the U(C) prune
        targets &= nb_mask[adj].all(axis=1)
    targets = np.nonzero(targets)[0]
    if not targets.size:
        return -1
    for c in code:
        imgs = table[:, minus[c, nb]]  # h(n - c) for n in Γ1(C)
        for u in targets:
            hits = np.nonzero(nb_mask[plus[u]][imgs].all(axis=1))[0]
            if hits.size:
                return int(hits[0])
    return -1


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
