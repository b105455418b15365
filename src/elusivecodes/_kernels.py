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
    "canonical_children",
    "fixer_cosets",
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
    """
    imgs = table.T.take(minus[code[None, :], code[:, None]], axis=0)  # imgs[j, i, h] = h(code[j] - code[i])
    return not _smaller_image(imgs, code[:-1], code[-1], table.shape[1]).any()


def _smaller_image(imgs: np.ndarray, code: np.ndarray, top: np.ndarray | int, n: int) -> np.ndarray:
    r"""Where the image imgs[:, r] of len(code) + 1 distinct vertices of
    0..n-1, read as a set, is lexicographically smaller than the sorted set
    D = code + [top], with ``top`` above max(code) and broadcast over r.

    No image is sorted.  For sets I != D of one size, I < D iff the least
    element a of I \ D lies below every element of D \ I, that is iff every
    element of D below a is in I.  The images below a all lie in D, so
    that holds iff they are as many as the elements of D below a.
    """
    not_in_d = np.arange(n, dtype=np.int32)
    not_in_d[code] = n
    out = not_in_d.take(imgs)
    out[imgs == top] = n
    least_out = out.min(axis=0)  # a for each image; n where the image is D
    images_below = (imgs < least_out).sum(axis=0)
    return (images_below == np.searchsorted(code, least_out) + (top < least_out)) & (least_out < n)


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _first_missing(imgs: np.ndarray, code: np.ndarray, n: int) -> np.ndarray:
    """For each image imgs[:, r] of len(code) distinct vertices, the index in
    ``code`` of the least codeword it misses, len(code) where it is ``code``.

    Codeword code[p] stands for bit p of a 63-bit word.  The vertices of an
    image are distinct, so the sum of their bits is the set of codewords
    the image holds, and the least codeword missing is its count of
    trailing ones, read off the lowest zero bit.
    """
    k = code.size
    first = 0
    for lo in range(0, k, 63):
        bit = np.zeros(n, dtype=np.uint64)
        bit[code[lo : lo + 63]] = _BITS[: min(63, k - lo)]
        held = bit.take(imgs).sum(axis=0)
        ones = np.searchsorted(_BITS, ~held & (held + np.uint64(1)))
        first = np.where(first == lo, lo + ones, first)  # only where every earlier word is full
    return first


def canonical_children(
    table: np.ndarray, code: np.ndarray, cand: np.ndarray, minus: np.ndarray
) -> np.ndarray:
    r"""Boolean array over ``cand``: entry i is is_canonical(code + [cand[i]]).

    ``code`` must be canonical, sorted with ``code[0] == 0``, and every
    candidate must lie above max(code); ``table`` and ``minus`` are as for
    is_canonical.

    By coset canonicity the child D = C + [v] needs the |C| old cosets
    {h t_c : c in C} and its new coset {h t_v}.  One gather over the old
    cosets serves every candidate at once (the batch lemma); each
    survivor is then rescanned only on its new coset and its tied rows.
    A lone candidate has nothing to share and goes to is_canonical.

    Batch lemma: let g lie in an old coset and let b = min(C \ g(C)).
      - If g(C) = C, then g(D) = C + [g(v)] with g(v) not in C, which is
        below D iff g(v) < v.
      - Otherwise C is canonical, so g(C) > C and the least element of
        the symmetric difference of g(C) and C is b, in C; below b the
        two sets agree, and v > max C >= b.  If g(v) < b, then g(v) is
        not in g(C), so it is no codeword below b, and it is the least
        element of the symmetric difference of g(D) and D, lying in g(D):
        g(D) < D.  If g(v) > b, that least element is b, lying in D:
        g(D) > D.  Only a tied row, g(v) = b, leaves the order open.
    So v is rejected when some old-coset row g has g(v) < b, or g(v) < v
    where g(C) = C, and a survivor is canonical iff neither its tied rows
    nor the rows h t_v of its new coset map D below D (_smaller_image).

    The table is read vertex-major.  The old cosets are gathered a few at
    a time, at most max(|Stab(0)| q^m, 2^20) table cells per chunk, and
    the survivors in chunks of about the same memory.
    """
    rows, n = table.shape
    k = code.size
    keep = np.ones(cand.size, dtype=bool)
    if cand.size == 1:
        keep[0] = is_canonical(table, np.append(code, cand), minus)
    if cand.size < 2:
        return keep
    by_vertex = table.T  # contiguous: the tables are built vertex-major
    cols = np.concatenate([code, cand])
    code_n = np.append(code, n)
    cap = max(rows * n, 1 << 20)
    bs = []
    step = max(1, cap // (rows * cols.size))
    for lo in range(0, k, step):
        # imgs[j, i, h] = h(cols[j] - code[lo + i]), row h of the coset of code[lo + i]
        imgs = by_vertex.take(minus[code[None, lo : lo + step], cols[:, None]], axis=0)
        b = code_n[_first_missing(imgs[:k], code, n)]  # n where g(C) = C
        moved = imgs[k:]  # g(v) for each candidate v
        fixed = b == n
        below_b = (moved < np.where(fixed, 0, b)).any(axis=(1, 2))
        keep[below_b | (moved[:, fixed] < cand[:, None]).any(axis=1)] = False
        bs.append(b)
    b = np.concatenate(bs)  # b[c, h] for the row h t_code[c]
    survivors = np.flatnonzero(keep)
    # a survivor gathers 2|C| + 1 cells per row, and its test makes about
    # four times as many in temporaries
    step = max(1, cap // (4 * rows * (2 * k + 1)))
    for lo in range(0, survivors.size, step):
        s = survivors[lo : lo + step]
        v = cand[s]
        c, t, h = np.nonzero(by_vertex.take(minus[code[:, None], v], axis=0) == b[:, None])  # the tied rows of each v
        # the images of C under the rows of the new cosets, then of the tied rows
        new = by_vertex.take(minus[v, code[:, None]], axis=0).reshape(k, -1)
        imgs = np.concatenate([new, by_vertex[minus[code[c], code[:, None]], h]], axis=1)
        moved = np.zeros(imgs.shape[1], dtype=imgs.dtype)  # h t_v maps v to 0
        moved[s.size * rows :] = b[c, h]
        owner = np.concatenate([np.repeat(np.arange(s.size), rows), t])
        keep[s[owner[_smaller_image(np.vstack([imgs, moved]), code, v[owner], n)]]] = False
    return keep


def stabiliser_rows(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean row selector: which group elements fix {v : mask[v]} setwise."""
    return (mask[table] == mask[None, :]).all(axis=1)


def fixer_cosets(code, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    r"""(nb_mask, us, spread): nb_mask marks Γ1(C), and each automorphism
    fixing Γ1(C) setwise is s_u h, h in Stab(0) then v -> v + u, with u in
    ``us``: first ``spread`` vertices outside C, increasing, then the
    codewords.  ``code`` is C as vertex indices, with 0 in C, and ``adj``
    holds the neighbour rows.

    Lemma: a fixer x maps C into W, the set ``us`` lists: the complement of
    Γ1(C) or, at minimum distance >= 2, U(C) = {u not in Γ1(C) : S1(u) ⊆
    Γ1(C)}.  As a bijection, x fixes the complement of Γ1(C), which holds
    C; at minimum distance >= 2, S1(c) ⊆ Γ1(C) for each codeword c, so
    S1(x(c)) = x(S1(c)) ⊆ Γ1(C) (the U(C) prune), while at minimum distance
    1 S1(c) may meet C.  So u = x(0) is in W, and s_u^-1 x fixes 0.
    """
    code = np.asarray(code)
    code_mask = np.zeros(adj.shape[0], dtype=bool)
    code_mask[code] = True
    nb_mask = np.zeros_like(code_mask)
    nb_mask[adj[code]] = True
    nb_mask[code] = False
    off = ~nb_mask & ~code_mask
    if not code_mask[adj[code]].any():  # minimum distance >= 2: the U(C) prune
        off &= nb_mask[adj].all(axis=1)
    off = np.flatnonzero(off)
    return nb_mask, np.concatenate([off, code]).astype(np.int32), off.size


def first_mover(table: np.ndarray, code, plus: np.ndarray, adj: np.ndarray) -> int:
    r"""-1 iff no element of Aut(H(m,q)) fixes Γ1(C) setwise while moving
    C, else the row h of the first such s_u h in the order of fixer_cosets'
    ``us``.  ``table`` is the action table of Stab(0), ``plus[u]`` the row
    of v -> v + u, and ``code`` and ``adj`` are as for fixer_cosets.

    When W = C (spread == 0), every fixer maps C onto C and the table is not
    read.  A fixer s_u h with u outside C moves C, sending 0 off C; one with
    u in C moves C iff it sends a codeword off C.  A bijection fixes Γ1(C)
    iff it maps Γ1(C) into Γ1(C), so only the columns of Γ1(C) and C are read.
    """
    nb_mask, us, spread = fixer_cosets(code, adj)
    if not spread:
        return -1
    imgs = table.T.take(np.flatnonzero(nb_mask), axis=0)  # h(n) for n in Γ1(C)
    on_code = table.T.take(us[spread:], axis=0)  # h(c) for c in C
    code_mask = np.zeros_like(nb_mask)
    code_mask[us[spread:]] = True
    for i, u in enumerate(us.tolist()):
        hits = nb_mask[plus[u]].take(imgs).all(axis=0)
        if i >= spread:
            hits &= ~code_mask[plus[u]].take(on_code).all(axis=0)
        hits = np.flatnonzero(hits)
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
