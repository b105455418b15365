"""Hot kernels of the search, vectorised with numpy.

All kernels work on the vertex-index representation: a vertex of H(m,q)
is its base-q rank, an automorphism is a row of a (|G|, q^m) action
table, and a code is a sorted int32 array of ranks.  The search's
kernels take the table of Stab(0), the stabiliser of vertex 0, and reach
the rest of Aut(H(m,q)) through its cosets: every element is s_u h t_c
for a translation t_c: v -> v - c, an h in Stab(0), and the translation
s_u: v -> v + u.  One array serves both translations: ``minus[c, x] = x -
c`` digit by digit mod q, so t_c is the row ``minus[c]`` and s_u the row
``minus[minus[u, 0]]``.  canonical_children reads it, and the tables of
the pair cosets, off the search's _SearchSpace.
"""

from __future__ import annotations

from itertools import chain

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
    trailing ones, read off the lowest zero bit.  The bits are summed a
    block of rows of ``imgs`` at a time, a block holding one row or at most
    2^13 cells, so the temporaries (the sum, and one block's intp indices
    and bits) take at most 24 bytes per image or 192 KiB, whatever
    len(code) is.
    """
    k = code.size
    block = max(1, (1 << 13) // max(1, imgs[0].size))
    first = 0
    for lo in range(0, k, 63):
        bit = np.zeros(n, dtype=np.uint64)
        bit[code[lo : lo + 63]] = _BITS[: min(63, k - lo)]
        held = bit.take(imgs[:block]).sum(axis=0)
        for r in range(block, k, block):
            held += bit.take(imgs[r : r + block]).sum(axis=0)
        ones = np.frexp(~held & (held + np.uint64(1)))[1] - 1  # 2^ones, the lowest zero bit, is exact as a double
        first = ones if lo == 0 else np.where(first == lo, lo + ones, first)  # only where every earlier word is full
    return first


def canonical_children(space, code: np.ndarray, cand: np.ndarray) -> np.ndarray:
    r"""Boolean array over ``cand``: entry i is is_canonical(code + [cand[i]]).

    ``space`` is the search's _SearchSpace: the table of Stab(0), read
    vertex-major, the translations ``minus``, the distances ``dist``, the
    representatives ``rep`` and the tables ``pair_table(d)``.
    ``code`` must be canonical, sorted with ``code[0] == 0`` and at least
    two words, and every candidate must lie above max(code) at distance at
    least d = d(code) from every codeword.

    Write L(w) = (q^w - 1)/(q - 1), the least vertex of weight w; Stab(0)
    is transitive on the vertices of each weight.

    Min-distance lemma: a canonical C with |C| >= 2 has C[1] = L(d(C)).
    Take c, x in C at distance d; some g = h t_c sends c to 0 and x to
    L(d), so C[1] <= g(C)[1] <= L(d), as C <= g(C), and C[1], of weight at
    least d, is at least L(d).  So
    a child nearer than d to C, whose minimum distance d' < d would need
    its second word at L(d') < L(d), is not canonical: the walk drops it
    before the kernel sees it.

    Pair lemma: let g = h t_c send the codeword c of the child D = C + [v]
    to 0.  Every other point of D lies at distance at least d from c, so
    its image has weight at least d and the second element of g(D) is at
    least L(d) = D[1]; it equals L(d) only if g sends some x in D with
    d(c, x) = d to L(d), and otherwise g(D) > D.  With y = x - c =
    ``minus[c, x]`` and h_y = ``rep[y]`` a row of Stab(0) sending y to
    L(d), the rows sending c to 0 and x to L(d) form the pair coset
    {k h_y t_c : k in K_d}, K_d = Stab(0) ∩ Stab(L(d)),
    |Stab(0)| / (C(m, d) (q-1)^d) rows, whose vertex-major table is
    ``pair_table(d)``.  By coset canonicity
    (see is_canonical), D is canonical iff no row of a pair coset maps it
    below itself.  The old pairs (c, x) inside C are shared by every
    candidate; the new pairs of v are (c, v) and (v, c) for each codeword
    c at distance d from v, whose rows send v to L(d) and to 0.

    Batch lemma: let g be a row of an old pair coset, so g(C) >= C, and
    let b = min(C \ g(C)).
      - If g(C) = C, then g(D) = C + [g(v)] with g(v) not in C, which is
        below D iff g(v) < v.
      - Otherwise C is canonical, so g(C) > C and the least element of
        the symmetric difference of g(C) and C is b, in C; below b the
        two sets agree, and v > max C >= b.  If g(v) < b, then g(v) is
        not in g(C), so it is no codeword below b, and it is the least
        element of the symmetric difference of g(D) and D, lying in g(D):
        g(D) < D.  If g(v) > b, that least element is b, lying in D:
        g(D) > D.  Only a tied row, g(v) = b, leaves the order open.
    So one gather over the old pair cosets rejects v when some row g has
    g(v) < b, or g(v) < v where g(C) = C.  A survivor is canonical iff no
    row of its new pair cosets, and no row of an old pair coset with a row
    that ties it, maps D below D (_smaller_image); the other old rows map
    D above D.

    The old pair cosets are gathered a few at a time, and the survivors'
    pair cosets too, after counting them, in chunks that with their
    temporaries take at most 4 max(|Stab(0)| q^m, 2^20) bytes, the bytes
    of the Stab(0) table or 4 MiB, less the bytes of the K_d table, unless
    a single pair coset takes more.
    """
    by_vertex = space.stab0.T  # contiguous: the tables are built vertex-major
    minus, dist, rep = space.minus, space.dist, space.rep
    n, k = minus.shape[0], code.size
    d = dist[0, code[1]]
    table = space.pair_table(int(d))
    rows = table.shape[1]
    keep = np.ones(cand.size, dtype=bool)
    if not cand.size:
        return keep
    cap = 4 * max(space.stab0.size, 1 << 20) - table.nbytes
    cols = np.concatenate([code, cand])
    code_0 = np.concatenate([code, code[:1]])  # code[0] = 0 appended, int32 as code
    near = dist.take(cols, axis=0).take(code, axis=1) == d  # cols[j] at distance d from code[i]
    # the old pairs: their rows send code[zero] to 0 and code[ld] to L(d)
    zero, ld = near[:k].nonzero()
    zero, ld = code[zero], code[ld]
    h_y = rep.take(minus[zero, ld])
    ties = []
    # per row of a pair coset: 4 bytes a column gathered, 5 more a candidate
    # for its compares with b and the copy of a live one's images, and about
    # 48 for b and _first_missing's bit words
    step = max(1, cap // (rows * (4 * cols.size + 5 * cand.size + 48)))
    for lo in range(0, zero.size, step):
        # imgs[j, p, i] = k_i h_p(cols[j] - zero[p]), row i of the coset of old pair p
        imgs = table.take(by_vertex[minus[zero[None, lo : lo + step], cols[:, None]], h_y[lo : lo + step]], axis=0)
        first = _first_missing(imgs[:k], code, n)
        b, fixed = code_0[first], first == k  # b is 0 where g(C) = C
        moved = imgs[k:]  # g(v) for each candidate v, never 0
        keep[(moved < b).any(axis=(1, 2)) | (moved.min(axis=(1, 2), where=fixed, initial=n) < cand)] = False
        live = keep.nonzero()[0]
        t, p = (moved[live] == b).any(axis=2).nonzero()  # candidate live[t] has a tied row in old pair p
        ties.append((live[t], p + lo))
        del imgs, moved  # freed before the next chunk is gathered
    survivors = live
    if not survivors.size:
        return keep
    t, p = map(np.concatenate, zip(*ties))
    s, c = near[k + survivors].nonzero()
    s = survivors[s]
    w, x = cand[s], code[c]
    # the pair cosets each survivor is tested on: (x, w) and (w, x) for its
    # new pairs, and the old pairs that tie it
    zero = np.concatenate([x, w, zero[p]])
    ld = np.concatenate([w, x, ld[p]])
    owner = np.concatenate([s, s, t])
    # per row: 18 (|C| + 1) bytes in imgs and _smaller_image's temporaries,
    # and about 32 for its least image outside D and its count
    step = max(1, cap // (rows * (18 * k + 50)))
    for lo in range(0, zero.size, step):
        z, v = zero[lo : lo + step], cand[owner[lo : lo + step]]
        at = np.empty((k + 1, z.size), dtype=np.int32)  # the points of each D
        at[:k] = code[:, None]
        at[k] = v
        imgs = table.take(by_vertex[minus[z, at], rep.take(minus[z, ld[lo : lo + step]])], axis=0)
        keep[owner[lo : lo + step][_smaller_image(imgs, code, v[:, None], n).any(axis=1)]] = False
    return keep


def stabiliser_rows(table: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Boolean row selector: which group elements fix {v : mask[v]} setwise."""
    return (mask[table] == mask[None, :]).all(axis=1)


# cells of the row sieve's first block: all 81 vertices of H(4,3) under
# the 384 rows of its Stab(0), so tables that small take one gather per
# coset, and 8 columns under the 3,840 rows of Stab(0) in Aut(H(5,3))
_SIEVE_CELLS = 1 << 15

# cells of one (q^m, codes) mask of the U(C) prune over a block of codes:
# 404 codes of H(4,3), 134 of H(5,3), 128 of H(8,2)
_PRUNE_CELLS = 1 << 15


def fixer_cosets(codes, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r"""(nb, off), each (len(codes), q^m) boolean: for C = codes[b], nb[b]
    marks Γ1(C), and each automorphism fixing Γ1(C) setwise is s_u h, h in
    Stab(0) then v -> v + u, with u in W, the vertices marked in off[b]
    followed by the codewords.  Each code is a sequence of vertex indices
    holding 0, the codes may differ in size, and ``adj`` holds the
    neighbour rows.  W, in that order (off increasing, then the
    codewords), is the list ``us`` of the cosets that _fixer_rows scans.

    Lemma: a fixer x maps C into the complement of Γ1(C) or, at minimum
    distance >= 2, into U(C) = {u not in Γ1(C) : S1(u) ⊆ Γ1(C)}.  As a
    bijection, x fixes the complement of Γ1(C), which holds C; at minimum
    distance >= 2, S1(c) ⊆ Γ1(C) for each codeword c, so S1(x(c)) =
    x(S1(c)) ⊆ Γ1(C) (the U(C) prune), while at minimum distance 1 S1(c)
    may meet C.  So u = x(0) is in W, and s_u^-1 x fixes 0.

    Block prune: row b of nb and of off is computed from codes[b] alone,
    so a block of codes answers exactly as each code would alone; the
    search asks for a block of about _PRUNE_CELLS // q^m codes at once.  A
    code whose row of off is empty is settled there: its fixers all send
    0 into C (first_mover answers -1 for it unread), so only the codes
    with a marked vertex need a scan.
    """
    n, count, sizes = adj.shape[0], len(codes), [len(code) for code in codes]
    words = np.fromiter(chain.from_iterable(codes), dtype=np.intp, count=sum(sizes))
    owner = np.repeat(np.arange(count), sizes)
    # vertex-major (q^m, len(codes)) masks, so a gather of neighbours copies whole rows
    code_mask = np.zeros((n, count), dtype=bool)
    code_mask.reshape(-1)[words * count + owner] = True
    near = adj.take(words, axis=0).astype(np.intp) * count + owner[:, None]
    nb = np.zeros_like(code_mask)
    nb.reshape(-1)[near] = True
    nb &= ~code_mask
    close = np.zeros(count, dtype=bool)  # minimum distance 1: no U(C) prune
    close[owner[code_mask.reshape(-1).take(near).any(axis=1)]] = True
    inside = nb.take(adj[:, 0], axis=0)  # inside[v, b]: S1(v) ⊆ Γ1(codes[b])
    for column in adj.T[1:]:
        inside &= nb.take(column, axis=0)
    off = ~(nb | code_mask)
    off &= inside | close
    return nb.T, off.T


def _fixer_rows(
    table: np.ndarray, code: np.ndarray, nb: np.ndarray, off: np.ndarray, minus: np.ndarray, adj: np.ndarray
):
    r"""Yield (u, rows) for each u of fixer_cosets' ``us`` in turn, the
    vertices of ``off`` then ``code``, where (nb, off) is fixer_cosets'
    answer for C = ``code``: the increasing rows h of ``table``, the action
    table of Stab(0), such that s_u h maps Γ1(C) into Γ1(C), and so fixes
    it, being a bijection.  ``minus`` and ``adj`` are as for first_mover.

    A sieve over each coset, the one of codes._carriers: the columns of
    Γ1(C) are imaged a block at a time under the rows still alive, and a
    row is dropped at the first block that it sends off Γ1(C).  The first
    block, about _SIEVE_CELLS cells, is gathered once for every coset; each
    next one holds at least twice as many columns, and more as rows die.

    Sphere lemma: h fixes 0, so s_u h maps S1(0) onto S1(u).  Where S1(u)
    ⊆ Γ1(C) for every listed u, as at minimum distance >= 2 (S1(c) ⊆
    Γ1(C) for a codeword c, and U(C) is defined so), no row sends a vertex
    of S1(0) off Γ1(C), and the sieve reads only the columns of Γ1(C) \ S1(0).
    """
    by_vertex = table.T  # contiguous: the table is built vertex-major
    us = np.concatenate([np.flatnonzero(off), code])
    cols = nb.copy()
    if nb.take(adj.take(us, axis=0)).all():  # the sphere lemma
        cols[adj[0]] = False
    cols = np.flatnonzero(cols)
    first = max(1, _SIEVE_CELLS // by_vertex.shape[1])
    head = by_vertex.take(cols[:first], axis=0)  # h(n) for the first columns n
    for u in us.tolist():
        target = nb.take(minus[minus[u, 0]])  # target[v]: v + u in Γ1(C)
        rows = np.flatnonzero(target.take(head).all(axis=0))
        lo, step = first, first
        while lo < cols.size and rows.size:
            step = max(2 * step, _SIEVE_CELLS // rows.size)
            rows = rows[target.take(by_vertex[cols[lo : lo + step, None], rows]).all(axis=0)]
            lo += step
        yield u, rows


def first_mover(table: np.ndarray, code, minus: np.ndarray, adj: np.ndarray) -> int:
    r"""-1 iff no element of Aut(H(m,q)) fixes Γ1(C) setwise while moving
    C, else the row h of the first such s_u h in the order of fixer_cosets'
    ``us``.  ``table`` is the action table of Stab(0), ``minus[c]`` the row
    of v -> v - c, so that ``minus[minus[u, 0]]`` is the row of v -> v + u,
    and ``code`` and ``adj`` are as for fixer_cosets, for one code.

    When W = C (off is empty), every fixer maps C onto C and the table is
    not read.  A fixer s_u h with u outside C moves C, sending 0 off C; one
    with u in C moves C iff it sends a codeword off C.  The fixers in each
    coset are the rows _fixer_rows keeps: a row its sieve drops sends a
    vertex of Γ1(C) off Γ1(C), so it is no fixer, and it keeps every
    fixer, increasing.  So the sieve changes neither the verdict nor the
    row returned: the first mover is the one a scan of every row finds.
    """
    code = np.asarray(code)
    nb, off = fixer_cosets([code], adj)
    if not off[0].any():
        return -1
    code_mask = np.zeros(minus.shape[0], dtype=bool)
    code_mask[code] = True
    for u, rows in _fixer_rows(table, code, nb[0], off[0], minus, adj):
        if code_mask[u] and rows.size:
            on_code = table.T[code[:, None], rows]  # h(c) for c in C
            rows = rows[~code_mask.take(minus[minus[u, 0]]).take(on_code).all(axis=0)]
        if rows.size:
            return int(rows[0])
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
