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
    return not _smaller_image(imgs, code[None, :-1], code[-1], table.shape[1]).any()


def _smaller_image(imgs: np.ndarray, words: np.ndarray, top, n: int) -> np.ndarray:
    r"""Where the image imgs[:, r] of k + 1 distinct vertices, read as a set,
    is lexicographically smaller than the sorted set D = C + [top], C a row
    of the (B, k) array ``words`` of sorted codes and ``top`` above max(C),
    broadcast over r; row b and its images label vertex v as v + b (n + 1).

    No image is sorted.  For sets I != D of one size, I < D iff the least
    element a of I \ D lies below every element of D \ I, that is iff every
    element of D below a is in I.  The images below a all lie in D, so
    that holds iff they are as many as the elements of D below a.
    """
    size = words.shape[0] * (n + 1) - 1  # the last label, no vertex's
    not_in_d = np.arange(size + 1, dtype=np.int32)
    not_in_d[words] = size
    below = np.zeros(size + 1, dtype=np.int32)
    below[words + 1] = 1  # summed along a code's row: its words below each label
    out = not_in_d.take(imgs)
    out[imgs == top] = size
    least_out = out.min(axis=0)  # a for each image; size where the image is D
    images_below = (imgs < least_out).sum(axis=0)
    below = below.reshape(-1, n + 1).cumsum(axis=1).take(least_out)
    return (images_below == below + (top < least_out)) & (least_out < size)


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _first_missing(imgs: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """For each image imgs[:, r] of the k distinct words of a row C of
    ``words``, labelled as for _smaller_image, the index in C of the least
    word it misses, k where it is C.

    Word p of a code stands for bit p of a 63-bit word.  The vertices of an
    image are distinct, so the sum of their bits is the set of codewords
    the image holds, and the least codeword missing is its count of
    trailing ones, read off the lowest zero bit.  The bits are summed a
    block of rows of ``imgs`` at a time, a block holding one row or at most
    2^13 cells, so the temporaries (the sum, and one block's intp indices
    and bits) take at most 24 bytes per image or 192 KiB, whatever k is.
    """
    k = words.shape[1]
    block = max(1, (1 << 13) // max(1, imgs[0].size))
    first = 0
    for lo in range(0, k, 63):
        bit = np.zeros(words.shape[0] * (n + 1), dtype=np.uint64)
        bit[words[:, lo : lo + 63]] = _BITS[: min(63, k - lo)]
        held = bit.take(imgs[:block]).sum(axis=0)
        for r in range(block, k, block):
            held += bit.take(imgs[r : r + block]).sum(axis=0)
        ones = np.frexp(~held & (held + np.uint64(1)))[1] - 1  # 2^ones, the lowest zero bit, is exact as a double
        first = ones if lo == 0 else np.where(first == lo, lo + ones, first)  # only where every earlier word is full
    return first


def canonical_children(space, codes: np.ndarray, cand: np.ndarray, starts: np.ndarray) -> np.ndarray:
    r"""Boolean array over ``cand``: entry i is is_canonical(codes[b] +
    [cand[i]]) for the b with starts[b] <= i < starts[b + 1].

    ``space`` is the search's _SearchSpace: the table of Stab(0), read
    vertex-major, the translations ``minus``, the Hamming weights
    ``weight``, so that d(c, x) = weight[minus[c, x]], the
    representatives ``rep`` and the tables ``pair_table(d)``.  ``codes`` is
    a (B, k) int32 array of canonical codes of one minimum distance d, each
    sorted with 0 first and at least two words, and each has at least one
    candidate, above its max at distance at least d from each of its words.

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

    A verdict reads only its code and candidate, so the old pairs of every
    code are gathered as one list, each under its code's candidates, slot j
    past the last holding the dead entry cand.size.  They are gathered a few
    at a time, and the survivors' pair cosets too, after counting them, in
    chunks that with their temporaries take at most 4 max(|Stab(0)| q^m,
    2^16) bytes, the bytes of the Stab(0) table or 256 KiB, less the bytes
    of the K_d table, unless a single pair coset takes more.
    """
    by_vertex = space.stab0.T  # contiguous: the tables are built vertex-major
    minus, weight, rep = space.minus, space.weight, space.rep
    n, (count, k) = minus.shape[0], codes.shape
    d = weight[codes[0, 1]]
    table = space.pair_table(int(d))
    rows = table.shape[1]
    cap = 4 * max(space.stab0.size, 1 << 16) - table.nbytes
    slot = starts[:-1] + np.arange((starts[1:] - starts[:-1]).max())[:, None]  # slot[j, b]: codes[b]'s entry j
    slot[slot >= starts[1:]] = cand.size  # past its last: the dead entry
    keep = np.arange(cand.size + 1) < cand.size  # the dead entry last
    cols = np.concatenate([codes.T, cand.take(slot, mode="clip")])  # cols[:, b]: codes[b], then its slots
    code_0 = np.concatenate([codes, codes[:, :1]], axis=1)  # 0 appended to each code, int32 as codes
    words = codes + np.arange(0, count * (n + 1), n + 1, dtype=np.int32)[:, None] if count > 1 else codes
    near = weight.take(minus[cols.T[:, :, None], codes[:, None, :]]) == d  # near[b, j, i]: d(cols[j, b], codes[b, i]) = d
    pb, zero, ld = near[:, :k].nonzero()  # the old pairs, whose rows send codes[pb, zero] to 0, codes[pb, ld] to L(d)
    zero, ld = codes[pb, zero], codes[pb, ld]
    h_y = rep.take(minus[zero, ld])
    # per row of a pair coset: 4 bytes a column gathered, 5 more a slot
    # for its compares with b and the copy of a live one's images, and about
    # 48 for b and _first_missing's bit words
    ties, step = [], max(1, cap // (rows * (4 * k + 9 * len(slot) + 48)))
    for lo in range(0, zero.size, step):
        own = pb[lo : lo + step]
        at, pts = slot.take(own, axis=1), cols.take(own, axis=1)  # at[j, p]: the entry of slot j of old pair lo + p
        # imgs[j, p, i] = k_i h_p(pts[j, p] - zero[p]), row i of the coset of old pair lo + p
        imgs = table.take(by_vertex[minus[zero[lo : lo + step], pts], h_y[lo : lo + step]], axis=0)
        if count > 1:  # label the images of codes[b] as words does, v as v + b (n + 1)
            imgs[:k] += words[own, :1]
        first = _first_missing(imgs[:k], words, n)
        b = code_0.take(first + (k + 1) * own[:, None])  # b is 0 where g(C) = C
        moved = imgs[k:]  # g(v) for each slot's candidate v, never 0
        # rejected: g(v) < b in a row of one code's run of pairs, or g(v) < v in a row where g(C) = C
        runs = own.searchsorted(np.arange(own[0], own[-1] + 1)) * rows
        below_b = np.logical_or.reduceat((moved < b).reshape(len(slot), -1), runs, axis=1)  # per slot and code
        keep[slot[:, own[0] : own[-1] + 1][below_b]] = False
        keep[at[moved.min(axis=2, where=first == k, initial=n) < pts[k:]]] = False
        live = keep[at]
        j = live.any(axis=1).nonzero()[0]  # the slots with a live entry
        t, p = ((moved[j] == b).any(axis=2) & live[j]).nonzero()  # at[j[t], p] has a tied row in old pair lo + p
        ties.append((at[j[t], p], p + lo))
        del imgs, moved  # freed before the next chunk is gathered
    j, b = keep[slot].nonzero()  # the survivors, slot j of codes[b]
    if not b.size:
        return keep[:-1]
    t, p = map(np.concatenate, zip(*ties))
    s, c = near[b, k + j].nonzero()
    o, b = slot[j[s], b[s]], b[s]
    w, x = cand[o], codes[b, c]
    # the pair cosets each survivor is tested on, and its entry and code:
    # (x, w) and (w, x) for its new pairs, and the old pairs that tie it
    zero, ld = np.concatenate([x, w, zero[p]]), np.concatenate([w, x, ld[p]])
    owner, own = np.concatenate([o, o, t]), np.concatenate([b, b, pb[p]])
    # per row: 18 (k + 1) bytes in imgs and _smaller_image's temporaries,
    # and about 32 for its least image outside D and its count
    step = max(1, cap // (rows * (18 * k + 50)))
    for lo in range(0, zero.size, step):
        z, o, b = zero[lo : lo + step], owner[lo : lo + step], own[lo : lo + step]
        pts = np.concatenate([codes[b].T, cand[o][None]])  # the points of each D
        imgs = table.take(by_vertex[minus[z, pts], rep.take(minus[z, ld[lo : lo + step]])], axis=0)
        if count > 1:  # words[b, 0] = b (n + 1), and 0 for a lone code
            imgs += words[b, :1]
        keep[o[_smaller_image(imgs, words, pts[k:].T + words[b, :1], n).any(axis=1)]] = False
    return keep[:-1]


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

# cells, |K_d| k^2 (k + most candidates) a code, of the codes one canonical_children call decides
_CHILD_CELLS = 1 << 20


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

    A sieve over each coset, the simplest case of the refinement in Leon's
    partition backtrack: the columns of Γ1(C) are imaged a block at a time
    under the rows still alive, and a row is dropped at the first block
    that it sends off Γ1(C).  The first block, about _SIEVE_CELLS cells, is
    gathered once for every coset; each next one holds at least twice as
    many columns, and more as rows die.

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


def first_mover(table: np.ndarray, code, minus: np.ndarray, adj: np.ndarray, masks=None) -> int:
    r"""-1 iff no element of Aut(H(m,q)) fixes Γ1(C) setwise while moving
    C, else the row h of the first such s_u h in the order of fixer_cosets'
    ``us``.  ``table`` is the action table of Stab(0), ``minus[c]`` the row
    of v -> v - c, so that ``minus[minus[u, 0]]`` is the row of v -> v + u,
    ``code`` and ``adj`` are as for fixer_cosets, and ``masks``, if given,
    is its (nb, off) for ``code``.

    When W = C (off is empty), every fixer maps C onto C and the table is
    not read.  A fixer s_u h with u outside C moves C, sending 0 off C; one
    with u in C moves C iff it sends a codeword off C.  The fixers in each
    coset are the rows _fixer_rows keeps: a row its sieve drops sends a
    vertex of Γ1(C) off Γ1(C), so it is no fixer, and it keeps every
    fixer, increasing.  So the sieve changes neither the verdict nor the
    row returned: the first mover is the one a scan of every row finds.
    """
    code = np.asarray(code)
    nb, off = masks or [rows[0] for rows in fixer_cosets([code], adj)]
    if not off.any():
        return -1
    code_mask = np.zeros(minus.shape[0], dtype=bool)
    code_mask[code] = True
    for u, rows in _fixer_rows(table, code, nb, off, minus, adj):
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
