import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elusivecodes import _kernels, autgroup, search
from elusivecodes._kernels import stabiliser_rows
from elusivecodes.autgroup import apply, diag_top_generators
from elusivecodes.caps import ResourceCapError
from elusivecodes.cli import main
from elusivecodes.codes import (
    Code,
    apply_to_code,
    covering_radius,
    min_distance,
    neighbour_set,
    parse_code,
    setwise_stabiliser,
)
from elusivecodes.constructions import alt_code, rep_code
from elusivecodes.elusive import verify_elusive
from elusivecodes.hamming import Vertex, all_vertices, distance, sphere, vertex_index
from elusivecodes.lemmas import (
    _full_table,
    _space_arrays_agree,
    check_partition_lemma,
    common_neighbours,
    fourth_vertex,
    pre_codewords,
)
from elusivecodes.search import enumerate_codes, format_certificate, search_elusive, write_certificate

CERTIFICATES = Path(__file__).resolve().parent.parent / "certificates"


def V(text, q=3):
    return Vertex(tuple(int(c) for c in text), q)


# ---------------------------------------------------------------------------
# distance-2 geometry


def test_common_neighbours():
    got = common_neighbours(V("0000"), V("1100"))
    assert got == {V("1000"), V("0100")}
    with pytest.raises(ValueError):
        common_neighbours(V("0000"), V("1110"))
    with pytest.raises(ValueError):
        common_neighbours(V("0000"), V("0000"))


def test_common_neighbours_exhaustive_h43():
    # oracle: literal mutual-neighbour scan over the whole space
    verts = list(all_vertices(4, 3))
    rng = random.Random(31)
    for _ in range(50):
        a = rng.choice(verts)
        b = rng.choice([v for v in verts if distance(a, v) == 2])
        brute = {v for v in verts if distance(a, v) == 1 and distance(b, v) == 1}
        assert common_neighbours(a, b) == brute
        assert len(brute) == 2


def test_fourth_vertex_reconstruction():
    rng = random.Random(32)
    verts = list(all_vertices(4, 3))
    for _ in range(50):
        a = rng.choice(verts)
        nbrs = [v for v in verts if distance(a, v) == 1]
        mu = rng.choice(nbrs)
        far = [v for v in nbrs if distance(mu, v) == 2]
        nu = rng.choice(far)
        b = fourth_vertex(a, mu, nu)
        assert distance(a, b) == 2
        assert common_neighbours(a, b) == {mu, nu}
    with pytest.raises(ValueError):
        fourth_vertex(V("0000"), V("1000"), V("1100"))
    with pytest.raises(ValueError):
        fourth_vertex(V("0000"), V("1000"), V("2000"))


# ---------------------------------------------------------------------------
# pre-codewords and the partition structure


def test_pre_codewords_alt3():
    C = alt_code(3)
    rep = verify_elusive(C, diag_top_generators(3))
    x = rep.witness_mover
    for alpha in C.words:
        pre = pre_codewords(C, x, alpha)
        assert pre.base == alpha and pre.mover is x
        # each pre-codeword pi satisfies d(alpha, pi) = 2 and pi^x in C
        for pi in pre.members:
            assert distance(alpha, pi) == 2
            assert apply(x, pi) in C
        assert len(pre.members) == 3  # m(q-1)/2


def test_pre_codewords_validation():
    C = alt_code(3)
    rep = verify_elusive(C, diag_top_generators(3))
    x = rep.witness_mover
    with pytest.raises(ValueError):
        pre_codewords(C, x, V("000"))  # not a codeword
    from elusivecodes.autgroup import identity_automorphism

    with pytest.raises(ValueError):
        pre_codewords(C, identity_automorphism(3, 3), C.words[0])
    from elusivecodes.constructions import sym_code

    S = sym_code(3)
    rep_s = verify_elusive(S, diag_top_generators(3))
    if rep_s.witness_mover is not None:
        with pytest.raises(ValueError):
            pre_codewords(S, rep_s.witness_mover, S.words[0])


def test_partition_lemma_alt3():
    C = alt_code(3)
    x = verify_elusive(C, diag_top_generators(3)).witness_mover
    for alpha in C.words:
        chk = check_partition_lemma(C, x, alpha)
        assert chk.passed
        assert chk.base_partition_ok and chk.pre_partition_ok
        assert chk.entry_separation_ok and chk.part_sizes_two
        assert chk.part_count == 3 == chk.expected_part_count


def test_partition_instance_h43():
    # a 4-word distance-3 code whose pre-codeword geometry tiles a
    # neighbourhood: around 1100, the four codewords at distance 2
    # contribute the four common-neighbour parts below
    D = Code.from_words([V("0000"), V("1111"), V("1220"), V("2102")])
    assert min_distance(D) == 3
    pi = V("1100")
    at_two = [beta for beta in D.words if distance(pi, beta) == 2]
    assert at_two == list(D.words)  # every codeword is at distance 2 from pi
    parts = [common_neighbours(pi, beta) for beta in at_two]
    assert parts == [
        {V("0100"), V("1000")},
        {V("1110"), V("1101")},
        {V("1200"), V("1120")},
        {V("2100"), V("1102")},
    ]
    union = set().union(*parts)
    assert union == sphere(pi, 1)
    assert sum(len(p) for p in parts) == len(union) == 8


# ---------------------------------------------------------------------------
# orderly enumeration


def test_enumerate_counts_h33():
    codes = list(enumerate_codes(3, 3, 3))
    assert len(codes) == 2
    assert sorted(len(c) for c in codes) == [2, 3]
    assert codes[-1] == rep_code(3, 3) or codes[0] == rep_code(3, 3)


def test_enumerate_counts_h43():
    codes = list(enumerate_codes(4, 3, 3))
    assert len(codes) == 24
    assert sorted(len(c) for c in codes) == [
        2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7, 8, 9,
    ]
    for c in codes:
        assert min_distance(c) >= 3
        assert c.words[0] == V("0000")  # every canonical code contains vertex 0


def test_enumerate_max_size_is_a_level_cut():
    full = list(enumerate_codes(4, 3, 3))
    cut = list(enumerate_codes(4, 3, 3, max_size=3))
    assert cut == [c for c in full if len(c) <= 3]


def test_enumerate_codes_validation():
    with pytest.raises(ValueError):
        list(enumerate_codes(3, 3, 0))
    with pytest.raises(ValueError):
        list(enumerate_codes(3, 3, 4))


def test_enumerate_codes_cap(monkeypatch):
    # Stab(0) of Aut(H(3,3)) has (2!)^3 * 3! = 48 elements
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "47")
    with pytest.raises(ResourceCapError):
        list(enumerate_codes(3, 3, 3))


def test_canonicity_audit_pure_python(full43):
    # independent of the kernel path: the sorted index sequence of every
    # emitted code is minimal over the explicit orbit computed with apply()
    codes = list(enumerate_codes(4, 3, 3))
    for C in codes:
        own = [vertex_index(w) for w in C.words]
        for x in full43.elements:
            img = sorted(vertex_index(apply(x, w)) for w in C.words)
            assert img >= own


def test_one_code_per_class(full43):
    codes = list(enumerate_codes(4, 3, 3))
    # no two representatives are equivalent: their sorted index sequences
    # are canonical, so equivalent codes would be identical
    seen = set()
    for C in codes:
        key = tuple(w.entries for w in C.words)
        assert key not in seen
        seen.add(key)
    from elusivecodes.codes import are_equivalent

    small = [c for c in codes if len(c) == 2]
    assert are_equivalent(small[0], small[1], full43) is None


def test_perfect_code_class_appears_once():
    codes = [c for c in enumerate_codes(4, 3, 3) if len(c) == 9]
    assert len(codes) == 1
    H = codes[0]
    assert min_distance(H) == 3
    assert covering_radius(H) == 1  # perfect: spheres of radius 1 tile the space


def test_clique_oracle_h43():
    networkx = pytest.importorskip("networkx")
    verts = list(all_vertices(4, 3))
    G = networkx.Graph()
    G.add_nodes_from(range(81))
    for i, j in itertools.combinations(range(81), 2):
        if distance(verts[i], verts[j]) >= 3:
            G.add_edge(i, j)
    best = max(len(c) for c in networkx.find_cliques(G))
    assert best == 9
    cert = search_elusive(4, 3, 3)
    assert cert.max_code_size_seen == best


def test_brute_force_completeness_h33(full33):
    # every distance->=3 subset of H(3,3) with >= 2 words, from scratch
    networkx = pytest.importorskip("networkx")
    verts = list(all_vertices(3, 3))
    G = networkx.Graph()
    G.add_nodes_from(range(27))
    for i, j in itertools.combinations(range(27), 2):
        if distance(verts[i], verts[j]) >= 3:
            G.add_edge(i, j)
    cliques = [c for c in networkx.enumerate_all_cliques(G) if len(c) >= 2]
    assert len(cliques) == 144
    # the canonical representatives cover them exactly: orbit sizes add up
    reps = list(enumerate_codes(3, 3, 3))
    total = 0
    for C in reps:
        stab = setwise_stabiliser(full33, C)
        assert full33.order % stab.order == 0
        total += full33.order // stab.order
    assert total == 144


def test_brute_force_elusive_agreement_h33(full33):
    # decide elusivity for every distance->=3 subset directly: the full
    # setwise stabiliser of the neighbour set must move the code
    networkx = pytest.importorskip("networkx")
    verts = list(all_vertices(3, 3))
    G = networkx.Graph()
    for i, j in itertools.combinations(range(27), 2):
        if distance(verts[i], verts[j]) >= 3:
            G.add_edge(i, j)
    elusive_codes = []
    for clique in networkx.enumerate_all_cliques(G):
        if len(clique) < 2:
            continue
        C = Code.from_words([verts[i] for i in clique])
        X = setwise_stabiliser(full33, neighbour_set(C))
        if any(apply_to_code(x, C) != C for x in X.elements):
            elusive_codes.append(C)
    assert len(elusive_codes) == 36
    assert all(len(C) == 3 for C in elusive_codes)
    # and the pruned search agrees there is a hit
    assert search_elusive(3, 3, 3).outcome == "Found"


# ---------------------------------------------------------------------------
# the full search


def test_search_h333_found():
    cert = search_elusive(3, 3, 3)
    assert cert.outcome == "Found"
    assert cert.canonical_codes_examined == 2
    assert cert.max_code_size_seen == 3
    code, stab = cert.found_pair
    assert code == rep_code(3, 3)
    assert stab.order == 108
    # the reported stabiliser really is elusive evidence
    rep = verify_elusive(code, stab.generators)
    assert rep.is_elusive and rep.image_count_r == 3
    assert rep.xc_order == 36


def test_found_stabiliser_is_the_full_setwise_stabiliser(full33):
    # collected from the cosets of Stab(0) and sorted by key: the same
    # members, in the same generate_group order, as the stabiliser taken
    # over full33
    code, stab = search_elusive(3, 3, 3).found_pair
    X = setwise_stabiliser(full33, neighbour_set(rep_code(3, 3)))
    assert stab.order == X.order == 108
    assert stab.generators == stab.elements == X.elements
    # a group given by its keys builds a chain only for a set test
    assert "_chain" not in vars(stab)


@pytest.mark.parametrize(
    "m, q, delta, order", [(3, 3, 2, 6), (5, 2, 2, 12), (2, 4, 2, 48), (2, 4, 1, 72)]
)
def test_found_stabiliser_matches_the_full_table_rows(m, q, delta, order):
    # the rows of the chain-listed full group's table fixing Γ1(C), in key order
    code, stab = search_elusive(m, q, delta).found_pair
    keys, table = _full_table(m, q)
    mask = np.zeros(table.shape[1], dtype=np.uint8)
    mask[[vertex_index(v) for v in neighbour_set(code)]] = 1
    rows = np.nonzero(stabiliser_rows(table, mask))[0]
    assert np.array_equal(stab.keys, keys[rows])
    assert stab.order == order


@pytest.mark.parametrize(
    "m, q, delta, kwargs, scans, sieved",
    [
        (3, 3, 2, {}, 1, False),
        (3, 3, 3, {}, 1, False),
        (5, 2, 2, {}, 1, False),
        (4, 3, 2, {"max_size": 4}, 1, False),
        (4, 3, 3, {}, 3, False),
        (3, 4, 3, {"parity_filter": False}, 0, False),
        (4, 3, 2, {"max_size": 5}, 19, False),
        (6, 2, 3, {}, 3, False),
        (5, 3, 3, {"max_size": 6}, 9, True),
    ],
)
def test_mover_scans_only_the_codes_the_block_prune_leaves(m, q, delta, kwargs, scans, sieved, monkeypatch):
    # the U(C) prune settles a block of codes at once, and first_mover scans
    # only the codes it leaves, in depth-first order, up to the first hit.
    # At minimum distance >= 2 the row sieve reads the |Γ1(C)| - m(q-1)
    # columns of Γ1(C) \ S1(0); over _SIEVE_CELLS // |Stab(0)| of them it
    # goes past its first block: 40 or 50 columns against 8 at (5,3,3),
    # where Stab(0) has 3,840 rows, but at most 40 against 85 at (4,3,·)
    seen = []
    mover = _kernels.first_mover

    def counted(table, code, minus, adj, masks=None):
        cols = _kernels.fixer_cosets([code], adj)[0].sum() - adj.shape[1]
        seen.append(cols > _kernels._SIEVE_CELLS // table.shape[0])
        return mover(table, code, minus, adj, masks)

    monkeypatch.setattr(_kernels, "first_mover", counted)
    search_elusive(m, q, delta, **kwargs)
    assert len(seen) == scans
    assert any(seen) == sieved


def test_search_h433_exhaustive_negative():
    cert = search_elusive(4, 3, 3)
    assert cert.outcome == "NoneExhaustive"
    assert cert.canonical_codes_examined == 24
    assert cert.max_code_size_seen == 9
    assert cert.found_pair is None
    assert cert.filters_applied == ("parity",)


@pytest.mark.parametrize(
    "m, q, delta, kwargs",
    [
        (4, 3, 3, {}),
        (4, 3, 4, {}),
        (3, 4, 3, {"parity_filter": False}),
        (5, 2, 3, {"parity_filter": False}),
        (5, 2, 4, {}),
        (5, 2, 5, {}),
        (3, 5, 3, {}),
        (7, 2, 4, {}),
    ],
)
def test_no_elusive_pair_when_q_does_not_divide_m(m, q, delta, kwargs):
    # the spectral lemma: at delta >= 3, A 1_C = 1_{Γ1(C)} for the adjacency
    # matrix A of H(m,q), whose eigenvalues (q-1)m - qi are all nonzero when
    # q does not divide m; so every x fixing Γ1(C) fixes C
    assert m % q != 0 and delta >= 3
    cert = search_elusive(m, q, delta, **kwargs)
    assert cert.outcome == "NoneExhaustive"
    assert cert.canonical_codes_examined > 0


def test_search_h233_small_found():
    cert = search_elusive(2, 3, 2)
    assert cert.outcome == "Found"
    code, stab = cert.found_pair
    assert code == Code.from_words([Vertex((0, 0), 3), Vertex((1, 1), 3)])
    assert stab.order == 12
    assert verify_elusive(code, stab.generators).is_elusive


def test_parity_filter_h323():
    filtered = search_elusive(3, 2, 3)
    assert filtered.outcome == "NoneExhaustive"
    assert filtered.canonical_codes_examined == 0
    assert filtered.filters_applied == ("parity",)
    raw = search_elusive(3, 2, 3, parity_filter=False)
    assert raw.outcome == "NoneExhaustive"
    assert raw.canonical_codes_examined == 1
    assert raw.max_code_size_seen == 2
    assert raw.filters_applied == ()


def test_delta_above_m_short_circuits():
    cert = search_elusive(2, 3, 3)
    assert cert.outcome == "NoneExhaustive"
    assert cert.canonical_codes_examined == 0


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        search_elusive(0, 3, 3)
    with pytest.raises(ValueError):
        search_elusive(3, 1, 3)
    with pytest.raises(ValueError):
        search_elusive(3, 3, 0)


def test_max_size_below_two_rejected():
    # a level cut below the first canonical pair would examine nothing
    with pytest.raises(ValueError):
        search_elusive(3, 3, 3, max_size=1)
    with pytest.raises(ValueError):
        search_elusive(3, 2, 3, max_size=0)  # even where the parity filter answers
    with pytest.raises(ValueError):
        list(enumerate_codes(3, 3, 3, max_size=1))
    assert main(["search", "--m", "3", "--q", "3", "--delta", "3", "--max-size", "1"]) == 2


def test_threads_below_one_rejected():
    for threads in (0, -3):
        with pytest.raises(ValueError):
            search_elusive(3, 3, 3, threads=threads)
    # the CLI has no --threads option: argparse exits with a usage error
    with pytest.raises(SystemExit) as exc:
        main(["search", "--m", "3", "--q", "3", "--delta", "3", "--threads", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "m, q, delta, max_size, count",
    [(3, 3, 2, None, 37), (4, 3, 3, None, 24), (4, 3, 3, 3, 7), (5, 2, 2, None, 286), (4, 3, 2, 5, 488)],
)
def test_search_and_enumeration_share_the_traversal(m, q, delta, max_size, count):
    codes = list(enumerate_codes(m, q, delta, max_size=max_size))
    assert len(codes) == count
    cert = search_elusive(m, q, delta, max_size=max_size)
    assert cert.canonical_codes_examined == len(codes)
    assert cert.max_code_size_seen == max(len(c) for c in codes)


def test_search_aborts_over_cap(monkeypatch):
    # the search holds Stab(0) of Aut(H(4,3)): (2!)^4 * 4! = 384 rows
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "383")
    cert = search_elusive(4, 3, 3)
    assert cert.outcome == "Aborted"
    assert cert.canonical_codes_examined == 0
    monkeypatch.setenv("ELUSIVECODES_MAX_GROUP", "384")
    assert search_elusive(4, 3, 3).outcome == "NoneExhaustive"


def _refuse_stab0_table(monkeypatch):
    # the table builder checks its bytes before _digits builds its first array
    def refuse(m, q):
        raise AssertionError(f"the action table of H({m},{q}) was started")

    monkeypatch.setattr(autgroup, "_digits", refuse)


def test_search_aborts_over_table_bytes_cap(monkeypatch):
    # Stab(0) of Aut(H(5,4)) has order (3!)^5 * 5! = 933,120, under the group
    # cap, but its table would take 933,120 * 1024 * 4 bytes (3.82 GB):
    # refused before allocation
    monkeypatch.delenv("ELUSIVECODES_MAX_GROUP", raising=False)
    monkeypatch.delenv("ELUSIVECODES_MAX_TABLE_BYTES", raising=False)
    _refuse_stab0_table(monkeypatch)
    cert = search_elusive(5, 4, 4)
    assert cert.outcome == "Aborted"
    assert cert.canonical_codes_examined == 0


def test_table_bytes_cap_is_exact(monkeypatch):
    # the H(3,3) Stab(0) table is 48 * 27 * 4 = 5184 bytes
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "5184")
    assert search_elusive(3, 3, 3).outcome == "Found"
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "5183")
    assert search_elusive(3, 3, 3).outcome == "Aborted"


def test_pair_representatives_sit_under_the_table_bytes_cap(monkeypatch):
    # in H(3,2), Stab(0) = S_3 has a table of 6 * 8 * 4 = 192 bytes, and
    # the translation table minus takes 8 * 8 * 4 = 256
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "256")
    assert search_elusive(3, 2, 2).outcome != "Aborted"
    monkeypatch.setenv("ELUSIVECODES_MAX_TABLE_BYTES", "255")
    assert search_elusive(3, 2, 2).outcome == "Aborted"


def test_search_space_holds_one_vertex_pair_array():
    # besides the Stab(0) table, a search space holds one q^m x q^m array,
    # the int32 translations minus, and only vectors of q^m cells: 243^2 * 4
    # = 236 KB in H(5,3).  Its build allocates no other such array: past
    # the two it peaks at most 2 MiB higher, mostly the rep scan's 1 MiB
    # chunk.  2 MiB would hide a q^m x q^m temporary in H(5,3), but not in
    # H(6,3), whose minus takes 729^2 * 4 = 2.1 MB
    for m in (5, 6):
        tracemalloc.start()
        try:
            space = search._SearchSpace(m, 3, 3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= space.stab0.nbytes + 4 * space.n**2 + (64 << 10), m
        assert peak <= space.stab0.nbytes + 4 * space.n**2 + (2 << 20), m


@pytest.mark.parametrize("m, q", [(3, 3), (5, 2), (3, 4), (2, 5)])
def test_search_space_arrays_match_their_definitions(m, q):
    # minus, weight and adj against digit arithmetic, hamming.distance and
    # hamming.neighbours on Vertex objects
    assert _space_arrays_agree(m, q)


@pytest.mark.parametrize("m, q, delta", [(5, 2, 2), (6, 2, 3), (7, 2, 3)])
def test_walk_builds_only_the_pair_tables_its_kernel_reads(m, q, delta, monkeypatch):
    # a root {0, L(d)} with no candidates is a leaf, so the walk builds no
    # K_d table that canonical_children does not read
    called, weight_of = set(), {search._least(q, d): d for d in range(1, m + 1)}
    batch = _kernels.canonical_children

    def recorded(space, codes, cand, starts):
        called.add(weight_of[int(codes[0, 1])])  # codes[0, 1] = L(d)
        return batch(space, codes, cand, starts)

    monkeypatch.setattr(_kernels, "canonical_children", recorded)
    space = search._SearchSpace(m, q, delta)
    list(search._canonical_codes(space))
    assert sorted(space._pair_tables) == sorted(called)


@pytest.mark.parametrize(
    "m, q, delta",
    [
        (5, 3, 4), (5, 3, 5), (4, 2, 4), (6, 2, 3), (6, 2, 4), (4, 4, 4),
        (4, 2, 3), (6, 2, 5), (6, 2, 6), (6, 3, 5), (6, 3, 6),
        (8, 2, 5), (8, 2, 6), (8, 2, 7), (8, 2, 8),
    ],
)
def test_committed_certificates_reproduce(m, q, delta):
    # q does not divide m at (5,3,·), both NoneExhaustive; q divides m at
    # the others: (4,2,4), (6,2,3) and (6,2,4) are Found and the rest are
    # NoneExhaustive
    want = (CERTIFICATES / f"search-{m}-{q}-{delta}.txt").read_text()
    assert format_certificate(search_elusive(m, q, delta), wall_time=False) == want


@pytest.mark.parametrize("m, q, delta, r", [(4, 2, 4, 4), (6, 2, 3, 2), (6, 2, 4, 2)])
def test_committed_witnesses_are_elusive(m, q, delta, r):
    # the committed witness, read back: the stabiliser of its neighbour set
    # in Aut(H(m,q)) has the committed order and moves it round r images
    text = (CERTIFICATES / f"search-{m}-{q}-{delta}.txt").read_text()
    header, rest = text.split("found_code_begin\n")
    C = parse_code(rest.split("found_code_end\n")[0])
    assert min_distance(C) == delta
    X = setwise_stabiliser(autgroup.generate_group(autgroup.full_group_generators(m, q)), neighbour_set(C))
    assert f"found_stabiliser_order={X.order}\n" in header
    report = verify_elusive(C, X.elements)
    assert report.is_elusive and report.image_count_r == r


@pytest.mark.parametrize(
    "m, q, delta, outcome", [(4, 4, 3, "Found"), (8, 2, 4, "Found"), (6, 3, 4, "NoneExhaustive")]
)
def test_long_certificates_check_without_a_search(m, q, delta, outcome):
    # complete searches of seconds to a minute, checked without re-running
    # them: the header, and for a Found witness its minimum distance and
    # verify_elusive under the setwise stabiliser of its neighbour set,
    # whose order is the committed one
    text = (CERTIFICATES / f"search-{m}-{q}-{delta}.txt").read_text()
    header, _, rest = text.partition("found_code_begin\n")
    fields = dict(line.split("=", 1) for line in header.splitlines())
    assert list(fields) == [
        "canonical_codes_examined",
        "delta",
        "filters_applied",
        "found_stabiliser_order",
        "m",
        "max_code_size_seen",
        "outcome",
        "q",
    ]
    assert [fields[key] for key in ("m", "q", "delta", "filters_applied", "outcome")] == [
        str(m),
        str(q),
        str(delta),
        "parity",
        outcome,
    ]
    assert int(fields["canonical_codes_examined"]) >= 1 and int(fields["max_code_size_seen"]) >= 2
    if outcome == "NoneExhaustive":
        assert fields["found_stabiliser_order"] == "" and rest == ""
        return
    C = parse_code(rest.split("found_code_end\n")[0])
    assert min_distance(C) == delta and len(C) <= int(fields["max_code_size_seen"])
    X = search._SearchSpace(m, q, delta).stabiliser(sorted(vertex_index(w) for w in C))
    assert str(X.order) == fields["found_stabiliser_order"]
    assert verify_elusive(C, X.elements).is_elusive


def test_thread_count_invariance():
    # threads is accepted and has no effect: the walk is serial
    f1 = search_elusive(3, 3, 3, threads=1)
    f4 = search_elusive(3, 3, 3, threads=4)
    assert format_certificate(f1, wall_time=False) == format_certificate(
        f4, wall_time=False
    )
    assert f1.found_pair[0] == f4.found_pair[0]


def test_elusivity_is_conjugation_invariant(full33):
    # the search decision is a property of the equivalence class
    C = rep_code(3, 3)
    rng = random.Random(33)
    X = setwise_stabiliser(full33, neighbour_set(C))
    moved_orig = any(apply_to_code(x, C) != C for x in X.elements)
    for _ in range(5):
        y = rng.choice(full33.elements)
        D = apply_to_code(y, C)
        XD = setwise_stabiliser(full33, neighbour_set(D))
        moved = any(apply_to_code(x, D) != D for x in XD.elements)
        assert moved == moved_orig
        assert XD.order == X.order


def test_certificate_text_format():
    cert = search_elusive(3, 3, 3)
    text = format_certificate(cert)
    lines = text.splitlines()
    assert lines[0] == "canonical_codes_examined=2"
    assert lines[1] == "delta=3"
    assert lines[2] == "filters_applied=parity"
    assert lines[3] == "found_stabiliser_order=108"
    assert lines[4] == "m=3"
    assert lines[5] == "max_code_size_seen=3"
    assert lines[6] == "outcome=Found"
    assert lines[7] == "q=3"
    assert lines[8].startswith("wall_time_seconds=")
    assert lines[9] == "found_code_begin"
    assert lines[10] == "3 3"
    assert lines[11:14] == ["0 0 0", "1 1 1", "2 2 2"]
    assert lines[14] == "found_code_end"
    # without wall time the text is fully deterministic
    stable = format_certificate(cert, wall_time=False)
    assert "wall_time" not in stable


def test_write_certificate(tmp_path):
    cert = search_elusive(3, 2, 3)
    path = tmp_path / "cert.txt"
    write_certificate(path, cert)
    body = path.read_text()
    assert "outcome=NoneExhaustive" in body
    assert "found_code_begin" not in body
