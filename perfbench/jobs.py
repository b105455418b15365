"""Workloads of the benchmark: fixed job lists with golden-checked outputs.

Every job has three parts:

* ``build(rng)`` runs during set-up and returns the inputs the program
  receives.  Verify and analysis jobs relabel their codes and generators
  by a random element of Aut(H(m,q)) drawn from ``rng``; search jobs take
  only their parameter triple.
* ``run(inputs)`` is the timed call into the library.  It looks every
  library function up on its module at call time, so a tracer that
  rebinds module attributes sees the call.
* ``output(result)`` turns the result into text that relabelling does
  not change; it is compared with ``goldens/<job>.txt``.

A job fails when it raises, when a search returns ``Aborted``, or when
its output differs from the golden.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from elusivecodes import autgroup, codes, constructions, elusive, search
from elusivecodes.autgroup import Automorphism, compose, inverse
from elusivecodes.perms import Perm

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


class JobFailed(Exception):
    """A job returned a result that counts as a failure (not a mismatch)."""


@dataclass(frozen=True)
class Job:
    name: str
    build: Callable[[random.Random], Any]
    run: Callable[[Any], Any]
    output: Callable[[Any], str]


# ---------------------------------------------------------------------------
# seeded relabelling

def random_automorphism(rng: random.Random, m: int, q: int) -> Automorphism:
    """A uniformly random element of Aut(H(m,q)), without building the group."""
    coord = tuple(Perm(tuple(rng.sample(range(q), q))) for _ in range(m))
    return Automorphism(coord, Perm(tuple(rng.sample(range(m), m))))


def relabel(rng: random.Random, C: codes.Code, gens=()):
    """(C^a, [a^-1 g a for g in gens]) for a random a in Aut(H(m,q)).

    Conjugation keeps every property the verify goldens record: the
    relabelled group fixes the relabelled neighbour set exactly when the
    original does, with the same orbit sizes and group orders.
    """
    a = random_automorphism(rng, C.m, C.q)
    a_inv = inverse(a)
    return codes.apply_to_code(a, C), [compose(compose(a_inv, g), a) for g in gens]


# ---------------------------------------------------------------------------
# search jobs: the seed only moves them within the job order

def _search_job(m: int, q: int, delta: int, suffix: str = "", **kwargs) -> Job:
    def run(_inputs):
        return search.search_elusive(m, q, delta, threads=1, **kwargs)

    def output(cert) -> str:
        if cert.outcome == "Aborted":
            raise JobFailed(f"search ({m},{q},{delta}) aborted")
        return search.format_certificate(cert, wall_time=False)

    return Job(f"search-{m}-{q}-{delta}{suffix}", lambda rng: None, run, output)


def _enumerate_job(m: int, q: int, delta: int) -> Job:
    def run(_inputs):
        return list(search.enumerate_codes(m, q, delta))

    def output(found) -> str:
        digest = hashlib.sha256()
        for C in found:
            digest.update(codes.format_code(C).encode())
        return f"codes={len(found)}\nsha256={digest.hexdigest()}\n"

    return Job(f"enumerate-{m}-{q}-{delta}", lambda rng: None, run, output)


# ---------------------------------------------------------------------------
# verify jobs: relabelled (code, generators) pairs

_REPORT_FIELDS = (
    "fixes_code",
    "fixes_neighbours",
    "image_count_r",
    "images_pairwise_disjoint",
    "is_elusive",
    "x_transitive_on_neighbours",
    "xc_order",
    "xc_transitive_on_code",
    "xc_transitive_on_neighbours",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _verify_job(name: str, make_code: Callable[[], codes.Code], make_gens: Callable[[], list]) -> Job:
    def build(rng):
        return relabel(rng, make_code(), make_gens())

    def run(inputs):
        C, gens = inputs
        return elusive.verify_elusive(C, gens)

    def output(report) -> str:
        lines = [f"{k}={_fmt(getattr(report, k))}" for k in _REPORT_FIELDS]
        common = report.images_intersection
        lines.append(f"images_intersection_size={0 if common is None else len(common)}")
        return "\n".join(sorted(lines)) + "\n"

    return Job(f"verify-{name}", build, run, output)


# ---------------------------------------------------------------------------
# analysis jobs: full-group stabilisers and equivalence, relabelled codes

def _analyse_33_build(rng):
    rep, _ = relabel(rng, constructions.rep_code(3, 3))
    alt, _ = relabel(rng, constructions.alt_code(3))
    odd, _ = relabel(rng, constructions.odd_coset_code(3))
    return rep, alt, odd


def _analyse_33_run(inputs):
    rep, alt, odd = inputs
    G = autgroup.generate_group(autgroup.full_group_generators(3, 3))
    xc, flags = elusive.code_stabiliser_analysis(rep, G)
    y = codes.are_equivalent(alt, odd, G)
    nb_stab = codes.setwise_stabiliser(G, codes.neighbour_set(alt))
    return alt, odd, xc, flags, y, nb_stab


def _analyse_33_output(result) -> str:
    alt, odd, xc, flags, y, nb_stab = result
    found = y is not None and codes.apply_to_code(y, alt) == odd
    return (
        f"code_stabiliser_order={xc.order}\n"
        f"code_stabiliser_transitive_on_code={_fmt(flags.transitive_on_code)}\n"
        f"code_stabiliser_transitive_on_neighbours={_fmt(flags.transitive_on_neighbours)}\n"
        f"equivalence_found={_fmt(found)}\n"
        f"neighbour_set_stabiliser_order={nb_stab.order}\n"
    )


def _analyse_43_build(rng):
    rep, _ = relabel(rng, constructions.rep_code(4, 3))
    return rep


def _analyse_43_run(rep):
    G = autgroup.generate_group(autgroup.full_group_generators(4, 3))
    return codes.setwise_stabiliser(G, codes.neighbour_set(rep))


def _analyse_43_output(nb_stab) -> str:
    return f"neighbour_set_stabiliser_order={nb_stab.order}\n"


def _union(q: int) -> codes.Code:
    return constructions.union_code(constructions.alt_code(q), constructions.rep_code(q, q))


def _diag_top(q: int) -> Callable[[], list]:
    return lambda: autgroup.diag_top_generators(q)


JOBS: dict[str, Job] = {
    job.name: job
    for job in (
        _search_job(3, 3, 2),
        _search_job(3, 3, 3),
        _search_job(4, 3, 3),
        _search_job(4, 3, 4),
        _search_job(5, 2, 2),
        # m(q-1) = 9 is odd, so the default parity filter would answer
        # NoneExhaustive at once without building the group or searching.
        _search_job(3, 4, 3, "-nofilter", parity_filter=False),
        _search_job(4, 3, 2, "-max5", max_size=5),
        _enumerate_job(5, 2, 2),
        _verify_job("alt3", lambda: constructions.alt_code(3), _diag_top(3)),
        _verify_job("alt4", lambda: constructions.alt_code(4), _diag_top(4)),
        _verify_job("alt5", lambda: constructions.alt_code(5), _diag_top(5)),
        _verify_job("parity32", lambda: constructions.parity_code(3, 2),
                    lambda: autgroup.wreath_generators(3, 2)),
        _verify_job("parity33", lambda: constructions.parity_code(3, 3),
                    lambda: autgroup.wreath_generators(3, 3)),
        _verify_job("union4", lambda: _union(4), _diag_top(4)),
        _verify_job("union5", lambda: _union(5), _diag_top(5)),
        Job("analyse-33", _analyse_33_build, _analyse_33_run, _analyse_33_output),
        Job("analyse-43", _analyse_43_build, _analyse_43_run, _analyse_43_output),
    )
}

WORKLOADS: dict[str, list[str]] = {
    # Searches that run to completion on real triples; building Aut(H(m,q))
    # dominates.  (3,3) and (4,3) appear twice each, so a per-(m,q) group
    # cache pays only here; (3,4,3) has the largest action table and sets the
    # peak RSS; three triples are Found, so stabiliser extraction runs.
    "certify": [
        "search-3-3-2",
        "search-3-3-3",
        "search-4-3-3",
        "search-4-3-4",
        "search-5-2-2",
        "search-3-4-3-nofilter",
    ],
    # The orderly walk and its kernels dominate; enumerate_codes is the
    # second copy of the traversal.
    "deep-walk": ["search-4-3-2-max5", "enumerate-5-2-2"],
    # BFS over small user-supplied groups and per-element apply; never
    # touches the dense action table or the kernels, so it is the bypass
    # for every search-side change.
    "verify": [
        "verify-alt3",
        "verify-alt4",
        "verify-alt5",
        "verify-parity32",
        "verify-parity33",
        "verify-union4",
        "verify-union5",
        "analyse-33",
        "analyse-43",
    ],
    # A few seconds of work for the self-test; not listed in BENCHMARK.json.
    "selftest": ["search-3-3-3", "verify-alt3"],
}


def job_order(workload: str, seed: int) -> list[str]:
    """The workload's jobs in the order the seed gives."""
    names = list(WORKLOADS[workload])
    random.Random(f"order/{seed}").shuffle(names)
    return names


def build_inputs(names: list[str], seed: int) -> dict[str, Any]:
    """Set-up: each job's inputs, from a generator seeded by (seed, job)."""
    return {name: JOBS[name].build(random.Random(f"{seed}/{name}")) for name in names}


def load_goldens(names: list[str]) -> dict[str, str]:
    return {name: (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8") for name in names}
