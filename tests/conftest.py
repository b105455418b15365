import functools

import pytest

from elusivecodes.autgroup import full_group_generators, generate_group
from elusivecodes.lemmas import SUITES


@pytest.fixture(scope="session")
def full33():
    """All 1296 automorphisms of H(3,3)."""
    return generate_group(full_group_generators(3, 3))


@pytest.fixture(scope="session")
def full43():
    """All 31104 automorphisms of H(4,3)."""
    return generate_group(full_group_generators(4, 3))


@pytest.fixture(scope="session")
def lemma_checks():
    """``lemma_checks(suite, seed=0)``: the checks of one lemma suite at one
    seed, each run once for the whole session."""
    run = functools.cache(lambda suite, seed: SUITES[suite](seed=seed))
    return lambda suite, seed=0: run(suite, seed)
