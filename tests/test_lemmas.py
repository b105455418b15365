import functools

from elusivecodes.lemmas import SUITES


@functools.cache
def _checks(suite, seed=0):
    """The checks of one suite at one seed, run once for every test here."""
    return SUITES[suite](seed=seed)


def _assert_all_pass(checks):
    assert checks, "a suite must contain at least one check"
    bad = [(name, detail) for name, ok, detail in checks if not ok]
    assert not bad, f"failing checks: {bad}"


def test_suite_same_passes():
    _assert_all_pass(_checks("same"))


def test_suite_act_passes():
    checks = _checks("act")
    _assert_all_pass(checks)
    assert "full-table-closed-form-h33" in [name for name, _, _ in checks]


def test_suite_act_seed_changes_cases_not_outcome():
    for seed in (1, 17, 202):
        _assert_all_pass(_checks("act", seed))


def test_suite_partition_passes():
    _assert_all_pass(_checks("partition"))


def test_suite_neigh_passes():
    _assert_all_pass(_checks("neigh"))


def test_suites_registry():
    assert set(SUITES) == {"same", "act", "partition", "neigh"}
    for name in SUITES:
        checks = _checks(name)
        _assert_all_pass(checks)
        for entry in checks:
            assert len(entry) == 3
            name_, ok, detail = entry
            assert isinstance(name_, str) and isinstance(detail, str)
            assert isinstance(ok, bool)


def test_check_names_are_unique_within_each_suite():
    for name in SUITES:
        names = [c[0] for c in _checks(name)]
        assert len(names) == len(set(names)), f"duplicate check name in {name}"
