from elusivecodes.lemmas import (
    SUITES,
    suite_act,
    suite_neigh,
    suite_partition,
    suite_same,
)


def _assert_all_pass(checks):
    assert checks, "a suite must contain at least one check"
    bad = [(name, detail) for name, ok, detail in checks if not ok]
    assert not bad, f"failing checks: {bad}"


def test_suite_same_passes():
    _assert_all_pass(suite_same())


def test_suite_act_passes():
    checks = suite_act(seed=0)
    _assert_all_pass(checks)
    assert "full-table-closed-form-h33" in [name for name, _, _ in checks]


def test_suite_act_seed_changes_cases_not_outcome():
    for seed in (1, 17, 202):
        _assert_all_pass(suite_act(seed=seed))


def test_suite_partition_passes():
    _assert_all_pass(suite_partition())


def test_suite_neigh_passes():
    _assert_all_pass(suite_neigh())


def test_suites_registry():
    assert set(SUITES) == {"same", "act", "partition", "neigh"}
    for name, fn in SUITES.items():
        checks = fn(seed=0)
        _assert_all_pass(checks)
        for entry in checks:
            assert len(entry) == 3
            name_, ok, detail = entry
            assert isinstance(name_, str) and isinstance(detail, str)
            assert isinstance(ok, bool)


def test_check_names_are_unique_within_each_suite():
    for name, fn in SUITES.items():
        names = [c[0] for c in fn(seed=0)]
        assert len(names) == len(set(names)), f"duplicate check name in {name}"
