from elusivecodes.lemmas import SUITES


def _assert_all_pass(checks):
    assert checks, "a suite must contain at least one check"
    bad = [(name, detail) for name, ok, detail in checks if not ok]
    assert not bad, f"failing checks: {bad}"


def test_suite_same_passes(lemma_checks):
    _assert_all_pass(lemma_checks("same"))


def test_suite_act_passes(lemma_checks):
    checks = lemma_checks("act")
    _assert_all_pass(checks)
    names = [name for name, _, _ in checks]
    assert "stab0-closed-form-h33" in names and "depth-batch-h33" in names
    assert names.index("u-prune-block-h33") == names.index("fixer-cosets-h33") + 1
    assert names.index("space-arrays-h33") == names.index("stab0-closed-form-h33") + 1
    assert names.index("set-stabiliser-chain-h33") == names.index("group-chain") + 1


def test_suite_act_seed_changes_cases_not_outcome(lemma_checks):
    for seed in (1, 17, 202):
        _assert_all_pass(lemma_checks("act", seed))


def test_suite_partition_passes(lemma_checks):
    _assert_all_pass(lemma_checks("partition"))


def test_suite_neigh_passes(lemma_checks):
    _assert_all_pass(lemma_checks("neigh"))


def test_suites_registry(lemma_checks):
    assert set(SUITES) == {"same", "act", "partition", "neigh"}
    for name in SUITES:
        checks = lemma_checks(name)
        _assert_all_pass(checks)
        for entry in checks:
            assert len(entry) == 3
            name_, ok, detail = entry
            assert isinstance(name_, str) and isinstance(detail, str)
            assert isinstance(ok, bool)


def test_check_names_are_unique_within_each_suite(lemma_checks):
    for name in SUITES:
        names = [c[0] for c in lemma_checks(name)]
        assert len(names) == len(set(names)), f"duplicate check name in {name}"
