"""The mutant table stays applicable: each site is still where it names."""

from __future__ import annotations

import pytest
from mutants import CHECKS, MUTANTS, ROOT, collect_checks


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names) == 14


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_site_occurs_exactly_once(mutant):
    # a refactor that moves or repeats a site must fail here, not leave a
    # mutant that changes nothing
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_each_mutant_is_killed_by_named_checks():
    for mutant in MUTANTS:
        assert mutant.killed_by <= CHECKS.keys(), mutant.name


def test_each_check_selects_a_test():
    # a check whose marked tests are all gone would kill nothing
    checks = collect_checks(ROOT)
    assert checks.keys() == CHECKS.keys()
    for check, tests in checks.items():
        assert tests, check
