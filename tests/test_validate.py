"""The self-check suites of ``fraclap validate``, run in process."""

import pytest

from fraclap.validate import SUITES, run_suite


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_check_passes(suite):
    records = run_suite(suite)
    assert records
    failed = [(r["check"], r["measured"], r["tolerance"]) for r in records if not r["pass"]]
    assert not failed
