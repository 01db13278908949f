"""The self-check suites of ``fraclap validate``, run in process."""

import numpy as np
import pytest

from fraclap.special import radial_laplacian
from fraclap.validate import SUITES, run_suite


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_check_passes(suite):
    records = run_suite(suite)
    assert records
    failed = [(r["check"], r["measured"], r["tolerance"]) for r in records if not r["pass"]]
    assert not failed


def test_kernel_identity_record_matches_its_own_sweep():
    # the kernel-identity record must equal a sweep of its own over the same (d, s, r)
    worst = 0.0
    for d in (1, 2, 3):
        for s in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
            beta = d - 2.0 + s
            df = lambda r: -beta * r ** (-beta - 1.0)
            d2f = lambda r: beta * (beta + 1.0) * r ** (-beta - 2.0)
            for r in np.linspace(0.5, 2.0, 20):
                exact = beta * s * r ** (-(d + s))
                worst = max(worst, abs(radial_laplacian(r, d, df, d2f) - exact) / abs(exact))

    records = {r["check"]: r for r in run_suite("special")}
    assert records["kernel identity (analytic)"]["measured"] == worst
    assert list(records) == ["kernel identity (analytic)",
                             "h and riesz constant reciprocal identity"]
