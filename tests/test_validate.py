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


def test_kernel_identity_records_match_one_sweep_per_record():
    # both kernel-identity records come from one sweep; each must equal a sweep of its own
    def worst(analytic):
        out = 0.0
        for d in (1, 2, 3):
            for s in (0.25, 0.5, 0.75, 1.25, 1.5, 1.75):
                beta = d - 2.0 + s
                f = lambda r: r ** (-beta)
                derivs = {}
                if analytic:
                    derivs = {"df": lambda r: -beta * r ** (-beta - 1.0),
                              "d2f": lambda r: beta * (beta + 1.0) * r ** (-beta - 2.0)}
                for r in np.linspace(0.5, 2.0, 20):
                    exact = beta * s * r ** (-(d + s))
                    out = max(out, abs(radial_laplacian(f, r, d, **derivs) - exact) / abs(exact))
        return out

    records = {r["check"]: r for r in run_suite("special")}
    assert records["kernel identity (analytic)"]["measured"] == worst(True)
    assert records["kernel identity (finite differences)"]["measured"] == worst(False)
    assert list(records) == ["gamma recurrence", "kernel identity (analytic)",
                             "kernel identity (finite differences)",
                             "h and riesz constant reciprocal identity"]
