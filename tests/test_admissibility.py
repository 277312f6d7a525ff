"""Admissibility clauses, sub-index suggestion, and the worked exponent sets."""

import dataclasses
import math
import re

import numpy as np
import pytest

from mildlab.admissibility import (ExponentSet, check_admissible, require_admissible,
                                   suggest_subindices, operator_table)


def worked_3d():
    return ExponentSet(N=3, gamma=0.0, p=4, q=3, r=4, p1=8 / 3, q1=2, r1=8 / 3, N1=2)


def test_worked_3d_set_is_admissible_case_ii():
    report = check_admissible(worked_3d())
    assert report.admissible, report.failed_clauses
    assert report.case_tag == "ii"
    # clause (D) sits exactly at equality for this set
    e = worked_3d()
    assert np.isclose(e.p1 * (1 / e.N1 + 1 / e.q1), e.p * (1 / e.N + 1 / e.q))


def test_small_q_rejected_with_named_clause():
    e = ExponentSet(N=3, gamma=0.0, p=4, q=1, r=4, p1=4, q1=1, r1=4, N1=3)
    report = check_admissible(e)
    assert not report.admissible
    assert any("case" in msg and "q=1" in msg for msg in report.failed_clauses)


def test_2d_case_iii_set_admissible():
    e = suggest_subindices(2, 0.0, 4, 3, 4)
    assert e is not None
    report = check_admissible(e)
    assert report.admissible, report.failed_clauses
    assert report.case_tag == "iii"


def test_weights_positive_for_admissible():
    e = worked_3d()
    # l_q = 1 - N/2q, mu_r = 1/2 - N/2r, mu_p = 1/2 - N/2p at N = 3, q = 3, p = r = 4
    weights = {name: w for name, (_, _, w) in e.x_terms().items()}
    assert weights == {"n": 0.5, "c_sup": 0.0, "grad_c": 0.125, "grad_v": 0.125, "u": 0.125}
    # every weighted term's data class has negative smoothness -2w
    weights.pop("c_sup")
    assert all(-2.0 * w < 0 for w in weights.values())


def test_beta_arguments_positive_when_admissible():
    for name, row in operator_table(worked_3d()).items():
        x, y = row.beta
        assert x > 0 and y > 0, name


def test_boundary_p_equals_N_fails_beta_positivity():
    e = ExponentSet(N=3, gamma=0.0, p=3, q=3, r=4, p1=3, q1=3, r1=4, N1=3)
    report = check_admissible(e)
    assert not report.admissible
    assert any("beta argument" in msg for msg in report.failed_clauses)


def test_report_when_a_product_exponent_is_undefined():
    # p + q = 0 leaves the Hoelder pair pq/(p + q) undefined: the verdict
    # names the violated clauses instead of raising
    e = ExponentSet(N=3, gamma=0.0, p=-3, q=3, r=4, p1=1, q1=2, r1=8 / 3, N1=2)
    report = check_admissible(e)
    assert not report.admissible
    assert "case(ii): N < p < inf fails for p=-3" in report.failed_clauses
    assert any("beta argument of C1" in msg for msg in report.failed_clauses)


@pytest.mark.parametrize("changes", [dict(p=0, p1=1), dict(p1=0), dict(q=0), dict(r1=0),
                                     dict(N1=0)], ids=["p", "p1", "q", "r1", "N1"])
def test_report_when_an_exponent_is_zero(changes):
    # every clause after (A) divides by the exponents; a zero one is named
    # in the verdict, not raised as ZeroDivisionError
    e = dataclasses.replace(worked_3d(), **changes)
    zero = next(name for name, value in changes.items() if value == 0)
    report = check_admissible(e)
    assert not report.admissible
    assert any(msg.startswith(f"{zero} = 0 leaves") for msg in report.failed_clauses)
    with pytest.raises(ValueError, match=f"{zero} = 0 leaves"):
        require_admissible(e)


@pytest.mark.parametrize("changes, clause", [
    (dict(N=1), "N >= 2 fails for N=1"),
    (dict(gamma=-0.5), "gamma >= 0 fails for gamma=-0.5"),
    (dict(r1=3), "(C): q/q1 = r/r1 fails (1.5 vs 1.33333)"),
    (dict(p1=2), "(C): p/p1 <= q/q1 fails (2 vs 1.5)"),
    (dict(gamma=math.nan), "gamma >= 0 fails for gamma=nan"),
    (dict(gamma=math.inf), "gamma < inf fails for gamma=inf"),
], ids=["N", "gamma", "ratio equality", "ratio order", "gamma nan", "gamma inf"])
def test_report_names_each_violated_clause(changes, clause):
    e = dataclasses.replace(worked_3d(), **changes)
    report = check_admissible(e)
    assert not report.admissible
    assert clause in report.failed_clauses
    with pytest.raises(ValueError, match=re.escape(clause)):
        require_admissible(e)


def test_suggest_matches_worked_example():
    e = suggest_subindices(3, 0.0, 4, 3, 4)
    assert e is not None
    assert np.isclose(e.q / e.q1, e.r / e.r1)
    assert np.isclose(e.q / e.q1, e.p / e.p1)
    assert check_admissible(e).admissible


def test_suggest_rejects_invalid_outer():
    with pytest.raises(ValueError):
        suggest_subindices(3, 0.0, 2.0, 1.0, 2.0)


def _random_outer(rng, n_dim):
    case = rng.integers(0, 3) if n_dim >= 3 else 2
    if case == 0:
        q = rng.uniform(n_dim / 2 * 1.02, n_dim * 0.98)
        hi = n_dim * q / (n_dim - q)
        p = rng.uniform(n_dim * 1.02, hi * 0.98)
        r = rng.uniform(n_dim * 1.02, hi * 0.98)
    elif case == 1:
        q = float(n_dim)
        p = rng.uniform(n_dim * 1.02, 4 * n_dim)
        r = rng.uniform(n_dim * 1.02, 4 * n_dim)
    else:
        q = rng.uniform(n_dim * 1.02, 2 * n_dim * 0.98)
        hi = n_dim * q / (q - n_dim)
        p = rng.uniform(n_dim * 1.02, hi * 0.98)
        r = rng.uniform(q, hi * 0.98)
    return p, q, r


def test_suggested_subindices_repass_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n_dim = int(rng.choice([2, 3]))
        p, q, r = _random_outer(rng, n_dim)
        e = suggest_subindices(n_dim, 0.0, p, q, r)
        assert e is not None, (n_dim, p, q, r)
        assert check_admissible(e).admissible, (n_dim, p, q, r)


def test_admissibility_monotone_in_slack():
    # scaling every sub-index toward the outer exponents by a common
    # 1 + 1e-6 keeps the ratio tie of (C) and the product in (D) intact,
    # and only adds slack to the remaining strict clauses
    base = worked_3d()
    assert check_admissible(base).admissible
    for s in (1 + 1e-6, 1 + 1e-7):
        e = ExponentSet(N=3, gamma=0.0, p=4, q=3, r=4,
                        p1=base.p1 * s, q1=base.q1 * s, r1=base.r1 * s, N1=base.N1 * s)
        assert check_admissible(e).admissible
    # and an inadmissible set stays inadmissible under the same nudge
    bad = ExponentSet(N=3, gamma=0.0, p=3, q=3, r=4, p1=3, q1=3, r1=4, N1=3)
    assert not check_admissible(bad).admissible
    worse = ExponentSet(N=3, gamma=0.0, p=3, q=3, r=4,
                        p1=3 * (1 + 1e-6), q1=3 * (1 + 1e-6),
                        r1=4 * (1 + 1e-6), N1=3 * (1 + 1e-6))
    assert not check_admissible(worse).admissible
