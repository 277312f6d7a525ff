"""Exponent bookkeeping: the admissibility clauses on (p, q, r) and their
sub-indices, and the two exponent tables the other modules read:
``ExponentSet.x_terms`` (the Morrey pair and time weight of each X-norm
term) and ``operator_table`` (the beta arguments and heat-smoothing step
of each operator constant)."""

import math
from collections import namedtuple
from dataclasses import dataclass

from .grids import whole_number

# relative slack for clauses designed to sit at equality
_EQ_SLACK = 1e-9


def _leq(a, b):
    return a <= b + _EQ_SLACK * max(1.0, abs(a), abs(b))


def _lt(a, b):
    return a < b - _EQ_SLACK * max(1.0, abs(a), abs(b))


@dataclass
class ExponentSet:
    """Outer exponents (p, q, r), sub-indices (p1, q1, r1, N1), dimension
    and attractant damping rate."""

    N: int
    gamma: float
    p: float
    q: float
    r: float
    p1: float
    q1: float
    r1: float
    N1: float

    def __post_init__(self):
        self.N = whole_number("N", self.N)
        for name in ("p", "q", "r", "p1", "q1", "r1", "N1", "gamma"):
            setattr(self, name, float(getattr(self, name)))

    def x_terms(self):
        """The X-norm's terms by name: the Morrey pair (p, p1) and time
        weight w of each, l_q = 1 - N/2q, mu_r = 1/2 - N/2r or mu_p = 1/2 -
        N/2p (0 for the sup of c).  A weighted term's data class is the
        Besov-Morrey space of smoothness -2w over its pair."""
        N, mu_r = self.N, 0.5 - self.N / (2.0 * self.r)
        return {"n": (self.q, self.q1, 1.0 - N / (2.0 * self.q)),
                "c_sup": (math.inf, math.inf, 0.0),
                "grad_c": (self.r, self.r1, mu_r),
                "grad_v": (self.r, self.r1, mu_r),
                "u": (self.p, self.p1, 0.5 - N / (2.0 * self.p))}


@dataclass
class AdmissibilityReport:
    admissible: bool
    case_tag: str
    failed_clauses: list

    def __bool__(self):
        return self.admissible


def _case_tag(N, p, q, r, failures):
    """Which of the three outer-exponent cases holds; failures collects
    every violated clause of the best-matching case."""
    if N >= 3 and _lt(N / 2.0, q) and _lt(q, N):
        tag, bound = "i", N * q / (N - q)
        checks = [(f"case(i): N < p < Nq/(N-q) fails for p={p:g}",
                   _lt(N, p) and _lt(p, bound)),
                  (f"case(i): N < r < Nq/(N-q) fails for r={r:g}",
                   _lt(N, r) and _lt(r, bound))]
    elif N >= 3 and abs(q - N) <= _EQ_SLACK * N:
        tag = "ii"
        checks = [(f"case(ii): N < p < inf fails for p={p:g}", _lt(N, p)),
                  (f"case(ii): N < r < inf fails for r={r:g}", _lt(N, r))]
    elif _lt(N, q) and _lt(q, 2 * N):
        tag, bound = "iii", N * q / (q - N)
        checks = [(f"case(iii): N < p < Nq/(q-N) fails for p={p:g}",
                   _lt(N, p) and _lt(p, bound)),
                  (f"case(iii): q <= r < Nq/(q-N) fails for r={r:g}",
                   _leq(q, r) and _lt(r, bound))]
    else:
        failures.append(f"q={q:g} is outside every case range for N={N}"
                        + (" (N=2 admits only case (iii))" if N == 2 else ""))
        return ""
    ok = True
    for message, passed in checks:
        if not passed:
            failures.append(message)
            ok = False
    return tag if ok else ""


#: an operator constant's beta arguments (x, y), and the source and target Morrey
#: pairs (p, p1) of the heat (or heat-gradient) smoothing step in its proof
OperatorRow = namedtuple("OperatorRow", "beta source target gradient")


def operator_table(exps):
    """Every operator constant of the bilinear and linear bounds, by name.
    Beta arguments must be positive for integrability; the table itself
    never raises, so ``check_admissible`` can report on any exponents."""
    N, p, q, r, n1 = exps.N, exps.p, exps.q, exps.r, exps.N1
    p1, q1, r1 = exps.p1, exps.q1, exps.r1
    np2, nq2, nr2 = N / (2.0 * p), N / (2.0 * q), N / (2.0 * r)

    # Hoelder exponents ab/(a + b) of the products each bilinear term smooths,
    # NaN where a + b = 0, so that the table never raises
    def pair(a, b):
        return a * b / (a + b) if a + b else math.nan
    pq, rq, pr, nq = pair(p, q), pair(r, q), pair(p, r), pair(N, q)
    s1, s2, s3, s4 = pair(p1, q1), pair(r1, q1), pair(p1, r1), pair(n1, q1)
    inf = (math.inf, math.inf)
    return {
        "C1": OperatorRow((0.5 - np2, -0.5 + np2 + nq2), (pq, s1), (q, q1), True),
        "C2": OperatorRow((0.5 - nr2, -0.5 + nq2 + nr2), (rq, s2), (q, q1), True),
        "C3": OperatorRow((0.5 - nr2, -0.5 + nq2 + nr2), (rq, s2), (q, q1), True),
        "C4_1": OperatorRow((0.5 - np2, 0.5 + np2), (p, p1), inf, True),
        "C4_2": OperatorRow((0.5 - np2, np2 + nr2), (pr, s3), (r, r1), True),
        "C5_1": OperatorRow((1.0 - nq2, nq2), (q, q1), inf, False),
        "C5_2": OperatorRow((0.5 - nq2 + nr2, nq2), (q, q1), (r, r1), True),
        "C6": OperatorRow((0.5 - np2, np2 + nr2), (pr, s3), (r, r1), True),
        "C7": OperatorRow((0.5 - np2, N / p), (p / 2, p1 / 2), (p, p1), True),
        "alpha": OperatorRow((0.5 - nq2 + nr2, nq2), (q, q1), (r, r1), True),
        "beta": OperatorRow((0.5 + np2 - nq2, nq2), (nq, s4), (p, p1), False),
    }


def check_admissible(exps):
    """Clause-by-clause verdict; invalid exponents yield a verdict with
    the violated clause names, not an exception."""
    failures = []
    N, g = exps.N, exps.gamma
    p, q, r = exps.p, exps.q, exps.r
    p1, q1, r1, n1 = exps.p1, exps.q1, exps.r1, exps.N1
    if not N >= 2:
        failures.append(f"N >= 2 fails for N={N}")
    if not g >= 0:
        failures.append(f"gamma >= 0 fails for gamma={g:g}")
    elif not g < math.inf:
        failures.append(f"gamma < inf fails for gamma={g:g}")
    tag = _case_tag(N, p, q, r, failures) if N >= 2 else ""

    for name, sub, outer in (("p1", p1, p), ("q1", q1, q), ("r1", r1, r), ("N1", n1, N)):
        if not (_leq(1.0, sub) and _leq(sub, outer)):
            failures.append(f"(A): 1 <= {name} <= {name[0] if name != 'N1' else 'N'} "
                            f"fails for {name}={sub:g}")
    # every later clause divides by these exponents
    zeros = [name for name in ("N", "p", "q", "r", "p1", "q1", "r1", "N1")
             if getattr(exps, name) == 0]
    if zeros:
        failures.append(f"{', '.join(zeros)} = 0 leaves clauses (B)-(D), the time "
                        "weights and the beta arguments undefined")
        return AdmissibilityReport(False, tag, failures)
    for label, a, b in (("1/p1 + 1/q1", p1, q1), ("1/r1 + 1/q1", r1, q1),
                        ("1/p1 + 1/r1", p1, r1), ("1/N1 + 1/q1", n1, q1)):
        if not _leq(1.0 / a + 1.0 / b, 1.0):
            failures.append(f"(B): {label} <= 1 fails ({1.0 / a + 1.0 / b:g})")
    if not abs(q / q1 - r / r1) <= _EQ_SLACK * max(1.0, q / q1):
        failures.append(f"(C): q/q1 = r/r1 fails ({q / q1:g} vs {r / r1:g})")
    if not _leq(p / p1, q / q1):
        failures.append(f"(C): p/p1 <= q/q1 fails ({p / p1:g} vs {q / q1:g})")
    if not _leq(p1 * (1.0 / n1 + 1.0 / q1), p * (1.0 / N + 1.0 / q)):
        failures.append(f"(D): p1(1/N1 + 1/q1) <= p(1/N + 1/q) fails "
                        f"({p1 * (1.0 / n1 + 1.0 / q1):g} vs {p * (1.0 / N + 1.0 / q):g})")

    for name, (_, _, w) in exps.x_terms().items():
        if name != "c_sup" and w <= 0:
            failures.append(f"time weight of {name} = {w:g} is not positive")
    for name, row in operator_table(exps).items():
        x, y = row.beta
        if not (x > 0 and y > 0):
            failures.append(f"beta argument of {name} not positive: ({x:g}, {y:g})")

    return AdmissibilityReport(not failures, tag, failures)


def require_admissible(exps):
    """Raise ValueError naming every violated clause unless the exponents
    are admissible."""
    report = check_admissible(exps)
    if not report.admissible:
        raise ValueError("exponents are not admissible: "
                         + "; ".join(report.failed_clauses))


def suggest_subindices(N, gamma, p, q, r):
    """Sub-indices for valid outer exponents: scan q1 downward from q,
    tie r1 (and p1) by the ratio clause, take the smallest N1 the force
    clauses allow; None when no scanned candidate passes."""
    if _case_tag(N, p, q, r, []) == "":
        raise ValueError(f"(p, q, r) = ({p:g}, {q:g}, {r:g}) satisfies none of the "
                         f"outer-exponent cases for N={N}")
    for kappa in (1.5, 1.4, 1.3, 1.2, 1.1, 1.05, 1.0):
        q1 = q / kappa
        if q1 <= 1.0:
            continue
        r1 = r * q1 / q
        p1 = p * q1 / q
        if min(p1, r1) < 1.0:
            continue
        lower = max(1.0, q1 / (q1 - 1.0))           # (B): 1/N1 + 1/q1 <= 1
        cap = (p / p1) * (1.0 / N + 1.0 / q) - 1.0 / q1
        if cap <= 0:
            continue
        lower = max(lower, 1.0 / cap)               # (D)
        if lower > N * (1.0 + _EQ_SLACK):
            continue
        candidate = ExponentSet(N, gamma, p, q, r, p1, q1, r1, min(float(N), lower))
        if check_admissible(candidate):
            return candidate
    return None
