"""Exponent bookkeeping: the admissibility clauses on (p, q, r) and their
sub-indices, derived time weights, and the endpoint exponents of every
singular time integral."""

from dataclasses import dataclass

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
        self.N = int(self.N)
        for name in ("p", "q", "r", "p1", "q1", "r1", "N1", "gamma"):
            setattr(self, name, float(getattr(self, name)))

    @property
    def l_q(self):
        return 1.0 - self.N / (2.0 * self.q)

    @property
    def mu_r(self):
        return 0.5 - self.N / (2.0 * self.r)

    @property
    def mu_p(self):
        return 0.5 - self.N / (2.0 * self.p)

    def regularity_indices(self):
        """Besov-Morrey smoothness of the data classes: all negative when
        admissible."""
        return {"n0": self.N / self.q - 2.0,
                "grad_c0": self.N / self.r - 1.0,
                "grad_v0": self.N / self.r - 1.0,
                "u0": self.N / self.p - 1.0}


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


def beta_arguments(exps):
    """Arguments (x, y) of every beta-function factor in the bilinear and
    linear operator bounds; all must be positive for integrability."""
    N, p, q, r = exps.N, exps.p, exps.q, exps.r
    np2, nq2, nr2 = N / (2.0 * p), N / (2.0 * q), N / (2.0 * r)
    return {
        "C1": (0.5 - np2, -0.5 + np2 + nq2),
        "C2": (0.5 - nr2, -0.5 + nq2 + nr2),
        "C3": (0.5 - nr2, -0.5 + nq2 + nr2),
        "C4_1": (0.5 - np2, 0.5 + np2),
        "C4_2": (0.5 - np2, np2 + nr2),
        "C5_1": (1.0 - nq2, nq2),
        "C5_2": (0.5 - nq2 + nr2, nq2),
        "C6": (0.5 - np2, np2 + nr2),
        "C7": (0.5 - np2, N / p),
        "alpha": (0.5 - nq2 + nr2, nq2),
        "beta": (0.5 + np2 - nq2, nq2),
    }


def check_admissible(exps):
    """Clause-by-clause verdict; invalid exponents yield a verdict with
    the violated clause names, not an exception."""
    failures = []
    N, g = exps.N, exps.gamma
    p, q, r = exps.p, exps.q, exps.r
    p1, q1, r1, n1 = exps.p1, exps.q1, exps.r1, exps.N1
    if N < 2:
        failures.append(f"N >= 2 fails for N={N}")
    if g < 0:
        failures.append(f"gamma >= 0 fails for gamma={g:g}")
    tag = _case_tag(N, p, q, r, failures) if N >= 2 else ""

    for name, sub, outer in (("p1", p1, p), ("q1", q1, q), ("r1", r1, r), ("N1", n1, N)):
        if not (_leq(1.0, sub) and _leq(sub, outer)):
            failures.append(f"(A): 1 <= {name} <= {name[0] if name != 'N1' else 'N'} "
                            f"fails for {name}={sub:g}")
    for label, a, b in (("1/p1 + 1/q1", p1, q1), ("1/r1 + 1/q1", r1, q1),
                        ("1/p1 + 1/r1", p1, r1), ("1/N1 + 1/q1", n1, q1)):
        if not _leq(1.0 / a + 1.0 / b, 1.0):
            failures.append(f"(B): {label} <= 1 fails ({1.0 / a + 1.0 / b:g})")
    if abs(q / q1 - r / r1) > _EQ_SLACK * max(1.0, q / q1):
        failures.append(f"(C): q/q1 = r/r1 fails ({q / q1:g} vs {r / r1:g})")
    if not _leq(p / p1, q / q1):
        failures.append(f"(C): p/p1 <= q/q1 fails ({p / p1:g} vs {q / q1:g})")
    if not _leq(p1 * (1.0 / n1 + 1.0 / q1), p * (1.0 / N + 1.0 / q)):
        failures.append(f"(D): p1(1/N1 + 1/q1) <= p(1/N + 1/q) fails "
                        f"({p1 * (1.0 / n1 + 1.0 / q1):g} vs {p * (1.0 / N + 1.0 / q):g})")

    for name, val in (("l_q", exps.l_q), ("mu_r", exps.mu_r), ("mu_p", exps.mu_p)):
        if val <= 0:
            failures.append(f"derived weight {name} = {val:g} is not positive")
    for name, (x, y) in beta_arguments(exps).items():
        if x <= 0 or y <= 0:
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
