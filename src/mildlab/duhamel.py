"""Singular-kernel quadrature rules and the operator constants of the
fixed-point map.

Each of the nine Duhamel terms is integrated over tau = t z against the
weight (1-z)^(-a) z^(-b) on (0, 1), where (a, b) = (1 - x, 1 - y) for the
beta-function arguments (x, y) of the constant that bounds the term.
Gauss-Jacobi rules for that weight reproduce b(x, y) exactly on
constants, which is the identity behind the operator constants C1..C7,
alpha and beta.  Their names are the keys of ``operator_table``:
``constant_bound`` takes one of them, and ``ConstantsTable`` holds the
constants in a dict keyed by them.  ``TERMS`` gives each term's constant
and the component it is added to; the terms themselves are evaluated by
``solver.picard_map``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as special

from .admissibility import operator_table
from .grids import whole_number
from .norms import MorreyIndex, morrey_norm


def beta_function(x, y):
    """Euler beta b(x, y) = Gamma(x) Gamma(y) / Gamma(x + y)."""
    if not (x > 0 and y > 0):
        raise ValueError(f"beta function needs positive arguments, got ({x:g}, {y:g})")
    return float(special.beta(x, y))


class QuadratureRule:
    """Gauss-Jacobi nodes on (0, 1) for the weight (1-z)^(-a) z^(-b).

    a is the kernel's (t - tau) singularity order, b the decay order of
    the integrand near tau = 0; both must be below 1 for integrability.
    """

    def __init__(self, a, b, node_count=32):
        if not (a < 1 and b < 1):
            raise ValueError(f"non-integrable endpoint weights: a={a:g}, b={b:g}")
        self.node_count = whole_number("node_count", node_count)
        if not self.node_count >= 2:
            raise ValueError(f"node_count must be at least 2, got {node_count}")
        self.a = float(a)
        self.b = float(b)
        with np.errstate(invalid="ignore", divide="ignore"):
            x, w = special.roots_jacobi(self.node_count, -self.a, -self.b)
        self.nodes = 0.5 * (x + 1.0)
        self.weights = 2.0 ** (self.a + self.b - 1.0) * w

    def __repr__(self):
        return f"QuadratureRule(a={self.a:g}, b={self.b:g}, nodes={self.node_count})"


#: each Duhamel term: the operator constant whose beta factor bounds it,
#: and the component of the trajectory it is added to
TERMS = {"B141": ("C1", "n"), "B112": ("C2", "n"), "B113": ("C3", "n"),
         "B242": ("C4_1", "c"), "B212": ("C5_1", "c"), "B343": ("C6", "v"),
         "B444": ("C7", "u"), "L3": ("alpha", "v"), "L4": ("beta", "u")}
ALL_TAGS = tuple(TERMS)


def rule_exponents(tag, exps):
    """Endpoint exponents (a, b) of one term's singular time integral:
    (1 - x, 1 - y) for the beta arguments (x, y) of its constant."""
    if tag not in TERMS:
        raise ValueError(f"unknown operator tag {tag!r}")
    x, y = operator_table(exps)[TERMS[tag][0]].beta
    return 1.0 - x, 1.0 - y


def constant_bound(name, exps, force=None):
    """b(x, y) at the beta arguments (x, y) of one operator constant, named
    as in ``operator_table``; beta, the force's constant, is scaled by the
    force's Morrey norm at (N, N1) and is 0 without a force."""
    table = operator_table(exps)
    if name not in table:
        raise ValueError(f"unknown operator constant {name!r}")
    x, y = table[name].beta
    if not (x > 0 and y > 0):
        raise ValueError(f"exponents not admissible for {name}: "
                         f"beta argument ({x:g}, {y:g}) not positive")
    if name != "beta":
        return beta_function(x, y)
    return 0.0 if force is None else force.morrey_norm_N_N1 * beta_function(x, y)


class ForceField:
    """Time-independent force with its cached Morrey norm at (N, N1)."""

    def __init__(self, f, n1):
        self.f = f
        self.n1 = float(n1)
        self.morrey_norm_N_N1 = morrey_norm(f, MorreyIndex(f.grid.dim, n1))

    @property
    def grid(self):
        return self.f.grid


@dataclass
class ConstantsTable:
    """The operator constants, keyed by their ``operator_table`` names, with
    the contraction bookkeeping K1/K2 and the smallness threshold."""

    constants: dict
    k1: float
    k2: float
    c0: float
    epsilon: float
    delta: float
    data_norm: float = math.nan
    small_enough: bool = False

    @classmethod
    def assemble(cls, constants, c0, data_norm=math.nan):
        """K1 = 1 + alpha + beta; K2 = (alpha + beta)(C1 + C2 + C3) + sum Ci;
        epsilon pinned to the midpoint convention 1/(8 K1 K2), delta = epsilon/C0."""
        c = constants
        k1 = 1.0 + c["alpha"] + c["beta"]
        k2 = (c["alpha"] + c["beta"]) * (c["C1"] + c["C2"] + c["C3"]) + \
            c["C1"] + c["C2"] + c["C3"] + (c["C4_1"] + c["C4_2"]) + (c["C5_1"] + c["C5_2"]) + \
            c["C6"] + c["C7"]
        epsilon = 1.0 / (8.0 * k1 * k2)
        delta = epsilon / c0 if c0 == c0 and c0 > 0 else math.nan
        small = bool(data_norm <= delta) if delta == delta else bool(data_norm == 0.0)
        return cls(dict(constants), k1, k2, c0, epsilon, delta, data_norm, small)

    def as_dict(self):
        """Every constant, the composites C4 and C5, and the bookkeeping."""
        c = self.constants
        return {
            **c, "C4": c["C4_1"] + c["C4_2"], "C5": c["C5_1"] + c["C5_2"],
            "K1": self.k1, "K2": self.k2, "C0": self.c0,
            "epsilon": self.epsilon, "delta": self.delta,
            "data_norm_I": self.data_norm, "small_enough": self.small_enough,
        }
