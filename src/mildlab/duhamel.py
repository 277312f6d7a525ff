"""Singular-kernel quadrature rules and the operator constants of the
fixed-point map.

Each of the nine Duhamel terms is integrated over tau = t z against the
weight (1-z)^(-a) z^(-b) on (0, 1), where (a, b) = (1 - x, 1 - y) for the
beta-function arguments (x, y) of the constant that bounds the term.
Gauss-Jacobi rules for that weight reproduce b(x, y) exactly on
constants, which is the identity behind the constants C1..C7, alpha,
beta.  The terms themselves are evaluated by ``solver.picard_map``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as special

from .admissibility import beta_arguments
from .norms import MorreyIndex, morrey_norm


def beta_function(x, y):
    """Euler beta b(x, y) = Gamma(x) Gamma(y) / Gamma(x + y)."""
    if x <= 0 or y <= 0:
        raise ValueError(f"beta function needs positive arguments, got ({x:g}, {y:g})")
    return float(special.beta(x, y))


class QuadratureRule:
    """Gauss-Jacobi nodes on (0, 1) for the weight (1-z)^(-a) z^(-b).

    a is the kernel's (t - tau) singularity order, b the decay order of
    the integrand near tau = 0; both must be below 1 for integrability.
    """

    def __init__(self, a, b, node_count=32):
        if a >= 1 or b >= 1:
            raise ValueError(f"non-integrable endpoint weights: a={a:g}, b={b:g}")
        if node_count < 2:
            raise ValueError("need at least 2 nodes")
        self.a = float(a)
        self.b = float(b)
        self.node_count = int(node_count)
        with np.errstate(invalid="ignore", divide="ignore"):
            x, w = special.roots_jacobi(self.node_count, -self.a, -self.b)
        self.nodes = 0.5 * (x + 1.0)
        self.weights = 2.0 ** (self.a + self.b - 1.0) * w

    def __repr__(self):
        return f"QuadratureRule(a={self.a:g}, b={self.b:g}, nodes={self.node_count})"


#: the operator constant whose beta factor bounds each Duhamel term
TAG_CONSTANTS = {"B141": "C1", "B112": "C2", "B113": "C3", "B242": "C4_1", "B212": "C5_1",
                 "B343": "C6", "B444": "C7", "L3": "alpha", "L4": "beta"}
ALL_TAGS = tuple(TAG_CONSTANTS)


def rule_exponents(tag, exps):
    """Endpoint exponents (a, b) of one term's singular time integral:
    (1 - x, 1 - y) for the beta arguments (x, y) of its constant."""
    if tag not in TAG_CONSTANTS:
        raise ValueError(f"unknown operator tag {tag!r}")
    x, y = beta_arguments(exps)[TAG_CONSTANTS[tag]]
    return 1.0 - x, 1.0 - y


_BILINEAR_COMPONENTS = ("C1", "C2", "C3", "C4_1", "C4_2", "C5_1", "C5_2", "C6", "C7")


def bilinear_constant_bound(which, exps):
    """Beta-function factor of the requested bilinear operator constant;
    the composite tags C4 and C5 sum their two pieces."""
    if which == "C4":
        return bilinear_constant_bound("C4_1", exps) + bilinear_constant_bound("C4_2", exps)
    if which == "C5":
        return bilinear_constant_bound("C5_1", exps) + bilinear_constant_bound("C5_2", exps)
    if which not in _BILINEAR_COMPONENTS:
        raise ValueError(f"unknown constant tag {which!r}")
    x, y = beta_arguments(exps)[which]
    if x <= 0 or y <= 0:
        raise ValueError(f"exponents not admissible for {which}: "
                         f"beta argument ({x:g}, {y:g}) not positive")
    return beta_function(x, y)


def linear_constant_bound(which, exps, force=None):
    """Beta factor of the linear maps: 'L3' (alpha) is force-free, 'L4'
    (beta) is proportional to the force's Morrey norm."""
    key = TAG_CONSTANTS.get(which, which)
    if key not in ("alpha", "beta"):
        raise ValueError(f"unknown linear tag {which!r}")
    x, y = beta_arguments(exps)[key]
    if x <= 0 or y <= 0:
        raise ValueError(f"exponents not admissible for {key}: "
                         f"beta argument ({x:g}, {y:g}) not positive")
    factor = beta_function(x, y)
    if key == "alpha":
        return factor
    if force is None:
        raise ValueError("L4 requires the force field")
    return force.morrey_norm_N_N1 * factor


class ForceField:
    """Time-independent force with its cached Morrey norm at (N, N1)."""

    def __init__(self, f, n1, sampling=None):
        self.f = f
        self.n1 = float(n1)
        self.sampling = sampling
        self.morrey_norm_N_N1 = morrey_norm(f, MorreyIndex(f.grid.dim, n1), sampling)

    @property
    def grid(self):
        return self.f.grid

    def norm_consistent(self, tol=1e-12):
        fresh = morrey_norm(self.f, MorreyIndex(self.grid.dim, self.n1), self.sampling)
        return abs(fresh - self.morrey_norm_N_N1) <= tol * max(1.0, fresh)


@dataclass
class ConstantsTable:
    """Operator constants, the contraction bookkeeping K1/K2, and the
    smallness threshold."""

    c1: float
    c2: float
    c3: float
    c4_1: float
    c4_2: float
    c5_1: float
    c5_2: float
    c6: float
    c7: float
    alpha: float
    beta: float
    k1: float
    k2: float
    c0: float
    epsilon: float
    delta: float
    data_norm: float = math.nan
    small_enough: bool = False

    @property
    def c4(self):
        return self.c4_1 + self.c4_2

    @property
    def c5(self):
        return self.c5_1 + self.c5_2

    @classmethod
    def assemble(cls, bilinears, alpha, beta, c0, data_norm=math.nan):
        """K1 = 1 + alpha + beta; K2 = (alpha + beta)(C1 + C2 + C3) + sum Ci;
        epsilon pinned to the midpoint convention 1/(8 K1 K2), delta = epsilon/C0."""
        c1, c2, c3 = bilinears["C1"], bilinears["C2"], bilinears["C3"]
        c4_1, c4_2 = bilinears["C4_1"], bilinears["C4_2"]
        c5_1, c5_2 = bilinears["C5_1"], bilinears["C5_2"]
        c6, c7 = bilinears["C6"], bilinears["C7"]
        k1 = 1.0 + alpha + beta
        k2 = (alpha + beta) * (c1 + c2 + c3) + \
            c1 + c2 + c3 + (c4_1 + c4_2) + (c5_1 + c5_2) + c6 + c7
        epsilon = 1.0 / (8.0 * k1 * k2)
        delta = epsilon / c0 if c0 == c0 and c0 > 0 else math.nan
        small = bool(data_norm <= delta) if delta == delta else bool(data_norm == 0.0)
        return cls(c1, c2, c3, c4_1, c4_2, c5_1, c5_2, c6, c7, alpha, beta,
                   k1, k2, c0, epsilon, delta, data_norm, small)

    def as_dict(self):
        return {
            "C1": self.c1, "C2": self.c2, "C3": self.c3,
            "C4_1": self.c4_1, "C4_2": self.c4_2, "C4": self.c4,
            "C5_1": self.c5_1, "C5_2": self.c5_2, "C5": self.c5,
            "C6": self.c6, "C7": self.c7,
            "alpha": self.alpha, "beta": self.beta,
            "K1": self.k1, "K2": self.k2, "C0": self.c0,
            "epsilon": self.epsilon, "delta": self.delta,
            "data_norm_I": self.data_norm, "small_enough": self.small_enough,
        }
