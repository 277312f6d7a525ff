"""The fixed-point engine: caloric extension of the data, the full
integral map on stored trajectories, Picard iteration with a contraction
trace, and the constant bookkeeping behind the smallness threshold.

The map evaluates its nine integral terms by the matched singular rules.
Integrand spectra are formed once per stored time (with every
lag-independent factor applied) on the 2/3-dealiased modes; the map is
linear in them, through one weight matrix per output time and rule group.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, TimeGrid
from .state import StateTuple, Trajectory
from .spectral import SpectralField, heat_apply, damped_heat_apply, leray_project, \
    spectral_divergence_defect, divergence_defects
from .norms import MorreyIndex, x_space_norms, data_norm_I, smoothing_constant
from .duhamel import (QuadratureRule, rule_exponents, bilinear_constant_bound,
                      linear_constant_bound, ConstantsTable, ForceField, ALL_TAGS)
from .admissibility import check_admissible

_RULE_GROUPS = (("B141",), ("B112", "B113"), ("B242",), ("B212",), ("B343",),
                ("B444",), ("L3",), ("L4",))


@dataclass
class SolverConfig:
    exps: object
    grid: Grid
    time_grid: TimeGrid
    gamma: float = 0.0
    quad_nodes: int = 32
    max_iters: int = 50
    tol: float = 1e-8
    force: ForceField = None
    sampling: object = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.force is not None and not self.grid.compatible(self.force.grid):
            raise ValueError(f"force lives on {self.force.grid!r}, "
                             f"not on the solver grid {self.grid!r}")
        report = check_admissible(self.exps)
        if not report.admissible:
            raise ValueError("exponents are not admissible: "
                             + "; ".join(report.failed_clauses))

    def rules(self):
        return {tag: QuadratureRule(*rule_exponents(tag, self.exps),
                                    node_count=self.quad_nodes)
                for tag in ALL_TAGS}


@dataclass
class IterationTrace:
    """Per-iterate norms, successive differences, and the verdict."""

    x_norms: list = field(default_factory=list)
    diffs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0
    final_residual: float = math.nan
    constants: ConstantsTable = None

    def as_dict(self):
        return {
            "x_norms": list(self.x_norms),
            "diffs": list(self.diffs),
            "ratios": list(self.ratios),
            "converged": self.converged,
            "diverged": self.diverged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
        }


def caloric_extension(data, gamma, time_grid):
    """Free evolution of the data at every stored time: the first Picard
    iterate (e^{tL} n0, e^{tL} c0, e^{-gt} e^{tL} v0, e^{tL} u0)."""
    grid = data.grid
    u0 = data.u
    defect = spectral_divergence_defect(u0)
    if defect > 1e-10:
        warnings.warn(f"initial velocity has divergence defect {defect:.2e}; projecting")
        u0 = leray_project(u0)
    states = []
    for t in time_grid.times:
        states.append(StateTuple(
            t,
            heat_apply(data.n, t),
            heat_apply(data.c, t),
            damped_heat_apply(SpectralField(grid, data.v.coeffs, pinned=True), t, gamma),
            heat_apply(u0, t),
        ))
    return Trajectory.from_states(states)


def _integrand_store(traj, force, have_force):
    """Contracted integrand spectra of every bilinear term and L4, flattened
    to the 2/3-dealiased modes (every other mode of a dealiased product is
    exactly zero) and stacked per stored time as (T, [dim,] modes); the
    physical transforms are shared across tags.  L3 is the cell density
    itself, kept on every mode as (T, all modes)."""
    grid = traj.grid
    dim = grid.dim
    t_count = len(traj)
    keep = np.flatnonzero(grid.dealias_mask)
    k = [np.broadcast_to(ki, grid.kshape).reshape(-1)[keep] for ki in grid.k]
    inv_k2 = grid.inv_k2.reshape(-1)[keep]
    store = {tag: np.empty((t_count, keep.size), dtype=complex)
             for tag in ("B141", "B112", "B113", "B242", "B212", "B343")}
    store["B444"] = np.empty((t_count, dim, keep.size), dtype=complex)
    if have_force:
        store["L4"] = np.empty((t_count, dim, keep.size), dtype=complex)
    f_phys = force.f.to_physical() if have_force else None

    def packed(values):
        return grid.forward(values).reshape(-1)[keep]

    def div_contract(phys_list):
        return -sum((1j * k[ax]) * packed(vals) for ax, vals in enumerate(phys_list))

    def project(raw, out):
        dot = sum(k[ax] * raw[ax] for ax in range(dim)) * inv_k2
        for j in range(dim):
            out[j] = raw[j] - k[j] * dot

    for kk in range(t_count):
        n_phys = grid.backward(traj.n[kk])
        c_phys = grid.backward(traj.c[kk])
        u_phys = [grid.backward(traj.u[kk, ax]) for ax in range(dim)]
        grad_c = [grid.backward((1j * grid.k[ax]) * traj.c[kk]) for ax in range(dim)]
        grad_v = [grid.backward((1j * grid.k[ax]) * traj.v[kk]) for ax in range(dim)]
        store["B141"][kk] = div_contract([up * n_phys for up in u_phys])
        store["B112"][kk] = div_contract([n_phys * g for g in grad_c])
        store["B113"][kk] = div_contract([n_phys * g for g in grad_v])
        store["B242"][kk] = div_contract([up * c_phys for up in u_phys])
        store["B212"][kk] = -packed(n_phys * c_phys)
        store["B343"][kk] = -packed(sum(a * b for a, b in zip(u_phys, grad_v)))
        # projected divergence of the velocity self-advection tensor
        project([div_contract([u_phys[l] * u_phys[j] for l in range(dim)])
                 for j in range(dim)], store["B444"][kk])
        if have_force:
            project([-packed(n_phys * f_phys[j]) for j in range(dim)], store["L4"][kk])
    store["L3"] = traj.n.reshape(t_count, -1)
    return store


def _duhamel_weights(t, rule, gamma, times, k2_shells):
    """W[j, s]: total weight of stored integrand j at time t on the heat shell
    |xi|^2 = k2_shells[s], summing over the nodes tau = t z the factor
    t w (1-z)^a z^b e^{-(gamma + |xi|^2)(t - tau)} times the log-t
    interpolation weight (clamped below the first stored time).  Rows past
    the last stored time the nodes reach are all zero and left out."""
    z = rule.nodes
    tau = t * z
    lag = t - tau
    scale = t * rule.weights * (1.0 - z) ** rule.a * z ** rule.b * np.exp(-gamma * lag)
    log_times = np.log(times)
    j = np.clip(np.searchsorted(times, tau, side="right") - 1, 0, len(times) - 2)
    theta = np.clip((np.log(tau) - log_times[j]) / (log_times[j + 1] - log_times[j]),
                    0.0, 1.0)
    heat = np.exp(-np.outer(lag, k2_shells))
    weights = np.zeros((int(j.max()) + 2, len(k2_shells)))
    # no BLAS product: waking its worker threads made the cost vary run to run
    for node, row in enumerate(j):
        weights[row] += ((1.0 - theta[node]) * scale[node]) * heat[node]
        weights[row + 1] += (theta[node] * scale[node]) * heat[node]
    return weights


def picard_map(traj, data, config):
    """One application of the integral map: the free evolution of the data
    plus the seven bilinear and two linear Duhamel terms of the input
    trajectory.  Caloric rows are rebuilt from the data per output time,
    so no second trajectory is ever held in memory.  Per output time and
    rule group, one weight matrix over (stored time, heat shell) carries
    the whole quadrature, and each tag's stored stack is contracted once.
    """
    grid = config.grid
    times = config.time_grid.times
    if len(traj) != len(times) or not np.allclose(traj.times, times, rtol=1e-12):
        raise ValueError("trajectory is not defined on the configured time grid")
    defect = divergence_defects(grid, traj.u).max()
    if defect > 1e-8:
        raise ValueError(f"velocity along the trajectory is not solenoidal "
                         f"(defect {defect:.2e})")
    have_force = config.force is not None and \
        any(np.abs(c.coeffs).any() for c in config.force.f.components)
    store = _integrand_store(traj, config.force, have_force)
    rules = config.rules()
    k2 = grid.k2
    zero_idx = (0,) * grid.dim
    dim = grid.dim
    # (shell values, shell of each stored mode, stored modes): the products
    # are stored on the dealiased modes, L3 on every mode
    dealiased = np.flatnonzero(grid.dealias_mask)
    product_shells = np.unique(k2.reshape(-1)[dealiased], return_inverse=True) + (dealiased,)
    all_shells = np.unique(k2.reshape(-1), return_inverse=True) + (slice(None),)

    ks = grid.kshape
    n_new = np.empty((len(times),) + ks, dtype=complex)
    c_new = np.empty_like(n_new)
    v_new = np.empty_like(n_new)
    u_new = np.empty((len(times), dim) + ks, dtype=complex)
    u0 = data.u
    if spectral_divergence_defect(u0) > 1e-10:
        u0 = leray_project(u0)
    for kk, t in enumerate(times):
        decay = np.exp(-t * k2)
        n_new[kk] = data.n.coeffs * decay
        c_new[kk] = data.c.coeffs * decay
        v_new[kk] = data.v.coeffs * (math.exp(-config.gamma * t) * decay)
        for ax in range(dim):
            u_new[kk, ax] = u0.components[ax].coeffs * decay
    v_new[(slice(None),) + zero_idx] = 0.0
    n_flat, c_flat, v_flat = (a.reshape(len(times), -1) for a in (n_new, c_new, v_new))
    u_flat = u_new.reshape(len(times), dim, -1)
    target = {"B141": n_flat, "B112": n_flat, "B113": n_flat, "B242": c_flat,
              "B212": c_flat, "B343": v_flat, "L3": v_flat, "B444": u_flat, "L4": u_flat}

    for kk, t in enumerate(times):
        for group in _RULE_GROUPS:
            if group[0] == "L4" and not have_force:
                continue
            gamma_eff = config.gamma if group[0] in ("B343", "L3") else 0.0
            k2_shells, shell_of, modes = all_shells if group[0] == "L3" else product_shells
            weights = _duhamel_weights(t, rules[group[0]], gamma_eff, times, k2_shells)
            per_mode = weights[:, shell_of]
            for tag in group:
                target[tag][kk][..., modes] += np.einsum(
                    "jm,j...m->...m", per_mode, store[tag][:len(per_mode)])
        # the attractant is defined modulo constants: pin its zero mode
        v_new[(kk,) + zero_idx] = 0.0
    return Trajectory(grid, times.copy(), n_new, c_new, v_new, u_new)


def _trace_norm(traj, config):
    return x_space_norms(traj, config.exps, config.sampling).total


def picard_solve(data, config, constants=None):
    """Iterate x_(m+1) = caloric + B(x_m) from the caloric extension until
    the successive difference falls below tol, recording the trace.

    Divergence (three consecutive growing differences, or a non-finite
    norm) stops the iteration with the diverged flag set.
    """
    trace = IterationTrace(constants=constants)
    x = caloric_extension(data, config.gamma, config.time_grid)
    norm_x = _trace_norm(x, config)
    trace.x_norms.append(norm_x)
    for m in range(config.max_iters):
        x_next = picard_map(x, data, config)
        diff = x_next - x
        d_m = _trace_norm(diff, config)
        norm_next = _trace_norm(x_next, config)
        trace.diffs.append(d_m)
        trace.x_norms.append(norm_next)
        if len(trace.diffs) >= 2:
            prev = trace.diffs[-2]
            trace.ratios.append(d_m / prev if prev > 0 else math.nan)
        trace.iterations = m + 1
        x = x_next
        if not math.isfinite(d_m) or not math.isfinite(norm_next):
            trace.diverged = True
            break
        if d_m <= config.tol * norm_next:
            trace.converged = True
            trace.final_residual = d_m
            break
        tail = trace.ratios[-3:]
        if len(tail) == 3 and all(r > 1.0 for r in tail):
            trace.diverged = True
            break
    if trace.converged:
        trace.final_residual = trace.diffs[-1]
    return x, trace


#: smoothing-estimate measurement behind each constant: source and target
#: Morrey pairs of the heat (or heat-gradient) step in its proof
def _smoothing_pairs(exps):
    p, q, r, n1 = exps.p, exps.q, exps.r, exps.N1
    p1, q1, r1 = exps.p1, exps.q1, exps.r1
    s1 = p1 * q1 / (p1 + q1)
    s2 = r1 * q1 / (r1 + q1)
    s3 = p1 * r1 / (p1 + r1)
    s4 = n1 * q1 / (n1 + q1)
    pq = p * q / (p + q)
    rq = r * q / (r + q)
    pr = p * r / (p + r)
    nq = exps.N * q / (exps.N + q)
    inf = math.inf
    pairs = {
        "C1": (pq, s1, q, q1, True),
        "C2": (rq, s2, q, q1, True),
        "C3": (rq, s2, q, q1, True),
        "C4_1": (p, p1, inf, inf, True),
        "C4_2": (pr, s3, r, r1, True),
        "C5_1": (q, q1, inf, inf, False),
        "C5_2": (q, q1, r, r1, True),
        "C6": (pr, s3, r, r1, True),
        "C7": (p / 2, p1 / 2, p, p1, True),
        "alpha": (q, q1, r, r1, True),
        "beta": (nq, s4, p, p1, False),
    }
    if p1 / 2 < 1:
        raise ValueError("the velocity self-product needs an inner exponent "
                         f"p1 >= 2, got p1 = {p1:g}")
    return pairs


def measured_constants(config, n_fields=None, seed=1234):
    """Empirical smoothing constants times the exact beta factors, for
    every operator constant of the map."""
    exps = config.exps
    grid = config.grid
    if n_fields is None:
        n_fields = 8 if grid.dim == 2 else 5
    pairs = _smoothing_pairs(exps)
    out = {}
    for name, (sp, sp1, dp, dp1, deriv) in pairs.items():
        if name == "beta" and config.force is None:
            out[name] = 0.0
            continue
        c_smooth = smoothing_constant(grid, MorreyIndex(sp, sp1), MorreyIndex(dp, dp1),
                                      derivative=deriv, n_fields=n_fields, seed=seed,
                                      sampling=config.sampling)
        if name in ("alpha", "beta"):
            factor = linear_constant_bound(name, exps,
                                           config.force if name == "beta" else None)
            out[name] = c_smooth * factor
        else:
            out[name] = c_smooth * bilinear_constant_bound(name, exps)
    return out


def smallness_check(data, config, n_fields=None, seed=1234):
    """Assemble the constants table: measured C1..C7, alpha, beta, the
    contraction numbers K1/K2, epsilon = 1/(8 K1 K2), the measured caloric
    extension constant C0, delta = epsilon/C0, and the data verdict."""
    consts = measured_constants(config, n_fields=n_fields, seed=seed)
    bil = {name: consts[name] for name in
           ("C1", "C2", "C3", "C4_1", "C4_2", "C5_1", "C5_2", "C6", "C7")}
    norm_data = data_norm_I(data, config.exps, time_grid=config.time_grid,
                            sampling=config.sampling)
    if norm_data == 0.0:
        c0 = math.nan
    else:
        caloric = caloric_extension(data, config.gamma, config.time_grid)
        c0 = x_space_norms(caloric, config.exps, config.sampling).total / norm_data
    return ConstantsTable.assemble(bil, consts["alpha"], consts["beta"], c0,
                                   data_norm=norm_data)
