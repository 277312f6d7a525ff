"""The fixed-point engine: caloric extension of the data, the full
integral map on stored trajectories, Picard iteration with a contraction
trace, and the constant bookkeeping behind the smallness threshold.

The map adds its nine integral terms, evaluated by the matched singular
rules, in place to the caloric trajectory of ``caloric_extension``.
Integrand spectra are formed once per stored time (with every
lag-independent factor applied) on the 2/3-dealiased modes, the cell
fluxes that share a rule as one.  The map is linear in them, through one
weight matrix per output time for each group of terms that share rule
exponents and damping, on the heat shells the group reads.  The constants
are measured in one pass over the smoothing ensemble.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, TimeGrid, whole_number
from .state import StateTuple, Trajectory
from .spectral import SpectralField, heat_apply, damped_heat_apply, leray_project, \
    divergence_defects
from .norms import MorreyIndex, x_space_norms, data_norm_I, smoothing_constant
from .duhamel import QuadratureRule, rule_exponents, constant_bound, ConstantsTable, \
    ForceField, ALL_TAGS, TERMS
from .admissibility import require_admissible, operator_table


def _require_grid(config, **named):
    """Raise ValueError unless each named object (None aside) lives on the
    config's grid."""
    for name, obj in named.items():
        if obj is not None and not config.grid.compatible(obj.grid):
            raise ValueError(f"{name} lives on {obj.grid!r}, "
                             f"not on the solver grid {config.grid!r}")


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
        self.max_iters = whole_number("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        self.quad_nodes = whole_number("quad_nodes", self.quad_nodes)
        if self.quad_nodes < 2:
            raise ValueError(f"quad_nodes must be at least 2, got {self.quad_nodes}")
        _require_grid(self, force=self.force)
        if self.force is not None and self.force.n1 != self.exps.N1:
            raise ValueError(f"force is normed at N1 = {self.force.n1:g}, the exponent "
                             f"set's N1 = {self.exps.N1:g}")
        if self.gamma != self.exps.gamma:
            raise ValueError(f"config gamma = {self.gamma:g} differs from the exponent "
                             f"set's gamma = {self.exps.gamma:g}")
        require_admissible(self.exps)

    def rules(self):
        """The Gauss-Jacobi rule of every tag, one object per distinct weight.
        Exponents are compared rounded to 12 decimals, because
        ``operator_table`` reaches one value by different float sums (B444
        and L4 at (N, p, q, r) = (3, 5, 2.5, 4)); a shared rule has the
        exponents of the last of its tags in ``ALL_TAGS`` order."""
        exponents = {tag: rule_exponents(tag, self.exps) for tag in ALL_TAGS}
        key_of = {tag: (round(a, 12), round(b, 12)) for tag, (a, b) in exponents.items()}
        last_of = {key: tag for tag, key in key_of.items()}
        shared = {key: QuadratureRule(*exponents[tag], node_count=self.quad_nodes)
                  for key, tag in last_of.items()}
        return {tag: shared[key] for tag, key in key_of.items()}


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


def _solenoidal(u0):
    """The data velocity, Leray-projected with a warning if it is not solenoidal."""
    defect = float(divergence_defects(u0.grid, u0.coeffs))
    if defect > 1e-10:
        warnings.warn(f"initial velocity has divergence defect {defect:.2e}; projecting")
        return leray_project(u0)
    return u0


def caloric_extension(data, gamma, time_grid):
    """Free evolution of the data at every stored time: the first Picard
    iterate (e^{tL} n0, e^{tL} c0, e^{-gt} e^{tL} v0, e^{tL} u0)."""
    u0 = _solenoidal(data.u)
    v0 = SpectralField(data.grid, data.v.coeffs, pinned=True)
    traj = Trajectory.zero(data.grid, time_grid.times.copy())
    for kk, t in enumerate(traj.times):
        traj.n[kk] = heat_apply(data.n, t).coeffs
        traj.c[kk] = heat_apply(data.c, t).coeffs
        traj.v[kk] = damped_heat_apply(v0, t, gamma).coeffs
        traj.u[kk] = heat_apply(u0, t).coeffs
    return traj


def _integrand_store(traj, force, cell_fluxes):
    """Contracted integrand spectra of every bilinear term and, given a
    force, L4, keyed by tuples of tags (a group of ``cell_fluxes`` sums its
    integrands), flattened to the 2/3-dealiased modes (every other mode of
    a dealiased product is exactly zero) and stacked per stored time as
    (T, [dim,] modes); the physical transforms are shared across tags.  L3
    is the cell density itself, kept on every mode as (T, all modes)."""
    grid = traj.grid
    dim = grid.dim
    t_count = len(traj)
    keep = np.flatnonzero(grid.dealias_mask)
    k = [np.broadcast_to(ki, grid.kshape).reshape(-1)[keep] for ki in grid.k]
    inv_k2 = grid.inv_k2.reshape(-1)[keep]
    store = {tags: np.empty((t_count, keep.size), dtype=complex)
             for tags in cell_fluxes + (("B242",), ("B212",), ("B343",))}
    store[("B444",)] = np.empty((t_count, dim, keep.size), dtype=complex)
    if force is not None:
        store[("L4",)] = np.empty((t_count, dim, keep.size), dtype=complex)
        f_phys = force.f.to_physical()

    def packed(values):
        return grid.forward(values).reshape(-1)[keep]

    def div_contract(spectra):
        return -sum((1j * k[ax]) * spec for ax, spec in enumerate(spectra))

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
        carried = {"B141": u_phys, "B112": grad_c, "B113": grad_v}
        for tags in cell_fluxes:
            store[tags][kk] = div_contract(packed(n_phys * sum(parts[1:], parts[0]))
                                           for parts in zip(*(carried[t] for t in tags)))
        store[("B242",)][kk] = div_contract(packed(up * c_phys) for up in u_phys)
        store[("B212",)][kk] = -packed(n_phys * c_phys)
        store[("B343",)][kk] = -packed(sum(a * b for a, b in zip(u_phys, grad_v)))
        # projected divergence of the velocity self-advection tensor, whose
        # dim (dim + 1) / 2 distinct products are each transformed once
        uu = {(l, j): packed(u_phys[l] * u_phys[j]) for l in range(dim) for j in range(l, dim)}
        project([div_contract(uu[min(l, j), max(l, j)] for l in range(dim))
                 for j in range(dim)], store[("B444",)][kk])
        if force is not None:
            project([-packed(n_phys * f_phys[j]) for j in range(dim)], store[("L4",)][kk])
    store[("L3",)] = traj.n.reshape(t_count, -1)
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
    trajectory.  The caloric rows come from ``caloric_extension``, and the
    Duhamel terms are added into that trajectory's arrays in place, so no
    second trajectory is ever held in memory.  Terms that share a rule of
    ``config.rules()`` and damping (gamma on v, else 0) share one weight
    matrix over (stored time, heat shell) per output time, on the shells
    of the modes they read; each stack contracts it at its modes' shells.
    """
    _require_grid(config, data=data, trajectory=traj)
    grid = config.grid
    times = config.time_grid.times
    if len(traj) != len(times) or not np.allclose(traj.times, times, rtol=1e-12):
        raise ValueError("trajectory is not defined on the configured time grid")
    defect = divergence_defects(grid, traj.u).max()
    if defect > 1e-8:
        raise ValueError(f"velocity along the trajectory is not solenoidal "
                         f"(defect {defect:.2e})")
    force = config.force
    if force is not None and not np.abs(force.f.coeffs).any():
        force = None
    rules = config.rules()
    # the cell-flux terms (those added to n) that share a rule are one flux
    cell = {}
    for tag in (tag for tag, (_, target) in TERMS.items() if target == "n"):
        cell[rules[tag]] = cell.get(rules[tag], ()) + (tag,)
    store = _integrand_store(traj, force, tuple(cell.values()))
    target_of = {tags: TERMS[tags[0]][1] for tags in store}
    group_of = {tags: (rules[tags[0]], config.gamma if target_of[tags] == "v" else 0.0)
                for tags in store}
    # a stack's modes, by its length: L3 spans every mode, a product the
    # dealiased ones; a group's weights live on the shells of the modes it reads
    k2 = grid.k2.reshape(-1)
    dealiased = np.flatnonzero(grid.dealias_mask)
    modes = {k2.size: slice(None), dealiased.size: dealiased}
    reads = {(group_of[tags], stack.shape[-1]) for tags, stack in store.items()}
    shells = {group: np.unique(np.concatenate([k2[modes[n]] for g, n in reads if g == group]))
              for group, _ in reads}
    columns = {(group, n): np.searchsorted(shells[group], k2[modes[n]]) for group, n in reads}

    out = caloric_extension(data, config.gamma, config.time_grid)
    # (T, [dim,] modes) views of the output components
    flat = {name: a.reshape(a.shape[:-grid.dim] + (-1,))
            for name, a in (("n", out.n), ("c", out.c), ("v", out.v), ("u", out.u))}
    for kk, t in enumerate(times):
        weights = {group: _duhamel_weights(t, *group, times, k2_shells)
                   for group, k2_shells in shells.items()}
        # one gather at a time, shared by consecutive stacks with its key
        gathered = (None, None)
        for tags, stack in store.items():
            key = (group_of[tags], stack.shape[-1])
            if gathered[0] != key:
                gathered = (key, weights[key[0]][:, columns[key]])
            rows = gathered[1]
            # the weights are real: the real and imaginary parts contract apart,
            # in real arithmetic, into one complex term
            part = stack[:len(rows)]
            term = np.empty(part.shape[1:], dtype=complex)
            np.einsum("jm,j...m->...m", rows, part.real, out=term.real)
            np.einsum("jm,j...m->...m", rows, part.imag, out=term.imag)
            flat[target_of[tags]][kk][..., modes[stack.shape[-1]]] += term
    # the attractant is defined modulo constants: pin its zero mode
    out.v[(slice(None),) + (0,) * grid.dim] = 0.0
    return out


def _trace_norm(traj, config):
    return x_space_norms(traj, config.exps, config.sampling).total


def picard_solve(data, config, constants=None):
    """Iterate x_(m+1) = caloric + B(x_m) from the caloric extension until
    the successive difference falls below tol, recording the trace.

    Divergence (three consecutive growing differences, or a non-finite
    norm) stops the iteration with the diverged flag set.
    """
    _require_grid(config, data=data)
    trace = IterationTrace(constants=constants)
    # project the data velocity once, so the maps' caloric rows do not warn again
    data = StateTuple(data.t, data.n, data.c, data.v, _solenoidal(data.u))
    x = caloric_extension(data, config.gamma, config.time_grid)
    trace.x_norms.append(_trace_norm(x, config))
    for m in range(config.max_iters):
        x_next = picard_map(x, data, config)
        # x_next - x overwrites x, dropped next: no third trajectory is made
        for name in ("n", "c", "v", "u"):
            np.subtract(getattr(x_next, name), getattr(x, name), out=getattr(x, name))
        d_m = _trace_norm(x, config)
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
    return x, trace


def measured_constants(config, n_fields=None):
    """Empirical smoothing constants, measured in one pass, times the exact
    beta factors of every operator constant of the map; a constant whose
    beta factor is 0 (beta without a force) is 0 without a measurement.
    Each constant's smoothing step is its ``operator_table`` row."""
    grid = config.grid
    if n_fields is None:
        n_fields = 8 if grid.dim == 2 else 5
    if config.exps.p1 / 2 < 1:   # C7's source pair is (p/2, p1/2)
        raise ValueError("the velocity self-product needs an inner exponent "
                         f"p1 >= 2, got p1 = {config.exps.p1:g}")
    table = operator_table(config.exps)
    bounds = {name: constant_bound(name, config.exps, config.force) for name in table}
    requests = {name: (MorreyIndex(*row.source), MorreyIndex(*row.target), row.gradient)
                for name, row in table.items() if bounds[name] != 0.0}
    measured = smoothing_constant(grid, requests, n_fields=n_fields, sampling=config.sampling)
    return {name: 0.0 if bound == 0.0 else bound * measured[name]
            for name, bound in bounds.items()}


def smallness_check(data, config, n_fields=None):
    """Assemble the constants table: measured C1..C7, alpha, beta, the
    contraction numbers K1/K2, epsilon = 1/(8 K1 K2), the measured caloric
    extension constant C0, delta = epsilon/C0, and the data verdict."""
    _require_grid(config, data=data)
    consts = measured_constants(config, n_fields=n_fields)
    norm_data = data_norm_I(data, config.exps, time_grid=config.time_grid,
                            sampling=config.sampling)
    if norm_data == 0.0:
        c0 = math.nan
    else:
        caloric = caloric_extension(data, config.gamma, config.time_grid)
        c0 = x_space_norms(caloric, config.exps, config.sampling).total / norm_data
    return ConstantsTable.assemble(consts, c0, data_norm=norm_data)
