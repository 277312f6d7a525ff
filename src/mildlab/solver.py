"""The fixed-point engine: caloric extension of the data, the full
integral map on stored trajectories, Picard iteration with a contraction
trace, and the constant bookkeeping behind the smallness threshold.

Data are prepared in ``_free_data`` alone, once per entry point, so the
datum ``smallness_check`` norms is the one ``picard_solve`` evolves; v's
zero mode is written in ``_pin_attractant`` alone.  The map adds its nine
Duhamel terms, by the matched singular rules, to each output's caloric
row.  Integrand spectra are formed once per stored time, on the
2/3-dealiased modes, into column blocks of the output's own rows, which
are then written from the last time to the first.  Damping shifts the
decay rate (|xi|^2 + gamma on v's terms), so one weight matrix per output
time serves each rule, on the distinct rates its terms read.  The
constants are measured in one pass over the smoothing ensemble.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, TimeGrid, whole_number
from .state import StateTuple, Trajectory
from .spectral import heat_apply, leray_project, divergence_defects
from .norms import MorreyIndex, x_space_norms, data_norm_I, smoothing_constant
from .duhamel import QuadratureRule, rule_exponents, constant_bound, ConstantsTable, \
    ForceField, ALL_TAGS, TERMS
from .admissibility import require_admissible, operator_table


def _require_stored(name, traj, grid, time_grid, reads=()):
    """Raise ValueError unless trajectory ``traj`` lives on ``grid`` at the
    times of ``time_grid`` and shares no memory with the arrays ``reads``,
    which are read while it is written."""
    grid.require(traj.grid, name, "the solver grid")
    if not traj.stored_at(time_grid.times):
        raise ValueError(f"{name} is not defined on the configured time grid")
    if any(np.shares_memory(traj.array, b) for b in reads):
        raise ValueError(f"{name} shares memory with an input, "
                         f"which is read while {name} is written")


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
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        self.quad_nodes = whole_number("quad_nodes", self.quad_nodes)
        if not self.quad_nodes >= 2:
            raise ValueError(f"quad_nodes must be at least 2, got {self.quad_nodes}")
        if self.force is not None:
            self.grid.require(self.force.grid, "force", "the solver grid")
            if self.force.n1 != self.exps.N1:
                raise ValueError(f"force is normed at N1 = {self.force.n1:g}, the exponent "
                                 f"set's N1 = {self.exps.N1:g}")
        require_admissible(self.exps)
        if self.gamma != self.exps.gamma:
            raise ValueError(f"config gamma = {self.gamma:g} differs from the exponent "
                             f"set's gamma = {self.exps.gamma:g}")

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


def _free_data(data):
    """The datum the solver norms and evolves: ``data`` itself if u is
    solenoidal, else, with a warning, ``data`` with u Leray-projected."""
    defect = float(divergence_defects(data.grid, data.u.coeffs))
    if not defect <= 1e-10:
        warnings.warn(f"initial velocity has divergence defect {defect:.2e}; projecting")
        return StateTuple(data.t, data.n, data.c, data.v, leray_project(data.u))
    return data


def _pin_attractant(traj):
    """Zero v's mode 0 at every stored time: v is defined modulo constants."""
    traj.v[(slice(None),) + (0,) * traj.grid.dim] = 0.0


def _caloric_row(data, gamma, t, row):
    """Write the free evolution at time t of ``data``, as ``_free_data``
    makes it, into ``row``, one stored time's (3 + N, *kshape) block: each
    component's heat flow in ``Trajectory.ROWS`` order, then v's row
    scaled in place by its damping e^{-gamma t}; v's zero mode is not yet
    pinned.  ``gamma`` is taken as checked."""
    for name, rows in Trajectory.ROWS.items():
        row[rows] = heat_apply(getattr(data, name), t).coeffs
    row[Trajectory.ROWS["v"]] *= np.exp(-gamma * t)


def caloric_extension(data, gamma, time_grid):
    """Free evolution of the data, as ``_free_data`` prepares it, at every
    stored time: the first Picard iterate (e^{tL} n0, e^{tL} c0,
    e^{-gt} e^{tL} v0, e^{tL} u0) in a new trajectory, one ``_caloric_row``
    per stored time, with v's zero mode pinned to 0.  The damping rate
    gamma must be finite and >= 0 (else ValueError), checked here once:
    ``picard_map`` reads a ``SolverConfig``'s, checked with its exponents."""
    if not (0 <= gamma < math.inf):
        raise ValueError(f"caloric extension needs a finite gamma >= 0, got {gamma}")
    data = _free_data(data)
    out = Trajectory.zero(data.grid, time_grid.times.copy())
    for kk, t in enumerate(time_grid.times):
        _caloric_row(data, gamma, t, out.array[kk])
    _pin_attractant(out)
    return out


def _integrand_store(traj, force, cell_fluxes, buffer):
    """Contracted integrand spectra of every bilinear term, of L4 given a
    force, and of L3, as {tags: (modes, stack)} keyed by tuples of tags (a
    group of ``cell_fluxes`` sums its integrands).  ``modes`` indexes the
    flattened half-spectrum and ``stack`` holds those modes per stored time
    as (T, [dim,] modes).  A product keeps the 2/3-dealiased modes (every
    other mode of a dealiased product is exactly zero), and the physical
    transforms are shared across tags.  The product stacks are views of
    consecutive column blocks of ``buffer``, a complex (T, width) array
    whose row j takes stored time j's integrands (ValueError if it is too
    narrow): ``picard_map`` passes its output's rows, which the widest
    store, (6 + 2N) stacks of about (2/3)^N of the modes, fits.  L3 is the
    cell density itself, on every mode (``modes`` is a full slice): its
    stack is a view of n's rows of ``traj.flat()``, not a copy."""
    grid = traj.grid
    dim = grid.dim
    t_count = len(traj)
    keep = np.flatnonzero(grid.dealias_mask)
    k = [np.broadcast_to(ki, grid.kshape).reshape(-1)[keep] for ki in grid.k]
    inv_k2 = grid.inv_k2.reshape(-1)[keep]
    shapes = {tags: () for tags in cell_fluxes + (("B242",), ("B212",), ("B343",))}
    shapes[("B444",)] = (dim,)
    if force is not None:
        shapes[("L4",)] = (dim,)
        f_phys = force.f.to_physical()
    width = sum(math.prod(shape) for shape in shapes.values()) * keep.size
    if buffer.shape[0] != t_count or buffer.shape[1] < width:
        raise ValueError(f"integrand store needs a ({t_count}, >= {width}) buffer, "
                         f"got {buffer.shape}")
    store, start = {}, 0
    for tags, shape in shapes.items():
        stop = start + math.prod(shape) * keep.size
        store[tags] = buffer[:, start:stop].reshape((t_count,) + shape + (keep.size,))
        start = stop

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
    stacks = {tags: (keep, stack) for tags, stack in store.items()}
    stacks[("L3",)] = (slice(None), traj.flat()[:, traj.ROWS["n"]])
    return stacks


def _duhamel_weights(t, rule, times, rates):
    """W[j, s]: total weight of stored integrand j at time t at decay rate
    rates[s] (|xi|^2, plus gamma on v's terms), summing over the nodes
    tau = t z the factor t w (1-z)^a z^b e^{-rates[s] (t - tau)} times the
    log-t interpolation weight (clamped below the first stored time).
    Rows past the last stored time the nodes reach are zero and left out."""
    z = rule.nodes
    tau = t * z
    scale = t * rule.weights * (1.0 - z) ** rule.a * z ** rule.b
    log_times = np.log(times)
    j = np.clip(np.searchsorted(times, tau, side="right") - 1, 0, len(times) - 2)
    theta = np.clip((np.log(tau) - log_times[j]) / (log_times[j + 1] - log_times[j]),
                    0.0, 1.0)
    heat = np.exp(-np.outer(t - tau, rates))
    weights = np.zeros((int(j.max()) + 2, len(rates)))
    # no BLAS product: waking its worker threads made the cost vary run to run
    for node, row in enumerate(j):
        weights[row] += ((1.0 - theta[node]) * scale[node]) * heat[node]
        weights[row + 1] += (theta[node] * scale[node]) * heat[node]
    return weights


def picard_map(traj, data, config, out=None):
    """One application of the integral map: the free evolution of the data
    (``_free_data``) plus the seven bilinear and two linear Duhamel terms of
    the input trajectory, written over every entry of ``out`` when one is
    given, else into a new trajectory; either way the output is returned.
    ``out`` must live on the solver's grid and time grid and share no
    memory with ``traj`` or the data, which are read while it is written
    (L3's stack views ``traj.array``), and every stored velocity must have
    a divergence defect <= 1e-8 (NaN fails); ValueError otherwise.

    The integrand store is written into ``out``'s rows first.  Then, from
    the last output time to the first, each output's caloric row
    (``_caloric_row``) and Duhamel terms are summed in one row buffer and
    copied into its row of ``out``; v's zero mode is pinned once all rows
    are written.  Every node of output k lies below t_k, so it reads
    stored rows up to k only; at k = 0 the clamp below t_0 gives row 1 an
    exact zero weight, and the weights are cut to k + 1 rows.  A stack's
    modes decay at |xi|^2, plus ``config.gamma`` on v's stacks (B343, L3):
    the map's one statement of damping.  The terms of one rule of
    ``config.rules()`` share a weight matrix per output time, on the
    distinct rates of their stacks, each stack reading its own columns.
    """
    config.grid.require(data.grid, "data", "the solver grid")
    _require_stored("trajectory", traj, config.grid, config.time_grid)
    grid = config.grid
    times = config.time_grid.times
    if out is None:
        out = Trajectory.zero(grid, times.copy())
    else:
        _require_stored("out", out, grid, config.time_grid,
                        [traj.array] + [getattr(data, name).coeffs for name in out.ROWS])
    # one stored time at a time: no whole-trajectory temporaries
    defect = np.max([divergence_defects(grid, u) for u in traj.u])
    if not defect <= 1e-8:
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
    data = _free_data(data)
    store = _integrand_store(traj, force, tuple(cell.values()),
                             out.array.reshape(len(times), -1))
    # a rule's weights live on the distinct decay rates of all its stacks
    k2 = grid.k2.reshape(-1)
    rates = {tags: k2[modes] + (config.gamma if TERMS[tags[0]][1] == "v" else 0.0)
             for tags, (modes, _) in store.items()}
    distinct = {rule: np.unique(np.concatenate([r for tags, r in rates.items()
                                                if rules[tags[0]] is rule]))
                for rule in dict.fromkeys(rules[tags[0]] for tags in store)}
    columns = {tags: np.searchsorted(distinct[rules[tags[0]]], r) for tags, r in rates.items()}

    row = np.empty(out.array.shape[1:], dtype=complex)
    flat = row.reshape(row.shape[0], -1)
    for kk in reversed(range(len(times))):
        t = times[kk]
        weights = {rule: _duhamel_weights(t, rule, times, r)[:kk + 1]
                   for rule, r in distinct.items()}
        _caloric_row(data, config.gamma, t, row)
        for tags, (modes, stack) in store.items():
            rows = weights[rules[tags[0]]][:, columns[tags]]
            # the weights are real: the real and imaginary parts contract apart,
            # in real arithmetic, into one complex term
            part = stack[:len(rows)]
            term = np.empty(part.shape[1:], dtype=complex)
            np.einsum("jm,j...m->...m", rows, part.real, out=term.real)
            np.einsum("jm,j...m->...m", rows, part.imag, out=term.imag)
            flat[out.ROWS[TERMS[tags[0]][1]]][..., modes] += term
        # stored row kk is read for the last time above
        out.array[kk] = row
    _pin_attractant(out)
    return out


def picard_solve(data, config, constants=None):
    """Iterate x_(m+1) = caloric + B(x_m) from the caloric extension until
    the successive difference falls below tol, recording the trace.  The
    data are prepared once, by ``_free_data``, and the caloric extension
    and every map evolve that datum.

    The solve holds two trajectories throughout.  x_next - x is formed in
    x's arrays, and once both of its norms are taken, the next map writes
    its output over them; the returned iterate is one of the two.

    Divergence (three consecutive growing differences, or a non-finite
    norm) stops the iteration with the diverged flag set.
    """
    config.grid.require(data.grid, "data", "the solver grid")
    trace = IterationTrace(constants=constants)
    data = _free_data(data)
    x = caloric_extension(data, config.gamma, config.time_grid)
    trace.x_norms.append(x_space_norms(x, config.exps, config.sampling).total)
    spent = None
    for m in range(config.max_iters):
        x_next = picard_map(x, data, config, out=spent)
        # x_next - x overwrites x, which the next map overwrites in turn
        np.subtract(x_next.array, x.array, out=x.array)
        d_m = x_space_norms(x, config.exps, config.sampling).total
        norm_next = x_space_norms(x_next, config.exps, config.sampling).total
        trace.diffs.append(d_m)
        trace.x_norms.append(norm_next)
        if len(trace.diffs) >= 2:
            prev = trace.diffs[-2]
            trace.ratios.append(d_m / prev if prev > 0 else math.nan)
        trace.iterations = m + 1
        x, spent = x_next, x
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
    if not config.exps.p1 / 2 >= 1:   # C7's source pair is (p/2, p1/2)
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
    extension constant C0, delta = epsilon/C0, and the data verdict.  The
    data are prepared once, by ``_free_data``, so the data norm, C0 and
    the verdict are those of the datum ``picard_solve`` evolves."""
    config.grid.require(data.grid, "data", "the solver grid")
    data = _free_data(data)
    consts = measured_constants(config, n_fields=n_fields)
    norm_data = data_norm_I(data, config.exps, time_grid=config.time_grid,
                            sampling=config.sampling)
    if norm_data == 0.0:
        c0 = math.nan
    else:
        caloric = caloric_extension(data, config.gamma, config.time_grid)
        c0 = x_space_norms(caloric, config.exps, config.sampling).total / norm_data
    return ConstantsTable.assemble(consts, c0, data_norm=norm_data)
