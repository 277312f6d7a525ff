"""Beta-function specials, the singular rules and the Duhamel weights,
convergence of the quadrature, the constant bookkeeping, and the contracts
of the nine integral terms through the solver's integrand store and map."""

import math

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import (SpectralField, VectorField, heat_apply, damped_heat_apply,
                              gradient, divergence_defects)
from mildlab.fields import gaussian, solenoidal_gaussian, random_band_limited
from mildlab.state import StateTuple, Trajectory
from mildlab.admissibility import ExponentSet, operator_table
from mildlab.duhamel import (beta_function, QuadratureRule, rule_exponents, constant_bound,
                             ForceField, ConstantsTable, ALL_TAGS)
from mildlab.norms import MorreyIndex, morrey_norm, smoothing_constant, x_space_norms
from mildlab.solver import SolverConfig, _duhamel_weights, _integrand_store, picard_map

from conftest import exponents_2d, exponents_3d, integrand_spectrum, node_quadrature


def worked_3d():
    return ExponentSet(N=3, gamma=0.0, p=4, q=3, r=4, p1=8 / 3, q1=2, r1=8 / 3, N1=2)


def exps_2d():
    return ExponentSet(N=2, gamma=0.0, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)


def test_beta_specials():
    assert abs(beta_function(1, 1) - 1.0) < 1e-10
    assert abs(beta_function(0.5, 0.5) - math.pi) < 1e-10
    assert abs(beta_function(0.5, 1.0) - 2.0) < 1e-10


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_function(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_function(1.0, -0.5)


def test_beta_and_rules_reject_nan():
    for x, y in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="beta function needs positive arguments"):
            beta_function(x, y)
    for a, b in ((math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="non-integrable endpoint weights"):
            QuadratureRule(a, b)


def test_rule_weight_sum_is_beta():
    # the weight alone integrates to b(1-a, 1-b): the scalar Duhamel
    # identity integral_0^t (t-tau)^{-a} tau^{-b} dtau = t^{1-a-b} b(1-a, 1-b)
    pairs = [(0.875, 0.625), (0.5, 0.5), (0.25, 0.75), (0.0, 0.0)]
    pairs += [rule_exponents(tag, exps) for exps in (worked_3d(), exps_2d()) for tag in ALL_TAGS]
    for a, b in pairs:
        rule = QuadratureRule(a, b, 32)
        assert abs(sum(rule.weights) - beta_function(1 - a, 1 - b)) < 1e-10, (a, b)


def test_rule_rejects_nonintegrable():
    with pytest.raises(ValueError):
        QuadratureRule(1.0, 0.5)
    with pytest.raises(ValueError):
        QuadratureRule(0.5, 1.2)


@pytest.mark.parametrize("node_count", [1, 0])
def test_rule_rejects_fewer_than_two_nodes(node_count):
    with pytest.raises(ValueError, match=f"^node_count must be at least 2, got {node_count}$"):
        QuadratureRule(0.5, 0.5, node_count)


def test_rule_exponents_reject_an_unknown_tag():
    with pytest.raises(ValueError, match="^unknown operator tag 'B999'$"):
        rule_exponents("B999", exps_2d())


def test_scalar_duhamel_identity():
    # integral_0^t (t-tau)^{-a} tau^{-b} dtau = t^{1-a-b} b(1-a, 1-b), read
    # off the zero mode of the per-node quadrature, where the heat kernel is 1
    grid = Grid(2, 8, 4.0)
    assert grid.k2.flat[0] == 0.0
    for exps in (worked_3d(), exps_2d()):
        for tag in ALL_TAGS:
            a, b = rule_exponents(tag, exps)
            rule = QuadratureRule(a, b, 32)
            for t in (0.37, 1.0, 5.0):
                got = node_quadrature(grid, rule, t,
                                      lambda tau: (t - tau) ** (-a) * tau ** (-b)).flat[0]
                expected = t ** (1 - a - b) * beta_function(1 - a, 1 - b)
                assert abs(got - expected) / expected < 1e-10, (tag, t)


def test_constant_integrand_against_dense_reference():
    # a constant integrand sees only the weights summed over stored times
    grid = Grid(2, 32, 6.0)
    g = random_band_limited(grid, seed=4)
    times = TimeGrid.spanning(0.01, 1.0, 12).times
    k2_shells, shell_of = np.unique(grid.k2.reshape(-1), return_inverse=True)
    t = 0.8

    def integral(nodes):
        rows = _duhamel_weights(t, QuadratureRule(0.0, 0.0, nodes), times, k2_shells)
        return rows.sum(axis=0)[shell_of].reshape(grid.kshape) * g.coeffs

    got, ref = integral(32), integral(320)
    assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-8


def test_weight_rows_at_shell_zero_carry_the_node_factor():
    # on |xi|^2 = 0 without damping, the interpolation weights of each node
    # sum to 1, so the rows add up to t sum w (1-z)^a z^b
    times = TimeGrid.spanning(0.05, 4.0, 16).times
    k2_shells = np.array([0.0, 0.5, 3.0])
    for exps in (worked_3d(), exps_2d()):
        for tag in ALL_TAGS:
            rule = QuadratureRule(*rule_exponents(tag, exps), 32)
            z = rule.nodes
            for t in (0.01, 0.9, 4.0, 7.5):
                rows = _duhamel_weights(t, rule, times, k2_shells)
                expected = t * np.sum(rule.weights * (1.0 - z) ** rule.a * z ** rule.b)
                assert abs(rows[:, 0].sum() - expected) <= 1e-13 * expected, (tag, t)


def test_weight_rows_at_rate_gamma_carry_the_damped_node_factor():
    # a damped term's shell 0 decays at rate gamma alone: the rows add up
    # to t sum w (1-z)^a z^b e^{-gamma t (1-z)}
    times = TimeGrid.spanning(0.05, 4.0, 16).times
    for gamma in (0.3, 0.7, 2.5):
        rates = np.array([0.0, 0.5, 3.0]) + gamma
        for exps in (worked_3d(), exps_2d()):
            for tag in ALL_TAGS:
                rule = QuadratureRule(*rule_exponents(tag, exps), 32)
                z = rule.nodes
                for t in (0.01, 0.9, 4.0, 7.5):
                    rows = _duhamel_weights(t, rule, times, rates)
                    expected = t * np.sum(rule.weights * (1.0 - z) ** rule.a * z ** rule.b
                                          * np.exp(-gamma * t * (1.0 - z)))
                    assert abs(rows[:, 0].sum() - expected) <= 1e-13 * expected, (gamma, tag, t)


def test_quadrature_convergence_on_smooth_integrand():
    # halving the node spacing moves a caloric-product integral by < 1e-6;
    # the integrand oracle is evaluated at the exact caloric state of each
    # node, since interpolation between stored times is not smooth in tau
    grid = Grid(2, 32, 8.0)
    # centers offset so the advection products are not symmetry-killed
    n0 = gaussian(grid, a=1.0, amplitude=0.1, center=(0.9, -0.4))
    u0 = solenoidal_gaussian(grid, a=1.0, amplitude=0.1)

    def state_at(tau):
        return StateTuple(tau, heat_apply(n0, tau), heat_apply(n0, tau),
                          SpectralField(grid, heat_apply(n0, tau).coeffs, pinned=True),
                          heat_apply(u0, tau))

    # Gaussian-data integrands are analytic at both endpoints, so the
    # matched rule carries no singular weight at all
    t = 1.3
    for tag in ("B141", "B212", "B444"):
        integrand_at = lambda tau: integrand_spectrum(tag, state_at(tau))
        coarse = node_quadrature(grid, QuadratureRule(0.0, 0.0, 32), t, integrand_at)
        fine = node_quadrature(grid, QuadratureRule(0.0, 0.0, 64), t, integrand_at)
        assert np.abs(coarse - fine).max() / np.abs(fine).max() < 1e-6, tag


def test_bilinear_constant_examples():
    # C1 for (N, p, q) = (3, 4, 3) and C7 for (N, p) = (3, 4)
    exps = worked_3d()
    assert abs(constant_bound("C1", exps) - beta_function(1 / 8, 3 / 8)) < 1e-12
    assert abs(constant_bound("C7", exps) - beta_function(1 / 8, 3 / 4)) < 1e-12
    assert abs(constant_bound("C4_1", exps) + constant_bound("C4_2", exps)
               - (beta_function(1 / 8, 7 / 8) + beta_function(1 / 8, 3 / 4))) < 1e-12


def test_boundary_exponent_rejected_with_argument():
    e = ExponentSet(N=3, gamma=0.0, p=3, q=3, r=4, p1=3, q1=3, r1=4, N1=3)
    with pytest.raises(ValueError, match="beta argument"):
        constant_bound("C1", e)


def test_linear_constant_examples():
    exps = worked_3d()
    assert abs(constant_bound("alpha", exps) - beta_function(3 / 8, 1 / 2)) < 1e-12
    grid = Grid(2, 16, 4.0)
    zero = ForceField(VectorField.zero(grid), n1=2.0)
    assert constant_bound("beta", exps_2d(), zero) == 0.0
    f1 = ForceField(solenoidal_gaussian(grid, a=1.0, amplitude=1.0), n1=2.0)
    f2 = ForceField(solenoidal_gaussian(grid, a=1.0, amplitude=2.0), n1=2.0)
    b1 = constant_bound("beta", exps_2d(), f1)
    b2 = constant_bound("beta", exps_2d(), f2)
    assert abs(b2 - 2 * b1) < 1e-10 * b1


def test_constant_bound_is_the_beta_factor_of_every_constant():
    grid = Grid(2, 16, 4.0)
    force = ForceField(solenoidal_gaussian(grid, a=1.0), n1=2.0)
    for exps in (exponents_2d(), exponents_3d()):
        for name, row in operator_table(exps).items():
            expected = beta_function(*row.beta)
            if name == "beta":
                expected *= force.morrey_norm_N_N1
            assert constant_bound(name, exps, force) == expected, name


def test_constant_bound_without_force_and_unknown_name():
    assert constant_bound("beta", exps_2d()) == 0.0
    with pytest.raises(ValueError, match="'C4'"):
        constant_bound("C4", exps_2d())
    with pytest.raises(ValueError, match="'L3'"):
        constant_bound("L3", exps_2d())


def test_force_field_norm_cache_consistent():
    grid = Grid(2, 16, 4.0)
    f = ForceField(solenoidal_gaussian(grid, a=0.8), n1=1.5)
    assert f.morrey_norm_N_N1 == morrey_norm(f.f, MorreyIndex(grid.dim, 1.5))


def test_constants_table_combination():
    exps = worked_3d()
    consts = {name: constant_bound(name, exps)
              for name in ("C1", "C2", "C3", "C4_1", "C4_2", "C5_1", "C5_2", "C6", "C7")}
    alpha = constant_bound("alpha", exps)
    beta = 0.3
    table = ConstantsTable.assemble({**consts, "alpha": alpha, "beta": beta},
                                    c0=1.0, data_norm=0.0)
    c = table.as_dict()
    assert abs(table.k1 - (1 + alpha + beta)) < 1e-14
    expected_k2 = (alpha + beta) * (c["C1"] + c["C2"] + c["C3"]) + \
        c["C1"] + c["C2"] + c["C3"] + c["C4"] + c["C5"] + c["C6"] + c["C7"]
    assert abs(table.k2 - expected_k2) < 1e-12
    assert abs(table.epsilon - 1 / (8 * table.k1 * table.k2)) < 1e-18
    assert table.small_enough


@pytest.fixture(scope="module")
def caloric_setup():
    """The caloric trajectory of offset 2D data on 16 stored times, and a
    force."""
    # scalar profiles sit off-center: advection of a radial profile by the
    # azimuthal test velocity would vanish identically
    grid = Grid(2, 48, 10.0)
    n0 = gaussian(grid, a=1.0, amplitude=0.2, center=(1.1, -0.6))
    c0 = gaussian(grid, a=1.5, amplitude=0.15, center=(-0.8, 0.5))
    v0 = SpectralField(grid, gaussian(grid, a=1.2, amplitude=0.1, center=(0.4, 0.9)).coeffs,
                       pinned=True)
    # two offset vortices: one axisymmetric vortex is a steady Euler flow
    # whose projected self-advection vanishes identically
    u0 = solenoidal_gaussian(grid, a=1.0, amplitude=0.2, center=(-1.2, 0.3)) \
        + solenoidal_gaussian(grid, a=1.4, amplitude=0.15, center=(1.0, 0.8))
    time_grid = TimeGrid.spanning(0.05, 4.0, 16)
    traj = Trajectory.from_states([
        StateTuple(tau, heat_apply(n0, tau), heat_apply(c0, tau),
                   damped_heat_apply(v0, tau, 0.0), heat_apply(u0, tau))
        for tau in time_grid.times])
    force = ForceField(solenoidal_gaussian(grid, a=1.0, amplitude=0.5), n1=2.0)
    return traj, time_grid, force


def scaled(traj, **factors):
    """The trajectory with each named component (n, c, v or u) scaled by its factor."""
    array = traj.array.copy()
    for name, factor in factors.items():
        array[:, traj.ROWS[name]] *= factor
    return Trajectory(traj.grid, traj.times, array)


def unpacked(grid, packed):
    """A store stack (..., dealiased modes) spread back onto every mode."""
    full = np.zeros(packed.shape[:-1] + (grid.dealias_mask.size,), dtype=complex)
    full[..., np.flatnonzero(grid.dealias_mask)] = packed
    return full.reshape(packed.shape[:-1] + grid.kshape)


#: the cell-flux groupings of the integrand store: one stack per term, or one flux
SPLIT = (("B141",), ("B112",), ("B113",))
FUSED = (("B141", "B112", "B113"),)


def rows_like(traj):
    """A buffer with the rows of a trajectory like ``traj``, as ``picard_map``
    lends its output's to the integrand store."""
    return Trajectory.zero(traj.grid, traj.times).array.reshape(len(traj), -1)


def store_of(traj, force, cell_fluxes):
    """The integrand store of ``traj``, in a buffer of its own."""
    return _integrand_store(traj, force, cell_fluxes, rows_like(traj))


def _map_config(time_grid, grid, gamma=0.0, force=None):
    return SolverConfig(exps=exponents_2d(gamma), grid=grid, time_grid=time_grid, gamma=gamma,
                        quad_nodes=16, force=force)


def test_bilinear_zero_argument_gives_zero(caloric_setup):
    traj, _, force = caloric_setup
    tags = ("B141", "B112", "B113", "B212", "L3", "L4")
    full = store_of(traj, force, SPLIT)
    store = store_of(scaled(traj, n=0.0), force, SPLIT)
    for tag in tags:
        assert np.abs(full[(tag,)][1]).max() > 0, tag
        assert np.abs(store[(tag,)][1]).max() == 0.0, tag


def test_bilinear_scaling_in_each_slot(caloric_setup):
    # the fused cell flux n (u + grad c + grad v) is linear in n, and in
    # (u, c, v) jointly
    traj, _, _ = caloric_setup
    lam = 3.0
    base = store_of(traj, None, FUSED)[FUSED[0]][1]
    for slots in ({"n": lam}, {"u": lam, "c": lam, "v": lam}):
        stack = store_of(scaled(traj, **slots), None, FUSED)[FUSED[0]][1]
        assert np.abs(stack - lam * base).max() <= 1e-12 * np.abs(lam * base).max(), slots


def test_l3_stack_is_a_view_of_the_trajectory(caloric_setup):
    # a reshape of the strided n would copy the cell density at every map
    traj, _, _ = caloric_setup
    modes, stack = store_of(traj, None, SPLIT)[("L3",)]
    assert modes == slice(None)
    assert np.shares_memory(stack, traj.array)
    assert np.array_equal(stack, traj.n.reshape(len(traj), -1))


def test_b444_divergence_free(caloric_setup):
    traj, _, _ = caloric_setup
    stack = unpacked(traj.grid, store_of(traj, None, SPLIT)[("B444",)][1])
    assert np.abs(stack).max() > 0
    assert divergence_defects(traj.grid, stack).max() < 1e-12


def test_store_stacks_are_disjoint_column_blocks_of_the_buffer(caloric_setup):
    traj, _, force = caloric_setup
    buffer = rows_like(traj)
    store = _integrand_store(traj, force, SPLIT, buffer)
    products = [stack for tags, (_, stack) in store.items() if tags != ("L3",)]
    # three cell fluxes, B242, B212, B343, and the vectors B444 and L4
    assert len(products) == 8
    for i, stack in enumerate(products):
        assert np.shares_memory(stack, buffer)
        assert not any(np.shares_memory(stack, other) for other in products[i + 1:])
    # stored time j's integrands sit in row j
    first = products[0]
    assert np.array_equal(first[3], buffer[3, :first.shape[-1]])
    narrow = buffer[:, :sum(stack[0].size for stack in products) - 1]
    with pytest.raises(ValueError, match=r"^integrand store needs a \(16, >= \d+\) buffer, "
                                         r"got \(16, \d+\)$"):
        _integrand_store(traj, force, SPLIT, narrow)


@pytest.mark.parametrize("dim, sizes", [(2, range(8, 129, 2)), (3, range(8, 65, 2))])
def test_the_widest_store_fits_in_a_trajectory_row(dim, sizes):
    # every cell flux apart, B242, B212, B343, and the vectors B444 and L4,
    # on the dealiased modes, against the 3 + N fields of a stored time
    for m in sizes:
        mask = Grid(dim, m, 1.0).dealias_mask
        assert (3 + 3 + 2 * dim) * np.count_nonzero(mask) <= (3 + dim) * mask.size, m


@pytest.mark.parametrize("exps", [exponents_2d(), exponents_2d(0.7), exponents_3d(),
                                  exponents_3d(0.7)],
                         ids=["2d", "2d-damped", "3d", "3d-damped"])
def test_weights_of_an_output_time_read_no_later_stored_time(exps):
    # picard_map overwrites stored row k with output k, last to first: the
    # weights of output k must vanish on every row past k
    grid = Grid(exps.N, 8, 4.0)
    time_grid = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    times = time_grid.times
    k2_shells = np.unique(grid.k2)
    for nodes in (4, 24, 32):
        config = SolverConfig(exps=exps, grid=grid, time_grid=time_grid, gamma=exps.gamma,
                              quad_nodes=nodes)
        for rule in set(config.rules().values()):
            for gamma in {0.0, exps.gamma}:
                for k, t in enumerate(times):
                    rows = _duhamel_weights(t, rule, times, k2_shells + gamma)
                    assert not rows[k + 1:].any(), (nodes, rule.a, rule.b, gamma, k)


def test_linear_terms(caloric_setup):
    # with only n nonzero and zero data, the map's output is L3 in v and
    # L4 in u: every bilinear term and the caloric rows vanish
    traj, time_grid, force = caloric_setup
    grid = traj.grid
    config = _map_config(time_grid, grid, gamma=0.3, force=force)
    zero_data = StateTuple.zero(grid)
    out = picard_map(scaled(traj, c=0.0, v=0.0, u=0.0), zero_data, config)
    assert np.abs(out.n).max() == 0.0 and np.abs(out.c).max() == 0.0
    assert np.abs(out.v).max() > 0 and np.abs(out.u).max() > 0
    assert divergence_defects(grid, out.u).max() < 1e-12
    # L3 and L4 of a zero cell density are zero
    out = picard_map(scaled(traj, n=0.0, c=0.0, v=0.0, u=0.0), zero_data, config)
    assert np.abs(out.v).max() == 0.0 and np.abs(out.u).max() == 0.0


def test_linear_l3_is_linear(caloric_setup):
    traj, time_grid, _ = caloric_setup
    grid = traj.grid
    config = _map_config(time_grid, grid, gamma=0.2)
    a = picard_map(scaled(traj, c=0.0, v=0.0, u=0.0), StateTuple.zero(grid), config).v
    b = picard_map(scaled(traj, n=2.0, c=0.0, v=0.0, u=0.0), StateTuple.zero(grid), config).v
    assert np.abs(b - 2 * a).max() <= 1e-12 * np.abs(b).max()


def test_gradient_moving_identity():
    # for solenoidal u: e^{t Lap}(u . grad g) = div e^{t Lap}(u g)
    grid = Grid(2, 48, 8.0)
    u = solenoidal_gaussian(grid, a=1.5, amplitude=1.0, center=(-1.0, 0.4))
    g = gaussian(grid, a=1.0, center=(0.8, 0.6))
    t = 0.4
    u_phys = u.to_physical()
    grads = gradient(g).to_physical()
    adv = SpectralField.from_physical(grid, sum(a * b for a, b in zip(u_phys, grads)))
    lhs = heat_apply(adv * grid.dealias_mask, t)
    prods = grid.forward(np.stack([c * g.to_physical() for c in u_phys])) * grid.dealias_mask
    div = SpectralField(grid, sum(1j * k * comp for k, comp in zip(grid.k, prods)))
    rhs = heat_apply(div, t)
    scale = np.abs(rhs.coeffs).max()
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10 * scale


def test_measured_operator_bound_b141(caloric_setup):
    # weighted norm of B141 stays below (measured smoothing constant) x
    # (beta factor) x ||u||_X4 ||n||_X1, with 10% headroom; with zero data
    # and c = v = 0 the map's cell density is B141 alone
    traj, time_grid, _ = caloric_setup
    grid = traj.grid
    exps = exps_2d()
    traj = scaled(traj, c=0.0, v=0.0)
    config = SolverConfig(exps=exps, grid=grid, time_grid=time_grid, quad_nodes=32)
    out = picard_map(traj, StateTuple.zero(grid), config)
    rec = x_space_norms(traj, exps)
    s1 = exps.p1 * exps.q1 / (exps.p1 + exps.q1)
    pq = exps.p * exps.q / (exps.p + exps.q)
    c_smooth = smoothing_constant(
        grid, {"C1": (MorreyIndex(pq, s1), MorreyIndex(exps.q, exps.q1), True)},
        n_fields=8)["C1"]
    bound = c_smooth * constant_bound("C1", exps) * rec.u_norm * rec.n_norm
    idx_q = MorreyIndex(exps.q, exps.q1)
    l_q = 1 - exps.N / (2 * exps.q)
    for k, t in enumerate(time_grid.times):
        weighted = t ** l_q * morrey_norm(SpectralField(grid, out.n[k]), idx_q)
        assert 0 < weighted <= bound * 1.1, (t, weighted, bound)
