"""Exactness of the Fourier-side operators: heat flow, derivatives,
solenoidal projection, lattice rescaling; the periodic displacement
behind the centred field recipes."""

import math

import numpy as np
import pytest

from mildlab.admissibility import ExponentSet
from mildlab.duhamel import QuadratureRule
from mildlab.grids import Grid, TimeGrid
from mildlab.norms import BallSampling
from mildlab.spectral import (SpectralField, VectorField, heat_apply, leray_project,
                              rescale_field, gradient, divergence_defects)
from mildlab.fields import (gaussian, gaussian_evolved, solenoidal_gaussian, random_band_limited,
                            bump)
from mildlab.state import StateTuple, Trajectory


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 96, 16.0)


def rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("dim", [2, 3])
def test_vector_to_physical_is_per_component_backward(dim):
    # a stack is transformed field by field, with no stack-sized temporary
    g = Grid(dim, 16, 2.0)
    v = gradient(random_band_limited(g, seed=3))
    values = v.to_physical()
    assert values.shape == (dim,) + g.shape
    assert np.array_equal(values, np.stack([g.backward(c) for c in v.coeffs]))


def test_round_trip_identity(grid):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(grid.shape)
    f = SpectralField.from_physical(grid, vals)
    assert rel(f.to_physical(), vals) < 1e-12


def test_wavenumber_zero_mode(grid):
    for k in grid.k:
        assert k.ravel()[0] == 0.0


def test_heat_gaussian_closed_form(grid):
    f = gaussian(grid, a=1.0)
    for t in (0.1, 0.7, 2.0):
        expected = gaussian_evolved(grid, 1.0, t)
        got = heat_apply(f, t)
        assert rel(got.to_physical(), expected.to_physical()) < 1e-10


def test_heat_constant_field(grid):
    one = SpectralField.from_physical(grid, np.ones(grid.shape))
    out = heat_apply(one, 3.7)
    assert rel(out.to_physical(), np.ones(grid.shape)) < 1e-13


def test_heat_t0_identity(grid):
    f = random_band_limited(grid, seed=3)
    out = heat_apply(f, 0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_heat_negative_t_rejected(grid):
    f = gaussian(grid)
    with pytest.raises(ValueError):
        heat_apply(f, -0.1)


def test_semigroup_law(grid):
    f = random_band_limited(grid, seed=5)
    a = heat_apply(heat_apply(f, 0.3), 0.9)
    b = heat_apply(f, 1.2)
    assert rel(a.coeffs, b.coeffs) < 1e-12


def test_heat_grad_constant_is_zero(grid):
    one = SpectralField.from_physical(grid, np.ones(grid.shape))
    out = gradient(heat_apply(one, 0.5))
    assert np.abs(out.to_physical()).max() < 1e-14


def test_heat_grad_gaussian_closed_form(grid):
    a, t = 1.5, 0.4
    f = gaussian(grid, a=a)
    got = gradient(heat_apply(f, t)).to_physical()[1]
    at = a + 2 * t
    expected = gaussian_evolved(grid, a, t).to_physical() * (-grid.x[1] / at)
    assert rel(got, expected) < 1e-10


def test_heat_grad_single_mode(grid):
    k = np.pi * 2 / grid.box_half_width   # mode index 2 on axis 0
    vals = np.sin(k * (grid.x[0] + 0 * grid.x[1]))
    f = SpectralField.from_physical(grid, vals)
    t = 0.3
    got = gradient(heat_apply(f, t)).to_physical()[0]
    expected = k * np.cos(k * (grid.x[0] + 0 * grid.x[1])) * np.exp(-t * k ** 2)
    assert rel(got, expected) < 1e-12


def test_heat_flows_reject_nan(grid):
    # an all-NaN field is not a heat flow: NaN fails every guard
    f = gaussian(grid)
    with pytest.raises(ValueError, match="^heat flow needs a finite t >= 0, got nan$"):
        heat_apply(f, math.nan)


def test_heat_flow_rejects_an_infinite_time(grid):
    # at t = inf the multiplier exp(-t |xi|^2) would be NaN at the zero mode
    with pytest.raises(ValueError, match="^heat flow needs a finite t >= 0, got inf$"):
        heat_apply(gaussian(grid), math.inf)


def test_leray_annihilates_gradients(grid):
    phi = random_band_limited(grid, seed=13)
    g = gradient(phi)
    out = leray_project(g)
    scale = max(np.abs(c.coeffs).max() for c in g.components)
    assert max(np.abs(c.coeffs).max() for c in out.components) < 1e-12 * scale


def test_leray_fixes_solenoidal(grid):
    u = solenoidal_gaussian(grid, a=2.0)
    out = leray_project(u)
    for a, b in zip(out.components, u.components):
        assert rel(a.coeffs, b.coeffs) < 1e-12


def test_leray_idempotent_and_divergence_free(grid):
    comps = [random_band_limited(grid, seed=17 + i) for i in range(grid.dim)]
    u = VectorField.from_components(comps)
    pu = leray_project(u)
    ppu = leray_project(pu)
    assert divergence_defects(grid, pu.coeffs) < 1e-12
    for a, b in zip(ppu.components, pu.components):
        assert rel(a.coeffs, b.coeffs) < 1e-13


def test_projected_velocity_stays_solenoidal_through_physical_space():
    # a real field's Nyquist mode has no sign, so the odd symbols are zero
    # there and a projected field keeps no divergence a round trip could show
    grid = Grid(3, 16, 2.0)
    noise = np.random.default_rng(0).standard_normal((3,) + grid.shape)
    u = leray_project(VectorField.from_physical(grid, noise))
    assert divergence_defects(grid, u.coeffs) < 1e-15
    back = VectorField.from_physical(grid, u.to_physical())
    assert divergence_defects(grid, back.coeffs) < 1e-15


def test_leray_passes_zero_mode(grid):
    vals = [np.full(grid.shape, 2.5), np.full(grid.shape, -1.0)]
    u = VectorField.from_physical(grid, vals)
    out = leray_project(u)
    assert rel(out.components[0].to_physical(), vals[0]) < 1e-13


def test_rescale_identity(grid):
    f = random_band_limited(grid, seed=19)
    out = rescale_field(f, 1, degree=0.0)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_rescale_constant_degree_zero(grid):
    one = SpectralField.from_physical(grid, np.full(grid.shape, 3.0))
    out = rescale_field(one, 2, degree=0.0)
    assert rel(out.to_physical(), 3.0 * np.ones(grid.shape)) < 1e-13


def test_rescale_gaussian_closed_form(grid):
    # compare on |x| <= L/2: outside it the torus map x -> 2x wraps and
    # the rescaled field legitimately shows the periodic image
    f = gaussian(grid, a=4.0)
    out = rescale_field(f, 2, degree=2.0)
    expected = 4.0 * gaussian(grid, a=1.0).to_physical()
    window = grid.radius() <= grid.box_half_width / 2
    err = np.abs(out.to_physical() - expected)[window].max()
    assert err / np.abs(expected).max() < 1e-10


def test_rescale_rejects_off_lattice(grid):
    with pytest.raises(ValueError):
        rescale_field(gaussian(grid), 1.5, degree=1.0)


def test_scaling_commutes_with_heat(grid):
    # width chosen so the lambda-compressed Gaussian stays grid-resolved
    f = gaussian(grid, a=4.0)
    lam, t, deg = 2, 0.04, 2.0
    a = heat_apply(rescale_field(f, lam, deg), t)
    b = rescale_field(heat_apply(f, lam ** 2 * t), lam, deg)
    assert rel(a.to_physical(), b.to_physical()) < 1e-10


def test_pinned_field_keeps_zero_mode(grid):
    f = SpectralField(grid, grid.forward(np.random.default_rng(31).standard_normal(grid.shape)),
                      pinned=True)
    assert f.coeffs[0, 0] == 0.0
    out = heat_apply(f, 0.4)
    assert out.coeffs[0, 0] == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_vector_operators_act_per_component(dim):
    # one (dim, *kshape) array: each operator broadcasts over the leading axis
    # and gives, bit for bit, the scalar operator on each component
    grid = Grid(dim, 16, 4.0)
    comps = [random_band_limited(grid, seed=41 + i) for i in range(dim)]
    u = VectorField.from_components(comps)
    assert u.coeffs.shape == (dim,) + grid.kshape
    for op in (lambda f: heat_apply(f, 0.3), lambda f: f * grid.dealias_mask,
               lambda f: rescale_field(f, 2, 1.0)):
        out = op(u)
        assert isinstance(out, VectorField)
        for ax, comp in enumerate(comps):
            assert np.array_equal(out.coeffs[ax], op(comp).coeffs)
    dot = sum(k * comp.coeffs for k, comp in zip(grid.k, comps)) * grid.inv_k2
    projected = leray_project(u)
    for ax, (k, comp) in enumerate(zip(grid.k, comps)):
        assert np.array_equal(projected.coeffs[ax], comp.coeffs - k * dot)
        assert np.array_equal(projected.components[ax].coeffs, projected.coeffs[ax])


def test_trajectory_state_velocity_is_a_view():
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 3).times)
    u = traj.state(1).u
    assert isinstance(u, VectorField) and np.shares_memory(u.coeffs, traj.u)
    traj.u[1, 0, 2, 3] = 1.0
    assert u.components[0].coeffs[2, 3] == 1.0


def test_trajectory_state_sees_the_stored_v_mean():
    # v is read as stored, not re-pinned, so a map that leaves v's zero
    # mode non-zero is caught
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 3).times)
    traj.v[1, 0, 0] = 0.5
    assert traj.state(0).validate() == []
    assert traj.state(1).validate() == ["v zero mode is not pinned to 0"]
    assert np.shares_memory(traj.field("v", 1).coeffs, traj.v)


def test_trajectory_state_reports_a_divergent_velocity():
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 3).times)
    traj.u[1, 0] = gaussian(grid, a=1.0).coeffs
    defect = float(divergence_defects(grid, traj.u[1]))
    assert defect > 1e-3
    assert traj.state(0).validate() == []
    assert traj.state(1).validate() == [f"u divergence defect {defect:.2e} exceeds 1e-10"]


def test_trajectory_state_reports_a_nan_velocity():
    grid = Grid(2, 16, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 3).times)
    traj.u[1] = np.nan
    assert traj.state(0).validate() == []
    assert traj.state(1).validate() == ["u divergence defect nan exceeds 1e-10"]


def test_time_grid_spanning_needs_two_times():
    with pytest.raises(ValueError, match="count must be at least 2, got 1"):
        TimeGrid.spanning(0.1, 1.0, 1)


def test_overflowing_time_grid_is_rejected():
    with pytest.raises(ValueError, match=r"overflows: t0=1.0, ratio=1e\+300, count=3"):
        TimeGrid(1.0, 1e300, 3)


@pytest.mark.parametrize("dim", [2, 3])
def test_trajectory_components_are_views_of_one_array(dim):
    grid = Grid(dim, 8, 4.0)
    traj = Trajectory.zero(grid, TimeGrid(0.1, 2.0, 3).times)
    assert traj.array.shape == (3, 3 + dim) + grid.kshape
    for name in "ncvu":
        assert np.shares_memory(getattr(traj, name), traj.array), name
        # a component at one stored time is a transform input as it was
        # when each component was its own array
        assert all(getattr(traj, name)[k].flags.c_contiguous for k in range(len(traj))), name
    mode = (2,) * dim
    traj.array[(1, 0) + mode] = 1.0
    traj.array[(1, 2 + dim) + mode] = 2.0
    assert traj.n[(1,) + mode] == 1.0 and traj.u[(1, dim - 1) + mode] == 2.0


@pytest.mark.parametrize("name", "ncvu")
def test_trajectory_rejects_a_wrong_shape(name):
    # the packed array with the rows of component ``name`` left out
    grid = Grid(2, 16, 4.0)
    good = Trajectory.zero(grid, [0.5, 1.0])
    array = np.delete(good.array, np.arange(5)[Trajectory.ROWS[name]], axis=1)
    rows = 3 if name == "u" else 4
    with pytest.raises(ValueError, match=rf"^trajectory array has shape \(2, {rows}, 16, 9\), "
                                         rf"not \(2, 5, 16, 9\)$"):
        Trajectory(grid, good.times, array)


GOOD_SHAPE = (2, 5, 16, 9)
ARRAY_IT_CANNOT_HOLD = {
    "a velocity row short": (np.zeros((2, 4, 16, 9), dtype=complex),
                             r"^trajectory array has shape \(2, 4, 16, 9\), not \(2, 5, 16, 9\)$"),
    "another grid": (np.zeros((2, 5, 8, 5), dtype=complex),
                     r"^trajectory array has shape \(2, 5, 8, 5\), not \(2, 5, 16, 9\)$"),
    "real": (np.zeros(GOOD_SHAPE), "^trajectory array must be complex and C-contiguous"),
    "fortran order": (np.asfortranarray(np.zeros(GOOD_SHAPE, dtype=complex)),
                      "^trajectory array must be complex and C-contiguous"),
    "strided": (np.zeros((2, 10, 16, 9), dtype=complex)[:, ::2],
                "^trajectory array must be complex and C-contiguous"),
}


@pytest.mark.parametrize("array, message", ARRAY_IT_CANNOT_HOLD.values(),
                         ids=ARRAY_IT_CANNOT_HOLD.keys())
def test_trajectory_rejects_an_array_it_cannot_hold(array, message):
    with pytest.raises(ValueError, match=message):
        Trajectory(Grid(2, 16, 4.0), [0.5, 1.0], array)


@pytest.mark.parametrize("times", [[0.5, math.nan], [0.5, math.inf], [[0.5, 1.0]]],
                         ids=["nan", "inf", "2-D"])
def test_trajectory_rejects_times_that_are_not_1d_and_finite(times):
    with pytest.raises(ValueError, match="^trajectory times must be 1-D and finite$"):
        Trajectory.zero(Grid(2, 16, 4.0), times)


def test_trajectory_from_states_checks_every_state_grid():
    # same shape, another box: only the grid's repr tells them apart
    states = [StateTuple.zero(Grid(2, 16, 4.0), t=t) for t in (0.5, 1.0, 2.0)]
    states[2] = StateTuple.zero(Grid(2, 16, 8.0), t=2.0)
    with pytest.raises(ValueError, match=r"^state 2 lives on Grid\(dim=2, m=16, L=8\.0\), "
                                         r"not on state 0's grid Grid\(dim=2, m=16, L=4\.0\)$"):
        Trajectory.from_states(states)


ACROSS_GRIDS = {
    "scalar add": lambda a, b: SpectralField.zero(a) + SpectralField.zero(b),
    "scalar sub": lambda a, b: SpectralField.zero(a) - SpectralField.zero(b),
    "vector add": lambda a, b: VectorField.zero(a) + VectorField.zero(b),
    "vector sub": lambda a, b: VectorField.zero(a) - VectorField.zero(b),
    "state sub": lambda a, b: StateTuple.zero(a) - StateTuple.zero(b),
}


@pytest.mark.parametrize("combine", ACROSS_GRIDS.values(), ids=ACROSS_GRIDS.keys())
def test_arithmetic_across_grids_is_rejected(combine):
    grid, other = Grid(2, 16, 4.0), Grid(2, 16, 8.0)
    with pytest.raises(ValueError, match=r"^the left operand lives on "
                                         r"Grid\(dim=2, m=16, L=4\.0\), not on the right "
                                         r"operand's grid Grid\(dim=2, m=16, L=8\.0\)$"):
        combine(grid, other)
    assert combine(grid, grid).grid is grid


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name, make", [
    ("box_half_width", lambda bad: Grid(2, 16, bad)),
    ("t0", lambda bad: TimeGrid(bad, 2.0, 4)),
    ("ratio", lambda bad: TimeGrid(0.1, bad, 4)),
    ("radii", lambda bad: BallSampling(1, [0.5, bad])),
    ("node_count", lambda bad: QuadratureRule(0.1, 0.2, bad)),
    ("N", lambda bad: ExponentSet(N=bad, gamma=0.0, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)),
    ("count", lambda bad: TimeGrid.spanning(1.0, 2.0, bad)),
], ids=["L", "t0", "ratio", "radii", "node_count", "N", "spanning count"])
def test_non_finite_sizes_are_rejected(name, make, bad):
    with pytest.raises(ValueError, match=rf"^{name} must .* got .*{bad}"):
        make(bad)


@pytest.mark.parametrize("make, message", [
    (lambda grid: Grid(1, 16, 4.0), r"dim must be 2 or 3, got 1"),
    (lambda grid: Grid(4, 16, 4.0), r"dim must be 2 or 3, got 4"),
    (lambda grid: Grid(2, 15, 4.0), r"points_per_axis must be even and >= 8, got 15"),
    (lambda grid: Grid(2, 6, 4.0), r"points_per_axis must be even and >= 8, got 6"),
    (lambda grid: TimeGrid.spanning(2.0, 1.0, 4), r"need 0 < t_min < t_max"),
    (lambda grid: TimeGrid.spanning(0.0, 1.0, 4), r"need 0 < t_min < t_max"),
    (lambda grid: SpectralField(grid, np.zeros((16, 16), dtype=complex)),
     r"coefficient shape \(16, 16\) does not match \(16, 9\)"),
    (lambda grid: VectorField(grid, np.zeros((16, 9), dtype=complex)),
     r"coefficient shape \(16, 9\) does not match \(2, 16, 9\)"),
    (lambda grid: SpectralField.from_physical(grid, np.zeros((16, 9))),
     r"value shape \(16, 9\) does not match \(16, 16\)"),
    (lambda grid: VectorField.from_physical(grid, np.zeros((16, 16))),
     r"value shape \(16, 16\) does not match \(2, 16, 16\)"),
    (lambda grid: VectorField.from_components([SpectralField.zero(grid)]),
     r"expected 2 components, got 1"),
    (lambda grid: VectorField.from_components([SpectralField.zero(grid)] * 3),
     r"expected 2 components, got 3"),
    (lambda grid: VectorField.from_components([SpectralField.zero(grid),
                                               SpectralField.zero(Grid(2, 16, 8.0))]),
     r"component 1 lives on Grid\(dim=2, m=16, L=8\.0\), "
     r"not on component 0's grid Grid\(dim=2, m=16, L=4\.0\)$"),
], ids=["dim 1", "dim 4", "odd m", "small m", "t_min above t_max", "t_min zero",
        "scalar coeffs", "vector coeffs", "scalar values", "vector values", "one component",
        "three components", "mixed grids"])
def test_malformed_grids_and_fields_are_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make(Grid(2, 16, 4.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_centred_fields_are_rolled_origin_fields(dim):
    # a lattice-point centre one cell from the box edge: every centred
    # recipe is its origin-centred field rolled by whole cells, wrapping
    # across the edge
    grid = Grid(dim, 16, 4.0)
    cells = (grid.m - 1, 1, grid.m - 2)[:dim]
    center = tuple(-grid.box_half_width + grid.spacing * i for i in cells)
    shift = tuple(i - grid.m // 2 for i in cells)
    axes = tuple(range(dim))

    def rolled(values):
        return np.roll(values, shift, axis=axes)

    for recipe in (lambda c: gaussian(grid, a=0.5, center=c),
                   lambda c: bump(grid, radius=1.5, center=c)):
        got = recipe(center).to_physical()
        assert np.abs(got - rolled(recipe(None).to_physical())).max() <= 1e-14
    # narrow, so the stream function is negligible at the half period,
    # where the sign of the displacement is a tie
    u_c = solenoidal_gaussian(grid, a=0.3, center=center).to_physical()
    u_0 = solenoidal_gaussian(grid, a=0.3).to_physical()
    assert max(np.abs(a - rolled(b)).max() for a, b in zip(u_c, u_0)) <= 1e-9
    for c in (center, None, (grid.box_half_width,) * dim, (-3.3, 2.9, 0.7)[:dim]):
        for d in grid.displacement(c):
            assert np.all(np.abs(d) <= grid.box_half_width)
