"""Shared desk-scale scenarios for the solver and experiment tests, the
test-local per-state integrand oracle with its per-node quadrature, and the
Littlewood-Paley form of the Besov-Morrey norm as an oracle for the heat
form."""

import math

import numpy as np
import pytest

from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, VectorField, leray_project
from mildlab.fields import gaussian, solenoidal_gaussian, radial_homogeneous_force, smooth_step
from mildlab.state import StateTuple
from mildlab.admissibility import ExponentSet
from mildlab.duhamel import ForceField
from mildlab.norms import morrey_norm
from mildlab.solver import SolverConfig, smallness_check


def exponents_2d(gamma=0.0):
    return ExponentSet(N=2, gamma=gamma, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)


def exponents_3d(gamma=0.0):
    return ExponentSet(N=3, gamma=gamma, p=4, q=3, r=4, p1=8 / 3, q1=2, r1=8 / 3, N1=2)


def gaussian_data(grid, amplitude=1.0):
    """Offset Gaussian 4-tuple; the offsets keep the advection products of
    the azimuthal velocity from vanishing by symmetry."""
    n0 = gaussian(grid, a=1.0, amplitude=amplitude, center=(1.0, -0.5) + (0.0,) * (grid.dim - 2))
    c0 = gaussian(grid, a=1.5, amplitude=amplitude, center=(-0.7, 0.6) + (0.0,) * (grid.dim - 2))
    v0 = SpectralField(grid, gaussian(grid, a=1.2, amplitude=amplitude,
                                      center=(0.4, 0.8) + (0.0,) * (grid.dim - 2)).coeffs,
                       pinned=True)
    u0 = solenoidal_gaussian(grid, a=1.0, amplitude=amplitude, center=(-1.1, 0.2) + (0.0,) * (grid.dim - 2)) \
        + solenoidal_gaussian(grid, a=1.3, amplitude=0.6 * amplitude,
                              center=(0.9, 0.7) + (0.0,) * (grid.dim - 2))
    return StateTuple(0.0, n0, c0, v0, u0)


def _div_contract(grid, phys_components):
    """-i xi . rfft(components), dealiased: the operator -div e^{s Lap}
    applied before the heat factor."""
    return -sum((1j * grid.k[ax]) * (grid.forward(vals) * grid.dealias_mask)
                for ax, vals in enumerate(phys_components))


def _projected(grid, spectra):
    projected = leray_project(VectorField.from_components([SpectralField(grid, c)
                                                           for c in spectra]))
    return np.stack([c.coeffs for c in projected.components])


def integrand_spectrum(tag, state, force=None):
    """Test-local oracle: the contracted spectral integrand of one Duhamel
    term at one state, on every mode, written per state and per tag
    independently of the solver's stacked store.  The sign and every
    lag-independent factor (derivative contraction, solenoidal projection)
    are applied, so the remaining kernel is the (damped) heat multiplier."""
    grid = state.grid
    n_phys = state.n.to_physical()
    u_phys = state.u.to_physical()
    grad = lambda f: [grid.backward((1j * grid.k[ax]) * f.coeffs) for ax in range(grid.dim)]
    if tag == "B141":
        return _div_contract(grid, [c * n_phys for c in u_phys])
    if tag in ("B112", "B113"):
        source = state.c if tag == "B112" else state.v
        return _div_contract(grid, [n_phys * g for g in grad(source)])
    if tag == "B242":
        return _div_contract(grid, [c * state.c.to_physical() for c in u_phys])
    if tag == "B212":
        return -(grid.forward(n_phys * state.c.to_physical()) * grid.dealias_mask)
    if tag == "B343":
        dot = sum(a * b for a, b in zip(u_phys, grad(state.v)))
        return -(grid.forward(dot) * grid.dealias_mask)
    if tag == "B444":
        return _projected(grid, [_div_contract(grid, [u_l * u_j for u_l in u_phys])
                                 for u_j in u_phys])
    if tag == "L3":
        return state.n.coeffs.copy()
    if tag == "L4":
        f_phys = force.f.to_physical()
        return _projected(grid, [-(grid.forward(n_phys * fj) * grid.dealias_mask)
                                 for fj in f_phys])
    raise ValueError(f"unknown operator tag {tag!r}")


def node_quadrature(grid, rule, t, integrand_at, gamma=0.0):
    """Per-node Duhamel quadrature at time t: the sum over the nodes
    tau = t z of t w (1-z)^a z^b e^{-(gamma + |xi|^2)(t - tau)} F(tau)."""
    acc = 0.0
    for z, w in zip(rule.nodes, rule.weights):
        s = t - t * z
        scale = t * w * (1.0 - z) ** rule.a * z ** rule.b * math.exp(-gamma * s)
        acc = acc + scale * np.exp(-s * grid.k2) * integrand_at(t * z)
    return acc


class LittlewoodPaleyBank:
    """Dyadic frequency blocks from a smooth radial cutoff.

    chi is 1 on [0, 3/2] and supported in [0, 5/3); the blocks
    phi_j(xi) = chi(2^-j |xi|) - chi(2^(1-j) |xi|) telescope to 1 on the
    annuli the window [j_min, j_max] covers, one block past the grid's
    lowest and highest nonzero frequency on each side.
    """

    def __init__(self, grid):
        self.grid = grid
        k = np.sqrt(grid.k2)
        self.j_min = math.floor(math.log2(np.pi / grid.box_half_width)) - 1
        self.j_max = math.ceil(math.log2(k.max())) + 1
        self._absk = k

    @staticmethod
    def cutoff(z):
        """chi: 1 on [0, 3/2], support in [0, 5/3)."""
        z = np.asarray(z, dtype=float)
        return 1.0 - smooth_step((z - 1.5) / (5.0 / 3.0 - 1.5))

    def block_multiplier(self, j):
        return self.cutoff(self._absk / 2.0 ** j) - self.cutoff(self._absk / 2.0 ** (j - 1))

    def blocks(self):
        return range(self.j_min, self.j_max + 1)

    def apply_block(self, field, j):
        return SpectralField(self.grid, field.coeffs * self.block_multiplier(j))

    def partition_defect(self):
        """max |sum_j phi_j - 1| over nonzero lattice frequencies inside
        the covered annulus."""
        total = sum(self.block_multiplier(j) for j in self.blocks())
        covered = (self._absk >= (5.0 / 6.0) * 2.0 ** self.j_min) & \
                  (self._absk <= 1.5 * 2.0 ** self.j_max)
        covered &= self._absk > 0
        if not covered.any():
            return math.inf
        return float(np.abs(total[covered] - 1.0).max())


def besov_morrey_norm_lp(field, idx, s, bank=None):
    """Test-local oracle: the Littlewood-Paley form sup_j 2^{s j}
    ||block_j u||_{M^p_p1}, each block normed on its own by ``morrey_norm``
    (no shared pruning), NaN if any block is."""
    if bank is None:
        bank = LittlewoodPaleyBank(field.grid)
    return float(np.max([2.0 ** (s * j) * morrey_norm(bank.apply_block(field, j), idx)
                         for j in bank.blocks()], initial=0.0))


def scale_data(data, factor):
    return StateTuple(0.0, factor * data.n, factor * data.c,
                      SpectralField(data.grid, factor * data.v.coeffs, pinned=True),
                      factor * data.u)


@pytest.fixture(scope="session")
def small_solve_2d():
    """A converged small-data 2D solve shared across tests: config, data,
    constants table, trajectory and trace."""
    from mildlab.solver import picard_solve

    grid = Grid(2, 96, 16.0)
    exps = exponents_2d()
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 36)
    force = ForceField(radial_homogeneous_force(grid, amplitude=0.02, sigma_cells=2.0), exps.N1)
    config = SolverConfig(exps=exps, grid=grid, time_grid=tg, gamma=0.0,
                          quad_nodes=32, max_iters=50, tol=1e-8, force=force)
    probe = gaussian_data(grid, amplitude=1.0)
    table = smallness_check(probe, config)
    data = scale_data(probe, 0.5 * table.delta / table.data_norm)
    table = smallness_check(data, config)
    assert table.small_enough
    traj, trace = picard_solve(data, config, constants=table)
    return {"grid": grid, "exps": exps, "config": config, "data": data,
            "table": table, "traj": traj, "trace": trace}


@pytest.fixture(scope="session")
def small_solve_3d():
    """The paper's main case, N = 3, solved at half the measured threshold:
    config, data, trajectory and trace."""
    from mildlab.solver import picard_solve

    grid = Grid(3, 16, 4.0)
    exps = exponents_3d()
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 12)
    force = ForceField(radial_homogeneous_force(grid, amplitude=0.02, sigma_cells=2.0),
                       exps.N1)
    config = SolverConfig(exps=exps, grid=grid, time_grid=tg, quad_nodes=12, force=force)
    probe = gaussian_data(grid)
    table = smallness_check(probe, config)
    data = scale_data(probe, 0.5 * table.delta / table.data_norm)
    traj, trace = picard_solve(data, config)
    return {"grid": grid, "exps": exps, "config": config, "data": data,
            "traj": traj, "trace": trace}
