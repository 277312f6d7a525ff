"""Named field recipes: Gaussians, mollified homogeneous profiles, bumps,
band-limited random fields.

Homogeneous profiles (degrees -2, -1, 0) are softened at a core scale of a
few cells and cut off by a smooth radial envelope inside the box, so they
are grid-representable; self-similarity checks restrict attention to the
window between those two scales.
"""

import numpy as np

from .spectral import SpectralField, VectorField, heat_apply, leray_project


def gaussian(grid, a=1.0, amplitude=1.0, center=None):
    """amplitude * exp(-|x - c|^2 / (2a)); heat flow sends a -> a + 2t."""
    r2 = sum(d ** 2 for d in grid.displacement(center))
    return SpectralField.from_physical(grid, amplitude * np.exp(-r2 / (2.0 * a)))


def gaussian_evolved(grid, a, t, amplitude=1.0, center=None):
    """Closed form of the heat-evolved Gaussian, for oracle comparisons."""
    at = a + 2.0 * t
    r2 = sum(d ** 2 for d in grid.displacement(center))
    amp = amplitude * (a / at) ** (grid.dim / 2.0)
    return SpectralField.from_physical(grid, amp * np.exp(-r2 / (2.0 * at)))


def _planar_vector(grid, first, second):
    """The velocity (first, second[, 0]) from physical values."""
    zeros = [np.zeros(grid.shape)] * (grid.dim - 2)
    return VectorField.from_physical(grid, [first, second] + zeros)


def solenoidal_gaussian(grid, a=1.0, amplitude=1.0, center=None):
    """Divergence-free velocity from a Gaussian stream function."""
    disp = grid.displacement(center)
    r2 = sum(d ** 2 for d in disp)
    psi = amplitude * np.exp(-r2 / (2.0 * a))
    # planar curl (d_y psi, -d_x psi[, 0]) is exactly solenoidal
    return leray_project(_planar_vector(grid, psi * (-disp[1] / a), psi * (disp[0] / a)))


def smooth_step(s):
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        g = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return f / (f + g)


def radial_envelope(grid, r_on, r_off):
    """1 inside r_on, smooth C-infinity transition to 0 at r_off."""
    r = grid.radius()
    return 1.0 - smooth_step((r - r_on) / (r_off - r_on))


def _homogeneous_envelope(grid):
    """The cut-off of the homogeneous profiles: 1 inside 0.44 L, 0 from L/2."""
    ell = grid.box_half_width
    return radial_envelope(grid, 0.44 * ell, 0.5 * ell)


def bump(grid, radius, amplitude=1.0, center=None):
    """Compactly supported C-infinity bump of the given radius."""
    s = sum(d ** 2 for d in grid.displacement(center)) / radius ** 2
    vals = np.zeros(grid.shape)
    inside = s < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
    return SpectralField.from_physical(grid, vals)


def mollify(field, sigma):
    """Gaussian mollification at scale sigma, done spectrally."""
    if sigma <= 0:
        return field
    return heat_apply(field, 0.5 * sigma ** 2)


def homogeneous_scalar(grid, degree, amplitude=1.0, sigma_cells=2.0, angular=None):
    """Mollified, enveloped sample of amplitude * |x|^degree.

    The raw profile is sampled with the radius floored at half a cell,
    mollified at sigma_cells grid cells, and truncated by a smooth radial
    envelope between 0.44 L and L/2.  ``angular`` may supply a degree-0
    directional factor, called as angular(grid, r_soft).
    """
    h = grid.spacing
    r = grid.radius()
    r_soft = np.maximum(r, 0.5 * h)
    vals = amplitude * r_soft ** degree
    if angular is not None:
        vals = vals * angular(grid, r_soft)
    vals = vals * _homogeneous_envelope(grid)
    field = SpectralField.from_physical(grid, vals)
    return mollify(field, sigma_cells * h)


def azimuthal_homogeneous_velocity(grid, amplitude=1.0, sigma_cells=2.0):
    """Degree -1 homogeneous velocity (-x2, x1, 0)/|x|^2, exactly solenoidal.

    Radial factors (core softening, envelope) preserve solenoidality of
    this azimuthal profile; a final projection removes grid round-off.
    """
    h = grid.spacing
    r = grid.radius()
    r_soft = np.maximum(r, 0.5 * h)
    base = amplitude * _homogeneous_envelope(grid) / r_soft ** 2
    u = _planar_vector(grid, -grid.x[1] * base, grid.x[0] * base)
    return leray_project(mollify(u, sigma_cells * h))


def radial_homogeneous_force(grid, amplitude=1.0, sigma_cells=2.0):
    """Degree -1 homogeneous force x/|x|^2, mollified and enveloped."""
    h = grid.spacing
    r = grid.radius()
    r_soft = np.maximum(r, 0.5 * h)
    base = amplitude * _homogeneous_envelope(grid) / r_soft ** 2
    comps = [xi * base for xi in grid.x]
    f = VectorField.from_physical(grid, comps)
    return mollify(f, sigma_cells * h)


def random_band_limited(grid, seed, corr_cells=4.0):
    """Smooth random field of zero mean: white noise filtered by a Gaussian
    spectrum, normalized to peak amplitude 1."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    field = SpectralField.from_physical(grid, noise)
    xi_c = 2.0 * np.pi / (corr_cells * grid.spacing)
    k_cut = 0.75 * np.pi / grid.spacing
    coeffs = field.coeffs * np.exp(-grid.k2 / xi_c ** 2) * (grid.k2 < k_cut ** 2)
    coeffs[(0,) * grid.dim] = 0.0
    out = SpectralField(grid, coeffs)
    peak = np.abs(out.to_physical()).max()
    if peak > 0:
        out = out * (1.0 / peak)
    return out
