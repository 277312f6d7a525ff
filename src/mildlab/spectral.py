"""Spectral fields and the exact Fourier-side linear operators.

Fields are real-valued in physical space and stored as half-spectra
(``rfftn`` coefficients).  Heat flow, derivatives, damping and the
solenoidal (Leray-Helmholtz) projection are exact diagonal multipliers;
products are formed in physical space and 2/3-dealiased by the callers
that need them.
"""

import numpy as np

from .grids import Grid


class SpectralField:
    """One real scalar component on a periodic grid.

    ``pinned`` records the convention that the zero mode is held at 0,
    used for the chemical-attractant component which is only defined up
    to polynomials.
    """

    __slots__ = ("grid", "coeffs", "pinned")

    def __init__(self, grid, coeffs, pinned=False):
        if coeffs.shape != grid.kshape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match grid {grid.kshape}")
        self.grid = grid
        self.coeffs = coeffs
        self.pinned = bool(pinned)
        if self.pinned:
            self.coeffs = coeffs.copy() if coeffs is not None else coeffs
            self.coeffs[(0,) * grid.dim] = 0.0

    @classmethod
    def from_physical(cls, grid, values, pinned=False):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
        return cls(grid, grid.forward(values), pinned=pinned)

    @classmethod
    def zero(cls, grid, pinned=False):
        return cls(grid, np.zeros(grid.kshape, dtype=complex), pinned=pinned)

    def to_physical(self):
        return self.grid.backward(self.coeffs)

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy(), pinned=self.pinned)

    def mean(self):
        return self.coeffs[(0,) * self.grid.dim].real / self.grid.size

    def _like(self, coeffs, pinned=None):
        return SpectralField(self.grid, coeffs, self.pinned if pinned is None else pinned)

    def __add__(self, other):
        return self._like(self.coeffs + other.coeffs, pinned=self.pinned and other.pinned)

    def __sub__(self, other):
        return self._like(self.coeffs - other.coeffs, pinned=self.pinned and other.pinned)

    def __mul__(self, scalar):
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.coeffs)


class VectorField:
    """dim-length list of scalar components on one shared grid."""

    __slots__ = ("grid", "components")

    def __init__(self, components):
        grid = components[0].grid
        if len(components) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(components)}")
        for comp in components[1:]:
            if not grid.compatible(comp.grid):
                raise ValueError("vector components live on different grids")
        self.grid = grid
        self.components = list(components)

    @classmethod
    def from_physical(cls, grid, values_list):
        return cls([SpectralField.from_physical(grid, v) for v in values_list])

    @classmethod
    def zero(cls, grid):
        return cls([SpectralField.zero(grid) for _ in range(grid.dim)])

    def to_physical(self):
        return [c.to_physical() for c in self.components]

    def copy(self):
        return VectorField([c.copy() for c in self.components])

    def magnitude(self):
        """Pointwise Euclidean magnitude, in physical space."""
        phys = self.to_physical()
        return np.sqrt(sum(p ** 2 for p in phys))

    def __add__(self, other):
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return VectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def __iter__(self):
        return iter(self.components)


def heat_apply(field, t):
    """e^{t Laplacian}: multiplier exp(-t |xi|^2);  t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"heat flow needs t >= 0, got {t}")
    if isinstance(field, VectorField):
        return VectorField([heat_apply(c, t) for c in field.components])
    if t == 0:
        return field.copy()
    return SpectralField(field.grid, field.coeffs * np.exp(-t * field.grid.k2),
                         pinned=field.pinned)


def heat_grad_apply(field, t, axis):
    """partial_axis e^{t Laplacian}: multiplier (i xi_axis) exp(-t |xi|^2), t > 0 only."""
    if t <= 0:
        raise ValueError(f"the derivative kernel is singular at t = 0; got t = {t}")
    grid = field.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    mult = (1j * grid.k[axis]) * np.exp(-t * grid.k2)
    return SpectralField(grid, field.coeffs * mult)


def damped_heat_apply(field, t, gamma):
    """e^{-gamma t} e^{t Laplacian}; gamma = 0 reduces exactly to heat_apply."""
    if t < 0 or gamma < 0:
        raise ValueError(f"need t >= 0 and gamma >= 0, got t={t}, gamma={gamma}")
    out = heat_apply(field, t)
    if gamma == 0:
        return out
    return out * np.exp(-gamma * t)


def derivative(field, axis):
    """partial_axis as the multiplier i xi_axis."""
    grid = field.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    return SpectralField(grid, field.coeffs * (1j * grid.k[axis]))


def gradient(field):
    return VectorField([derivative(field, ax) for ax in range(field.grid.dim)])


def divergence(vfield):
    grid = vfield.grid
    coeffs = sum((1j * grid.k[ax]) * vfield.components[ax].coeffs for ax in range(grid.dim))
    return SpectralField(grid, coeffs)


def divergence_defects(grid, u):
    """max |xi . u_hat| relative to max |u_hat| for every field of a
    (..., dim, *kshape) coefficient stack; 0 for a zero field."""
    spatial = tuple(range(-grid.dim, 0))
    dot = sum(k * comp for k, comp in zip(grid.k, np.moveaxis(u, -grid.dim - 1, 0)))
    scale = np.sqrt(grid.k2.max()) * np.abs(u).max(axis=(-grid.dim - 1,) + spatial)
    num = np.abs(dot).max(axis=spatial)
    return np.divide(num, scale, out=np.zeros_like(num), where=scale > 0)


def spectral_divergence_defect(vfield):
    """max |xi . u_hat| relative to max |u_hat|; 0 for the zero field."""
    return float(divergence_defects(vfield.grid,
                                    np.stack([c.coeffs for c in vfield.components])))


def leray_project(vfield):
    """Solenoidal projection: symbol delta_jk - xi_j xi_k / |xi|^2, zero mode untouched."""
    grid = vfield.grid
    dot = sum(grid.k[ax] * vfield.components[ax].coeffs for ax in range(grid.dim))
    dot = dot * grid.inv_k2
    comps = [SpectralField(grid, vfield.components[ax].coeffs - grid.k[ax] * dot)
             for ax in range(grid.dim)]
    return VectorField(comps)


def dealias(field):
    """2/3-rule truncation, applied after physical-space products."""
    if isinstance(field, VectorField):
        return VectorField([dealias(c) for c in field.components])
    return SpectralField(field.grid, field.coeffs * field.grid.dealias_mask,
                         pinned=field.pinned)


def rescale_field(field, lam, degree):
    """f(x) -> lam^degree f(lam x), exact for integer lattice-compatible lam.

    Integer lam maps grid points to grid points, so the resample is a pure
    index gather; lam = 1 returns an identical copy.
    """
    if isinstance(field, VectorField):
        return VectorField([rescale_field(c, lam, degree) for c in field.components])
    lam_int = int(round(lam))
    if abs(lam - lam_int) > 1e-12 or lam_int < 1:
        raise ValueError(f"lambda must be a positive integer for this lattice, got {lam}")
    if lam_int == 1:
        if degree == 0:
            return field.copy()
        return field * (1.0 ** degree)
    grid = field.grid
    m = grid.m
    idx = (lam_int * np.arange(m) - (lam_int - 1) * (m // 2)) % m
    vals = field.to_physical()
    gathered = vals[np.ix_(*([idx] * grid.dim))]
    out = SpectralField.from_physical(grid, (lam ** degree) * gathered, pinned=field.pinned)
    return out


def multiply(f, g):
    """Pointwise product of two scalar fields, dealiased."""
    prod = f.to_physical() * g.to_physical()
    return dealias(SpectralField.from_physical(f.grid, prod))


def relative_difference(a, b):
    """max |a - b| / max |b| on coefficients (0 when both vanish)."""
    num = np.abs(a.coeffs - b.coeffs).max()
    den = np.abs(b.coeffs).max()
    if den == 0:
        return 0.0 if num == 0 else np.inf
    return float(num / den)
