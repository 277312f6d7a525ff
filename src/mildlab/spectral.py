"""Spectral fields and the exact Fourier-side linear operators.

Fields are real-valued in physical space and stored as half-spectra
(``rfftn`` coefficients): a scalar as one ``kshape`` array, a vector field
as one ``(dim, *kshape)`` array, the layout of a stored trajectory's
velocity.  Both classes are built by one constructor, ``cls(grid, coeffs)``,
the only one that pins a zero mode.  Heat flow, damping, the gradient and
the solenoidal (Leray-Helmholtz) projection are exact diagonal multipliers
that broadcast over a vector's leading axis; products are formed in
physical space and 2/3-dealiased (``grid.dealias_mask``) by the callers
that need them.
"""

import numpy as np


class SpectralField:
    """One real scalar component on a periodic grid; ``VectorField`` shares
    its constructor, transforms and arithmetic.

    The constructor holds ``coeffs`` itself, not a copy.  Given
    ``pinned=True`` it copies them and sets the zero mode to 0, the
    convention for the attractant, which is defined up to constants; the
    field does not record it.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs, pinned=False):
        shape = self._leading(grid) + grid.kshape
        if coeffs.shape != shape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match {shape} on {grid!r}")
        self.grid = grid
        self.coeffs = coeffs
        if pinned:
            self.coeffs = coeffs.copy()
            self.coeffs[(Ellipsis,) + (0,) * grid.dim] = 0.0

    @staticmethod
    def _leading(grid):
        """The axes before the grid's: none for a scalar."""
        return ()

    @classmethod
    def from_physical(cls, grid, values):
        values = np.asarray(values, dtype=float)
        shape = cls._leading(grid) + grid.shape
        if values.shape != shape:
            raise ValueError(f"value shape {values.shape} does not match {shape} on {grid!r}")
        return cls(grid, grid.forward(values))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(cls._leading(grid) + grid.kshape, dtype=complex))

    def to_physical(self):
        return self.grid.backward(self.coeffs)

    def copy(self):
        return self._like(self.coeffs.copy())

    def _like(self, coeffs):
        return type(self)(self.grid, coeffs)

    def __add__(self, other):
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__


class VectorField(SpectralField):
    """dim real components on one grid, held as one (dim, *kshape) array:
    ``VectorField(grid, coeffs)`` holds that array, ``from_components``
    stacks scalar fields, and ``components`` gives them back (views)."""

    __slots__ = ()

    @staticmethod
    def _leading(grid):
        return (grid.dim,)

    @classmethod
    def from_components(cls, components):
        grid = components[0].grid
        if len(components) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(components)}")
        for comp in components[1:]:
            if not grid.compatible(comp.grid):
                raise ValueError("vector components live on different grids")
        return cls(grid, np.stack([comp.coeffs for comp in components]))

    @property
    def components(self):
        return [SpectralField(self.grid, coeffs) for coeffs in self.coeffs]

    def magnitude(self):
        """Pointwise Euclidean magnitude, in physical space; the components
        are transformed one at a time, so no stack-sized copy is held."""
        return np.sqrt(sum(self.grid.backward(c) ** 2 for c in self.coeffs))


def heat_apply(field, t):
    """e^{t Laplacian}: multiplier exp(-t |xi|^2), exactly 1 at t = 0."""
    if t < 0:
        raise ValueError(f"heat flow needs t >= 0, got {t}")
    return field._like(field.coeffs * np.exp(-t * field.grid.k2))


def damped_heat_apply(field, t, gamma):
    """e^{-gamma t} e^{t Laplacian}; the factor is exactly 1 at gamma = 0."""
    if t < 0 or gamma < 0:
        raise ValueError(f"need t >= 0 and gamma >= 0, got t={t}, gamma={gamma}")
    return heat_apply(field, t) * np.exp(-gamma * t)


def gradient(field):
    grid = field.grid
    # each product written in place: stacking them costs a copy (and, on a
    # fresh 32^3 heap, about 375 page faults a call)
    coeffs = np.empty((grid.dim,) + grid.kshape, dtype=complex)
    for ax, k in enumerate(grid.k):
        np.multiply(field.coeffs, 1j * k, out=coeffs[ax])
    return VectorField(grid, coeffs)


def _dot_k(grid, coeffs):
    """xi . u_hat of a (..., dim, *kshape) coefficient stack."""
    return sum(k * comp for k, comp in zip(grid.k, np.moveaxis(coeffs, -grid.dim - 1, 0)))


def divergence_defects(grid, u):
    """max |xi . u_hat| relative to max |u_hat| for every field of a
    (..., dim, *kshape) coefficient stack; 0 for a zero field."""
    spatial = tuple(range(-grid.dim, 0))
    scale = np.sqrt(grid.k2.max()) * np.abs(u).max(axis=(-grid.dim - 1,) + spatial)
    num = np.abs(_dot_k(grid, u)).max(axis=spatial)
    return np.divide(num, scale, out=np.zeros_like(num), where=scale > 0)


def leray_project(vfield):
    """Solenoidal projection: symbol delta_jk - xi_j xi_k / |xi|^2, zero mode untouched."""
    grid = vfield.grid
    dot = _dot_k(grid, vfield.coeffs) * grid.inv_k2
    return vfield._like(vfield.coeffs - np.stack([k * dot for k in grid.k]))


def rescale_field(field, lam, degree):
    """f(x) -> lam^degree f(lam x), exact for integer lattice-compatible lam.

    Integer lam maps grid points to grid points, so the resample is a pure
    index gather; lam = 1 returns an identical copy.
    """
    lam_int = int(round(lam))
    if abs(lam - lam_int) > 1e-12 or lam_int < 1:
        raise ValueError(f"lambda must be a positive integer for this lattice, got {lam}")
    if lam_int == 1:
        return field.copy()
    grid = field.grid
    m = grid.m
    idx = (lam_int * np.arange(m) - (lam_int - 1) * (m // 2)) % m
    gathered = field.to_physical()[(Ellipsis,) + np.ix_(*([idx] * grid.dim))]
    return field._like(grid.forward((lam ** degree) * gathered))
