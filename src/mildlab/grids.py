"""Periodic space grids and geometric time grids.

The spatial domain is the cube [-L, L)^N sampled on M points per axis,
so every linear operator (heat flow, derivatives, solenoidal projection)
is an exact Fourier multiplier.  Real fields are kept as half-spectra
(``rfftn`` layout) throughout.
"""

import numpy as np
import scipy.fft as sfft


class Grid:
    """Uniform periodic grid on [-L, L)^N with cached wavenumber arrays."""

    def __init__(self, dim, points_per_axis, box_half_width):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        m = int(points_per_axis)
        if m < 8 or m % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {points_per_axis}")
        if box_half_width <= 0:
            raise ValueError(f"box_half_width must be positive, got {box_half_width}")
        self.dim = dim
        self.m = m
        self.box_half_width = float(box_half_width)
        self.spacing = 2.0 * self.box_half_width / m
        self.shape = (m,) * dim
        self.kshape = (m,) * (dim - 1) + (m // 2 + 1,)
        self.cell_volume = self.spacing ** dim

        # angular wavenumbers pi*m/L, index 0 exactly zero
        k1 = 2.0 * np.pi * sfft.fftfreq(m, d=self.spacing)
        k1r = 2.0 * np.pi * sfft.rfftfreq(m, d=self.spacing)
        self.k = []
        for ax in range(dim):
            shp = [1] * dim
            shp[ax] = -1
            base = k1r if ax == dim - 1 else k1
            self.k.append(base.reshape(shp))
        self.k2 = sum(ki ** 2 for ki in self.k)
        inv = np.zeros_like(self.k2)
        np.divide(1.0, self.k2, out=inv, where=self.k2 > 0)
        self.inv_k2 = inv

        # 2/3-rule mask for products
        mode = sfft.fftfreq(m, d=1.0 / m)
        moder = sfft.rfftfreq(m, d=1.0 / m)
        keep = []
        for ax in range(dim):
            shp = [1] * dim
            shp[ax] = -1
            base = moder if ax == dim - 1 else mode
            keep.append(np.abs(base.reshape(shp)) < m / 3.0)
        mask = keep[0]
        for piece in keep[1:]:
            mask = mask & piece
        self.dealias_mask = mask

        x1 = -self.box_half_width + self.spacing * np.arange(m)
        self.x = []
        for ax in range(dim):
            shp = [1] * dim
            shp[ax] = -1
            self.x.append(x1.reshape(shp))
        self._ball_cache = {}

    @property
    def size(self):
        return self.m ** self.dim

    def radius(self):
        """Periodic distance to the origin, per grid point."""
        half = 2.0 * self.box_half_width
        r2 = np.zeros(self.shape)
        for xi in self.x:
            d = np.minimum(np.abs(xi), half - np.abs(xi))
            r2 = r2 + d ** 2
        return np.sqrt(r2)

    def forward(self, values):
        return sfft.rfftn(values)

    def backward(self, coeffs):
        return sfft.irfftn(coeffs, s=self.shape)

    def compatible(self, other):
        return (self.dim == other.dim and self.m == other.m
                and self.box_half_width == other.box_half_width)

    def __repr__(self):
        return f"Grid(dim={self.dim}, m={self.m}, L={self.box_half_width})"


class TimeGrid:
    """Strictly increasing geometric times t_k = t0 * ratio**k."""

    def __init__(self, t0, ratio, count):
        if t0 <= 0:
            raise ValueError(f"t0 must be positive, got {t0}")
        if ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {ratio}")
        if count < 2:
            raise ValueError(f"count must be at least 2, got {count}")
        self.t0 = float(t0)
        self.ratio = float(ratio)
        self.count = int(count)
        self.times = t0 * ratio ** np.arange(self.count)

    @classmethod
    def spanning(cls, t_min, t_max, count):
        """Geometric grid from t_min to t_max inclusive."""
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        ratio = (t_max / t_min) ** (1.0 / (count - 1))
        return cls(t_min, ratio, count)

    @classmethod
    def default_for(cls, grid, count=64):
        """Resolvable diffusion scales of the grid: [h^2, L^2]."""
        return cls.spanning(grid.spacing ** 2, grid.box_half_width ** 2, count)

    def __len__(self):
        return self.count

    def __repr__(self):
        return f"TimeGrid(t0={self.t0:g}, ratio={self.ratio:g}, count={self.count})"
