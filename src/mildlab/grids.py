"""Periodic space grids and geometric time grids.

The spatial domain is the cube [-L, L)^N sampled on M points per axis,
so every linear operator (heat flow, derivatives, solenoidal projection)
is an exact Fourier multiplier.  Real fields are kept as half-spectra
(``rfftn`` layout) throughout.
"""

import numpy as np
import scipy.fft as sfft


def whole_number(name, value):
    """``value`` as an int, or a ``ValueError`` naming ``name`` if it is not a whole number."""
    if not (np.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


def _per_axis(values):
    """1-D arrays, one per axis, as sparse arrays that broadcast to the grid."""
    return np.meshgrid(*values, indexing="ij", sparse=True)


class Grid:
    """Uniform periodic grid on [-L, L)^N with cached wavenumber arrays."""

    def __init__(self, dim, points_per_axis, box_half_width):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        m = whole_number("points_per_axis", points_per_axis)
        if m < 8 or m % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {points_per_axis}")
        if not 0 < box_half_width < np.inf:
            raise ValueError(f"box_half_width must be positive and finite, got {box_half_width}")
        self.dim = dim
        self.m = m
        self.box_half_width = float(box_half_width)
        self.spacing = 2.0 * self.box_half_width / m
        self.shape = (m,) * dim
        self.kshape = (m,) * (dim - 1) + (m // 2 + 1,)
        self.cell_volume = self.spacing ** dim
        self._fft_axes = tuple(range(-dim, 0))

        # angular wavenumbers pi*m/L, index 0 exactly zero.  k2 = |xi|^2 keeps
        # the Nyquist index m/2, where the odd-derivative symbol k is 0, as a
        # real field's mode there has no sign; inv_k2 = 1/|k|^2 (Leray, exact)
        full = 2.0 * np.pi * sfft.fftfreq(m, d=self.spacing)
        half = 2.0 * np.pi * sfft.rfftfreq(m, d=self.spacing)
        self.k2 = sum(ki ** 2 for ki in self._spectral_axes(full, half))
        full[m // 2] = half[m // 2] = 0.0
        self.k = self._spectral_axes(full, half)
        k2_odd = sum(ki ** 2 for ki in self.k)
        self.inv_k2 = np.divide(1.0, k2_odd, out=np.zeros_like(k2_odd), where=k2_odd > 0)

        # 2/3-rule mask for products
        modes = self._spectral_axes(sfft.fftfreq(m, d=1.0 / m), sfft.rfftfreq(m, d=1.0 / m))
        self.dealias_mask = np.all(np.broadcast_arrays(*(np.abs(mode) < m / 3.0
                                                         for mode in modes)), axis=0)

        self.x = _per_axis([-self.box_half_width + self.spacing * np.arange(m)] * dim)
        # ``norms``' default sampling, ball spectra, radius factors, wavenumber
        # moduli and smoothing constants
        self._cache = {}

    def _spectral_axes(self, full, half):
        """Per-axis spectral values, the last axis on the half spectrum."""
        return _per_axis([full] * (self.dim - 1) + [half])

    @property
    def size(self):
        return self.m ** self.dim

    def displacement(self, center=None):
        """Minimum-image displacement x - center per axis, each component
        in [-L, L] and broadcastable to the grid shape; center defaults
        to the origin."""
        if center is None:
            center = (0.0,) * self.dim
        period = 2.0 * self.box_half_width
        offsets = [xi - ci for xi, ci in zip(self.x, center)]
        return [d - period * np.round(d / period) for d in offsets]

    def radius(self):
        """Periodic distance to the origin, per grid point."""
        return np.sqrt(sum(d ** 2 for d in self.displacement()))

    def forward(self, values):
        """Half-spectrum of a real field, or of each field of a stack: the
        transform runs over the trailing dim axes only."""
        return sfft.rfftn(values, axes=self._fft_axes)

    def backward(self, coeffs):
        """Real field of a half-spectrum, or of each half-spectrum of a
        stack; a stack is transformed one field at a time into one array, as
        one ``irfftn`` over it makes a stack-sized complex temporary."""
        if coeffs.ndim == self.dim:
            return sfft.irfftn(coeffs, s=self.shape, axes=self._fft_axes)
        out = np.empty(coeffs.shape[:-self.dim] + self.shape)
        for index in np.ndindex(*coeffs.shape[:-self.dim]):
            out[index] = sfft.irfftn(coeffs[index], s=self.shape, axes=self._fft_axes)
        return out

    def compatible(self, other):
        return (self.dim == other.dim and self.m == other.m
                and self.box_half_width == other.box_half_width)

    def require(self, other, what, whose="the grid"):
        """Raise ValueError, naming ``what`` and ``whose`` grid, unless grid
        ``other`` is compatible with this one."""
        if not self.compatible(other):
            raise ValueError(f"{what} lives on {other!r}, not on {whose} {self!r}")

    def __repr__(self):
        return f"Grid(dim={self.dim}, m={self.m}, L={self.box_half_width})"


class TimeGrid:
    """Strictly increasing geometric times t_k = t0 * ratio**k."""

    def __init__(self, t0, ratio, count):
        if not 0 < t0 < np.inf:
            raise ValueError(f"t0 must be positive and finite, got {t0}")
        if not 1 < ratio < np.inf:
            raise ValueError(f"ratio must exceed 1 and be finite, got {ratio}")
        self.count = whole_number("count", count)
        if not self.count >= 2:
            raise ValueError(f"count must be at least 2, got {count}")
        self.t0 = float(t0)
        self.ratio = float(ratio)
        with np.errstate(over="ignore"):
            self.times = t0 * ratio ** np.arange(self.count)
        if not np.isfinite(self.times[-1]):
            raise ValueError(f"t0 * ratio**(count - 1) overflows: t0={t0}, ratio={ratio}, "
                             f"count={count}")

    @classmethod
    def spanning(cls, t_min, t_max, count):
        """Geometric grid from t_min to t_max inclusive."""
        if not (0 < t_min < t_max):
            raise ValueError("need 0 < t_min < t_max")
        # checked before the ratio is formed from it; a count below 2 is
        # rejected by the constructor
        count = whole_number("count", count)
        ratio = (t_max / t_min) ** (1.0 / max(count - 1, 1))
        return cls(t_min, ratio, count)

    @classmethod
    def default_for(cls, grid):
        """64 times over the resolvable diffusion scales of the grid: [h^2, L^2]."""
        return cls.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 64)

    def __repr__(self):
        return f"TimeGrid(t0={self.t0:g}, ratio={self.ratio:g}, count={self.count})"
