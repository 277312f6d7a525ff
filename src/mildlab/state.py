"""State tuples (n, c, v, u) and stored trajectories on geometric time grids.

A trajectory stacks each component's coefficients over the stored times in
the layout of ``spectral``: scalars as (T, *kshape), the velocity as
(T, dim, *kshape), so a state's n, c and u are views of one row of them.
"""

import numpy as np

from .spectral import SpectralField, VectorField, spectral_divergence_defect


class StateTuple:
    """The 4-tuple (cell density, oxygen, attractant, velocity) at one time.

    ``t = 0`` is used for initial data; trajectory states carry t > 0.
    The attractant component v is pinned to zero mean, the velocity u is
    solenoidal up to spectral round-off.
    """

    __slots__ = ("t", "n", "c", "v", "u")

    def __init__(self, t, n, c, v, u):
        self.t = float(t)
        self.n = n
        self.c = c
        self.v = v
        self.u = u

    @classmethod
    def zero(cls, grid, t=0.0):
        return cls(t, SpectralField.zero(grid), SpectralField.zero(grid),
                   SpectralField.zero(grid, pinned=True), VectorField.zero(grid))

    @property
    def grid(self):
        """n's grid; raises ValueError if c, v or u lives on another."""
        grid = self.n.grid
        for name in ("c", "v", "u"):
            other = getattr(self, name).grid
            if not grid.compatible(other):
                raise ValueError(f"state component {name} lives on {other!r}, "
                                 f"not on n's grid {grid!r}")
        return grid

    def validate(self, div_tol=1e-10):
        problems = []
        dim = self.grid.dim
        if abs(self.v.coeffs[(0,) * dim]) != 0.0:
            problems.append("v zero mode is not pinned to 0")
        defect = spectral_divergence_defect(self.u)
        if defect > div_tol:
            problems.append(f"u divergence defect {defect:.2e} exceeds {div_tol:.0e}")
        return problems

    def __sub__(self, other):
        return StateTuple(self.t, self.n - other.n, self.c - other.c,
                          self.v - other.v, self.u - other.u)


class Trajectory:
    """States stored at every point of a geometric time grid."""

    def __init__(self, grid, times, n, c, v, u):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        if self.times.size == 0:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.times) <= 0) or np.any(self.times <= 0):
            raise ValueError("trajectory times must be positive and strictly increasing")
        self.n = n
        self.c = c
        self.v = v
        self.u = u

    @classmethod
    def from_states(cls, states):
        if not states:
            raise ValueError("empty trajectory")
        grid = states[0].grid
        times = [s.t for s in states]
        return cls(grid, times, *(np.stack([getattr(s, name).coeffs for s in states])
                                  for name in ("n", "c", "v", "u")))

    @classmethod
    def zero(cls, grid, times):
        shapes = [(len(times),) + grid.kshape] * 3 + [(len(times), grid.dim) + grid.kshape]
        return cls(grid, times, *(np.zeros(shape, dtype=complex) for shape in shapes))

    def __len__(self):
        return len(self.times)

    def field(self, name, k):
        """Component ``name`` (n, c, v or u) at stored time k as a view of the
        stored coefficients, so ``validate`` sees v's zero mode as stored."""
        if name == "u":
            return VectorField.from_coeffs(self.grid, self.u[k])
        return SpectralField(self.grid, getattr(self, name)[k])

    def state(self, k):
        """The state at stored time k, its fields as ``field`` makes them."""
        return StateTuple(self.times[k], *(self.field(name, k) for name in "ncvu"))

    def copy(self):
        return Trajectory(self.grid, self.times.copy(), self.n.copy(), self.c.copy(),
                          self.v.copy(), self.u.copy())

    def __sub__(self, other):
        if not self.grid.compatible(other.grid):
            raise ValueError(f"trajectories live on different grids: "
                             f"{self.grid!r} and {other.grid!r}")
        if not np.array_equal(self.times, other.times):
            raise ValueError("trajectories live on different time grids")
        return Trajectory(self.grid, self.times, self.n - other.n, self.c - other.c,
                          self.v - other.v, self.u - other.u)
