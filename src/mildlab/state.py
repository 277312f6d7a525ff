"""State tuples (n, c, v, u) and stored trajectories on geometric time grids.

A trajectory packs the coefficients of every stored state into one array
of shape (T, 3 + N, *kshape), in the rows ``Trajectory.ROWS`` names, so its
components, and a state's fields, are views of it.
"""

import numpy as np

from .spectral import SpectralField, VectorField, divergence_defects


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
                   SpectralField.zero(grid), VectorField.zero(grid))

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
        defect = float(divergence_defects(self.grid, self.u.coeffs))
        if not defect <= div_tol:
            problems.append(f"u divergence defect {defect:.2e} exceeds {div_tol:.0e}")
        return problems

    def __sub__(self, other):
        return StateTuple(self.t, self.n - other.n, self.c - other.c,
                          self.v - other.v, self.u - other.u)


class Trajectory:
    """States stored at every point of a geometric time grid in ``array``;
    n, c, v and u are views of the ``ROWS`` of its second axis."""

    ROWS = {"n": 0, "c": 1, "v": 2, "u": slice(3, None)}

    def __init__(self, grid, times, array):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or not np.isfinite(self.times).all():
            raise ValueError("trajectory times must be 1-D and finite")
        if self.times.size == 0:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.times) <= 0) or np.any(self.times <= 0):
            raise ValueError("trajectory times must be positive and strictly increasing")
        shape = (len(self.times), 3 + grid.dim) + grid.kshape
        if array.shape != shape:
            raise ValueError(f"trajectory array has shape {array.shape}, not {shape}")
        if array.dtype != complex or not array.flags.c_contiguous:
            raise ValueError("trajectory array must be complex and C-contiguous")
        self.array = array
        for name, rows in self.ROWS.items():
            setattr(self, name, array[:, rows])

    @classmethod
    def from_states(cls, states):
        if not states:
            raise ValueError("empty trajectory")
        grid = states[0].grid
        for index, state in enumerate(states[1:], start=1):
            if not grid.compatible(state.grid):
                raise ValueError(f"state {index} lives on {state.grid!r}, "
                                 f"not on state 0's grid {grid!r}")
        traj = cls.zero(grid, [s.t for s in states])
        for name, rows in cls.ROWS.items():
            traj.array[:, rows] = [getattr(s, name).coeffs for s in states]
        return traj

    @classmethod
    def zero(cls, grid, times):
        shape = (np.size(times), 3 + grid.dim) + grid.kshape
        return cls(grid, times, np.zeros(shape, dtype=complex))

    def __len__(self):
        return len(self.times)

    def stored_at(self, times):
        """Whether the states are stored at exactly ``times``."""
        return np.array_equal(self.times, times)

    def flat(self):
        """``array`` as a (T, 3 + N, modes) view: each row's half-spectrum flattened."""
        return self.array.reshape(self.array.shape[:2] + (-1,))

    def field(self, name, k):
        """Component ``name`` (n, c, v or u) at stored time k as a view of the
        stored coefficients, so ``validate`` sees v's zero mode as stored."""
        return (VectorField if name == "u" else SpectralField)(self.grid, getattr(self, name)[k])

    def state(self, k):
        """The state at stored time k, its fields as ``field`` makes them."""
        return StateTuple(self.times[k], *(self.field(name, k) for name in self.ROWS))

    def copy(self):
        return Trajectory(self.grid, self.times.copy(), self.array.copy())

    def __sub__(self, other):
        if not self.grid.compatible(other.grid):
            raise ValueError(f"trajectories live on different grids: "
                             f"{self.grid!r} and {other.grid!r}")
        if not self.stored_at(other.times):
            raise ValueError("trajectories live on different time grids")
        return Trajectory(self.grid, self.times, self.array - other.array)
