"""Discrete Morrey, Besov-Morrey, and time-weighted trajectory norms.

The Morrey evaluator replaces the continuum sup over ball centers and
radii by a finite max: local L^p1 masses come from one FFT convolution
with a ball indicator per radius, which prices in every grid center at
once.  The result is a lower estimate of the continuum sup and is exact
for the discrete sampling it states.
"""

import math

import numpy as np

from .grids import TimeGrid
from .spectral import SpectralField, VectorField, heat_apply
from .fields import smooth_step


class MorreyIndex:
    """Index pair (p, p1) of the local-maximal space M^p_{p1}."""

    __slots__ = ("p", "p1")

    def __init__(self, p, p1):
        if math.isinf(p) and math.isinf(p1):
            self.p, self.p1 = math.inf, math.inf
            return
        if not (1 <= p1 <= p):
            raise ValueError(f"need 1 <= p1 <= p, got p={p}, p1={p1}")
        self.p = float(p)
        self.p1 = float(p1)

    @property
    def is_sup(self):
        return math.isinf(self.p)

    def __repr__(self):
        return f"MorreyIndex({self.p:g}, {self.p1:g})"

    def __eq__(self, other):
        return (self.p, self.p1) == (other.p, other.p1)

    def __hash__(self):
        return hash((self.p, self.p1))


class BallSampling:
    """Finite set of ball centers (strided) and radii for the Morrey max."""

    __slots__ = ("center_stride", "radii")

    EXACT_SIZE_LIMIT = 4096

    def __init__(self, center_stride, radii):
        radii = tuple(float(r) for r in radii)
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if center_stride < 1:
            raise ValueError("center_stride must be >= 1")
        self.center_stride = int(center_stride)
        self.radii = radii

    @classmethod
    def default_for(cls, grid):
        """All distinct lattice distances on small grids, dyadic radii on
        large ones; the full box diameter is always included so the
        largest ball recovers the global norm."""
        h = grid.spacing
        if grid.size <= cls.EXACT_SIZE_LIMIT:
            return cls(1, lattice_distances(grid))
        n_oct = int(round(math.log2(grid.m // 2)))
        radii = [h * 2 ** j for j in range(n_oct + 1)]
        diameter = grid.box_half_width * math.sqrt(grid.dim)
        if diameter > radii[-1] * (1 + 1e-9):
            radii.append(diameter)
        return cls(1, radii)


def lattice_distances(grid):
    """Sorted distinct periodic point distances, starting at one spacing."""
    m = grid.m
    per = np.minimum(np.arange(m), m - np.arange(m)).astype(np.int64)
    d2 = per[:, None] ** 2 + per[None, :] ** 2
    if grid.dim == 3:
        d2 = d2[:, :, None] + (per ** 2)[None, None, :]
    vals = np.unique(d2.ravel())
    vals = vals[vals > 0]
    return grid.spacing * np.sqrt(vals.astype(float))


def _ball_spectrum(grid, radius):
    cache = grid._ball_cache
    key = round(radius, 12)
    if key not in cache:
        ind = (grid.radius() <= radius * (1 + 1e-12)).astype(float)
        cache[key] = grid.forward(ind)
    return cache[key]


def _as_values(field):
    if isinstance(field, VectorField):
        return field.magnitude()
    if isinstance(field, SpectralField):
        return field.to_physical()
    return np.asarray(field, dtype=float)


def morrey_norm(field, idx, sampling=None):
    """max over sampled centers x0 and radii R of
    R^(N/p - N/p1) * ||u||_{L^p1(ball(x0, R))}, Riemann local masses."""
    if idx.is_sup:
        return float(np.abs(_as_values(field)).max())
    grid = field.grid
    if sampling is None:
        sampling = BallSampling.default_for(grid)
    vals = np.abs(_as_values(field))
    if not vals.any():
        return 0.0
    p, p1 = idx.p, idx.p1
    powered = vals ** p1
    spec = grid.forward(powered)
    stride = (slice(None, None, sampling.center_stride),) * grid.dim
    best = 0.0
    exponent = grid.dim * (1.0 / p - 1.0 / p1)
    for radius in sampling.radii:
        conv = grid.backward(spec * _ball_spectrum(grid, radius))
        local_mass = max(conv[stride].max(), 0.0) * grid.cell_volume
        best = max(best, radius ** exponent * local_mass ** (1.0 / p1))
    return float(best)


def besov_morrey_norm_heat(field, idx, s, time_grid=None):
    """Heat characterization sup_t t^(-s/2) ||e^{t Lap} u||_{M^p_p1}, s < 0."""
    if s >= 0:
        raise ValueError(f"the heat characterization needs s < 0, got s = {s}")
    grid = field.grid
    if time_grid is None:
        time_grid = TimeGrid.default_for(grid)
    best = 0.0
    for t in time_grid.times:
        best = max(best, t ** (-s / 2.0) * morrey_norm(heat_apply(field, t), idx))
    return float(best)


class LittlewoodPaleyBank:
    """Dyadic frequency blocks from a smooth radial cutoff.

    chi is 1 on [0, 3/2] and supported in [0, 5/3); the blocks
    phi_j(xi) = chi(2^-j |xi|) - chi(2^(1-j) |xi|) telescope to 1 on the
    annuli the window [j_min, j_max] covers.
    """

    def __init__(self, grid, j_min=None, j_max=None):
        self.grid = grid
        k = np.sqrt(grid.k2)
        k_min = float(np.pi / grid.box_half_width)
        k_max = float(k.max())
        if j_min is None:
            j_min = math.floor(math.log2(k_min)) - 1
        if j_max is None:
            j_max = math.ceil(math.log2(k_max)) + 1
        if j_max <= j_min:
            raise ValueError("empty block window")
        self.j_min = int(j_min)
        self.j_max = int(j_max)
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
    """Littlewood-Paley form sup_j 2^{s j} ||block_j u||_{M^p_p1}."""
    grid = field.grid
    if bank is None:
        bank = LittlewoodPaleyBank(grid)
    best = 0.0
    for j in bank.blocks():
        blocked = bank.apply_block(field, j)
        if not np.abs(blocked.coeffs).any():
            continue
        best = max(best, 2.0 ** (s * j) * morrey_norm(blocked, idx))
    return float(best)


class XNormWeights:
    """Time-weight exponents of the four solution spaces."""

    __slots__ = ("l_q", "mu_r", "mu_p")

    def __init__(self, exps):
        self.l_q = 1.0 - exps.N / (2.0 * exps.q)
        self.mu_r = 0.5 - exps.N / (2.0 * exps.r)
        self.mu_p = 0.5 - exps.N / (2.0 * exps.p)

    def all_positive(self):
        return self.l_q > 0 and self.mu_r > 0 and self.mu_p > 0


class XNormsRecord:
    """Weighted sup-in-time norms of one trajectory, with their series."""

    def __init__(self, times, n_series, c_sup_series, c_grad_series, v_series, u_series):
        self.times = np.asarray(times)
        self.n_series = np.asarray(n_series)
        self.c_sup_series = np.asarray(c_sup_series)
        self.c_grad_series = np.asarray(c_grad_series)
        self.v_series = np.asarray(v_series)
        self.u_series = np.asarray(u_series)
        self.n_norm = float(self.n_series.max(initial=0.0))
        self.c_norm = float(self.c_sup_series.max(initial=0.0)
                            + self.c_grad_series.max(initial=0.0))
        self.v_norm = float(self.v_series.max(initial=0.0))
        self.u_norm = float(self.u_series.max(initial=0.0))
        self.total = self.n_norm + self.c_norm + self.v_norm + self.u_norm


def _states_of(trajectory):
    if hasattr(trajectory, "states"):
        return trajectory.states()
    return list(trajectory)


def x_space_norms(trajectory, exps, sampling=None):
    """The four weighted norms t^{l_q}||n||, ||c||_inf + t^{mu_r}||grad c||,
    t^{mu_r}||grad v||, t^{mu_p}||u|| and their sum."""
    states = _states_of(trajectory)
    if not states:
        raise ValueError("empty trajectory")
    times = [s.t for s in states]
    if any(t <= 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("trajectory times must be positive and strictly increasing")
    from .spectral import gradient

    w = XNormWeights(exps)
    idx_q = MorreyIndex(exps.q, exps.q1)
    idx_r = MorreyIndex(exps.r, exps.r1)
    idx_p = MorreyIndex(exps.p, exps.p1)
    n_s, csup_s, cgrad_s, v_s, u_s = [], [], [], [], []
    for st in states:
        t = st.t
        n_s.append(t ** w.l_q * morrey_norm(st.n, idx_q, sampling))
        csup_s.append(float(np.abs(st.c.to_physical()).max()))
        cgrad_s.append(t ** w.mu_r * morrey_norm(gradient(st.c), idx_r, sampling))
        v_s.append(t ** w.mu_r * morrey_norm(gradient(st.v), idx_r, sampling))
        u_s.append(t ** w.mu_p * morrey_norm(st.u, idx_p, sampling))
    return XNormsRecord(times, n_s, csup_s, cgrad_s, v_s, u_s)


def data_norm_I(data, exps, time_grid=None, sampling=None):
    """Norm of the initial 4-tuple: Besov-Morrey pieces by the heat
    characterization plus the sup norm of the oxygen component."""
    from .admissibility import check_admissible
    from .spectral import gradient

    report = check_admissible(exps)
    if not report.admissible:
        raise ValueError("exponents are not admissible: "
                         + "; ".join(report.failed_clauses))
    parts = data_norm_components(data, exps, time_grid=time_grid, sampling=sampling)
    return float(sum(parts.values()))


def data_norm_components(data, exps, time_grid=None, sampling=None):
    """The five summands of the initial-data norm, by name."""
    from .spectral import gradient

    grid = data.grid
    if time_grid is None:
        time_grid = TimeGrid.default_for(grid)
    idx_q = MorreyIndex(exps.q, exps.q1)
    idx_r = MorreyIndex(exps.r, exps.r1)
    idx_p = MorreyIndex(exps.p, exps.p1)
    N = exps.N
    s_n = N / exps.q - 2.0
    s_c = N / exps.r - 1.0
    s_u = N / exps.p - 1.0

    def heat_sup(field_or_vec, idx, s):
        best = 0.0
        for t in time_grid.times:
            evolved = heat_apply(field_or_vec, t)
            best = max(best, t ** (-s / 2.0) * morrey_norm(evolved, idx, sampling))
        return best

    return {
        "n0": heat_sup(data.n, idx_q, s_n),
        "c0_sup": float(np.abs(data.c.to_physical()).max()),
        "grad_c0": heat_sup(gradient(data.c), idx_r, s_c),
        "grad_v0": heat_sup(gradient(data.v), idx_r, s_c),
        "u0": heat_sup(data.u, idx_p, s_u),
    }


#: most smoothing constants kept; the oldest entry is dropped first
_SMOOTHING_CACHE_SIZE = 256
_SMOOTHING_CACHE = {}


def smoothing_constant(grid, src_idx, dst_idx, derivative=False, time_grid=None,
                       n_fields=8, seed=1234, sampling=None):
    """Measured constant of the heat smoothing estimate
    ||(grad) e^{t Lap} f||_dst <= C t^{-pow} ||f||_src over random fields.

    The sup ratio over a default 4-decade time grid and the field
    ensemble; cached per (grid geometry, ball sampling, index, ensemble)
    signature.
    """
    if not dst_idx.is_sup:
        if dst_idx.p < src_idx.p - 1e-12 or \
                dst_idx.p / dst_idx.p1 < src_idx.p / src_idx.p1 - 1e-12:
            raise ValueError("smoothing estimate needs p >= q and p/p1 >= q/q1 "
                             f"(src {src_idx}, dst {dst_idx})")
    if sampling is None:
        sampling = BallSampling.default_for(grid)
    key = ((grid.dim, grid.m, grid.box_half_width), (sampling.center_stride, sampling.radii),
           src_idx.p, src_idx.p1, dst_idx.p, dst_idx.p1, derivative, n_fields, seed,
           None if time_grid is None else (time_grid.t0, time_grid.ratio, time_grid.count))
    if key in _SMOOTHING_CACHE:
        return _SMOOTHING_CACHE[key]
    from .fields import random_band_limited
    from .spectral import gradient

    if time_grid is None:
        h2 = grid.spacing ** 2
        t_max = min(grid.box_half_width ** 2, h2 * 1e4)
        time_grid = TimeGrid.spanning(h2, t_max, 17)
    N = grid.dim
    if dst_idx.is_sup:
        power = N / (2.0 * src_idx.p)
    else:
        power = (N / 2.0) * (1.0 / src_idx.p - 1.0 / dst_idx.p)
    if derivative:
        power += 0.5
    best = 0.0
    for i in range(n_fields):
        f = random_band_limited(grid, seed + i, corr_cells=3.0 + (i % 4))
        src_norm = morrey_norm(f, src_idx, sampling)
        if src_norm == 0:
            continue
        for t in time_grid.times:
            evolved = heat_apply(f, t)
            target = gradient(evolved) if derivative else evolved
            ratio = morrey_norm(target, dst_idx, sampling) / (t ** (-power) * src_norm)
            best = max(best, ratio)
    while len(_SMOOTHING_CACHE) >= _SMOOTHING_CACHE_SIZE:
        del _SMOOTHING_CACHE[next(iter(_SMOOTHING_CACHE))]
    _SMOOTHING_CACHE[key] = float(best)
    return _SMOOTHING_CACHE[key]
