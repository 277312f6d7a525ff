"""Discrete Morrey, Besov-Morrey, and time-weighted trajectory norms.

The Morrey evaluator replaces the continuum sup over ball centers and
radii by a finite max: local L^p1 masses come from one FFT convolution
with a ball indicator per radius, which prices in every grid center at
once.  The result is a lower estimate of the continuum sup and is exact
for the discrete sampling it states.

Every sup of Morrey norms here (the X-norm's sup over stored times, the
heat form of the Besov-Morrey norm, and each smoothing constant's sup
over random fields and times) is one ``morrey_sup``, a branch-and-bound
over the (row, radius) pairs of a weighted family w_i f_i, with a single
field's norm as the one-row case.  A ball's local mass is at most the
total mass sum |f_i|^p1 dV, and at most the peak max |f_i|^p1 dV times
the ball's lattice-point count, so the pair is worth at most
w_i R^(N/p - N/p1) min(total, peak count(R))^(1/p1).  Every row is a
``DeferredField`` (grad) e^{t Lap} f, made by ``heat_row`` of a
``SpectralField`` or a ``VectorField`` (normed by its magnitude) and
taken to physical space only when it is read; ``_as_row`` makes and
checks each norm's input.  Pass 1 (``_bounded``) estimates total and
peak from the row's coefficients alone: max |f_i| <= W_i (Wiener) and
sum f_i^2 dV <= P_i (Parseval) give upper estimates of every bound of
the row, and the row is taken to physical space for its exact total and
peak (``_powered``) only when its estimate can still raise the max.
Rows are visited best-first by their largest bound, exact rows in order
of decreasing exact bound, and each row's radii in order of decreasing
bound; a row is transformed forward only when one of its radii is
convolved, and the search ends at the first bound that, widened by 1e-9
for FFT round-off, falls below the best value over all rows so far.
Since fl(w x) is monotone in x, no skipped pair could have raised the
max, and the value is bit-identical to norming every row in full with
its exact bounds: the estimates change which rows are transformed, not
the value, which is still the sampled lower estimate of the continuum
norm.  Each row's search is one ``morrey_norm`` call.  The default ball
sampling, ball spectra, radius factors, wavenumber moduli and smoothing
constants are cached in one dict on their ``Grid``.
"""

import functools
import heapq
import math
from collections import namedtuple

import numpy as np

from .admissibility import require_admissible
from .grids import TimeGrid, whole_number
from .spectral import SpectralField, VectorField, heat_apply


class MorreyIndex(namedtuple("MorreyIndex", "p p1")):
    """Index pair (p, p1) of the Morrey space M^p_{p1}; (inf, inf) is L^inf."""

    __slots__ = ()

    def __new__(cls, p, p1):
        if not 1 <= p1 <= p:
            raise ValueError(f"need 1 <= p1 <= p, got p={p}, p1={p1}")
        return super().__new__(cls, float(p), float(p1))

    @property
    def is_sup(self):
        return math.isinf(self.p)


class BallSampling:
    """Finite set of ball centers (strided) and radii for the Morrey max."""

    __slots__ = ("center_stride", "radii")

    EXACT_SIZE_LIMIT = 4096

    def __init__(self, center_stride, radii):
        radii = tuple(float(r) for r in radii)
        if not radii or not all(0 < r < math.inf for r in radii):
            raise ValueError(f"radii must be a non-empty list of positive values, each finite, "
                             f"got {radii}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        self.center_stride = whole_number("center_stride", center_stride)
        if not self.center_stride >= 1:
            raise ValueError("center_stride must be >= 1")
        self.radii = radii

    @classmethod
    def default_for(cls, grid):
        """All distinct lattice distances on small grids, dyadic radii on
        large ones; the full box diameter is always included so the
        largest ball recovers the global norm.  Made once per grid."""
        return _cached(grid, "sampling", lambda: cls(1, _default_radii(grid)))


def _default_radii(grid):
    h = grid.spacing
    if grid.size <= BallSampling.EXACT_SIZE_LIMIT:
        return lattice_distances(grid)
    n_oct = int(round(math.log2(grid.m // 2)))
    radii = [h * 2 ** j for j in range(n_oct + 1)]
    diameter = grid.box_half_width * math.sqrt(grid.dim)
    if diameter > radii[-1] * (1 + 1e-9):
        radii.append(diameter)
    return radii


def lattice_distances(grid):
    """Sorted distinct periodic point distances, starting at one spacing."""
    m = grid.m
    per = np.minimum(np.arange(m), m - np.arange(m)).astype(np.int64)
    d2 = sum(np.meshgrid(*[per ** 2] * grid.dim, indexing="ij", sparse=True))
    vals = np.unique(d2.ravel())
    vals = vals[vals > 0]
    return grid.spacing * np.sqrt(vals.astype(float))


def _ball_indicator(grid, radius):
    return grid.radius() <= radius * (1 + 1e-12)


def _cached(grid, key, make):
    """``grid._cache[key]``, made by ``make()`` on the first request."""
    if key not in grid._cache:
        grid._cache[key] = make()
    return grid._cache[key]


def _ball_spectrum(grid, radius):
    return _cached(grid, ("ball", round(radius, 12)),
                   lambda: grid.forward(_ball_indicator(grid, radius).astype(float)))


def _radius_factors(grid, exponent, radii):
    """R^exponent and the ball's lattice-point count for each radius, as
    arrays; the counts come without transforming any indicator."""
    return _cached(grid, ("radii", exponent, radii), lambda: (
        np.array([radius ** exponent for radius in radii]),
        np.array([np.count_nonzero(_ball_indicator(grid, radius)) for radius in radii])))


#: a field made only when it is read in physical space, built by ``heat_row``:
#: ``moduli()`` gives the moduli |F_j| of its half-spectrum as a (components,
#: *kshape) array, ``values()`` its physical values (a vector's magnitude)
DeferredField = namedtuple("DeferredField", "grid moduli values")


def heat_row(field, t=0.0, derivative=False, moduli=None, memo=False):
    """(grad) e^{t Lap} field, of a ``SpectralField`` or ``VectorField`` (else
    ``TypeError``), as a ``DeferredField`` of moduli |xi_j| e^{-t |xi|^2} |F|,
    given |F| as ``moduli`` or taken from the field, and of values a
    scalar's or a vector's magnitude; ``memo`` keeps the values once made,
    for a row read more than once."""
    # imported per call, or perfbench/tracing.py's spectral.gradient wrapper counts 0 calls
    from .spectral import gradient

    if not isinstance(field, SpectralField):
        raise TypeError("a Morrey row is a SpectralField, VectorField or DeferredField, and "
                        f"heat_row takes one of the first two, not a {type(field).__name__}")
    grid = field.grid
    abs_k = _cached(grid, "abs_k", lambda: np.abs(np.stack(np.broadcast_arrays(*grid.k))))

    def bound():
        out = np.abs(field.coeffs).reshape((-1,) + grid.kshape) if moduli is None else moduli
        out = out * np.exp(-t * grid.k2) if t else out
        return abs_k * out if derivative else out

    def values():
        evolved = heat_apply(field, t) if t else field
        evolved = gradient(evolved) if derivative else evolved
        return evolved.magnitude() if isinstance(evolved, VectorField) else evolved.to_physical()

    return DeferredField(grid, bound, functools.cache(values) if memo else values)


def _as_row(field, grid=None):
    """``field`` as a ``DeferredField`` (``heat_row(field)`` unless it is
    one), checked to live on ``grid`` if given (else ``ValueError``)."""
    row = field if isinstance(field, DeferredField) else heat_row(field)
    if grid is not None:
        grid.require(row.grid, "a Morrey row")
    return row


#: a row of a Morrey sup: its ``DeferredField``, |f|^p1 in physical space, the
#: total of |f|^p1 dV, and per sampled radius the factor R^(N/p - N/p1) and the
#: bound R^(N/p - N/p1) min(total, peak count(R))^(1/p1), peak = max |f|^p1 dV;
#: a row bounded from its spectrum alone has ``powered`` None and upper
#: estimates for total and bounds; for the sup index the only bound is
#: max |f| (or its estimate) and ``scale`` is None
PoweredValues = namedtuple("PoweredValues", "field powered total scale bounds")


def _row(field, powered, total, peak, idx, sampling):
    scale, counts = _radius_factors(field.grid, field.grid.dim * (1.0 / idx.p - 1.0 / idx.p1),
                                    sampling.radii)
    return PoweredValues(field, powered, total, scale,
                         scale * np.minimum(total, peak * counts) ** (1.0 / idx.p1))


def _powered(field, idx, sampling):
    """A row's exact pass 1, from its values in physical space."""
    values = np.abs(field.values())
    if idx.is_sup:
        peak = values.max()
        return PoweredValues(field, values, peak, None, np.array([peak]))
    cell_volume = field.grid.cell_volume
    powered = values ** idx.p1
    return _row(field, powered, powered.sum() * cell_volume, powered.max() * cell_volume,
                idx, sampling)


def _mu_sum(values, grid):
    """sum of mu values over each component's half-spectrum, mu = 1 on the
    last axis's first and last planes (their own conjugates) and 2 elsewhere."""
    spatial = tuple(range(1, grid.dim + 1))
    return (2.0 * values.sum(axis=spatial) - values[..., 0].sum(axis=spatial[:-1])
            - values[..., -1].sum(axis=spatial[:-1]))


def _wiener_parseval(grid, moduli):
    """W >= max |f| (Wiener: sum of mu |F| / M) and P >= sum f^2 dV
    (Parseval: dV sum of mu |F|^2 / M) of the field whose components'
    coefficient moduli are ``moduli``, M = grid.size; for a vector field
    W = sqrt(sum W_j^2) and P = sum P_j.  They hold for any half-spectrum,
    as ``irfftn`` keeps only the real part of the self-conjugate planes."""
    sums = _mu_sum(moduli, grid)
    wiener = np.float64(math.hypot(*sums)) / grid.size
    return wiener, _mu_sum(moduli * moduli, grid).sum() * grid.cell_volume / grid.size


def _power_bounds(grid, p1, wiener, parseval):
    """Upper estimates of the total and the peak of |f|^p1 dV from W >= max |f|
    and P >= sum f^2 dV: the total is at most W^p1 V and, for p1 >= 2,
    W^(p1-2) P, or, for p1 < 2, P^(p1/2) V^(1-p1/2) (Hoelder); the peak is at
    most W^p1 dV.  V = M dV is the box volume."""
    volume = grid.size * grid.cell_volume
    by_parseval = (wiener ** (p1 - 2) * parseval if p1 >= 2
                   else parseval ** (p1 / 2) * volume ** (1 - p1 / 2))
    return min(wiener ** p1 * volume, by_parseval), wiener ** p1 * grid.cell_volume


def _bounded(field, idx, sampling):
    """A row's pass 1 from its coefficients alone: a ``PoweredValues`` with
    ``powered`` None whose bounds (the sup index's W, or each radius's
    formula on ``_power_bounds``) are widened by 1e-9, so that they are at
    least the exact row's despite round-off.  Bounds that over- or underflow
    could break (any of W, P, total and peak outside [1e-250, 1e250] on a
    non-zero field, NaN and inf included) are replaced by inf, so their rows
    are transformed first."""
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = field.moduli()
        wiener, parseval = _wiener_parseval(field.grid, moduli)
        if idx.is_sup:
            total = peak = wiener
            row = PoweredValues(field, None, wiener, None, np.array([wiener]))
        else:
            total, peak = _power_bounds(field.grid, idx.p1, wiener, parseval)
            row = _row(field, None, total, peak, idx, sampling)
    checked = np.array([wiener, parseval, total, peak])
    if np.all((1e-250 < checked) & (checked < 1e250)) or not moduli.any():
        return row._replace(bounds=row.bounds * (1 + 1e-9))
    return PoweredValues(field, None, math.inf, None, np.array([math.inf]))


def morrey_norm(field, idx, sampling=None, weight=1.0, floor=0.0):
    """max over sampled centers x0 and radii R of
    R^(N/p - N/p1) * ||u||_{L^p1(ball(x0, R))}, Riemann local masses,
    times ``weight``; the larger of that and ``floor`` is returned.

    Each radius is bounded by w R^(N/p - N/p1) min(total, peak count(R))^(1/p1)
    (total and peak of |u|^p1 dV) and the radii are visited in order of
    decreasing bound; a radius is convolved only if bound (1 + 1e-9) >= the
    best value so far, which starts at ``floor``, and the first that fails
    ends the search.  The field is transformed forward only if some radius
    is convolved.  The value is bit-identical to max(floor, w max_R ...)
    over every sampled radius.  A field whose total mass is not finite (a
    NaN or inf value) has norm NaN.  ``field`` is a ``SpectralField``,
    ``VectorField`` or ``DeferredField`` (``_as_row``; else ``TypeError``),
    or one of ``morrey_sup``'s ``PoweredValues`` rows made for ``idx`` and
    ``sampling``; one bounded from its spectrum alone (upper estimates of
    the exact bounds) returns ``floor`` at once when no bound reaches it,
    and is taken to physical space otherwise.
    """
    if idx.is_sup:
        # np.max, as the builtin max drops a NaN that is not its first argument
        return float(np.max([floor, weight * float(np.abs(_as_row(field).values()).max())]))
    row = field
    if not isinstance(row, PoweredValues):
        row = _as_row(field)
        sampling = BallSampling.default_for(row.grid) if sampling is None else sampling
        row = _powered(row, idx, sampling)
    elif row.powered is None:
        if (weight * row.bounds).max() * (1 + 1e-9) < floor:
            return float(floor)
        row = _powered(row.field, idx, sampling)
    grid = row.field.grid
    if not math.isfinite(row.total):
        return math.nan
    if row.total == 0.0:
        return float(floor)
    bounds = weight * row.bounds
    stride = (slice(None, None, sampling.center_stride),) * grid.dim
    spectrum = None
    best = floor
    for j in np.argsort(-bounds, kind="stable"):
        if bounds[j] * (1 + 1e-9) < best:
            break
        if spectrum is None:
            spectrum = grid.forward(row.powered)
        conv = grid.backward(spectrum * _ball_spectrum(grid, sampling.radii[j]))
        local_mass = max(conv[stride].max(), 0.0) * grid.cell_volume
        best = max(best, weight * (row.scale[j] * local_mass ** (1.0 / idx.p1)))
    return float(best)


def morrey_sup(grid, rows, idx, sampling=None):
    """max_i w_i ||f_i||_{M^p_p1} over rows (w_i, f_i) of non-negative
    weights and fields on ``grid`` (``SpectralField``s, ``VectorField``s or
    ``DeferredField``s), read once, so a generator makes each field only
    when pass 1 reaches it.  Each is made a row by ``_as_row`` as it is
    read: a row on another grid raises ``ValueError`` and a row of another
    kind ``TypeError``.

    Pass 1 bounds every row from its coefficients (``_bounded``): by
    Wiener, max |f_i| <= W_i, and by Parseval, sum f_i^2 dV <= P_i, which
    bound the total and the peak of |f_i|^p1 dV and so every (row, radius)
    pair by w_i R^(N/p - N/p1) min(total, peak count(R))^(1/p1), or, for the
    sup index, the row by w_i W_i.  These are upper estimates of each row's
    exact bounds.  The rows then go best-first through a heap keyed by their
    largest bound, until the top bound, widened by 1e-9, falls below the
    best value so far.  A popped row still bounded from its spectrum is
    taken to physical space (``_powered``) and pushed back with its exact
    bounds; a popped exact row is normed by ``morrey_norm`` with the best
    value as floor (for the sup index, its max |f_i| is the value).  So
    exact rows are normed in order of decreasing exact bound, ties in row
    order, with the convolutions of norming every row that way, and a row
    is transformed only if its estimate can still raise the max.  Each
    Morrey row is one ``morrey_norm`` call: rows left in the heap return
    their floor at once.
    The value is bit-identical to max_i w_i morrey_norm(f_i) with every
    radius convolved; it is NaN if any row has a NaN value (for a Morrey
    index, also an inf one), and 0.0 for no rows.
    """
    if sampling is None and not idx.is_sup:
        sampling = BallSampling.default_for(grid)
    heap = []
    for i, (weight, field) in enumerate(rows):
        row = _bounded(_as_row(field, grid), idx, sampling)
        bound = weight * row.bounds.max()
        # a zero weight times an inf bound counts as inf
        heap.append((-math.inf if math.isnan(bound) else -bound, i, weight, row))
    heapq.heapify(heap)
    best = 0.0
    while heap and -heap[0][0] * (1 + 1e-9) >= best:
        key, i, weight, row = heapq.heappop(heap)
        if row.powered is None:
            row = _powered(row.field, idx, sampling)
            key = -weight * row.bounds.max()
            if math.isnan(key) or not (idx.is_sup or math.isfinite(row.total)):
                return math.nan
            heapq.heappush(heap, (key, i, weight, row))
        elif idx.is_sup:
            best = max(best, -key)
        else:
            best = morrey_norm(row, idx, sampling, weight, best)
    if not idx.is_sup:
        for _, _, weight, row in heap:
            best = morrey_norm(row, idx, sampling, weight, best)
    return float(best)


def besov_morrey_norm_heat(field, idx, s, time_grid=None, sampling=None):
    """Heat characterization sup_t t^(-s/2) ||e^{t Lap} u||_{M^p_p1}, s < 0,
    one ``morrey_sup`` over the ``heat_row``s of u."""
    if not s < 0:
        raise ValueError(f"the heat characterization needs s < 0, got s = {s}")
    row = _as_row(field)
    if time_grid is None:
        time_grid = TimeGrid.default_for(row.grid)
    moduli = row.moduli()
    return morrey_sup(row.grid, ((t ** (-s / 2.0), heat_row(field, t, moduli=moduli))
                                 for t in time_grid.times), idx, sampling)


class XNormsRecord:
    """The weighted sup-in-time norms of one trajectory and their sum."""

    def __init__(self, sups):
        self.n_norm = sups["n"]
        self.c_norm = sups["c_sup"] + sups["grad_c"]
        self.v_norm = sups["grad_v"]
        self.u_norm = sups["u"]
        self.total = self.n_norm + self.c_norm + self.v_norm + self.u_norm


#: the state component each X-norm term norms, and whether it norms its gradient
_TERM_FIELDS = {"n": ("n", False), "c_sup": ("c", False), "grad_c": ("c", True),
                "grad_v": ("v", True), "u": ("u", False)}


def _x_space_terms(traj, exps):
    """The five terms of the X-norm of a ``Trajectory``, keyed as in
    ``ExponentSet.x_terms``: each a Morrey index and a generator of its
    rows (t^w, ``heat_row`` at t = 0) over the stored times, each made
    when it is read."""

    # a helper, not a comprehension, so each generator binds its own w
    def term(p, p1, w, component, derivative):
        return MorreyIndex(p, p1), ((float(t) ** w, heat_row(traj.field(component, k),
                                                             derivative=derivative))
                                    for k, t in enumerate(traj.times))

    return {name: term(*row, *_TERM_FIELDS[name]) for name, row in exps.x_terms().items()}


def x_space_norms(traj, exps, sampling=None):
    """The four weighted norms t^{l_q}||n||, ||c||_inf + t^{mu_r}||grad c||,
    t^{mu_r}||grad v||, t^{mu_p}||u|| of a ``Trajectory`` and their sum,
    each sup over the stored times one ``morrey_sup``."""
    return XNormsRecord({name: morrey_sup(traj.grid, rows, idx, sampling)
                         for name, (idx, rows) in _x_space_terms(traj, exps).items()})


def x_space_series(traj, exps, sampling=None):
    """The X-norm's terms at each stored time, keyed n, c_sup, grad_c,
    grad_v and u; ``x_space_norms`` holds their maxima."""
    return {name: weighted_series(idx, rows, sampling)
            for name, (idx, rows) in _x_space_terms(traj, exps).items()}


def weighted_series(idx, rows, sampling=None):
    """w_i ||f_i||_{M^p_p1} for each row (w_i, f_i), in order."""
    return np.array([weight * morrey_norm(field, idx, sampling) for weight, field in rows])


def data_norm_I(data, exps, time_grid=None, sampling=None):
    """Norm of the initial 4-tuple: Besov-Morrey pieces by the heat
    characterization plus the sup norm of the oxygen component."""
    require_admissible(exps)
    parts = data_norm_components(data, exps, time_grid=time_grid, sampling=sampling)
    return float(sum(parts.values()))


def data_norm_components(data, exps, time_grid=None, sampling=None):
    """The five summands of the initial-data norm, keyed n0, c0_sup, grad_c0,
    grad_v0 and u0: the sup of c0, and each weighted X-norm term's Besov-Morrey
    norm of smoothness -2w, of the data's field ``_TERM_FIELDS`` names."""
    # imported per call, or perfbench/tracing.py's spectral.gradient wrapper counts 0 calls
    from .spectral import gradient

    def summand(name, p, p1, w):
        component, derivative = _TERM_FIELDS[name]
        field = gradient(getattr(data, component)) if derivative else getattr(data, component)
        if math.isinf(p):
            return morrey_norm(field, MorreyIndex(p, p1))
        return besov_morrey_norm_heat(field, MorreyIndex(p, p1), -2.0 * w, time_grid, sampling)

    keys = {"n": "n0", "c_sup": "c0_sup", "grad_c": "grad_c0", "grad_v": "grad_v0", "u": "u0"}
    return {keys[name]: summand(name, *row) for name, row in exps.x_terms().items()}


_SMOOTHING_SEED = 1234


def smoothing_constant(grid, requests, n_fields, sampling=None):
    """Measured constants of the heat smoothing estimates
    ||(grad) e^{t Lap} f||_dst <= C t^{-pow} ||f||_src over ``n_fields``
    random fields, for a mapping name -> (src index, dst index,
    derivative); returns name -> constant.  Field i of the ensemble is
    ``random_band_limited`` at seed ``_SMOOTHING_SEED + i``.

    Each is the sup of t^pow ||(grad) e^{t Lap} f||_dst / ||f||_src over 17
    geometric times from h^2 to min(L^2, 1e4 h^2) and the field ensemble,
    one ``morrey_sup`` per request over its rows (t^pow / ||f||_src,
    ``heat_row``), cached on the grid per (ball sampling, index, ensemble)
    signature, so a constant lives as long as its grid.  Only requests not
    cached make the ensemble, take each ||f||_src once per source index and
    share one memoised ``heat_row`` per (field, time, derivative kind):
    every request bounds it from its spectrum, and it is made and taken to
    physical space at most once, when some request's bound can still raise
    the max.  An empty ensemble measures nothing and is rejected.
    """
    if not n_fields >= 1:
        raise ValueError(f"smoothing constants need n_fields >= 1, got {n_fields}")
    for src_idx, dst_idx, _ in requests.values():
        if not dst_idx.is_sup and (dst_idx.p < src_idx.p - 1e-12 or
                                   dst_idx.p / dst_idx.p1 < src_idx.p / src_idx.p1 - 1e-12):
            raise ValueError("smoothing estimate needs p >= q and p/p1 >= q/q1 "
                             f"(src {src_idx}, dst {dst_idx})")
    if sampling is None:
        sampling = BallSampling.default_for(grid)
    keys = {name: ("smoothing", sampling.center_stride, sampling.radii, src, dst, derivative,
                   n_fields)
            for name, (src, dst, derivative) in requests.items()}
    missing = {key: requests[name] for name, key in keys.items() if key not in grid._cache}
    if missing:
        from .fields import random_band_limited

        h2 = grid.spacing ** 2
        time_grid = TimeGrid.spanning(h2, min(grid.box_half_width ** 2, h2 * 1e4), 17)
        ensemble = [random_band_limited(grid, _SMOOTHING_SEED + i, corr_cells=3.0 + (i % 4))
                    for i in range(n_fields)]
        src_norms = {src: [morrey_norm(f, src, sampling) for f in ensemble]
                     for src in {idx for idx, _, _ in missing.values()}}
        moduli = [heat_row(f).moduli() for f in ensemble]
        evolved = {d: [[heat_row(f, t, d, m, memo=True) for t in time_grid.times]
                       for f, m in zip(ensemble, moduli)]
                   for d in {d for _, _, d in missing.values()}}
        for key, (src, dst, derivative) in missing.items():
            power = ((grid.dim / (2.0 * src.p) if dst.is_sup
                      else (grid.dim / 2.0) * (1.0 / src.p - 1.0 / dst.p))
                     + (0.5 if derivative else 0.0))
            rows = ((t ** power / norm, row)
                    for norm, series in zip(src_norms[src], evolved[derivative])
                    if norm != 0 for t, row in zip(time_grid.times, series))
            grid._cache[key] = float(morrey_sup(grid, rows, dst, sampling))
    return {name: grid._cache[key] for name, key in keys.items()}
