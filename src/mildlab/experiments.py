"""Scenario-level verifications: self-similarity of trajectories under the
parabolic scaling, decay-rate fits of the weighted norms, and the two-sided
asymptotic-stability probe."""

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import _x_space_terms, weighted_series, x_space_series
from .spectral import rescale_field
from .solver import caloric_extension, picard_solve

#: parabolic scaling degrees of (n, c, v, u)
SCALING_DEGREES = {"n": 2.0, "c": 0.0, "v": 0.0, "u": 1.0}


@dataclass
class SelfSimilarWindow:
    """Space-time region where the homogeneous profile is resolved: radii
    between the mollification core and the envelope-safe cap, times late
    enough for core details to wash out and early enough that the envelope
    has not diffused in."""

    r_min: float
    r_max: float
    t_min: float = 0.0
    t_max: float = math.inf

    @classmethod
    def default_for(cls, grid, t_min=0.0, t_max=math.inf):
        h = grid.spacing
        return cls(8 * h, grid.box_half_width / 4.0, t_min, t_max)


def _window_mask(grid, window):
    r = grid.radius()
    mask = (r >= window.r_min) & (r <= window.r_max)
    if not mask.any():
        raise ValueError("empty spatial window: "
                         f"[{window.r_min:g}, {window.r_max:g}] holds no grid points")
    return mask


@dataclass
class SelfSimilarResidual:
    per_component: dict
    pairs: int


def verify_self_similar(traj, lambdas, window, gamma=0.0):
    """Residuals of n(x,t) = lam^2 n(lam x, lam^2 t) and companions over
    the resolved window; max relative mismatch per component, with the
    number of compared time pairs (a zero count means the time grid holds
    no on-grid lam^2 multiples in the window)."""
    if gamma != 0.0:
        raise ValueError("self-similarity requires an undamped attractant (gamma = 0)")
    grid = traj.grid
    mask = _window_mask(grid, window)
    times = traj.times
    log_t = np.log(times)
    out = {name: 0.0 for name in SCALING_DEGREES}
    pairs = 0
    for lam in lambdas:
        lam_int = int(round(lam))
        if not (abs(lam - lam_int) <= 1e-12 and lam_int >= 1):
            raise ValueError(f"lattice-compatible lambda must be a positive integer, got {lam}")
        for k, t in enumerate(times):
            if not (window.t_min <= t <= window.t_max):
                continue
            target = lam ** 2 * t
            if target > times[-1] * (1 + 1e-12):
                continue
            k2 = int(np.argmin(np.abs(log_t - math.log(target))))
            if abs(log_t[k2] - math.log(target)) > 1e-9:
                continue
            pairs += 1
            a = traj.state(k)
            b = traj.state(k2)
            for name, degree in SCALING_DEGREES.items():
                va = getattr(a, name).to_physical()
                vb = rescale_field(getattr(b, name), lam_int, degree).to_physical()
                scale = np.abs(va[..., mask]).max()
                if scale == 0:
                    continue
                resid = np.abs(vb - va)[..., mask].max()
                out[name] = max(out[name], float(resid / scale))
    return SelfSimilarResidual(out, pairs)


@dataclass
class DecayFit:
    component: str
    fitted: float
    predicted: float
    deviation: float
    n_points: int
    applicable: bool = True


def _tail_indices(times):
    """The last 10 entries, clipped to the top decade of t, but at least
    the last 8."""
    times = np.asarray(times)
    idx = np.arange(len(times))[-10:]
    idx = idx[times[idx] >= times[-1] / 10.0]
    if len(idx) < 8:
        idx = np.arange(len(times))[-8:]
    return idx


def fit_decay_rate(traj, component, exps, sampling=None):
    """Least-squares slope of log norm vs log t on the tail, against the
    critical rate -w the space predicts for a term of weight w (none for
    the unweighted c_sup); the norm is the component's ``x_space_series``
    entry, built without the other terms, times t^predicted."""
    terms = exps.x_terms()
    if component not in terms or terms[component][2] == 0.0:
        raise ValueError(f"no predicted rate for component {component!r}")
    predicted = -terms[component][2]
    weighted = weighted_series(*_x_space_terms(traj, exps)[component], sampling)
    idx = _tail_indices(traj.times)
    tail = weighted[idx] * traj.times[idx] ** predicted
    if np.any(tail <= 0) or not np.all(np.isfinite(tail)):
        return DecayFit(component, math.nan, predicted, math.nan, len(idx), applicable=False)
    slope = np.polyfit(np.log(traj.times[idx]), np.log(tail), 1)[0]
    deviation = abs(slope - predicted) / abs(predicted)
    return DecayFit(component, float(slope), float(predicted), float(deviation), len(idx))


def tail_decreasing(times, series):
    """True when the series does not increase (beyond 1e-9 of its max)
    across the final decade of t and ends below its start there
    (identically-zero tails pass)."""
    times = np.asarray(times)
    series = np.asarray(series)
    idx = times >= times[-1] / 10.0
    tail = series[idx]
    if len(tail) < 2:
        return False
    if np.all(tail == 0.0):
        return True
    floor = 1e-9 * tail.max()
    steps_ok = np.all(tail[1:] <= tail[:-1] + floor)
    return bool(steps_ok and tail[-1] < tail[0])


@dataclass
class StabilityReport:
    times: np.ndarray
    volta: dict
    ida: dict
    volta_decreasing: dict
    ida_decreasing: dict
    identical: bool
    diverged: bool
    traces: tuple = field(default=(), repr=False)

    def all_tails_decreasing(self):
        return all(self.volta_decreasing.values()) and all(self.ida_decreasing.values())


def asymptotic_stability_run(data, perturbed_data, config, constants=None):
    """Solve both data sets, then compare the five weighted difference
    series of the solutions against the five caloric difference series of
    the data; each tail is tested for decrease over the final decade."""
    traj_a, trace_a = picard_solve(data, config, constants=constants)
    traj_b, trace_b = picard_solve(perturbed_data, config, constants=constants)
    diverged = trace_a.diverged or trace_b.diverged
    times = config.time_grid.times

    diff = traj_b - traj_a
    volta = x_space_series(diff, config.exps, config.sampling)
    data_diff = perturbed_data - data
    cal_diff = caloric_extension(data_diff, config.gamma, config.time_grid)
    ida = x_space_series(cal_diff, config.exps, config.sampling)

    identical = all(np.all(v == 0.0) for v in ida.values()) and \
        all(np.all(v == 0.0) for v in volta.values())
    return StabilityReport(
        times=times,
        volta=volta,
        ida=ida,
        volta_decreasing={k: tail_decreasing(times, v) for k, v in volta.items()},
        ida_decreasing={k: tail_decreasing(times, v) for k, v in ida.items()},
        identical=identical,
        diverged=diverged,
        traces=(trace_a, trace_b),
    )
