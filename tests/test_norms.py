"""Morrey evaluator against an exhaustive brute-force oracle, norm axioms,
Besov-Morrey characterizations, and the trajectory norms."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mildlab.norms as norms
import mildlab.spectral as spectral
from mildlab.grids import Grid, TimeGrid
from mildlab.spectral import SpectralField, VectorField, gradient, heat_apply, rescale_field
from mildlab.fields import gaussian, random_band_limited, bump
from mildlab.norms import (MorreyIndex, BallSampling, morrey_norm,
                           morrey_sup, besov_morrey_norm_heat,
                           x_space_norms, x_space_series, data_norm_I, data_norm_components,
                           smoothing_constant, heat_row, weighted_series)
from mildlab.state import StateTuple, Trajectory
from mildlab.admissibility import ExponentSet

from conftest import (LittlewoodPaleyBank, besov_morrey_norm_lp, exponents_2d, exponents_3d,
                      gaussian_data)


def brute_force_morrey(values, grid, p, p1):
    """Exhaustive max over every grid center and every distinct periodic
    radius >= one spacing; cumulative sums in distance order."""
    mass = np.abs(values) ** p1 * grid.cell_volume
    m = grid.m
    per = np.minimum(np.arange(m), m - np.arange(m)) * grid.spacing
    if grid.dim == 2:
        dist = np.sqrt(per[:, None] ** 2 + per[None, :] ** 2)
    else:
        dist = np.sqrt(per[:, None, None] ** 2 + per[None, :, None] ** 2
                       + per[None, None, :] ** 2)
    weight_exp = grid.dim * (1.0 / p - 1.0 / p1)
    best = 0.0
    h = grid.spacing
    for center in np.ndindex(*grid.shape):
        d = np.roll(dist, center, axis=tuple(range(grid.dim))).ravel()
        order = np.argsort(d, kind="stable")
        d_sorted = d[order]
        cum = np.cumsum(mass.ravel()[order])
        # last index of each distinct distance value
        boundary = np.r_[d_sorted[1:] != d_sorted[:-1], True]
        radii = d_sorted[boundary]
        sums = cum[boundary]
        keep = radii >= h * (1 - 1e-9)
        if keep.any():
            best = max(best, (radii[keep] ** weight_exp * sums[keep] ** (1.0 / p1)).max())
    return best


def all_radii_morrey(field, idx, sampling=None):
    """The Morrey max with one convolution per sampled radius and no
    pruning: what morrey_norm must reproduce bit for bit."""
    grid = field.grid
    if sampling is None:
        sampling = BallSampling.default_for(grid)
    vals = np.abs(field.magnitude() if isinstance(field, VectorField) else field.to_physical())
    if not vals.any():
        return 0.0
    spec = grid.forward(vals ** idx.p1)
    stride = (slice(None, None, sampling.center_stride),) * grid.dim
    exponent = grid.dim * (1.0 / idx.p - 1.0 / idx.p1)
    best = 0.0
    for radius in sampling.radii:
        conv = grid.backward(spec * norms._ball_spectrum(grid, radius))
        local_mass = max(conv[stride].max(), 0.0) * grid.cell_volume
        best = max(best, radius ** exponent * local_mass ** (1.0 / idx.p1))
    return float(best)


@pytest.fixture(scope="module")
def grid16():
    return Grid(2, 16, 2.0)


def test_zero_field_norm_zero(grid16):
    z = SpectralField.zero(grid16)
    assert morrey_norm(z, MorreyIndex(2, 1)) == 0.0


def test_p_equals_p1_is_global_lp(grid16):
    f = gaussian(grid16, a=0.05)
    for p in (2.0, 3.0):
        vals = f.to_physical()
        lp = (np.sum(np.abs(vals) ** p) * grid16.cell_volume) ** (1.0 / p)
        got = morrey_norm(f, MorreyIndex(p, p))
        assert abs(got - lp) / lp < 1e-10


def test_sup_norm_case(grid16):
    f = gaussian(grid16, a=0.1, amplitude=2.5)
    got = morrey_norm(f, MorreyIndex(math.inf, math.inf))
    assert abs(got - 2.5) < 1e-12


def test_unit_ball_indicator_matches_brute_force(grid16):
    vals = (grid16.radius() <= 1.0).astype(float)
    f = SpectralField.from_physical(grid16, vals)
    oracle = brute_force_morrey(vals, grid16, 2, 1)
    got = morrey_norm(f, MorreyIndex(2, 1))
    assert abs(got - oracle) / oracle < 0.02


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("idx", [(2, 1), (3, 2), (4, 1.5)])
def test_random_fields_match_brute_force(m, idx):
    grid = Grid(2, m, 1.0)
    p, p1 = idx
    for seed in range(5):
        f = random_band_limited(grid, seed=seed, corr_cells=3.0)
        vals = f.to_physical()
        oracle = brute_force_morrey(vals, grid, p, p1)
        got = morrey_norm(f, MorreyIndex(p, p1))
        assert abs(got - oracle) / oracle < 0.02


def _pruning_cases():
    g2 = Grid(2, 16, 2.0)
    g3 = Grid(3, 16, 2.0)
    h = g2.spacing
    flat = SpectralField.from_physical(g2, np.full(g2.shape, 0.8))
    return {
        "narrow bump": (bump(g2, 0.3), MorreyIndex(3, 2), None),
        "flat": (flat, MorreyIndex(3, 2), None),
        "p equals p1": (random_band_limited(g2, seed=4), MorreyIndex(2.5, 2.5), None),
        "center stride 2": (random_band_limited(g2, seed=5), MorreyIndex(4, 1.5),
                            BallSampling(2, BallSampling.default_for(g2).radii)),
        "one radius": (random_band_limited(g2, seed=6), MorreyIndex(3, 2),
                       BallSampling(1, [3 * h])),
        "dyadic radii": (gaussian(g2, a=0.1), MorreyIndex(3, 1.5),
                         BallSampling(1, [h, 2 * h, 4 * h, 8 * h])),
        "3d": (random_band_limited(g3, seed=7, corr_cells=2.0), MorreyIndex(4, 8 / 3), None),
        "3d bump": (bump(g3, 0.3), MorreyIndex(3, 2), None),
    }


@pytest.mark.parametrize("case", sorted(_pruning_cases()))
def test_pruned_morrey_equals_all_radii_loop(case):
    field, idx, sampling = _pruning_cases()[case]
    assert morrey_norm(field, idx, sampling) == all_radii_morrey(field, idx, sampling)


def test_narrow_bump_won_by_smallest_radius(grid16):
    f = bump(grid16, 0.3)
    idx = MorreyIndex(3, 2)
    smallest = BallSampling(1, BallSampling.default_for(grid16).radii[:1])
    assert morrey_norm(f, idx) == morrey_norm(f, idx, smallest) > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), corr_cells=st.floats(1.0, 6.0),
       sharpen=st.integers(1, 4), p1=st.floats(1.0, 4.0), ratio=st.floats(1.0, 3.0),
       stride=st.integers(1, 3))
def test_pruned_morrey_equals_all_radii_loop_on_random_fields(seed, corr_cells, sharpen, p1,
                                                              ratio, stride):
    grid = Grid(2, 16, 2.0)
    # odd powers of a band-limited field concentrate it without losing its sign
    f = SpectralField.from_physical(
        grid, random_band_limited(grid, seed=seed, corr_cells=corr_cells).to_physical() ** sharpen)
    idx = MorreyIndex(p1 * ratio, p1)
    sampling = BallSampling(stride, BallSampling.default_for(grid).radii)
    assert morrey_norm(f, idx, sampling) == all_radii_morrey(f, idx, sampling)


def test_concentrated_field_skips_ball_convolutions(grid16, monkeypatch):
    f = gaussian(grid16, a=0.05)
    idx = MorreyIndex(3, 2)
    expected = all_radii_morrey(f, idx)
    real = norms._ball_spectrum
    convolved = []

    def counted(grid, radius):
        convolved.append(radius)
        return real(grid, radius)

    monkeypatch.setattr(norms, "_ball_spectrum", counted)
    assert morrey_norm(f, idx) == expected
    assert 0 < len(convolved) < len(BallSampling.default_for(grid16).radii)


@pytest.mark.parametrize("radii", [[], [-1.0], [0.0, 1.0]], ids=["empty", "negative", "zero"])
def test_ball_sampling_rejects_empty_or_non_positive_radii(radii):
    with pytest.raises(ValueError, match="non-empty list of positive values"):
        BallSampling(1, radii)


@pytest.mark.parametrize("make, message", [
    (lambda: MorreyIndex(2, 3), r"need 1 <= p1 <= p, got p=2, p1=3"),
    (lambda: MorreyIndex(2, 0.5), r"need 1 <= p1 <= p, got p=2, p1=0.5"),
    (lambda: BallSampling(1, [1.0, 0.5]), r"radii must be strictly increasing"),
    (lambda: BallSampling(1, [0.5, 0.5]), r"radii must be strictly increasing"),
    (lambda: BallSampling(0, [0.5]), r"center_stride must be >= 1"),
], ids=["p1 above p", "p1 below 1", "decreasing radii", "repeated radius", "stride 0"])
def test_morrey_index_and_sampling_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_heat_rows_norm_like_the_fields_they_make(grid16):
    # a deferred (grad) e^{t Lap} f gives the bits of the field it makes, as
    # one row or in a sup, at a Morrey index and at the sup index; its
    # moduli are those of that field
    f = random_band_limited(grid16, seed=5)
    made = {(0.3, False): heat_apply(f, 0.3), (0.0, True): gradient(f),
            (0.3, True): gradient(heat_apply(f, 0.3))}
    for (t, derivative), field in made.items():
        rows = (heat_row(f, t, derivative),
                heat_row(f, t, derivative, moduli=heat_row(f).moduli(), memo=True))
        for row in rows:
            np.testing.assert_allclose(row.moduli(), heat_row(field).moduli(), rtol=1e-14, atol=0)
            for idx in (MorreyIndex(3, 2), MorreyIndex(math.inf, math.inf)):
                assert morrey_norm(row, idx) == morrey_norm(field, idx) > 0
                assert morrey_sup(grid16, [(0.7, row)], idx) == morrey_sup(grid16, [(0.7, field)],
                                                                          idx)


def _weighted_rows(grid):
    """Seeded rows of varied concentration and weight, two of them zero."""
    rows = []
    for i in range(8):
        f = random_band_limited(grid, seed=40 + i, corr_cells=1.5 + (i % 4))
        if i % 3 == 1:
            f = SpectralField.from_physical(grid, f.to_physical() ** 3)
        rows.append((3.0 * 0.5 ** i * (1.0 + 0.5 * (i % 2)), f))
    rows.insert(3, (2.0, SpectralField.zero(grid)))
    rows.append((5.0, SpectralField.zero(grid)))
    return rows


def _sup_cases():
    g2, g3 = Grid(2, 16, 2.0), Grid(3, 8, 2.0)
    return {"2d": (g2, MorreyIndex(3, 2), None),
            "2d strided": (g2, MorreyIndex(4, 1.5), BallSampling(2, BallSampling.default_for(g2).radii)),
            "3d": (g3, MorreyIndex(4, 8 / 3), None),
            "3d strided": (g3, MorreyIndex(3, 2), BallSampling(3, BallSampling.default_for(g3).radii))}


@pytest.mark.parametrize("case", sorted(_sup_cases()))
def test_morrey_sup_equals_max_of_weighted_norms(case):
    grid, idx, sampling = _sup_cases()[case]
    rows = _weighted_rows(grid) + [(0.7, gradient(random_band_limited(grid, seed=60)))]
    by_row = [weight * morrey_norm(f, idx, sampling) for weight, f in rows]
    unpruned = [weight * all_radii_morrey(f, idx, sampling) for weight, f in rows]
    assert by_row == unpruned
    assert morrey_sup(grid, rows, idx, sampling) == max(by_row) > 0
    # rows may come from a generator, read once
    assert morrey_sup(grid, iter(rows), idx, sampling) == max(by_row)
    sup = MorreyIndex(math.inf, math.inf)
    assert morrey_sup(grid, rows, sup) == max(w * morrey_norm(f, sup) for w, f in rows)


def test_weighted_morrey_norm_with_a_floor(grid16, monkeypatch):
    idx = MorreyIndex(3, 2)
    f = random_band_limited(grid16, seed=12)
    weight = 0.37
    full = weight * all_radii_morrey(f, idx)
    for floor in (0.0, 0.5 * full, full):
        assert morrey_norm(f, idx, None, weight, floor) == max(floor, full)
    forwards = []
    real = Grid.forward

    def counted(grid, values):
        forwards.append(values.shape)
        return real(grid, values)

    # a floor above every radius bound returns as it is, with no forward transform
    monkeypatch.setattr(Grid, "forward", counted)
    total = (np.abs(f.to_physical()) ** 2).sum() * grid16.cell_volume
    scale = max(radius ** (2 * (1 / 3 - 1 / 2)) for radius in BallSampling.default_for(grid16).radii)
    floor = 2.0 * weight * scale * total ** 0.5
    assert morrey_norm(f, idx, None, weight, floor) == floor
    assert forwards == []


def test_morrey_sup_is_won_by_a_later_row(grid16, monkeypatch):
    # a concentrated, heavily weighted last row wins after broad earlier ones
    idx = MorreyIndex(3, 2)
    rows = [(1.0, random_band_limited(grid16, seed=s)) for s in range(6)]
    rows.append((4.0, bump(grid16, 0.3)))
    expected = max(w * morrey_norm(f, idx) for w, f in rows)
    assert expected == 4.0 * morrey_norm(rows[-1][1], idx)
    forwards = []
    real = Grid.forward

    def counted(grid, values):
        forwards.append(values.shape)
        return real(grid, values)

    morrey_sup(grid16, rows, idx)  # fills the ball caches
    monkeypatch.setattr(Grid, "forward", counted)
    assert morrey_sup(grid16, rows, idx) == expected
    assert 0 < len(forwards) < len(rows)


def test_morrey_sup_rejects_a_row_on_another_grid():
    # the sup's sampling and caches belong to its grid; a row elsewhere is
    # refused, and one on an equal grid is normed
    f = random_band_limited(Grid(2, 32, 2.0), seed=3)
    idx = MorreyIndex(3, 2)
    for row in (f, heat_row(f, 0.1, True)):
        with pytest.raises(ValueError, match=r"Grid\(dim=2, m=32, L=2.0\).*"
                                             r"Grid\(dim=2, m=16, L=2.0\)"):
            morrey_sup(Grid(2, 16, 2.0), [(1.0, row)], idx)
    assert morrey_sup(Grid(2, 32, 2.0), [(1.0, f)], idx) == morrey_norm(f, idx) > 0


@pytest.mark.parametrize("idx", [MorreyIndex(3, 2), MorreyIndex(math.inf, math.inf)],
                         ids=["morrey", "sup"])
def test_morrey_sup_rejects_a_row_of_another_kind(grid16, idx):
    f = random_band_limited(grid16, seed=3)
    with pytest.raises(TypeError, match="SpectralField, VectorField or DeferredField"):
        morrey_sup(grid16, [(1.0, f), (1.0, f.to_physical())], idx)


@pytest.mark.parametrize("norm", [
    lambda grid, values: morrey_norm(values, MorreyIndex(3, 2)),
    lambda grid, values: morrey_norm(values, MorreyIndex(math.inf, math.inf)),
    lambda grid, values: weighted_series(MorreyIndex(3, 2), [(1.0, values)]),
    lambda grid, values: besov_morrey_norm_heat(values, MorreyIndex(3, 2), -0.5),
], ids=["morrey_norm", "morrey_norm sup", "weighted_series", "besov_morrey"])
def test_every_norm_rejects_a_bare_array(grid16, norm):
    # each entry makes its input a row through the check morrey_sup uses
    # (the test above), which names the row kinds
    values = random_band_limited(grid16, seed=3).to_physical()
    with pytest.raises(TypeError, match="SpectralField, VectorField or DeferredField"):
        norm(grid16, values)


def _half_spectrum(grid, components, seed, modes, exponent):
    """Random coefficients on ``modes`` modes of a half-spectrum, of scale
    10^exponent, Hermitian-inconsistent on the self-conjugate planes."""
    rng = np.random.default_rng(seed)
    shape = (components,) + grid.kshape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keep = np.zeros(coeffs.size, dtype=bool)
    keep[rng.choice(coeffs.size, size=min(modes, coeffs.size), replace=False)] = True
    return np.where(keep.reshape(shape), coeffs, 0.0) * 10.0 ** exponent


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), vector=st.booleans(),
       p1=st.sampled_from([1.5, 2.0, 8 / 3, 3.0]), ratio=st.floats(1.0, 3.0),
       seed=st.integers(0, 2 ** 16), modes=st.integers(1, 400), exponent=st.floats(-6.0, 6.0),
       kind=st.sampled_from(["random", "zero", "nan", "inf"]))
def test_spectral_bounds_dominate_exact_rows(dim, vector, p1, ratio, seed, modes, exponent, kind):
    grid = Grid(dim, 8, 2.0)
    cls = VectorField if vector else SpectralField
    coeffs = _half_spectrum(grid, dim if vector else 1, seed, modes, exponent)
    coeffs = coeffs.reshape(cls._leading(grid) + grid.kshape)
    if kind == "zero":
        coeffs[...] = 0.0
    elif kind != "random":
        coeffs.flat[seed % coeffs.size] = math.nan if kind == "nan" else math.inf
    field = cls(grid, coeffs)
    row = heat_row(field)
    idx, sup = MorreyIndex(p1 * ratio, p1), MorreyIndex(math.inf, math.inf)
    sampling = BallSampling.default_for(grid)
    bounded, bounded_sup = norms._bounded(row, idx, sampling), norms._bounded(row, sup, None)
    assert bounded.powered is None and bounded_sup.powered is None
    if kind in ("nan", "inf"):
        # no finite bound: the row is transformed, and its NaN makes the sup NaN
        assert np.isinf(bounded.bounds).all() and np.isinf(bounded_sup.bounds).all()
        assert math.isnan(morrey_sup(grid, [(1.0, field)], idx))
        return
    values = np.abs(row.values())
    wiener, parseval = norms._wiener_parseval(grid, row.moduli())
    total, peak = norms._power_bounds(grid, p1, wiener, parseval)
    exact = norms._powered(row, idx, sampling)
    widen = 1 + 1e-9
    assert values.max() <= wiener * widen
    assert (values ** 2).sum() * grid.cell_volume <= parseval * widen
    assert exact.total <= total * widen
    assert exact.powered.max() * grid.cell_volume <= peak * widen
    assert np.all(exact.bounds <= bounded.bounds)
    assert norms._powered(row, sup, None).bounds[0] <= bounded_sup.bounds[0]
    assert morrey_sup(grid, [(1.0, field)], idx, sampling) == morrey_norm(field, idx, sampling)
    if kind == "zero":
        assert bounded.bounds.max() == bounded_sup.bounds[0] == 0.0


def test_spectral_bounds_are_not_trusted_where_they_underflow():
    # at scale 1e-200, |F|^2 underflows to 0, so Parseval's P reads 0 while
    # sum |f|^1.5 dV is about 1e-300: the row is bounded by inf and transformed
    grid = Grid(2, 8, 2.0)
    field = SpectralField(grid, 1e-200 * _half_spectrum(grid, 1, 7, 400, 0.0)[0])
    row = heat_row(field)
    idx = MorreyIndex(3, 1.5)
    sampling = BallSampling.default_for(grid)
    assert norms._wiener_parseval(grid, row.moduli())[1] == 0.0
    assert np.isinf(norms._bounded(row, idx, sampling).bounds).all()
    assert morrey_sup(grid, [(1.0, field)], idx) == morrey_norm(field, idx) > 0


def test_morrey_sup_of_no_rows_or_zero_rows(grid16):
    idx = MorreyIndex(3, 2)
    assert morrey_sup(grid16, [], idx) == 0.0
    assert morrey_sup(grid16, [], MorreyIndex(math.inf, math.inf)) == 0.0
    zero = SpectralField.zero(grid16)
    assert morrey_sup(grid16, [(1.0, zero), (3.0, zero)], idx) == 0.0


@pytest.mark.parametrize("idx", [MorreyIndex(3, 2), MorreyIndex(math.inf, math.inf)],
                         ids=["morrey", "sup"])
def test_morrey_sup_with_one_nan_row_is_nan(grid16, idx):
    rows = [(1.0, random_band_limited(grid16, seed=s)) for s in range(4)]
    rows.insert(2, (0.5, _field_with_one_nan(grid16)))
    assert math.isnan(morrey_sup(grid16, rows, idx))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_field_has_nan_norm(grid16, bad):
    vals = random_band_limited(grid16, seed=3).to_physical()
    vals[3, 5] = bad
    field = SpectralField.from_physical(grid16, vals)
    assert math.isnan(morrey_norm(field, MorreyIndex(3, 2)))


def test_homogeneity_and_triangle(grid16):
    idx = MorreyIndex(3, 1.5)
    f = random_band_limited(grid16, seed=1)
    g = random_band_limited(grid16, seed=2)
    nf = morrey_norm(f, idx)
    assert abs(morrey_norm(2.5 * f, idx) - 2.5 * nf) < 1e-12 * nf
    fg = SpectralField.from_physical(grid16, f.to_physical() + g.to_physical())
    assert morrey_norm(fg, idx) <= (nf + morrey_norm(g, idx)) * (1 + 1e-12)


def test_refining_sampling_never_decreases(grid16):
    f = random_band_limited(grid16, seed=9)
    idx = MorreyIndex(3, 2)
    h = grid16.spacing
    coarse = BallSampling(4, [h, 4 * h, 16 * h])
    finer_centers = BallSampling(2, [h, 4 * h, 16 * h])
    more_radii = BallSampling(4, [h, 2 * h, 4 * h, 8 * h, 16 * h])
    base = morrey_norm(f, idx, coarse)
    assert morrey_norm(f, idx, finer_centers) >= base - 1e-15
    assert morrey_norm(f, idx, more_radii) >= base - 1e-15


def test_holder_inequality_exact_on_shared_sampling(grid16):
    # 1/r = 1/p + 1/q and 1/r1 = 1/p1 + 1/q1
    trip = ((4, 3), (4, 3), (2, 1.5))
    (p, p1), (q, q1), (r, r1) = trip
    sampling = BallSampling.default_for(grid16)
    rng_seeds = range(20)
    for seed in rng_seeds:
        f = random_band_limited(grid16, seed=100 + seed)
        g = random_band_limited(grid16, seed=200 + seed)
        prod = SpectralField.from_physical(grid16, f.to_physical() * g.to_physical())
        lhs = morrey_norm(prod, MorreyIndex(r, r1), sampling)
        rhs = morrey_norm(f, MorreyIndex(p, p1), sampling) * \
            morrey_norm(g, MorreyIndex(q, q1), sampling)
        assert lhs <= rhs * (1 + 1e-12)


def test_besov_heat_rejects_nonnegative_s(grid16):
    with pytest.raises(ValueError):
        besov_morrey_norm_heat(gaussian(grid16), MorreyIndex(3, 2), 0.0)


def test_besov_heat_zero_field(grid16):
    assert besov_morrey_norm_heat(SpectralField.zero(grid16), MorreyIndex(3, 2), -1.0) == 0.0


def test_besov_heat_scaling_invariance():
    # critical norm: u vs lambda^{-s} u(lambda x) agree on a 4x-shifted grid
    grid = Grid(2, 64, 8.0)
    idx = MorreyIndex(2, 1.5)
    s = -1.0
    u = gaussian(grid, a=1.0)
    scaled = rescale_field(u, 2, degree=-s)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, 64)
    tg_shift = TimeGrid.spanning(tg.t0 / 4, tg.times[-1] / 4, 64)
    a = besov_morrey_norm_heat(u, idx, s, tg)
    b = besov_morrey_norm_heat(scaled, idx, s, tg_shift)
    assert abs(a - b) / a < 0.10


def test_lp_partition_of_unity():
    grid = Grid(2, 32, 4.0)
    bank = LittlewoodPaleyBank(grid)
    assert bank.partition_defect() < 1e-10


def test_lp_single_annulus_field():
    # spectrum placed where phi_0 is identically 1 and the neighbors vanish
    grid = Grid(2, 32, 4 * np.pi)
    k = 1.0  # mode index 4: |xi| = 1 lies in [5/6, 3/2]
    vals = np.sin(k * (grid.x[0] + 0 * grid.x[1]))
    f = SpectralField.from_physical(grid, vals)
    bank = LittlewoodPaleyBank(grid)
    idx = MorreyIndex(3, 2)
    lp = besov_morrey_norm_lp(f, idx, s=-1.0, bank=bank)
    assert abs(lp - morrey_norm(f, idx)) < 1e-10 * morrey_norm(f, idx)


def test_lp_zero_field(grid16):
    assert besov_morrey_norm_lp(SpectralField.zero(grid16), MorreyIndex(3, 2), -1.0) == 0.0


def _field_with_one_nan(grid):
    vals = random_band_limited(grid, seed=8).to_physical()
    vals[2, 7] = math.nan
    return SpectralField.from_physical(grid, vals)


def test_besov_heat_nan_field_gives_nan(grid16):
    # a sup over times built on max(best, term) would read the NaN as 0.0
    f = _field_with_one_nan(grid16)
    assert math.isnan(morrey_norm(f, MorreyIndex(3, 2)))
    assert math.isnan(besov_morrey_norm_heat(f, MorreyIndex(3, 2), -1.0))


def test_lp_nan_field_gives_nan(grid16):
    assert math.isnan(besov_morrey_norm_lp(_field_with_one_nan(grid16), MorreyIndex(3, 2), -1.0))


def test_heat_vs_lp_within_factor_four():
    grid = Grid(2, 64, 8.0)
    idx = MorreyIndex(2, 1.5)
    for s in (-1.0, -0.5):
        for seed in range(5):
            f = random_band_limited(grid, seed=300 + seed)
            a = besov_morrey_norm_heat(f, idx, s)
            b = besov_morrey_norm_lp(f, idx, s)
            assert a / b < 4.0 and b / a < 4.0


def _exps_2d():
    return ExponentSet(N=2, gamma=0.0, p=4, q=3, r=4, p1=3, q1=9 / 4, r1=3, N1=2)


def test_x_norms_zero_trajectory(grid16):
    states = [StateTuple.zero(grid16, t=t) for t in (0.5, 1.0, 2.0)]
    rec = x_space_norms(Trajectory.from_states(states), _exps_2d())
    assert rec.total == 0.0


def test_x_norms_single_snapshot_unit_time(grid16):
    from mildlab.fields import solenoidal_gaussian
    n = gaussian(grid16, a=0.3, amplitude=0.7)
    c = gaussian(grid16, a=0.4, amplitude=0.2)
    v = SpectralField(grid16, grid16.forward(gaussian(grid16, a=0.5).to_physical()), pinned=True)
    u = solenoidal_gaussian(grid16, a=0.3, amplitude=0.1)
    st = StateTuple(1.0, n, c, v, u)
    exps = _exps_2d()
    rec = x_space_norms(Trajectory.from_states([st]), exps)
    assert rec.n_norm == morrey_norm(n, MorreyIndex(exps.q, exps.q1))
    assert rec.u_norm == morrey_norm(u, MorreyIndex(exps.p, exps.p1))
    assert rec.c_norm == (np.abs(c.to_physical()).max()
                          + morrey_norm(gradient(c), MorreyIndex(exps.r, exps.r1)))
    assert rec.v_norm == morrey_norm(gradient(v), MorreyIndex(exps.r, exps.r1))


@pytest.mark.parametrize("solve", ["small_solve_2d", "small_solve_3d"])
def test_x_space_norms_are_the_series_maxima(solve, request):
    case = request.getfixturevalue(solve)
    traj, config = case["traj"], case["config"]
    rec = x_space_norms(traj, config.exps, config.sampling)
    top = {name: float(values.max())
           for name, values in x_space_series(traj, config.exps, config.sampling).items()}
    assert rec.n_norm == top["n"]
    assert rec.c_norm == top["c_sup"] + top["grad_c"]
    assert rec.v_norm == top["grad_v"]
    assert rec.u_norm == top["u"]
    assert rec.total == rec.n_norm + rec.c_norm + rec.v_norm + rec.u_norm > 0


def test_x_space_norms_transform_few_rows(small_solve_2d, monkeypatch):
    # per-row evaluation transforms every one of the 4 T Morrey rows forward
    traj, config = small_solve_2d["traj"], small_solve_2d["config"]
    x_space_norms(traj, config.exps, config.sampling)  # fills the ball caches
    forwards, rows = [], []
    real, real_norm = Grid.forward, norms.morrey_norm

    def counted(grid, values):
        forwards.append(values.shape)
        return real(grid, values)

    def counted_norm(*args, **kwargs):
        rows.append(args[1])
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(Grid, "forward", counted)
    monkeypatch.setattr(norms, "morrey_norm", counted_norm)
    x_space_norms(traj, config.exps, config.sampling)
    # each Morrey row is one morrey_norm call, the name the benchmark tracer wraps
    assert len(rows) == 4 * len(traj)
    # 19 forward transforms for the 36 stored times when this was written
    assert len(traj) >= 16
    assert len(forwards) <= len(traj)


@pytest.mark.parametrize("solve", ["small_solve_2d", "small_solve_3d"])
def test_x_space_norms_bound_rows_from_their_spectra(solve, request, monkeypatch):
    # taking every row component to physical space, as pass 1 once did, costs
    # one backward transform each; now at most half of them are made
    case = request.getfixturevalue(solve)
    traj, config = case["traj"], case["config"]
    x_space_norms(traj, config.exps, config.sampling)  # fills the ball caches
    counts = {"forward": 0, "backward": 0, "convolutions": 0}
    real_forward, real_backward, real_ball = Grid.forward, Grid.backward, norms._ball_spectrum

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(Grid, "forward", counted("forward", real_forward))
    monkeypatch.setattr(Grid, "backward", counted("backward", real_backward))
    monkeypatch.setattr(norms, "_ball_spectrum", counted("convolutions", real_ball))
    x_space_norms(traj, config.exps, config.sampling)
    components = len(traj) * (1 + 1 + 3 * traj.grid.dim)   # n, c_sup, grad c, grad v, u
    assert counts["backward"] - counts["convolutions"] <= components // 2
    # the rows convolved, and so transformed forward, are those of norming every row
    assert counts["forward"] == {2: 19, 3: 6}[traj.grid.dim]


def test_x_norms_nan_state_gives_nan_total(grid16):
    states = [StateTuple.zero(grid16, t=t) for t in (0.5, 1.0, 2.0)]
    n = random_band_limited(grid16, seed=8).to_physical()
    n[2, 7] = math.nan
    states[1].n = SpectralField.from_physical(grid16, n)
    assert math.isnan(x_space_norms(Trajectory.from_states(states), _exps_2d()).total)


def test_x_norms_requires_increasing_times(grid16):
    states = [StateTuple.zero(grid16, t=1.0), StateTuple.zero(grid16, t=0.5)]
    with pytest.raises(ValueError, match="strictly increasing"):
        x_space_norms(Trajectory.from_states(states), _exps_2d())
    with pytest.raises(ValueError, match="empty"):
        x_space_norms(Trajectory.from_states([]), _exps_2d())
    with pytest.raises(ValueError, match="empty"):
        x_space_norms(Trajectory.zero(grid16, []), _exps_2d())


def test_data_norm_zero_and_constant_c(grid16):
    exps = _exps_2d()
    zero = StateTuple.zero(grid16)
    assert data_norm_I(zero, exps) == 0.0
    c0 = SpectralField.from_physical(grid16, np.full(grid16.shape, 1.7))
    data = StateTuple(0.0, SpectralField.zero(grid16), c0,
                      SpectralField.zero(grid16),
                      __import__("mildlab.spectral", fromlist=["VectorField"]).VectorField.zero(grid16))
    assert abs(data_norm_I(data, exps) - 1.7) < 1e-12


def test_data_norm_nan_cell_density_gives_nan():
    from mildlab.solver import SolverConfig, smallness_check

    grid = Grid(2, 16, 4.0)
    data = gaussian_data(grid)
    n = data.n.to_physical()
    n[3, 5] = math.nan
    data.n = SpectralField.from_physical(grid, n)
    exps = exponents_2d()
    parts = data_norm_components(data, exps)
    assert math.isnan(parts["n0"])
    assert all(math.isfinite(parts[name]) for name in ("c0_sup", "grad_c0", "grad_v0", "u0"))
    assert math.isnan(data_norm_I(data, exps))
    config = SolverConfig(exps=exps, grid=grid,
                          time_grid=TimeGrid.spanning(grid.spacing ** 2, 16.0, 8))
    table = smallness_check(data, config, n_fields=3)
    assert math.isnan(table.data_norm) and not table.small_enough


def test_data_norm_rejects_inadmissible(grid16):
    bad = ExponentSet(N=2, gamma=0.0, p=4, q=1, r=4, p1=4, q1=1, r1=4, N1=2)
    with pytest.raises(ValueError):
        data_norm_I(StateTuple.zero(grid16), bad)


def test_data_norm_scale_invariance():
    # the sup window is capped below the box-homogenization scale: at 2D
    # criticality a mass-carrying field plateaus, and past ~L^2 the torus
    # mean takes over and corrupts the plateau
    from mildlab.spectral import VectorField
    from mildlab.fields import solenoidal_gaussian
    grid = Grid(2, 96, 12.0)
    exps = _exps_2d()
    # zero-mean cell density: a mass-carrying field at 2D criticality is
    # plateau-valued in time and the plateau collides with the torus mean
    n0 = gradient(gaussian(grid, a=1.0, amplitude=0.3)).components[0]
    c0 = gaussian(grid, a=1.5, amplitude=0.2)
    v0 = SpectralField(grid, gradient(gaussian(grid, a=1.2)).coeffs[1], pinned=True)
    u0 = solenoidal_gaussian(grid, a=1.0, amplitude=0.25)
    data = StateTuple(0.0, n0, c0, v0, u0)
    lam = 2
    scaled = StateTuple(0.0, rescale_field(n0, lam, 2.0), rescale_field(c0, lam, 0.0),
                        rescale_field(v0, lam, 0.0),
                        VectorField.from_components([rescale_field(comp, lam, 1.0)
                                                     for comp in u0.components]))
    tg = TimeGrid.spanning(grid.spacing ** 2, 25.0, 64)
    a = data_norm_I(data, exps, time_grid=tg)
    b = data_norm_I(scaled, exps, time_grid=tg)
    assert abs(a - b) / a < 0.10


@pytest.mark.parametrize("exps, m, half_width, count", [
    (exponents_2d(), 32, 6.0, 10), (exponents_3d(), 12, 4.0, 6)], ids=["2d", "3d"])
def test_data_norm_and_x_norm_share_weights(exps, m, half_width, count):
    # each data summand is the sup over t of t^w ||e^{t Lap} f0|| at the
    # X-norm term's pair and weight w, so with gamma = 0 it is the X-norm
    # of the caloric extension on the same time grid, bit for bit
    from mildlab.solver import caloric_extension
    grid = Grid(exps.N, m, half_width)
    tg = TimeGrid.spanning(grid.spacing ** 2, grid.box_half_width ** 2, count)
    data = gaussian_data(grid)
    parts = data_norm_components(data, exps, time_grid=tg)
    caloric = caloric_extension(data, 0.0, tg)
    record = x_space_norms(caloric, exps)
    assert parts["n0"] == record.n_norm
    assert parts["u0"] == record.u_norm
    assert parts["grad_v0"] == record.v_norm
    assert parts["grad_c0"] == x_space_series(caloric, exps)["grad_c"].max()
    assert parts["n0"] > 0 and parts["grad_c0"] > 0


def test_smoothing_constant_finite_and_cached():
    grid = Grid(2, 32, 4.0)
    request = {"c": (MorreyIndex(2, 1.5), MorreyIndex(4, 3), False)}
    c1 = smoothing_constant(grid, request, n_fields=4)["c"]
    c2 = smoothing_constant(grid, request, n_fields=4)["c"]
    assert 0 < c1 < np.inf and c1 == c2
    with pytest.raises(ValueError):
        smoothing_constant(grid, {"c": (MorreyIndex(4, 3), MorreyIndex(2, 1.5), False)},
                           n_fields=4)


@pytest.mark.parametrize("grid", [Grid(2, 16, 2.0), Grid(3, 8, 2.0)], ids=["2d", "3d"])
def test_smoothing_constant_is_the_brute_force_sup_ratio(grid):
    # each constant is the max over every (field, time) of
    # ||(grad) e^{t Lap} f||_dst / (t^-pow ||f||_src), with every radius normed
    src, dst = MorreyIndex(2, 1.5), MorreyIndex(4, 3)
    requests = {"sup": (src, MorreyIndex(math.inf, math.inf), False),
                "grad": (src, dst, True)}
    measured = smoothing_constant(grid, requests, n_fields=3)
    N, h2 = grid.dim, grid.spacing ** 2
    times = TimeGrid.spanning(h2, min(grid.box_half_width ** 2, h2 * 1e4), 17).times
    ratios = {"sup": [], "grad": []}
    for i in range(3):
        f = random_band_limited(grid, 1234 + i, corr_cells=3.0 + (i % 4))
        f_norm = all_radii_morrey(f, src)
        for t in times:
            evolved = heat_apply(f, t)
            peak = np.abs(evolved.to_physical()).max()
            ratios["sup"].append(peak / (t ** (-N / (2.0 * src.p)) * f_norm))
            magnitude = SpectralField.from_physical(grid, gradient(evolved).magnitude())
            power = (N / 2.0) * (1.0 / src.p - 1.0 / dst.p) + 0.5
            ratios["grad"].append(all_radii_morrey(magnitude, dst) / (t ** (-power) * f_norm))
    for name, values in ratios.items():
        assert measured[name] == pytest.approx(max(values), rel=1e-13, abs=0), name


def test_smoothing_cache_keeps_samplings_apart():
    grid, fresh = Grid(2, 32, 4.0), Grid(2, 32, 4.0)
    request = {"c": (MorreyIndex(2, 1.5), MorreyIndex(4, 3), False)}
    default = BallSampling.default_for(grid)
    coarse = BallSampling(2, default.radii[::2] + default.radii[-1:])
    c_default = smoothing_constant(grid, request, n_fields=2)["c"]
    c_coarse = smoothing_constant(grid, request, n_fields=2, sampling=coarse)["c"]
    fresh_coarse = smoothing_constant(fresh, request, n_fields=2, sampling=coarse)["c"]
    fresh_default = smoothing_constant(fresh, request, n_fields=2, sampling=default)["c"]
    assert c_coarse == fresh_coarse and c_default == fresh_default
    assert c_coarse != c_default


def test_smoothing_cache_never_shares_between_grids():
    # CPython hands a freed grid's id() to a later grid; allocate 64^2 grids
    # until one takes the freed 16^2 grid's id (or give up after 64)
    request = {"c": (MorreyIndex(2, 1.5), MorreyIndex(4, 3), False)}
    small = Grid(2, 16, 4.0)
    smoothing_constant(small, request, n_fields=1)
    freed = id(small)
    del small
    later = [Grid(2, 64, 4.0)]
    while id(later[-1]) != freed and len(later) < 64:
        later.append(Grid(2, 64, 4.0))
    cached = smoothing_constant(later[-1], request, n_fields=1)["c"]
    assert cached == smoothing_constant(Grid(2, 64, 4.0), request, n_fields=1)["c"]


def test_default_sampling_is_made_once_per_grid(monkeypatch):
    calls = []
    real = norms.lattice_distances
    monkeypatch.setattr(norms, "lattice_distances", lambda grid: calls.append(grid) or real(grid))
    grid = Grid(2, 16, 4.0)
    f = gaussian(grid, a=0.5)
    assert morrey_norm(f, MorreyIndex(4, 3)) > 0 and morrey_norm(f, MorreyIndex(3, 2)) > 0
    assert calls == [grid]
    assert BallSampling.default_for(grid) is BallSampling.default_for(grid)


def test_smoothing_sources_are_normed_once_per_source_index(monkeypatch):
    # two requests share a source index, so each ensemble source is normed
    # in it once; the spy holds every field it sees, so no id() is reused
    calls = []
    real = norms.morrey_norm

    def spy(field, idx, *args, **kwargs):
        calls.append((field, idx))
        return real(field, idx, *args, **kwargs)

    monkeypatch.setattr(norms, "morrey_norm", spy)
    src = MorreyIndex(2, 1.5)
    requests = {"sup": (src, MorreyIndex(math.inf, math.inf), False),
                "grad": (src, MorreyIndex(4, 3), True)}
    smoothing_constant(Grid(2, 16, 4.0), requests, n_fields=3)
    pairs = [(id(field), idx) for field, idx in calls]
    assert len(pairs) == len(set(pairs))
    assert sum(isinstance(field, SpectralField) for field, _ in calls) == 3


@pytest.mark.parametrize("grid", [Grid(2, 16, 2.0), Grid(3, 8, 2.0)], ids=["2d", "3d"])
def test_smoothing_rows_are_made_at_most_once(grid, monkeypatch):
    # two requests per derivative kind share each (field, time, derivative)
    # row: its values are made at most once, and rows no bound can raise
    # are never made, so the backward transforms that make values (all but
    # the ball convolutions, one per ball spectrum read) number fewer than
    # the rows
    made, gradients, backwards, balls = [], [], [], []
    real_heat, real_gradient, real_backward = norms.heat_apply, spectral.gradient, Grid.backward
    real_ball = norms._ball_spectrum

    def heat(field, t):
        made.append((field, t, real_heat(field, t)))
        return made[-1][2]

    def backward(self, coeffs):
        backwards.append(coeffs.shape)
        return real_backward(self, coeffs)

    monkeypatch.setattr(norms, "heat_apply", heat)
    monkeypatch.setattr(spectral, "gradient", lambda f: gradients.append(f) or real_gradient(f))
    monkeypatch.setattr(Grid, "backward", backward)
    monkeypatch.setattr(norms, "_ball_spectrum", lambda g, r: balls.append(r) or real_ball(g, r))
    src, sup = MorreyIndex(2, 1.5), MorreyIndex(math.inf, math.inf)
    requests = {"sup": (src, sup, False), "dst": (src, MorreyIndex(4, 3), False),
                "grad_sup": (src, sup, True), "grad_dst": (src, MorreyIndex(3, 2), True)}
    n_fields = 3
    measured = smoothing_constant(grid, requests, n_fields)
    assert all(0 < value < math.inf for value in measured.values())
    rows = Counter((id(f), t, any(g is out for g in gradients)) for f, t, out in made)
    assert rows and [row for row, count in rows.items() if count > 1] == []
    assert len(backwards) - len(balls) < n_fields * 17 * 2
