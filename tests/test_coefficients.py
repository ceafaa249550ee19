"""Moduli, the coefficient catalogue, mollification, smoothing, cutoff."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from mvsde import (
    Coefficient,
    ConstantDiffusion,
    ConstantDrift,
    EmpiricalSegmentLaw,
    InvalidArgumentError,
    LinearDelayDrift,
    LogLipschitzDrift,
    LogModulus,
    MeanFieldLinearDrift,
    MeanFieldSecondMomentDrift,
    RngKey,
    SMOOTHING_STREAM,
    TEST_STREAM,
    TimeGrid,
    eval_kappa,
    smooth_coefficient,
    truncate_coefficient,
    wasserstein2,
)
from mvsde.coefficients import _mollifier_matrix, _mollify

KEY = RngKey(20260816, (TEST_STREAM, 3))
GRID = TimeGrid(dt=0.1, delay=0.3, horizon=1.0)
W = GRID.window_len


def _random_windows(gen, count, dim=1, scale=1.0, grid=GRID):
    return gen.standard_normal((count, grid.window_len, dim)) * scale


def _at(f, t, window, law=None, grid=GRID):
    """``f`` at one (window, d) window: the batch of one."""
    return f.eval_batch(t, window[None], law, grid)[0]


class _EndValue(Coefficient):
    """f(t, z) = fn(z(0)) for an elementwise ``fn``, path coefficient."""

    def __init__(self, fn=lambda z: z, dim=1):
        self.fn = fn
        self.dim = dim

    def eval_batch(self, t, values, law, grid):
        return self.fn(values[:, -1, :])


# ---------------------------------------------------------------------------
# moduli


def test_kappa_examples():
    assert eval_kappa(LogModulus(), 0.0) == 0.0
    e = math.e
    assert eval_kappa(LogModulus(branch=1.0 / e), e**-2) == pytest.approx(2.0 * e**-2)


def test_kappa_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        eval_kappa(LogModulus(), -0.1)
    with pytest.raises(InvalidArgumentError):
        eval_kappa(LogModulus(), np.nan)
    with pytest.raises(InvalidArgumentError):
        LogModulus(branch=0.0)
    with pytest.raises(InvalidArgumentError):
        LogModulus(branch=0.5)


def test_kappa_continuous_at_branch():
    for branch in (0.05, 0.25, 1.0 / math.e):
        k = LogModulus(branch=branch)
        eps = 1e-12
        below = eval_kappa(k, branch - eps)
        above = eval_kappa(k, branch + eps)
        assert abs(above - below) < 1e-10


def test_kappa_strictly_increasing():
    gen = KEY.child(1).generator()
    xs = np.sort(gen.uniform(0.0, 3.0, size=500))
    xs = np.unique(xs)
    ys = eval_kappa(LogModulus(branch=0.25), xs)
    assert np.all(np.diff(ys) > 0.0)


def test_kappa_concave_midpoint():
    gen = KEY.child(2).generator()
    x = gen.uniform(0.0, 4.0, size=10_000)
    y = gen.uniform(0.0, 4.0, size=10_000)
    for kappa in (LogModulus(branch=0.25), LogModulus(branch=1.0 / math.e)):
        mid = eval_kappa(kappa, 0.5 * (x + y))
        assert np.all(mid >= 0.5 * (eval_kappa(kappa, x) + eval_kappa(kappa, y)) - 1e-12)


# ---------------------------------------------------------------------------
# catalogue


def test_zero_and_constant_drifts():
    window = np.full((W, 2), (1.0, -2.0))
    z = ConstantDrift(np.zeros(2))
    assert np.array_equal(_at(z, 0.0, window), [0.0, 0.0])
    c = ConstantDrift((0.5, 1.5))
    assert np.array_equal(_at(c, 0.3, window), [0.5, 1.5])
    assert c.lipschitz_sq == 0.0


def test_linear_delay_drift_reads_both_ends():
    f = LinearDelayDrift(pull=2.0, push=0.5)
    window = np.linspace(-0.3, 0.0, W)[:, None]
    # z(0) = 0, z(-r0) = -0.3
    assert _at(f, 0.0, window)[0] == pytest.approx(-2.0 * 0.0 + 0.5 * -0.3)
    assert f.lipschitz_sq == pytest.approx(2.0 * (4.0 + 0.25))


def test_linear_delay_drift_lipschitz_contract():
    f = LinearDelayDrift(pull=1.2, push=-0.7, dim=2)
    gen = KEY.child(3).generator()
    a = _random_windows(gen, 300, dim=2, scale=2.0)
    b = _random_windows(gen, 300, dim=2, scale=2.0)
    for z1, z2 in zip(a, b):
        gap = float(np.sum((_at(f, 0.0, z1) - _at(f, 0.0, z2)) ** 2))
        sup = np.max(np.linalg.norm(z1 - z2, axis=-1))
        assert gap <= f.lipschitz_sq * sup**2 + 1e-12


def test_log_lipschitz_drift_shape_and_bound():
    f = LogLipschitzDrift(LogModulus(branch=0.25))
    gen = KEY.child(4).generator()
    for window in _random_windows(gen, 100, scale=3.0):
        out = _at(f, 0.0, window)
        z0 = window[-1, 0]
        assert out.shape == (1,)
        # opposes the sign of the current state, magnitude capped
        assert out[0] * z0 <= 0.0
        assert abs(out[0]) <= eval_kappa(LogModulus(0.25), 1.0) + 1e-15


def test_constant_diffusion_scalar_expansion():
    g = ConstantDiffusion(0.7, dim=2, width=3)
    out = _at(g, 0.0, np.zeros((W, 2)))
    np.testing.assert_array_equal(out, 0.7 * np.eye(2, 3))
    assert (g.dim, g.width) == (2, 3)
    assert np.all(_at(ConstantDiffusion(0.0, 2, 2), 0.0, np.ones((W, 2))) == 0.0)


def test_constant_diffusion_refuses_a_shape_that_contradicts_dim_or_width():
    # a matrix once silently overrode both: a 2 x 2 diffusion for dim=3, width=5
    for dim, width in ((3, 5), (3, None), (None, 5), (2, 3)):
        with pytest.raises(InvalidArgumentError):
            ConstantDiffusion(np.eye(2), dim=dim, width=width)
    g = ConstantDiffusion(np.eye(2, 3), dim=2, width=3)
    assert (g.dim, g.width) == (2, 3)
    for dim, width in ((0, None), (-2, 2), (2, 0)):
        with pytest.raises(InvalidArgumentError):
            ConstantDiffusion(0.5, dim, width)
    with pytest.raises(InvalidArgumentError):
        ConstantDiffusion(np.zeros((0, 2)))


def test_constant_drift_refuses_an_empty_vector():
    with pytest.raises(InvalidArgumentError):
        ConstantDrift(np.zeros(0))


@pytest.mark.parametrize(
    "build",
    [
        lambda dim: LinearDelayDrift(1.0, 0.5, dim=dim),
        lambda dim: MeanFieldLinearDrift(dim=dim),
        lambda dim: MeanFieldSecondMomentDrift(dim=dim),
    ],
    ids=["LinearDelayDrift", "MeanFieldLinearDrift", "MeanFieldSecondMomentDrift"],
)
def test_drifts_refuse_a_dimension_that_is_not_a_positive_integer(build):
    # dim=0 and dim=-2 once built coefficients of dimension 0 and -2
    for dim in (0, -2, 1.5):
        with pytest.raises(InvalidArgumentError):
            build(dim)
    assert build(np.int64(3)).dim == 3


def test_mean_field_linear_drift_examples():
    b = MeanFieldLinearDrift(coupling=0.5)
    law = EmpiricalSegmentLaw(GRID, np.stack([np.full((W, 1), 2.0), np.full((W, 1), 4.0)]))
    # anchor = mean of z(-r0) = 3, so b = -(1 - 0.5*3)
    assert _at(b, 0.0, np.full((W, 1), 1.0), law)[0] == pytest.approx(0.5)


def test_mean_field_one_sided_contract():
    # <z1(0)-z2(0), b(z1,mu1)-b(z2,mu2)> <= k1(||z1-z2||^2) + k2(W2(mu1,mu2)^2)
    # with linear moduli; the coupling constant sets the slopes.
    coupling = 0.8
    b = MeanFieldLinearDrift(coupling=coupling)
    gen = KEY.child(5).generator()
    for _ in range(100):
        z1, z2 = _random_windows(gen, 2, scale=1.5)
        law1 = EmpiricalSegmentLaw(GRID, _random_windows(gen, 4, scale=1.5))
        law2 = EmpiricalSegmentLaw(GRID, _random_windows(gen, 4, scale=1.5))
        dz = z1[-1] - z2[-1]
        inner = float(np.dot(dz, _at(b, 0.0, z1, law1) - _at(b, 0.0, z2, law2)))
        w2 = wasserstein2(law1, law2)
        sup = np.max(np.linalg.norm(z1 - z2, axis=-1))
        bound = 0.5 * coupling * sup**2 + 0.5 * coupling * w2**2
        assert inner <= bound + 1e-12


def test_mean_field_second_moment_drift_bounded():
    b = MeanFieldSecondMomentDrift()
    window = np.full((W, 1), 3.0)
    small = EmpiricalSegmentLaw(GRID, np.zeros((1, W, 1)))
    big = EmpiricalSegmentLaw(GRID, np.full((1, W, 1), 10.0))
    assert _at(b, 0.0, window, small)[0] == pytest.approx(-3.0)
    assert _at(b, 0.0, window, big)[0] == pytest.approx(-3.0 / 101.0)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("count", [1, 255, 256, 257])
def test_mean_field_drift_reductions_match_np_mean_bits(count, dim):
    # the drifts reduce with np.add.reduce and one division, which is
    # what np.mean does; on strided read-only windows of a flow whose
    # entries span 16 orders of magnitude the bits must agree
    gen = KEY.child(40 + count + dim).generator()
    flow = gen.standard_normal((count, W + 5, dim)) * 10.0 ** gen.uniform(
        -8, 8, (count, W + 5, dim)
    )
    flow.flags.writeable = False
    law = EmpiricalSegmentLaw(GRID, flow[:, 2 : 2 + W])
    assert np.shares_memory(law.values, flow)
    values = _random_windows(gen, 5, dim)
    coupling = 0.7
    anchor = np.mean(law.values[:, 0, :], axis=0)
    expected = -(values[:, -1, :] - coupling * anchor)
    got = MeanFieldLinearDrift(coupling, dim).eval_batch(0.0, values, law, GRID)
    assert np.array_equal(got, expected)
    sups = np.max(np.linalg.norm(law.values, axis=2), axis=1)
    expected = -values[:, -1, :] / (1.0 + float(np.mean(sups * sups)))
    got = MeanFieldSecondMomentDrift(dim).eval_batch(0.0, values, law, GRID)
    assert np.array_equal(got, expected)


def test_mean_field_diffusion_ignores_law():
    g = ConstantDiffusion(0.3)
    law = EmpiricalSegmentLaw(GRID, np.full((1, W, 1), 5.0))
    assert _at(g, 0.0, np.full((W, 1), 1.0), law)[0, 0] == 0.3


# ---------------------------------------------------------------------------
# mollifier


def test_mollify_zero_segment():
    out = _mollify(np.zeros((1, W, 1)), GRID, 3)[0]
    assert np.all(out == 0.0)


def test_mollify_constant_within_cap():
    for n in (1, 2, 5):
        out = _mollify(np.full((1, W, 1), -0.8), GRID, n)[0]
        np.testing.assert_allclose(out, -0.8, rtol=0.0, atol=1e-12)


def test_mollify_constant_beyond_cap_rescales():
    # |c| = 2n gives scale 1/2, so the output is c/2 with sup-norm n
    out = _mollify(np.full((1, W, 1), 2.0), GRID, 1)[0]
    np.testing.assert_allclose(out, 1.0, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(out)) == pytest.approx(1.0, abs=1e-12)


def test_mollify_sup_bound():
    gen = KEY.child(6).generator()
    for n in (1, 2, 7):
        for window in _random_windows(gen, 50, dim=2, scale=4.0):
            out = _mollify(window[None], GRID, n)[0]
            sup_in = np.max(np.linalg.norm(window, axis=-1))
            assert np.max(np.linalg.norm(out, axis=-1)) <= min(sup_in, float(n)) + 1e-12


def test_mollify_nonexpansive_below_cap():
    # below sup-norm n/2 the scale factor is 1 and the map is a plain
    # window average, hence 1-Lipschitz in the sup-norm
    gen = KEY.child(7).generator()
    n = 4
    for _ in range(50):
        a, b = _random_windows(gen, 2, dim=2, scale=0.5)
        gap_in = np.max(np.linalg.norm(a - b, axis=-1))
        ma, mb = _mollify(np.stack([a, b]), GRID, n)
        assert np.max(np.linalg.norm(ma - mb, axis=-1)) <= gap_in + 1e-12


def _reference_mollify(zeta, grid, n):
    """The mollifier of one (window, d) window as a loop over window
    samples: exact trapezoid integration of the interpolant on the
    refined grid, one np.interp per coordinate."""
    sup = np.max(np.linalg.norm(zeta, axis=-1))
    scale = 1.0 if sup == 0.0 else min(sup, float(n)) / sup
    theta = grid.window_times()
    out = np.empty_like(zeta)
    width = 1.0 / n
    for j, s in enumerate(theta):
        hi = min(s + width, 1.0)
        pts = np.unique(np.concatenate([[s, hi], theta[(theta > s) & (theta < hi)]]))
        clipped = np.minimum(pts, 0.0)
        vals = np.empty((pts.size, zeta.shape[1]))
        for c in range(zeta.shape[1]):
            vals[:, c] = np.interp(clipped, theta, zeta[:, c])
        gaps = np.diff(pts)
        integral = 0.5 * np.sum(gaps[:, None] * (vals[:-1] + vals[1:]), axis=0)
        out[j] = n * scale * integral
    return out


# r0 = 0 gives one-sample windows; 0.004 and 0.05 are steps that 1/3,
# 1/16 and 1/100 are no multiples of
MOLLIFIER_GRIDS = [
    TimeGrid(dt=0.1, delay=0.0, horizon=1.0),
    TimeGrid(dt=0.004, delay=0.032, horizon=0.04),
    TimeGrid(dt=0.01, delay=0.1, horizon=1.0),
    TimeGrid(dt=0.05, delay=0.5, horizon=1.0),
]


@pytest.mark.parametrize("grid", MOLLIFIER_GRIDS, ids=lambda g: f"r0={g.delay}")
@pytest.mark.parametrize("dim", [1, 3])
def test_mollify_matches_reference_loop(grid, dim):
    gen = KEY.child(12, dim).generator()
    for n in (1, 2, 3, 4, 16, 100):
        zero = np.zeros((grid.window_len, dim))
        got = _mollify(zero[None], grid, n)[0]
        assert np.array_equal(got, _reference_mollify(zero, grid, n))
        # the last scale puts the sup-norm beyond the cap n for every n
        for scale in (1e-3, 0.3, 1.0, 5.0, 50.0, 1e3):
            window = gen.standard_normal((grid.window_len, dim)) * scale
            got = _mollify(window[None], grid, n)[0]
            want = _reference_mollify(window, grid, n)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_mollifier_matrix_is_cached_and_read_only():
    a = _mollifier_matrix(TimeGrid(dt=0.1, delay=0.3, horizon=1.0), 3)
    b = _mollifier_matrix(TimeGrid(dt=0.1, delay=0.3, horizon=1.0), 3)
    assert a is b
    assert a.shape == (4, 4)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert _mollifier_matrix(GRID, 4) is not a


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_of_constant_is_exact():
    key = RngKey(7, (SMOOTHING_STREAM,))
    f = smooth_coefficient(ConstantDrift((1.0, -2.0)), n=3, mc_samples=5, rng_stream=key)
    np.testing.assert_array_equal(_at(f, 0.0, np.full((W, 2), 9.0)), [1.0, -2.0])


def test_smoothing_deterministic_per_stream():
    base = _EndValue(np.sin)
    window = np.full((W, 1), 0.7)
    a = smooth_coefficient(base, 2, 64, RngKey(5, (SMOOTHING_STREAM,)))
    b = smooth_coefficient(base, 2, 64, RngKey(5, (SMOOTHING_STREAM,)))
    c = smooth_coefficient(base, 2, 64, RngKey(6, (SMOOTHING_STREAM,)))
    va, vb, vc = (_at(f, 0.0, window) for f in (a, b, c))
    assert np.array_equal(va, vb)
    assert not np.array_equal(va, vc)


def test_smoothing_linear_coefficient_mean():
    # for f(z) = z(0) the Brownian bump is mean zero, so the estimator
    # mean is the mollified end value; 10^4 samples puts it within 3 SE
    base = _EndValue()
    gen = KEY.child(8).generator()
    window = gen.standard_normal((W, 1))
    n, mc = 2, 10_000
    f = smooth_coefficient(base, n, mc, RngKey(11, (SMOOTHING_STREAM,)))
    target = _mollify(window[None], GRID, n)[0, -1, 0]
    se = math.sqrt(GRID.delay) / n / math.sqrt(mc)
    assert abs(_at(f, 0.0, window)[0] - target) <= 3.0 * se


def test_smoothing_variance_scales_inversely_with_samples():
    base = _EndValue(np.sin)
    window = np.full((W, 1), 0.4)
    reps = 400

    def estimates(mc):
        out = np.empty(reps)
        for i in range(reps):
            f = smooth_coefficient(base, 1, mc, RngKey(1000 + i, (SMOOTHING_STREAM,)))
            out[i] = _at(f, 0.0, window)[0]
        return out

    v1 = np.var(estimates(1), ddof=1)
    v16 = np.var(estimates(16), ddof=1)
    assert 8.0 < v1 / v16 < 32.0


def test_smoothing_inherits_bound():
    base = LogLipschitzDrift(LogModulus(branch=0.25))
    f = smooth_coefficient(base, 2, 32, RngKey(3, (SMOOTHING_STREAM,)))
    gen = KEY.child(9).generator()
    for window in _random_windows(gen, 40, scale=2.0):
        assert abs(_at(f, 0.0, window)[0]) <= eval_kappa(LogModulus(0.25), 1.0) + 1e-12


def _reference_smoothed(f, base, t, values, law, grid, n):
    """Smoothing one particle at a time: mollify its window, call the
    base once on its mc perturbed windows, average."""
    pert = f._perturbations(grid, values.shape[2])
    rows = []
    for v in values:
        smooth = _mollify(v[None], grid, n)[0]
        rows.append(np.mean(base.eval_batch(t, smooth[None] + pert, law, grid), axis=0))
    return np.stack(rows, axis=0)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("mc", [1, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_batched_smoothing_matches_per_particle_loop(count, mc, dim):
    gen = KEY.child(13, count, mc, dim).generator()
    values = gen.standard_normal((count, GRID.window_len, dim)) * 2.0
    law = EmpiricalSegmentLaw(GRID, gen.standard_normal((7, GRID.window_len, dim)))
    bases = [
        (LinearDelayDrift(1.0, 0.5, dim), None, (count, dim)),
        (MeanFieldLinearDrift(coupling=0.7, dim=dim), law, (count, dim)),
        (MeanFieldSecondMomentDrift(dim), law, (count, dim)),
        (
            ConstantDiffusion(np.arange(1.0, 2.0 * dim + 1.0).reshape(dim, 2)),
            None,
            (count, dim, 2),
        ),
        (
            truncate_coefficient(ConstantDiffusion(np.ones((dim, 2))), radius=1.0, ramp=2.0),
            None,
            (count, dim, 2),
        ),
    ]
    for i, (base, arg, shape) in enumerate(bases):
        for n in (1, 3):
            f = smooth_coefficient(base, n, mc, KEY.child(14, i))
            got = f.eval_batch(0.3, values, arg, GRID)
            assert got.shape == shape
            want = _reference_smoothed(f, base, 0.3, values, arg, GRID, n)
            assert np.array_equal(got, want), (type(base).__name__, n)


def test_mollify_rejects_bad_index():
    # the mollifier index n is checked where smoothing is built, the only
    # public entry to the mollifier
    with pytest.raises(InvalidArgumentError):
        smooth_coefficient(ConstantDrift((1.0,)), 0, 5, KEY.child(15))
    with pytest.raises(InvalidArgumentError):
        smooth_coefficient(ConstantDrift((1.0,)), 2.5, 5, KEY.child(15))


def test_smoothing_validates_arguments():
    base = ConstantDrift(0.0)
    key = RngKey(0, (SMOOTHING_STREAM,))
    with pytest.raises(InvalidArgumentError):
        smooth_coefficient(base, 0, 10, key)
    with pytest.raises(InvalidArgumentError):
        smooth_coefficient(base, 2.5, 10, key)
    with pytest.raises(InvalidArgumentError):
        smooth_coefficient(base, 1, 0, key)


# ---------------------------------------------------------------------------
# cutoff


def test_truncation_regions():
    f = truncate_coefficient(ConstantDrift((2.0,)), radius=1.0, ramp=0.5)
    assert _at(f, 0.0, np.full((W, 1), 0.9))[0] == 2.0
    assert _at(f, 0.0, np.full((W, 1), 1.6))[0] == 0.0
    assert _at(f, 0.0, np.full((W, 1), 1.25))[0] == pytest.approx(1.0)


def test_truncation_weight_is_lipschitz_in_sup_norm():
    ramp = 0.4
    f = truncate_coefficient(ConstantDrift((1.0,)), radius=0.8, ramp=ramp)
    gen = KEY.child(10).generator()
    for _ in range(200):
        a = float(gen.uniform(0.0, 2.0))
        b = float(gen.uniform(0.0, 2.0))
        fa = _at(f, 0.0, np.full((W, 1), a))[0]
        fb = _at(f, 0.0, np.full((W, 1), b))[0]
        assert abs(fa - fb) <= abs(a - b) / ramp + 1e-12


def test_truncation_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        truncate_coefficient(ConstantDrift(0.0), radius=-1.0, ramp=1.0)
    with pytest.raises(InvalidArgumentError):
        truncate_coefficient(ConstantDrift(0.0), radius=1.0, ramp=0.0)


# ---------------------------------------------------------------------------
# window layout: integrate hands coefficients strided views of a
# time-major buffer, which must give the same bits as contiguous windows


def _catalogue(dim):
    paths = [
        ConstantDrift(np.zeros(dim)),
        ConstantDrift(np.linspace(-1.0, 1.0, dim)),
        LinearDelayDrift(pull=1.0, push=0.5, dim=dim),
        ConstantDiffusion(np.arange(1.0, 2.0 * dim + 1.0).reshape(dim, 2)),
        ConstantDiffusion(0.0, dim, 2),
        smooth_coefficient(LinearDelayDrift(1.0, 0.5, dim), 2, 5, KEY.child(30)),
        truncate_coefficient(LinearDelayDrift(1.0, 0.5, dim), radius=0.5, ramp=1.0),
        truncate_coefficient(
            ConstantDiffusion(np.ones((dim, 2))), radius=0.5, ramp=1.0
        ),
    ]
    if dim == 1:
        paths.append(LogLipschitzDrift())
    meanfield = [
        MeanFieldLinearDrift(coupling=0.7, dim=dim),
        MeanFieldSecondMomentDrift(dim),
        ConstantDiffusion(0.4 * np.ones((dim, 2))),
        truncate_coefficient(MeanFieldLinearDrift(coupling=0.7, dim=dim), radius=0.5, ramp=1.0),
        smooth_coefficient(MeanFieldSecondMomentDrift(dim), 2, 5, KEY.child(32)),
    ]
    return paths, meanfield


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("delay", [0.0, 0.3])
def test_catalogue_is_blind_to_window_layout(dim, delay):
    grid = TimeGrid(dt=0.1, delay=delay, horizon=1.0)
    gen = KEY.child(31, dim).generator()
    w = grid.window_len
    # rows 2 .. 2 + w - 1 of a time-major buffer, as integrate passes them
    buffer = gen.standard_normal((w + 5, 6, dim))
    strided = buffer[2 : 2 + w].swapaxes(0, 1)
    contiguous = np.ascontiguousarray(strided)
    assert w == 1 or not strided.flags.c_contiguous
    law = EmpiricalSegmentLaw(grid, gen.standard_normal((4, w, dim)))
    paths, meanfield = _catalogue(dim)
    for coef in paths:
        a = coef.eval_batch(0.2, strided, None, grid)
        b = coef.eval_batch(0.2, contiguous, None, grid)
        assert np.array_equal(a, b), type(coef).__name__
    for coef in meanfield:
        a = coef.eval_batch(0.2, strided, law, grid)
        b = coef.eval_batch(0.2, contiguous, law, grid)
        assert np.array_equal(a, b), type(coef).__name__


# ---------------------------------------------------------------------------
# one protocol and the public surface


def test_every_coefficient_class_takes_the_one_protocol():
    import mvsde.coefficients as module

    classes = [
        c
        for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, module.Coefficient)
    ]
    assert len(classes) >= 9
    for cls in classes:
        params = list(inspect.signature(cls.eval_batch).parameters)
        assert params == ["self", "t", "values", "law", "grid"], cls.__name__


def test_every_public_name_resolves():
    import mvsde
    from mvsde import coefficients, errors, meanfield, monotone, rng, segments, solver

    for module in (mvsde, coefficients, meanfield, monotone, rng, segments, solver):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    for gone in (
        "PathCoefficient",
        "MeanFieldCoefficient",
        "mf_diffusion_constant",
        "InternalConsistencyError",
        "operator_dim",
        "in_normal_cone",
    ):
        for module in (mvsde, coefficients, errors, monotone):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    # the single-path layer: every solve goes through the ensemble path
    for gone in (
        "NoisePath",
        "euler_step",
        "solve_path",
        "picard_iterate",
        "segment_at",
        "initial_extension",
        "initial_extension_path",
        "write_trajectory_csv",
        "write_trajectory_jsonl",
    ):
        for module in (mvsde, solver, segments):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    # the single-segment protocol: every window, law and path is a
    # stacked array, evaluated through eval_batch
    for gone in (
        "Segment",
        "TrajectoryPair",
        "sup_norm",
        "constant_segment",
        "total_variation",
        "FunctionCoefficient",
        "mollify_segment",
    ):
        for module in (mvsde, segments, coefficients, meanfield, solver):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    # a law is its samples and a law flow is its path array
    for gone in (
        "MeasureFlow",
        "flow_from_initial",
        "flow_from_ensemble",
        "interior_point",
        "MOMENT_NAMES",
    ):
        for module in (mvsde, meanfield, monotone, solver):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    assert not hasattr(meanfield.EmpiricalSegmentLaw, "moment")
    # names that only the tests called
    for gone in ("domain_contains", "LinearModulus", "ModulusKappa"):
        for module in (mvsde, coefficients, monotone):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    assert not hasattr(segments.TimeGrid, "index_of")
    assert not hasattr(solver.EnsembleTrajectories, "n_paths")
    assert not callable(ConstantDrift(0.0))
    assert not hasattr(monotone.Graph1D, "value_interval")
    # one catalogue per configuration choice, and no [solver] knobs
    from mvsde.experiments import config

    for gone in ("SCHEMES", "DRIFTS", "DIFFUSIONS", "_OPERATOR_PARAMS", "_INITIAL_PARAMS"):
        for module in (mvsde, solver, config):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    assert not hasattr(config, "build_operator")
    # one declaration per experiment, checked by the parser and the runner
    from mvsde.experiments import runner

    for gone in (
        "EXPERIMENT_INFO",
        "EXPERIMENT_DEFAULTS",
        "_RUN_MINIMA",
        "_BASE_DEFAULTS",
        "_SCHEMA",
    ):
        assert not hasattr(config, gone), f"config.{gone}"
    assert not hasattr(runner, "_require")
    assert [f.name for f in dataclasses.fields(solver.SolverConfig)] == ["grid", "operator"]
    # one coefficient protocol: integrate takes the Coefficients and reads
    # their constant flags, and no coefficient carries an unread bound
    for gone in ("DriftEval", "DiffusionEval", "_coefficient_evals"):
        for module in (mvsde, solver, meanfield):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    params = inspect.signature(solver.integrate).parameters
    assert "constant" not in params
    assert list(params)[:5] == ["cfg", "xi_values", "f", "g", "noise"]
    assert not hasattr(coefficients.Coefficient, "bound")
    assert not hasattr(ConstantDrift(1.0), "bound")
    # one resolvent step for every operator, and no exception type that
    # nothing raises
    for module in (mvsde, errors, monotone):
        assert not hasattr(module, "DomainViolationError"), module.__name__
    assert not hasattr(monotone, "_check_not_deep_outside")
    for gone in ("_constrainer", "_raise_if_non_finite", "ZeroOperator"):
        assert not hasattr(solver, gone), f"solver.{gone}"


def test_constant_flag_is_set_exactly_for_the_constant_catalogue_entries():
    # the solver evaluates a coefficient flagged constant only once per
    # solve, so the flag must never reach one whose value can change
    constant = [
        ConstantDrift(np.zeros(2)),
        ConstantDrift([0.5, -1.0]),
        ConstantDiffusion(1.0),
        ConstantDiffusion([[1.0, 0.0], [0.5, 2.0]]),
        ConstantDiffusion(0.0, 2, 3),
    ]
    varying = [
        _EndValue(np.zeros_like),
        smooth_coefficient(ConstantDrift(0.0), n=2, mc_samples=3, rng_stream=KEY.child(60)),
        smooth_coefficient(
            LinearDelayDrift(1.0, 0.5), n=2, mc_samples=3, rng_stream=KEY.child(61)
        ),
        truncate_coefficient(ConstantDrift(1.0), radius=1.0, ramp=1.0),
        truncate_coefficient(ConstantDiffusion(1.0), radius=1.0, ramp=1.0),
        truncate_coefficient(LinearDelayDrift(1.0, 0.5), radius=1.0, ramp=1.0),
        MeanFieldLinearDrift(),
        MeanFieldSecondMomentDrift(),
        LinearDelayDrift(1.0, 0.5),
        LogLipschitzDrift(),
    ]
    assert all(c.constant is True for c in constant)
    assert all(c.constant is False for c in varying)
