"""Constrained stepping, path solves, iteration and its diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mvsde import (
    Ball,
    Box,
    Coefficient,
    ConstantDiffusion,
    ConstantDrift,
    Graph1D,
    HalfLine,
    Halfspace,
    InvalidArgumentError,
    LinearDelayDrift,
    NormalCone,
    RngKey,
    SolverConfig,
    StepEvaluationError,
    TEST_STREAM,
    TimeGrid,
    ZeroOperator,
    contraction_horizon,
    integrate,
    operator_contains,
    picard_iterate_paths,
    resolvent,
    sample_noise_matrix,
    smooth_coefficient,
    truncate_coefficient,
)
from mvsde import solver
from mvsde.experiments.runner import _ladder, _mean_sup_sq
from mvsde.solver import STEP_BLOCK, TILE_PATHS, EnsembleTrajectories, gap_ratio

KEY = RngKey(20260816, (TEST_STREAM, 4))


def _cfg(operator, dt=0.1, delay=0.0, horizon=1.0):
    return SolverConfig(grid=TimeGrid(dt=dt, delay=delay, horizon=horizon), operator=operator)


# ---------------------------------------------------------------------------
# one constrained step, and many, through integrate


class _PerStep(Coefficient):
    """A coefficient whose value at step k is ``value(k, windows)``, the
    step read from the time as ``round(t / grid.dt)``."""

    def __init__(self, value):
        self.value = value

    def eval_batch(self, t, values, law, grid):
        return self.value(round(t / grid.dt), values)


def _stepper(drifts, diffusions):
    """Coefficients returning the given per-step drifts (steps, N, d)
    and diffusions (steps, N, d, m)."""
    return _PerStep(lambda k, window: drifts[k]), _PerStep(lambda k, window: diffusions[k])


def _one_step(cfg, x, drift, diffusion, dw):
    """One integrate step of N particles from states ``x`` (N, d) on a
    grid of one step without delay; returns ``(x_next, dk)``, with dK
    the predictor ``x + drift*dt + diffusion@dw`` minus ``x_next``.  The
    solve's variation must be the norm of that dK, bit for bit."""
    x, drift, diffusion, dw = (np.asarray(v, dtype=float) for v in (x, drift, diffusion, dw))
    ens = integrate(cfg, x[:, None, :], *_stepper([drift], [diffusion]), dw[:, None, :])
    x_next = ens.states[:, -1]
    dk = x + drift * cfg.grid.dt + np.einsum("ndm,nm->nd", diffusion, dw) - x_next
    _assert_variation_is_of(ens, dk[:, None, :])
    return x_next, dk


def _assert_variation_is_of(ens, dk):
    """The solve's variation is that of the path-major steps ``dk``
    (N, steps, d), bit for bit in the block order."""
    expected = _block_order_totals(dk, STEP_BLOCK)
    assert np.array_equal(ens.variation_totals().view(np.int64), expected.view(np.int64))


def test_step_zero_operator_is_plain_euler():
    cfg = _cfg(ZeroOperator(dim=2), horizon=0.1)
    x = np.array([[1.0, -1.0], [0.0, 2.0]])
    drift = np.array([[0.5, 0.5], [-1.0, 0.25]])
    diffusion = np.array([[[1.0, 0.0], [0.0, 2.0]], [[0.5, -1.0], [3.0, 0.0]]])
    dw = np.array([[0.3, -0.1], [-0.2, 0.7]])
    x_next, dk = _one_step(cfg, x, drift, diffusion, dw)
    p = x + drift * cfg.grid.dt + np.einsum("ndm,nm->nd", diffusion, dw)
    assert np.array_equal(x_next, p)
    assert np.all(dk == 0.0)


def test_step_halfline_projection():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), horizon=0.1)
    # predictor lands at -0.3; the constraint pushes the state back to 0
    x_next, dk = _one_step(cfg, [[0.2]], [[0.0]], [[[1.0]]], [[-0.5]])
    assert x_next[0, 0] == 0.0
    assert dk[0, 0] == pytest.approx(-0.3)


def test_halfline_variation_is_finite_where_the_squared_steps_overflow():
    # a diffusion of 1e200 gives reflection steps of 1e199, whose squares
    # overflow; at d = 1 each step's norm is |dK|, so the variation is
    # their finite sum
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), horizon=0.2)
    steps = cfg.grid.steps
    evals = _stepper(np.zeros((steps, 2, 1)), np.full((steps, 2, 1, 1), 1e200))
    ens = integrate(cfg, np.zeros((2, 1, 1)), *evals, np.full((2, steps, 1), -0.1))
    assert np.all(ens.states == 0.0)
    dk = np.full((2, steps), 1e200 * -0.1)
    assert np.array_equal(ens.variation_totals(), np.sum(np.abs(dk), axis=1))
    assert np.all(np.isfinite(ens.variation_totals()))


def test_step_sign_graph_threshold():
    cfg = _cfg(Graph1D.sign(), dt=0.1, horizon=0.1)
    # predictor 0.05 sits inside the jump segment |dk| <= dt; 0.25 and
    # -0.25 lie outside it and move towards 0 by exactly dt
    x_next, dk = _one_step(
        cfg, [[0.05], [0.25], [-0.25]], np.zeros((3, 1)), np.zeros((3, 1, 1)), np.zeros((3, 1))
    )
    assert x_next[0, 0] == 0.0
    assert dk[0, 0] == pytest.approx(0.05)
    np.testing.assert_allclose(x_next[1:, 0], [0.15, -0.15])
    np.testing.assert_allclose(dk[1:, 0], [0.1, -0.1])


def _random_steps(op, n_paths, steps, gen, dt=0.05):
    """A multi-step solve with a fresh random drift and diffusion at
    every step; returns (cfg, ensemble, predictors), the predictors
    rebuilt from the solve's states."""
    cfg = _cfg(op, dt=dt, horizon=dt * steps)
    x0 = np.abs(gen.standard_normal((n_paths, 1, 1)))
    drifts = gen.standard_normal((steps, n_paths, 1))
    diffusions = gen.standard_normal((steps, n_paths, 1, 1))
    noise = gen.standard_normal((n_paths, steps, 1)) * math.sqrt(dt)
    ens = integrate(cfg, x0, *_stepper(drifts, diffusions), noise)
    w = cfg.grid.window_len
    predictors = np.stack(
        [
            ens.states[:, w - 1 + k]
            + drifts[k] * dt
            + np.einsum("ndm,nm->nd", diffusions[k], noise[:, k])
            for k in range(steps)
        ]
    )
    return cfg, ens, predictors


def test_step_conservation_and_membership():
    # at every step dK = predictor - next state, from the test's own
    # predictor, restores the predictor bit for bit and lies in
    # dt * A(next state): dK in dt*A(x) holds only for the resolvent of
    # parameter dt; the solve's variation is that of these dK
    n_paths, steps = 256, 24
    gen = KEY.child(1).generator()
    for op in [NormalCone(domain=HalfLine(lower=0.0)), Graph1D.sign()]:
        cfg, ens, predictors = _random_steps(op, n_paths, steps, gen)
        w = cfg.grid.window_len
        dt = cfg.grid.dt
        next_states = ens.states[:, w:].swapaxes(0, 1)
        dks = predictors - next_states
        assert np.any(dks != 0.0)
        for k in range(steps):
            x_next, dk = next_states[k], dks[k]
            assert np.array_equal(x_next + dk, predictors[k]), (op, k)
            assert np.all(operator_contains(op, x_next, dk / dt, tol=1e-9)), (op, k)
        _assert_variation_is_of(ens, dks.swapaxes(0, 1))


def test_step_rejects_state_outside_domain():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), delay=0.2)
    w = cfg.grid.window_len
    evals = _stepper(np.zeros((cfg.grid.steps, 2, 1)), np.ones((cfg.grid.steps, 2, 1, 1)))
    noise = np.zeros((2, cfg.grid.steps, 1))
    # the current state, or an earlier sample of one window, below 0
    for row, col in [(1, w - 1), (0, 0)]:
        xi = np.ones((2, w, 1))
        xi[row, col] = -1.0
        with pytest.raises(InvalidArgumentError, match="constraint set"):
            integrate(cfg, xi, *evals, noise)


# ---------------------------------------------------------------------------
# noise


def test_noise_reproducible_by_key_and_index():
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=1.0)
    a = sample_noise_matrix(KEY, grid, width=2, n_paths=1, first_index=3)[0]
    b = sample_noise_matrix(KEY, grid, width=2, n_paths=1, first_index=3)[0]
    c = sample_noise_matrix(KEY, grid, width=2, n_paths=1, first_index=4)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (grid.steps, 2)


def test_noise_matrix_chunking_is_invisible():
    grid = TimeGrid(dt=0.2, delay=0.0, horizon=1.0)
    full = sample_noise_matrix(KEY, grid, width=3, n_paths=10)
    parts = np.concatenate(
        [
            sample_noise_matrix(KEY, grid, width=3, n_paths=4, first_index=0),
            sample_noise_matrix(KEY, grid, width=3, n_paths=6, first_index=4),
        ]
    )
    assert np.array_equal(full, parts)
    # row i equals the one-path sample at index i
    one = sample_noise_matrix(KEY, grid, width=3, n_paths=1, first_index=7)[0]
    assert np.array_equal(full[7], one)


def test_noise_validation():
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=1.0)
    with pytest.raises(InvalidArgumentError):
        sample_noise_matrix(KEY, grid, width=1, n_paths=0)


# ---------------------------------------------------------------------------
# path solves


def _one_path(cfg, value, f, g, seed):
    """The N = 1 solve from a constant window at ``value`` on the noise
    of path 0 of ``KEY.child(seed)``; returns (its ensemble, its noise)."""
    xi = np.full((1, cfg.grid.window_len, 1), value)
    noise = sample_noise_matrix(KEY.child(seed), cfg.grid, width=1, n_paths=1)
    return integrate(cfg, xi, f, g, noise), noise[0]


def test_constant_solution_without_forcing():
    cfg = _cfg(ZeroOperator(dim=1), delay=0.2)
    ens, _ = _one_path(cfg, 1.5, ConstantDrift(0.0), ConstantDiffusion(0.0), seed=3)
    assert np.all(ens.states[0] == 1.5)
    assert ens.variation_totals()[0] == 0.0


def test_pure_noise_reduces_to_brownian_path():
    cfg = _cfg(ZeroOperator(dim=1))
    ens, noise = _one_path(cfg, 0.25, ConstantDrift(0.0), ConstantDiffusion(1.0), seed=4)
    expect = np.empty(cfg.grid.path_len)
    expect[0] = 0.25
    for k in range(cfg.grid.steps):
        expect[k + 1] = expect[k] + 0.0 * cfg.grid.dt + noise[k, 0]
    assert np.array_equal(ens.states[0, :, 0], expect)


def test_zero_operator_reduction_is_bitwise():
    # inline explicit reference scheme, same increments, same order
    cfg = _cfg(ZeroOperator(dim=1), dt=0.05, delay=0.1, horizon=1.0)
    grid = cfg.grid
    n_paths = 20
    xi = np.tile([[0.3]], (n_paths, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(5), grid, width=1, n_paths=n_paths)
    f = LinearDelayDrift(pull=1.0, push=0.5)
    g = ConstantDiffusion(0.7)
    ens = integrate(cfg, xi, f, g, noise)

    states = np.empty((n_paths, grid.path_len, 1))
    states[:, : grid.window_len] = xi
    m0 = grid.delay_steps
    for k in range(grid.steps):
        window = states[:, k : k + m0 + 1, :]
        a = f.eval_batch(k * grid.dt, window, None, grid)
        gg = g.eval_batch(k * grid.dt, window, None, grid)
        x = states[:, m0 + k, :]
        states[:, m0 + k + 1, :] = (
            x + a * grid.dt + np.einsum("ndm,nm->nd", gg, noise[:, k, :])
        )
    assert np.array_equal(ens.states, states)
    assert np.all(ens.variation_totals() == 0.0)


def test_reflected_path_stays_in_domain():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.01)
    ens, noise = _one_path(cfg, 0.0, ConstantDrift(0.0), ConstantDiffusion(1.0), seed=6)
    assert np.all(ens.states[0] >= 0.0)
    # dK = predictor - next state: reflection only pushes up from the
    # boundary, and the solve's variation is that of these dK
    x = ens.states[0]
    dk = (x[:-1] + 0.0 * cfg.grid.dt + noise) - x[1:]
    assert np.all(dk <= 0.0)
    _assert_variation_is_of(ens, dk[None])
    assert ens.variation_totals()[0] > 0.0


def test_step_error_carries_step_and_particle():
    cfg = _cfg(ZeroOperator(dim=1), dt=0.25, horizon=0.25 * (2 * STEP_BLOCK + 3))
    # particle i sits at i for ever, so the coefficient can single out
    # the particles from ``first_bad`` on; several go bad at once, and
    # the error must name the first of them
    xi = np.arange(4.0)[:, None, None] * np.ones((1, cfg.grid.window_len, 1))
    noise = np.zeros((4, cfg.grid.steps, 1))
    # every particle at step 2, then particles 2 and 3 mid-block, at
    # the last step of a block and at the first step of the next block
    cases = [(2, 0)] + [
        (step, 2) for step in (2, STEP_BLOCK // 2 + 3, STEP_BLOCK - 1, STEP_BLOCK, 2 * STEP_BLOCK)
    ]
    for bad_step, first_bad in cases:

        class _Bad(Coefficient):
            def eval_batch(self, t, values, law, grid):
                out = np.zeros((values.shape[0], 1))
                if t >= (bad_step - 0.5) * 0.25:
                    out[values[:, -1, 0] >= first_bad] = np.nan
                return out

        f = _Bad()
        with pytest.raises(StepEvaluationError) as info:
            integrate(cfg, xi, f, ConstantDiffusion(0.0), noise)
        assert info.value.step == bad_step
        assert info.value.particle == first_bad


# ---------------------------------------------------------------------------
# blocked integrate kernel against the plain per-step loop


def _reference_integrate(cfg, xi_values, drift_eval, diffusion_eval, noise):
    """The per-step loop on path-major arrays: each step reads its
    window from, and writes its state into, rows of ``states``, through
    the resolvent.  The callbacks receive (step, time, window), as
    ``_evals`` makes them from coefficients."""
    grid = cfg.grid
    m0 = grid.delay_steps
    dt = grid.dt
    states = np.empty((xi_values.shape[0], grid.path_len, cfg.dim))
    states[:, : m0 + 1, :] = xi_values
    increments = np.empty((xi_values.shape[0], grid.steps, cfg.dim))
    for k in range(grid.steps):
        t = k * dt
        window = states[:, k : k + m0 + 1, :]
        a = np.asarray(drift_eval(k, t, window), dtype=float)
        g = np.asarray(diffusion_eval(k, t, window), dtype=float)
        x = states[:, m0 + k, :]
        p = x + a * dt + np.einsum("ndm,nm->nd", g, noise[:, k, :])
        y = resolvent(cfg.operator, dt, p)
        states[:, m0 + k + 1, :] = y
        increments[:, k, :] = p - y
    return states, increments


def _blocked_case(window_len, d, m, n_paths, steps, seed):
    dt = 2.0**-7
    op = NormalCone(domain=HalfLine(lower=0.0) if d == 1 else Ball(center=(0.0,) * d, radius=0.6))
    cfg = SolverConfig(
        grid=TimeGrid(dt=dt, delay=(window_len - 1) * dt, horizon=steps * dt), operator=op
    )
    gen = KEY.child(40, seed).generator()
    xi = 0.1 * gen.random((n_paths, window_len, d)) / math.sqrt(d)
    noise = gen.standard_normal((n_paths, steps, m)) * math.sqrt(dt)
    # a sup-norm cutoff makes the diffusion depend on the whole window
    g = truncate_coefficient(
        ConstantDiffusion(2.0 * gen.standard_normal((d, m))), radius=0.0, ramp=1.0
    )
    return cfg, xi, g, noise


def _evals(f, g, grid):
    """The reference loop's callbacks for two coefficients."""
    return (
        lambda k, t, window: f.eval_batch(t, window, None, grid),
        lambda k, t, window: g.eval_batch(t, window, None, grid),
    )


@pytest.mark.parametrize("window_len", [1, 3, STEP_BLOCK + 6])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
# path counts on both sides of one and two path tiles
@pytest.mark.parametrize(
    "n_paths", [1, 5, TILE_PATHS - 1, TILE_PATHS, TILE_PATHS + 1, 2 * TILE_PATHS + 3]
)
@pytest.mark.parametrize(
    "steps", [1, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 3]
)
def test_blocked_integrate_matches_per_step_loop(window_len, d, m, n_paths, steps):
    _check_blocked_against_reference(window_len, d, m, n_paths, steps)


def _check_blocked_against_reference(window_len, d, m, n_paths, steps):
    cfg, xi, g, noise = _blocked_case(window_len, d, m, n_paths, steps, seed=d * 10 + m)
    f = LinearDelayDrift(pull=1.0, push=0.8, dim=d)
    ens = integrate(cfg, xi, f, g, noise)
    states, increments = _reference_integrate(cfg, xi, *_evals(f, g, cfg.grid), noise)
    assert np.array_equal(ens.states, states)
    _assert_variation_is_of(ens, increments)
    if steps >= STEP_BLOCK and 1 < n_paths < TILE_PATHS:
        # the constraint acted, so the comparison covers the resolvent
        # (the larger counts draw other diffusions, not all of which
        # reach the ball's boundary in time)
        assert np.any(increments != 0.0)


@pytest.mark.parametrize("tile", [1, 2, 3])
@pytest.mark.parametrize("n_paths", [1, 5, 7])
def test_blocked_integrate_with_small_path_tiles(monkeypatch, tile, n_paths):
    # many tiles and a ragged last tile, on every layout copy
    monkeypatch.setattr(solver, "TILE_PATHS", tile)
    for window_len, d, m in [(1, 1, 1), (3, 2, 2), (STEP_BLOCK + 6, 1, 2)]:
        _check_blocked_against_reference(window_len, d, m, n_paths, STEP_BLOCK + 3)


@pytest.mark.parametrize("window_len", [3, STEP_BLOCK + 6])
@pytest.mark.parametrize("d", [1, 2])
def test_blocked_integrate_matches_per_step_loop_smoothed(window_len, d):
    cfg, xi, g, noise = _blocked_case(window_len, d, 2, 2, STEP_BLOCK + 1, seed=7)
    f = smooth_coefficient(
        LinearDelayDrift(pull=1.0, push=0.8, dim=d), n=2, mc_samples=3, rng_stream=KEY.child(41)
    )
    ens = integrate(cfg, xi, f, g, noise)
    states, increments = _reference_integrate(cfg, xi, *_evals(f, g, cfg.grid), noise)
    assert np.array_equal(ens.states, states)
    _assert_variation_is_of(ens, increments)


def test_integrate_windows_are_read_only():
    cfg, xi, g, noise = _blocked_case(3, 1, 1, 4, STEP_BLOCK + 2, seed=0)
    seen = []

    def drift(k, window):
        seen.append(window.flags.writeable)
        with pytest.raises(ValueError):
            window[:, -1, :] = 0.0
        return np.zeros((window.shape[0], 1))

    integrate(cfg, xi, _PerStep(drift), g, noise)
    assert len(seen) == cfg.grid.steps
    assert not any(seen)


# ---------------------------------------------------------------------------
# the per-step finiteness test on the predictor, and its rescan


def _step_evals(n_paths, bad_step, drift_bad=(), diffusion_bad=(), value=np.nan):
    """Coefficients with drift 0.5 and diffusion 1, except ``value`` in
    the drift or the diffusion of the given particles at ``bad_step``."""

    def drift(k, window):
        a = np.full((n_paths, 1), 0.5)
        if k == bad_step:
            a[list(drift_bad)] = value
        return a

    def diffusion(k, window):
        g = np.ones((n_paths, 1, 1))
        if k == bad_step:
            g[list(diffusion_bad)] = value
        return g

    return _PerStep(drift), _PerStep(diffusion)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op", [ZeroOperator(dim=1), NormalCone(domain=HalfLine(lower=0.0))])
def test_non_finite_diffusion_against_zero_noise_is_caught(op, value):
    # NaN*0 and inf*0 are NaN, so the predictor test sees a bad
    # diffusion even where the particle's noise increment is exactly 0
    cfg = _cfg(op, dt=0.25, horizon=0.25 * (STEP_BLOCK + 5))
    n_paths, bad_step = 6, STEP_BLOCK + 2
    xi = np.ones((n_paths, cfg.grid.window_len, 1))
    noise = 0.1 * KEY.child(43).generator().standard_normal((n_paths, cfg.grid.steps, 1))
    noise[3, bad_step] = 0.0
    de, ge = _step_evals(n_paths, bad_step, diffusion_bad=(3, 5), value=value)
    with pytest.raises(StepEvaluationError) as info:
        integrate(cfg, xi, de, ge, noise)
    assert (info.value.step, info.value.particle) == (bad_step, 3)
    assert str(info.value).endswith("non-finite diffusion")
    de, ge = _step_evals(n_paths, bad_step, drift_bad=(3,), diffusion_bad=(3,), value=value)
    with pytest.raises(StepEvaluationError, match="non-finite drift and diffusion$"):
        integrate(cfg, xi, de, ge, noise)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("first_bad", [TILE_PATHS - 1, TILE_PATHS])
@pytest.mark.parametrize("bad_step", [0, STEP_BLOCK - 1, STEP_BLOCK])
def test_non_finite_drift_across_a_path_tile_names_the_first_particle(
    first_bad, bad_step, value
):
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.01, horizon=0.01 * (STEP_BLOCK + 2))
    n_paths = 2 * TILE_PATHS + 3
    xi = np.ones((n_paths, cfg.grid.window_len, 1))
    noise = 0.1 * KEY.child(44).generator().standard_normal((n_paths, cfg.grid.steps, 1))
    bad = (first_bad, first_bad + 1, 2 * TILE_PATHS + 1)
    de, ge = _step_evals(n_paths, bad_step, drift_bad=bad, value=value)
    with pytest.raises(StepEvaluationError) as info:
        integrate(cfg, xi, de, ge, noise)
    assert (info.value.step, info.value.particle) == (bad_step, first_bad)
    assert f"particle {first_bad}" in str(info.value)


def _overflow_case(op, sign):
    # finite coefficients whose predictor leaves the floats at step 2
    cfg = _cfg(op, dt=0.5, horizon=0.5 * 4)
    xi = np.full((3, cfg.grid.window_len, 1), sign * 1e308)

    def drift(k, window):
        a = np.zeros((3, 1))
        if k == 2:
            a[1] = sign * 1.7e308
        return a

    return cfg, xi, _PerStep(drift), _PerStep(lambda k, window: np.ones((3, 1, 1)))


def test_overflowing_predictor_reaches_the_constraint():
    # finite coefficients whose predictor overflows are refused at the
    # resolvent step under every operator, the zero operator too, with
    # the step and the particle named and no state stored
    for op, sign in (
        (ZeroOperator(dim=1), 1.0),
        (ZeroOperator(dim=1), -1.0),
        (NormalCone(domain=HalfLine(lower=0.0)), 1.0),
    ):
        cfg, xi, de, ge = _overflow_case(op, sign)
        with np.errstate(over="ignore"):
            with pytest.raises(StepEvaluationError) as info:
                integrate(cfg, xi, de, ge, np.zeros((3, cfg.grid.steps, 1)))
        assert (info.value.step, info.value.particle) == (2, 1)
        assert str(info.value) == (
            "the state of particle 1 leaves the floats at step 2: overflow or non-finite noise"
        )


def test_foreign_operator_errors_pass_through_the_step():
    # only a non-finite predictor is turned into a step error; the
    # resolvent's refusal of an operator it does not know passes as is
    class Foreign:
        dim = 1

    cfg = SolverConfig(grid=TimeGrid(dt=0.5, delay=0.0, horizon=1.0), operator=Foreign())
    xi, noise = np.zeros((2, 1, 1)), np.zeros((2, 2, 1))
    with pytest.raises(InvalidArgumentError, match="unknown operator type Foreign"):
        integrate(cfg, xi, ConstantDrift(0.0), ConstantDiffusion(0.0), noise)


# ---------------------------------------------------------------------------
# the constraint step, operator by operator

CONSTRAINTS = {
    "box_one_infinite_bound": NormalCone(domain=Box(lower=(-np.inf, -1.0), upper=(0.5, 1.0))),
    "halfline": NormalCone(domain=HalfLine(lower=0.0)),
    "halfspace": NormalCone(domain=Halfspace(normal=(1.0, 2.0), offset=0.5)),
    "ball": NormalCone(domain=Ball(center=(0.5, -0.5), radius=1.0)),
    "sign_graph": Graph1D.sign(),
    "sloped_graph": Graph1D(
        breakpoints=(-1.0, 0.5), intercepts=(-1.0, 1.0, 2.0), slopes=(0.5, 2.0, 1.0)
    ),
}


@pytest.mark.parametrize("op", CONSTRAINTS.values(), ids=CONSTRAINTS.keys())
def test_constrained_step_lands_on_the_resolvent_bits(op):
    # one step from the domain, with no drift and the identity diffusion,
    # lands on the resolvent of the predictor x + dw, bit for bit
    cfg = _cfg(op, dt=0.1, horizon=0.1)
    n_paths, d = 300, op.dim
    gen = KEY.child(49).generator()
    x = resolvent(op, 1.0, 2.0 * gen.standard_normal((n_paths, d)))
    dw = 2.0 * gen.standard_normal((n_paths, d))
    if d == 1:
        # predictors on the breakpoints of both graphs, and on the ends
        # of their jump intervals at lam = 0.1
        x[:9] = 0.0
        dw[:9, 0] = [0.0, -1.0, 0.5, -0.1, 0.1, -1.15, -1.1, 0.7, 0.75]
    drift, diffusion = np.zeros((n_paths, d)), np.broadcast_to(np.eye(d), (n_paths, d, d))
    x_next, dk = _one_step(cfg, x, drift, diffusion, dw)
    p = x + drift * cfg.grid.dt + np.einsum("ndm,nm->nd", diffusion, dw)
    expected = resolvent(op, cfg.grid.dt, p)
    assert np.array_equal(x_next.view(np.int64), expected.view(np.int64))
    assert np.any(dk != 0.0)


def _evals_nd(n_paths, d, bad_step, bad=(), value=np.nan):
    """Drift 0.5 and diffusion 1 in dimension d with one noise
    coordinate, except ``value`` in the drift of the particles ``bad``
    at ``bad_step``."""

    def drift(k, window):
        a = np.full((n_paths, d), 0.5)
        if k == bad_step:
            a[list(bad)] = value
        return a

    return _PerStep(drift), _PerStep(lambda k, window: np.ones((n_paths, d, 1)))


# every catalogue operator: the constraints and the zero operator
OPERATORS = {**CONSTRAINTS, "zero": ZeroOperator(dim=1)}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
def test_non_finite_predictor_under_every_constraint(op, value):
    # a non-finite predictor is refused at the resolvent step under every
    # operator, naming the step, the first particle whose predictor is
    # not finite, and whether its coefficients are
    cfg = _cfg(op, dt=0.25, horizon=0.25 * (STEP_BLOCK + 5))
    n_paths, d, bad_step = 6, op.dim, STEP_BLOCK + 2
    xi = np.zeros((n_paths, cfg.grid.window_len, d))
    noise = 0.1 * KEY.child(50).generator().standard_normal((n_paths, cfg.grid.steps, 1))
    with pytest.raises(StepEvaluationError) as info:
        integrate(cfg, xi, *_evals_nd(n_paths, d, bad_step, bad=(3, 5), value=value), noise)
    assert (info.value.step, info.value.particle) == (bad_step, 3)
    assert str(info.value).endswith(f"step {bad_step}: non-finite drift")

    noise[4, bad_step] = value
    with pytest.raises(StepEvaluationError) as info:
        integrate(cfg, xi, *_evals_nd(n_paths, d, bad_step), noise)
    assert (info.value.step, info.value.particle) == (bad_step, 4)
    assert str(info.value).endswith("overflow or non-finite noise")


@pytest.mark.parametrize("keep_path", [True, False])
@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
def test_every_operator_takes_one_resolvent_step_per_step(monkeypatch, op, keep_path):
    # one code path: every step of every solve goes through the
    # resolvent, the zero operator's identity included
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return resolvent(*args, **kwargs)

    monkeypatch.setattr(solver, "resolvent", counted)
    cfg = _cfg(op, dt=0.25, horizon=0.25 * (STEP_BLOCK + 5))
    n_paths, d = 3, op.dim
    xi = np.zeros((n_paths, cfg.grid.window_len, d))
    noise = 0.1 * KEY.child(51).generator().standard_normal((n_paths, cfg.grid.steps, 1))
    integrate(cfg, xi, *_evals_nd(n_paths, d, bad_step=-1), noise, keep_path=keep_path)
    assert calls == [cfg.grid.dt] * cfg.grid.steps


# ---------------------------------------------------------------------------
# constant coefficients and terminal-only solves


class _Flagged(Coefficient):
    """A drift flagged constant whose value is ``fill``, or whose
    ``eval_batch`` raises when ``fill`` is None; counts its calls."""

    constant = True

    def __init__(self, fill):
        self.fill = fill
        self.calls = 0

    def eval_batch(self, t, values, law, grid):
        self.calls += 1
        if self.fill is None:
            raise RuntimeError("no value")
        return np.full((values.shape[0], 1), self.fill)


def _coefficient_pair(kind, d, m, gen):
    """(drift, diffusion) with the constant one(s) named by ``kind``;
    the varying drift reads both window ends and the varying diffusion
    the whole window, through a sup-norm cutoff."""
    g_matrix = 2.0 * gen.standard_normal((d, m))
    constant_f = ConstantDrift(gen.standard_normal(d))
    varying_f = LinearDelayDrift(pull=1.0, push=0.8, dim=d)
    constant_g = ConstantDiffusion(g_matrix)
    varying_g = truncate_coefficient(ConstantDiffusion(g_matrix), radius=0.0, ramp=1.0)
    return {
        "drift": (constant_f, varying_g),
        "diffusion": (varying_f, constant_g),
        "both": (constant_f, constant_g),
    }[kind]


@pytest.mark.parametrize("kind", ["drift", "diffusion", "both"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
# one path, and path counts past one and two path tiles
@pytest.mark.parametrize("n_paths", [1, TILE_PATHS + 1, 2 * TILE_PATHS + 3])
def test_constant_coefficients_match_the_per_step_loop(kind, d, m, n_paths):
    # 2 * STEP_BLOCK + 3 steps: two full blocks of G@dW and a ragged one
    cfg, xi, _, noise = _blocked_case(3, d, m, n_paths, 2 * STEP_BLOCK + 3, seed=d * 10 + m)
    f, g = _coefficient_pair(kind, d, m, KEY.child(46, d, m).generator())
    ens = integrate(cfg, xi, f, g, noise)
    states, increments = _reference_integrate(cfg, xi, *_evals(f, g, cfg.grid), noise)
    assert np.array_equal(ens.states, states)
    _assert_variation_is_of(ens, increments)


def test_constant_coefficients_are_evaluated_once_per_solve():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.01, horizon=0.01 * (STEP_BLOCK + 5))
    noise = 0.1 * KEY.child(47).generator().standard_normal((4, cfg.grid.steps, 1))
    xi = np.ones((4, cfg.grid.window_len, 1))
    flagged = _Flagged(0.5)
    integrate(cfg, xi, flagged, ConstantDiffusion(1.0), noise)
    assert flagged.calls == 1
    unflagged = _Flagged(0.5)
    unflagged.constant = False
    integrate(cfg, xi, unflagged, ConstantDiffusion(1.0), noise)
    assert unflagged.calls == cfg.grid.steps


@pytest.mark.parametrize("window_len", [1, 3, STEP_BLOCK + 6])
@pytest.mark.parametrize("steps", [1, STEP_BLOCK, 2 * STEP_BLOCK + 3])
def test_terminal_only_solve_matches_the_full_solve(window_len, steps):
    cfg, xi, g, noise = _blocked_case(window_len, 2, 2, TILE_PATHS + 3, steps, seed=window_len)
    f = LinearDelayDrift(pull=1.0, push=0.8, dim=2)
    full = integrate(cfg, xi, f, g, noise)
    lean = integrate(cfg, xi, f, g, noise, keep_path=False)
    assert lean.states.shape == (TILE_PATHS + 3, window_len, 2)
    assert np.array_equal(lean.states, full.states[:, -window_len:])
    assert np.array_equal(lean.states[:, -1], full.states[:, -1])
    # the streamed variation is the same with and without the path
    assert np.array_equal(
        lean.variation_totals().view(np.int64), full.variation_totals().view(np.int64)
    )
    _, increments = _reference_integrate(cfg, xi, *_evals(f, g, cfg.grid), noise)
    _assert_variation_is_of(full, increments)
    assert lean.states.shape[0] == full.states.shape[0]


@pytest.mark.parametrize("diffusion", [ConstantDiffusion(1.0), ConstantDiffusion(0.0)])
def test_non_finite_constant_drift_names_step_and_particle_zero(diffusion):
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.01, horizon=0.01 * (STEP_BLOCK + 2))
    xi = np.ones((5, cfg.grid.window_len, 1))
    noise = np.zeros((5, cfg.grid.steps, 1))
    with pytest.raises(StepEvaluationError) as info:
        integrate(cfg, xi, _Flagged(np.nan), diffusion, noise)
    assert (info.value.step, info.value.particle) == (0, 0)


def test_raising_constant_coefficient_fails_at_step_zero():
    cfg = _cfg(ZeroOperator(dim=1), dt=0.25, horizon=1.0)
    xi = np.zeros((3, cfg.grid.window_len, 1))
    noise = np.zeros((3, cfg.grid.steps, 1))
    with pytest.raises(StepEvaluationError, match="step 0") as info:
        integrate(cfg, xi, _Flagged(None), ConstantDiffusion(1.0), noise)
    assert info.value.step == 0
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize(
    "g, width",
    [
        (ConstantDiffusion(1.0), 2),
        (truncate_coefficient(ConstantDiffusion(1.0), radius=1e6, ramp=1.0), 2),
        (ConstantDiffusion([[1.0, 1.0]]), 1),
    ],
    ids=["constant-wider-noise", "varying-wider-noise", "constant-narrower-noise"],
)
def test_noise_of_another_width_than_the_diffusion_is_refused(g, width):
    # einsum would broadcast a (1, 1) diffusion over both noise columns
    # and add them: states 0, 11, 1111 on this noise
    cfg = _cfg(ZeroOperator(dim=1), dt=0.5, horizon=1.0)
    noise = np.array([[1.0, 10.0], [100.0, 1000.0]])[None, :, :width]
    with pytest.raises(StepEvaluationError, match="step 0") as info:
        integrate(cfg, np.zeros((1, 1, 1)), ConstantDrift(0.0), g, noise)
    assert info.value.step == 0
    assert f"(1, 1, {3 - width})" in str(info.value)
    assert f"(1, 1, {width})" in str(info.value)


@pytest.mark.parametrize("kind", ["neither", "drift", "diffusion", "both"])
def test_inputs_run_once_per_evaluated_step(kind):
    # one hook call per step serves both coefficients; when both are
    # constant only step 0 is evaluated, so only step 0 calls the hook
    cfg, xi, _, noise = _blocked_case(3, 1, 1, 4, STEP_BLOCK + 2, seed=0)
    gen = KEY.child(49).generator()
    if kind == "neither":
        f = LinearDelayDrift(pull=1.0, push=0.8)
        g = truncate_coefficient(ConstantDiffusion(1.0), radius=0.0, ramp=1.0)
    else:
        f, g = _coefficient_pair(kind, 1, 1, gen)
    calls = []

    def inputs(k, live):
        calls.append(k)
        return live, None

    ens = integrate(cfg, xi, f, g, noise, inputs=inputs)
    assert calls == ([0] if kind == "both" else list(range(cfg.grid.steps)))
    assert np.array_equal(ens.states, integrate(cfg, xi, f, g, noise).states)


def test_failing_inputs_name_their_step():
    cfg, xi, g, noise = _blocked_case(3, 1, 1, 4, STEP_BLOCK + 2, seed=0)

    def inputs(k, live):
        if k == STEP_BLOCK:
            raise RuntimeError("no law")
        return live, None

    with pytest.raises(StepEvaluationError, match=f"step {STEP_BLOCK}") as info:
        integrate(cfg, xi, LinearDelayDrift(pull=1.0, push=0.8), g, noise, inputs=inputs)
    assert info.value.step == STEP_BLOCK
    assert isinstance(info.value.__cause__, RuntimeError)


# ---------------------------------------------------------------------------
# variation_totals


def _variation_case(n_paths, d, seed):
    """Increments (N, steps, d) over three blocks of steps, with squares
    that underflow, squares near the top of the float range and whole
    paths of zeros."""
    steps = 2 * STEP_BLOCK + 5
    gen = KEY.child(45, seed).generator()
    scale = 10.0 ** gen.integers(-3, 3, size=(n_paths, steps, d))
    inc = gen.standard_normal((n_paths, steps, d)) * scale
    inc[1::3, ::2] = 1e-170  # squares that underflow to subnormals or 0
    inc[2::5, 1::4] = -1e-170
    inc[3::7, 5] = 1e150
    inc[::4] = 0.0  # whole rows of zero increments
    return inc


def _block_order_totals(inc, block):
    """Test-side variation in the solver's block order: each step's norm
    by squaring and adding the d components in turn, then a square
    root; each block's (steps, N) norms summed over its steps with
    ``np.add.reduce``; the block sums added to a total from 0 in turn."""
    n_paths, steps, d = inc.shape
    total = np.zeros(n_paths)
    for k0 in range(0, steps, block):
        norms = []
        for k in range(k0, min(k0 + block, steps)):
            sq = inc[:, k, 0] * inc[:, k, 0]
            for c in range(1, d):
                sq = sq + inc[:, k, c] * inc[:, k, c]
            norms.append(np.sqrt(sq))
        total = total + np.add.reduce(np.stack(norms), axis=0)
    return total


def _streamed_totals(inc):
    """``_add_variation`` over the time-major blocks of ``STEP_BLOCK``
    steps of path-major steps ``inc`` (N, steps, d), as ``integrate``
    streams them."""
    n_paths, steps, d = inc.shape
    total = np.zeros(n_paths)
    norms = np.empty((STEP_BLOCK, n_paths))
    for k0 in range(0, steps, STEP_BLOCK):
        # a copy: the norms are formed in place in the block of steps
        block = inc[:, k0 : k0 + STEP_BLOCK].swapaxes(0, 1).copy()
        solver._add_variation(total, block, norms)
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "n_paths", [0, 1, 2, TILE_PATHS - 1, TILE_PATHS, TILE_PATHS + 1, 2 * TILE_PATHS + 3]
)
def test_variation_totals_bitwise_equal_to_the_norm_formula(n_paths, d):
    # bit for bit the block order; the norm formula sums the steps in
    # another order, so it agrees only to rounding
    inc = _variation_case(n_paths, d, seed=d)
    expected = _block_order_totals(inc, STEP_BLOCK)
    got = _streamed_totals(inc)
    assert got.shape == (n_paths,) and got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    grid = TimeGrid(dt=0.01, delay=0.0, horizon=0.01 * inc.shape[1])
    ens = EnsembleTrajectories(np.zeros((n_paths, grid.path_len, d)), got)
    assert np.array_equal(ens.variation_totals().view(np.int64), expected.view(np.int64))
    formula = np.sum(np.linalg.norm(inc, axis=2), axis=1)
    assert np.all(np.abs(got - formula) <= 1e-14 * formula)
    assert np.all(got[::4] == 0.0)
    rows = np.arange(n_paths)
    assert np.all(got[(rows % 7 == 3) & (rows % 4 != 0)] >= 1e150)


@pytest.mark.parametrize("tile", [1, 3])
def test_variation_totals_with_small_path_tiles(monkeypatch, tile):
    # small path tiles and step blocks: the streamed variation still
    # follows the block order of the reference loop's steps, with and
    # without the stored path
    monkeypatch.setattr(solver, "TILE_PATHS", tile)
    monkeypatch.setattr(solver, "STEP_BLOCK", tile + 4)
    for n_paths, d in [(1, 1), (7, 2), (8, 3)]:
        cfg, xi, g, noise = _blocked_case(2, d, 2, n_paths, 3 * tile + 11, seed=10 + d)
        f = LinearDelayDrift(pull=1.0, push=0.8, dim=d)
        full = integrate(cfg, xi, f, g, noise)
        lean = integrate(cfg, xi, f, g, noise, keep_path=False)
        states, increments = _reference_integrate(cfg, xi, *_evals(f, g, cfg.grid), noise)
        assert np.array_equal(full.states, states)
        assert np.any(increments != 0.0)
        expected = _block_order_totals(increments, tile + 4)
        assert np.array_equal(full.variation_totals().view(np.int64), expected.view(np.int64))
        assert np.array_equal(lean.variation_totals().view(np.int64), expected.view(np.int64))


def _row_blocks(noise, sizes):
    """Copies of consecutive row blocks of ``noise``, ``sizes`` rows each,
    so that a solve on them cannot read the stacked array."""
    ends = np.cumsum(sizes)
    return [noise[end - size : end].copy() for size, end in zip(sizes, ends)]


@pytest.mark.parametrize("keep_path", [True, False])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "sizes",
    [
        [TILE_PATHS + 37],
        # 1-row blocks, then one across a tile boundary
        [1, 1, 1, TILE_PATHS + 30],
        # ragged blocks, none on a tile boundary
        [TILE_PATHS - 3, TILE_PATHS + 5, 35],
        [2 * TILE_PATHS, 1, 36],
    ],
    ids=["one", "single-rows", "ragged", "on-and-off-tiles"],
)
def test_row_block_noise_is_bit_equal_to_its_stack(sizes, d, keep_path):
    cfg, xi, g, noise = _blocked_case(3, d, 2, sum(sizes), STEP_BLOCK + 9, seed=60 + d)
    f = LinearDelayDrift(pull=1.0, push=0.8, dim=d)
    whole = integrate(cfg, xi, f, g, noise, keep_path=keep_path)
    assert np.any(whole.variation_totals() > 0.0)
    for blocks in (_row_blocks(noise, sizes), tuple(_row_blocks(noise, sizes))):
        parts = integrate(cfg, xi, f, g, blocks, keep_path=keep_path)
        assert np.array_equal(parts.states.view(np.int64), whole.states.view(np.int64))
        assert np.array_equal(
            parts.variation_totals().view(np.int64), whole.variation_totals().view(np.int64)
        )


@pytest.mark.parametrize(
    "shapes",
    [
        [(3, 10, 1), (2, 10, 1)],
        [(1, 10, 1), (2, 10, 1)],
        [(2, 10, 1), (2, 9, 1)],
        [(2, 10, 1), (2, 10, 2)],
        [(2, 10, 1), (2, 10)],
        [(4, 10)],
    ],
    ids=["too-many-rows", "too-few-rows", "steps", "widths", "two-axes", "one-block"],
)
def test_noise_blocks_that_do_not_stack_are_refused(shapes):
    # four paths over ten steps: the blocks must stack to (4, 10, m)
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.1, horizon=1.0)
    xi = np.zeros((4, 1, 1))
    blocks = [np.zeros(shape) for shape in shapes]
    named = re.escape(", ".join(map(str, shapes)))
    with pytest.raises(InvalidArgumentError, match=rf"\(4, 10, m\).* got {named}$"):
        integrate(cfg, xi, ConstantDrift(0.0), ConstantDiffusion(1.0), blocks)


def test_noise_of_the_wrong_shape_names_it():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.1, horizon=1.0)
    xi = np.zeros((4, 1, 1))
    f, g = ConstantDrift(0.0), ConstantDiffusion(1.0)
    with pytest.raises(InvalidArgumentError, match=r"\(4, 10, m\).* got \(4, 11, 1\)$"):
        integrate(cfg, xi, f, g, np.zeros((4, 11, 1)))
    with pytest.raises(InvalidArgumentError, match="got no blocks$"):
        integrate(cfg, xi, f, g, [])


def test_variation_totals_returns_a_copy():
    cfg, xi, g, noise = _blocked_case(1, 1, 1, 5, 7, seed=3)
    ens = integrate(cfg, xi, ConstantDrift(0.0), g, noise, keep_path=False)
    before = ens.variation_totals()
    ens.variation_totals()[:] = -1.0
    assert np.array_equal(ens.variation_totals(), before)


def _traced_reflected_solve(keep_path):
    """A reflected solve of 4096 paths over 1000 steps; returns the
    ensemble, its noise and the traced allocation peak of the solve."""
    n_paths, steps = 4096, 1000
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=1.0 / steps, horizon=1.0)
    noise = sample_noise_matrix(KEY.child(48), cfg.grid, width=1, n_paths=n_paths)
    xi = np.zeros((n_paths, cfg.grid.window_len, 1))
    f, g = ConstantDrift(0.0), ConstantDiffusion(1.0)
    tracemalloc.start()
    try:
        ens = integrate(cfg, xi, f, g, noise, keep_path=keep_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(ens.variation_totals() > 0.0)
    return ens, noise, peak


def test_terminal_only_solve_keeps_no_path_sized_array():
    # a chunk's solve needs only its block scratch: below half of its
    # noise array, where one (N, steps, d) array alone would be as
    # large as the noise
    _, noise, peak = _traced_reflected_solve(keep_path=False)
    assert peak < noise.nbytes / 2


def test_full_solve_keeps_no_second_path_sized_array():
    # the states are the only path-sized array of a full solve; the
    # reflection steps live in block scratch, so a second (N, steps, d)
    # array would lift the peak to twice the states
    ens, _, peak = _traced_reflected_solve(keep_path=True)
    assert ens.states.shape == (4096, 1001, 1)
    assert peak < 1.5 * ens.states.nbytes


# ---------------------------------------------------------------------------
# iteration


def test_iteration_fixed_for_segment_independent_coefficients():
    cfg = _cfg(ZeroOperator(dim=1), delay=0.2)
    xi = np.ones((1, cfg.grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(7), cfg.grid, width=1, n_paths=1)
    its = picard_iterate_paths(
        cfg, xi, ConstantDrift((0.3,)), ConstantDiffusion(0.5), noise, 3
    )
    assert np.array_equal(its[0].states, its[1].states)
    assert np.array_equal(its[1].states, its[2].states)


def test_iteration_first_interval_method_of_steps():
    # f(t, z) = -z(-r0), no noise, xi constant 1: against the frozen
    # constant extension the first iterate falls linearly, and further
    # iterates cannot change before the delay has elapsed
    cfg = _cfg(ZeroOperator(dim=1), dt=0.1, delay=0.3, horizon=1.0)
    grid = cfg.grid
    xi = np.ones((1, grid.window_len, 1))
    noise = np.zeros((1, grid.steps, 1))
    f = LinearDelayDrift(pull=0.0, push=-1.0)
    its = [e.states[0] for e in picard_iterate_paths(cfg, xi, f, ConstantDiffusion(0.0), noise, 2)]
    m0 = grid.delay_steps
    times = (np.arange(grid.path_len) - grid.delay_steps) * grid.dt
    np.testing.assert_allclose(its[0][m0:, 0], 1.0 - times[m0:], atol=1e-12)
    cut = 2 * m0 + 1  # path rows through t = r0
    np.testing.assert_array_equal(its[0][:cut], its[1][:cut])


def test_iteration_rejects_bad_arguments():
    cfg = _cfg(ZeroOperator(dim=1))
    xi = np.zeros((1, cfg.grid.window_len, 1))
    noise = sample_noise_matrix(KEY, cfg.grid, width=1, n_paths=1)
    with pytest.raises(InvalidArgumentError):
        picard_iterate_paths(cfg, xi, ConstantDrift(0.0), ConstantDiffusion(0.0), noise, 0)
    with pytest.raises(InvalidArgumentError):
        picard_iterate_paths(
            cfg,
            xi,
            ConstantDrift(0.0),
            ConstantDiffusion(0.0),
            noise,
            1,
            zeroth=np.zeros((1, 3, 1)),
        )


def test_fixed_point_forgets_the_starting_iterate():
    cfg = _cfg(ZeroOperator(dim=1), dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    n_paths = 8
    xi = np.full((n_paths, grid.window_len, 1), 0.5)
    noise = sample_noise_matrix(KEY.child(8), grid, width=1, n_paths=n_paths)
    f = LinearDelayDrift(pull=1.0, push=0.5)
    g = ConstantDiffusion(0.4)
    a = picard_iterate_paths(cfg, xi, f, g, noise, 12)[-1]
    b = picard_iterate_paths(
        cfg, xi, f, g, noise, 12, zeroth=np.full((n_paths, grid.path_len, 1), -3.0)
    )[-1]
    assert np.max(np.abs(a.states - b.states)) <= 1e-8


# ---------------------------------------------------------------------------
# contraction diagnostics


def test_report_identical_iterates_all_zero():
    cfg = _cfg(ZeroOperator(dim=1), delay=0.2)
    grid = cfg.grid
    xi = np.ones((4, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(9), grid, width=1, n_paths=4)
    its = picard_iterate_paths(cfg, xi, ConstantDrift((1.0,)), ConstantDiffusion(1.0), noise, 4)
    gaps = [_mean_sup_sq(a.states, b.states) for a, b in zip(its, its[1:])]
    assert gaps == [(0.0, 0.0)] * 3
    # a ladder that starts at its fixed point shows no decrease
    _, decreasing = _ladder("picard_contraction", ["a", "b", "c"], [0.0] * 3, 0.0)
    assert decreasing.value == 1.0 and not decreasing.passed


def test_gap_ratio_reads_a_zero_denominator_as_a_check():
    assert gap_ratio(1.0, 4.0) == 0.25
    assert gap_ratio(0.0, 0.0) == 0.0
    # a gap that grows from zero is no decrease, and the ratio stays finite
    assert gap_ratio(0.0046, 0.0) == 1.0


def test_report_geometric_decay_on_lipschitz_drift():
    f = LinearDelayDrift(pull=1.0, push=0.5)
    g = ConstantDiffusion(0.5)
    t0 = contraction_horizon(f.lipschitz_sq + g.lipschitz_sq)
    cfg = _cfg(ZeroOperator(dim=1), dt=0.001, delay=0.002, horizon=0.02)
    grid = cfg.grid
    n_paths = 64
    xi = np.full((n_paths, grid.window_len, 1), 1.0)
    noise = sample_noise_matrix(KEY.child(10), grid, width=1, n_paths=n_paths)
    its = picard_iterate_paths(cfg, xi, f, g, noise, 6)
    k0 = max(1, min(grid.steps, int(t0 / grid.dt + 1e-9)))
    paths = [ens.states[:, : grid.delay_steps + k0 + 1] for ens in its]
    distances = [_mean_sup_sq(a, b)[0] for a, b in zip(paths, paths[1:])]
    assert len(distances) == 5
    assert all(gap_ratio(b, a) <= 0.75 for a, b in zip(distances, distances[1:]))
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_contraction_horizon_brackets_the_smallness_condition():
    for lip in (0.5, 2.5, 40.0):
        t0 = contraction_horizon(lip)
        lhs = 2.0 * lip * 5.0 * t0 * math.exp(2.0 * t0)
        assert lhs <= 0.5 + 1e-9
        too_far = 2.0 * lip * 5.0 * (t0 * 1.01) * math.exp(2.0 * t0 * 1.01)
        assert too_far > 0.5
    assert contraction_horizon(10.0) < contraction_horizon(1.0)
    with pytest.raises(InvalidArgumentError):
        contraction_horizon(0.0)


def test_contraction_horizon_of_a_tiny_constant_is_finite():
    # t*exp(2t) at the horizon of L = 1e-300 is far past the floats, so
    # the condition is checked in logs
    t0 = contraction_horizon(1e-300)
    assert 300.0 < t0 < math.inf
    log_scale = math.log(2.0 * 1e-300 * 5.0)
    assert log_scale + math.log(t0) + 2.0 * t0 <= math.log(0.5) + 1e-12
    assert log_scale + math.log(t0 * 1.01) + 2.0 * t0 * 1.01 > math.log(0.5)


def test_variation_shrinks_with_dt_on_reflection():
    # coarse vs halved step on the reflected example: the variation
    # estimate moves by a small relative amount only
    def mean_variation(dt):
        cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=dt, horizon=1.0)
        grid = cfg.grid
        n_paths = 512
        xi = np.zeros((n_paths, grid.window_len, 1))
        noise = sample_noise_matrix(KEY.child(11), grid, width=1, n_paths=n_paths)
        ens = integrate(cfg, xi, ConstantDrift(0.0), ConstantDiffusion(1.0), noise)
        return float(np.mean(ens.variation_totals()))

    coarse = mean_variation(0.02)
    fine = mean_variation(0.01)
    assert math.isfinite(coarse) and math.isfinite(fine)
    assert abs(fine - coarse) / coarse < 0.25


def test_ensemble_accessors_match_single_paths():
    cfg = _cfg(NormalCone(domain=HalfLine(lower=0.0)), dt=0.1, delay=0.2)
    grid = cfg.grid
    xi = np.abs(KEY.child(12).generator().standard_normal((5, grid.window_len, 1)))
    noise = sample_noise_matrix(KEY.child(12), grid, width=1, n_paths=5)
    f, g = ConstantDrift((-1.0,)), ConstantDiffusion(1.0)
    ens = integrate(cfg, xi, f, g, noise)
    assert ens.states.shape[0] == 5
    assert ens.states.shape == (5, grid.path_len, 1)
    np.testing.assert_array_equal(ens.states[:, : grid.window_len], xi)
    # row i of the stacked states and variation is path i solved alone
    variation = ens.variation_totals()
    assert variation.shape == (5,) and np.any(variation > 0.0)
    for i in range(5):
        one = integrate(cfg, xi[i : i + 1], f, g, noise[i : i + 1])
        assert np.array_equal(one.states[0], ens.states[i])
        assert one.variation_totals()[0] == variation[i]
