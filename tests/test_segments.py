"""Grids, stacked segments and paths, and the constant extension."""

import numpy as np
import pytest

from mvsde import (
    Coefficient,
    ConstantDiffusion,
    EnsembleTrajectories,
    InvalidArgumentError,
    LinearDelayDrift,
    MeanFieldLinearDrift,
    RngKey,
    SolverConfig,
    TEST_STREAM,
    TimeGrid,
    ZeroOperator,
    distribution_iterate,
    integrate,
    picard_iterate_paths,
    solve_ensemble_frozen,
)
from mvsde.segments import _constant_extension
from mvsde.solver import _add_variation

KEY = RngKey(20260816, (TEST_STREAM, 2))


def _ensemble(states, dk):
    """The one-path ensemble holding ``states`` (path_len, d) and the
    variation of the reflection steps ``dk`` (steps, d), added as
    ``integrate`` adds one block of steps."""
    dk = np.asarray(dk, dtype=float)[:, None, :]
    variation = np.zeros(1)
    _add_variation(variation, dk, np.empty(dk.shape), np.empty(dk.shape[:2]))
    return EnsembleTrajectories(states[None], variation)


class _WindowRecorder(Coefficient):
    """A drift of ``slope`` that keeps a copy of every window it sees."""

    def __init__(self, slope):
        self.slope = slope
        self.seen = []

    def eval_batch(self, t, values, law, grid):
        self.seen.append(values.copy())
        return np.full((values.shape[0], 1), self.slope)


def _windows_seen(grid, xi, slope):
    """The windows (steps, N, window, 1) a drift of ``slope`` sees in a
    noiseless unconstrained solve from ``xi``, and the solve."""
    f = _WindowRecorder(slope)
    cfg = SolverConfig(grid=grid, operator=ZeroOperator(dim=1))
    noise = np.zeros((xi.shape[0], grid.steps, 1))
    ens = integrate(cfg, xi, f, ConstantDiffusion(0.0), noise)
    return np.stack(f.seen), ens


def test_grid_counts():
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    assert grid.delay_steps == 2
    assert grid.steps == 4
    assert grid.window_len == 3
    assert grid.path_len == 7
    np.testing.assert_allclose(grid.window_times(), [-0.2, -0.1, 0.0])


def test_grid_allows_zero_delay():
    grid = TimeGrid(dt=0.25, delay=0.0, horizon=1.0)
    assert grid.delay_steps == 0
    assert grid.window_len == 1


def test_grid_validation_messages():
    with pytest.raises(InvalidArgumentError, match="dt"):
        TimeGrid(dt=0.0, delay=0.1, horizon=1.0)
    with pytest.raises(InvalidArgumentError, match="delay"):
        TimeGrid(dt=0.1, delay=0.15, horizon=1.0)
    with pytest.raises(InvalidArgumentError, match="horizon"):
        TimeGrid(dt=0.1, delay=0.1, horizon=1.05)
    with pytest.raises(InvalidArgumentError, match="delay"):
        TimeGrid(dt=0.1, delay=-0.1, horizon=1.0)
    with pytest.raises(InvalidArgumentError, match="horizon"):
        TimeGrid(dt=0.1, delay=0.1, horizon=0.0)
    # horizon / dt overflows to inf, and so would delay / dt
    with pytest.raises(InvalidArgumentError, match="dt = 1e-320 is too small"):
        TimeGrid(dt=1e-320, delay=0.0, horizon=1.0)
    with pytest.raises(InvalidArgumentError, match="too small"):
        TimeGrid(dt=1e-300, delay=1e10, horizon=1.0)
    # horizon / dt is finite, but no array can hold that many steps
    with pytest.raises(InvalidArgumentError, match="dt = 1e-300 is too small"):
        TimeGrid(dt=1e-300, delay=0.0, horizon=1.0)


def test_windows_at_examples():
    # d=1, r0=0.2, dt=0.1, T=0.4: dX = dt from X(s) = s on [-r0, 0] is
    # the ramp X(s) = s; a coefficient sees one window per step, none
    # after the last
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    seen, _ = _windows_seen(grid, grid.window_times()[None, :, None], slope=1.0)
    assert seen.shape == (grid.steps, 1, grid.window_len, 1)
    # step 0 recovers the initial window
    np.testing.assert_array_equal(seen[0, 0, :, 0], [-0.2, -0.1, 0.0])
    np.testing.assert_allclose(seen[3, 0, :, 0], [0.1, 0.2, 0.3])
    # a constant path gives a constant segment at every step
    seen, _ = _windows_seen(grid, np.full((2, grid.window_len, 1), 2.5), slope=0.0)
    assert seen.shape == (grid.steps, 2, grid.window_len, 1)
    assert np.all(seen == 2.5)


def test_segment_shift_identity():
    # the window a coefficient sees at step k on the ramp X(s) = s
    # holds its values X(k*dt + theta)
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    seen, ens = _windows_seen(grid, grid.window_times()[None, :, None], slope=1.0)
    for k in range(grid.steps):
        for j, theta in enumerate(grid.window_times()):
            assert seen[k, 0, j, 0] == pytest.approx(k * grid.dt + theta, abs=1e-12)
    # the window after the last step is the final window of the states
    np.testing.assert_allclose(ens.states[0, -grid.window_len :, 0], [0.2, 0.3, 0.4])


def test_initial_extension_examples():
    # the constant extension equals xi on [-r0, 0] and xi(0) after it
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    paths = _constant_extension(grid, np.array([1.0, 2.0, 3.0])[None, :, None])
    # so its segment is xi at t = 0, (xi(-0.1), xi(0), xi(0)) at t = 0.1,
    # and frozen at xi(0) from t = r0 on
    np.testing.assert_array_equal(paths[0, :, 0], [1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        _constant_extension(grid, np.array([[1.0, 2.0]]))


def test_initial_extension_path_matches_segmentwise():
    grid = TimeGrid(dt=0.5, delay=1.0, horizon=3.0)
    gen = KEY.child(1).generator()
    xi = gen.standard_normal((2, grid.window_len, 2))
    states = _constant_extension(grid, xi)
    assert states.shape == (2, grid.path_len, 2)
    m = grid.delay_steps
    for k in range(grid.steps + 1):
        # the extension's segment at step k reads xi at min(j + k, m)
        expected = xi[:, np.minimum(np.arange(grid.window_len) + k, m)]
        np.testing.assert_array_equal(states[:, k : k + grid.window_len], expected)


def test_one_constant_extension_for_paths_flows_and_picard():
    # the explicit extension, the initial flow of distribution iteration
    # and Picard's default zeroth iterate are the same arrays
    grid = TimeGrid(dt=0.5, delay=1.0, horizon=3.0)
    gen = KEY.child(2).generator()
    xi = gen.standard_normal((3, grid.window_len, 2))
    paths = np.concatenate([xi, np.repeat(xi[:, -1:], grid.steps, axis=1)], axis=1)
    assert np.array_equal(_constant_extension(grid, xi), paths)
    cfg = SolverConfig(grid=grid, operator=ZeroOperator(2))
    f = LinearDelayDrift(1.0, 0.5, 2)
    g = ConstantDiffusion(0.3, 2, 2)
    noise = gen.standard_normal((3, grid.steps, 2))
    default = picard_iterate_paths(cfg, xi, f, g, noise, 2)
    explicit = picard_iterate_paths(cfg, xi, f, g, noise, 2, zeroth=paths)
    for a, b in zip(default, explicit):
        assert np.array_equal(a.states, b.states)
    # round 1 of distribution iteration solves against the initial flow
    b = MeanFieldLinearDrift(coupling=0.8, dim=2)
    (first,) = distribution_iterate(cfg, xi, b, g, 1, noise)
    assert np.array_equal(first.states, solve_ensemble_frozen(cfg, xi, b, g, paths, noise).states)


def test_total_variation_examples():
    # the variation of K over [0, T] is the sum of the norms of its steps
    grid = TimeGrid(dt=0.5, delay=0.0, horizon=1.0)
    zero = _ensemble(np.zeros((grid.path_len, 2)), np.zeros((grid.steps, 2)))
    assert zero.variation_totals()[0] == 0.0

    one = _ensemble(np.zeros((grid.path_len, 2)), np.array([(0.3, -0.4), (0.0, 0.0)]))
    assert one.variation_totals()[0] == pytest.approx(0.5, abs=1e-15)

    # +1 then -1: variation 2 while the displacement cancels
    swing = _ensemble(np.zeros((grid.path_len, 1)), np.array([(1.0,), (-1.0,)]))
    assert swing.variation_totals()[0] == 2.0


def test_immutability():
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    ens = _ensemble(np.zeros((grid.path_len, 1)), np.zeros((grid.steps, 1)))
    with pytest.raises(ValueError):
        ens.states[0, 0, 0] = 9.0
