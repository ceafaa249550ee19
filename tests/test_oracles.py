"""The independent reference routes in ``mvsde.experiments.oracles``."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from mvsde import InvalidArgumentError, RngKey, TEST_STREAM, TimeGrid
from mvsde.experiments import oracles
from mvsde.experiments.oracles import simulate_folded_paths

KEY = RngKey(20260816, (TEST_STREAM, 9))
GRID = TimeGrid(dt=0.02, delay=0.0, horizon=1.0)


def _steps(n_paths, steps, key=KEY):
    return key.generator().standard_normal((n_paths, steps)) * math.sqrt(GRID.dt)


def _folded_one_shot(dw):
    """Every path folded in one piece, from a full cumulative sum."""
    w = np.cumsum(dw, axis=1)
    signs = np.sign(np.concatenate([np.zeros((dw.shape[0], 1)), w[:, :-1]], axis=1))
    terminal = np.abs(w[:, -1])
    return terminal, terminal - np.sum(signs * dw, axis=1)


def test_folded_paths_of_a_walk_that_crosses_zero():
    # row 0 walks 0, 1, -1, -0.5, 0.5: sgn(W) at the left endpoints is
    # 0, 1, -1, -1, so the Tanaka sum is -2 - 0.5 - 1 and L = 0.5 + 3.5;
    # row 1 walks 0, 0.25, 0.5, -0.5, 0 and L = 0 - (0.25 - 1 - 0.5)
    dw = np.array([[1.0, -2.0, 0.5, 1.0], [0.25, 0.25, -1.0, 0.5]])
    terminal, local_time = simulate_folded_paths(dw)
    assert terminal.tolist() == [0.5, 0.0]
    assert local_time.tolist() == [4.0, 1.25]


@pytest.mark.parametrize("n_paths", [1, 2, oracles.FOLD_ROWS + 7])
def test_folded_paths_match_one_shot(n_paths):
    dw = _steps(n_paths, GRID.steps)
    got = simulate_folded_paths(dw)
    want = _folded_one_shot(dw)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_folded_paths_do_not_depend_on_the_sub_batches(monkeypatch):
    dw = _steps(53, GRID.steps)
    whole = simulate_folded_paths(dw)
    monkeypatch.setattr(oracles, "FOLD_ROWS", 3)
    split = simulate_folded_paths(dw)
    assert np.array_equal(split[0], whole[0])
    assert np.array_equal(split[1], whole[1])


def test_folded_paths_only_read_the_steps():
    dw = _steps(oracles.FOLD_ROWS + 7, GRID.steps)
    before = dw.copy()
    simulate_folded_paths(dw)
    assert np.array_equal(dw, before)
    # a read-only array is folded as it is
    dw.flags.writeable = False
    simulate_folded_paths(dw)


def test_folded_paths_hold_one_sub_batch_scratch():
    # besides its two (n_paths,) outputs the fold holds its one
    # (FOLD_ROWS, steps) scratch and a few rows of temporaries; a second
    # buffer, such as a copy of the steps or of their products, would
    # add another FOLD_ROWS x 800 bytes here
    n_paths, steps = 3 * oracles.FOLD_ROWS + 5, 100
    dw = _steps(n_paths, steps)
    simulate_folded_paths(dw[:8])
    tracemalloc.start()
    try:
        simulate_folded_paths(dw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < oracles.FOLD_ROWS * steps * 8 + 2 * n_paths * 8 + 64 * 1024


def test_folded_paths_validate_arguments():
    for dw in (np.zeros(5), np.zeros((0, 5)), np.zeros((5, 0)), np.zeros((2, 3, 1))):
        with pytest.raises(InvalidArgumentError, match="dw"):
            simulate_folded_paths(dw)


@pytest.mark.parametrize("horizon", [1.0, 0.3])
def test_halfline_reflection_moments_match_quadrature(horizon):
    # Levy: reflected Brownian motion from 0 has the law of |W_T|, whose
    # density is twice the normal one on [0, inf); Tanaka: E L_T = E|W_T|
    def half_normal(x):
        return 2.0 * math.exp(-x * x / (2.0 * horizon)) / math.sqrt(2.0 * math.pi * horizon)

    first = integrate.quad(lambda x: x * half_normal(x), 0.0, math.inf)[0]
    second = integrate.quad(lambda x: x * x * half_normal(x), 0.0, math.inf)[0]
    moments = oracles.halfline_reflection_moments(horizon)
    assert moments["mean"] == pytest.approx(first, rel=1e-9)
    assert moments["second_moment"] == pytest.approx(second, rel=1e-9)
    assert moments["local_time_mean"] == pytest.approx(first, rel=1e-9)


def test_oracles_import_no_solver_code():
    # the module docstring's independence rule
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    forbidden = {"solver", "meanfield", "monotone", "coefficients"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & forbidden


# ---------------------------------------------------------------------------
# the delay-mean routes: m' = -m + c * m(t - r0) from history 1


@pytest.mark.parametrize("coupling", [0.5, 1.3, -0.7])
def test_delay_means_without_delay_are_the_plain_linear_ode(coupling):
    # r0 = 0: the ODE is m' = (c - 1) m, and both recursions are powers
    grid = TimeGrid(dt=0.01, delay=0.0, horizon=1.0)
    k = np.arange(grid.steps + 1)
    rate = coupling - 1.0
    ode = oracles.delay_ode_mean(coupling, grid)
    euler = oracles.delay_euler_mean(coupling, grid)
    assert ode.shape == euler.shape == (grid.steps + 1,)
    assert np.max(np.abs(ode - np.exp(rate * k * grid.dt))) < 1e-7
    # a Heun step multiplies by 1 + h a + (h a)^2 / 2 when the delayed
    # value at the new node is the predictor
    ha = rate * grid.dt / oracles.DELAY_ODE_REFINE
    heun = (1.0 + ha + 0.5 * ha * ha) ** (oracles.DELAY_ODE_REFINE * k)
    np.testing.assert_allclose(ode, heun, rtol=1e-11, atol=0)
    np.testing.assert_allclose(euler, (1.0 + grid.dt * rate) ** k, rtol=1e-13, atol=0)


@pytest.mark.parametrize("coupling", [0.5, 1.3])
def test_delay_ode_mean_follows_the_method_of_steps(coupling):
    grid = TimeGrid(dt=0.01, delay=0.5, horizon=1.0)
    lag = grid.delay_steps
    t = np.arange(grid.steps + 1) * grid.dt
    m = oracles.delay_ode_mean(coupling, grid)
    # on [0, r0] the delayed value is the history 1
    first = oracles.delay_ode_first_interval(coupling, t[: lag + 1])
    assert np.max(np.abs(m[: lag + 1] - first)) < 1e-8
    # on [r0, 2 r0] it is the first interval's solution, so with s = t - r0
    # m = c^2 + c (1 - c) s e^{-s} + (m(r0) - c^2) e^{-s}
    s = t[lag:] - grid.delay
    second = (
        coupling**2
        + coupling * (1.0 - coupling) * s * np.exp(-s)
        + (first[-1] - coupling**2) * np.exp(-s)
    )
    assert np.max(np.abs(m[lag:] - second)) < 1e-8


def test_delay_euler_mean_is_first_order_in_dt():
    # the scheme's O(dt) bias: the sup gap to the ODE halves with dt
    gaps = []
    for dt in (0.02, 0.01, 0.005):
        grid = TimeGrid(dt=dt, delay=0.5, horizon=1.0)
        diff = oracles.delay_euler_mean(0.5, grid) - oracles.delay_ode_mean(0.5, grid)
        gaps.append(np.max(np.abs(diff)))
    assert 1e-3 < gaps[0] < 2e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.9 < coarse / fine < 2.1
