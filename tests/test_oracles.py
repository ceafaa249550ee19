"""The independent reference routes in ``mvsde.experiments.oracles``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mvsde import InvalidArgumentError, RngKey, TEST_STREAM, TimeGrid
from mvsde.experiments import oracles
from mvsde.experiments.oracles import simulate_folded_paths

KEY = RngKey(20260816, (TEST_STREAM, 9))
GRID = TimeGrid(dt=0.02, delay=0.0, horizon=1.0)


def _folded_one_shot(key, grid, n_paths, batch):
    """Each RNG block drawn and folded in one piece."""
    terminal = np.empty(n_paths)
    local_time = np.empty(n_paths)
    root_dt = math.sqrt(grid.dt)
    done = 0
    block = 0
    while done < n_paths:
        take = min(batch, n_paths - done)
        gen = key.child(block).generator()
        dw = gen.standard_normal((take, grid.steps)) * root_dt
        w = np.cumsum(dw, axis=1)
        signs = np.sign(np.concatenate([np.zeros((take, 1)), w[:, :-1]], axis=1))
        abs_end = np.abs(w[:, -1])
        terminal[done : done + take] = abs_end
        local_time[done : done + take] = abs_end - np.sum(signs * dw, axis=1)
        done += take
        block += 1
    return terminal, local_time


@pytest.mark.parametrize(
    "n_paths, batch",
    [
        (1, oracles.FOLD_BLOCK),
        (oracles.FOLD_ROWS + 7, oracles.FOLD_BLOCK),  # one block, two sub-batches
        (2 * 5000 + 1000, 5000),  # three blocks, two of them split
    ],
)
def test_folded_paths_match_one_shot_blocks(monkeypatch, n_paths, batch):
    monkeypatch.setattr(oracles, "FOLD_BLOCK", batch)
    got = simulate_folded_paths(KEY, GRID, n_paths)
    want = _folded_one_shot(KEY, GRID, n_paths, batch)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_folded_paths_match_one_shot_with_small_sub_batches(monkeypatch):
    monkeypatch.setattr(oracles, "FOLD_ROWS", 3)
    monkeypatch.setattr(oracles, "FOLD_BLOCK", 20)
    got = simulate_folded_paths(KEY, GRID, 53)
    want = _folded_one_shot(KEY, GRID, 53, 20)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_folded_paths_validate_arguments():
    for n_paths in (0, -3):
        with pytest.raises(InvalidArgumentError, match="n_paths"):
            simulate_folded_paths(KEY, GRID, n_paths)


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
