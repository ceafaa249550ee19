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
        (1, 65536),
        (oracles.FOLD_ROWS + 7, 65536),  # one block, two sub-batches
        (2 * 5000 + 1000, 5000),  # three blocks, two of them split
    ],
)
def test_folded_paths_match_one_shot_blocks(n_paths, batch):
    got = simulate_folded_paths(KEY, GRID, n_paths, batch=batch)
    want = _folded_one_shot(KEY, GRID, n_paths, batch)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_folded_paths_match_one_shot_with_small_sub_batches(monkeypatch):
    monkeypatch.setattr(oracles, "FOLD_ROWS", 3)
    got = simulate_folded_paths(KEY, GRID, 53, batch=20)
    want = _folded_one_shot(KEY, GRID, 53, 20)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_folded_paths_validate_arguments():
    for n_paths in (0, -3):
        with pytest.raises(InvalidArgumentError, match="n_paths"):
            simulate_folded_paths(KEY, GRID, n_paths)
    for batch in (0, -1):
        with pytest.raises(InvalidArgumentError, match="batch"):
            simulate_folded_paths(KEY, GRID, 10, batch=batch)


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
