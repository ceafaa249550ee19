"""Grids, segments, trajectory pairs and the variation ledger."""

import csv
import json

import numpy as np
import pytest

from mvsde import (
    InvalidArgumentError,
    RngKey,
    Segment,
    SolverConfig,
    TEST_STREAM,
    TimeGrid,
    TrajectoryPair,
    ZeroOperator,
    constant_segment,
    diffusion_constant,
    drift_linear_delay,
    flow_from_initial,
    initial_extension,
    initial_extension_path,
    picard_iterate_paths,
    segment_at,
    sup_norm,
    total_variation,
    write_trajectory_csv,
    write_trajectory_jsonl,
)

KEY = RngKey(20260816, (TEST_STREAM, 2))


def _ramp_traj():
    # d=1, r0=0.2, dt=0.1, T=0.4 with X(s) = s on the whole grid
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    states = grid.path_times()[:, None]
    increments = np.zeros((grid.steps, 1))
    return grid, TrajectoryPair(grid, states, increments)


def test_grid_counts():
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    assert grid.delay_steps == 2
    assert grid.steps == 4
    assert grid.window_len == 3
    assert grid.path_len == 7
    np.testing.assert_allclose(grid.window_times(), [-0.2, -0.1, 0.0])
    np.testing.assert_allclose(grid.path_times(), [-0.2, -0.1, 0, 0.1, 0.2, 0.3, 0.4])


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


def test_index_of_rejects_off_grid_times():
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=1.0)
    assert grid.index_of(0.3) == 3
    assert grid.index_of(-0.0) == 0
    with pytest.raises(InvalidArgumentError):
        grid.index_of(0.349)


def test_sup_norm_examples():
    grid = TimeGrid(dt=0.1, delay=0.1, horizon=0.2)
    assert sup_norm(constant_segment(grid, (0.0, 0.0))) == 0.0
    seg = Segment(grid, [(3.0, 4.0), (0.0, 0.0)])
    assert sup_norm(seg) == 5.0
    grid3 = TimeGrid(dt=0.1, delay=0.2, horizon=0.2)
    assert sup_norm(Segment(grid3, [-1.0, 2.0, -3.0])) == 3.0


def test_segment_at_examples():
    grid, traj = _ramp_traj()
    # t = 0 recovers the initial window
    np.testing.assert_array_equal(segment_at(traj, 0.0).values[:, 0], [-0.2, -0.1, 0.0])
    np.testing.assert_allclose(segment_at(traj, 0.3).values[:, 0], [0.1, 0.2, 0.3])
    # constant path gives a constant segment at every t
    const = TrajectoryPair(grid, np.full((grid.path_len, 1), 2.5), np.zeros((grid.steps, 1)))
    for t in (0.0, 0.2, 0.4):
        assert np.all(segment_at(const, t).values == 2.5)
    with pytest.raises(InvalidArgumentError):
        segment_at(traj, 0.5)
    with pytest.raises(InvalidArgumentError):
        segment_at(traj, -0.1)


def test_segment_shift_identity():
    grid, traj = _ramp_traj()
    for t in np.round(np.arange(0.0, 0.41, 0.1), 10):
        seg = segment_at(traj, t)
        for j, theta in enumerate(grid.window_times()):
            assert seg.values[j, 0] == traj.state_at(round(t + theta, 10))[0]


def test_initial_extension_examples():
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    xi = Segment(grid, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(initial_extension(xi, 0.0).values, xi.values)
    # t >= r0 freezes at xi(0)
    assert np.all(initial_extension(xi, 0.2).values == 3.0)
    assert np.all(initial_extension(xi, 0.4).values == 3.0)
    # intermediate: (xi(-0.1), xi(0), xi(0))
    np.testing.assert_array_equal(initial_extension(xi, 0.1).values[:, 0], [2.0, 3.0, 3.0])


def test_initial_extension_path_matches_segmentwise():
    grid = TimeGrid(dt=0.5, delay=1.0, horizon=3.0)
    gen = KEY.child(1).generator()
    xi = Segment(grid, gen.standard_normal((grid.window_len, 2)))
    path = initial_extension_path(xi)
    assert path.shape == (grid.path_len, 2)
    traj = TrajectoryPair(grid, path, np.zeros((grid.steps, 2)))
    for k in range(grid.steps + 1):
        t = k * grid.dt
        np.testing.assert_array_equal(
            segment_at(traj, t).values, initial_extension(xi, t).values
        )


def test_one_constant_extension_for_paths_flows_and_picard():
    # the per-path extension, the initial flow and Picard's default
    # zeroth iterate are the same arrays
    grid = TimeGrid(dt=0.5, delay=1.0, horizon=3.0)
    gen = KEY.child(2).generator()
    xi = gen.standard_normal((3, grid.window_len, 2))
    paths = np.stack([initial_extension_path(Segment(grid, x)) for x in xi])
    assert np.array_equal(flow_from_initial(grid, xi).states, paths)
    cfg = SolverConfig(grid=grid, operator=ZeroOperator(2))
    f = drift_linear_delay(1.0, 0.5, 2)
    g = diffusion_constant(0.3, 2, 2)
    noise = gen.standard_normal((3, grid.steps, 2))
    default = picard_iterate_paths(cfg, xi, f, g, noise, 2)
    explicit = picard_iterate_paths(cfg, xi, f, g, noise, 2, zeroth=paths)
    for a, b in zip(default, explicit):
        assert np.array_equal(a.states, b.states)


def test_total_variation_examples():
    grid = TimeGrid(dt=0.5, delay=0.0, horizon=1.0)
    zero = TrajectoryPair(grid, np.zeros((grid.path_len, 2)), np.zeros((grid.steps, 2)))
    assert total_variation(zero, 0.0, 1.0) == 0.0

    one = TrajectoryPair(
        grid,
        np.zeros((grid.path_len, 2)),
        [(0.3, -0.4), (0.0, 0.0)],
    )
    assert total_variation(one, 0.0, 1.0) == pytest.approx(0.5, abs=2e-10)

    # +1 then -1: variation 2 while the displacement cancels
    swing = TrajectoryPair(grid, np.zeros((grid.path_len, 1)), [(1.0,), (-1.0,)])
    assert total_variation(swing, 0.0, 1.0) == pytest.approx(2.0, abs=2e-10)
    np.testing.assert_allclose(swing.reflection[:, 0], [0.0, 1.0, 0.0])


def test_total_variation_is_exactly_additive():
    grid = TimeGrid(dt=0.1, delay=0.0, horizon=1.0)
    gen = KEY.child(2).generator()
    traj = TrajectoryPair(
        grid,
        np.zeros((grid.path_len, 3)),
        gen.standard_normal((grid.steps, 3)),
    )
    times = np.round(np.arange(0.0, 1.01, 0.1), 10)
    for s in times:
        for t in times[times >= s]:
            for u in times[times >= t]:
                left = total_variation(traj, s, t) + total_variation(traj, t, u)
                assert left == total_variation(traj, s, u)


def test_total_variation_rejects_reversed_interval():
    grid, traj = _ramp_traj()
    with pytest.raises(InvalidArgumentError):
        total_variation(traj, 0.3, 0.1)


def test_immutability():
    grid, traj = _ramp_traj()
    with pytest.raises(ValueError):
        traj.states[0, 0] = 9.0
    with pytest.raises(ValueError):
        traj.increments[0, 0] = 9.0
    seg = segment_at(traj, 0.2)
    with pytest.raises(ValueError):
        seg.values[0, 0] = 9.0
    with pytest.raises(AttributeError):
        seg.values = np.zeros((3, 1))


def test_segment_and_trajectory_shape_validation():
    grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.4)
    with pytest.raises(InvalidArgumentError):
        Segment(grid, [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        Segment(grid, [1.0, np.inf, 2.0])
    with pytest.raises(InvalidArgumentError):
        TrajectoryPair(grid, np.zeros((3, 1)), np.zeros((grid.steps, 1)))
    with pytest.raises(InvalidArgumentError):
        TrajectoryPair(grid, np.zeros((grid.path_len, 1)), np.zeros((2, 1)))
    with pytest.raises(InvalidArgumentError):
        TrajectoryPair(grid, np.full((grid.path_len, 1), np.nan), np.zeros((grid.steps, 1)))


def test_trajectory_csv_round_trip(tmp_path):
    grid = TimeGrid(dt=0.25, delay=0.5, horizon=1.0)
    gen = KEY.child(3).generator()
    states = gen.standard_normal((grid.path_len, 2))
    incs = gen.standard_normal((grid.steps, 2)) * 0.1
    traj = TrajectoryPair(grid, states, incs)

    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == grid.path_len
    assert set(rows[0]) == {"t", "x0", "x1", "k0", "k1", "k_var"}
    # repr round-trips floats exactly
    for row, rec in enumerate(rows):
        assert float(rec["x0"]) == states[row, 0]
    assert float(rows[-1]["k_var"]) == total_variation(traj, 0.0, 1.0)
    np.testing.assert_array_equal(
        [float(r["k0"]) for r in rows[grid.delay_steps :]], traj.reflection[:, 0]
    )


def test_trajectory_jsonl_matches_csv_content(tmp_path):
    grid = TimeGrid(dt=0.5, delay=0.0, horizon=1.0)
    traj = TrajectoryPair(grid, [0.0, 1.0, 0.5], [(1.2,), (-0.7,)])
    out = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(traj, out)
    recs = [json.loads(line) for line in open(out)]
    assert [r["t"] for r in recs] == [0.0, 0.5, 1.0]
    assert recs[2]["x"] == [0.5]
    assert recs[2]["k"] == [pytest.approx(0.5)]
    assert recs[2]["k_var"] == pytest.approx(1.9, abs=2e-10)


def test_sup_norm_triangle_on_random_triples():
    grid = TimeGrid(dt=0.2, delay=0.6, horizon=1.0)
    gen = KEY.child(4).generator()
    for _ in range(200):
        a, b, c = gen.standard_normal((3, grid.window_len, 2))
        assert sup_norm(a - b) <= sup_norm(a - c) + sup_norm(c - b) + 1e-12
