"""Empirical laws, transport distance, and the two coupling modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mvsde import (
    Box,
    EmpiricalSegmentLaw,
    InvalidArgumentError,
    MeasureFlow,
    NormalCone,
    HalfLine,
    RngKey,
    SolverConfig,
    TEST_STREAM,
    TimeGrid,
    ZeroOperator,
    diffusion_constant,
    distribution_iterate,
    drift_linear_delay,
    flow_distances,
    flow_from_ensemble,
    flow_from_initial,
    flow_sup_distance,
    mf_drift_linear,
    sample_noise_matrix,
    self_consistent_solve,
    solve_ensemble_frozen,
    solve_paths,
    wasserstein2,
    wasserstein2_exhaustive,
)
from mvsde import meanfield
from mvsde.coefficients import Coefficient
from mvsde.experiments.config import parse_config_text
from mvsde.experiments.runner import run_experiment

KEY = RngKey(20260816, (TEST_STREAM, 5))
GRID = TimeGrid(dt=0.1, delay=0.2, horizon=1.0)


def _law(gen, count, dim=1, scale=1.0, grid=GRID):
    return EmpiricalSegmentLaw(grid, gen.standard_normal((count, grid.window_len, dim)) * scale)


# ---------------------------------------------------------------------------
# laws and moments


def test_law_validation():
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.zeros((0, GRID.window_len, 1)))
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.zeros((2, GRID.window_len - 1, 1)))
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.full((1, GRID.window_len, 1), np.inf))


def test_moment_examples():
    zeros = EmpiricalSegmentLaw(GRID, np.zeros((3, GRID.window_len, 2)))
    assert zeros.moment("sup_sq") == 0.0

    a = np.ones((GRID.window_len, 1))
    b = np.full((GRID.window_len, 1), 3.0)
    law = EmpiricalSegmentLaw(GRID, np.stack([a, b]))
    assert law.moment("sup_sq") == pytest.approx(5.0)

    ends = np.zeros((2, GRID.window_len, 2))
    ends[0, -1] = (1.0, 0.0)
    ends[1, -1] = (0.0, 1.0)
    law2 = EmpiricalSegmentLaw(GRID, ends)
    np.testing.assert_allclose(law2.moment("eval_end"), [0.5, 0.5])
    np.testing.assert_allclose(law2.moment("eval_delay"), [0.0, 0.0])

    with pytest.raises(InvalidArgumentError):
        law.moment("median")


def test_law_segment_accessor():
    # segment i of the law is row i of its stacked, read-only values
    gen = KEY.child(1).generator()
    windows = gen.standard_normal((4, GRID.window_len, 2))
    segments = [windows[i] for i in range(4)]
    law = EmpiricalSegmentLaw(GRID, np.stack(segments))
    np.testing.assert_array_equal(law.values[2], segments[2])
    assert (law.size, law.dim) == (4, 2)
    with pytest.raises(ValueError):
        law.values[2, 0, 0] = 9.0


# ---------------------------------------------------------------------------
# transport distance


def test_distance_identity_and_single_pair():
    gen = KEY.child(2).generator()
    a = _law(gen, 5)
    assert wasserstein2(a, a) == 0.0
    x = _law(gen, 1, dim=2)
    y = _law(gen, 1, dim=2)
    sup = np.max(np.linalg.norm(x.values[0] - y.values[0], axis=-1))
    assert wasserstein2(x, y) == pytest.approx(sup)


def test_distance_matches_exhaustive_minimum():
    gen = KEY.child(3).generator()
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            a = _law(gen, n, dim=2)
            b = _law(gen, n, dim=2)
            assert abs(wasserstein2(a, b) - wasserstein2_exhaustive(a, b)) <= 1e-12


def test_distance_metric_axioms():
    gen = KEY.child(4).generator()
    for _ in range(150):
        a, b, c = (_law(gen, 8) for _ in range(3))
        dab = wasserstein2(a, b)
        dba = wasserstein2(b, a)
        assert dab == dba  # exact, not approximate
        assert dab >= 0.0
        assert wasserstein2(a, c) <= dab + wasserstein2(b, c) + 1e-9


def test_distance_identity_coupling_upper_bound():
    gen = KEY.child(5).generator()
    for _ in range(50):
        a = _law(gen, 6, dim=2)
        b = _law(gen, 6, dim=2)
        paired = np.mean(
            np.max(np.linalg.norm(a.values - b.values, axis=2), axis=1) ** 2
        )
        assert wasserstein2(a, b) ** 2 <= paired + 1e-12


def test_distance_input_validation():
    gen = KEY.child(6).generator()
    with pytest.raises(InvalidArgumentError):
        wasserstein2(_law(gen, 2), _law(gen, 3))
    other = TimeGrid(dt=0.1, delay=0.1, horizon=1.0)
    with pytest.raises(InvalidArgumentError):
        wasserstein2(_law(gen, 2), _law(gen, 2, grid=other))
    with pytest.raises(InvalidArgumentError):
        wasserstein2_exhaustive(_law(gen, 9), _law(gen, 9))


def test_distance_is_exact_above_1024_particles():
    gen = KEY.child(7).generator()
    grid = TimeGrid(dt=0.5, delay=0.0, horizon=0.5)
    big = 1025
    a = EmpiricalSegmentLaw(grid, gen.standard_normal((big, 1, 1)))
    b = EmpiricalSegmentLaw(grid, gen.standard_normal((big, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = wasserstein2(a, b)
    # in one dimension the sorted matching is the exact optimum
    exact = math.sqrt(
        float(np.mean((np.sort(a.values[:, 0, 0]) - np.sort(b.values[:, 0, 0])) ** 2))
    )
    assert value == exact
    assert not hasattr(meanfield, "EXACT_ASSIGNMENT_CAP")


def _reference_sup_sq(a, b):
    """The cost matrix as one (N, N, W, d) tensor: the formula the
    time-major kernel must reproduce bit for bit."""
    diff = a.values[:, None, :, :] - b.values[None, :, :, :]
    return np.max(np.linalg.norm(diff, axis=3), axis=2) ** 2


def _reference_w2(a, b):
    cost = _reference_sup_sq(a, b)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(np.sum(np.sort(cost[rows, cols]))) / a.size)


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
@pytest.mark.parametrize("count", [1, 7, 64])
def test_cost_matrix_bitwise_matches_reference(dim, count):
    gen = KEY.child(16).generator()
    for scale in (1.0, 1e-160):  # 1e-160 squared underflows
        a = _law(gen, count, dim=dim, scale=scale)
        b = _law(gen, count, dim=dim, scale=scale)
        assert np.array_equal(meanfield._pairwise_sup_sq(a, b), _reference_sup_sq(a, b))


def test_cost_matrix_bitwise_matches_reference_across_chunks(monkeypatch):
    gen = KEY.child(17).generator()
    a = _law(gen, 13, dim=2)
    b = _law(gen, 13, dim=2)
    expected = _reference_sup_sq(a, b)
    # one row, then five rows (the last chunk short) per chunk
    for budget in (1, 5 * b.values.size):
        monkeypatch.setattr(meanfield, "COST_CHUNK_ELEMENTS", budget)
        assert np.array_equal(meanfield._pairwise_sup_sq(a, b), expected)


# ---------------------------------------------------------------------------
# flows


def test_flow_rejects_non_finite_states():
    states = np.zeros((2, GRID.path_len, 1))
    for bad in (np.nan, np.inf):
        states[1, 3, 0] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            MeasureFlow(GRID, states)


def test_flow_from_initial_extends_constantly():
    gen = KEY.child(8).generator()
    xi = gen.standard_normal((4, GRID.window_len, 1))
    flow = flow_from_initial(GRID, xi)
    first = flow.law_at_index(GRID.index_of(0.0))
    np.testing.assert_array_equal(first.values, xi)
    late = flow.law_at_index(GRID.index_of(GRID.horizon))
    assert np.all(late.values == xi[:, -1:, :])


def test_flow_distances_shape_and_zero_on_self():
    gen = KEY.child(9).generator()
    flow = flow_from_initial(GRID, gen.standard_normal((3, GRID.window_len, 1)))
    d = flow_distances(flow, flow)
    assert d.shape == (GRID.steps + 1,)
    assert np.all(d == 0.0)
    with pytest.raises(InvalidArgumentError):
        flow.law_at_index(GRID.steps + 1)


def test_flow_distances_bitwise_match_reference():
    gen = KEY.child(18).generator()
    a = MeasureFlow(GRID, gen.standard_normal((5, GRID.path_len, 2)))
    b = MeasureFlow(GRID, gen.standard_normal((5, GRID.path_len, 2)))
    expected = [
        _reference_w2(a.law_at_index(k), b.law_at_index(k)) for k in range(GRID.steps + 1)
    ]
    assert np.array_equal(flow_distances(a, b), expected)


# ---------------------------------------------------------------------------
# the sup over time of the flow distance


def _iterated_flows(operator, n, dim=1):
    """The flows of four distribution-iteration rounds: particle i is the
    same particle in every flow, as in the distribution_iteration
    experiment."""
    cfg = SolverConfig(grid=TimeGrid(dt=0.05, delay=0.1, horizon=0.5), operator=operator)
    grid = cfg.grid
    gen = KEY.child(19).generator()
    xi = np.tile(0.5 + gen.random((n, 1, dim)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(19), grid, width=dim, n_paths=n)
    flows, _ = distribution_iterate(
        cfg,
        xi,
        mf_drift_linear(coupling=0.7, dim=dim),
        diffusion_constant(0.3 * np.eye(dim)),
        4,
        noise,
    )
    return flows


def _exact_sup(a, b):
    return float(np.max(flow_distances(a, b)))


OPERATORS = {
    "zero": (ZeroOperator(dim=1), 1),
    "halfline": (NormalCone(domain=HalfLine(lower=0.5)), 1),
    "box": (NormalCone(domain=Box(lower=(0.4, 0.45), upper=(1.55, 1.6))), 2),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("n", [1, 2, 24, 64])
def test_flow_sup_distance_bitwise_equals_max_of_flow_distances(kind, n):
    operator, dim = OPERATORS[kind]
    flows = _iterated_flows(operator, n, dim)
    perm = KEY.child(20).generator().permutation(n)
    for a, b in zip(flows, flows[1:]):
        assert flow_sup_distance(a, b).hex() == _exact_sup(a, b).hex()
        # a permuted partner makes the identity bound loose
        shuffled = MeasureFlow(b.grid, b.states[perm])
        assert flow_sup_distance(a, shuffled).hex() == _exact_sup(a, shuffled).hex()


def test_flow_sup_distance_solves_few_times_on_iterated_flows(monkeypatch):
    flows = _iterated_flows(ZeroOperator(dim=1), 64)
    solved = []

    def counting(a, b):
        solved.append(a)
        return wasserstein2(a, b)

    monkeypatch.setattr(meanfield, "wasserstein2", counting)
    for a, b in zip(flows[1:], flows[2:]):
        solved.clear()
        flow_sup_distance(a, b)
        assert 1 <= len(solved) < a.grid.steps + 1


def test_flow_sup_distance_zero_on_identical_flows():
    gen = KEY.child(21).generator()
    flow = MeasureFlow(GRID, gen.standard_normal((6, GRID.path_len, 2)))
    assert flow_sup_distance(flow, flow) == 0.0
    assert flow_sup_distance(flow, MeasureFlow(GRID, flow.states.copy())) == 0.0


def test_flow_sup_distance_input_validation():
    gen = KEY.child(22).generator()
    a = MeasureFlow(GRID, gen.standard_normal((4, GRID.path_len, 1)))
    fewer = MeasureFlow(GRID, gen.standard_normal((3, GRID.path_len, 1)))
    other_grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.8)
    shorter = MeasureFlow(other_grid, gen.standard_normal((4, other_grid.path_len, 1)))
    wider = MeasureFlow(GRID, gen.standard_normal((4, GRID.path_len, 2)))
    for b in (fewer, shorter):
        for fn in (flow_distances, flow_sup_distance):
            with pytest.raises(InvalidArgumentError):
                fn(a, b)
    with pytest.raises(InvalidArgumentError):
        flow_sup_distance(a, wider)


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_identity_bound_is_the_cost_diagonal_and_bounds_w2(dim):
    gen = KEY.child(23).generator()
    for n in (1, 7, 30):
        a = MeasureFlow(GRID, gen.standard_normal((n, GRID.path_len, dim)))
        b = MeasureFlow(GRID, gen.standard_normal((n, GRID.path_len, dim)))
        diag = meanfield._identity_sup_sq(a, b)
        assert diag.shape == (GRID.steps + 1, n)
        for k in range(GRID.steps + 1):
            cost = meanfield._pairwise_sup_sq(a.law_at_index(k), b.law_at_index(k))
            assert np.array_equal(diag[k], np.diag(cost))
            bound = math.sqrt(float(np.sum(np.sort(diag[k]))) / n)
            assert wasserstein2(a.law_at_index(k), b.law_at_index(k)) <= bound


# distribution_iteration at 48 particles, dt 0.05, horizon 0.5: the flow
# gaps as computed before flow_sup_distance replaced max(flow_distances)
GOLDEN_FLOW_GAPS = {
    "": ["0x1.9cbf82af266e3p-9", "0x1.3300c5eae11c0p-12", "0x1.f14d9658d5554p-20"],
    "[operator]\nkind = halfline\nlower = 0.8\n": [
        "0x1.1b48446ef6ae7p-9",
        "0x1.27befb43ff831p-16",
        "0x1.bfc26b3ba5776p-21",
    ],
}


@pytest.mark.parametrize("extra", sorted(GOLDEN_FLOW_GAPS))
def test_distribution_iteration_flow_gaps_golden(extra):
    cfg = parse_config_text(
        "[experiment]\nname = distribution_iteration\n"
        "[run]\nparticles = 48\niterations = 4\n"
        "[grid]\ndt = 0.05\nr0 = 0.1\nhorizon = 0.5\n" + extra
    )
    gaps = [r.value.hex() for r in run_experiment(cfg) if r.metric.startswith("flow_gap_")]
    assert gaps == GOLDEN_FLOW_GAPS[extra]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    dim=st.integers(1, 2),
    exponent=st.floats(-12.0, 0.0),
    permute=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flow_sup_distance_property(n, dim, exponent, permute, seed):
    gen = np.random.default_rng(seed)
    base = gen.standard_normal((n, GRID.path_len, dim))
    # perturb a random subset of particles and times
    mask = gen.random((n, GRID.path_len, 1)) < 0.5
    other = base + mask * gen.standard_normal(base.shape) * 10.0**exponent
    if permute:
        other = other[gen.permutation(n)]
    a, b = MeasureFlow(GRID, base), MeasureFlow(GRID, other)
    assert flow_sup_distance(a, b).hex() == _exact_sup(a, b).hex()


# ---------------------------------------------------------------------------
# ensemble solves


def _mf_cfg(dt=0.1, delay=0.2, horizon=1.0):
    return SolverConfig(
        grid=TimeGrid(dt=dt, delay=delay, horizon=horizon),
        operator=ZeroOperator(dim=1),
    )


def test_law_independent_coefficients_reduce_to_independent_paths():
    cfg = _mf_cfg()
    grid = cfg.grid
    n = 6
    xi = np.full((n, grid.window_len, 1), 0.5)
    noise = sample_noise_matrix(KEY.child(10), grid, width=1, n_paths=n)
    b = mf_drift_linear(coupling=0.0)  # reads no law moment effectively
    sigma = diffusion_constant(0.8)
    flow = flow_from_initial(grid, xi)
    ens = solve_ensemble_frozen(cfg, xi, b, sigma, flow, noise)

    class _PullToZero(Coefficient):
        def eval_batch(self, t, values, law, grid):
            return -values[:, -1, :]

    f_plain = _PullToZero()
    plain = solve_paths(cfg, xi, f_plain, diffusion_constant(0.8), noise)
    assert np.array_equal(ens.states, plain.states)


def test_frozen_point_mass_flow_gives_exponential_decay():
    cfg = _mf_cfg(dt=0.001, delay=0.002, horizon=0.5)
    grid = cfg.grid
    xi = np.ones((1, grid.window_len, 1))
    noise = np.zeros((1, grid.steps, 1))
    zero_flow = flow_from_initial(grid, np.zeros((1, grid.window_len, 1)))
    ens = solve_ensemble_frozen(
        cfg, xi, mf_drift_linear(coupling=1.0), diffusion_constant(0.0), zero_flow, noise
    )
    times = np.arange(grid.steps + 1) * grid.dt
    np.testing.assert_allclose(
        ens.states[0, grid.delay_steps :, 0], np.exp(-times), atol=5 * grid.dt
    )


def test_distribution_iteration_fixed_point_for_law_independent_dynamics():
    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.full((4, grid.window_len, 1), 1.0)
    noise = sample_noise_matrix(KEY.child(11), grid, width=1, n_paths=4)
    flows, ensembles = distribution_iterate(
        cfg, xi, mf_drift_linear(coupling=0.0), diffusion_constant(0.5), 3, noise
    )
    assert len(flows) == 4 and len(ensembles) == 3
    assert np.array_equal(flows[1].states, flows[2].states)
    assert np.array_equal(flows[2].states, flows[3].states)


def test_distribution_iteration_collapses_symmetric_ensembles():
    # identical particles, no noise: every iterate keeps them identical
    cfg = _mf_cfg()
    grid = cfg.grid
    n = 5
    xi = np.full((n, grid.window_len, 1), 2.0)
    noise = np.zeros((n, grid.steps, 1))
    flows, ensembles = distribution_iterate(
        cfg, xi, mf_drift_linear(coupling=1.0), diffusion_constant(0.0), 3, noise
    )
    final = ensembles[-1].states
    assert np.all(final == final[0])
    assert np.all(flow_distances(flows[-2], flows[-1]) < 1e-6)


def test_distribution_iteration_contracts_flow_gaps():
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    gen = KEY.child(12).generator()
    n = 32
    xi = np.tile(gen.standard_normal((n, 1, 1)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(12), grid, width=1, n_paths=n)
    flows, _ = distribution_iterate(
        cfg, xi, mf_drift_linear(coupling=0.7), diffusion_constant(0.3), 6, noise
    )
    gaps = [float(np.max(flow_distances(flows[i], flows[i + 1]))) for i in range(1, 6)]
    # strict decay until the exact fixed point is reached, zero afterwards
    for a, b in zip(gaps, gaps[1:]):
        assert b < a or (a == 0.0 and b == 0.0)
    assert gaps[-1] < 1e-6 < gaps[0]


def test_self_consistent_matches_frozen_when_law_unused():
    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.full((3, grid.window_len, 1), -0.5)
    noise = sample_noise_matrix(KEY.child(13), grid, width=1, n_paths=3)
    b = mf_drift_linear(coupling=0.0)
    sigma = diffusion_constant(1.0)
    frozen = solve_ensemble_frozen(cfg, xi, b, sigma, flow_from_initial(grid, xi), noise)
    live, flow = self_consistent_solve(cfg, xi, b, sigma, noise)
    assert np.array_equal(frozen.states, live.states)
    assert isinstance(flow, MeasureFlow)
    assert np.array_equal(flow.states, live.states)


def test_self_consistent_interaction_preserves_the_mean():
    # b = -(z(0) - mean z(0)) sums to zero over particles; without noise
    # the ensemble mean is frozen in time
    class _CenterDrift(Coefficient):
        dim = 1

        def eval_batch(self, t, values, law, grid):
            anchor = np.asarray(law.moment("eval_end"), dtype=float)
            return -(values[:, -1, :] - anchor)

    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.zeros((2, grid.window_len, 1))
    xi[0] += 1.0
    xi[1] -= 3.0
    noise = np.zeros((2, grid.steps, 1))
    ens, _ = self_consistent_solve(cfg, xi, _CenterDrift(), diffusion_constant(0.0), noise)
    means = np.mean(ens.states[:, grid.delay_steps :, 0], axis=0)
    np.testing.assert_allclose(means, -1.0, atol=1e-12)


def test_self_consistent_respects_constraints():
    cfg = SolverConfig(
        grid=TimeGrid(dt=0.01, delay=0.02, horizon=0.2),
        operator=NormalCone(domain=HalfLine(lower=0.0)),
    )
    grid = cfg.grid
    n = 8
    xi = np.zeros((n, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(14), grid, width=1, n_paths=n)
    ens, flow = self_consistent_solve(
        cfg, xi, mf_drift_linear(coupling=0.5), diffusion_constant(1.0), noise
    )
    assert np.all(ens.states >= 0.0)
    assert np.all(flow.states >= 0.0)


def test_iteration_input_validation():
    cfg = _mf_cfg()
    xi = np.zeros((2, cfg.grid.window_len, 1))
    noise = np.zeros((2, cfg.grid.steps, 1))
    with pytest.raises(InvalidArgumentError):
        distribution_iterate(
            cfg, xi, mf_drift_linear(), diffusion_constant(1.0), 0, noise
        )
    other = flow_from_initial(TimeGrid(dt=0.1, delay=0.0, horizon=1.0), np.zeros((2, 1, 1)))
    with pytest.raises(InvalidArgumentError):
        solve_ensemble_frozen(cfg, xi, mf_drift_linear(), diffusion_constant(1.0), other, noise)


def test_flow_ensemble_round_trip():
    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.full((3, grid.window_len, 1), 0.1)
    noise = sample_noise_matrix(KEY.child(15), grid, width=1, n_paths=3)
    ens = solve_ensemble_frozen(
        cfg,
        xi,
        mf_drift_linear(coupling=0.0),
        diffusion_constant(1.0),
        flow_from_initial(grid, xi),
        noise,
    )
    flow = flow_from_ensemble(ens)
    for k in (0, grid.steps // 2, grid.steps):
        np.testing.assert_array_equal(flow.law_at_index(k).values, ens.windows_at(k))


def test_path_coefficients_give_solve_paths_bits_in_the_meanfield_solvers():
    # one protocol: a law-blind coefficient run against any law is the
    # path equation, so every mean-field solver reproduces solve_paths
    cfg = SolverConfig(
        grid=TimeGrid(dt=0.05, delay=0.1, horizon=1.0),
        operator=NormalCone(domain=HalfLine(lower=0.0)),
    )
    grid = cfg.grid
    n = 7
    gen = KEY.child(16).generator()
    xi = np.tile(np.abs(gen.standard_normal((n, 1, 1))), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(16), grid, width=1, n_paths=n)
    f = drift_linear_delay(pull=1.0, push=0.5)
    g = diffusion_constant(0.7)
    ref = solve_paths(cfg, xi, f, g, noise)
    assert np.any(ref.increments != 0.0)

    frozen = solve_ensemble_frozen(cfg, xi, f, g, flow_from_initial(grid, xi), noise)
    _, rounds = distribution_iterate(cfg, xi, f, g, 3, noise)
    live, _ = self_consistent_solve(cfg, xi, f, g, noise)
    for ens in [frozen, live] + rounds:
        assert np.array_equal(ens.states, ref.states)
        assert np.array_equal(ens.increments, ref.increments)


def test_self_consistent_law_is_a_read_only_snapshot_of_the_windows(monkeypatch):
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=1.0)
    grid = cfg.grid
    n = 5
    gen = KEY.child(17).generator()
    xi = np.tile(gen.standard_normal((n, 1, 1)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(17), grid, width=1, n_paths=n)
    inner = mf_drift_linear(coupling=0.5)
    laws = {}

    class _Recorder(Coefficient):
        dim = 1

        def eval_batch(self, t, values, law, grid):
            laws.setdefault(grid.index_of(t), law)
            return inner.eval_batch(t, values, law, grid)

    built = []
    law_class = meanfield.EmpiricalSegmentLaw

    def recording_law(grid, values):
        law = law_class(grid, values)
        built.append((values, law))
        return law

    monkeypatch.setattr(meanfield, "EmpiricalSegmentLaw", recording_law)
    ens, _ = self_consistent_solve(cfg, xi, _Recorder(), diffusion_constant(0.4), noise)
    assert sorted(laws) == list(range(grid.steps))
    for k, law in laws.items():
        assert not law.values.flags.writeable
        assert np.array_equal(law.values, ens.windows_at(k))
    # each step's snapshot is copied once: the law keeps it as it is
    assert len(built) == grid.steps
    for values, law in built:
        assert law.values is values
