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
    ConstantDiffusion,
    EmpiricalSegmentLaw,
    InvalidArgumentError,
    LinearDelayDrift,
    MeanFieldLinearDrift,
    MeanFieldSecondMomentDrift,
    NormalCone,
    HalfLine,
    RngKey,
    SolverConfig,
    StepEvaluationError,
    TEST_STREAM,
    TimeGrid,
    ZeroOperator,
    distribution_iterate,
    flow_distances,
    flow_sup_distance,
    sample_noise_matrix,
    self_consistent_solve,
    solve_ensemble_frozen,
    wasserstein2,
    wasserstein2_exhaustive,
)
from mvsde import meanfield
from mvsde.coefficients import Coefficient
from mvsde.experiments.config import parse_config_text
from mvsde.experiments.runner import run_experiment
from mvsde.segments import _constant_extension
from mvsde.solver import integrate

KEY = RngKey(20260816, (TEST_STREAM, 5))
GRID = TimeGrid(dt=0.1, delay=0.2, horizon=1.0)


def _law(gen, count, dim=1, scale=1.0, grid=GRID):
    return EmpiricalSegmentLaw(grid, gen.standard_normal((count, grid.window_len, dim)) * scale)


# ---------------------------------------------------------------------------
# laws and the functionals the mean-field drifts read from them


def test_law_validation():
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.zeros((0, GRID.window_len, 1)))
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.zeros((2, GRID.window_len - 1, 1)))
    with pytest.raises(InvalidArgumentError):
        EmpiricalSegmentLaw(GRID, np.full((1, GRID.window_len, 1), np.inf))


def test_moment_examples():
    # MeanFieldSecondMomentDrift divides -z(0) by 1 + the mean squared sup
    # norm; MeanFieldLinearDrift pulls z(0) toward the mean of z(-r0)
    window = np.full((1, GRID.window_len, 1), 2.0)
    window2 = np.full((1, GRID.window_len, 2), 2.0)
    second = MeanFieldSecondMomentDrift()
    zeros = EmpiricalSegmentLaw(GRID, np.zeros((3, GRID.window_len, 2)))
    second2 = MeanFieldSecondMomentDrift(2)
    assert np.array_equal(second2.eval_batch(0.0, window2, zeros, GRID), -window2[:, -1])

    a = np.ones((GRID.window_len, 1))
    b = np.full((GRID.window_len, 1), 3.0)
    law = EmpiricalSegmentLaw(GRID, np.stack([a, b]))
    # the mean squared sup norm is (1 + 9) / 2 = 5
    assert second.eval_batch(0.0, window, law, GRID)[0, 0] == pytest.approx(-2.0 / 6.0)

    ends = np.zeros((2, GRID.window_len, 2))
    ends[0, -1] = (1.0, 0.0)
    ends[1, -1] = (0.0, 1.0)
    ends[:, 0] = (0.6, -0.8)
    law2 = EmpiricalSegmentLaw(GRID, ends)
    # the mean at offset -r0 is (0.6, -0.8); the end values are not read
    linear = MeanFieldLinearDrift(coupling=2.0, dim=2)
    np.testing.assert_allclose(linear.eval_batch(0.0, window2, law2, GRID), [[-0.8, -3.6]])
    # every sample has sup norm 1, so the drift is -z(0) / 2
    np.testing.assert_allclose(second2.eval_batch(0.0, window2, law2, GRID), [[-1.0, -1.0]])


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


def test_law_of_a_read_only_flow_is_a_view_of_it():
    # a read-only array is kept as given, strided or not; a writeable
    # one is copied, so later writes to it do not reach the law
    gen = KEY.child(27).generator()
    flow = gen.standard_normal((4, GRID.path_len, 2))
    flow.flags.writeable = False
    law = meanfield._law_at(GRID, flow, 3)
    assert np.shares_memory(law.values, flow)
    np.testing.assert_array_equal(law.values, flow[:, 3 : 3 + GRID.window_len])
    writeable = flow.copy()
    law = meanfield._law_at(GRID, writeable, 3)
    assert not np.shares_memory(law.values, writeable)
    assert not law.values.flags.writeable


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


def test_w2_refuses_overflowing_squared_distances():
    # finite laws whose squared sup distances overflow leave no
    # assignment: an InvalidArgumentError, not scipy's ValueError
    a = EmpiricalSegmentLaw(GRID, np.full((3, GRID.window_len, 1), 1e200))
    b = EmpiricalSegmentLaw(GRID, np.full((3, GRID.window_len, 1), -1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvalidArgumentError, match="squared sup distances") as info:
            wasserstein2(a, b)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("distance", [wasserstein2, wasserstein2_exhaustive])
def test_distance_refuses_unequal_laws_in_either_order(distance):
    gen = KEY.child(26).generator()
    base = _law(gen, 3)
    other = TimeGrid(dt=0.1, delay=0.1, horizon=1.0)
    for bad, match in [
        (_law(gen, 3, dim=2), "dimensions differ"),
        (_law(gen, 2), "sizes differ"),
        (_law(gen, 3, grid=other), "one grid"),
    ]:
        for a, b in [(base, bad), (bad, base)]:
            with pytest.raises(InvalidArgumentError, match=match):
                distance(a, b)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    dim=st.integers(1, 3),
    exponent=st.floats(-12.0, 0.0),
    permute=st.booleans(),
    ties=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_w2_is_symmetric_and_never_above_the_identity_coupling(
    n, dim, exponent, permute, ties, seed
):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, GRID.window_len, dim))
    b = a + gen.standard_normal(a.shape) * 10.0**exponent
    # tied rows: the last segments of each law repeat its first
    ties = min(ties, n - 1)
    a[n - ties :] = a[0]
    b[n - ties :] = b[0]
    if permute:
        b = b[gen.permutation(n)]
    law_a, law_b = EmpiricalSegmentLaw(GRID, a), EmpiricalSegmentLaw(GRID, b)
    value = wasserstein2(law_a, law_b)
    assert value == wasserstein2(law_b, law_a)
    identity = np.diagonal(_reference_sup_sq(law_a, law_b))
    assert value <= math.sqrt(float(np.sum(np.sort(identity))) / n)


def test_w2_takes_the_identity_coupling_when_its_sum_rounds_lower():
    # both couplings cost 0.09 + 0.01 in exact arithmetic, but the swap
    # sums to 0.10000000000000003 in floats and the identity to
    # 0.10000000000000002; whichever the solver picks, W2 is the lower
    grid = TimeGrid(dt=0.1, delay=0.1, horizon=1.0)
    a = EmpiricalSegmentLaw(grid, np.array([[4, 1], [4, 2]])[:, :, None] * 0.1)
    b = EmpiricalSegmentLaw(grid, np.array([[1, 2], [3, 2]])[:, :, None] * 0.1)
    identity = np.diagonal(_reference_sup_sq(a, b))
    expected = math.sqrt(float(np.sum(np.sort(identity))) / 2)
    assert wasserstein2(a, b) == wasserstein2(b, a) == expected


def _cost_matrix(a, b):
    """The kernel's full cost matrix between two laws."""
    return meanfield._sup_sq_matrix(meanfield._time_major(a.values), meanfield._time_major(b.values))


def _flow_identity_costs(grid, a, b):
    """The kernel's squared sup distance of segment i of flow ``a`` to
    segment i of flow ``b`` at every grid time, shape (steps + 1, N), as
    ``flow_sup_distance`` bounds W2 with it."""
    return meanfield._sup_sq(np.swapaxes(a, 0, 1), np.swapaxes(b, 0, 1), grid.window_len)


def _assignment_path_w2(a, b):
    """W2 as the assignment path takes it, on the reference cost matrix:
    the lower of the solver's and the identity coupling's sorted sums."""
    cost = _reference_sup_sq(a, b)
    rows, cols = linear_sum_assignment(cost)
    total = min(np.sum(np.sort(cost[rows, cols])), np.sum(np.sort(np.diagonal(cost))))
    return math.sqrt(float(total) / a.size)


def _certified(a, b):
    """Whether ``wasserstein2`` takes the certified identity coupling."""
    av, bv = meanfield._time_major(a.values), meanfield._time_major(b.values)
    return meanfield._certified_diagonal(av, bv) is not None


def _counting_assignments(monkeypatch):
    """Route meanfield's assignment solver through a counter; returns
    the list that grows by one entry a solve."""
    solved = []
    solve = meanfield.linear_sum_assignment

    def counting(cost):
        solved.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(meanfield, "linear_sum_assignment", counting)
    return solved


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    dim=st.sampled_from([1, 2, 9]),
    exponent=st.floats(-12.0, 0.0),
    permute=st.booleans(),
    ties=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_w2_bitwise_equals_the_assignment_path(n, dim, exponent, permute, ties, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, GRID.window_len, dim))
    b = a + gen.standard_normal(a.shape) * 10.0**exponent
    ties = min(ties, n - 1)
    a[n - ties :] = a[0]
    b[n - ties :] = b[0]
    if permute:
        # every segment moves to the next partner
        b = np.roll(b, 1, axis=0)
    law_a, law_b = EmpiricalSegmentLaw(GRID, a), EmpiricalSegmentLaw(GRID, b)
    value = wasserstein2(law_a, law_b)
    assert value.hex() == _assignment_path_w2(law_a, law_b).hex()
    if exponent <= -3.0:
        # close partners certify the identity, tied rows included; a
        # shifted partner of two distinct segments fails the certificate
        distinct = n - ties >= 2
        assert _certified(law_a, law_b) == (not (permute and distinct))


def test_w2_checks_the_exact_cost_of_every_candidate(monkeypatch):
    # at the last sample the identity pairs each segment with its twin,
    # but the first sample swaps them: pair (0, 1) is a candidate whose
    # exact cost 1 is below its diagonal 100; a certificate trusting the
    # one-offset bound would return the identity's 10, not 1
    grid = TimeGrid(dt=0.1, delay=0.1, horizon=1.0)
    a = EmpiricalSegmentLaw(grid, np.array([[0.0, 0.0], [10.0, 1.0]])[:, :, None])
    b = EmpiricalSegmentLaw(grid, np.array([[10.0, 0.0], [0.0, 1.0]])[:, :, None])
    av, bv = meanfield._time_major(a.values), meanfield._time_major(b.values)
    cost = _reference_sup_sq(a, b)
    assert meanfield._sup_sq(av[-1:, :, None], bv[-1:, None], 1)[0, 0, 1] <= cost[0, 0] == 100.0
    assert cost[0, 1] == 1.0
    assert not _certified(a, b)
    solved = _counting_assignments(monkeypatch)
    assert wasserstein2(a, b) == wasserstein2_exhaustive(a, b) == 1.0
    assert len(solved) == 1


def test_w2_checks_candidates_past_the_first_piece(monkeypatch):
    # six tied rows make 30 candidates that pass, N = 8 at a time; the
    # last two partners are swapped, so the failing pairs come last
    gen = KEY.child(29).generator()
    a = gen.standard_normal((8, GRID.window_len, 1))
    a[:6] = a[0]
    b = a + gen.standard_normal(a.shape) * 1e-6
    b[:6] = b[0]
    b[[6, 7]] = b[[7, 6]]
    law_a, law_b = EmpiricalSegmentLaw(GRID, a), EmpiricalSegmentLaw(GRID, b)
    assert not _certified(law_a, law_b)
    solved = _counting_assignments(monkeypatch)
    assert wasserstein2(law_a, law_b) == wasserstein2_exhaustive(law_a, law_b)
    assert len(solved) == 1


def test_w2_certifies_finite_diagonals_beside_overflowing_pairs(monkeypatch):
    # the off-diagonal squares overflow to inf, the diagonal's do not:
    # the identity coupling is the one finite coupling, and certified
    a = np.ones((2, GRID.window_len, 1)) * np.array([1e154, -1e154])[:, None, None]
    b = a + np.array([1e140, -1e140])[:, None, None]
    law_a, law_b = EmpiricalSegmentLaw(GRID, a), EmpiricalSegmentLaw(GRID, b)
    solved = _counting_assignments(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        identity = np.diagonal(_reference_sup_sq(law_a, law_b))
        assert np.all(np.isfinite(identity))
        assert np.isinf(_reference_sup_sq(law_a, law_b)[0, 1])
        value = wasserstein2(law_a, law_b)
    assert value == math.sqrt(float(np.sum(np.sort(identity))) / 2)
    assert solved == []


def test_w2_falls_back_to_the_assignment_past_the_candidate_cap(monkeypatch):
    # identical constant laws: every off-diagonal pair is a candidate
    law = EmpiricalSegmentLaw(GRID, np.ones((5, GRID.window_len, 1)))
    solved = _counting_assignments(monkeypatch)
    assert wasserstein2(law, law) == 0.0
    assert solved == []
    monkeypatch.setattr(meanfield, "COST_CHUNK_ELEMENTS", 20 * GRID.window_len - 1)
    assert not _certified(law, law)
    assert wasserstein2(law, law) == 0.0
    assert solved == [(5, 5)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    dim=st.integers(1, 2),
    exponent=st.floats(-12.0, 0.0),
    permute=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_w2_identity_of_indiscernibles(n, dim, exponent, permute, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, GRID.window_len, dim))
    perm = gen.permutation(n) if permute else np.arange(n)
    moved = not np.array_equal(perm, np.arange(n))
    law_a = EmpiricalSegmentLaw(GRID, a)
    same = EmpiricalSegmentLaw(GRID, a[perm])
    # the same samples in another order: the assignment path finds 0
    assert _certified(law_a, same) == (not moved)
    assert wasserstein2(law_a, same) == 0.0
    # every segment moved off its samples: a different multiset
    b = a + gen.standard_normal(a.shape) * 10.0**exponent
    other = EmpiricalSegmentLaw(GRID, b[perm])
    if exponent <= -3.0:
        assert _certified(law_a, other) == (not moved)
    assert wasserstein2(law_a, other) > 0.0


# relative slack of the computed triangle inequality: each W2 is the
# square root of a sum of at most 10 rounded sup-norm costs
TRIANGLE_SLACK = 1e-12


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    dim=st.integers(1, 2),
    exponents=st.tuples(st.floats(-12.0, 0.0), st.floats(-12.0, 0.0)),
    permute=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_w2_triangle_inequality(n, dim, exponents, permute, seed):
    gen = np.random.default_rng(seed)
    laws = [gen.standard_normal((n, GRID.window_len, dim))]
    for exponent, shift in zip(exponents, permute):
        nxt = laws[-1] + gen.standard_normal(laws[-1].shape) * 10.0**exponent
        laws.append(np.roll(nxt, 1, axis=0) if shift else nxt)
    a, b, c = (EmpiricalSegmentLaw(GRID, v) for v in laws)
    if n >= 2 and max(exponents) <= -3.0:
        # a certified step and a shifted one take the two paths
        assert _certified(a, b) == (not permute[0])
        assert _certified(b, c) == (not permute[1])
    dab, dbc, dac = wasserstein2(a, b), wasserstein2(b, c), wasserstein2(a, c)
    assert dac <= (dab + dbc) * (1.0 + TRIANGLE_SLACK)


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_certificate_costs_match_the_cost_matrix_bitwise(dim):
    gen = KEY.child(28).generator()
    for count in (1, 7, 64):
        a = _law(gen, count, dim=dim)
        b = _law(gen, count, dim=dim)
        cost = _reference_sup_sq(a, b)
        av, bv = meanfield._time_major(a.values), meanfield._time_major(b.values)
        window = GRID.window_len
        assert np.array_equal(meanfield._sup_sq(av, bv, window)[0], np.diagonal(cost))
        rows, cols = gen.integers(0, count, size=(2, 3 * count))
        pairs = meanfield._sup_sq(av[:, rows], bv[:, cols], window)[0]
        assert np.array_equal(pairs, cost[rows, cols])
        # the last sample's matrix bounds every cost from below, exactly
        assert np.all(meanfield._sup_sq(av[-1:, :, None], bv[-1:, None], 1)[0] <= cost)


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
@pytest.mark.parametrize("count", [1, 7, 64])
def test_cost_matrix_bitwise_matches_reference(dim, count):
    gen = KEY.child(16).generator()
    for scale in (1.0, 1e-160):  # 1e-160 squared underflows
        a = _law(gen, count, dim=dim, scale=scale)
        b = _law(gen, count, dim=dim, scale=scale)
        assert np.array_equal(_cost_matrix(a, b), _reference_sup_sq(a, b))


def test_cost_matrix_bitwise_matches_reference_across_chunks(monkeypatch):
    gen = KEY.child(17).generator()
    a = _law(gen, 13, dim=2)
    b = _law(gen, 13, dim=2)
    expected = _reference_sup_sq(a, b)
    kernel = meanfield._sup_sq
    chunks = []

    def counting(av, bv, window):
        chunks.append(av.shape[1])
        return kernel(av, bv, window)

    monkeypatch.setattr(meanfield, "_sup_sq", counting)
    # a chunk of k rows spans a (window, k, N, d) difference tensor, k
    # times as many elements as the law, and at most the budget over the
    # window: one row, then five rows (the last chunk short) per chunk
    five_rows = 5 * GRID.window_len * b.values.size
    for budget, sizes in ((1, [1] * 13), (five_rows, [5, 5, 3])):
        monkeypatch.setattr(meanfield, "COST_CHUNK_ELEMENTS", budget)
        chunks.clear()
        assert np.array_equal(_cost_matrix(a, b), expected)
        assert chunks == sizes


# ---------------------------------------------------------------------------
# flows


def test_flow_rejects_non_finite_states():
    cfg = _mf_cfg()
    xi = np.zeros((2, GRID.window_len, 1))
    noise = np.zeros((2, GRID.steps, 1))
    states = np.zeros((2, GRID.path_len, 1))
    for bad in (np.nan, np.inf):
        states[1, 3, 0] = bad
        for fn in (flow_distances, flow_sup_distance):
            with pytest.raises(InvalidArgumentError, match="finite"):
                fn(GRID, np.zeros_like(states), states)
        with pytest.raises(InvalidArgumentError, match="finite"):
            solve_ensemble_frozen(
                cfg, xi, MeanFieldLinearDrift(), ConstantDiffusion(1.0), states, noise
            )


def test_initial_flow_extends_constantly():
    gen = KEY.child(8).generator()
    xi = gen.standard_normal((4, GRID.window_len, 1))
    flow = _constant_extension(GRID, xi)
    first = meanfield._law_at(GRID, flow, 0)
    np.testing.assert_array_equal(first.values, xi)
    late = meanfield._law_at(GRID, flow, GRID.steps)
    assert np.all(late.values == xi[:, -1:, :])


def test_flow_distances_shape_and_zero_on_self():
    gen = KEY.child(9).generator()
    flow = _constant_extension(GRID, gen.standard_normal((3, GRID.window_len, 1)))
    d = flow_distances(GRID, flow, flow)
    assert d.shape == (GRID.steps + 1,)
    assert np.all(d == 0.0)
    # past the last step the windows run short, and the law refuses them
    with pytest.raises(InvalidArgumentError):
        meanfield._law_at(GRID, flow, GRID.steps + 1)


def test_flow_distances_bitwise_match_reference():
    gen = KEY.child(18).generator()
    a = gen.standard_normal((5, GRID.path_len, 2))
    b = gen.standard_normal((5, GRID.path_len, 2))
    expected = [
        _reference_w2(meanfield._law_at(GRID, a, k), meanfield._law_at(GRID, b, k))
        for k in range(GRID.steps + 1)
    ]
    assert np.array_equal(flow_distances(GRID, a, b), expected)


# ---------------------------------------------------------------------------
# the sup over time of the flow distance


def _iterated_flows(operator, n, dim=1):
    """The grid and the flows of the initial extension and four
    distribution-iteration rounds: particle i is the same particle in
    every flow, as in the distribution_iteration experiment."""
    cfg = SolverConfig(grid=TimeGrid(dt=0.05, delay=0.1, horizon=0.5), operator=operator)
    grid = cfg.grid
    gen = KEY.child(19).generator()
    xi = np.tile(0.5 + gen.random((n, 1, dim)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(19), grid, width=dim, n_paths=n)
    rounds = distribution_iterate(
        cfg,
        xi,
        MeanFieldLinearDrift(coupling=0.7, dim=dim),
        ConstantDiffusion(0.3 * np.eye(dim)),
        4,
        noise,
    )
    return grid, [_constant_extension(grid, xi)] + [ens.states for ens in rounds]


def _exact_sup(grid, a, b):
    return float(np.max(flow_distances(grid, a, b)))


OPERATORS = {
    "zero": (ZeroOperator(dim=1), 1),
    "halfline": (NormalCone(domain=HalfLine(lower=0.5)), 1),
    "box": (NormalCone(domain=Box(lower=(0.4, 0.45), upper=(1.55, 1.6))), 2),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("n", [1, 2, 24, 64])
def test_flow_sup_distance_bitwise_equals_max_of_flow_distances(kind, n):
    operator, dim = OPERATORS[kind]
    grid, flows = _iterated_flows(operator, n, dim)
    perm = KEY.child(20).generator().permutation(n)
    for a, b in zip(flows, flows[1:]):
        assert flow_sup_distance(grid, a, b).hex() == _exact_sup(grid, a, b).hex()
        # a permuted partner makes the identity bound loose
        shuffled = b[perm]
        assert flow_sup_distance(grid, a, shuffled).hex() == _exact_sup(grid, a, shuffled).hex()


def _counting_w2(monkeypatch):
    """Route meanfield's module-global wasserstein2 through a counter;
    returns the list that grows by one entry a solve."""
    solved = []

    def counting(a, b):
        solved.append(a)
        return wasserstein2(a, b)

    monkeypatch.setattr(meanfield, "wasserstein2", counting)
    return solved


def test_flow_sup_distance_solves_few_times_on_iterated_flows(monkeypatch):
    grid, flows = _iterated_flows(ZeroOperator(dim=1), 64)
    solved = _counting_w2(monkeypatch)
    for a, b in zip(flows[1:], flows[2:]):
        solved.clear()
        flow_sup_distance(grid, a, b)
        assert 1 <= len(solved) < grid.steps + 1


def test_flow_sup_distance_solves_once_when_the_bound_ties_over_a_window(monkeypatch):
    # b is a shifted by one dyadic bump, the same for every particle,
    # peaking inside the horizon; the differences are exact, so every
    # window holding the peak has the bound 1.0, bit for bit, and the
    # identity coupling attains it
    grid = TimeGrid(dt=0.1, delay=0.5, horizon=1.0)
    gen = KEY.child(27).generator()
    a = gen.integers(-64, 64, size=(16, grid.path_len, 1)) / 16.0
    bump = np.zeros(grid.path_len)
    peak = grid.window_len + 2
    bump[peak - 2 : peak + 3] = [0.25, 0.5, 1.0, 0.5, 0.25]
    b = a + bump[None, :, None]
    tied = _flow_identity_costs(grid, a, b).max(axis=1) == 1.0
    assert np.count_nonzero(tied) == grid.window_len
    solved = _counting_w2(monkeypatch)
    value = flow_sup_distance(grid, a, b)
    assert len(solved) == 1
    assert value.hex() == _exact_sup(grid, a, b).hex() == (1.0).hex()


@pytest.mark.parametrize("seed", [20260816, 26701])
def test_distribution_iteration_makes_one_w2_call_per_flow_gap(monkeypatch, seed):
    # at the defaults the top identity bound of each gap is settled by
    # its one solve; 26701 is a seed whose gaps tie over whole windows
    cfg = parse_config_text(
        f"[experiment]\nname = distribution_iteration\n[run]\nseed = {seed}\n"
    )
    solved = _counting_w2(monkeypatch)
    records = run_experiment(cfg)
    assert sum(r.metric.startswith("flow_gap_") for r in records) == cfg.iterations - 1
    assert len(solved) == cfg.iterations - 1


@pytest.mark.parametrize("seed", [20260816, 26701])
def test_distribution_iteration_certifies_every_flow_gap(monkeypatch, seed):
    # the iterated flows share noise and initial windows, so each gap's
    # identity coupling is certified and no assignment is solved
    cfg = parse_config_text(
        f"[experiment]\nname = distribution_iteration\n[run]\nseed = {seed}\n"
    )
    solved = _counting_assignments(monkeypatch)
    records = run_experiment(cfg)
    assert sum(r.metric.startswith("flow_gap_") for r in records) == cfg.iterations - 1
    assert solved == []


def test_flow_sup_distance_zero_on_identical_flows():
    gen = KEY.child(21).generator()
    flow = gen.standard_normal((6, GRID.path_len, 2))
    assert flow_sup_distance(GRID, flow, flow) == 0.0
    assert flow_sup_distance(GRID, flow, flow.copy()) == 0.0


def test_flow_sup_distance_input_validation():
    gen = KEY.child(22).generator()
    a = gen.standard_normal((4, GRID.path_len, 1))
    fewer = gen.standard_normal((3, GRID.path_len, 1))
    other_grid = TimeGrid(dt=0.1, delay=0.2, horizon=0.8)
    shorter = gen.standard_normal((4, other_grid.path_len, 1))
    wider = gen.standard_normal((4, GRID.path_len, 2))
    for b in (fewer, shorter, wider):
        for fn in (flow_distances, flow_sup_distance):
            with pytest.raises(InvalidArgumentError):
                fn(GRID, a, b)
    # both flows must have the grid's path length, not just equal ones
    with pytest.raises(InvalidArgumentError):
        flow_sup_distance(GRID, shorter, shorter)
    with pytest.raises(InvalidArgumentError):
        flow_sup_distance(GRID, a[0], a[0])
    # an empty flow is refused up front, not as 0/0 or as a failed step
    empty = a[:0]
    for fn in (flow_distances, flow_sup_distance):
        with pytest.raises(InvalidArgumentError, match="flow needs .* N >= 1"):
            fn(GRID, empty, empty)
    xi = np.zeros((2, GRID.window_len, 1))
    noise = np.zeros((2, GRID.steps, 1))
    with pytest.raises(InvalidArgumentError, match="flow needs .* N >= 1"):
        solve_ensemble_frozen(
            _mf_cfg(), xi, MeanFieldLinearDrift(), ConstantDiffusion(1.0), empty, noise
        )


@pytest.mark.parametrize("dim", [1, 2, 9])
def test_identity_bound_is_the_cost_diagonal_and_bounds_w2(dim):
    gen = KEY.child(23).generator()
    for n in (1, 7, 30):
        a = gen.standard_normal((n, GRID.path_len, dim))
        b = gen.standard_normal((n, GRID.path_len, dim))
        diag = _flow_identity_costs(GRID, a, b)
        assert diag.shape == (GRID.steps + 1, n)
        for k in range(GRID.steps + 1):
            law_a, law_b = meanfield._law_at(GRID, a, k), meanfield._law_at(GRID, b, k)
            cost = _cost_matrix(law_a, law_b)
            assert np.array_equal(diag[k], np.diag(cost))
            assert np.array_equal(cost, _reference_sup_sq(law_a, law_b))
            bound = math.sqrt(float(np.sum(np.sort(diag[k]))) / n)
            assert wasserstein2(law_a, law_b) <= bound


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
    assert flow_sup_distance(GRID, base, other).hex() == _exact_sup(GRID, base, other).hex()


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
    b = MeanFieldLinearDrift(coupling=0.0)  # reads no law effectively
    sigma = ConstantDiffusion(0.8)
    flow = _constant_extension(grid, xi)
    ens = solve_ensemble_frozen(cfg, xi, b, sigma, flow, noise)

    class _PullToZero(Coefficient):
        def eval_batch(self, t, values, law, grid):
            return -values[:, -1, :]

    f_plain = _PullToZero()
    plain = integrate(cfg, xi, f_plain, ConstantDiffusion(0.8), noise)
    assert np.array_equal(ens.states, plain.states)


def test_frozen_point_mass_flow_gives_exponential_decay():
    cfg = _mf_cfg(dt=0.001, delay=0.002, horizon=0.5)
    grid = cfg.grid
    xi = np.ones((1, grid.window_len, 1))
    noise = np.zeros((1, grid.steps, 1))
    zero_flow = np.zeros((1, grid.path_len, 1))
    ens = solve_ensemble_frozen(
        cfg, xi, MeanFieldLinearDrift(coupling=1.0), ConstantDiffusion(0.0), zero_flow, noise
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
    ensembles = distribution_iterate(
        cfg, xi, MeanFieldLinearDrift(coupling=0.0), ConstantDiffusion(0.5), 3, noise
    )
    assert len(ensembles) == 3
    assert np.array_equal(ensembles[0].states, ensembles[1].states)
    assert np.array_equal(ensembles[1].states, ensembles[2].states)


def test_distribution_iteration_collapses_symmetric_ensembles():
    # identical particles, no noise: every iterate keeps them identical
    cfg = _mf_cfg()
    grid = cfg.grid
    n = 5
    xi = np.full((n, grid.window_len, 1), 2.0)
    noise = np.zeros((n, grid.steps, 1))
    ensembles = distribution_iterate(
        cfg, xi, MeanFieldLinearDrift(coupling=1.0), ConstantDiffusion(0.0), 3, noise
    )
    final = ensembles[-1].states
    assert np.all(final == final[0])
    assert np.all(flow_distances(grid, ensembles[-2].states, final) < 1e-6)


def test_distribution_iteration_contracts_flow_gaps():
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    gen = KEY.child(12).generator()
    n = 32
    xi = np.tile(gen.standard_normal((n, 1, 1)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(12), grid, width=1, n_paths=n)
    rounds = distribution_iterate(
        cfg, xi, MeanFieldLinearDrift(coupling=0.7), ConstantDiffusion(0.3), 6, noise
    )
    gaps = [
        float(np.max(flow_distances(grid, a.states, b.states)))
        for a, b in zip(rounds, rounds[1:])
    ]
    # strict decay until the exact fixed point is reached, zero afterwards
    for a, b in zip(gaps, gaps[1:]):
        assert b < a or (a == 0.0 and b == 0.0)
    assert gaps[-1] < 1e-6 < gaps[0]


@pytest.mark.parametrize("lower", [None, 0.8], ids=["zero", "halfline"])
def test_distribution_iteration_fixed_point_is_the_self_consistent_system(lower):
    # with one noise and one set of initial windows, the law iteration
    # converges to the particle system whose coefficients read the live
    # law: the flow gap to it falls strictly, then vanishes to the bit
    operator = ZeroOperator(dim=1) if lower is None else NormalCone(domain=HalfLine(lower=lower))
    cfg = SolverConfig(grid=TimeGrid(dt=0.02, delay=0.1, horizon=1.0), operator=operator)
    grid = cfg.grid
    n = 32
    levels = 1.0 + 0.5 * KEY.child(24).generator().standard_normal((n, 1, 1))
    if lower is not None:
        levels = np.maximum(levels, lower)
    xi = np.tile(levels, (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(24), grid, width=1, n_paths=n)
    b, sigma = MeanFieldLinearDrift(), ConstantDiffusion(0.3)
    live = self_consistent_solve(cfg, xi, b, sigma, noise)
    rounds = distribution_iterate(cfg, xi, b, sigma, 12, noise)
    gaps = [flow_sup_distance(grid, ens.states, live.states) for ens in rounds]
    exact = gaps.index(0.0)
    assert exact <= 8  # round 9 or earlier
    assert all(b < a for a, b in zip(gaps[:exact], gaps[1 : exact + 1]))
    assert all(gap == 0.0 for gap in gaps[exact:])
    assert np.array_equal(rounds[-1].states, live.states)
    # under the half-line the reflection is active
    assert lower is None or np.any(live.variation_totals() > 0.0)


def test_self_consistent_matches_frozen_when_law_unused():
    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.full((3, grid.window_len, 1), -0.5)
    noise = sample_noise_matrix(KEY.child(13), grid, width=1, n_paths=3)
    b = MeanFieldLinearDrift(coupling=0.0)
    sigma = ConstantDiffusion(1.0)
    frozen = solve_ensemble_frozen(cfg, xi, b, sigma, _constant_extension(grid, xi), noise)
    live = self_consistent_solve(cfg, xi, b, sigma, noise)
    assert np.array_equal(frozen.states, live.states)


def test_self_consistent_interaction_preserves_the_mean():
    # b = -(z(0) - mean z(0)) sums to zero over particles; without noise
    # the ensemble mean is frozen in time
    class _CenterDrift(Coefficient):
        dim = 1

        def eval_batch(self, t, values, law, grid):
            anchor = np.mean(law.values[:, -1, :], axis=0)
            return -(values[:, -1, :] - anchor)

    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.zeros((2, grid.window_len, 1))
    xi[0] += 1.0
    xi[1] -= 3.0
    noise = np.zeros((2, grid.steps, 1))
    ens = self_consistent_solve(cfg, xi, _CenterDrift(), ConstantDiffusion(0.0), noise)
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
    ens = self_consistent_solve(
        cfg, xi, MeanFieldLinearDrift(coupling=0.5), ConstantDiffusion(1.0), noise
    )
    assert np.all(ens.states >= 0.0)


def test_iteration_input_validation():
    cfg = _mf_cfg()
    xi = np.zeros((2, cfg.grid.window_len, 1))
    noise = np.zeros((2, cfg.grid.steps, 1))
    with pytest.raises(InvalidArgumentError):
        distribution_iterate(
            cfg, xi, MeanFieldLinearDrift(), ConstantDiffusion(1.0), 0, noise
        )
    with pytest.raises(InvalidArgumentError):
        distribution_iterate(
            cfg, xi[:, 1:], MeanFieldLinearDrift(), ConstantDiffusion(1.0), 1, noise
        )
    # round 0's flow is checked as a frozen solve checks its flow
    for bad, match in ((xi[:0], "N >= 1"), (np.full_like(xi, np.nan), "finite")):
        with pytest.raises(InvalidArgumentError, match=match):
            distribution_iterate(
                cfg, bad, MeanFieldLinearDrift(), ConstantDiffusion(1.0), 3, noise
            )
    other = np.zeros((2, TimeGrid(dt=0.1, delay=0.0, horizon=1.0).path_len, 1))
    with pytest.raises(InvalidArgumentError):
        solve_ensemble_frozen(
            cfg, xi, MeanFieldLinearDrift(), ConstantDiffusion(1.0), other, noise
        )


# ---------------------------------------------------------------------------
# lockstep stacks of law-iteration rounds


class _LawDiffusion(Coefficient):
    """A diagonal diffusion that reads the law and the window: 0.3 over
    one plus the law's mean square at z(0), scaled per particle by
    1 + tanh(z(0)) / 10."""

    def __init__(self, dim):
        self.dim = dim
        self.width = dim

    def eval_batch(self, t, values, law, grid):
        ends = law.values[:, -1, :]
        spread = np.add.reduce(ends * ends, axis=0) / law.size
        scale = 0.3 / (1.0 + spread) * (1.0 + 0.1 * np.tanh(values[:, -1, :]))
        return scale[:, :, None] * np.eye(self.dim)


def _lockstep_case(n, dim, reflected, seed=30):
    """A solver config, initial windows and noise of n particles in
    dimension ``dim``: unconstrained, or reflected at 0.8 in every
    coordinate, with the initial levels above 0.8."""
    if not reflected:
        operator = ZeroOperator(dim=dim)
    elif dim == 1:
        operator = NormalCone(domain=HalfLine(lower=0.8))
    else:
        operator = NormalCone(domain=Box(lower=(0.8,) * dim, upper=(math.inf,) * dim))
    cfg = SolverConfig(grid=TimeGrid(dt=0.05, delay=0.1, horizon=0.5), operator=operator)
    grid = cfg.grid
    gen = KEY.child(seed, dim).generator()
    levels = 0.8 + 0.4 * np.abs(gen.standard_normal((n, 1, dim)))
    xi = np.tile(levels, (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(seed, dim), grid, width=dim, n_paths=n)
    return cfg, xi, noise


def _chained_rounds(cfg, xi, b, sigma, n_iters, noise):
    """The law iteration as one ``solve_ensemble_frozen`` call a round."""
    flow = _constant_extension(cfg.grid, xi)
    rounds = []
    for _ in range(n_iters):
        rounds.append(solve_ensemble_frozen(cfg, xi, b, sigma, flow, noise))
        flow = rounds[-1].states
    return rounds


# STACK_ROWS // n is 3 at n = 341 and 2 at n = 512, so 1, 3 and 7
# rounds span one round, one full stack, and full and ragged stacks
@pytest.mark.parametrize("n", [341, 512])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("reflected", [False, True], ids=["zero", "halfline"])
@pytest.mark.parametrize("law_diffusion", [False, True], ids=["constant", "law"])
def test_distribution_iterate_bitwise_equals_chained_frozen_solves(
    n, dim, reflected, law_diffusion
):
    assert meanfield.STACK_ROWS // n == {341: 3, 512: 2}[n]
    cfg, xi, noise = _lockstep_case(n, dim, reflected)
    b = MeanFieldLinearDrift(coupling=0.7, dim=dim)
    sigma = _LawDiffusion(dim) if law_diffusion else ConstantDiffusion(0.3 * np.eye(dim))
    chain = _chained_rounds(cfg, xi, b, sigma, 7, noise)
    for n_iters in (1, 3, 7):
        rounds = distribution_iterate(cfg, xi, b, sigma, n_iters, noise)
        assert len(rounds) == n_iters
        for got, want in zip(rounds, chain):
            assert got.states.shape == want.states.shape
            assert got.states.tobytes() == want.states.tobytes()
            assert got.variation_totals().tobytes() == want.variation_totals().tobytes()
            assert not got.states.flags.writeable
    # the rounds differ, and under the reflection its variation is not zero
    assert not np.array_equal(chain[0].states, chain[1].states)
    assert (np.max(chain[-1].variation_totals()) > 0.0) == reflected


@pytest.mark.parametrize(
    "n, n_iters, sizes",
    [(256, 9, [3, 3, 3]), (341, 7, [3, 2, 2]), (512, 3, [2, 1]), (1024, 2, [1, 1])],
)
def test_distribution_iterate_calls_integrate_once_per_stack(monkeypatch, n, n_iters, sizes):
    cfg, xi, noise = _lockstep_case(n, 1, False)
    rows = []

    def counting(cfg, xi_values, *args, **kwargs):
        rows.append(xi_values.shape[0])
        return integrate(cfg, xi_values, *args, **kwargs)

    monkeypatch.setattr(meanfield, "integrate", counting)
    b, sigma = MeanFieldLinearDrift(), ConstantDiffusion(0.3)
    assert len(distribution_iterate(cfg, xi, b, sigma, n_iters, noise)) == n_iters
    # the fewest stacks of at most STACK_ROWS rows, as even as possible
    assert rows == [size * n for size in sizes]
    assert max(rows) <= meanfield.STACK_ROWS


class _LawRecorder(Coefficient):
    """A drift of -z(0) that keeps a copy of every law it sees and
    whether that law's samples were writeable."""

    def __init__(self):
        self.seen = []

    def eval_batch(self, t, values, law, grid):
        self.seen.append((law.values.copy(), law.values.flags.writeable))
        return -values[:, -1, :]


def test_stacked_round_reads_the_previous_rounds_windows_read_only():
    cfg, xi, noise = _lockstep_case(5, 1, True)
    grid = cfg.grid
    w = grid.window_len
    recorder = _LawRecorder()
    rounds = distribution_iterate(cfg, xi, recorder, ConstantDiffusion(0.3), 3, noise)
    # one stack of three rounds: at step k the rounds are evaluated in order
    assert len(recorder.seen) == 3 * grid.steps
    flows = [_constant_extension(grid, xi)] + [ens.states for ens in rounds]
    for k in range(grid.steps):
        for r in range(3):
            values, writeable = recorder.seen[3 * k + r]
            assert np.array_equal(values, flows[r][:, k : k + w])
            assert not writeable


class _Trip(Coefficient):
    """A drift of 1 for every particle but ``particle``, whose drift is
    inf once the law's largest sample exceeds ``threshold``."""

    def __init__(self, threshold, particle):
        self.threshold = threshold
        self.particle = particle

    def eval_batch(self, t, values, law, grid):
        out = np.ones((values.shape[0], 1))
        if np.max(law.values) > self.threshold:
            out[self.particle] = np.inf
        return out


def test_stacked_error_names_the_round_and_its_particle():
    # no noise from 0 with drift 1: round 1's law is the constant
    # extension of 0, and round 2's is round 1's windows, whose largest
    # sample passes 0.25 at step 6 (t = 0.3), where round 2's particle
    # 1 goes non-finite; round 3 reads round 2's windows, equal so far,
    # and fails at the same step on a later row
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    xi = np.zeros((3, grid.window_len, 1))
    noise = np.zeros((3, grid.steps, 1))
    b, sigma = _Trip(0.25, 1), ConstantDiffusion(0.0)
    with pytest.raises(StepEvaluationError) as info:
        distribution_iterate(cfg, xi, b, sigma, 3, noise)
    assert (info.value.step, info.value.particle) == (6, 1)
    assert str(info.value) == (
        "round 2: the state of particle 1 leaves the floats at step 6: non-finite drift"
    )
    # the round-by-round chain fails at the same step and particle
    with pytest.raises(StepEvaluationError) as chained:
        _chained_rounds(cfg, xi, b, sigma, 3, noise)
    assert (chained.value.step, chained.value.particle) == (6, 1)


class _Raise(Coefficient):
    """A drift of 1 that raises once the law's largest sample exceeds
    ``threshold``."""

    def __init__(self, threshold):
        self.threshold = threshold

    def eval_batch(self, t, values, law, grid):
        if np.max(law.values) > self.threshold:
            raise ValueError("the law is too large")
        return np.ones((values.shape[0], 1))


@pytest.mark.parametrize("stack_rows", [None, 3, 6])
def test_stacked_coefficient_failure_names_its_round(monkeypatch, stack_rows):
    # as in the test above, round 2's law passes 0.25 at step 6 (t = 0.3),
    # first among the rounds, whether the three rounds share one stack,
    # take one stack each (STACK_ROWS 3) or stack as two and one (6)
    if stack_rows is not None:
        monkeypatch.setattr(meanfield, "STACK_ROWS", stack_rows)
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    xi = np.zeros((3, grid.window_len, 1))
    noise = np.zeros((3, grid.steps, 1))
    with pytest.raises(StepEvaluationError) as info:
        distribution_iterate(cfg, xi, _Raise(0.25), ConstantDiffusion(0.0), 3, noise)
    assert (info.value.step, info.value.particle) == (6, None)
    assert str(info.value) == (
        f"round 2: coefficient evaluation failed at step 6 (t = {6 * grid.dt})"
    )
    assert isinstance(info.value.__cause__, ValueError)


def test_frozen_coefficient_failure_names_no_round():
    # a frozen solve is one round: its error reads as integrate's, with
    # the coefficient's own exception as the cause
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=0.5)
    grid = cfg.grid
    xi = np.zeros((3, grid.window_len, 1))
    flow = np.ones((3, grid.path_len, 1))
    noise = np.zeros((3, grid.steps, 1))
    with pytest.raises(StepEvaluationError) as info:
        solve_ensemble_frozen(cfg, xi, _Raise(0.25), ConstantDiffusion(0.0), flow, noise)
    assert str(info.value) == "coefficient evaluation failed at step 0 (t = 0.0)"
    assert isinstance(info.value.__cause__, ValueError)


def test_flow_ensemble_round_trip():
    cfg = _mf_cfg()
    grid = cfg.grid
    xi = np.full((3, grid.window_len, 1), 0.1)
    noise = sample_noise_matrix(KEY.child(15), grid, width=1, n_paths=3)
    ens = solve_ensemble_frozen(
        cfg,
        xi,
        MeanFieldLinearDrift(coupling=0.0),
        ConstantDiffusion(1.0),
        _constant_extension(grid, xi),
        noise,
    )
    # an ensemble's law flow is its states
    for k in (0, grid.steps // 2, grid.steps):
        law = meanfield._law_at(grid, ens.states, k)
        np.testing.assert_array_equal(law.values, ens.states[:, k : k + grid.window_len])


def test_path_coefficients_give_solve_paths_bits_in_the_meanfield_solvers():
    # one protocol: a law-blind coefficient run against any law is the
    # path equation, so every mean-field solver reproduces the path solve
    cfg = SolverConfig(
        grid=TimeGrid(dt=0.05, delay=0.1, horizon=1.0),
        operator=NormalCone(domain=HalfLine(lower=0.0)),
    )
    grid = cfg.grid
    n = 7
    gen = KEY.child(16).generator()
    xi = np.tile(np.abs(gen.standard_normal((n, 1, 1))), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(16), grid, width=1, n_paths=n)
    f = LinearDelayDrift(pull=1.0, push=0.5)
    g = ConstantDiffusion(0.7)
    ref = integrate(cfg, xi, f, g, noise)
    assert np.any(ref.variation_totals() > 0.0)

    frozen = solve_ensemble_frozen(cfg, xi, f, g, _constant_extension(grid, xi), noise)
    rounds = distribution_iterate(cfg, xi, f, g, 3, noise)
    live = self_consistent_solve(cfg, xi, f, g, noise)
    for ens in [frozen, live] + rounds:
        assert np.array_equal(ens.states, ref.states)
        assert np.array_equal(
            ens.variation_totals().view(np.int64), ref.variation_totals().view(np.int64)
        )


def test_self_consistent_law_is_a_read_only_snapshot_of_the_windows(monkeypatch):
    cfg = _mf_cfg(dt=0.05, delay=0.1, horizon=1.0)
    grid = cfg.grid
    n = 5
    gen = KEY.child(17).generator()
    xi = np.tile(gen.standard_normal((n, 1, 1)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(17), grid, width=1, n_paths=n)
    inner = MeanFieldLinearDrift(coupling=0.5)
    laws = {}

    class _Recorder(Coefficient):
        dim = 1

        def eval_batch(self, t, values, law, grid):
            laws.setdefault(round(t / grid.dt), law)
            return inner.eval_batch(t, values, law, grid)

    built = []
    law_class = meanfield.EmpiricalSegmentLaw

    def recording_law(grid, values):
        law = law_class(grid, values)
        built.append((values, law))
        return law

    monkeypatch.setattr(meanfield, "EmpiricalSegmentLaw", recording_law)
    ens = self_consistent_solve(cfg, xi, _Recorder(), ConstantDiffusion(0.4), noise)
    assert sorted(laws) == list(range(grid.steps))
    for k, law in laws.items():
        assert not law.values.flags.writeable
        assert np.array_equal(law.values, ens.states[:, k : k + grid.window_len])
    # each step's snapshot is copied once: the law keeps it as it is
    assert len(built) == grid.steps
    for values, law in built:
        assert law.values is values


def test_one_law_per_step_serves_both_coefficients():
    # a drift and a diffusion that both read the law get one law object
    # per step, the same for both, in the frozen and in the live solve
    cfg = _mf_cfg()
    grid = cfg.grid
    n = 4
    xi = np.tile(KEY.child(25).generator().standard_normal((n, 1, 1)), (1, grid.window_len, 1))
    noise = sample_noise_matrix(KEY.child(25), grid, width=1, n_paths=n)
    seen = {}

    class _LawDrift(Coefficient):
        dim = 1

        def eval_batch(self, t, values, law, grid):
            seen.setdefault(round(t / grid.dt), []).append(law)
            return np.mean(law.values[:, -1, :], axis=0) - values[:, -1, :]

    class _LawDiffusion(Coefficient):
        dim, width = 1, 1

        def eval_batch(self, t, values, law, grid):
            seen.setdefault(round(t / grid.dt), []).append(law)
            level = 0.2 + 0.1 * np.mean(np.abs(law.values[:, -1, 0]))
            return np.full((values.shape[0], 1, 1), level)

    flow = _constant_extension(grid, xi)
    for solve in (
        lambda: solve_ensemble_frozen(cfg, xi, _LawDrift(), _LawDiffusion(), flow, noise),
        lambda: self_consistent_solve(cfg, xi, _LawDrift(), _LawDiffusion(), noise),
    ):
        seen.clear()
        solve()
        assert sorted(seen) == list(range(grid.steps))
        for laws in seen.values():
            assert len(laws) == 2 and laws[0] is laws[1]
        # every law seen is still held by ``seen``, so distinct objects
        # have distinct ids: one law per step, none shared across steps
        assert len({id(laws[0]) for laws in seen.values()}) == grid.steps


@pytest.mark.parametrize("read_only", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_frozen_solve_laws_are_views_of_a_read_only_flow(dim, read_only):
    # the frozen solve checks its flow once and hands every step a view
    # of it: the states equal, bit for bit, those of integrate fed laws
    # built by the checking public constructor, and a writeable caller
    # flow is copied once, so no law aliases it
    cfg = SolverConfig(
        grid=TimeGrid(dt=0.1, delay=0.2, horizon=1.0), operator=ZeroOperator(dim=dim)
    )
    grid = cfg.grid
    w = grid.window_len
    n = 6
    gen = KEY.child(28).generator()
    xi = gen.standard_normal((n, w, dim))
    flow = gen.standard_normal((n, grid.path_len, dim))
    flow.flags.writeable = not read_only
    noise = sample_noise_matrix(KEY.child(28), grid, width=dim, n_paths=n)
    linear = MeanFieldLinearDrift(coupling=0.7, dim=dim)
    moment = MeanFieldSecondMomentDrift(dim=dim)
    laws = {}

    class _Recorder(Coefficient):
        def __init__(self):
            self.dim = dim

        def eval_batch(self, t, values, law, grid):
            laws.setdefault(round(t / grid.dt), law)
            return linear.eval_batch(t, values, law, grid) + moment.eval_batch(
                t, values, law, grid
            )

    sigma = ConstantDiffusion(0.5 * np.eye(dim))
    ref = integrate(
        cfg, xi, _Recorder(), sigma, noise,
        inputs=lambda k, live: (live, EmpiricalSegmentLaw(grid, flow[:, k : k + w])),
    )
    laws.clear()
    ens = solve_ensemble_frozen(cfg, xi, _Recorder(), sigma, flow, noise)
    assert np.array_equal(ens.states, ref.states)
    assert sorted(laws) == list(range(grid.steps))
    for k, law in laws.items():
        assert not law.values.flags.writeable
        assert np.array_equal(law.values, flow[:, k : k + w])
        assert np.shares_memory(law.values, flow) == read_only
    # one array behind every step's law: a writeable flow is copied once
    base = laws[0].values.base
    assert base is not None and all(law.values.base is base for law in laws.values())
