"""Empirical laws of path segments, the Wasserstein-2 distance between
them, and particle-ensemble solvers for mean-field dynamics.

A law is its samples: the law of N segments is their uniform empirical
measure, an ``EmpiricalSegmentLaw`` holding the read-only (N, window,
d) array ``values`` that coefficients read.  A law flow is the
(N, path_len, d) path array it comes from, as
``EnsembleTrajectories.states`` holds it; its law at step k is that of
the windows ending at time k*dt.

Between two laws of equal size, squared Wasserstein-2 with sup-norm
cost is an assignment problem on the N x N matrix of pairwise squared
sup distances; it is solved exactly (scipy's linear sum assignment) at
every size.
The cost matrix is built in time-major order: for each window offset
the squared pointwise distances are summed over coordinates, a running
maximum over offsets is kept, and one sqrt-then-square at the end
reproduces the rounding of the square of the maximal norm.

The sup over time of the distance between two flows,
``flow_sup_distance``, solves an assignment only at the times that can
still hold the maximum.  The identity coupling (segment i with segment
i) bounds every W2 from above and needs only the diagonal of each cost
matrix, so one pass over the two path arrays bounds all times at once;
the times are then solved in order of descending bound until the next
bound cannot beat the running maximum.  The result equals the maximum
of ``flow_distances`` bit for bit.

Two coupling modes are provided for the dynamics: ``distribution_iterate``
freezes the whole law flow of the previous round while segments stay
live (the fixed-point construction), and ``self_consistent_solve``
reads the live empirical law of the ensemble at every step (the
classical particle approximation).
"""
from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .coefficients import Coefficient
from .errors import InvalidArgumentError
from .segments import TimeGrid, _constant_extension
from .solver import EnsembleTrajectories, SolverConfig, integrate

__all__ = [
    "EmpiricalSegmentLaw",
    "wasserstein2",
    "wasserstein2_exhaustive",
    "flow_distances",
    "flow_sup_distance",
    "solve_ensemble_frozen",
    "distribution_iterate",
    "self_consistent_solve",
]

# elements of the difference tensor one cost-matrix row chunk may span
COST_CHUNK_ELEMENTS = 2**22

# relative margin on the identity-coupling bound in flow_sup_distance;
# it covers the rounding of the sorted sums, which is below N * 2**-53
_BOUND_SLACK = 1e-9


class EmpiricalSegmentLaw:
    """Uniform empirical measure of N segments on a common grid, held as
    their read-only samples ``values`` (N, window, d).

    A read-only array is kept as given, so a law of a read-only flow is
    a view of that flow; a writeable one is copied.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[1] != grid.window_len or v.shape[0] < 1:
            raise InvalidArgumentError(
                f"law needs samples of shape (N, {grid.window_len}, d) with N >= 1"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("law samples must be finite")
        if v.flags.writeable:
            v = v.copy()
            v.flags.writeable = False
        self.grid = grid
        self.values = v

    @classmethod
    def _of_checked(cls, grid: TimeGrid, values: np.ndarray) -> EmpiricalSegmentLaw:
        """The law of ``values`` held as given, with no check: a read-only
        float window of a flow that ``_check_flows`` has passed."""
        law = cls.__new__(cls)
        law.grid = grid
        law.values = values
        return law

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def _pairwise_sup_sq(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> np.ndarray:
    """Matrix of squared sup-norm distances, computed in row chunks.

    The loop runs over window offsets: each offset fills one reused
    (rows, N, d) difference buffer and folds its squared norms into a
    running maximum, so no (rows, N, W, d) tensor is ever built.
    """
    n = a.size
    cost = np.empty((n, n))
    chunk = max(1, int(COST_CHUNK_ELEMENTS // max(1, b.values.size)))
    av = np.swapaxes(a.values, 0, 1)
    bv = np.swapaxes(b.values, 0, 1)
    rows = min(chunk, n)
    diff = np.empty((rows,) + bv.shape[1:])
    sums = np.empty((rows, n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        buf = diff[: stop - start]
        sq = sums[: stop - start]
        out = cost[start:stop]
        for s in range(av.shape[0]):
            np.subtract(av[s, start:stop, None, :], bv[s, None, :, :], out=buf)
            np.multiply(buf, buf, out=buf)
            # the same reduction over d as np.linalg.norm, so bit-identical
            if s == 0:
                np.add.reduce(buf, axis=2, out=out)
            else:
                np.add.reduce(buf, axis=2, out=sq)
                np.maximum(out, sq, out=out)
        # sqrt is correctly rounded and monotone, so sqrt(max) equals
        # max(sqrt); taking it once and squaring keeps the old bits
        np.sqrt(out, out=out)
        np.multiply(out, out, out=out)
    return cost


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's ``linear_sum_assignment``, imported on the first call, so
    that runs which never solve an assignment never load the sizeable
    ``scipy.optimize``."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _check_pair(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> None:
    """Refuse two laws that differ in size, grid or dimension."""
    if a.size != b.size:
        raise InvalidArgumentError(f"law sizes differ: {a.size} vs {b.size}")
    if a.grid != b.grid:
        raise InvalidArgumentError("laws must share one grid")
    if a.dim != b.dim:
        raise InvalidArgumentError(f"law dimensions differ: {a.dim} vs {b.dim}")


def wasserstein2(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Wasserstein-2 distance with squared sup-norm cost.

    Exact at every size: the assignment is solved by scipy's linear
    sum assignment.  The selected costs are summed in sorted order,
    which makes the result exactly symmetric in its arguments.
    """
    _check_pair(a, b)
    cost = _pairwise_sup_sq(a, b)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(np.sum(np.sort(cost[rows, cols]))) / a.size)


def wasserstein2_exhaustive(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Brute-force minimum over all permutations; only for tiny laws."""
    _check_pair(a, b)
    if a.size > 8:
        raise InvalidArgumentError("exhaustive search is limited to N <= 8")
    cost = _pairwise_sup_sq(a, b)
    n = a.size
    best = math.inf
    rows = np.arange(n)
    for perm in permutations(range(n)):
        total = float(np.sum(np.sort(cost[rows, perm])))
        if total < best:
            best = total
    return math.sqrt(best / n)


def _check_flows(grid: TimeGrid, *flows: np.ndarray) -> None:
    """Refuse flows that are not finite (N, path_len, d) arrays of one
    shape."""
    for s in flows:
        if s.ndim != 3 or s.shape[1] != grid.path_len:
            raise InvalidArgumentError(
                f"flow needs states of shape (N, {grid.path_len}, d)"
            )
        if not np.all(np.isfinite(s)):
            raise InvalidArgumentError("flow states must be finite")
    if len({s.shape for s in flows}) > 1:
        raise InvalidArgumentError("flows must share one shape")


def _law_at(grid: TimeGrid, states: np.ndarray, k: int) -> EmpiricalSegmentLaw:
    """The law of a flow at step k: the empirical measure of its windows
    ending at time k*dt."""
    return EmpiricalSegmentLaw(grid, states[:, k : k + grid.window_len, :])


def flow_distances(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wasserstein-2 between two flows at every grid time of [0, T]."""
    _check_flows(grid, a, b)
    return np.array(
        [wasserstein2(_law_at(grid, a, k), _law_at(grid, b, k)) for k in range(grid.steps + 1)]
    )


def _identity_sup_sq(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared sup distance of segment i of ``a`` to segment i of ``b``
    at every grid time, shape (steps + 1, N).

    Row k is the diagonal of ``_pairwise_sup_sq`` for the laws at step
    k, bit for bit: the same subtract, multiply and reduction over d on
    a time-major array, the same running maximum over window offsets
    and the same sqrt-then-square.
    """
    diff = np.empty((grid.path_len,) + a.shape[::2])
    np.subtract(np.swapaxes(a, 0, 1), np.swapaxes(b, 0, 1), out=diff)
    np.multiply(diff, diff, out=diff)
    sq = np.add.reduce(diff, axis=2)
    del diff
    times = grid.steps + 1
    out = sq[:times].copy()
    for s in range(1, grid.window_len):
        np.maximum(out, sq[s : s + times], out=out)
    np.sqrt(out, out=out)
    np.multiply(out, out, out=out)
    return out


def flow_sup_distance(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Largest Wasserstein-2 distance between two flows over the grid
    times of [0, T]; equal to ``max(flow_distances(grid, a, b))`` bit
    for bit.

    Any coupling bounds W2 from above, and the identity coupling
    (segment i with segment i) costs only the diagonal of each cost
    matrix.  ``_identity_sup_sq`` gives those diagonals at every time
    with the bits ``wasserstein2`` would see, and summing each row in
    sorted order gives ``bound_k``, the value ``wasserstein2`` returns
    for the identity assignment at time k.  The optimal assignment
    costs no more than the identity, so ``W2_k <= bound_k`` up to the
    rounding of the two sorted sums of nonnegative terms, a relative
    error below N * 2**-53 that ``_BOUND_SLACK`` covers.

    The times are solved exactly, with ``wasserstein2``, in order of
    descending bound.  Once ``bound_k * (1 + _BOUND_SLACK)`` is at most
    the running maximum, no time from k on can exceed it, so the search
    stops and the running maximum is the sup.  When particle i is the
    same particle in both flows (one noise, one set of initial windows)
    the bound is tight and few times are solved; when it is loose the
    search degrades to solving every time.
    """
    _check_flows(grid, a, b)
    diag = _identity_sup_sq(grid, a, b)
    diag.sort(axis=1)
    bound = np.sqrt(np.add.reduce(diag, axis=1) / a.shape[0])
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] * (1.0 + _BOUND_SLACK) <= best:
            break
        best = max(best, wasserstein2(_law_at(grid, a, k), _law_at(grid, b, k)))
    return best


def solve_ensemble_frozen(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    flow: np.ndarray,
    noise: np.ndarray,
) -> EnsembleTrajectories:
    """Advance N particles against a frozen law flow.

    At step k the coefficients see each particle's live segment but the
    law of ``flow`` (shape (M, path_len, d)) at that step; particles are
    coupled only through the frozen flow.

    The flow is checked once and held read-only (a writeable or
    non-float one is copied once, a read-only float one is used as
    given), so each step's law is a view of it with no further check.
    """
    grid = cfg.grid
    _check_flows(grid, flow)
    if flow.flags.writeable or flow.dtype != float:
        flow = flow.astype(float)
        flow.flags.writeable = False
    w = grid.window_len
    law_of = EmpiricalSegmentLaw._of_checked
    return integrate(
        cfg, xi_values, b, sigma, noise,
        inputs=lambda k, live: (live, law_of(grid, flow[:, k : k + w])),
    )


def distribution_iterate(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    n_iters: int,
    noise: np.ndarray,
) -> list[EnsembleTrajectories]:
    """Iterate the law flow to its fixed point.

    Round n solves the ensemble against the flow ``states`` of round
    n-1; round 0's flow extends the initial windows constantly.  All
    rounds reuse the same noise and initial windows.  Returns the
    ensembles of rounds 1..n_iters.
    """
    if n_iters < 1:
        raise InvalidArgumentError("n_iters must be >= 1")
    flow = _constant_extension(cfg.grid, np.asarray(xi_values, dtype=float))
    flow.flags.writeable = False
    ensembles = []
    for _ in range(n_iters):
        ensembles.append(solve_ensemble_frozen(cfg, xi_values, b, sigma, flow, noise))
        flow = ensembles[-1].states
    return ensembles


def self_consistent_solve(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    noise: np.ndarray,
) -> EnsembleTrajectories:
    """Single pass where the law argument is the live empirical law.

    At step k every particle's coefficients see the empirical law of
    the current windows (a read-only snapshot taken before the step).
    """
    grid = cfg.grid

    def live_law(k, live):
        # a read-only snapshot, which the law keeps as it is; the live
        # windows are a read-only view of integrate's scratch buffer,
        # which the law would otherwise alias
        snapshot = live.copy()
        snapshot.flags.writeable = False
        return live, EmpiricalSegmentLaw(grid, snapshot)

    return integrate(cfg, xi_values, b, sigma, noise, inputs=live_law)
