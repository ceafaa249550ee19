"""Empirical laws of path segments, the Wasserstein-2 distance between
them, and particle-ensemble solvers for mean-field dynamics.

The law of N segments is their uniform empirical measure.  Between two
such laws of equal size, squared Wasserstein-2 with sup-norm cost is an
assignment problem on the N x N matrix of pairwise squared sup
distances; it is solved exactly (scipy's linear sum assignment) at
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
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .coefficients import Coefficient
from .errors import InvalidArgumentError
from .segments import TimeGrid, _constant_extension
from .solver import EnsembleTrajectories, SolverConfig, _coefficient_evals, integrate

__all__ = [
    "EmpiricalSegmentLaw",
    "MeasureFlow",
    "wasserstein2",
    "wasserstein2_exhaustive",
    "flow_from_initial",
    "flow_from_ensemble",
    "flow_distances",
    "flow_sup_distance",
    "solve_ensemble_frozen",
    "distribution_iterate",
    "self_consistent_solve",
]

# elements of the difference tensor one cost-matrix row chunk may span
COST_CHUNK_ELEMENTS = 2**22

MOMENT_NAMES = ("sup_sq", "eval_end", "eval_delay")

# relative margin on the identity-coupling bound in flow_sup_distance;
# it covers the rounding of the sorted sums, which is below N * 2**-53
_BOUND_SLACK = 1e-9


class EmpiricalSegmentLaw:
    """Uniform empirical measure of N segments on a common grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[1] != grid.window_len or v.shape[0] < 1:
            raise InvalidArgumentError(
                f"law needs samples of shape (N, {grid.window_len}, d) with N >= 1"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("law samples must be finite")
        if v.flags.writeable or not v.flags.c_contiguous:
            v = np.ascontiguousarray(v).copy() if v.flags.writeable else np.ascontiguousarray(v)
            v.flags.writeable = False
        self.grid = grid
        self.values = v

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def moment(self, functional: str):
        """Integrate a named functional: mean of squared sup-norms
        (``sup_sq``), mean value at offset 0 (``eval_end``), or mean
        value at offset -r0 (``eval_delay``)."""
        if functional == "sup_sq":
            sups = np.max(np.linalg.norm(self.values, axis=2), axis=1)
            return float(np.mean(sups * sups))
        if functional == "eval_end":
            return np.mean(self.values[:, -1, :], axis=0)
        if functional == "eval_delay":
            return np.mean(self.values[:, 0, :], axis=0)
        raise InvalidArgumentError(
            f"unknown moment functional '{functional}'; expected one of {MOMENT_NAMES}"
        )


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


def wasserstein2(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Wasserstein-2 distance with squared sup-norm cost.

    Exact at every size: the assignment is solved by scipy's linear
    sum assignment.  The selected costs are summed in sorted order,
    which makes the result exactly symmetric in its arguments.
    """
    if a.size != b.size:
        raise InvalidArgumentError(f"law sizes differ: {a.size} vs {b.size}")
    if a.grid != b.grid:
        raise InvalidArgumentError("laws must share one grid")
    cost = _pairwise_sup_sq(a, b)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(np.sum(np.sort(cost[rows, cols]))) / a.size)


def wasserstein2_exhaustive(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Brute-force minimum over all permutations; only for tiny laws."""
    if a.size != b.size:
        raise InvalidArgumentError(f"law sizes differ: {a.size} vs {b.size}")
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


class MeasureFlow:
    """A law at every grid time of [0, T], backed by one path array.

    ``states`` has shape (N, path_len, d); the law at step k is the
    empirical measure of the windows ending at time k*dt.
    """

    __slots__ = ("grid", "states")

    def __init__(self, grid: TimeGrid, states: np.ndarray) -> None:
        s = np.asarray(states, dtype=float)
        if s.ndim != 3 or s.shape[1] != grid.path_len:
            raise InvalidArgumentError(
                f"flow needs states of shape (N, {grid.path_len}, d)"
            )
        if not np.all(np.isfinite(s)):
            raise InvalidArgumentError("flow states must be finite")
        if s.flags.writeable:
            s = s.copy()
            s.flags.writeable = False
        self.states = s
        self.grid = grid

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def law_at_index(self, k: int) -> EmpiricalSegmentLaw:
        if not (0 <= k <= self.grid.steps):
            raise InvalidArgumentError(f"step index {k} outside [0, steps]")
        return EmpiricalSegmentLaw(
            self.grid, self.states[:, k : k + self.grid.window_len, :]
        )


def flow_from_initial(grid: TimeGrid, xi_values: np.ndarray) -> MeasureFlow:
    """Flow of the constant extensions of the initial windows."""
    xi_values = np.asarray(xi_values, dtype=float)
    if xi_values.ndim != 3 or xi_values.shape[1] != grid.window_len:
        raise InvalidArgumentError(
            f"initial windows need shape (N, {grid.window_len}, d)"
        )
    return MeasureFlow(grid, _constant_extension(grid, xi_values))


def flow_from_ensemble(ens: EnsembleTrajectories) -> MeasureFlow:
    return MeasureFlow(ens.grid, ens.states)


def flow_distances(a: MeasureFlow, b: MeasureFlow) -> np.ndarray:
    """Wasserstein-2 between two flows at every grid time of [0, T]."""
    if a.grid != b.grid:
        raise InvalidArgumentError("flows must share one grid")
    return np.array(
        [
            wasserstein2(a.law_at_index(k), b.law_at_index(k))
            for k in range(a.grid.steps + 1)
        ]
    )


def _identity_sup_sq(a: MeasureFlow, b: MeasureFlow) -> np.ndarray:
    """Squared sup distance of segment i of ``a`` to segment i of ``b``
    at every grid time, shape (steps + 1, N).

    Row k is the diagonal of ``_pairwise_sup_sq`` for the laws at step
    k, bit for bit: the same subtract, multiply and reduction over d on
    a time-major array, the same running maximum over window offsets
    and the same sqrt-then-square.
    """
    grid = a.grid
    diff = np.empty((grid.path_len,) + a.states.shape[::2])
    np.subtract(np.swapaxes(a.states, 0, 1), np.swapaxes(b.states, 0, 1), out=diff)
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


def flow_sup_distance(a: MeasureFlow, b: MeasureFlow) -> float:
    """Largest Wasserstein-2 distance between two flows over the grid
    times of [0, T]; equal to ``max(flow_distances(a, b))`` bit for bit.

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
    if a.grid != b.grid:
        raise InvalidArgumentError("flows must share one grid")
    if a.size != b.size:
        raise InvalidArgumentError(f"flow sizes differ: {a.size} vs {b.size}")
    if a.states.shape != b.states.shape:
        raise InvalidArgumentError("flows must share one state dimension")
    diag = _identity_sup_sq(a, b)
    diag.sort(axis=1)
    bound = np.sqrt(np.add.reduce(diag, axis=1) / a.size)
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] * (1.0 + _BOUND_SLACK) <= best:
            break
        best = max(best, wasserstein2(a.law_at_index(k), b.law_at_index(k)))
    return best


def solve_ensemble_frozen(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    flow: MeasureFlow,
    noise: np.ndarray,
) -> EnsembleTrajectories:
    """Advance N particles against a frozen law flow.

    At step k the coefficients see each particle's live segment but the
    law taken from ``flow`` at that step; particles are coupled only
    through the frozen flow.
    """
    if flow.grid != cfg.grid:
        raise InvalidArgumentError("flow and config must share one grid")
    laws = {}

    def law_of_step(k, window):
        law = laws.get(k)
        if law is None:
            law = flow.law_at_index(k)
            laws[k] = law
        return law

    de, ge, constant = _coefficient_evals(b, sigma, cfg.grid, law_of_step)
    return integrate(cfg, xi_values, de, ge, noise, constant=constant)


def distribution_iterate(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    n_iters: int,
    noise: np.ndarray,
) -> tuple[list[MeasureFlow], list[EnsembleTrajectories]]:
    """Iterate the law flow to its fixed point.

    Round n solves the ensemble against the flow produced by round
    n-1; round 0's flow extends the initial windows constantly.  All
    rounds reuse the same noise and initial windows.  Returns the flows
    (n_iters + 1 of them, the initial flow first) and the ensembles of
    each round.
    """
    if n_iters < 1:
        raise InvalidArgumentError("n_iters must be >= 1")
    flows = [flow_from_initial(cfg.grid, xi_values)]
    ensembles = []
    for _ in range(n_iters):
        ens = solve_ensemble_frozen(cfg, xi_values, b, sigma, flows[-1], noise)
        ensembles.append(ens)
        flows.append(flow_from_ensemble(ens))
    return flows, ensembles


def self_consistent_solve(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    noise: np.ndarray,
) -> tuple[EnsembleTrajectories, MeasureFlow]:
    """Single pass where the law argument is the live empirical law.

    At step k every particle's coefficients see the empirical law of
    the current windows (a read-only snapshot taken before the step).
    """
    grid = cfg.grid
    cache: dict[str, object] = {"k": None, "law": None}

    def law_of_step(k, window):
        if cache["k"] != k:
            # a read-only contiguous snapshot, which the law keeps as is
            snapshot = window.copy()
            snapshot.flags.writeable = False
            cache["k"] = k
            cache["law"] = EmpiricalSegmentLaw(grid, snapshot)
        return cache["law"]

    de, ge, constant = _coefficient_evals(b, sigma, grid, law_of_step)
    ens = integrate(cfg, xi_values, de, ge, noise, constant=constant)
    return ens, flow_from_ensemble(ens)
