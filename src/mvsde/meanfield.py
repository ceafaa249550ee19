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
sup distances, and it is solved exactly at every size.  It is first
tried cheaply: when the matrix's diagonal is the minimum of each row,
the identity coupling (segment i with segment i) is optimal, and that
is checked from the diagonal, one lower-bound matrix at the window's
last sample, and the exact costs of the few pairs the bound leaves, so
neither the full matrix nor an assignment is needed.  Only when that
certificate fails is the full matrix built and scipy's linear sum
assignment solved, ``scipy.optimize`` being imported then.
Every squared sup cost, whether the full matrix, its diagonal, the
lower bound or a pair, comes from one kernel, ``_sup_sq``, on
time-major (window, ..., d) arrays: the squared pointwise distances are
summed over coordinates, the maximum over offsets is taken, and one
sqrt-then-square reproduces the rounding of the square of the maximal
norm, so every caller sees the same bits.

The identity coupling is one candidate of every W2: ``wasserstein2``
returns its sorted cost sum when certified, and otherwise the lower of
it and the assignment's, so W2 never exceeds the identity bound,
exactly in floats, and both paths give the same bits.  The sup over
time of the distance between two flows, ``flow_sup_distance``, uses
that bound to compute W2 only at the times that can still raise the
maximum.  The bound needs only the diagonal of each cost matrix, so
one kernel call over the two whole path arrays, its window sliding
along the path, bounds all times at once; the times are then solved
in order of descending bound until the next bound is at most the
running maximum.  A time whose bound ties the maximum is not solved.
The result equals the maximum of ``flow_distances`` bit for bit.

Two coupling modes are provided for the dynamics: ``distribution_iterate``
freezes the whole law flow of the previous round while segments stay
live (the fixed-point construction), and ``self_consistent_solve``
reads the live empirical law of the ensemble at every step (the
classical particle approximation).  Round n's law at step k is round
n-1's window ending at step k, which exists before any round takes
step k, so ``distribution_iterate`` advances its rounds in lockstep,
stacked by rows in one ``integrate`` call; a stacked round's law is
then a read-only view of the previous round's live windows, valid only
during the step, as the live windows are.
"""
from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .coefficients import Coefficient
from .errors import InvalidArgumentError, StepEvaluationError
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

# elements the identity certificate's candidate pairs (pairs x window x
# d) may span in all; a cost-matrix row chunk, whose (window, rows, N,
# d) differences the cost kernel holds at once, spans at most this
# many over the window
COST_CHUNK_ELEMENTS = 2**22
# rows of one lockstep stack of distribution_iterate's rounds, which
# bound integrate's block scratch: at distribution_iteration's defaults
# stacks of 3 rounds (768 rows) lift law_iteration's peak resident
# memory about 2 % over one round a call, and one stack of all 9 rounds
# (2304 rows) lifted it a further 2.9 MB, to about 9 %
STACK_ROWS = 1024

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


def _time_major(values: np.ndarray) -> np.ndarray:
    """A contiguous (window, N, d) copy of (N, window, d) samples."""
    return np.ascontiguousarray(np.swapaxes(values, 0, 1))


def _sup_sq(av: np.ndarray, bv: np.ndarray, window: int) -> np.ndarray:
    """Squared sup-norm distance between two time-major (L, ..., d)
    arrays that broadcast against each other, over every run of
    ``window`` consecutive samples: shape (L - window + 1, ...).

    The one statement of the W2 cost's rounding: the differences are
    squared and added over d by the reduction ``np.linalg.norm`` uses,
    the maximum is taken over the window's offsets, and its sqrt is
    squared.  sqrt is correctly rounded and monotone, so sqrt(max)
    equals max(sqrt), and this reproduces the square of the maximal
    norm bit for bit.
    """
    # C order, so the reduction over d runs along a contiguous axis
    diff = np.empty(np.broadcast_shapes(av.shape, bv.shape))
    np.subtract(av, bv, out=diff)
    np.multiply(diff, diff, out=diff)
    # a reduction over a length-1 axis costs several times a view
    sq = diff[..., 0] if diff.shape[-1] == 1 else np.add.reduce(diff, axis=-1)
    n = sq.shape[0] - window + 1
    if window == 1:
        out = sq
    elif n == 1:
        out = np.maximum.reduce(sq, axis=0, keepdims=True)
    else:
        out = np.maximum(sq[:n], sq[1 : n + 1])
        for s in range(2, window):
            np.maximum(out, sq[s : s + n], out=out)
    np.sqrt(out, out=out)
    np.multiply(out, out, out=out)
    return out


def _sup_sq_matrix(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Matrix of squared sup-norm distances between the segments of two
    time-major (window, N, d) arrays, in row chunks whose (window, rows,
    N, d) difference tensor spans at most ``COST_CHUNK_ELEMENTS /
    window`` elements."""
    window, n = av.shape[:2]
    chunk = max(1, COST_CHUNK_ELEMENTS // (window * bv.size))
    cost = np.empty((n, n))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        cost[rows] = _sup_sq(av[:, rows, None], bv[:, None], window)[0]
    return cost


def _certified_diagonal(av: np.ndarray, bv: np.ndarray) -> np.ndarray | None:
    """The diagonal of the cost matrix of two time-major laws when it is
    the minimum of its row, else None.

    A row-minimum diagonal certifies the identity coupling: each term of
    any coupling is at least its row's diagonal entry, order statistics
    and round-to-nearest addition are monotone, so every coupling's
    sorted cost sum is at least the diagonal's, exactly in floats.

    The full matrix is not built.  The one-offset matrix at the window's
    last sample, from the cost kernel itself, bounds every entry from
    below exactly (its squared norms are among those the cost
    maximises); only the off-diagonal pairs whose bound is at most their
    row's diagonal are costed exactly, N at a time, stopping at the first
    that beats its diagonal.  A non-finite diagonal, or more such pairs
    than ``COST_CHUNK_ELEMENTS`` allows to gather, gives None.
    """
    window = av.shape[0]
    diag = _sup_sq(av, bv, window)[0]
    if not np.all(np.isfinite(diag)):
        return None
    bound = _sup_sq(av[-1:, :, None], bv[-1:, None], 1)[0]
    np.fill_diagonal(bound, np.inf)
    # flat indices: a 2-D nonzero costs ten times as much here
    rows, cols = np.divmod(np.flatnonzero(bound <= diag[:, None]), bound.shape[1])
    if rows.size * window * av.shape[2] > COST_CHUNK_ELEMENTS:
        return None
    # N pairs at a time: laws that fail mostly fail in the first piece
    for start in range(0, rows.size, diag.size):
        r, c = rows[start : start + diag.size], cols[start : start + diag.size]
        if not np.all(_sup_sq(av[:, r], bv[:, c], window)[0] >= diag[r]):
            return None
    return diag


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


def _sorted_sum(costs: np.ndarray) -> np.ndarray:
    """Sum of the costs along the last axis, taken in sorted order, so
    that the result does not depend on the order of the coupled pairs."""
    return np.add.reduce(np.sort(costs, axis=-1), axis=-1)


def wasserstein2(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Wasserstein-2 distance with squared sup-norm cost.

    Exact at every size.  When the cost matrix's diagonal is the minimum
    of each row, the identity coupling (segment i with segment i) is
    optimal, and its sorted cost sum is returned with no assignment
    solved and no full cost matrix built (``_certified_diagonal``).
    Otherwise the assignment is solved by scipy's linear sum assignment,
    ``scipy.optimize`` being imported then, and the lower of its sorted
    cost sum and the identity coupling's is returned.  Either way the
    value is that lower sum, bit for bit: the optimum up to the rounding
    of the sums, never above the identity coupling's value, exactly.
    Sums in sorted order make the result exactly symmetric in its
    arguments.  Finite laws whose squared sup distances overflow on the
    diagonal take the assignment path; if no finite coupling is left
    they are refused.
    """
    _check_pair(a, b)
    av, bv = _time_major(a.values), _time_major(b.values)
    diag = _certified_diagonal(av, bv)
    if diag is not None:
        return math.sqrt(float(_sorted_sum(diag)) / a.size)
    cost = _sup_sq_matrix(av, bv)
    try:
        rows, cols = linear_sum_assignment(cost)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"the squared sup distances between two laws overflowed: {exc}"
        ) from exc
    total = min(_sorted_sum(cost[rows, cols]), _sorted_sum(np.diagonal(cost)))
    return math.sqrt(float(total) / a.size)


def wasserstein2_exhaustive(a: EmpiricalSegmentLaw, b: EmpiricalSegmentLaw) -> float:
    """Brute-force minimum over all permutations; only for tiny laws."""
    _check_pair(a, b)
    if a.size > 8:
        raise InvalidArgumentError("exhaustive search is limited to N <= 8")
    cost = _sup_sq_matrix(_time_major(a.values), _time_major(b.values))
    n = a.size
    best = math.inf
    rows = np.arange(n)
    for perm in permutations(range(n)):
        total = float(_sorted_sum(cost[rows, perm]))
        if total < best:
            best = total
    return math.sqrt(best / n)


def _check_flows(grid: TimeGrid, *flows: np.ndarray) -> None:
    """Refuse flows that are not finite (N, path_len, d) arrays of one
    shape with N >= 1."""
    for s in flows:
        if s.ndim != 3 or s.shape[1] != grid.path_len or s.shape[0] < 1:
            raise InvalidArgumentError(
                f"flow needs states of shape (N, {grid.path_len}, d) with N >= 1"
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


def flow_sup_distance(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Largest Wasserstein-2 distance between two flows over the grid
    times of [0, T]; equal to ``max(flow_distances(grid, a, b))`` bit
    for bit.

    The identity coupling (segment i with segment i) costs only the
    diagonal of each cost matrix.  The cost kernel, its window sliding
    along the two whole paths, gives those diagonals at every time with
    the bits ``wasserstein2`` would see, and summing each row in sorted
    order gives ``bound_k``, the identity candidate's value that
    ``wasserstein2`` compares at time k.  It returns the lower
    candidate, so ``W2_k <= bound_k`` holds exactly in floats.

    The times are solved exactly, with ``wasserstein2``, in order of
    descending bound.  Once ``bound_k`` is at most the running maximum,
    no time from k on can exceed it, so the search stops and the
    running maximum is the sup.  A time whose bound equals the maximum
    is not solved: when the sup of a flow gap falls inside the horizon,
    every window holding it has the same bound, and one solve settles
    them all.  When particle i is the same particle in both flows (one
    noise, one set of initial windows) the bound is tight and few times
    are solved; when it is loose the search degrades to solving every
    time.
    """
    _check_flows(grid, a, b)
    diag = _sup_sq(np.swapaxes(a, 0, 1), np.swapaxes(b, 0, 1), grid.window_len)
    bound = np.sqrt(_sorted_sum(diag) / a.shape[0])
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= best:
            break
        best = max(best, wasserstein2(_law_at(grid, a, k), _law_at(grid, b, k)))
    return best


class _Rounds(Coefficient):
    """A coefficient on the rows of several rounds stacked in order, as
    many rows a round, whose law is a list of one law per round: the
    wrapped coefficient is evaluated once per round, on that round's
    rows and law, and the results are stacked in the same order;
    ``failed`` is the round (from 0) on which it raised, if it did."""

    def __init__(self, base: Coefficient) -> None:
        self._base = base
        self.dim = base.dim
        self.width = base.width
        self.constant = base.constant
        self.failed = None

    def eval_batch(self, t, values, law, grid):
        n = values.shape[0] // len(law)
        outs = []
        for r, round_law in enumerate(law):
            try:
                outs.append(self._base.eval_batch(t, values[r * n : (r + 1) * n], round_law, grid))
            except Exception:
                self.failed = r
                raise
        return np.concatenate(outs)


def _frozen_rounds(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    b: Coefficient,
    sigma: Coefficient,
    flow: np.ndarray,
    rounds: int,
    noise: np.ndarray,
    first: int | None = None,
) -> list[EnsembleTrajectories]:
    """Solve ``rounds`` successive rounds of the law iteration against
    the checked, read-only float ``flow`` in one ``integrate`` call.

    The rounds advance in lockstep, one row block of N particles each,
    on ``rounds`` copies of the initial windows and one noise read in
    place for every block.  At step k round 1 reads the law of
    ``flow[:, k : k + w]`` and round r > 1 the law of round r - 1's live
    windows, which are its ``states[:, k : k + w]``: every row sees what
    it sees when the rounds are solved one after another, so each
    round's states and variation are theirs bit for bit.  Returns one
    ensemble per round, views of the stacked solve's arrays.
    Given ``first``, the number of the stack's first round, an error
    names its round: the round whose coefficient raised, or the round
    of the state that left the floats (see _in_round).
    """
    grid = cfg.grid
    w = grid.window_len
    xi_values = np.asarray(xi_values, dtype=float)
    if rounds > 1:
        xi_values = np.concatenate([xi_values] * rounds)
    law_of = EmpiricalSegmentLaw._of_checked

    def inputs(k, live):
        n = live.shape[0] // rounds
        laws = [law_of(grid, flow[:, k : k + w])]
        laws += [law_of(grid, live[r * n : (r + 1) * n]) for r in range(rounds - 1)]
        return live, laws

    n = xi_values.shape[0] // rounds
    b, sigma = _Rounds(b), _Rounds(sigma)
    try:
        stacked = integrate(cfg, xi_values, b, sigma, [noise] * rounds, inputs=inputs)
    except StepEvaluationError as exc:
        failed = b.failed if b.failed is not None else sigma.failed
        if first is None or (failed is None and exc.particle is None):
            raise
        if failed is None:
            raise _in_round(exc, n, first) from None
        message = f"round {first + failed}: {exc}"
        raise StepEvaluationError(message, step=exc.step) from exc.__cause__
    variation = stacked.variation_totals()
    return [
        EnsembleTrajectories(stacked.states[r * n : (r + 1) * n], variation[r * n : (r + 1) * n])
        for r in range(rounds)
    ]


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
    _check_flows(cfg.grid, flow)
    if flow.flags.writeable or flow.dtype != float:
        flow = flow.astype(float)
        flow.flags.writeable = False
    (ens,) = _frozen_rounds(cfg, xi_values, b, sigma, flow, 1, noise)
    return ens


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
    ensembles of rounds 1..n_iters, bit for bit those of a chain of
    ``solve_ensemble_frozen`` calls.

    Round n's law at step k is round n-1's window ending at step k,
    which exists before any round takes step k, so the rounds are
    solved in lockstep stacks (``_frozen_rounds``): the fewest stacks
    of at most ``STACK_ROWS`` rows, as even as possible, each stack
    starting from the last states of the one before.  A stacked
    round's law is a read-only view of round n-1's live windows, valid
    only during the step, as the live windows are: a coefficient that
    keeps it past its call must copy it.  A state that leaves the
    floats raises a ``StepEvaluationError`` at the first step at which
    any round of its stack fails, naming that round and, as
    ``particle``, the index of the particle within the round; a
    coefficient that raises names its round and step, and its exception
    is the error's cause.
    """
    if n_iters < 1:
        raise InvalidArgumentError("n_iters must be >= 1")
    xi_values = np.asarray(xi_values, dtype=float)
    flow = _constant_extension(cfg.grid, xi_values)
    _check_flows(cfg.grid, flow)
    flow.flags.writeable = False
    n = xi_values.shape[0]
    # the fewest stacks of at most STACK_ROWS rows (of at least one
    # round each), as even as possible, the larger first
    stacks = -(-n_iters // max(1, STACK_ROWS // n))
    size, larger = divmod(n_iters, stacks)
    ensembles = []
    for rounds in [size + 1] * larger + [size] * (stacks - larger):
        first = len(ensembles) + 1
        ensembles += _frozen_rounds(cfg, xi_values, b, sigma, flow, rounds, noise, first)
        flow = ensembles[-1].states
    return ensembles


def _in_round(exc: StepEvaluationError, n: int, first: int) -> StepEvaluationError:
    """The error ``exc`` of a stacked solve whose first round is round
    ``first``, restated for the round of its particle and the index of
    the particle within it."""
    r, particle = divmod(exc.particle, n)
    head = f"the state of particle {exc.particle} "
    message = str(exc).removeprefix(head)
    return StepEvaluationError(
        f"round {first + r}: the state of particle {particle} {message}",
        step=exc.step,
        particle=particle,
    )


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
