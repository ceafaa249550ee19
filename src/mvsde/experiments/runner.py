"""The named experiments and their dispatcher.

Each experiment is a function from a validated configuration to a list
of result records.  Determinism contract: records depend only on the
configuration (seed included), never on thread count or scheduling.
Monte Carlo work is split into fixed-size path chunks whose outputs
land in preallocated slices; every reduction (mean, standard error,
maximum) runs afterwards over the fully assembled arrays in a single
deterministic pass, so any interleaving of chunk execution produces
the same bytes.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import takewhile

import numpy as np

# solver.integrate is looked up at each call, so a wrapper put on it sees every solve
from .. import solver
from ..errors import ConfigError
from ..meanfield import distribution_iterate, flow_sup_distance, self_consistent_solve
from ..rng import REFINEMENT_STREAM, RngKey
from ..segments import TimeGrid
from ..solver import (
    SolverConfig,
    contraction_horizon,
    gap_ratio,
    picard_iterate_paths,
    sample_noise_matrix,
)
from .config import (
    DECLARATIONS,
    ExperimentConfig,
    build_diffusion,
    build_drift,
    build_initial_windows,
    check_declared,
)
from .oracles import (
    delay_euler_mean,
    delay_ode_first_interval,
    delay_ode_mean,
    halfline_reflection_moments,
    simulate_folded_paths,
)
from .records import ResultRecord, check_record, info_record

__all__ = ["EXPERIMENTS", "run_experiment", "CHUNK_PATHS"]

# paths per work unit; fixed so chunk boundaries never depend on threads.
# One chunk is in flight at a time, and its noise, CHUNK_PATHS x steps x
# 8 bytes (16 MB at 1000 steps), is most of a run's memory; the results
# do not depend on the value, since each path draws from its own noise
# substream
CHUNK_PATHS = 2048

# rows per block of a chunk's noise, at every thread count.  On a 2-vCPU
# x86-64 host one sample_noise_matrix call took about 0.12-0.17 ms plus
# 27 us a row at 1000 steps, so the fixed cost of a block of 512 rows is
# about 1 % of its draws
NOISE_BLOCK_PATHS = 512

# a ladder's first rung must exceed its rounding floor this many times
# over before the ladder's decrease counts as evidence (see _ladder)
EVIDENCE_FACTOR = 1e3

# standard errors by which delay_mean_oracle's particle mean may leave
# the scheme's own mean recursion; the recursion carries the scheme's
# O(dt) bias, so the tolerance needs no dt allowance
SCHEME_MEAN_SES = 4.0


def _map_chunks(total: int, threads: int, worker) -> None:
    """Call ``worker(first, count)`` on each fixed-size chunk of
    ``total`` paths, in order, on the calling thread.  ``threads`` is
    the number of threads that serve the phase: the calling thread,
    which steps each chunk, and ``threads - 1`` helpers that draw its
    noise beside it (see _chunk_noise)."""
    for first in range(0, total, CHUNK_PATHS):
        worker(first, min(CHUNK_PATHS, total - first))


def _helper_pool(threads: int):
    """A pool of ``threads - 1`` helper threads for the calling thread,
    or, at ``threads = 1``, a context that yields None."""
    if threads > 1:
        return ThreadPoolExecutor(max_workers=threads - 1)
    return contextlib.nullcontext()


def _submit(helpers: ThreadPoolExecutor | None, fn, *args) -> Future | None:
    """``fn(*args)`` handed to ``helpers`` (see _collect), in a copy of
    the caller's context so that an np.errstate around the run holds in
    the helper threads too; None when there are no helpers."""
    if helpers is None:
        return None
    return helpers.submit(contextvars.copy_context().run, fn, *args)


def _collect(future: Future | None, fn, *args):
    """The value of ``fn(*args)``, whose ``future`` came from _submit: a
    call that no helper has started (no future, or one that cancels) runs
    on the calling thread, which so waits only on a call a helper is
    already running, never on a helper busy with other work."""
    if future is None or future.cancel():
        return fn(*args)
    return future.result()


def _chunk_noise(helpers, key: RngKey, grid: TimeGrid, width: int, first: int, count: int):
    """The noise of paths ``first .. first + count - 1`` as row blocks of
    ``NOISE_BLOCK_PATHS`` rows, each one ``sample_noise_matrix`` call, so
    the bits do not depend on who draws them.  Helpers take blocks from
    the front and the calling thread collects them from the back, at
    ``threads = 1`` drawing each one itself."""
    stop = first + count
    calls = [
        (sample_noise_matrix, key, grid, width, min(NOISE_BLOCK_PATHS, stop - start), start)
        for start in range(first, stop, NOISE_BLOCK_PATHS)
    ]
    futures = [_submit(helpers, *call) for call in calls]
    blocks = [_collect(future, *call) for future, call in zip(futures[::-1], calls[::-1])]
    return blocks[::-1]


def _mean_se(sample: np.ndarray) -> tuple[float, float]:
    se = np.std(sample, ddof=1) / math.sqrt(sample.size)
    return float(np.mean(sample)), float(se)


def _mean_sup_sq(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """E sup_t |b - a|^2 over the paths of two (N, times, d) arrays, and
    its standard error."""
    diff = b - a
    return _mean_se(np.max(np.sum(diff * diff, axis=2), axis=1))


def _rounding_floor(*paths: np.ndarray) -> np.float64:
    """eps * max|X| over the compared paths: a gap this small can be
    rounding alone.  A numpy float, so that squaring it for a squared
    measure overflows to inf rather than raising."""
    return np.finfo(float).eps * max(np.max(np.abs(p)) for p in paths)


def _setup(cfg: ExperimentConfig, count: int):
    """Solver configuration, drift, diffusion, and the initial windows
    and noise of ``count`` paths or particles, keyed by the seed."""
    key = RngKey(cfg.seed)
    scfg = SolverConfig(cfg.grid, cfg.operator)
    f = build_drift(cfg)
    g = build_diffusion(cfg)
    xi = build_initial_windows(cfg, count, seed_key=key)
    noise = sample_noise_matrix(key, cfg.grid, g.width, count)
    return scfg, f, g, xi, noise


def _terminal_and_variation(
    cfg: ExperimentConfig, grid: TimeGrid, key: RngKey, n_paths: int, helpers, fold=None
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states (N, d) and per-path reflection variation (N,),
    solved in chunks with per-path noise substreams.  The chunks read
    nothing else, so they are solved terminal-only: no (N, path_len, d)
    state array is stored.  The calling thread steps the chunks one after
    another, and ``helpers`` (a pool from _helper_pool, or None) draw
    each chunk's noise beside it.  A ``fold(first, blocks)``, if given,
    reads each chunk's noise blocks, on a helper beside the chunk's
    solve or, without helpers, on the calling thread after it."""
    scfg = SolverConfig(grid, cfg.operator)
    f = build_drift(cfg)
    g = build_diffusion(cfg)
    xi_all = build_initial_windows(cfg, n_paths, seed_key=key, grid=grid)
    terminal = np.empty((n_paths, scfg.dim))
    variation = np.empty(n_paths)

    def worker(first: int, count: int) -> None:
        noise = _chunk_noise(helpers, key, grid, g.width, first, count)
        folded = None if fold is None else _submit(helpers, fold, first, noise)
        ens = solver.integrate(
            scfg, xi_all[first : first + count], f, g, noise, keep_path=False
        )
        terminal[first : first + count] = ens.states[:, -1, :]
        variation[first : first + count] = ens.variation_totals()
        if fold is not None:
            _collect(folded, fold, first, noise)

    _map_chunks(n_paths, cfg.threads, worker)
    return terminal, variation


def _shows_evidence(values, floor: float) -> bool:
    """Whether a ladder's first rung exceeds ``EVIDENCE_FACTOR`` times
    its rounding floor; a ladder that does not shows nothing, and each
    check read from it takes a failing value."""
    return bool(values[0] > EVIDENCE_FACTOR * floor)


def _ladder(
    name: str, metrics, values, floor: float, std_errors=None
) -> tuple[list[ResultRecord], ResultRecord]:
    """Info records of a ladder's rungs, and its gaps_decreasing check.

    Consecutive rungs are compared from the first on, and the comparing
    stops at the first rung not above ``floor``, the size of a gap that
    rounding alone can make.  The check's value is the worst compared
    ratio (see gap_ratio), and it passes iff that is below 1.  A ladder
    that shows no evidence (see _shows_evidence) reads 1.0.  The
    declarations admit only run sizes that give at least two rungs.
    """
    rungs = [
        info_record(name, metric, value, std_error=se)
        for metric, value, se in zip(metrics, values, std_errors or [None] * len(values))
    ]
    worst = 1.0
    if _shows_evidence(values, floor):
        checked = takewhile(lambda pair: pair[0] > floor, zip(values, values[1:]))
        worst = max(gap_ratio(gap, prev) for prev, gap in checked)
    return rungs, ResultRecord(
        experiment=name, metric="gaps_decreasing", value=float(worst), std_error=None,
        target=0.0, tolerance=1.0, passed=bool(worst < 1.0),
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _reflected_bm_oracle(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    folded_end, folded_lt = np.empty((2, cfg.paths))

    def fold(first: int, blocks: list[np.ndarray]) -> None:
        # the scheme's own Brownian steps, never what it computes from them
        for block in blocks:
            rows = slice(first, first + block.shape[0])
            folded_end[rows], folded_lt[rows] = simulate_folded_paths(block[:, :, 0])
            first = rows.stop

    with _helper_pool(cfg.threads) as helpers:
        terminal, variation = _terminal_and_variation(
            cfg, grid, RngKey(cfg.seed), cfg.paths, helpers, fold
        )
    x_end = terminal[:, 0]
    targets = halfline_reflection_moments(grid.horizon)
    records = []
    # the scheme's records allow its O(dt) bias; the folded route, no
    # projection scheme, confirms the closed-form targets themselves
    for metric, sample, target, ses, allowance in (
        ("terminal_mean", x_end, targets["mean"], 3.0, 2.0 * grid.dt),
        ("terminal_second_moment", x_end**2, targets["second_moment"], 3.0, 2.0 * grid.dt),
        ("reflection_variation_mean", variation, targets["local_time_mean"], 3.0, 5.0 * grid.dt),
        ("folded_terminal_mean", folded_end, targets["mean"], 4.0, 0.0),
        ("folded_terminal_second_moment", folded_end**2, targets["second_moment"], 4.0, 0.0),
        ("folded_local_time_mean", folded_lt, targets["local_time_mean"], 4.0, 0.0),
    ):
        value, se = _mean_se(sample)
        records.append(
            check_record(cfg.name, metric, value, target, ses * se + allowance, std_error=se)
        )
    return records


def _kvariation_stability(cfg: ExperimentConfig) -> list[ResultRecord]:
    base_grid = cfg.grid
    half_grid = TimeGrid(dt=base_grid.dt / 2.0, delay=base_grid.delay, horizon=base_grid.horizon)
    refine = RngKey(cfg.seed).child(REFINEMENT_STREAM)
    with _helper_pool(cfg.threads) as helpers:
        _, var_base = _terminal_and_variation(cfg, base_grid, refine.child(0), cfg.paths, helpers)
        _, var_half = _terminal_and_variation(cfg, half_grid, refine.child(1), cfg.paths, helpers)
    mean_base, se_base = _mean_se(var_base)
    mean_half, se_half = _mean_se(var_half)
    relative = gap_ratio(abs(mean_half - mean_base), mean_base)
    return [
        info_record(cfg.name, "variation_mean_base_dt", mean_base, std_error=se_base),
        info_record(cfg.name, "variation_mean_half_dt", mean_half, std_error=se_half),
        check_record(cfg.name, "relative_change", relative, 0.0, 0.10),
    ]


def _picard_contraction(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    scfg, f, g, xi, noise = _setup(cfg, cfg.paths)
    iterates = picard_iterate_paths(scfg, xi, f, g, noise, cfg.iterations)

    # an unknown Lipschitz constant, like a zero one, sets no smaller
    # horizon: the fit spans the whole grid
    known = f.lipschitz_sq is not None and g.lipschitz_sq is not None
    lipschitz_sq = float(f.lipschitz_sq) + float(g.lipschitz_sq) if known else 0.0
    if lipschitz_sq > 0.0:
        t_small = contraction_horizon(lipschitz_sq)
    else:
        t_small = grid.horizon
    k0 = max(1, min(grid.steps, int(t_small / grid.dt + 1e-9)))

    # gap i estimates E sup_{[-r0, k0*dt]} |X^(i+1) - X^(i)|^2
    paths = [ens.states[:, : grid.delay_steps + k0 + 1] for ens in iterates]
    gaps, ses = zip(*(_mean_sup_sq(a, b) for a, b in zip(paths, paths[1:])))
    metrics = [f"iterate_gap_{i:02d}" for i in range(1, len(gaps) + 1)]
    rungs, decreasing = _ladder(cfg.name, metrics, gaps, np.square(_rounding_floor(*paths)), ses)
    late = max(gap_ratio(gap, prev) for prev, gap in zip(gaps[1:6], gaps[2:7]))
    return [
        info_record(cfg.name, "fitted_horizon", k0 * grid.dt),
        *rungs,
        check_record(cfg.name, "max_ratio_n2_n6", late, 0.0, 0.75),
        decreasing,
    ]


def _uniqueness(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    scfg, f, g, xi, noise = _setup(cfg, cfg.paths)
    # ladder A starts from the constant extension of the initial windows,
    # ladder B from an all-zero history; both share noise and windows
    ladder_a = picard_iterate_paths(scfg, xi, f, g, noise, cfg.iterations)
    zero_start = np.zeros((cfg.paths, grid.path_len, scfg.dim))
    ladder_b = picard_iterate_paths(scfg, xi, f, g, noise, cfg.iterations, zeroth=zero_start)

    gaps = [
        float(np.max(np.abs(a.states - b.states)))
        for a, b in zip(ladder_a, ladder_b)
    ]
    metrics = [f"ladder_gap_iter_{n:02d}" for n in range(1, len(gaps) + 1)]
    floor = _rounding_floor(*(ens.states for ens in ladder_a + ladder_b))
    rungs, decreasing = _ladder(cfg.name, metrics, gaps, floor)
    # without evidence the distance says nothing: the starts may be lost
    final = gaps[-1] if _shows_evidence(gaps, floor) else 1.0
    return [*rungs, check_record(cfg.name, "final_sup_distance", final, 0.0, 1e-8), decreasing]


def _continuity(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    scfg, f, g, xi, noise = _setup(cfg, cfg.paths)
    deltas = sorted(cfg.deltas, reverse=True)
    # the solves compared on [0, T]: the unshifted one, then one per delta
    m0 = grid.delay_steps
    base, *shifted = (
        solver.integrate(scfg, start, f, g, noise).states[:, m0:]
        for start in (xi, *(xi + delta for delta in deltas))
    )
    values, ses = zip(*(_mean_sup_sq(base, paths) for paths in shifted))
    metrics = [f"mean_sup_sq_delta_{delta:g}" for delta in deltas]
    floor = np.square(_rounding_floor(base, *shifted))
    rungs, decreasing = _ladder(cfg.name, metrics, values, floor, ses)
    # without evidence no reduction is shown, whatever the ratio reads
    residual = gap_ratio(values[-1], values[0]) if _shows_evidence(values, floor) else 1.0
    return [
        *rungs,
        decreasing,
        check_record(cfg.name, "residual_after_reduction", residual, 0.0, 0.10),
    ]


def _delay_mean_oracle(cfg: ExperimentConfig) -> list[ResultRecord]:
    # the declaration fixes what the delayed-mean equation below assumes
    grid = cfg.grid
    scfg, b, sigma, xi, noise = _setup(cfg, cfg.particles)
    ens = self_consistent_solve(scfg, xi, b, sigma, noise)

    states = ens.states[:, grid.delay_steps :, 0]
    mean_path = np.mean(states, axis=0)
    se_path = np.std(states, axis=0, ddof=1) / math.sqrt(states.shape[0])
    times = grid.dt * np.arange(grid.steps + 1)

    # the mean equations are linear, so a constant history h scales them by h
    level = cfg.initial_params["value"][0]
    coupling = cfg.drift_params["coupling"]
    scheme_path = level * delay_euler_mean(coupling, grid)
    ode_path = level * delay_ode_mean(coupling, grid)
    first = times <= grid.delay + 1e-12 * max(grid.delay, 1.0)
    closed = level * delay_ode_first_interval(coupling, times[first])

    def sup_gap(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b)))

    se_max = float(np.max(se_path))
    tol = SCHEME_MEAN_SES * se_max
    return [
        check_record(
            cfg.name, "mean_max_deviation", sup_gap(mean_path, scheme_path), 0.0, tol, se_max
        ),
        info_record(cfg.name, "scheme_bias", sup_gap(scheme_path, ode_path)),
        info_record(
            cfg.name, "mean_max_deviation_full", sup_gap(mean_path, ode_path), std_error=se_max
        ),
        info_record(cfg.name, "oracle_routes_gap", sup_gap(ode_path[: closed.size], closed)),
        info_record(cfg.name, "terminal_mean", float(mean_path[-1]), std_error=float(se_path[-1])),
    ]


def _distribution_iteration(cfg: ExperimentConfig) -> list[ResultRecord]:
    scfg, b, sigma, xi, noise = _setup(cfg, cfg.particles)
    rounds = distribution_iterate(scfg, xi, b, sigma, cfg.iterations, noise)

    # gap n compares the law flows produced by rounds n and n+1
    gaps = [
        flow_sup_distance(cfg.grid, prev.states, ens.states)
        for prev, ens in zip(rounds, rounds[1:])
    ]
    metrics = [f"flow_gap_{n:02d}" for n in range(1, len(gaps) + 1)]
    floor = _rounding_floor(*(ens.states for ens in rounds))
    rungs, decreasing = _ladder(cfg.name, metrics, gaps, floor)
    return [*rungs, decreasing, check_record(cfg.name, "final_gap", gaps[-1], 0.0, 0.05)]


EXPERIMENTS = {
    "reflected_bm_oracle": _reflected_bm_oracle,
    "kvariation_stability": _kvariation_stability,
    "picard_contraction": _picard_contraction,
    "uniqueness": _uniqueness,
    "continuity": _continuity,
    "delay_mean_oracle": _delay_mean_oracle,
    "distribution_iteration": _distribution_iteration,
}

assert set(EXPERIMENTS) == set(DECLARATIONS)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Dispatch a configuration to its experiment, after holding it to
    the experiment's declaration again (see check_declared).  The
    records are a pure function of the configuration."""
    fn = EXPERIMENTS.get(cfg.name)
    if fn is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment '{cfg.name}'; known experiments: {known}")
    check_declared(cfg)
    return fn(cfg)
