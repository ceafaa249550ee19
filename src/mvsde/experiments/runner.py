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

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ConfigError
from ..meanfield import distribution_iterate, flow_sup_distance, self_consistent_solve
from ..rng import RngKey
from ..segments import TimeGrid
from ..solver import (
    SolverConfig,
    contraction_horizon,
    contraction_report,
    gap_ratio,
    picard_iterate_paths,
    sample_noise_matrix,
    solve_paths,
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
    delay_ode_first_interval,
    delay_ode_mean,
    halfline_reflection_moments,
    simulate_folded_paths,
)
from .records import ResultRecord, check_record, info_record

__all__ = ["EXPERIMENTS", "run_experiment", "CHUNK_PATHS"]

# paths per work unit; fixed so chunk boundaries never depend on threads
CHUNK_PATHS = 4096


def _map_chunks(total: int, threads: int, worker) -> None:
    jobs = [(s, min(CHUNK_PATHS, total - s)) for s in range(0, total, CHUNK_PATHS)]
    if threads <= 1 or len(jobs) == 1:
        for first, count in jobs:
            worker(first, count)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in pool.map(lambda job: worker(*job), jobs):
            pass


def _mean_se(sample: np.ndarray) -> tuple[float, float]:
    se = np.std(sample, ddof=1) / math.sqrt(sample.size)
    return float(np.mean(sample)), float(se)


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
    cfg: ExperimentConfig, grid: TimeGrid, key: RngKey, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal states (N, d) and per-path reflection variation (N,),
    solved in chunks with per-path noise substreams.  The chunks read
    nothing else, so they are solved terminal-only: no (N, path_len, d)
    state array is stored."""
    scfg = SolverConfig(grid, cfg.operator)
    f = build_drift(cfg)
    g = build_diffusion(cfg)
    xi_all = build_initial_windows(cfg, n_paths, seed_key=key, grid=grid)
    terminal = np.empty((n_paths, scfg.dim))
    variation = np.empty(n_paths)

    def worker(first: int, count: int) -> None:
        noise = sample_noise_matrix(key, grid, g.width, count, first_index=first)
        ens = solve_paths(scfg, xi_all[first : first + count], f, g, noise, keep_path=False)
        terminal[first : first + count] = ens.states[:, -1, :]
        variation[first : first + count] = ens.variation_totals()

    _map_chunks(n_paths, cfg.threads, worker)
    return terminal, variation


def _strict_decrease_record(name: str, metric: str, values) -> ResultRecord:
    """Pass iff consecutive values strictly decrease; the recorded value
    is the worst consecutive ratio (see gap_ratio).  The declarations
    admit only run sizes that give at least two values."""
    worst = max(gap_ratio(values[i + 1], values[i]) for i in range(len(values) - 1))
    return ResultRecord(
        experiment=name,
        metric=metric,
        value=float(worst),
        std_error=None,
        target=0.0,
        tolerance=1.0,
        passed=bool(worst < 1.0),
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _reflected_bm_oracle(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    key = RngKey(cfg.seed)
    # independent route: fold plain Brownian paths, no projection scheme;
    # confirms the targets separately from the solver under test.  The
    # chunks draw their noise with the interpreter lock released but
    # hold it between the step loop's numpy calls, so with threads > 1
    # the numpy-bound oracle runs beside them on one extra thread.
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            folded = pool.submit(simulate_folded_paths, key.child(7), grid, cfg.paths)
            terminal, variation = _terminal_and_variation(cfg, grid, key, cfg.paths)
            folded_end, folded_lt = folded.result()
    else:
        terminal, variation = _terminal_and_variation(cfg, grid, key, cfg.paths)
        folded_end, folded_lt = simulate_folded_paths(key.child(7), grid, cfg.paths)
    x_end = terminal[:, 0]
    targets = halfline_reflection_moments(grid.horizon)
    records = []
    for metric, sample, target, bias_allowance in (
        ("terminal_mean", x_end, targets["mean"], 2.0 * grid.dt),
        ("terminal_second_moment", x_end * x_end, targets["second_moment"], 2.0 * grid.dt),
        ("reflection_variation_mean", variation, targets["local_time_mean"], 5.0 * grid.dt),
    ):
        value, se = _mean_se(sample)
        records.append(
            check_record(
                cfg.name, metric, value, target, 3.0 * se + bias_allowance, std_error=se
            )
        )

    for metric, sample, target in (
        ("folded_terminal_mean", folded_end, targets["mean"]),
        ("folded_terminal_second_moment", folded_end * folded_end, targets["second_moment"]),
        ("folded_local_time_mean", folded_lt, targets["local_time_mean"]),
    ):
        value, se = _mean_se(sample)
        records.append(
            check_record(cfg.name, metric, value, target, 4.0 * se, std_error=se)
        )
    return records


def _kvariation_stability(cfg: ExperimentConfig) -> list[ResultRecord]:
    base_grid = cfg.grid
    half_grid = TimeGrid(dt=base_grid.dt / 2.0, delay=base_grid.delay, horizon=base_grid.horizon)
    root = RngKey(cfg.seed)
    _, var_base = _terminal_and_variation(cfg, base_grid, root.child(3, 0), cfg.paths)
    _, var_half = _terminal_and_variation(cfg, half_grid, root.child(3, 1), cfg.paths)
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
    report = contraction_report(iterates, t0=k0 * grid.dt)

    records = [info_record(cfg.name, "fitted_horizon", report.horizon)]
    for i, (dist, se) in enumerate(zip(report.distances, report.std_errors), start=1):
        records.append(info_record(cfg.name, f"iterate_gap_{i:02d}", dist, std_error=se))
    late = max(report.ratios[1:6])
    records.append(check_record(cfg.name, "max_ratio_n2_n6", late, 0.0, 0.75))
    records.append(_strict_decrease_record(cfg.name, "gaps_decreasing", report.distances))
    return records


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
    records = [
        info_record(cfg.name, f"ladder_gap_iter_{n:02d}", gap)
        for n, gap in enumerate(gaps, start=1)
    ]
    records.append(check_record(cfg.name, "final_sup_distance", gaps[-1], 0.0, 1e-8))
    return records


def _continuity(cfg: ExperimentConfig) -> list[ResultRecord]:
    grid = cfg.grid
    scfg, f, g, xi, noise = _setup(cfg, cfg.paths)
    base = solve_paths(scfg, xi, f, g, noise)

    deltas = sorted(cfg.deltas, reverse=True)
    m0 = grid.delay_steps
    values, records = [], []
    for delta in deltas:
        shifted = solve_paths(scfg, xi + delta, f, g, noise)
        diff = shifted.states[:, m0:, :] - base.states[:, m0:, :]
        per_path = np.max(np.sum(diff * diff, axis=2), axis=1)
        value, se = _mean_se(per_path)
        values.append(value)
        records.append(
            info_record(cfg.name, f"mean_sup_sq_delta_{delta:g}", value, std_error=se)
        )
    records.append(_strict_decrease_record(cfg.name, "gaps_decreasing", values))
    residual = gap_ratio(values[-1], values[0])
    records.append(check_record(cfg.name, "residual_after_reduction", residual, 0.0, 0.10))
    return records


def _delay_mean_oracle(cfg: ExperimentConfig) -> list[ResultRecord]:
    # the declaration fixes what the delayed-mean equation below assumes
    grid = cfg.grid
    scfg, b, sigma, xi, noise = _setup(cfg, cfg.particles)
    ens = self_consistent_solve(scfg, xi, b, sigma, noise)

    states = ens.states[:, grid.delay_steps :, 0]
    mean_path = np.mean(states, axis=0)
    se_path = np.std(states, axis=0, ddof=1) / math.sqrt(states.shape[0])
    times = grid.dt * np.arange(grid.steps + 1)

    # the mean equation is linear, so a constant history h scales it by h
    level = cfg.initial_params["value"][0]
    coupling = cfg.drift_params["coupling"]
    ode_path = level * delay_ode_mean(coupling, grid)
    first = times <= grid.delay + 1e-12 * max(grid.delay, 1.0)
    closed = level * delay_ode_first_interval(coupling, times[first])

    dev_first = float(np.max(np.abs(mean_path[first] - closed)))
    se_first = float(np.max(se_path[first]))
    tol = 3.0 * se_first + 2.0 * grid.dt
    records = [
        check_record(
            cfg.name, "mean_max_deviation", dev_first, 0.0, tol, std_error=se_first
        ),
        info_record(
            cfg.name,
            "mean_max_deviation_full",
            float(np.max(np.abs(mean_path - ode_path))),
            std_error=float(np.max(se_path)),
        ),
        info_record(
            cfg.name,
            "oracle_routes_gap",
            float(np.max(np.abs(ode_path[: closed.size] - closed))),
        ),
        info_record(cfg.name, "terminal_mean", float(mean_path[-1]), std_error=float(se_path[-1])),
    ]
    return records


def _distribution_iteration(cfg: ExperimentConfig) -> list[ResultRecord]:
    scfg, b, sigma, xi, noise = _setup(cfg, cfg.particles)
    rounds = distribution_iterate(scfg, xi, b, sigma, cfg.iterations, noise)

    # gap n compares the law flows produced by rounds n and n+1
    gaps = [
        flow_sup_distance(cfg.grid, prev.states, ens.states)
        for prev, ens in zip(rounds, rounds[1:])
    ]
    records = [
        info_record(cfg.name, f"flow_gap_{n:02d}", gap)
        for n, gap in enumerate(gaps, start=1)
    ]
    records.append(_strict_decrease_record(cfg.name, "gaps_decreasing", gaps))
    records.append(check_record(cfg.name, "final_gap", gaps[-1], 0.0, 0.05))
    return records


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
    the experiment's declaration again (see check_declared).

    The returned records carry the experiment's total wall-clock time;
    everything else is a pure function of the configuration.
    """
    fn = EXPERIMENTS.get(cfg.name)
    if fn is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"unknown experiment '{cfg.name}'; known experiments: {known}")
    check_declared(cfg)
    start = time.perf_counter()
    records = fn(cfg)
    elapsed = time.perf_counter() - start
    for rec in records:
        rec.wall_seconds = elapsed
    return records
