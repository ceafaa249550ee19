"""Experiment configuration: a small line-based format with
``[section]`` headers and ``key = value`` entries.

Every key must be known; unknown sections, keys, experiment names,
coefficient names, or malformed values raise ``ConfigError`` with a
message naming the offending entry.  Each experiment ships a complete
default configuration, so a file may contain as little as the
experiment name; the fully resolved configuration is what gets written
to the run manifest, and feeding that manifest back reproduces the run.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from ..coefficients import (
    Coefficient,
    LogModulus,
    diffusion_constant,
    diffusion_zero,
    drift_constant,
    drift_linear_delay,
    drift_log_lipschitz,
    drift_zero,
    mf_drift_linear,
    mf_drift_second_moment,
)
from ..errors import ConfigError, InvalidArgumentError, MvsdeError
from ..monotone import (
    Ball,
    Box,
    Graph1D,
    HalfLine,
    Halfspace,
    MonotoneOperatorSpec,
    NormalCone,
    ZeroOperator,
    operator_domain,
    project,
)
from ..rng import INITIAL_DATA_STREAM, RngKey
from ..segments import TimeGrid
from ..solver import SCHEMES

__all__ = [
    "ExperimentConfig",
    "EXPERIMENT_DEFAULTS",
    "EXPERIMENT_INFO",
    "load_config",
    "parse_config_text",
    "render_config",
    "build_operator",
    "build_initial_windows",
    "build_drift",
    "build_diffusion",
]

# key -> value type; "vector" accepts a comma-separated float list
_SCHEMA: dict[str, str] = {
    "experiment.name": "str",
    "grid.dt": "float",
    "grid.r0": "float",
    "grid.horizon": "float",
    "run.paths": "int",
    "run.particles": "int",
    "run.iterations": "int",
    "run.seed": "int",
    "run.threads": "int",
    "run.output_dir": "str",
    "run.deltas": "vector",
    "solver.scheme": "str",
    "solver.membership_tol": "float",
    "operator.kind": "str",
    "operator.dim": "int",
    "operator.lower": "vector",
    "operator.upper": "vector",
    "operator.center": "vector",
    "operator.radius": "float",
    "operator.normal": "vector",
    "operator.offset": "float",
    "initial.kind": "str",
    "initial.value": "vector",
    "initial.mean": "float",
    "initial.std": "float",
    "coefficients.drift": "str",
    "coefficients.diffusion": "str",
}

_OPERATOR_PARAMS = {
    "zero": ("dim",),
    "halfline": ("lower",),
    "box": ("lower", "upper"),
    "ball": ("center", "radius"),
    "halfspace": ("normal", "offset"),
    "sign_graph": (),
}

_INITIAL_PARAMS = {
    "constant": ("value",),
    "gaussian": ("mean", "std"),
}

# name -> (reads the law, parameters); an experiment accepts the drifts
# whose first entry matches its mean-field flag in EXPERIMENT_INFO
DRIFTS = {
    "zero": (False, ()),
    "constant": (False, ("value",)),
    "linear_delay": (False, ("pull", "push")),
    "log_lipschitz": (False, ("branch",)),
    "mf_linear": (True, ("coupling",)),
    "mf_second_moment": (True, ()),
}
DIFFUSIONS = {"zero": (), "constant": ("value",)}

_BASE_DEFAULTS = {
    "grid.dt": "0.01",
    "grid.r0": "0.1",
    "grid.horizon": "1.0",
    "run.paths": "1000",
    "run.particles": "256",
    "run.iterations": "8",
    "run.seed": "20260816",
    "run.threads": "1",
    "run.output_dir": "",
    "run.deltas": "0.1, 0.01, 0.001",
    "solver.scheme": "resolvent_step",
    "solver.membership_tol": "1e-9",
    "operator.kind": "zero",
    "operator.dim": "1",
    "initial.kind": "constant",
    "initial.value": "1.0",
    "coefficients.drift": "zero",
    "coefficients.diffusion": "constant",
    "coefficients.diffusion.value": "1.0",
}

# Full default configuration per experiment; the file may override any key.
EXPERIMENT_DEFAULTS: dict[str, dict[str, str]] = {
    "reflected_bm_oracle": {
        "grid.dt": "0.001",
        "grid.r0": "0.0",
        "grid.horizon": "1.0",
        "run.paths": "100000",
        "operator.kind": "halfline",
        "operator.lower": "0.0",
        "initial.value": "0.0",
        "coefficients.drift": "zero",
        "coefficients.diffusion": "constant",
        "coefficients.diffusion.value": "1.0",
    },
    "kvariation_stability": {
        "grid.dt": "0.001",
        "grid.r0": "0.0",
        "grid.horizon": "1.0",
        "run.paths": "20000",
        "operator.kind": "halfline",
        "operator.lower": "0.0",
        "initial.value": "0.0",
        "coefficients.drift": "zero",
        "coefficients.diffusion": "constant",
        "coefficients.diffusion.value": "1.0",
    },
    "picard_contraction": {
        "grid.dt": "0.001",
        "grid.r0": "0.02",
        "grid.horizon": "0.02",
        "run.paths": "1000",
        "run.iterations": "8",
        "coefficients.drift": "linear_delay",
        "coefficients.drift.pull": "1.0",
        "coefficients.drift.push": "0.5",
        "coefficients.diffusion.value": "0.5",
    },
    "uniqueness": {
        "grid.dt": "0.005",
        "grid.r0": "0.05",
        "grid.horizon": "0.5",
        "run.paths": "100",
        "run.iterations": "20",
        "operator.kind": "halfline",
        "operator.lower": "0.0",
        "coefficients.drift": "linear_delay",
        "coefficients.drift.pull": "1.0",
        "coefficients.drift.push": "0.5",
        "coefficients.diffusion.value": "0.5",
    },
    "continuity": {
        "grid.dt": "0.005",
        "grid.r0": "0.05",
        "grid.horizon": "0.5",
        "run.paths": "256",
        "initial.value": "0.5",
        "coefficients.drift": "log_lipschitz",
        "coefficients.drift.branch": "0.25",
        "coefficients.diffusion.value": "0.3",
    },
    "delay_mean_oracle": {
        "grid.dt": "0.01",
        "grid.r0": "0.5",
        "grid.horizon": "0.5",
        "run.particles": "10000",
        "coefficients.drift": "mf_linear",
        "coefficients.drift.coupling": "0.5",
        "coefficients.diffusion.value": "0.3",
    },
    "distribution_iteration": {
        "grid.dt": "0.01",
        "grid.r0": "0.1",
        "grid.horizon": "1.0",
        "run.particles": "256",
        "run.iterations": "9",
        "initial.kind": "gaussian",
        "initial.mean": "1.0",
        "initial.std": "0.5",
        "coefficients.drift": "mf_linear",
        "coefficients.drift.coupling": "1.0",
        "coefficients.diffusion.value": "0.3",
    },
}

EXPERIMENT_INFO: dict[str, tuple[bool, str]] = {
    # name -> (mean-field: takes the drifts that read the law, description)
    "reflected_bm_oracle": (False, "half-line reflection against the law of |W(1)|"),
    "kvariation_stability": (False, "reflection-term variation under grid refinement"),
    "picard_contraction": (False, "geometric decay of successive path iterates"),
    "uniqueness": (False, "one noise, two iteration starts, one limit"),
    "continuity": (False, "dependence on the initial segment under a log modulus"),
    "delay_mean_oracle": (True, "particle mean against a delay ODE solved by steps"),
    "distribution_iteration": (True, "law-flow iteration measured in Wasserstein-2"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: TimeGrid
    paths: int
    particles: int
    iterations: int
    seed: int
    threads: int
    output_dir: str | None
    scheme: str
    membership_tol: float
    operator_kind: str
    operator_params: dict
    initial_kind: str
    initial_params: dict
    drift_name: str
    drift_params: dict
    diffusion_name: str
    diffusion_params: dict
    deltas: tuple[float, ...]
    resolved: dict[str, str] = field(repr=False)


def _convert(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
        elif kind == "vector":
            value = tuple(float(p) for p in raw.split(","))
        else:
            return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"value for '{key}' is not a valid {kind}: {raw!r}") from exc
    # operator bounds may be infinite (a box open on one side); every
    # other number feeds arithmetic that a non-finite value would poison
    if not key.startswith("operator.") and not np.all(np.isfinite(value)):
        raise ConfigError(f"value for '{key}' must be finite: {raw!r}")
    return value


def _flatten(cp: configparser.ConfigParser) -> dict[str, str]:
    flat = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            flat[f"{section}.{key}"] = value.strip()
    return flat


def _known_key(key: str) -> bool:
    if key in _SCHEMA:
        return True
    return key.startswith("coefficients.drift.") or key.startswith("coefficients.diffusion.")


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate configuration text; see load_config."""
    cp = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    flat = _flatten(cp)
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items()})

    name = flat.get("experiment.name")
    if not name:
        raise ConfigError("missing required key '[experiment] name'")
    if name not in EXPERIMENT_DEFAULTS:
        known = ", ".join(sorted(EXPERIMENT_DEFAULTS))
        raise ConfigError(f"unknown experiment '{name}'; known experiments: {known}")

    merged = dict(_BASE_DEFAULTS)
    merged.update(EXPERIMENT_DEFAULTS[name])
    merged.update(flat)
    merged["experiment.name"] = name

    for key in merged:
        if not _known_key(key):
            section, _, bare = key.partition(".")
            raise ConfigError(f"unknown config key '[{section}] {bare}'")

    def get(key: str):
        return _convert(key, merged[key], _SCHEMA.get(key, "float"))

    try:
        grid = TimeGrid(
            dt=get("grid.dt"), delay=get("grid.r0"), horizon=get("grid.horizon")
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc

    paths = get("run.paths")
    particles = get("run.particles")
    iterations = get("run.iterations")
    if paths < 1:
        raise ConfigError("'[run] paths' must be a positive integer")
    if particles < 1:
        raise ConfigError("'[run] particles' must be a positive integer")
    if iterations < 1:
        raise ConfigError("'[run] iterations' must be a positive integer")
    seed = get("run.seed")
    if not (0 <= seed < 2**64):
        raise ConfigError("'[run] seed' must be an unsigned 64-bit integer")
    threads = get("run.threads")
    if threads < 1:
        raise ConfigError("'[run] threads' must be a positive integer")

    scheme = get("solver.scheme")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown solver scheme '{scheme}'; expected one of {SCHEMES}")
    membership_tol = get("solver.membership_tol")
    if not membership_tol > 0.0:
        raise ConfigError("'[solver] membership_tol' must be positive")

    op_kind = get("operator.kind")
    if op_kind not in _OPERATOR_PARAMS:
        raise ConfigError(
            f"unknown operator kind '{op_kind}'; expected one of {tuple(_OPERATOR_PARAMS)}"
        )
    op_params = {
        p: get(f"operator.{p}") for p in _OPERATOR_PARAMS[op_kind] if f"operator.{p}" in merged
    }
    missing = [p for p in _OPERATOR_PARAMS[op_kind] if p not in op_params]
    if missing:
        raise ConfigError(f"operator kind '{op_kind}' is missing parameter '{missing[0]}'")
    if op_kind == "halfline" and len(op_params["lower"]) != 1:
        raise ConfigError(
            f"'[operator] lower' for kind 'halfline' takes one value, "
            f"got {len(op_params['lower'])}"
        )

    init_kind = get("initial.kind")
    if init_kind not in _INITIAL_PARAMS:
        raise ConfigError(
            f"unknown initial kind '{init_kind}'; expected one of {tuple(_INITIAL_PARAMS)}"
        )
    init_params = {
        p: get(f"initial.{p}") for p in _INITIAL_PARAMS[init_kind] if f"initial.{p}" in merged
    }

    meanfield = EXPERIMENT_INFO[name][0]
    drifts = tuple(n for n, (reads_law, _) in DRIFTS.items() if reads_law == meanfield)

    drift_name = get("coefficients.drift")
    if drift_name not in drifts:
        raise ConfigError(
            f"unknown drift coefficient '{drift_name}'; expected one of {drifts}"
        )
    diffusion_name = get("coefficients.diffusion")
    if diffusion_name not in DIFFUSIONS:
        raise ConfigError(
            f"unknown diffusion coefficient '{diffusion_name}'; "
            f"expected one of {tuple(DIFFUSIONS)}"
        )

    def coef_params(prefix: str, allowed: tuple[str, ...], label: str) -> dict:
        out = {}
        for key, raw in merged.items():
            if key.startswith(prefix):
                pname = key[len(prefix) :]
                if pname not in allowed:
                    raise ConfigError(
                        f"unknown parameter '{pname}' for {label}; allowed: {allowed or '()'}"
                    )
                out[pname] = _convert(key, raw, "float")
        return out

    drift_params = coef_params(
        "coefficients.drift.", DRIFTS[drift_name][1], f"drift '{drift_name}'"
    )
    diffusion_params = coef_params(
        "coefficients.diffusion.", DIFFUSIONS[diffusion_name], f"diffusion '{diffusion_name}'"
    )

    deltas = get("run.deltas")
    if any(not d > 0.0 for d in deltas):
        raise ConfigError("'[run] deltas' must be positive")

    output_dir = merged.get("run.output_dir", "").strip() or None

    cfg = ExperimentConfig(
        name=name,
        grid=grid,
        paths=paths,
        particles=particles,
        iterations=iterations,
        seed=seed,
        threads=threads,
        output_dir=output_dir,
        scheme=scheme,
        membership_tol=membership_tol,
        operator_kind=op_kind,
        operator_params=op_params,
        initial_kind=init_kind,
        initial_params=init_params,
        drift_name=drift_name,
        drift_params=drift_params,
        diffusion_name=diffusion_name,
        diffusion_params=diffusion_params,
        deltas=tuple(deltas),
        resolved=dict(sorted(merged.items())),
    )

    # build the operator and the drift and check [initial] against the
    # operator's dimension now, so that these fail here rather than at
    # run time
    d = build_operator(cfg).dim
    try:
        drift = build_drift(cfg)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid parameters for drift '{drift_name}': {exc}") from exc
    if drift.dim != d:
        raise ConfigError(
            f"'[coefficients] drift' '{drift_name}' has dimension {drift.dim}, "
            f"operator needs {d}"
        )
    _initial_level(cfg, d)
    return cfg


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read, merge with the experiment's defaults, and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), overrides)


def render_config(cfg: ExperimentConfig) -> str:
    """Serialise the fully resolved configuration; loading the result
    reproduces the run (this is the manifest format)."""
    sections: dict[str, list[tuple[str, str]]] = {}
    for key, value in cfg.resolved.items():
        section, _, bare = key.partition(".")
        sections.setdefault(section, []).append((bare, value))
    order = ["experiment", "grid", "run", "solver", "operator", "initial", "coefficients"]
    lines = []
    for section in order + sorted(set(sections) - set(order)):
        if section not in sections:
            continue
        lines.append(f"[{section}]")
        for bare, value in sorted(sections[section]):
            lines.append(f"{bare} = {value}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_operator(cfg: ExperimentConfig) -> MonotoneOperatorSpec:
    kind = cfg.operator_kind
    p = cfg.operator_params
    try:
        if kind == "zero":
            return ZeroOperator(int(p["dim"]))
        if kind == "halfline":
            return NormalCone(HalfLine(p["lower"][0]))
        if kind == "box":
            return NormalCone(Box(p["lower"], p["upper"]))
        if kind == "ball":
            return NormalCone(Ball(p["center"], float(p["radius"])))
        if kind == "halfspace":
            return NormalCone(Halfspace(p["normal"], float(p["offset"])))
        if kind == "sign_graph":
            return Graph1D.sign()
    except MvsdeError as exc:
        raise ConfigError(f"invalid operator parameters: {exc}") from exc
    raise ConfigError(f"unknown operator kind '{kind}'")


def _initial_level(cfg: ExperimentConfig, d: int) -> np.ndarray | tuple[float, float]:
    """The checked ``[initial]`` parameters for a d-dimensional operator:
    the constant level (d,), or gaussian (mean, std)."""
    if cfg.initial_kind == "constant":
        v = np.asarray(cfg.initial_params.get("value", (1.0,)), dtype=float)
        if v.size == 1 and d > 1:
            v = np.full(d, float(v[0]))
        if v.size != d:
            raise ConfigError(
                f"'[initial] value' has dimension {v.size}, operator needs {d}"
            )
        return v
    std = float(cfg.initial_params.get("std", 0.5))
    if std < 0.0:
        raise ConfigError("'[initial] std' must be >= 0")
    return float(cfg.initial_params.get("mean", 1.0)), std


def build_initial_windows(
    cfg: ExperimentConfig,
    n: int,
    seed_key: RngKey | None = None,
    grid: TimeGrid | None = None,
) -> np.ndarray:
    """Initial windows (n, window, d): constant segments, optionally at
    sampled levels; sampled levels are projected into the constraint set.
    ``grid`` overrides the configured grid (refinement studies)."""
    if grid is None:
        grid = cfg.grid
    op = build_operator(cfg)
    d = op.dim
    level = _initial_level(cfg, d)
    if cfg.initial_kind == "constant":
        levels = np.tile(level, (n, 1))
    else:
        if seed_key is None:
            seed_key = RngKey(cfg.seed)
        gen = seed_key.child(INITIAL_DATA_STREAM).generator()
        mean, std = level
        levels = mean + std * gen.standard_normal((n, d))
    dom = operator_domain(op)
    if dom is not None:
        levels = project(dom, levels)
    return np.repeat(levels[:, None, :], grid.window_len, axis=1)


def build_drift(cfg: ExperimentConfig) -> Coefficient:
    name = cfg.drift_name
    p = cfg.drift_params
    d = build_operator(cfg).dim
    if name == "zero":
        return drift_zero(d)
    if name == "constant":
        return drift_constant(np.full(d, p.get("value", 0.0)))
    if name == "linear_delay":
        return drift_linear_delay(float(p.get("pull", 1.0)), float(p.get("push", 0.5)), d)
    if name == "log_lipschitz":
        return drift_log_lipschitz(LogModulus(float(p.get("branch", 0.25))))
    if name == "mf_linear":
        return mf_drift_linear(float(p.get("coupling", 1.0)), d)
    if name == "mf_second_moment":
        return mf_drift_second_moment(d)
    raise ConfigError(f"unknown drift coefficient '{name}'")


def build_diffusion(cfg: ExperimentConfig) -> Coefficient:
    name = cfg.diffusion_name
    value = float(cfg.diffusion_params.get("value", 1.0))
    d = build_operator(cfg).dim
    if name == "zero":
        return diffusion_zero(d, d)
    if name == "constant":
        return diffusion_constant(value, d, d)
    raise ConfigError(f"unknown diffusion coefficient '{name}'")
