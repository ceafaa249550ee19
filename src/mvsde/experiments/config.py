"""Experiment configuration: a small line-based format with
``[section]`` headers and ``key = value`` entries.

Each experiment has one declaration in ``DECLARATIONS``: description,
mean-field or not, defaults, the [run] keys it reads beyond the common
seed, threads and output_dir, with the least value of each, and the
choices its oracle fixes.  The parser and ``run_experiment`` both call
``check_declared``, so ``mvsde validate`` refuses what a run refuses.

Four keys each choose one entry of a catalogue: ``[operator] kind``,
``[initial] kind``, ``[coefficients] drift`` and ``[coefficients]
diffusion``.  Each entry declares its parameters once, with a type and
a default (or none, when the parameter is required), and the builder
that takes them.  Only the chosen entry's parameters are read; each
takes its value from the file, else from the experiment's defaults,
else from the catalogue.  An experiment default of an entry not chosen
is dropped, while a parameter the file writes for an entry not chosen
is an error, as is a [run] key the experiment does not declare.

Every key must be known; unknown sections, keys, experiment names,
choices, or malformed values raise ``ConfigError`` with a message
naming the offending entry.  Each experiment ships a complete default
configuration, so a file may contain as little as the experiment
name.  The resolved configuration holds exactly the keys the run
reads; it is what gets written to the run manifest, and feeding that
manifest back reproduces the run.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..coefficients import (
    Coefficient,
    ConstantDiffusion,
    ConstantDrift,
    LinearDelayDrift,
    LogLipschitzDrift,
    LogModulus,
    MeanFieldLinearDrift,
    MeanFieldSecondMomentDrift,
)
from ..errors import ConfigError, InvalidArgumentError
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

__all__ = [
    "ExperimentConfig",
    "CATALOGUE",
    "DECLARATIONS",
    "Experiment",
    "check_declared",
    "load_config",
    "parse_config_text",
    "render_config",
    "build_initial_windows",
    "build_drift",
    "build_diffusion",
]

# key -> (value type, default as written in a file) of the keys outside
# the catalogue; "vector" accepts a comma-separated float list.  A None
# default is given by the file or the declaration.  Of the [run] keys, an
# experiment reads the common ones, and those its declaration lists.
_KEYS: dict[str, tuple[str, str | None]] = {
    "experiment.name": ("str", None),
    "grid.dt": ("float", None),
    "grid.r0": ("float", None),
    "grid.horizon": ("float", None),
    "run.paths": ("int", None),
    "run.particles": ("int", None),
    "run.iterations": ("int", None),
    "run.seed": ("int", "20260816"),
    "run.threads": ("int", "1"),
    "run.output_dir": ("str", ""),
    "run.deltas": ("vector", None),
    "operator.kind": ("str", "zero"),
    "initial.kind": ("str", "constant"),
    "coefficients.drift": ("str", "zero"),
    "coefficients.diffusion": ("str", "constant"),
}

_COMMON_RUN = ("run.seed", "run.threads", "run.output_dir")


class Entry(NamedTuple):
    """One catalogue choice.

    ``params`` maps each parameter to its type and its default as
    written in a file, ``None`` when the parameter is required.
    ``build`` takes the parameters as keyword arguments, after the
    operator's dimension for every section but the operator itself.
    ``reads_law`` admits the entry to the mean-field experiments only
    (True), to the path experiments only (False), or to all (None).
    """

    params: dict[str, tuple[str, str | None]]
    build: Callable
    reads_law: bool | None = None


def _halfline(lower):
    if len(lower) != 1:
        raise ConfigError(
            f"'[operator] lower' for kind 'halfline' takes one value, got {len(lower)}"
        )
    return NormalCone(HalfLine(lower[0]))


def _constant_initial(d, value):
    """Levels sampler of a constant initial segment at ``value``,
    given as 1 or d entries."""
    v = np.asarray(value, dtype=float)
    if v.size == 1 and d > 1:
        v = np.full(d, float(v[0]))
    if v.size != d:
        raise ConfigError(f"'[initial] value' has dimension {v.size}, operator needs {d}")
    return lambda n, key: np.tile(v, (n, 1))


def _gaussian_initial(d, mean, std):
    """Levels sampler of initial segments at independent N(mean, std^2)
    levels, drawn from the INITIAL_DATA_STREAM child of the run key."""
    if std < 0.0:
        raise ConfigError("'[initial] std' must be >= 0")

    def sample(n, key):
        gen = key.child(INITIAL_DATA_STREAM).generator()
        return mean + std * gen.standard_normal((n, d))

    return sample


# choice key -> (prefix of its parameters' keys, label, entries)
CATALOGUE: dict[str, tuple[str, str, dict[str, Entry]]] = {
    "operator.kind": (
        "operator.",
        "operator kind",
        {
            "zero": Entry({"dim": ("int", "1")}, ZeroOperator),
            "halfline": Entry({"lower": ("vector", None)}, _halfline),
            "box": Entry(
                {"lower": ("vector", None), "upper": ("vector", None)},
                lambda lower, upper: NormalCone(Box(lower, upper)),
            ),
            "ball": Entry(
                {"center": ("vector", None), "radius": ("float", None)},
                lambda center, radius: NormalCone(Ball(center, radius)),
            ),
            "halfspace": Entry(
                {"normal": ("vector", None), "offset": ("float", None)},
                lambda normal, offset: NormalCone(Halfspace(normal, offset)),
            ),
            "sign_graph": Entry({}, Graph1D.sign),
        },
    ),
    "initial.kind": (
        "initial.",
        "initial kind",
        {
            "constant": Entry({"value": ("vector", "1.0")}, _constant_initial),
            "gaussian": Entry(
                {"mean": ("float", "1.0"), "std": ("float", "0.5")}, _gaussian_initial
            ),
        },
    ),
    "coefficients.drift": (
        "coefficients.drift.",
        "drift coefficient",
        {
            "zero": Entry({}, lambda d: ConstantDrift(np.zeros(d)), False),
            "constant": Entry(
                {"value": ("float", "0.0")},
                lambda d, value: ConstantDrift(np.full(d, value)),
                False,
            ),
            "linear_delay": Entry(
                {"pull": ("float", "1.0"), "push": ("float", "0.5")},
                lambda d, pull, push: LinearDelayDrift(pull, push, d),
                False,
            ),
            "log_lipschitz": Entry(
                {"branch": ("float", "0.25")},
                lambda d, branch: LogLipschitzDrift(LogModulus(branch)),
                False,
            ),
            "mf_linear": Entry(
                {"coupling": ("float", "1.0")},
                lambda d, coupling: MeanFieldLinearDrift(coupling, d),
                True,
            ),
            "mf_second_moment": Entry({}, MeanFieldSecondMomentDrift, True),
        },
    ),
    "coefficients.diffusion": (
        "coefficients.diffusion.",
        "diffusion coefficient",
        {
            "zero": Entry({}, lambda d: ConstantDiffusion(0.0, d, d)),
            "constant": Entry(
                {"value": ("float", "1.0")}, lambda d, value: ConstantDiffusion(value, d, d)
            ),
        },
    ),
}

class Experiment(NamedTuple):
    """One named experiment.  ``run`` maps each [run] key read beyond
    the common ones to its default and the least value it admits (for
    ``run.deltas``, the least number of values); ``defaults`` gives every
    other key's default.  ``fixed`` maps an ExperimentConfig field to the
    parsed value the experiment's oracle requires."""

    description: str
    meanfield: bool
    run: dict[str, tuple[str, int]]
    defaults: dict[str, str]
    fixed: dict[str, object] = {}


# the grid, constraint and start of the two reflection experiments
_REFLECTION = {
    "grid.dt": "0.001",
    "grid.r0": "0.0",
    "grid.horizon": "1.0",
    "operator.kind": "halfline",
    "operator.lower": "0.0",
    "initial.value": "0.0",
}

# a standard error needs two paths or particles
DECLARATIONS: dict[str, Experiment] = {
    # the closed-form targets are for driftless unit reflection at zero
    "reflected_bm_oracle": Experiment(
        "half-line reflection against the law of |W(1)|", False,
        {"run.paths": ("100000", 2)},
        _REFLECTION,
        {
            "operator": NormalCone(HalfLine(0.0)),
            "drift_name": "zero",
            "diffusion_name": "constant",
            "diffusion_params": {"value": 1.0},
            "initial_kind": "constant",
            "initial_params": {"value": (0.0,)},
        },
    ),
    "kvariation_stability": Experiment(
        "reflection-term variation under grid refinement", False,
        {"run.paths": ("20000", 2)},
        _REFLECTION,
    ),
    # max_ratio_n2_n6 needs a second ratio of iterate gaps, so three gaps
    "picard_contraction": Experiment(
        "geometric decay of successive path iterates", False,
        {"run.paths": ("1000", 2), "run.iterations": ("8", 4)},
        {
            "grid.dt": "0.001",
            "grid.r0": "0.02",
            "grid.horizon": "0.02",
            "coefficients.drift": "linear_delay",
            "coefficients.diffusion.value": "0.5",
        },
    ),
    # gaps_decreasing compares two ladder gaps or more
    "uniqueness": Experiment(
        "one noise, two iteration starts, one limit", False,
        {"run.paths": ("100", 1), "run.iterations": ("20", 2)},
        {
            "grid.dt": "0.005",
            "grid.r0": "0.05",
            "grid.horizon": "0.5",
            "operator.kind": "halfline",
            "operator.lower": "0.0",
            "coefficients.drift": "linear_delay",
            "coefficients.diffusion.value": "0.5",
        },
    ),
    # gaps_decreasing compares the responses to at least two deltas
    "continuity": Experiment(
        "dependence on the initial segment under a log modulus", False,
        {"run.paths": ("256", 2), "run.deltas": ("0.1, 0.01, 0.001", 2)},
        {
            "grid.dt": "0.005",
            "grid.r0": "0.05",
            "grid.horizon": "0.5",
            "initial.value": "0.5",
            "coefficients.drift": "log_lipschitz",
            "coefficients.diffusion.value": "0.3",
        },
    ),
    # the delayed-mean equation holds for the unconstrained linear
    # interaction with a constant history, in one dimension
    "delay_mean_oracle": Experiment(
        "particle mean against a delay ODE solved by steps", True,
        {"run.particles": ("10000", 2)},
        {
            "grid.dt": "0.01",
            "grid.r0": "0.5",
            "grid.horizon": "0.5",
            "coefficients.drift": "mf_linear",
            "coefficients.drift.coupling": "0.5",
            "coefficients.diffusion.value": "0.3",
        },
        {"operator": ZeroOperator(1), "drift_name": "mf_linear", "initial_kind": "constant"},
    ),
    # gaps_decreasing compares two flow gaps or more; round 0 gives none
    "distribution_iteration": Experiment(
        "law-flow iteration measured in Wasserstein-2", True,
        {"run.particles": ("256", 1), "run.iterations": ("9", 3)},
        {
            "grid.dt": "0.01",
            "grid.r0": "0.1",
            "grid.horizon": "1.0",
            "initial.kind": "gaussian",
            "coefficients.drift": "mf_linear",
            "coefficients.diffusion.value": "0.3",
        },
    ),
}

# the keys that set each ExperimentConfig field a declaration fixes
_FIXED_KEYS = {
    "operator": "[operator] kind",
    "initial_kind": "[initial] kind",
    "initial_params": "[initial] value",
    "drift_name": "[coefficients] drift",
    "diffusion_name": "[coefficients] diffusion",
    "diffusion_params": "[coefficients] diffusion.value",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked configuration; a [run] field not declared is None."""

    name: str
    grid: TimeGrid
    paths: int | None
    particles: int | None
    iterations: int | None
    seed: int
    threads: int
    output_dir: str | None
    operator: MonotoneOperatorSpec
    initial_kind: str
    initial_params: dict
    drift_name: str
    drift_params: dict
    diffusion_name: str
    diffusion_params: dict
    deltas: tuple[float, ...] | None
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


def _section_key(key: str) -> str:
    section, _, bare = key.partition(".")
    return f"[{section}] {bare}"


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and validate configuration text; see load_config."""
    cp = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    unread = _flatten(cp)
    if overrides:
        unread.update({k: str(v) for k, v in overrides.items()})

    name = unread.get("experiment.name")
    if not name:
        raise ConfigError("missing required key '[experiment] name'")
    if name not in DECLARATIONS:
        known = ", ".join(sorted(DECLARATIONS))
        raise ConfigError(f"unknown experiment '{name}'; known experiments: {known}")
    declared = DECLARATIONS[name]

    # each key read takes the file's value, else the experiment's
    # default, else the catalogue's; it is then no longer unread
    resolved: dict[str, str] = {}

    def get(key: str, kind: str, fallback: str | None = None):
        raw = unread.pop(key, declared.defaults.get(key, fallback))
        if raw is None:
            return None
        resolved[key] = raw
        return _convert(key, raw, kind)

    values = {
        key: get(key, kind, declared.run[key][0] if key in declared.run else fallback)
        for key, (kind, fallback) in _KEYS.items()
        if not key.startswith("run.") or key in _COMMON_RUN or key in declared.run
    }

    try:
        grid = TimeGrid(
            dt=values["grid.dt"], delay=values["grid.r0"], horizon=values["grid.horizon"]
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    if values["run.threads"] < 1:
        raise ConfigError("'[run] threads' must be a positive integer")
    if not (0 <= values["run.seed"] < 2**64):
        raise ConfigError("'[run] seed' must be an unsigned 64-bit integer")

    meanfield = declared.meanfield
    chosen = {}
    for key, (prefix, label, entries) in CATALOGUE.items():
        admitted = {n: e for n, e in entries.items() if e.reads_law in (None, meanfield)}
        choice = values[key]
        if choice not in admitted:
            raise ConfigError(f"unknown {label} '{choice}'; expected one of {tuple(admitted)}")
        params = {}
        for param, (kind, fallback) in admitted[choice].params.items():
            params[param] = get(prefix + param, kind, fallback)
            if params[param] is None:
                raise ConfigError(
                    f"{label} '{choice}' is missing parameter '{_section_key(prefix + param)}'"
                )
        chosen[key] = (choice, params)

    for key in unread:
        if key in _KEYS:
            raise ConfigError(
                f"'{_section_key(key)}' is not read by experiment '{name}'; delete it"
            )
        for choice_key, (prefix, label, entries) in CATALOGUE.items():
            if key.startswith(prefix):
                choice = chosen[choice_key][0]
                allowed = tuple(entries[choice].params)
                raise ConfigError(
                    f"unknown parameter '{key[len(prefix):]}' in '{_section_key(key)}' "
                    f"for {label} '{choice}'; allowed: {allowed or '()'}"
                )
        raise ConfigError(f"unknown config key '{_section_key(key)}'")

    op_kind, op_params = chosen["operator.kind"]
    try:
        operator = CATALOGUE["operator.kind"][2][op_kind].build(**op_params)
    except InvalidArgumentError as exc:
        keys = ", ".join(_section_key("operator." + p) for p in op_params)
        raise ConfigError(
            f"invalid operator parameters for kind '{op_kind}' ({keys}): {exc}"
        ) from exc

    cfg = ExperimentConfig(
        name=name,
        grid=grid,
        paths=values.get("run.paths"),
        particles=values.get("run.particles"),
        iterations=values.get("run.iterations"),
        seed=values["run.seed"],
        threads=values["run.threads"],
        output_dir=values["run.output_dir"] or None,
        operator=operator,
        initial_kind=chosen["initial.kind"][0],
        initial_params=chosen["initial.kind"][1],
        drift_name=chosen["coefficients.drift"][0],
        drift_params=chosen["coefficients.drift"][1],
        diffusion_name=chosen["coefficients.diffusion"][0],
        diffusion_params=chosen["coefficients.diffusion"][1],
        deltas=values.get("run.deltas"),
        resolved=dict(sorted(resolved.items())),
    )
    check_declared(cfg)

    # build the drift and check [initial] against the operator's
    # dimension now, so that these fail here rather than at run time
    try:
        drift = build_drift(cfg)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid parameters for drift '{cfg.drift_name}': {exc}") from exc
    if drift.dim != operator.dim:
        raise ConfigError(
            f"'[coefficients] drift' '{cfg.drift_name}' has dimension {drift.dim}, "
            f"operator needs {operator.dim}"
        )
    _initial_sampler(cfg)
    return cfg


def check_declared(cfg: ExperimentConfig) -> None:
    """Refuse a declared [run] value below its least, or a field the
    experiment's oracle fixes set otherwise; compares fields only.
    ``parse_config_text`` and ``run_experiment`` both call this."""
    declared = DECLARATIONS[cfg.name]
    for key, (_, least) in declared.run.items():
        value = getattr(cfg, key.partition(".")[2])
        if key == "run.deltas":
            # each delta names a record by its %g form
            names = {f"{d:g}" for d in value}
            if len(names) < max(len(value), least) or not all(d > 0.0 for d in value):
                raise ConfigError(
                    f"'[run] deltas' must hold at least {least} positive values with "
                    f"distinct %g forms for '{cfg.name}', got {value}"
                )
        elif value < least:
            raise ConfigError(
                f"'{_section_key(key)}' must be at least {least} for '{cfg.name}', got {value}"
            )
    for field_name, want in declared.fixed.items():
        got = getattr(cfg, field_name)
        if got != want:
            raise ConfigError(
                f"'{cfg.name}' fixes '{_FIXED_KEYS[field_name]}' to {want!r}, got {got!r}"
            )


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Read, merge with the experiment's defaults, and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text, overrides)


def render_config(cfg: ExperimentConfig) -> str:
    """Serialise the resolved configuration; loading the result
    reproduces the run (this is the manifest format)."""
    sections: dict[str, list[tuple[str, str]]] = {}
    for key, value in cfg.resolved.items():
        section, _, bare = key.partition(".")
        sections.setdefault(section, []).append((bare, value))
    lines = []
    for section in ("experiment", "grid", "run", "operator", "initial", "coefficients"):
        lines.append(f"[{section}]")
        for bare, value in sorted(sections[section]):
            lines.append(f"{bare} = {value}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build(key: str, choice: str, params: dict, *dim: int):
    return CATALOGUE[key][2][choice].build(*dim, **params)


def _initial_sampler(cfg: ExperimentConfig):
    """The checked ``[initial]`` entry as a sampler of levels: (n, key)
    -> (n, d)."""
    return _build("initial.kind", cfg.initial_kind, cfg.initial_params, cfg.operator.dim)


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
    levels = _initial_sampler(cfg)(n, RngKey(cfg.seed) if seed_key is None else seed_key)
    dom = operator_domain(cfg.operator)
    if dom is not None:
        levels = project(dom, levels)
    return np.repeat(levels[:, None, :], grid.window_len, axis=1)


def build_drift(cfg: ExperimentConfig) -> Coefficient:
    """A fresh drift of the configured entry, on every call."""
    return _build("coefficients.drift", cfg.drift_name, cfg.drift_params, cfg.operator.dim)


def build_diffusion(cfg: ExperimentConfig) -> Coefficient:
    """A fresh diffusion of the configured entry, on every call."""
    return _build(
        "coefficients.diffusion", cfg.diffusion_name, cfg.diffusion_params, cfg.operator.dim
    )
