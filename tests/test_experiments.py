"""Configuration parsing, result records, experiment runner, and CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from mvsde import ConfigError, InvalidArgumentError
from mvsde.experiments.cli import main
from mvsde.experiments.config import (
    CATALOGUE,
    DECLARATIONS,
    build_diffusion,
    build_drift,
    build_initial_windows,
    load_config,
    parse_config_text,
    render_config,
)
from mvsde.experiments.records import (
    ResultRecord,
    check_record,
    emit_outputs,
    info_record,
    read_results_jsonl,
    record_to_json,
)
from mvsde.experiments.runner import EXPERIMENTS, run_experiment
from mvsde.monotone import Ball, Box, Graph1D, HalfLine, NormalCone, ZeroOperator


def minimal(name: str, extra: str = "") -> str:
    return f"[experiment]\nname = {name}\n{extra}"


# ---------------------------------------------------------------------------
# Parsing and defaults
# ---------------------------------------------------------------------------


def test_minimal_config_resolves_experiment_defaults():
    cfg = parse_config_text(minimal("picard_contraction"))
    assert cfg.name == "picard_contraction"
    assert cfg.grid.dt == 1e-3
    assert cfg.grid.delay == 0.02
    assert cfg.grid.horizon == 0.02
    assert cfg.paths == 1000
    assert cfg.iterations == 8
    assert cfg.seed == 20260816
    assert cfg.threads == 1
    assert cfg.drift_name == "linear_delay"
    assert cfg.drift_params == {"pull": 1.0, "push": 0.5}
    assert cfg.diffusion_name == "constant"
    assert cfg.diffusion_params == {"value": 0.5}
    assert cfg.output_dir is None


def test_every_experiment_parses_from_name_alone():
    assert set(DECLARATIONS) == set(EXPERIMENTS)
    assert len(EXPERIMENTS) == 7
    for name in DECLARATIONS:
        cfg = parse_config_text(minimal(name))
        assert cfg.name == name
        assert cfg.grid.horizon > 0.0


def test_explicit_keys_override_defaults():
    text = minimal(
        "picard_contraction",
        "[run]\npaths = 32\nseed = 7\n[grid]\ndt = 0.002\n",
    )
    cfg = parse_config_text(text)
    assert cfg.paths == 32
    assert cfg.seed == 7
    assert cfg.grid.dt == 0.002


def test_overrides_argument_wins_over_file():
    cfg = parse_config_text(
        minimal("picard_contraction", "[run]\nseed = 7\n"),
        overrides={"run.seed": "99", "run.threads": "2"},
    )
    assert cfg.seed == 99
    assert cfg.threads == 2


def test_inline_comments_are_stripped():
    cfg = parse_config_text(
        minimal("picard_contraction", "[run]\npaths = 32  # small smoke run\n")
    )
    assert cfg.paths == 32


def test_missing_name_rejected():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config_text("[grid]\ndt = 0.01\n")


def test_unknown_experiment_lists_known_names():
    with pytest.raises(ConfigError, match="unknown experiment 'warp_drive'"):
        parse_config_text(minimal("warp_drive"))
    try:
        parse_config_text(minimal("warp_drive"))
    except ConfigError as exc:
        for name in DECLARATIONS:
            assert name in str(exc)


def test_unknown_key_names_section_and_key():
    with pytest.raises(ConfigError, match=r"unknown config key '\[run\] banana'"):
        parse_config_text(minimal("picard_contraction", "[run]\nbanana = 3\n"))


def test_value_type_errors_are_config_errors():
    with pytest.raises(ConfigError, match="not a valid int"):
        parse_config_text(minimal("picard_contraction", "[run]\npaths = many\n"))
    with pytest.raises(ConfigError, match="not a valid float"):
        parse_config_text(minimal("picard_contraction", "[grid]\ndt = tiny\n"))


def test_run_section_bounds():
    with pytest.raises(ConfigError, match=r"'\[run\] paths' must be at least 2"):
        parse_config_text(minimal("picard_contraction", "[run]\npaths = 0\n"))
    with pytest.raises(ConfigError, match=r"'\[run\] particles'"):
        parse_config_text(minimal("distribution_iteration", "[run]\nparticles = -4\n"))
    with pytest.raises(ConfigError, match=r"'\[run\] seed' must be an unsigned 64-bit"):
        parse_config_text(minimal("picard_contraction", "[run]\nseed = -1\n"))
    with pytest.raises(ConfigError, match=r"'\[run\] threads'"):
        parse_config_text(minimal("picard_contraction", "[run]\nthreads = 0\n"))
    with pytest.raises(ConfigError, match=r"'\[run\] deltas' must hold at least 2 positive"):
        parse_config_text(minimal("continuity", "[run]\ndeltas = 0.1, 0.0\n"))


def test_grid_errors_surface_as_config_errors():
    with pytest.raises(ConfigError, match="dt"):
        parse_config_text(minimal("picard_contraction", "[grid]\ndt = -0.01\n"))
    with pytest.raises(ConfigError):
        parse_config_text(
            minimal("picard_contraction", "[grid]\ndt = 0.3\nr0 = 0.5\nhorizon = 0.9\n")
        )


@pytest.mark.parametrize(
    "name, section, text, key",
    [
        ("continuity", "run", "deltas = inf, 0.1", "run.deltas"),
        ("continuity", "run", "deltas = 0.1, nan", "run.deltas"),
        ("picard_contraction", "initial", "value = inf", "initial.value"),
        ("distribution_iteration", "initial", "std = nan", "initial.std"),
        ("picard_contraction", "grid", "dt = nan", "grid.dt"),
        ("picard_contraction", "coefficients", "drift.pull = -inf", "coefficients.drift.pull"),
    ],
)
def test_non_finite_values_are_rejected_by_key(name, section, text, key):
    with pytest.raises(ConfigError, match=rf"'{re.escape(key)}' must be finite"):
        parse_config_text(minimal(name, f"[{section}]\n{text}\n"))


def test_operator_bounds_may_be_infinite():
    cfg = parse_config_text(
        minimal(
            "uniqueness",
            "[operator]\nkind = box\nlower = 0.0\nupper = inf\n",
        )
    )
    assert cfg.operator == NormalCone(Box((0.0,), (math.inf,)))


def test_operator_and_initial_validation():
    with pytest.raises(ConfigError, match="unknown operator kind"):
        parse_config_text(minimal("picard_contraction", "[operator]\nkind = torus\n"))
    with pytest.raises(ConfigError, match="missing parameter"):
        parse_config_text(minimal("picard_contraction", "[operator]\nkind = ball\n"))
    with pytest.raises(ConfigError, match="unknown initial kind"):
        parse_config_text(minimal("picard_contraction", "[initial]\nkind = cauchy\n"))


def test_coefficient_validation():
    with pytest.raises(ConfigError, match="unknown drift coefficient 'warp'"):
        parse_config_text(
            minimal("picard_contraction", "[coefficients]\ndrift = warp\n")
        )
    with pytest.raises(ConfigError, match="unknown diffusion coefficient"):
        parse_config_text(
            minimal("picard_contraction", "[coefficients]\ndiffusion = warp\n")
        )
    with pytest.raises(ConfigError, match="unknown parameter 'wobble'"):
        parse_config_text(
            minimal("picard_contraction", "[coefficients]\ndrift.wobble = 1\n")
        )


def test_drift_registry_keeps_path_and_meanfield_drifts_apart():
    with pytest.raises(ConfigError, match="unknown drift coefficient 'mf_linear'"):
        parse_config_text(minimal("picard_contraction", "[coefficients]\ndrift = mf_linear\n"))
    with pytest.raises(ConfigError, match="unknown drift coefficient 'linear_delay'"):
        parse_config_text(
            minimal("distribution_iteration", "[coefficients]\ndrift = linear_delay\n")
        )


def test_box_with_lower_above_upper_fails_validation(tmp_path, capsys):
    text = minimal("picard_contraction", "[operator]\nkind = box\nlower = 2\nupper = 1\n")
    with pytest.raises(ConfigError, match="invalid operator parameters"):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert "lower < upper" in capsys.readouterr().err


def test_scalar_drift_on_multidimensional_operator_fails_validation(tmp_path, capsys):
    text = minimal(
        "continuity",
        "[operator]\nkind = box\nlower = 0, 0\nupper = 1, 1\n"
        "[coefficients]\ndrift = log_lipschitz\n",
    )
    with pytest.raises(ConfigError, match=r"'\[coefficients\] drift' 'log_lipschitz'"):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert "[coefficients] drift" in capsys.readouterr().err


def test_invalid_drift_parameter_fails_validation():
    with pytest.raises(ConfigError, match="invalid parameters for drift 'log_lipschitz'"):
        parse_config_text(minimal("continuity", "[coefficients]\ndrift.branch = 0.5\n"))


def test_malformed_text_reported():
    with pytest.raises(ConfigError, match="malformed configuration"):
        parse_config_text("not an ini file at all\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(minimal("picard_contraction", "[run]\npaths = 16\n"))
    cfg = load_config(path)
    assert cfg.paths == 16
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------------------
# Rendering round-trip
# ---------------------------------------------------------------------------


def test_render_parse_round_trip_for_every_experiment():
    for name in DECLARATIONS:
        cfg = parse_config_text(minimal(name))
        text = render_config(cfg)
        again = parse_config_text(text)
        assert again.resolved == cfg.resolved
        assert render_config(again) == text


def test_render_round_trip_preserves_overrides():
    cfg = parse_config_text(
        minimal("uniqueness", "[run]\nseed = 31337\npaths = 12\n[grid]\ndt = 0.01\n")
    )
    again = parse_config_text(render_config(cfg))
    assert again.seed == 31337
    assert again.paths == 12
    assert again.grid.dt == 0.01
    assert again.resolved == cfg.resolved


def test_render_sections_are_ordered():
    text = render_config(parse_config_text(minimal("continuity")))
    headers = [line for line in text.splitlines() if line.startswith("[")]
    assert headers == [
        "[experiment]",
        "[grid]",
        "[run]",
        "[operator]",
        "[initial]",
        "[coefficients]",
    ]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_build_operator_kinds():
    cfg = parse_config_text(minimal("reflected_bm_oracle"))
    assert cfg.operator == NormalCone(HalfLine(0.0))

    cfg = parse_config_text(minimal("delay_mean_oracle"))
    assert cfg.operator == ZeroOperator(1)

    cfg = parse_config_text(
        minimal("picard_contraction", "[operator]\nkind = sign_graph\n")
    )
    assert cfg.operator == Graph1D.sign()

    cfg = parse_config_text(
        minimal(
            "picard_contraction",
            "[operator]\nkind = box\nlower = 0, 0\nupper = 1, 2\n"
            "[initial]\nvalue = 0.5, 0.5\n",
        )
    )
    assert cfg.operator == NormalCone(Box((0.0, 0.0), (1.0, 2.0)))

    cfg = parse_config_text(
        minimal("picard_contraction", "[operator]\nkind = ball\ncenter = 0\nradius = 2\n")
    )
    assert cfg.operator == NormalCone(Ball((0.0,), 2.0))


def test_build_operator_invalid_parameters():
    text = minimal("picard_contraction", "[operator]\nkind = ball\ncenter = 0\nradius = -1\n")
    with pytest.raises(ConfigError, match="invalid operator parameters"):
        parse_config_text(text)
    with pytest.raises(ConfigError, match=r"\[operator\] dim"):
        parse_config_text(minimal("picard_contraction", "[operator]\ndim = 0\n"))


def test_build_initial_windows_constant_and_projected():
    cfg = parse_config_text(minimal("uniqueness"))  # halfline at 0, value 1.0
    xi = build_initial_windows(cfg, 5)
    assert xi.shape == (5, cfg.grid.window_len, 1)
    assert np.all(xi == 1.0)

    # a constant level outside the constraint set is projected onto it
    cfg = parse_config_text(minimal("uniqueness", "[initial]\nvalue = -2.0\n"))
    assert np.all(build_initial_windows(cfg, 3) == 0.0)


def test_build_initial_windows_gaussian_deterministic():
    cfg = parse_config_text(minimal("distribution_iteration"))
    a = build_initial_windows(cfg, 64)
    b = build_initial_windows(cfg, 64)
    assert np.array_equal(a, b)
    # constant in time along the window axis
    assert np.array_equal(a[:, 0, :], a[:, -1, :])
    assert a.std() > 0.0

    other = parse_config_text(minimal("distribution_iteration", "[run]\nseed = 2\n"))
    assert not np.array_equal(build_initial_windows(other, 64), a)


def test_build_initial_dimension_mismatch():
    text = minimal(
        "picard_contraction",
        "[operator]\nkind = box\nlower = 0, 0\nupper = 1, 1\n"
        "[initial]\nvalue = 0.5, 0.5, 0.5\n",
    )
    with pytest.raises(ConfigError, match=r"'\[initial\] value' has dimension 3"):
        parse_config_text(text)
    # a config built around the parser still fails in the builder
    cfg = dataclasses.replace(
        parse_config_text(minimal("picard_contraction")),
        initial_params={"value": (0.5, 0.5)},
    )
    with pytest.raises(ConfigError, match="dimension"):
        build_initial_windows(cfg, 2)


@pytest.mark.parametrize(
    "name, body, key",
    [
        ("distribution_iteration", "[initial]\nstd = -1\n", r"'\[initial\] std'"),
        (
            "picard_contraction",
            "[operator]\nkind = box\nlower = 0, 0\nupper = 1, 1\n[initial]\nvalue = 1, 2, 3\n",
            r"'\[initial\] value'",
        ),
    ],
)
def test_bad_initial_fails_validation(tmp_path, capsys, name, body, key):
    text = minimal(name, body)
    with pytest.raises(ConfigError, match=key):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert "[initial]" in capsys.readouterr().err


def test_halfline_with_two_lower_entries_fails_validation(tmp_path, capsys):
    text = minimal("uniqueness", "[operator]\nkind = halfline\nlower = 0.5, 7\n")
    with pytest.raises(ConfigError, match=r"'\[operator\] lower'"):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert "[operator] lower" in capsys.readouterr().err
    cfg = parse_config_text(minimal("uniqueness", "[operator]\nkind = halfline\nlower = 0.5\n"))
    assert cfg.operator == NormalCone(HalfLine(0.5))


# below these, picard_contraction has no max_ratio_n2_n6 record and
# distribution_iteration's gaps_decreasing passes over a single gap
@pytest.mark.parametrize(
    "name, least", [("picard_contraction", 4), ("distribution_iteration", 3)]
)
def test_too_few_iterations_fail_validation(tmp_path, capsys, name, least):
    text = minimal(name, f"[run]\niterations = {least - 1}\n")
    with pytest.raises(ConfigError, match=rf"'\[run\] iterations' must be at least {least}"):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert "[run] iterations" in capsys.readouterr().err
    cfg = parse_config_text(minimal(name, f"[run]\niterations = {least}\n"))
    assert cfg.iterations == least
    # an experiment without a minimum takes a single iteration
    assert parse_config_text(minimal("uniqueness", "[run]\niterations = 1\n")).iterations == 1


def test_initial_accepts_zero_std_and_a_broadcast_value():
    cfg = parse_config_text(minimal("distribution_iteration", "[initial]\nstd = 0\n"))
    assert np.all(build_initial_windows(cfg, 4) == 1.0)
    cfg = parse_config_text(
        minimal(
            "picard_contraction",
            "[operator]\nkind = box\nlower = 0, 0\nupper = 1, 1\n[initial]\nvalue = 0.5\n",
        )
    )
    assert np.all(build_initial_windows(cfg, 2) == 0.5)


def test_build_coefficients_match_config():
    cfg = parse_config_text(minimal("continuity"))
    f = build_drift(cfg)
    g = build_diffusion(cfg)
    assert f.dim == 1 and g.width == 1
    # the log-Lipschitz drift at its default branch, bounded by kappa(1)
    from mvsde.coefficients import LogModulus, eval_kappa

    windows = np.linspace(-3.0, 3.0, 7)[:, None, None] * np.ones((1, cfg.grid.window_len, 1))
    out = f.eval_batch(0.0, windows, None, cfg.grid)
    assert np.all(np.abs(out) <= eval_kappa(LogModulus(0.25), 1.0))

    mf = parse_config_text(minimal("delay_mean_oracle"))
    from mvsde.coefficients import Coefficient

    assert isinstance(build_drift(mf), Coefficient)
    assert isinstance(build_diffusion(mf), Coefficient)


# ---------------------------------------------------------------------------
# Catalogue: every choice reachable, every manifest exact
# ---------------------------------------------------------------------------

# per experiment: a size at which one run takes a few milliseconds
SWEEP_SIZE = {
    "reflected_bm_oracle": "[run]\npaths = 64\n[grid]\ndt = 0.05\n",
    "kvariation_stability": "[run]\npaths = 64\n[grid]\ndt = 0.05\n",
    "picard_contraction": "[run]\npaths = 16\n",
    "uniqueness": "[run]\npaths = 8\niterations = 4\n",
    "continuity": "[run]\npaths = 16\n",
    "delay_mean_oracle": "[run]\nparticles = 64\n",
    "distribution_iteration": "[run]\nparticles = 16\niterations = 3\n[grid]\ndt = 0.05\n",
}

# the required parameters of each operator kind, in one dimension
SWEEP_OPERATOR_PARAMS = {
    "halfline": "lower = 0\n",
    "box": "lower = 0\nupper = 2\n",
    "ball": "center = 0\nradius = 2\n",
    "halfspace": "normal = 1\noffset = 2\n",
}

# (experiment, choice key, choice) -> the key named by the refusal of a
# choice that the experiment's oracle fixes otherwise
SWEEP_REFUSED = {
    **{
        ("reflected_bm_oracle", "operator.kind", kind): "[operator] kind"
        for kind in ("zero", "box", "ball", "halfspace", "sign_graph")
    },
    ("reflected_bm_oracle", "initial.kind", "gaussian"): "[initial] kind",
    **{
        ("reflected_bm_oracle", "coefficients.drift", drift): "[coefficients] drift"
        for drift in ("constant", "linear_delay", "log_lipschitz")
    },
    ("reflected_bm_oracle", "coefficients.diffusion", "zero"): "[coefficients] diffusion",
    **{
        ("delay_mean_oracle", "operator.kind", kind): "[operator] kind"
        for kind in ("halfline", "box", "ball", "halfspace", "sign_graph")
    },
    ("delay_mean_oracle", "initial.kind", "gaussian"): "[initial] kind",
    ("delay_mean_oracle", "coefficients.drift", "mf_second_moment"): "[coefficients] drift",
}


def _run_and_read_back(cfg, out_dir):
    records = run_experiment(cfg)
    written = emit_outputs(records, str(out_dir), config_text=render_config(cfg))
    assert read_results_jsonl(written["results"]) == records
    return records


@pytest.mark.parametrize("name", sorted(SWEEP_SIZE))
def test_every_admitted_choice_runs_or_meets_a_named_guard(tmp_path, capsys, name):
    # one axis at a time: each choice an experiment admits either runs to
    # a complete results.jsonl or is refused, by the parser and by
    # `mvsde validate`, with the key its declaration fixes named
    meanfield = DECLARATIONS[name].meanfield
    for key, (prefix, label, entries) in CATALOGUE.items():
        section, _, bare = key.partition(".")
        for choice, entry in entries.items():
            if entry.reads_law not in (None, meanfield):
                continue
            params = SWEEP_OPERATOR_PARAMS.get(choice, "") if section == "operator" else ""
            text = minimal(name, SWEEP_SIZE[name] + f"[{section}]\n{bare} = {choice}\n{params}")
            fixed_key = SWEEP_REFUSED.get((name, key, choice))
            if fixed_key is None:
                _run_and_read_back(parse_config_text(text), tmp_path / f"{section}-{choice}")
                continue
            with pytest.raises(ConfigError, match=re.escape(f"fixes '{fixed_key}'")):
                parse_config_text(text)
            assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
            assert f"'{fixed_key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, body, key",
    [
        ("reflected_bm_oracle", "[operator]\nlower = 0.5\n", "[operator] kind"),
        ("reflected_bm_oracle", "[initial]\nvalue = 1\n", "[initial] value"),
        (
            "reflected_bm_oracle",
            "[coefficients]\ndiffusion.value = 0.5\n",
            "[coefficients] diffusion.value",
        ),
        ("delay_mean_oracle", "[operator]\ndim = 2\n", "[operator] kind"),
    ],
)
def test_a_parameter_the_oracle_fixes_is_refused_by_key(name, body, key):
    with pytest.raises(ConfigError, match=re.escape(f"'{name}' fixes '{key}'")):
        parse_config_text(minimal(name, body))


def test_fixed_choices_compare_parsed_values():
    for body in ("[operator]\nlower = 0\n", "[operator]\nlower = 0.0\n[initial]\nvalue = 0\n"):
        cfg = parse_config_text(minimal("reflected_bm_oracle", body))
        assert cfg.operator == NormalCone(HalfLine(0.0))
    # delay_mean_oracle leaves the coupling and the constant level free
    cfg = parse_config_text(
        minimal(
            "delay_mean_oracle",
            "[coefficients]\ndrift.coupling = 0.25\n[initial]\nvalue = 2\n",
        )
    )
    assert cfg.drift_params == {"coupling": 0.25} and cfg.initial_params == {"value": (2.0,)}


def _declared_keys(cfg):
    keys = {
        "experiment.name", "grid.dt", "grid.r0", "grid.horizon", "run.seed", "run.threads",
        "run.output_dir",
    }
    keys.update(DECLARATIONS[cfg.name].run)
    for key, (prefix, _, entries) in CATALOGUE.items():
        keys.add(key)
        keys.update(prefix + p for p in entries[cfg.resolved[key]].params)
    return keys


@pytest.mark.parametrize(
    "name, body",
    [(name, "") for name in sorted(DECLARATIONS)]
    + [
        ("continuity", "[initial]\nkind = gaussian\n"),
        ("picard_contraction", "[coefficients]\ndrift = zero\ndiffusion = zero\n"),
        ("uniqueness", "[operator]\nkind = ball\ncenter = 0\nradius = 2\n"),
        ("distribution_iteration", "[initial]\nkind = constant\n"),
    ],
)
def test_manifest_holds_exactly_the_keys_the_run_reads(name, body):
    cfg = parse_config_text(minimal(name, body))
    assert set(cfg.resolved) == _declared_keys(cfg)
    if not body:
        # at its defaults, every default the declaration gives is read
        assert set(DECLARATIONS[name].defaults) <= set(cfg.resolved)


def test_an_undeclared_run_key_is_refused_by_name(tmp_path, capsys):
    for name, key in (
        ("distribution_iteration", "paths"),
        ("delay_mean_oracle", "iterations"),
        ("reflected_bm_oracle", "iterations"),
        ("reflected_bm_oracle", "particles"),
        ("reflected_bm_oracle", "deltas"),
        ("picard_contraction", "deltas"),
        ("continuity", "iterations"),
    ):
        text = minimal(name, f"[run]\n{key} = {'0.5' if key == 'deltas' else '3'}\n")
        with pytest.raises(ConfigError, match=re.escape(f"'[run] {key}' is not read by")):
            parse_config_text(text)
        assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
        assert f"'[run] {key}'" in capsys.readouterr().err
    # the common keys are read by every experiment, whether it uses
    # threads or not (results never depend on it)
    for name in DECLARATIONS:
        cfg = parse_config_text(minimal(name, "[run]\nthreads = 2\nseed = 5\n"))
        assert (cfg.threads, cfg.seed) == (2, 5)
        assert cfg.resolved["run.threads"] == "2"
        for bare in ("paths", "particles", "iterations", "deltas"):
            declared = f"run.{bare}" in DECLARATIONS[name].run
            assert (getattr(cfg, bare) is not None) == declared


def test_switched_choices_resolve_catalogue_defaults():
    cfg = parse_config_text(minimal("continuity", "[initial]\nkind = gaussian\n"))
    assert cfg.resolved["initial.mean"] == "1.0" and cfg.resolved["initial.std"] == "0.5"
    assert "initial.value" not in cfg.resolved
    assert cfg.initial_params == {"mean": 1.0, "std": 0.5}
    # a default of an entry not chosen is dropped, not rejected
    cfg = parse_config_text(minimal("continuity", "[coefficients]\ndrift = linear_delay\n"))
    assert cfg.drift_params == {"pull": 1.0, "push": 0.5}
    assert "coefficients.drift.branch" not in cfg.resolved
    cfg = parse_config_text(minimal("reflected_bm_oracle"))
    assert "operator.dim" not in cfg.resolved
    cfg = parse_config_text(minimal("uniqueness", "[coefficients]\ndiffusion = zero\n"))
    assert cfg.diffusion_params == {}
    assert "coefficients.diffusion.value" not in cfg.resolved


@pytest.mark.parametrize(
    "name, body, key",
    [
        (
            "picard_contraction",
            "[coefficients]\ndrift = zero\ndrift.pull = 1.0\n",
            "[coefficients] drift.pull",
        ),
        ("continuity", "[initial]\nkind = gaussian\nvalue = 0.5\n", "[initial] value"),
        ("uniqueness", "[operator]\nradius = 1\n", "[operator] radius"),
        # manifests written while [solver] existed, and halfline's dim
        ("picard_contraction", "[solver]\nscheme = resolvent_step\n", "[solver] scheme"),
        ("picard_contraction", "[solver]\nmembership_tol = 1e-9\n", "[solver] membership_tol"),
        ("uniqueness", "[operator]\ndim = 1\n", "[operator] dim"),
        # manifests written while every experiment resolved every [run] key
        (
            "delay_mean_oracle",
            "[run]\ndeltas = 0.1, 0.01, 0.001\niterations = 8\npaths = 1000\n",
            "[run] deltas",
        ),
    ],
)
def test_a_key_the_run_would_not_read_is_refused_by_name(name, body, key):
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        parse_config_text(minimal(name, body))


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


def test_check_record_pass_and_fail():
    ok = check_record("exp", "m", 1.005, 1.0, 0.01)
    assert ok.passed is True
    bad = check_record("exp", "m", 1.05, 1.0, 0.01)
    assert bad.passed is False
    edge = check_record("exp", "m", 1.25, 1.0, 0.25)
    assert edge.passed is True  # the tolerance bound is inclusive


def test_info_record_always_passes():
    rec = info_record("exp", "m", 3.5, std_error=0.1)
    assert rec.passed is True
    assert math.isinf(rec.tolerance)


def test_inconsistent_record_rejected():
    with pytest.raises(InvalidArgumentError):
        ResultRecord(
            experiment="exp",
            metric="m",
            value=2.0,
            std_error=0.0,
            target=1.0,
            tolerance=0.1,
            passed=True,
        )


def test_record_json_round_trip():
    rec = check_record("exp", "gap", 0.25, 0.2, 0.1, std_error=0.01)
    line = record_to_json(rec)
    payload = json.loads(line)
    assert list(payload) == sorted(payload)
    assert "wall_seconds" not in payload
    assert payload["passed"] is True


def test_info_record_serialises_tolerance_as_null():
    line = record_to_json(info_record("exp", "m", 1.0))
    assert json.loads(line)["tolerance"] is None


def test_read_results_round_trip_ignores_wall_time(tmp_path):
    records = [
        check_record("exp", "a", 1.0, 1.0, 0.5, std_error=0.1),
        info_record("exp", "b", -2.5),
    ]
    records[0].wall_seconds = 9.0
    paths = emit_outputs(records, str(tmp_path))
    loaded = read_results_jsonl(paths["results"])
    assert loaded == records  # wall_seconds excluded from equality
    assert all(rec.wall_seconds == 0.0 for rec in loaded)


def test_emit_outputs_files(tmp_path):
    records = [info_record("exp", "m", 1.0)]
    paths = emit_outputs(records, str(tmp_path), config_text="[experiment]\nname = x\n")
    assert os.path.basename(paths["results"]) == "results.jsonl"
    with open(paths["results"]) as fh:
        assert len(fh.readlines()) == 1
    with open(paths["manifest"]) as fh:
        assert fh.read() == "[experiment]\nname = x\n"
    with open(paths["timings"]) as fh:
        assert "exp/m:" in fh.read()


def test_emit_outputs_writes_nothing_when_a_record_cannot_be_serialised(tmp_path):
    records = [info_record("exp", "a", 1.0), info_record("exp", "b", math.inf)]
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_outputs(records, str(tmp_path / "out"))
    assert not (tmp_path / "out" / "results.jsonl").exists()


def test_emit_outputs_empty_record_list(tmp_path):
    paths = emit_outputs([], str(tmp_path))
    with open(paths["results"]) as fh:
        assert fh.read() == ""
    assert read_results_jsonl(paths["results"]) == []


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

FAST_PICARD = minimal(
    "picard_contraction", "[run]\npaths = 64\niterations = 4\n[grid]\ndt = 0.002\n"
)


def test_run_experiment_is_deterministic_in_process():
    cfg = parse_config_text(FAST_PICARD)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first == second  # wall_seconds is excluded from comparison
    assert [r.experiment for r in first] == ["picard_contraction"] * len(first)


def test_run_experiment_thread_count_does_not_change_records():
    base = parse_config_text(
        minimal("reflected_bm_oracle", "[run]\npaths = 10240\n[grid]\ndt = 0.01\n")
    )
    threaded = parse_config_text(
        minimal(
            "reflected_bm_oracle",
            "[run]\npaths = 10240\nthreads = 4\n[grid]\ndt = 0.01\n",
        )
    )
    assert run_experiment(base) == run_experiment(threaded)


# reflected_bm_oracle at 8200 paths (three path chunks, the last one
# ragged) and dt 0.05: (value, standard error) of every record.  The
# values are as computed before integrate's path tiles; the variation's
# standard error moved by two units in the last place when the variation
# came to be summed block by block as integrate advances
GOLDEN_REFLECTED_BM = [
    ("terminal_mean", "0x1.56ac0ad0d0924p-1", "0x1.b0f49cff88a90p-8"),
    ("terminal_second_moment", "0x1.9c8eba5b82befp-1", "0x1.cf8910bc5e123p-7"),
    ("reflection_variation_mean", "0x1.5bec34bd1f86bp-1", "0x1.b2f67b36f6f94p-8"),
    ("folded_terminal_mean", "0x1.9fef8241aa3dbp-1", "0x1.b45aac153725cp-8"),
    ("folded_terminal_second_moment", "0x1.05ff8fc4e66bap+0", "0x1.fbefffc47ce29p-7"),
    ("folded_local_time_mean", "0x1.97888298476dbp-1", "0x1.b51f7b72c6da0p-8"),
]


@pytest.mark.parametrize("threads", [1, 2])
def test_reflected_bm_oracle_records_golden(threads):
    cfg = parse_config_text(
        minimal(
            "reflected_bm_oracle",
            f"[run]\npaths = 8200\nthreads = {threads}\n[grid]\ndt = 0.05\n",
        )
    )
    records = run_experiment(cfg)
    got = [(r.metric, r.value.hex(), r.std_error.hex()) for r in records]
    assert got == GOLDEN_REFLECTED_BM


# kvariation_stability at 8200 paths (three path chunks per grid, the
# last one ragged) and dt 0.05: (value, standard error) of every record,
# as computed before the terminal-only chunk solves, except the half-grid
# standard error, which moved by one unit in the last place when the
# variation came to be summed block by block as integrate advances
GOLDEN_KVARIATION = [
    ("variation_mean_base_dt", "0x1.6140d0bea1f24p-1", "0x1.ba028daab5c3ap-8"),
    ("variation_mean_half_dt", "0x1.67d0cbf25e192p-1", "0x1.afdcc0db7545cp-8"),
    ("relative_change", "0x1.305e16a58d181p-6", None),
]


@pytest.mark.parametrize("threads", [1, 2])
def test_kvariation_stability_records_golden(threads):
    cfg = parse_config_text(
        minimal(
            "kvariation_stability",
            f"[run]\npaths = 8200\nthreads = {threads}\n[grid]\ndt = 0.05\n",
        )
    )
    records = run_experiment(cfg)
    got = [
        (r.metric, r.value.hex(), None if r.std_error is None else r.std_error.hex())
        for r in records
    ]
    assert got == GOLDEN_KVARIATION


def _records_hex(text: str) -> list[tuple]:
    return [
        (r.metric, r.value.hex(), None if r.std_error is None else r.std_error.hex())
        for r in run_experiment(parse_config_text(text))
    ]


# delay_mean_oracle at 256 particles, which runs the self-consistent
# solve: (value, standard error) of every record, as computed while laws
# were read through named moments and law flows were wrapped in objects
GOLDEN_DELAY_MEAN = [
    ("mean_max_deviation", "0x1.71e3da7a6e680p-7", "0x1.49da64404d2b1p-7"),
    ("mean_max_deviation_full", "0x1.71e3e5b825e00p-7", "0x1.49da64404d2b1p-7"),
    ("oracle_routes_gap", "0x1.b255a18000000p-28", None),
    ("terminal_mean", "0x1.996fd55f5ac66p-1", "0x1.47e347c71912ep-7"),
]


def test_delay_mean_oracle_records_golden():
    got = _records_hex(minimal("delay_mean_oracle", "[run]\nparticles = 256\n"))
    assert got == GOLDEN_DELAY_MEAN


# distribution_iteration under mf_second_moment, a drift that reads the
# whole segment law and that no default run uses, at 64 particles, four
# rounds, dt 0.02 and horizon 0.3: the records as computed while laws
# were read through named moments and law flows were wrapped in objects
GOLDEN_SECOND_MOMENT_ITERATION = [
    ("flow_gap_01", "0x1.b946941e2aa66p-10", None),
    ("flow_gap_02", "0x1.5637d8f68d7a9p-15", None),
    ("flow_gap_03", "0x1.4fd22d749a29cp-21", None),
    ("gaps_decreasing", "0x1.8d10f7081a944p-6", None),
    ("final_gap", "0x1.4fd22d749a29cp-21", None),
]


def test_distribution_iteration_second_moment_records_golden():
    got = _records_hex(
        minimal(
            "distribution_iteration",
            "[run]\nparticles = 64\niterations = 4\n"
            "[grid]\ndt = 0.02\nr0 = 0.1\nhorizon = 0.3\n"
            "[coefficients]\ndrift = mf_second_moment\n",
        )
    )
    assert got == GOLDEN_SECOND_MOMENT_ITERATION


def test_parsing_a_config_does_not_import_scipy_optimize():
    # scipy.optimize is loaded by the first Wasserstein-2 solve only
    code = (
        "import sys\n"
        "import mvsde.experiments as e\n"
        "e.parse_config_text('[experiment]\\nname = distribution_iteration\\n')\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_runner_guards_reject_mismatched_configs():
    # the parser refuses what the experiment's declaration does not admit
    with pytest.raises(ConfigError, match=r"fixes '\[coefficients\] drift'"):
        parse_config_text(
            minimal("reflected_bm_oracle", "[coefficients]\ndrift = constant\ndrift.value = 1\n")
        )
    with pytest.raises(ConfigError, match=r"fixes '\[operator\] kind'"):
        parse_config_text(minimal("delay_mean_oracle", "[operator]\nkind = halfline\nlower = 0\n"))
    with pytest.raises(ConfigError, match=r"'\[run\] iterations'"):
        parse_config_text(FAST_PICARD, overrides={"run.iterations": "3"})

    # a config built around the parser meets the same check in the runner
    few_iters = dataclasses.replace(parse_config_text(FAST_PICARD), iterations=3)
    with pytest.raises(ConfigError, match=r"'\[run\] iterations' must be at least 4"):
        run_experiment(few_iters)
    one_gap = dataclasses.replace(
        parse_config_text(minimal("distribution_iteration")), iterations=2
    )
    with pytest.raises(ConfigError, match=r"'\[run\] iterations' must be at least 3"):
        run_experiment(one_gap)
    reflected = parse_config_text(minimal("reflected_bm_oracle", "[run]\npaths = 4\n"))
    for field_name, value, key in (
        ("drift_name", "constant", "[coefficients] drift"),
        ("operator", ZeroOperator(1), "[operator] kind"),
        ("diffusion_params", {"value": 2.0}, "[coefficients] diffusion.value"),
        ("initial_params", {"value": (1.0,)}, "[initial] value"),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"fixes '{key}'")):
            run_experiment(dataclasses.replace(reflected, **{field_name: value}))
    one_delta = dataclasses.replace(parse_config_text(minimal("continuity")), deltas=(0.1,))
    with pytest.raises(ConfigError, match=r"'\[run\] deltas' must hold at least 2 positive"):
        run_experiment(one_delta)


@pytest.mark.parametrize(
    "name, body, message",
    [
        # one response: gaps_decreasing would pass over nothing
        (
            "continuity",
            "[run]\ndeltas = 0.1\n",
            "'[run] deltas' must hold at least 2 positive values",
        ),
        # two records both named mean_sup_sq_delta_0.1
        ("continuity", "[run]\ndeltas = 0.1, 0.1\n", "with distinct %g forms"),
        ("continuity", "[run]\ndeltas = 0.1, 0.1000000001\n", "with distinct %g forms"),
    ],
)
def test_run_sizes_that_leave_a_check_without_evidence_are_refused(
    tmp_path, capsys, name, body, message
):
    text = minimal(name, body)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert message in capsys.readouterr().err


def test_two_deltas_give_two_named_responses():
    cfg = parse_config_text(minimal("continuity", "[run]\npaths = 8\ndeltas = 0.1, 0.05\n"))
    metrics = [r.metric for r in run_experiment(cfg)]
    assert metrics == [
        "mean_sup_sq_delta_0.1",
        "mean_sup_sq_delta_0.05",
        "gaps_decreasing",
        "residual_after_reduction",
    ]


def test_picard_records_shape():
    records = run_experiment(parse_config_text(FAST_PICARD))
    metrics = [r.metric for r in records]
    assert metrics[0] == "fitted_horizon"
    assert "iterate_gap_01" in metrics
    assert metrics[-1] == "gaps_decreasing"
    assert "max_ratio_n2_n6" in metrics
    by_name = {r.metric: r for r in records}
    assert by_name["max_ratio_n2_n6"].passed
    assert by_name["gaps_decreasing"].passed


def test_wall_seconds_attached_by_dispatch():
    records = run_experiment(parse_config_text(FAST_PICARD))
    assert all(r.wall_seconds > 0.0 for r in records)
    assert len({r.wall_seconds for r in records}) == 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in DECLARATIONS:
        assert name in out


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_table(header: str) -> list[list[str]]:
    """Body rows of the README table whose header row starts with
    ``header``, as lists of cells with escaped pipes restored."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append([cell.strip().replace("\\|", "|") for cell in cells])
    return rows


def test_readme_tables_match_the_declarations():
    # a new experiment's declaration must reach both README tables
    described = {name.strip("`"): text for name, text in _readme_table("| name ")}
    assert described == {name: d.description for name, d in DECLARATIONS.items()}
    run_keys = {}
    for name, keys in _readme_table("| experiment | `[run]` keys"):
        pairs = re.findall(r"`(\w+)` \((\d+)\)", keys)
        run_keys[name.strip("`")] = {f"run.{key}": int(least) for key, least in pairs}
    assert run_keys == {
        name: {key: least for key, (_, least) in d.run.items()} for name, d in DECLARATIONS.items()
    }


def test_cli_validate_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST_PICARD)
    assert main(["validate", "--config", path]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal("warp_drive"))
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "warp_drive" in err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_writes_outputs_and_reports(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST_PICARD)
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "PASS  picard_contraction/max_ratio_n2_n6" in out
    assert "results in" in out
    for fname in ("results.jsonl", "manifest.cfg", "timings.txt"):
        assert os.path.exists(os.path.join(out_dir, fname))
    records = read_results_jsonl(os.path.join(out_dir, "results.jsonl"))
    assert any(r.metric == "max_ratio_n2_n6" and r.passed for r in records)


def test_cli_manifest_rerun_is_byte_identical(tmp_path):
    path = write_cfg(tmp_path, FAST_PICARD)
    first = str(tmp_path / "a")
    second = str(tmp_path / "b")
    assert main(["run", "--config", path, "--out", first]) == 0
    manifest = os.path.join(first, "manifest.cfg")
    assert main(["run", "--config", manifest, "--out", second]) == 0
    with open(os.path.join(first, "results.jsonl"), "rb") as fh:
        blob_a = fh.read()
    with open(os.path.join(second, "results.jsonl"), "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b


def test_cli_seed_override_changes_results(tmp_path):
    path = write_cfg(tmp_path, FAST_PICARD)
    base = str(tmp_path / "base")
    alt = str(tmp_path / "alt")
    assert main(["run", "--config", path, "--out", base]) == 0
    assert main(["run", "--config", path, "--out", alt, "--seed", "7"]) == 0
    a = read_results_jsonl(os.path.join(base, "results.jsonl"))
    b = read_results_jsonl(os.path.join(alt, "results.jsonl"))
    assert [r.metric for r in a] == [r.metric for r in b]
    assert a != b


def test_cli_exit_one_on_failing_record(tmp_path, capsys):
    # at this step size the projection bias exceeds the shipped tolerances,
    # so the run must report failures and exit nonzero
    path = write_cfg(
        tmp_path,
        minimal("reflected_bm_oracle", "[run]\npaths = 4000\n[grid]\ndt = 0.02\n"),
    )
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "FAIL  reflected_bm_oracle/" in out


@pytest.mark.parametrize(
    "name, body",
    [
        # flow gaps 9 and 10 are both exactly 0
        ("distribution_iteration", "[run]\niterations = 11\n"),
        # the base-grid variation mean is exactly 0 and the half-grid one is not
        (
            "kvariation_stability",
            "[operator]\nkind = halfspace\nnormal = 1, 0\noffset = 2\n"
            "[initial]\nvalue = 0.5\n[run]\npaths = 16\n[grid]\ndt = 0.05\n",
        ),
        # every iterate gap is 0
        ("picard_contraction", "[coefficients]\ndrift.pull = 0\ndrift.push = 0\n"),
        ("picard_contraction", "[coefficients]\ndrift = zero\n"),
        ("picard_contraction", "[coefficients]\ndrift = constant\n"),
        # no known Lipschitz constant
        ("picard_contraction", "[coefficients]\ndrift = log_lipschitz\n"),
    ],
)
def test_zero_gaps_give_a_complete_results_file(tmp_path, capsys, name, body):
    out_dir = tmp_path / "out"
    path = write_cfg(tmp_path, minimal(name, body))
    assert main(["run", "--config", path, "--out", str(out_dir)]) in (0, 1)
    summary = capsys.readouterr().out.splitlines()[-1]
    records = read_results_jsonl(out_dir / "results.jsonl")
    assert summary.startswith(f"{sum(r.passed for r in records)}/{len(records)} records passed")
    assert all(math.isfinite(r.value) for r in records)
    by_name = {r.metric: r for r in records}
    if name == "kvariation_stability":
        # a change from a zero mean is no agreement
        assert by_name["relative_change"].value == 1.0
        assert not by_name["relative_change"].passed
    else:
        # already at the fixed point counts as a decrease
        assert by_name["gaps_decreasing"].passed


@pytest.mark.parametrize(
    "name, key", [("delay_mean_oracle", "particles"), ("picard_contraction", "paths")]
)
def test_one_member_ensembles_fail_validation(tmp_path, capsys, name, key):
    # the standard errors of these experiments need two paths or particles
    text = minimal(name, f"[run]\n{key} = 1\n")
    assert main(["validate", "--config", write_cfg(tmp_path, text)]) == 2
    assert f"'[run] {key}' must be at least 2" in capsys.readouterr().err
    two = minimal(name, f"[run]\n{key} = 2\n")
    assert main(["validate", "--config", write_cfg(tmp_path, two)]) == 0
