"""Checks of the benchmark itself, at a small size.

The traced layer counts must repeat exactly and the traced results
must be byte-identical to untraced ones; every wrapped name must still
exist, so that a rename in ``src/`` fails here instead of silently
dropping a layer from the trace.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# per experiment: overrides that make one round take well under a second
SMALL = {
    # above the 4096-path chunk size, so the chunk phase runs on 2 threads
    "reflected_bm_oracle": {"run.paths": "8200", "grid.dt": "0.05"},
    "distribution_iteration": {
        "run.particles": "24", "run.iterations": "3", "grid.dt": "0.05"
    },
    "picard_contraction": {"run.paths": "50"},
    "uniqueness": {"run.paths": "20", "run.iterations": "6"},
    "continuity": {"run.paths": "20"},
    "delay_mean_oracle": {"run.particles": "200"},
}

# per workload: layer counts that must be positive, i.e. the wrappers
# really sit on the path the workload takes
ACTIVE = {
    "reflected_bm": [
        "rng.streams", "solver.noise_bytes", "solver.particle_steps", "solver.chunk_busy_s",
        "solver.variation_s", "monotone.points", "coefficients.eval_rows",
        "experiments.oracle_s",
    ],
    "law_iteration": [
        "rng.streams", "solver.particle_steps", "coefficients.eval_rows",
        "meanfield.w2_calls", "meanfield.cost_entries", "meanfield.w2_exact_fraction",
        "meanfield.law_builds",
    ],
    "small_batch": [
        "rng.streams", "solver.noise_bytes", "solver.particle_steps", "monotone.points",
        "coefficients.eval_rows", "meanfield.law_builds", "experiments.oracle_s",
    ],
}


def _traced_round(name, tmp_path, tag):
    spans = tmp_path / f"spans-{tag}.json"
    report = child.measure(name, 7, 0.0, 1, "trace", tmp_path / tag, spans, SMALL)
    assert spans.is_file()
    (entry,), (layers,) = report["rounds"], report["layers"]
    assert entry["error"] is None
    return entry["digest"], layers


def test_every_wrapped_name_resolves():
    found = tracer.resolve_targets()
    assert len(found) == len(tracer.TARGETS)


def test_install_and_uninstall_restore_every_original():
    before = tracer.resolve_targets()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(a is not b for (_, a), (_, b) in zip(before, tracer.resolve_targets()))
    finally:
        t.uninstall()
    assert all(a is b for (_, a), (_, b) in zip(before, tracer.resolve_targets()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_counts_and_match_untraced_digest(name, tmp_path):
    digest_a, layers_a = _traced_round(name, tmp_path, "a")
    digest_b, layers_b = _traced_round(name, tmp_path, "b")
    assert {k: layers_a[k] for k in tracer.COUNTS} == {k: layers_b[k] for k in tracer.COUNTS}
    assert digest_a == digest_b
    plain = child.measure(name, 7, 0.0, 1, "run", tmp_path / "plain", None, SMALL)
    assert plain["rounds"][0]["digest"] == digest_a
    assert all(layers_a[k] > 0 for k in ACTIVE[name]), layers_a
    assert set(layers_a) | {"trace.overhead_s"} == {k for k, _ in tracer.PER_LAYER}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "experiments.run", None, 0, 1, 0.0, 10.0, 0, 0),
        # two chunk workers on different threads overlap on [2, 3]
        (2, "solver.chunk", 1, 1, 1, 1.0, 3.0, 0, 0),
        (3, "solver.chunk", 1, 2, 1, 2.0, 5.0, 0, 0),
        (4, "solver.integrate", 3, 2, 1, 2.5, 4.5, 0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 2.0}


def test_reference_explains_every_flag_that_is_not_a_pass():
    ref = workloads.load_reference()
    for experiments in ref["workloads"].values():
        for experiment, flags in experiments.items():
            for metric, passed in flags:
                if passed is not True:
                    assert f"{experiment}/{metric}" in ref["notes"]
