"""The mutant gate: each semantic mutant must fail a physics check.

A mutant is a one-line change of the program, applied here as a
``monkeypatch`` of one name: a public coefficient class's
``eval_batch``, or a function that the runner looks up.  Under it, the
experiments that should catch it run in process.  A mutant is
caught only if a checked record (one with a tolerance) that passes on
the program as it is reads ``passed = False`` under the mutant; golden
bytes, frozen values and exceptions do not count.

A mutant that no check catches yet is a strict xfail whose reason names
the ROADMAP item meant to catch it, so the change that lands the
catching check must remove the marker.
"""

import numpy as np
import pytest

from mvsde import (
    LinearDelayDrift,
    LogLipschitzDrift,
    MeanFieldLinearDrift,
    MeanFieldSecondMomentDrift,
    eval_kappa,
)
from mvsde.experiments import runner
from mvsde.experiments.config import parse_config_text
from mvsde.experiments.runner import run_experiment


def _checks(name, extra):
    """``experiment/metric -> passed`` of every checked record of one run
    of ``name`` at its declared defaults, with ``extra`` config lines.
    The defaults take well under a second each, and a smaller run can
    miss what they catch: at 256 particles delay_mean_oracle's tolerance
    is wider than the shift a lost delay makes."""
    cfg = parse_config_text(f"[experiment]\nname = {name}\n{extra}")
    return {
        f"{r.experiment}/{r.metric}": r.passed
        for r in run_experiment(cfg)
        if r.tolerance is not None
    }


def _caught(monkeypatch, owner, name, mutant, *names, extra=""):
    """The checks of the named runs that pass on the program and fail
    under the mutant that replaces ``owner.name``."""
    passing = set()
    for run in names:
        before = {metric for metric, ok in _checks(run, extra).items() if ok}
        if not before:
            pytest.fail(f"{run} has no passing check to catch a mutant with")
        passing |= before
    monkeypatch.setattr(owner, name, mutant)
    failing = {m for run in names for m, ok in _checks(run, extra).items() if not ok}
    return sorted(passing & failing)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="item 21's noiseless record of the whole-window linear drift",
)
def test_linear_delay_push_read_one_step_late(monkeypatch):
    def late_push(self, t, values, law, grid):
        return -self.pull * values[:, -1, :] + self.push * values[:, 1, :]

    assert _caught(
        monkeypatch, LinearDelayDrift, "eval_batch", late_push, "picard_contraction", "uniqueness"
    )


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="no declared config reaches |z(0)| > 1, where the clip acts: "
    "continuity's defaults peak at |z(0)| = 0.96",
)
def test_log_lipschitz_without_its_clip(monkeypatch):
    def unclipped(self, t, values, law, grid):
        z = values[:, -1, 0]
        return (-np.sign(z) * eval_kappa(self.kappa, np.abs(z)))[:, None]

    assert _caught(monkeypatch, LogLipschitzDrift, "eval_batch", unclipped, "continuity")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="item 13's continuity records, which measure the modulus the drift runs",
)
def test_log_lipschitz_made_linear(monkeypatch):
    def linear(self, t, values, law, grid):
        return -values[:, -1, :]

    assert _caught(monkeypatch, LogLipschitzDrift, "eval_batch", linear, "continuity")


def test_mean_field_linear_reads_the_mean_at_z0(monkeypatch):
    def lost_delay(self, t, values, law, grid):
        anchor = np.add.reduce(law.values[:, -1, :], axis=0) / law.size
        return -(values[:, -1, :] - self.coupling * anchor)

    caught = _caught(
        monkeypatch, MeanFieldLinearDrift, "eval_batch", lost_delay, "delay_mean_oracle"
    )
    assert "delay_mean_oracle/mean_max_deviation" in caught


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="item 20: no experiment checks the entry, which that item retires",
)
def test_mean_field_second_moment_without_its_square(monkeypatch):
    def unsquared(self, t, values, law, grid):
        sups = np.max(np.linalg.norm(law.values, axis=2), axis=1)
        denom = 1.0 + float(np.add.reduce(sups)) / law.size
        return -values[:, -1, :] / denom

    extra = "[coefficients]\ndrift = mf_second_moment\n"
    assert _caught(
        monkeypatch,
        MeanFieldSecondMomentDrift,
        "eval_batch",
        unsquared,
        "distribution_iteration",
        extra=extra,
    )


def test_halved_noise_increment(monkeypatch):
    # the folded route reads the scheme's own noise, so it sees the
    # halved steps too; at 8200 paths the defaults' 100 000 are not needed
    draw = runner.sample_noise_matrix

    def halved(*args):
        return 0.5 * draw(*args)

    extra = "[run]\npaths = 8200\n[grid]\ndt = 0.05\n"
    caught = _caught(
        monkeypatch, runner, "sample_noise_matrix", halved, "reflected_bm_oracle", extra=extra
    )
    assert "reflected_bm_oracle/folded_terminal_mean" in caught
