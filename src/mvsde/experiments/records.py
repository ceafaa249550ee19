"""Result records and run outputs.

A run emits ``results.jsonl`` (one record per line), ``manifest.cfg``
(the fully resolved configuration; feeding it back reproduces the run
byte for byte), and ``timings.txt``, one line per metric that repeats
the experiment's total wall-clock seconds (there is no per-metric
timing).  Wall-clock times live only in the timing file and are
excluded from record equality, so the determinism contract applies to
``results.jsonl`` exactly as written.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import InvalidArgumentError

__all__ = ["ResultRecord", "emit_outputs", "read_results_jsonl", "record_to_json"]

_JSON_FIELDS = ("experiment", "metric", "value", "std_error", "target", "tolerance", "passed")


@dataclass
class ResultRecord:
    """One scalar outcome of an experiment.

    ``passed`` is True only when ``|value - target| <= tolerance``;
    purely informational records carry ``target = None`` and
    ``passed = True``.
    """

    experiment: str
    metric: str
    value: float
    std_error: float | None
    target: float | None
    tolerance: float
    passed: bool
    wall_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.target is not None and self.passed:
            if not abs(self.value - self.target) <= self.tolerance:
                raise InvalidArgumentError(
                    f"record '{self.metric}' marked passed but |{self.value} - "
                    f"{self.target}| > {self.tolerance}"
                )


def check_record(experiment: str, metric: str, value: float, target: float,
                 tolerance: float, std_error: float | None = None) -> ResultRecord:
    """Build a record whose pass flag is the tolerance check itself."""
    passed = bool(abs(value - target) <= tolerance)
    return ResultRecord(
        experiment=experiment,
        metric=metric,
        value=float(value),
        std_error=None if std_error is None else float(std_error),
        target=float(target),
        tolerance=float(tolerance),
        passed=passed,
    )


def info_record(experiment: str, metric: str, value: float,
                std_error: float | None = None) -> ResultRecord:
    return ResultRecord(
        experiment=experiment,
        metric=metric,
        value=float(value),
        std_error=None if std_error is None else float(std_error),
        target=None,
        tolerance=float("inf"),
        passed=True,
    )


def record_to_json(rec: ResultRecord) -> str:
    payload = {name: getattr(rec, name) for name in _JSON_FIELDS}
    if payload["tolerance"] == float("inf"):
        payload["tolerance"] = None
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _record_from_payload(payload: dict) -> ResultRecord:
    return ResultRecord(
        experiment=payload["experiment"],
        metric=payload["metric"],
        value=payload["value"],
        std_error=payload.get("std_error"),
        target=payload.get("target"),
        tolerance=float("inf") if payload.get("tolerance") is None else payload["tolerance"],
        passed=payload["passed"],
    )


def read_results_jsonl(path) -> list[ResultRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(_record_from_payload(json.loads(line)))
    return out


def emit_outputs(records, out_dir, config_text: str | None = None) -> dict[str, str]:
    """Write run outputs; returns the paths written keyed by role.

    Every record is serialised before any file is opened, so a record
    that cannot be written leaves no truncated ``results.jsonl``."""
    lines = [record_to_json(rec) + "\n" for rec in records]
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    results_path = os.path.join(out_dir, "results.jsonl")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    written["results"] = results_path

    timing_path = os.path.join(out_dir, "timings.txt")
    with open(timing_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.experiment}/{rec.metric}: {rec.wall_seconds:.3f} s\n")
    written["timings"] = timing_path

    if config_text is not None:
        manifest_path = os.path.join(out_dir, "manifest.cfg")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        written["manifest"] = manifest_path

    return written
