"""Result records and run outputs.

A run emits ``results.jsonl`` (one record per line, each line exactly
the record's fields), ``manifest.cfg`` (the fully resolved
configuration; feeding it back reproduces the run byte for byte), and
``timings.txt``, one line with the run's wall-clock seconds, which the
command line writes (see ``mvsde.experiments.cli``).  Wall-clock time
is no part of a record, so the determinism contract applies to
``results.jsonl`` exactly as written.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os

from ..errors import InvalidArgumentError

__all__ = ["ResultRecord", "emit_outputs", "read_results_jsonl", "record_to_json"]


@dataclasses.dataclass
class ResultRecord:
    """One scalar outcome of an experiment.

    ``passed`` is True only when ``|value - target| <= tolerance``;
    purely informational records carry ``target = None``,
    ``tolerance = None`` and ``passed = True``.
    """

    experiment: str
    metric: str
    value: float
    std_error: float | None
    target: float | None
    tolerance: float | None
    passed: bool

    def __post_init__(self) -> None:
        for name, x in (("value", self.value), ("std_error", self.std_error),
                        ("tolerance", self.tolerance)):
            if x is not None and not math.isfinite(x):
                raise InvalidArgumentError(
                    f"record '{self.experiment}/{self.metric}' has a non-finite "
                    f"{name} ({x}), which results.jsonl cannot hold"
                )
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
        tolerance=None,
        passed=True,
    )


def record_to_json(rec: ResultRecord) -> str:
    return json.dumps(dataclasses.asdict(rec), sort_keys=True, allow_nan=False)


def read_results_jsonl(path) -> list[ResultRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ResultRecord(**json.loads(line)))
    return out


def emit_outputs(records, out_dir, config_text: str | None = None) -> dict[str, str]:
    """Write ``results.jsonl`` and, given ``config_text``,
    ``manifest.cfg``; returns the paths written keyed by role.

    Every record is serialised before any file is opened, so a record
    that cannot be written leaves no truncated ``results.jsonl``."""
    lines = [record_to_json(rec) + "\n" for rec in records]
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    results_path = os.path.join(out_dir, "results.jsonl")
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    written["results"] = results_path

    if config_text is not None:
        manifest_path = os.path.join(out_dir, "manifest.cfg")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        written["manifest"] = manifest_path

    return written
