"""Outside-in span tracing of the mvsde layers.

The tracer replaces public functions and methods of the installed
``mvsde`` package with thin wrappers, under the exact name through
which each caller looks them up (``mvsde.solver.resolvent`` is what the
solver's constraint step calls, ``mvsde.meanfield.linear_sum_assignment``
what ``wasserstein2`` calls).  The one private name is the runner's
``_map_chunks``: the chunk phase has no public entry point.  Nothing under ``src/`` is edited; the
wrappers exist only in a process that calls :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` restores every original object.

Each wrapped call records one span: id, name, parent id, thread id,
round id, start, end, and two work counts measured from the call's
inputs and outputs after the span has ended (so measuring them costs
no span time).  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the duration of its spans minus the part of
each interval that child spans cover; :func:`layer_metrics` turns one
round's spans into the per-layer metrics listed in ``PER_LAYER``.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter

import numpy as np

# (name, unit) in BENCHMARK.json's order; the prefix before the first dot
# names the layer: the mvsde module whose calls the metric measures, or
# ``trace`` for the tracer itself
PER_LAYER = [
    ("rng.streams", "count"),
    ("rng.stream_setup_s", "s"),
    ("solver.noise_s", "s"),
    ("solver.noise_bytes", "bytes"),
    ("solver.integrate_s", "s"),
    ("solver.integrate_calls", "count"),
    ("solver.particle_steps", "count"),
    ("solver.integrate_ns_per_particle_step", "ns"),
    ("solver.variation_s", "s"),
    ("solver.chunk_busy_s", "s"),
    ("solver.parallel_efficiency", "ratio"),
    ("monotone.constrain_s", "s"),
    ("monotone.constrain_calls", "count"),
    ("monotone.points", "count"),
    ("monotone.active_fraction", "ratio"),
    ("coefficients.eval_s", "s"),
    ("coefficients.eval_calls", "count"),
    ("coefficients.eval_rows", "count"),
    ("meanfield.w2_calls", "count"),
    ("meanfield.w2_exact_fraction", "ratio"),
    ("meanfield.cost_s", "s"),
    ("meanfield.cost_entries", "count"),
    ("meanfield.cost_ns_per_entry", "ns"),
    ("meanfield.assign_s", "s"),
    ("meanfield.law_builds", "count"),
    ("meanfield.law_build_s", "s"),
    ("experiments.config_s", "s"),
    ("experiments.oracle_s", "s"),
    ("experiments.emit_s", "s"),
    ("experiments.results_bytes", "bytes"),
    ("experiments.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly between rounds and between traced runs.
COUNTS = [name for name, unit in PER_LAYER if unit in ("count", "bytes")]


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _points(x) -> int:
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


def _moved(x, y) -> int:
    """Points the constraint step changed: its useful outcomes."""
    x = np.asarray(x, dtype=float)
    return int(np.count_nonzero(np.any(np.asarray(y) != x, axis=-1)))


def _noise_bytes(key, grid, width, n_paths, first_index=0) -> int:
    return int(n_paths) * int(grid.steps) * int(width) * 8


# (owner, attribute, span name, work measure).  The owner is the module
# or class in which the caller looks the name up; a measure receives the
# call's (args, kwargs, result) and returns (work, useful) counts.  Two
# entries get their own wrappers (see Tracer.install): the chunk map,
# which also traces each chunk worker, and the coefficient builders,
# whose returned objects get a traced ``eval_batch``.
TARGETS = [
    ("mvsde.experiments", "parse_config_text", "experiments.config", None),
    ("mvsde.experiments", "run_experiment", "experiments.run", None),
    ("mvsde.experiments", "emit_outputs", "experiments.emit", None),
    ("mvsde.experiments.runner", "simulate_folded_paths", "experiments.oracle", None),
    ("mvsde.experiments.runner", "halfline_reflection_moments", "experiments.oracle", None),
    ("mvsde.experiments.runner", "delay_ode_mean", "experiments.oracle", None),
    ("mvsde.experiments.runner", "delay_ode_first_interval", "experiments.oracle", None),
    (
        "mvsde.experiments.runner",
        "sample_noise_matrix",
        "solver.noise",
        lambda a, k, r: (_noise_bytes(*a, **k), 0),
    ),
    ("mvsde.experiments.runner", "_map_chunks", "solver.chunk_phase", None),
    ("mvsde.experiments.runner", "build_drift", "coefficients.build", None),
    ("mvsde.experiments.runner", "build_diffusion", "coefficients.build", None),
    ("mvsde.rng", "RngKey.generator", "rng.generator", None),
    (
        "mvsde.solver",
        "integrate",
        "solver.integrate",
        lambda a, k, r: (_rows(a[1]) * a[0].grid.steps, 0),
    ),
    (
        "mvsde.meanfield",
        "integrate",
        "solver.integrate",
        lambda a, k, r: (_rows(a[1]) * a[0].grid.steps, 0),
    ),
    ("mvsde.solver", "EnsembleTrajectories.variation_totals", "solver.variation", None),
    (
        "mvsde.solver",
        "resolvent",
        "monotone.constrain",
        lambda a, k, r: (_points(a[2]), _moved(a[2], r)),
    ),
    (
        "mvsde.solver",
        "project",
        "monotone.constrain",
        lambda a, k, r: (_points(a[1]), _moved(a[1], r)),
    ),
    ("mvsde.meanfield", "EmpiricalSegmentLaw.__init__", "meanfield.law_build", None),
    (
        "mvsde.meanfield",
        "wasserstein2",
        "meanfield.w2",
        lambda a, k, r: (a[0].size * a[1].size, 0),
    ),
    ("mvsde.meanfield", "linear_sum_assignment", "meanfield.assign", None),
]


def _lookup(module: str, path: str):
    """(owner, attribute, current object) of one TARGETS entry; raises
    if the name no longer exists."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # a method must be defined on the named class itself, not inherited,
    # so that restoring it puts back exactly what was there
    current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, current


def resolve_targets() -> list[tuple[str, object]]:
    """Look up every wrapped name; raises if one no longer exists.

    A rename in ``src/`` must fail here rather than silently drop a
    layer from the trace.
    """
    found = []
    for module, path, _, _ in TARGETS:
        _, _, current = _lookup(module, path)
        if not callable(current):
            raise TypeError(f"{module}.{path} is not callable")
        found.append((f"{module}.{path}", current))
    return found


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    FIELDS = ("id", "name", "parent", "thread", "round", "start", "end", "work", "useful")

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.round_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, measure=None, parent=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        # itertools.count and list.append are single calls into C, so pool
        # threads can share them without a lock
        sid = next(self._ids)
        stack.append(sid)
        result = None
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            work, useful = measure(args, kwargs, result) if ok and measure else (0, 0)
            self.spans.append(
                (sid, name, parent, threading.get_ident(), self.round_id, start, end, work, useful)
            )

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return traced

    def _wrap_map_chunks(self, fn):
        """Chunk workers run on pool threads with empty span stacks, so
        each worker span names the chunk phase as its parent."""

        @functools.wraps(fn)
        def traced(total, threads, worker):
            def phase():
                phase_id = self._stack()[-1]

                def traced_worker(first, count):
                    return self.call(
                        "solver.chunk", worker, (first, count), {},
                        measure=lambda a, k, r: (count, 0), parent=phase_id,
                    )

                return fn(total, threads, traced_worker)

            return self.call(
                "solver.chunk_phase", phase, (), {}, measure=lambda a, k, r: (threads, 0)
            )

        return traced

    def _wrap_builder(self, fn):
        """Coefficient builders hand back objects whose ``eval_batch``
        the solver calls once per step; the wrapper shadows that method
        on the returned instance, so its type stays the same."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            coef = fn(*args, **kwargs)
            coef.eval_batch = self.wrap(
                "coefficients.eval", coef.eval_batch,
                measure=lambda a, k, r: (_rows(a[1]), 0),
            )
            return coef

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, path, name, measure in TARGETS:
            owner, attr, original = _lookup(module, path)
            if name == "solver.chunk_phase":
                wrapped = self._wrap_map_chunks(original)
            elif name == "coefficients.build":
                wrapped = self._wrap_builder(original)
            else:
                wrapped = self.wrap(name, original, measure)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out[sid] = (end - start) - _covered(kids)
    return out


# span name -> per-layer metric that receives its self time
_SELF_TIME = {
    "rng.generator": "rng.stream_setup_s",
    "solver.noise": "solver.noise_s",
    "solver.integrate": "solver.integrate_s",
    "solver.variation": "solver.variation_s",
    "monotone.constrain": "monotone.constrain_s",
    "coefficients.eval": "coefficients.eval_s",
    "meanfield.w2": "meanfield.cost_s",
    "meanfield.assign": "meanfield.assign_s",
    "meanfield.law_build": "meanfield.law_build_s",
    "experiments.config": "experiments.config_s",
    "experiments.oracle": "experiments.oracle_s",
    "experiments.emit": "experiments.emit_s",
    # runner glue: the experiment body, chunk bookkeeping, reductions
    "experiments.run": "experiments.unattributed_s",
    "solver.chunk_phase": "experiments.unattributed_s",
    "solver.chunk": "experiments.unattributed_s",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one round's spans; the caller fills in the
    results size and adds the tracing overhead."""
    m = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
    for key, metric in _SELF_TIME.items():
        m[metric] = 0.0
    selfs = self_times(spans)
    w2_ids = set()
    exact_parents = set()
    phase_capacity = 0.0
    for sid, name, parent, _, _, start, end, work, useful in spans:
        metric = _SELF_TIME.get(name)
        if metric is not None:
            m[metric] += selfs[sid]
        if name == "rng.generator":
            m["rng.streams"] += 1
        elif name == "solver.noise":
            m["solver.noise_bytes"] += work
        elif name == "solver.integrate":
            m["solver.integrate_calls"] += 1
            m["solver.particle_steps"] += work
        elif name == "solver.chunk":
            m["solver.chunk_busy_s"] += end - start
        elif name == "solver.chunk_phase":
            phase_capacity += work * (end - start)
        elif name == "monotone.constrain":
            m["monotone.constrain_calls"] += 1
            m["monotone.points"] += work
            m["monotone.active_fraction"] += useful
        elif name == "coefficients.eval":
            m["coefficients.eval_calls"] += 1
            m["coefficients.eval_rows"] += work
        elif name == "meanfield.w2":
            w2_ids.add(sid)
            m["meanfield.w2_calls"] += 1
            m["meanfield.cost_entries"] += work
        elif name == "meanfield.assign":
            exact_parents.add(parent)
        elif name == "meanfield.law_build":
            m["meanfield.law_builds"] += 1
    m["trace.spans"] = len(spans)
    # ratios; zero where the layer did not run on this workload
    m["monotone.active_fraction"] = (
        m["monotone.active_fraction"] / m["monotone.points"] if m["monotone.points"] else 0.0
    )
    m["meanfield.w2_exact_fraction"] = (
        len(exact_parents & w2_ids) / len(w2_ids) if w2_ids else 0.0
    )
    m["solver.integrate_ns_per_particle_step"] = (
        1e9 * m["solver.integrate_s"] / m["solver.particle_steps"]
        if m["solver.particle_steps"] else 0.0
    )
    m["meanfield.cost_ns_per_entry"] = (
        1e9 * m["meanfield.cost_s"] / m["meanfield.cost_entries"]
        if m["meanfield.cost_entries"] else 0.0
    )
    m["solver.parallel_efficiency"] = (
        m["solver.chunk_busy_s"] / phase_capacity if phase_capacity else 0.0
    )
    return m
