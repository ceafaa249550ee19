"""Backward-resolvent Euler stepping for constrained delay SDEs and the
fixed-point (successive substitution) machinery built on top of it.

One step from state x with drift a, diffusion G, and noise increment
dW first forms the unconstrained predictor ``p = x + a*dt + G @ dW``
and then applies the constraint, ``x_next = (I + dt*A)^-1 p``.  The
increment ``dK = p - x_next`` satisfies ``dK in dt*A(x_next)`` by the
Yosida identity, for every operator family; for a normal cone the
resolvent is the metric projection onto the constraint set.

Every solve advances an ensemble of N paths at once (:func:`integrate`);
a single path is the case N = 1.  Coefficients are evaluated at the
left endpoint of each step.  All randomness enters through a
materialised noise array, so repeated solves on the same noise are
bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import Coefficient
from .errors import InvalidArgumentError, StepEvaluationError
from .monotone import (
    MonotoneOperatorSpec,
    domain_distance,
    operator_domain,
    project,  # noqa: F401  not called here; perfbench/tracer.py wraps mvsde.solver.project
    resolvent,
)
from .rng import NOISE_STREAM, RngKey, fill_standard_normal
from .segments import TimeGrid, _constant_extension

__all__ = [
    "SolverConfig",
    "sample_noise_matrix",
    "integrate",
    "EnsembleTrajectories",
    "picard_iterate_paths",
    "contraction_horizon",
    "gap_ratio",
]

# steps per block of integrate's time-major scratch buffer
STEP_BLOCK = 64
# paths per tile of the layout copies, small enough that each tile's
# copy stays in cache
TILE_PATHS = 256
# relative distance (to 1 + |x|) by which an initial state may leave
# the constraint set
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """The grid and the operator of a solve."""

    grid: TimeGrid
    operator: MonotoneOperatorSpec

    @property
    def dim(self) -> int:
        return self.operator.dim


def sample_noise_matrix(
    key: RngKey, grid: TimeGrid, width: int, n_paths: int, first_index: int = 0
) -> np.ndarray:
    """Stacked Brownian steps, shape (n_paths, steps, m); path i uses the
    substream (NOISE_STREAM, first_index + i) so any chunking of a run
    reproduces the same array.  The Philox keys of all paths are derived
    in one array pass and one generator is reset per path, so the cost
    per path is the normal draws themselves (see :mod:`mvsde.rng`)."""
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    first = int(first_index)
    if not 0 <= first <= 2**64 - n_paths:
        raise InvalidArgumentError("noise path indices must lie in [0, 2**64)")
    out = np.empty((n_paths, grid.steps, width))
    ids = np.uint64(first) + np.arange(n_paths, dtype=np.uint64)
    fill_standard_normal(key.child(NOISE_STREAM), ids, out)
    out *= math.sqrt(grid.dt)
    return out


def _check_initial(cfg: SolverConfig, states0: np.ndarray) -> None:
    dom = operator_domain(cfg.operator)
    if dom is None:
        return
    dist = domain_distance(dom, states0)
    scale = 1.0 + np.linalg.norm(states0, axis=-1)
    if np.any(dist > MEMBERSHIP_TOL * scale):
        raise InvalidArgumentError(
            "initial segment leaves the constraint set by "
            f"{float(np.max(dist)):.3e}"
        )


def _add_variation(total: np.ndarray, dk: np.ndarray, norms: np.ndarray | None) -> None:
    """Add one block's reflection variation to the running per-path
    ``total`` (N,), overwriting ``dk``.

    ``dk`` is a time-major block (b, N, d) of reflection steps dK.  The
    Euclidean norm of each step is formed as ``np.linalg.norm`` forms it
    (square, add over d, square root), squaring in place in ``dk`` and
    adding into the scratch ``norms`` (at least (b, N)); the norms are
    summed over the block's steps with ``np.add.reduce`` along the time
    axis, and that block sum is added to ``total``.  At d = 1 the norm
    is |dK|, taken in place in ``dk`` with no ``norms``, which is
    sqrt(dK**2) wherever dK**2 neither overflows nor underflows, and
    finite for every finite step.
    """
    b = dk.shape[0]
    if dk.shape[2] == 1:
        norms = np.abs(dk[..., 0], out=dk[..., 0])
    else:
        np.multiply(dk, dk, out=dk)
        norms = np.add.reduce(dk, axis=2, out=norms[:b])
        np.sqrt(norms, out=norms)
    np.add(total, np.add.reduce(norms, axis=0), out=total)


class EnsembleTrajectories:
    """States and reflection variation of N paths on one grid, stacked.

    ``states`` has shape (N, path_len, d), read-only; ``variation`` (N,)
    is the per-path variation |K|_T of the reflection term K over
    [0, T], the sum over steps of the norms of its steps dK.  A
    terminal-only solve (``keep_path=False``) keeps just the final
    window, ``states`` of shape (N, window, d), so ``states[:, -1]`` is
    still the terminal state.
    """

    __slots__ = ("states", "_variation")

    def __init__(self, states: np.ndarray, variation: np.ndarray) -> None:
        states.flags.writeable = False
        self.states = states
        self._variation = variation

    def variation_totals(self) -> np.ndarray:
        """Per-path variation of K over [0, T], a copy: the norms of the
        steps dK added block by block of ``STEP_BLOCK`` steps (see
        ``_add_variation``), so the sum over steps is associated as no
        single ``np.sum`` over the (N, steps) norms associates it."""
        return self._variation.copy()


def _non_finite_step(k: int, p: np.ndarray, a: np.ndarray, g: np.ndarray) -> StepEvaluationError:
    """The error of step k, whose predictor ``p`` is not finite: it names
    the first particle whose predictor is not finite, and whether that
    particle's drift or diffusion is not finite either."""
    first = int(np.flatnonzero(~np.isfinite(p).all(axis=-1))[0])
    bad = [name for name, v in (("drift", a), ("diffusion", g)) if not np.isfinite(v[first]).all()]
    cause = f"non-finite {' and '.join(bad)}" if bad else "overflow or non-finite noise"
    return StepEvaluationError(
        f"the state of particle {first} leaves the floats at step {k}: {cause}",
        step=k,
        particle=first,
    )


def _noise_tiles(noise, npaths: int, steps: int) -> tuple[int, list[tuple]]:
    """The width m of ``noise``, an (N, steps, m) array or a list or
    tuple of (n_i, steps, m) row blocks that stack to N rows, and its
    tiles ``(block, rows of the block, rows of the stack)`` of at most
    TILE_PATHS rows each, which the layout copies read in place."""
    blocks = noise if isinstance(noise, (list, tuple)) else [noise]
    blocks = [np.asarray(block, dtype=float) for block in blocks]
    shapes = [block.shape for block in blocks]
    tails = {shape[1:] for shape in shapes}
    if (
        len(tails) != 1
        or any(len(shape) != 3 for shape in shapes)
        or shapes[0][1] != steps
        or sum(shape[0] for shape in shapes) != npaths
    ):
        raise InvalidArgumentError(
            f"noise needs shape ({npaths}, {steps}, m), or row blocks (n_i, {steps}, m) "
            f"that stack to it; got {', '.join(map(str, shapes)) or 'no blocks'}"
        )
    tiles = []
    start = 0
    for block in blocks:
        for i in range(0, len(block), TILE_PATHS):
            stop = min(i + TILE_PATHS, len(block))
            tiles.append((block, slice(i, stop), slice(start + i, start + stop)))
        start += len(block)
    return shapes[0][2], tiles


def integrate(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    f: Coefficient,
    g: Coefficient,
    noise: np.ndarray | list[np.ndarray],
    *,
    inputs: Callable[[int, np.ndarray], tuple[np.ndarray, object]] | None = None,
    keep_path: bool = True,
) -> EnsembleTrajectories:
    """Advance N paths through the full horizon.

    ``xi_values`` has shape (N, window, d) and fills the path on
    [-r0, 0]; ``noise`` has shape (N, steps, m), or is a list or tuple
    of row blocks (n_i, steps, m) that stack to N rows, read in place
    with the same bits as their stacked array.  Before step k the
    drift ``f`` and the diffusion ``g`` are evaluated by ``eval_batch``
    at time k*dt on one pair ``(windows, law) = inputs(k, live)``, with
    ``live`` the current windows; the default is ``(live, None)``.  They
    must return (N, d) and (N, d, m).  A coefficient flagged
    ``constant`` is evaluated only at step 0: its ``a*dt`` is formed
    once, and a constant diffusion's ``G@dW`` once per block of
    ``STEP_BLOCK`` steps, with the same bits as per step; when both
    are constant, ``inputs`` too runs only at step 0.

    The live windows, shape (N, window, d), are read-only strided views
    of a scratch buffer and are valid only during the step: the buffer
    is overwritten as the paths advance, so a hook or a coefficient
    that keeps a window past its call must copy it.

    Each step forms the predictor ``p = (x + a*dt) + G@dW`` in reused
    buffers and takes the resolvent step ``(I + dt*A)^-1 p`` for every
    operator, the zero operator's being the identity; the resolvent
    writes the new state straight into the scratch buffer.  The resolvent's
    refusal of a non-finite point is the one finiteness test: a
    non-finite drift or diffusion entry always makes its particle's
    predictor non-finite, since NaN and inf survive the sums and
    ``inf*0`` is NaN, and so does an overflow or a non-finite noise
    increment.  Such a step raises a ``StepEvaluationError`` naming the
    step, the first particle whose predictor is not finite, and whether
    that particle's drift or diffusion is not finite, so no state is
    ever stored that is not finite.  A failing hook or coefficient, or
    a value of the wrong shape, raises a ``StepEvaluationError`` naming
    the step.

    The reflection steps dK live only in a block-sized scratch, which
    also holds the block's ``G@dW``: after each block, while they are in
    cache, their norms are formed in place, summed over the block's
    steps and added to a running (N,) variation (see
    ``_add_variation``).  With ``keep_path=True`` the states hold the
    whole path, the only path-sized array of the solve; with
    ``keep_path=False`` they hold the final window, so besides its
    inputs the solve holds only block-sized scratch: the window buffer,
    dK and the noise block, of about STEP_BLOCK x N x d (x m) entries
    each, and at d > 1 the STEP_BLOCK x N norms: a traced allocation
    peak of 3.3 MB for 2048 paths at d = m = 1.
    """
    grid = cfg.grid
    n = grid.steps
    dt = grid.dt
    w = grid.window_len
    xi_values = np.asarray(xi_values, dtype=float)
    if xi_values.ndim != 3 or xi_values.shape[1] != w or xi_values.shape[2] != cfg.dim:
        raise InvalidArgumentError(
            f"initial windows need shape (N, {w}, {cfg.dim})"
        )
    npaths = xi_values.shape[0]
    m, noise_tiles = _noise_tiles(noise, npaths, n)
    _check_initial(cfg, xi_values)

    d = cfg.dim
    states = None
    if keep_path:
        states = np.empty((npaths, grid.path_len, d))
        states[:, :w, :] = xi_values
    variation = np.zeros(npaths)
    fixed_a, fixed_g = f.constant, g.constant
    if inputs is None:
        inputs = lambda k, live: (live, None)  # noqa: E731

    def evaluate(k: int, live: np.ndarray, a, sig):
        """Drift and diffusion at step k; a constant one is passed in
        (not None) and not evaluated again."""
        t = k * dt
        try:
            windows, law = inputs(k, live)
            if a is None:
                a = np.asarray(f.eval_batch(t, windows, law, grid), dtype=float)
            if sig is None:
                sig = np.asarray(g.eval_batch(t, windows, law, grid), dtype=float)
        except StepEvaluationError:
            raise
        except Exception as exc:
            raise StepEvaluationError(
                f"coefficient evaluation failed at step {k} (t = {t})", step=k
            ) from exc
        if a.shape != (npaths, d) or sig.shape != (npaths, d, m):
            raise StepEvaluationError(
                f"coefficients at step {k} have shapes {a.shape} and {sig.shape}; "
                f"the noise needs ({npaths}, {d}) and ({npaths}, {d}, {m})",
                step=k,
            )
        return a, sig

    # Time-major scratch: during a block, rows j .. j + w - 1 of ``buf``
    # hold the window of the block's step j and row j + w receives its
    # new state, so every per-step read and write is one contiguous
    # (N, d) slab.  The noise of a block comes in, and finished blocks
    # go back to the path-major states, in transposing copies of
    # TILE_PATHS paths each; a block's variation is added from ``dk``.
    buf = np.empty((w + STEP_BLOCK, npaths, d))
    buf[:w] = xi_values.swapaxes(0, 1)
    windows = buf.view()
    windows.flags.writeable = False
    dk = np.empty((STEP_BLOCK, npaths, d))
    dw = np.empty((STEP_BLOCK, npaths, m))
    # G@dW shares the buffer of dK: step j reads gdw[j] before it
    # writes dk[j], and a block's G@dW is formed after the previous
    # block's dK are summed
    gdw = dk
    norms = np.empty((STEP_BLOCK, npaths)) if d > 1 else None
    adt = np.empty((npaths, d))
    p = np.empty((npaths, d))
    tiles = [slice(i, i + TILE_PATHS) for i in range(0, npaths, TILE_PATHS)]

    a, sig = evaluate(0, windows[:w].swapaxes(0, 1), None, None)
    kept = (a if fixed_a else None, sig if fixed_g else None)
    if fixed_a:
        np.multiply(a, dt, out=adt)

    for k0 in range(0, n, STEP_BLOCK):
        b = min(STEP_BLOCK, n - k0)
        for block, rows, dst in noise_tiles:
            dw[:b, dst] = block[rows, k0 : k0 + b, :].swapaxes(0, 1)
        if fixed_g:
            # bit-equal to the per-step product below; ``@`` is not
            np.einsum("ndm,bnm->bnd", sig, dw[:b], out=gdw[:b])
        for j in range(b):
            k = k0 + j
            if k > 0 and not (fixed_a and fixed_g):
                a, sig = evaluate(k, windows[j : j + w].swapaxes(0, 1), *kept)
            if not fixed_a:
                np.multiply(a, dt, out=adt)
            np.add(buf[j + w - 1], adt, out=p)
            if not fixed_g:
                np.einsum("ndm,nm->nd", sig, dw[j], out=gdw[j])
            np.add(p, gdw[j], out=p)
            try:
                # the point positional: perfbench/tracer.py wraps
                # mvsde.solver.resolvent and reads it as the third argument
                resolvent(cfg.operator, dt, p, out=buf[j + w])
            except InvalidArgumentError:
                if np.isfinite(p).all():
                    raise
                raise _non_finite_step(k, p, a, sig) from None
            np.subtract(p, buf[j + w], out=dk[j])
        _add_variation(variation, dk[:b], norms)
        if keep_path:
            for rows in tiles:
                states[rows, w + k0 : w + k0 + b, :] = buf[w : w + b, rows].swapaxes(0, 1)
        buf[:w] = buf[b : b + w]

    if not keep_path:
        states = np.ascontiguousarray(buf[:w].swapaxes(0, 1))
    return EnsembleTrajectories(states, variation)


def picard_iterate_paths(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    f: Coefficient,
    g: Coefficient,
    noise: np.ndarray,
    n_iters: int,
    zeroth: np.ndarray | None = None,
) -> list[EnsembleTrajectories]:
    """Successive substitution in path space, ensemble form.

    Iterate n solves the constrained equation with the coefficient
    arguments frozen at iterate n-1's segments while every iterate
    starts from the same initial windows and reuses the same noise.
    ``zeroth`` (shape (N, path_len, d)) defaults to the constant
    extension of the initial windows.  Returns iterates 1..n_iters.
    """
    if n_iters < 1:
        raise InvalidArgumentError("n_iters must be >= 1")
    xi_values = np.asarray(xi_values, dtype=float)
    grid = cfg.grid
    if zeroth is None:
        frozen = _constant_extension(grid, xi_values)
    else:
        frozen = np.asarray(zeroth, dtype=float)
        if frozen.shape != (xi_values.shape[0], grid.path_len, xi_values.shape[2]):
            raise InvalidArgumentError("zeroth iterate has wrong shape")
    w = grid.window_len
    iterates = []
    for _ in range(n_iters):
        ens = integrate(
            cfg, xi_values, f, g, noise, inputs=lambda k, live: (frozen[:, k : k + w], None)
        )
        iterates.append(ens)
        frozen = ens.states
    return iterates


def gap_ratio(gap: float, previous: float) -> float:
    """``gap / previous`` for non-negative gaps, read where a ratio
    below 1 means a decrease: 0/0 is 0.0 (already at the fixed point)
    and x/0 with x > 0 is 1.0 (no decrease), so it is always finite."""
    if previous > 0.0:
        return gap / previous
    return 0.0 if gap == 0.0 else 1.0


# The martingale moment constant C of contraction_horizon: Doob's L^2
# maximal inequality, the Burkholder-Davis-Gundy inequality at p = 2,
# gives E sup_{s<=t} |M_s|^2 <= 4 E |M_t|^2 for the stochastic integral M.
BDG_CONSTANT = 4.0


def contraction_horizon(lipschitz_sq: float) -> float:
    """Largest t with ``2*L*(1 + C)*t*exp(2t) <= 1/2``.

    L is the squared-Lipschitz constant of the coefficients and C =
    ``BDG_CONSTANT`` = 4 bounds the sup of the noise term by its
    terminal second moment.  On horizons below the returned value
    successive substitution halves the mean squared sup-distance per
    iterate, so geometric decay of the iterate gaps is expected there.
    """
    if not (math.isfinite(lipschitz_sq) and lipschitz_sq > 0.0):
        raise InvalidArgumentError("lipschitz_sq must be finite and positive")
    # in logs, log(t) + 2t <= log(1/2) - log(2L(1 + C)), so that neither
    # side overflows for a small L
    target = math.log(0.5) - math.log(2.0 * lipschitz_sq * (1.0 + BDG_CONSTANT))

    def h(t: float) -> float:
        return math.log(t) + 2.0 * t

    lo, hi = 0.0, 1.0
    while h(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo
