"""Maximal monotone operators on R^d and their resolvents.

The package supports three operator families:

* ``ZeroOperator`` -- the trivial map A(x) = {0}; the dynamics are
  unconstrained and the resolvent is the identity.
* ``NormalCone`` -- the normal cone of a closed convex set with
  nonempty interior.  The resolvent ``(I + lam*A)^-1`` equals the
  metric projection onto the set, for every ``lam > 0``.
* ``Graph1D`` -- a nondecreasing, possibly multivalued scalar map given
  by affine pieces between breakpoints, with jumps filled by vertical
  segments.  Filling the jumps makes the graph maximal by construction.

All operations are vectorised: states may have shape ``(d,)`` or any
``(..., d)``.  Tolerances are absolute but scaled by ``1 + magnitude``
of the quantities entering each test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Halfspace",
    "Box",
    "Ball",
    "HalfLine",
    "ConvexDomain",
    "ZeroOperator",
    "NormalCone",
    "Graph1D",
    "MonotoneOperatorSpec",
    "project",
    "domain_distance",
    "resolvent",
    "yosida",
    "operator_domain",
    "operator_contains",
]


def _as_points(x, dim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise InvalidArgumentError(
            f"expected points with last axis of size {dim}, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise InvalidArgumentError("points must be finite")
    return a


def _norm(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, axis=-1)


# ---------------------------------------------------------------------------
# Convex domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Halfspace:
    """``{x : <normal, x> <= offset}``; the normal is stored unit-length."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self) -> None:
        n = np.asarray(self.normal, dtype=float)
        if n.ndim != 1 or n.size == 0 or not np.all(np.isfinite(n)):
            raise InvalidArgumentError("halfspace normal must be a finite vector")
        length = float(np.linalg.norm(n))
        if length == 0.0:
            raise InvalidArgumentError("halfspace normal must be nonzero")
        if not math.isfinite(self.offset):
            raise InvalidArgumentError("halfspace offset must be finite")
        object.__setattr__(self, "normal", tuple((n / length).tolist()))
        object.__setattr__(self, "offset", float(self.offset) / length)

    @property
    def dim(self) -> int:
        return len(self.normal)

    @cached_property
    def _n(self) -> np.ndarray:
        return np.asarray(self.normal, dtype=float)


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals; bounds may be +-inf but not NaN."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise InvalidArgumentError("box bounds must be vectors of equal nonzero length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise InvalidArgumentError("box bounds must not be NaN")
        if not np.all(lo < hi):
            raise InvalidArgumentError("box requires lower < upper in every coordinate")
        object.__setattr__(self, "lower", tuple(lo.tolist()))
        object.__setattr__(self, "upper", tuple(hi.tolist()))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @cached_property
    def _lo(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @cached_property
    def _hi(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with strictly positive radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise InvalidArgumentError("ball center must be a finite vector")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise InvalidArgumentError("ball radius must be finite and positive")
        object.__setattr__(self, "center", tuple(c.tolist()))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    @cached_property
    def _c(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class HalfLine:
    """``[lower, inf)`` in dimension one."""

    lower: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lower):
            raise InvalidArgumentError("half-line lower bound must be finite")
        object.__setattr__(self, "lower", float(self.lower))

    @property
    def dim(self) -> int:
        return 1


ConvexDomain = Union[Halfspace, Box, Ball, HalfLine]


def project(domain: ConvexDomain, x) -> np.ndarray:
    """Metric projection onto ``domain``, vectorised over leading axes."""
    return _project(domain, _as_points(x, domain.dim))


def _project(domain: ConvexDomain, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``project`` on points that ``_as_points`` has already checked,
    written into ``out`` when one is given."""
    if isinstance(domain, Box):
        return np.clip(a, domain._lo, domain._hi, out=out)
    if isinstance(domain, HalfLine):
        return np.maximum(a, domain.lower, out=out)
    if isinstance(domain, Halfspace):
        excess = np.maximum(a @ domain._n - domain.offset, 0.0)
        return np.subtract(a, excess[..., None] * domain._n, out=out)
    if isinstance(domain, Ball):
        u = a - domain._c
        rho = _norm(u)
        factor = np.ones_like(rho)
        outside = rho > domain.radius
        np.divide(domain.radius, rho, out=factor, where=outside)
        return np.add(domain._c, u * factor[..., None], out=out)
    raise InvalidArgumentError(f"unknown domain type {type(domain).__name__}")


def domain_distance(domain: ConvexDomain, x) -> np.ndarray:
    """Euclidean distance from ``x`` to ``domain`` (0 inside)."""
    a = _as_points(x, domain.dim)
    return _norm(a - _project(domain, a))


# ---------------------------------------------------------------------------
# Operator specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroOperator:
    """A(x) = {0} on R^dim."""

    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) < 1:
            raise InvalidArgumentError("operator dimension must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class NormalCone:
    """Normal cone of a convex domain with nonempty interior."""

    domain: ConvexDomain

    @property
    def dim(self) -> int:
        return self.domain.dim


@dataclass(frozen=True)
class Graph1D:
    """Nondecreasing scalar map with affine pieces and filled jumps.

    ``breakpoints`` are strictly increasing; piece ``k`` is the affine
    map ``intercepts[k] + slopes[k]*x`` on the interval between
    breakpoints ``k-1`` and ``k`` (the outer pieces extend to
    +-infinity).  At a breakpoint the value set is the closed interval
    between the one-sided limits, so the graph is maximal monotone with
    domain all of R.
    """

    breakpoints: tuple[float, ...]
    intercepts: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        a = np.asarray(self.intercepts, dtype=float)
        s = np.asarray(self.slopes, dtype=float)
        if a.ndim != 1 or s.shape != a.shape or a.size != bp.size + 1:
            raise InvalidArgumentError(
                "graph needs len(breakpoints)+1 intercepts and slopes"
            )
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(a)) and np.all(np.isfinite(s))):
            raise InvalidArgumentError("graph data must be finite")
        if bp.size and not np.all(np.diff(bp) > 0.0):
            raise InvalidArgumentError("breakpoints must be strictly increasing")
        if np.any(s < 0.0):
            raise InvalidArgumentError("graph slopes must be non-negative")
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "intercepts", tuple(a.tolist()))
        object.__setattr__(self, "slopes", tuple(s.tolist()))
        left, right = self._limits
        gap_tol = 1e-12 * (1.0 + np.abs(left) + np.abs(right))
        if np.any(left > right + gap_tol):
            raise InvalidArgumentError("graph values must be nondecreasing across breakpoints")

    @property
    def dim(self) -> int:
        return 1

    @classmethod
    def sign(cls) -> "Graph1D":
        """The sign graph: -1 for x<0, [-1,1] at 0, +1 for x>0."""
        return cls(breakpoints=(0.0,), intercepts=(-1.0, 1.0), slopes=(0.0, 0.0))

    @cached_property
    def _bp(self) -> np.ndarray:
        return np.asarray(self.breakpoints, dtype=float)

    @cached_property
    def _a(self) -> np.ndarray:
        return np.asarray(self.intercepts, dtype=float)

    @cached_property
    def _s(self) -> np.ndarray:
        return np.asarray(self.slopes, dtype=float)

    @cached_property
    def _limits(self) -> tuple[np.ndarray, np.ndarray]:
        """One-sided limits (low, high) of the value sets at the
        breakpoints: the left and right pieces evaluated there."""
        bp, a, s = self._bp, self._a, self._s
        return a[:-1] + s[:-1] * bp, a[1:] + s[1:] * bp


MonotoneOperatorSpec = Union[ZeroOperator, NormalCone, Graph1D]


def operator_domain(op: MonotoneOperatorSpec) -> ConvexDomain | None:
    """The closure of D(A), or ``None`` when it is all of R^d."""
    if isinstance(op, NormalCone):
        return op.domain
    return None


def _graph_resolvent(g: Graph1D, lam: float, xf: np.ndarray) -> np.ndarray:
    bp, a, s = g._bp, g._a, g._s
    k = bp.size
    if k:
        low, high = g._limits
        bounds = np.empty(2 * k)
        bounds[0::2] = bp + lam * low
        bounds[1::2] = bp + lam * high
    else:
        bounds = np.empty(0)
    idx = np.searchsorted(bounds, xf, side="right")
    is_jump = (idx % 2) == 1
    piece = np.where(is_jump, 0, idx // 2)
    y = (xf - lam * a[piece]) / (1.0 + lam * s[piece])
    if k:
        # clip each affine solve into its piece to guard against round-off
        lo = np.where(piece > 0, bp[np.maximum(piece - 1, 0)], -np.inf)
        hi = np.where(piece < k, bp[np.minimum(piece, k - 1)], np.inf)
        y = np.clip(y, lo, hi)
        y = np.where(is_jump, bp[np.where(is_jump, (idx - 1) // 2, 0)], y)
    return y


def resolvent(
    op: MonotoneOperatorSpec, lam: float, x, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate ``(I + lam*A)^-1 x``.

    For ``NormalCone`` this is the metric projection, independent of
    ``lam``; for ``ZeroOperator`` it is the identity; for ``Graph1D``
    the unique solution of ``y + lam*A(y) in x`` found piecewise.
    The map is nonexpansive in every case.  With ``out``, an array of
    the points' shape, the result is written into it and ``out`` is
    returned, with the same bits as a fresh result.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0.0):
        raise InvalidArgumentError("resolvent parameter lam must be finite and positive")
    a = _as_points(x, op.dim)
    if out is not None and out.shape != a.shape:
        raise InvalidArgumentError(f"out has shape {out.shape}; the points have shape {a.shape}")
    if isinstance(op, ZeroOperator):
        if out is None:
            return a.copy()
        np.copyto(out, a)
        return out
    if isinstance(op, NormalCone):
        return _project(op.domain, a, out)
    if isinstance(op, Graph1D):
        y = _graph_resolvent(op, float(lam), a[..., 0].ravel()).reshape(a.shape)
        if out is None:
            return y
        out[...] = y
        return out
    raise InvalidArgumentError(f"unknown operator type {type(op).__name__}")


def yosida(op: MonotoneOperatorSpec, lam: float, x) -> np.ndarray:
    """Yosida approximation ``(x - resolvent(op, lam, x)) / lam``.

    The result is an element of ``A(resolvent(op, lam, x))``.
    """
    a = _as_points(x, op.dim)
    return (a - resolvent(op, lam, a)) / float(lam)


def _graph_contains(g: Graph1D, xs: np.ndarray, vs: np.ndarray, tol: float) -> np.ndarray:
    bp, a, s = g._bp, g._a, g._s
    x_tol = tol * (1.0 + np.abs(xs))
    v_tol = tol * (1.0 + np.abs(vs))
    piece = np.searchsorted(bp, xs, side="left")
    affine_ok = np.abs(vs - (a[piece] + s[piece] * xs)) <= v_tol
    # searchsorted(side left) maps x == bp[k] to piece k whose affine part
    # is the left limit; treat near-breakpoint points via the jump interval.
    if bp.size:
        near = np.abs(xs[..., None] - bp) <= x_tol[..., None]
        k_near = np.argmax(near, axis=-1)
        is_near = np.any(near, axis=-1)
        low, high = g._limits
        jump_ok = (vs >= low[k_near] - v_tol) & (vs <= high[k_near] + v_tol)
        return np.where(is_near, jump_ok, affine_ok)
    return affine_ok


def _cone_contains(domain: ConvexDomain, a: np.ndarray, w: np.ndarray, tol: float) -> np.ndarray:
    """``w in N_domain(a)`` on points that ``operator_contains`` has
    already checked and broadcast."""
    act_tol = tol * (1.0 + _norm(a))
    v_tol = tol * (1.0 + _norm(w))
    if isinstance(domain, (Box, HalfLine)):
        # a half-line is a box with upper bound +inf; per coordinate, w
        # may exceed the slack only on an active upper face and fall
        # below it only on an active lower face
        if isinstance(domain, HalfLine):
            lo, hi = domain.lower, np.inf
        else:
            lo, hi = domain._lo, domain._hi
        at, vt = act_tol[..., None], v_tol[..., None]
        ok = np.all(((w <= vt) | (a >= hi - at)) & ((w >= -vt) | (a <= lo + at)), axis=-1)
    else:
        # on the boundary the cone is the ray of the outward unit normal
        # n, so w's tangential part must vanish and its coefficient
        # along n be non-negative; elsewhere the cone is {0}
        if isinstance(domain, Halfspace):
            n = domain._n
            on_face = a @ n - domain.offset >= -act_tol
            coef = w @ n
        elif isinstance(domain, Ball):
            u = a - domain._c
            rho = _norm(u)
            on_face = (rho >= domain.radius - act_tol) & (rho > 0.0)
            n = u / np.where(rho > 0.0, rho, 1.0)[..., None]
            coef = np.sum(w * n, axis=-1)
        else:
            raise InvalidArgumentError(f"unknown domain type {type(domain).__name__}")
        boundary_ok = (_norm(w - coef[..., None] * n) <= v_tol) & (coef >= -v_tol)
        ok = np.where(on_face, boundary_ok, _norm(w) <= v_tol)
    return ok & (_norm(a - _project(domain, a)) <= act_tol)


def operator_contains(op: MonotoneOperatorSpec, x, v, tol: float) -> np.ndarray | bool:
    """Test ``v in A(x)`` within tolerance, vectorised over leading axes.

    For a normal cone, a face is active within ``tol*(1+|x|)`` of
    ``x``, every comparison on ``v`` is slackened by ``tol*(1+|v|)``,
    the cone at an interior point is ``{0}``, and A(x) is empty off the
    domain, so the answer for a point farther from it than
    ``tol*(1+|x|)`` is False.
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise InvalidArgumentError("tol must be finite and non-negative")
    a = _as_points(x, op.dim)
    w = _as_points(v, op.dim)
    if a.shape != w.shape:
        a, w = np.broadcast_arrays(a, w)
    if isinstance(op, ZeroOperator):
        ok = _norm(w) <= tol * (1.0 + _norm(a))
    elif isinstance(op, NormalCone):
        ok = _cone_contains(op.domain, a, w, tol)
    elif isinstance(op, Graph1D):
        ok = _graph_contains(op, a[..., 0], w[..., 0], tol)
    else:
        raise InvalidArgumentError(f"unknown operator type {type(op).__name__}")
    return bool(ok) if a.ndim == 1 else ok
