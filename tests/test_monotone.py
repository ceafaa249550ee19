"""Resolvent, projection and membership primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import (
    Ball,
    Box,
    Graph1D,
    HalfLine,
    Halfspace,
    InvalidArgumentError,
    NormalCone,
    RngKey,
    TEST_STREAM,
    ZeroOperator,
    domain_distance,
    operator_contains,
    operator_domain,
    project,
    resolvent,
    yosida,
)

KEY = RngKey(20260816, (TEST_STREAM, 1))


def _domains():
    return [
        Halfspace(normal=(1.0, 0.0), offset=0.0),
        Halfspace(normal=(3.0, -4.0), offset=2.5),
        Box(lower=(0.0, 0.0), upper=(1.0, 1.0)),
        Box(lower=(-2.0, 0.5, -1.0), upper=(2.0, 1.5, 4.0)),
        Ball(center=(0.0, 0.0), radius=1.0),
        Ball(center=(1.0, -2.0, 0.5), radius=3.0),
        HalfLine(lower=0.0),
        HalfLine(lower=-1.5),
    ]


def _operators():
    ops = [ZeroOperator(dim=2)]
    ops += [NormalCone(domain=d) for d in _domains()]
    ops.append(Graph1D.sign())
    ops.append(
        Graph1D(breakpoints=(-1.0, 2.0), intercepts=(-3.0, 0.0, 3.5), slopes=(1.0, 2.0, 0.5))
    )
    return ops


# ---------------------------------------------------------------------------
# pinned examples


def test_resolvent_zero_operator_is_identity():
    out = resolvent(ZeroOperator(dim=2), 1.0, (3.0, -2.0))
    assert np.array_equal(out, np.array([3.0, -2.0]))


def test_resolvent_halfline_cone_projects():
    op = NormalCone(domain=HalfLine(lower=0.0))
    out = resolvent(op, 0.5, (-1.0,))
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_resolvent_sign_graph_shrinks_small_input_to_zero():
    # y + 1*sign(y) must contain 0.5; only y = 0 works since [-1, 1]
    # absorbs the whole input.
    out = resolvent(Graph1D.sign(), 1.0, (0.5,))
    assert out[0] == 0.0


def test_resolvent_sign_graph_scan_oracle():
    # Brute scan: the resolvent output should minimize the residual
    # distance between x - y and lam * A(y) over a fine y-grid.
    g = Graph1D.sign()
    lam = 0.7
    for x in (-2.3, -0.6, 0.0, 0.4, 1.9):
        y_star = float(resolvent(g, lam, (x,))[0])
        grid = np.linspace(-4.0, 4.0, 160001)
        resid = np.empty_like(grid)
        for i, y in enumerate(grid):
            if y < 0.0:
                vals = (-1.0, -1.0)
            elif y > 0.0:
                vals = (1.0, 1.0)
            else:
                vals = (-1.0, 1.0)
            lo, hi = y + lam * vals[0], y + lam * vals[1]
            resid[i] = max(lo - x, 0.0) + max(x - hi, 0.0)
        best = grid[int(np.argmin(resid))]
        assert abs(y_star - best) < 1e-4
        assert operator_contains(g, [y_star], [(x - y_star) / lam], tol=1e-9)


def test_projection_examples():
    assert np.array_equal(project(Box((0.0, 0.0), (1.0, 1.0)), (2.0, -1.0)), [1.0, 0.0])
    out = project(Ball(center=(0.0, 0.0), radius=1.0), (3.0, 4.0))
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=0.0, atol=1e-15)
    assert np.array_equal(project(Halfspace((1.0, 0.0), 0.0), (2.0, 5.0)), [0.0, 5.0])


def test_yosida_examples():
    assert np.array_equal(yosida(ZeroOperator(dim=3), 0.25, (1.0, -4.0, 2.0)), np.zeros(3))
    out = yosida(NormalCone(domain=HalfLine(lower=0.0)), 0.5, (-1.0,))
    assert out[0] == -2.0
    # J_1(3) = 2 for the sign graph, so the approximation saturates at 1.
    out = yosida(Graph1D.sign(), 1.0, (3.0,))
    assert out[0] == 1.0


def test_in_normal_cone_examples():
    box = NormalCone(Box((0.0, 0.0), (1.0, 1.0)))
    assert operator_contains(box, (0.0, 0.5), (-1.0, 0.0), tol=1e-9)
    assert operator_contains(box, (0.5, 0.5), (0.0, 0.0), tol=1e-9)
    assert not operator_contains(box, (0.5, 0.5), (0.1, 0.0), tol=1e-9)
    ball = NormalCone(Ball(center=(0.0, 0.0), radius=1.0))
    assert operator_contains(ball, (1.0, 0.0), (2.0, 0.0), tol=1e-9)
    assert not operator_contains(ball, (1.0, 0.0), (2.0, 0.5), tol=1e-9)


def test_box_cone_with_both_faces_of_a_coordinate_active():
    # the interval [0, 1e-3] lies inside the activity band at tol 1e-2,
    # so both faces are active everywhere and every v is in the cone
    op = NormalCone(Box((0.0,), (1e-3,)))
    for x in (0.0, 5e-4, 1e-3):
        for v in (-50.0, -1.0, 0.0, 1.0, 50.0):
            assert operator_contains(op, (x,), (v,), tol=1e-2) is True
    # at tol 1e-9 only the face the point sits on is active
    assert operator_contains(op, (0.0,), (-1.0,), tol=1e-9) is True
    assert operator_contains(op, (0.0,), (1.0,), tol=1e-9) is False
    assert operator_contains(op, (5e-4,), (1.0,), tol=1e-9) is False


def test_box_cone_with_an_infinite_side():
    op = NormalCone(Box((0.0, -np.inf), (np.inf, 1.0)))
    assert operator_contains(op, (0.0, -7.0), (-3.0, 0.0), tol=1e-9) is True
    assert operator_contains(op, (0.0, 1.0), (-3.0, 2.0), tol=1e-9) is True
    assert operator_contains(op, (0.0, 1.0), (-3.0, -2.0), tol=1e-9) is False
    # no point lies on an infinite face, whatever its magnitude
    assert operator_contains(op, (1e12, -1e12), (1.0, 0.0), tol=1e-2) is False
    assert operator_contains(op, (1e12, -1e12), (0.0, -1.0), tol=1e-2) is False
    assert operator_contains(op, (1e12, -1e12), (0.0, 0.0), tol=1e-2) is True


def test_halfline_cone_on_the_tolerance_band():
    # the lower face is active within tol*(1+|x|) above it; past that
    # the cone is {0}, and below the domain by more than it is empty
    op = NormalCone(HalfLine(lower=1.0))
    tol = 1e-2
    inside, past = 1.0 + 0.9 * tol * 2.0, 1.0 + 1.1 * tol * 2.0
    assert operator_contains(op, (inside,), (-5.0,), tol) is True
    assert operator_contains(op, (past,), (-5.0,), tol) is False
    assert operator_contains(op, (past,), (0.5 * tol,), tol) is True
    assert operator_contains(op, (inside,), (0.5 * tol,), tol) is True
    assert operator_contains(op, (inside,), (3.0 * tol,), tol) is False
    assert operator_contains(op, (1.0 - 0.9 * tol * 2.0,), (-5.0,), tol) is True
    assert operator_contains(op, (1.0 - 1.1 * tol * 2.0,), (-5.0,), tol) is False


# ---------------------------------------------------------------------------
# invariants


def test_resolvent_nonexpansive():
    gen = KEY.child(1).generator()
    for op in _operators():
        d = op.dim
        x = gen.standard_normal((500, d)) * 3.0
        y = gen.standard_normal((500, d)) * 3.0
        for lam in (0.01, 0.5, 2.0):
            jx = resolvent(op, lam, x)
            jy = resolvent(op, lam, y)
            lhs = np.linalg.norm(jx - jy, axis=-1)
            rhs = np.linalg.norm(x - y, axis=-1)
            assert np.all(lhs <= rhs + 1e-12)


def test_yosida_pairs_are_monotone():
    gen = KEY.child(2).generator()
    for op in _operators():
        d = op.dim
        x = gen.standard_normal((400, d)) * 2.0
        y = gen.standard_normal((400, d)) * 2.0
        lam = 0.3
        vx = yosida(op, lam, x)
        vy = yosida(op, lam, y)
        jx = resolvent(op, lam, x)
        jy = resolvent(op, lam, y)
        inner = np.sum((jx - jy) * (vx - vy), axis=-1)
        assert np.all(inner >= -1e-12)


def test_projection_variational_inequality():
    gen = KEY.child(3).generator()
    for dom in _domains():
        d = dom.dim
        x = gen.standard_normal((2000, d)) * 4.0
        p = project(dom, x)
        assert np.all(domain_distance(dom, p) <= 1e-12 * (1.0 + np.linalg.norm(p, axis=-1)))
        # random domain points: project noise to get feasible witnesses
        y = project(dom, gen.standard_normal((2000, d)) * 4.0)
        inner = np.sum((x - p) * (y - p), axis=-1)
        assert np.all(inner <= 1e-9 * (1.0 + np.abs(inner)))


def test_resolvent_of_normal_cone_is_projection_for_every_lambda():
    gen = KEY.child(4).generator()
    for dom in _domains():
        op = NormalCone(domain=dom)
        x = gen.standard_normal((200, dom.dim)) * 5.0
        p = project(dom, x)
        for lam in (1e-6, 0.1, 1.0, 37.0):
            assert np.array_equal(resolvent(op, lam, x), p)


def test_yosida_membership():
    gen = KEY.child(5).generator()
    for op in _operators():
        x = gen.standard_normal((300, op.dim)) * 3.0
        for lam in (0.05, 1.0):
            j = resolvent(op, lam, x)
            v = yosida(op, lam, x)
            assert np.all(operator_contains(op, j, v, tol=1e-9))


# random operators for the resolvent properties: every domain family,
# boxes open on some sides, and graphs with random breakpoints, jumps and
# non-negative slopes
_coord = st.floats(-5.0, 5.0)


@st.composite
def _random_box(draw):
    dim = draw(st.integers(1, 3))
    lower, upper = [], []
    for _ in range(dim):
        lo, width = draw(_coord), draw(st.floats(0.1, 5.0))
        lower.append(-np.inf if draw(st.booleans()) else lo)
        upper.append(np.inf if draw(st.booleans()) else lo + width)
    return NormalCone(domain=Box(lower=tuple(lower), upper=tuple(upper)))


@st.composite
def _random_ball(draw):
    center = draw(st.lists(_coord, min_size=1, max_size=3))
    return NormalCone(domain=Ball(center=tuple(center), radius=draw(st.floats(0.1, 5.0))))


@st.composite
def _random_halfspace(draw):
    normal = draw(st.lists(_coord, min_size=1, max_size=3).filter(lambda n: np.linalg.norm(n) > 0.1))
    return NormalCone(domain=Halfspace(normal=tuple(normal), offset=draw(_coord)))


@st.composite
def _random_graph(draw):
    k = draw(st.integers(0, 4))
    bp = -5.0 + np.cumsum(draw(st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k)))
    slopes = draw(st.lists(st.floats(0.0, 5.0), min_size=k + 1, max_size=k + 1))
    intercepts = [draw(_coord)]
    for i, b in enumerate(bp):
        # the right piece starts a non-negative jump above the left one
        left = intercepts[i] + slopes[i] * b
        intercepts.append(left + draw(st.floats(0.0, 3.0)) - slopes[i + 1] * b)
    return Graph1D(breakpoints=tuple(bp), intercepts=tuple(intercepts), slopes=tuple(slopes))


_random_operator = st.one_of(
    _random_box(),
    _random_ball(),
    _random_halfspace(),
    _coord.map(lambda lo: NormalCone(domain=HalfLine(lower=lo))),
    _random_graph(),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(op=_random_operator, log_lam=st.floats(-4.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_resolvent_properties_on_random_operators(op, log_lam, seed):
    lam = 10.0**log_lam
    gen = np.random.default_rng(seed)
    x = gen.uniform(-10.0, 10.0, (64, op.dim))
    y = gen.uniform(-10.0, 10.0, (64, op.dim))
    jx, jy = resolvent(op, lam, x), resolvent(op, lam, y)
    # nonexpansive, up to rounding
    lhs = np.linalg.norm(jx - jy, axis=-1)
    rhs = np.linalg.norm(x - y, axis=-1)
    assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)
    # the Yosida pair lies on the graph: (x - J x) / lam is in A(J x)
    assert np.all(operator_contains(op, jx, (x - jx) / lam, tol=1e-9))


def test_operator_domain():
    dom = HalfLine(lower=0.0)
    assert operator_domain(NormalCone(domain=dom)) is dom
    assert operator_domain(ZeroOperator(dim=4)) is None
    assert operator_domain(Graph1D.sign()) is None


# ---------------------------------------------------------------------------
# construction and error paths


def test_halfspace_normalizes_normal():
    h = Halfspace(normal=(3.0, 4.0), offset=10.0)
    np.testing.assert_allclose(h.normal, (0.6, 0.8), atol=1e-15)
    assert h.offset == pytest.approx(2.0)


def test_domain_construction_rejects_degenerate_inputs():
    with pytest.raises(InvalidArgumentError):
        Ball(center=(0.0,), radius=0.0)
    with pytest.raises(InvalidArgumentError):
        Box(lower=(0.0, 0.0), upper=(1.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        Box(lower=(0.0,), upper=(np.nan,))
    with pytest.raises(InvalidArgumentError):
        Halfspace(normal=(0.0, 0.0), offset=1.0)
    with pytest.raises(InvalidArgumentError):
        HalfLine(lower=np.inf)


def test_box_allows_infinite_bounds():
    b = Box(lower=(0.0, -np.inf), upper=(np.inf, 0.0))
    assert np.array_equal(project(b, (-1.0, 2.0)), [0.0, 0.0])
    assert np.array_equal(project(b, (5.0, -7.0)), [5.0, -7.0])


def test_graph_construction_errors():
    with pytest.raises(InvalidArgumentError):
        Graph1D(breakpoints=(1.0, 0.0), intercepts=(0.0, 0.0, 0.0), slopes=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        Graph1D(breakpoints=(0.0,), intercepts=(0.0, 0.0), slopes=(1.0, -1.0))
    with pytest.raises(InvalidArgumentError):
        # value drops across the breakpoint: 1 -> -1
        Graph1D(breakpoints=(0.0,), intercepts=(1.0, -1.0), slopes=(0.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        Graph1D(breakpoints=(0.0,), intercepts=(0.0, 0.0, 0.0), slopes=(1.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        ZeroOperator(dim=0)


@pytest.mark.parametrize(
    "op", _operators(), ids=lambda op: type(getattr(op, "domain", op)).__name__
)
def test_resolvent_into_out_is_bit_equal_to_a_fresh_result(op):
    x = KEY.child(7).generator().standard_normal((257, op.dim)) * 3.0
    before = x.copy()
    for lam in (0.05, 2.0):
        out = np.full_like(x, np.nan)
        assert resolvent(op, lam, x, out=out) is out
        assert np.array_equal(out.view(np.int64), resolvent(op, lam, x).view(np.int64))
    assert np.array_equal(x, before)
    with pytest.raises(InvalidArgumentError, match=r"out has shape \(258, "):
        resolvent(op, 0.5, x, out=np.empty((258, op.dim)))


def test_resolvent_rejects_bad_arguments():
    op = ZeroOperator(dim=1)
    with pytest.raises(InvalidArgumentError):
        resolvent(op, 0.0, (1.0,))
    with pytest.raises(InvalidArgumentError):
        resolvent(op, -1.0, (1.0,))
    with pytest.raises(InvalidArgumentError):
        resolvent(op, 1.0, (np.nan,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_and_resolvent_reject_non_finite_points(bad):
    # the normal-cone resolvent validates once and projects unchecked,
    # so the check it keeps must still catch every non-finite point
    for dom in _domains():
        x = np.zeros((3, dom.dim))
        x[2, -1] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            project(dom, x)
        with pytest.raises(InvalidArgumentError, match="finite"):
            resolvent(NormalCone(domain=dom), 0.5, x)
        with pytest.raises(InvalidArgumentError, match="finite"):
            domain_distance(dom, x)
    for op in _operators():
        x = np.zeros((2, op.dim))
        x[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            resolvent(op, 0.5, x)


def test_project_and_resolvent_reject_wrong_point_shape():
    dom = Box((0.0, 0.0), (1.0, 1.0))
    for call in (lambda x: project(dom, x), lambda x: resolvent(NormalCone(domain=dom), 0.5, x)):
        with pytest.raises(InvalidArgumentError, match="last axis"):
            call(np.zeros((4, 3)))
        with pytest.raises(InvalidArgumentError, match="last axis"):
            call(1.0)


def test_membership_refuses_points_deep_outside():
    # off the domain A(x) is empty, so no v is in it; within the
    # tolerance band the boundary's cone answers
    box = NormalCone(Box((0.0, 0.0), (1.0, 1.0)))
    assert operator_contains(box, (50.0, 0.5), (1.0, 0.0), tol=1e-9) is False
    assert operator_contains(NormalCone(Ball(center=(0.0,), radius=1.0)), (9.0,), (1.0,), tol=1e-9) is False
    assert operator_contains(box, (1.0 + 1e-3, 0.5), (1.0, 0.0), tol=1e-2) is True
    assert operator_contains(box, (1.0 + 1e-3, 0.5), (1.0, 0.0), tol=1e-4) is False
    assert operator_contains(NormalCone(domain=HalfLine(lower=0.0)), (-1.0,), (-1.0,), 1e-9) is False
    out = operator_contains(box, [(50.0, 0.5), (1.0, 0.5)], [(1.0, 0.0), (1.0, 0.0)], tol=1e-9)
    assert out.tolist() == [False, True]


def test_in_normal_cone_batched():
    box = NormalCone(Box((0.0, 0.0), (1.0, 1.0)))
    xs = [(0.0, 0.5), (0.5, 0.5), (1.0, 1.0)]
    vs = [(-1.0, 0.0), (0.0, 0.0), (1.0, 1.0)]
    out = operator_contains(box, xs, vs, tol=1e-9)
    assert out.shape == (3,)
    assert out.all()


def test_sign_graph_value_interval():
    # the sign graph's value set at 0 is the closed interval [-1, 1]
    g = Graph1D.sign()
    ends = np.array([[-1.0], [1.0]])
    assert np.all(operator_contains(g, np.zeros((2, 1)), ends, tol=0.0))
    just_outside = ends * (1.0 + 1e-9)
    assert not np.any(operator_contains(g, np.zeros((2, 1)), just_outside, tol=0.0))


def test_graph_membership_at_jump():
    g = Graph1D.sign()
    assert operator_contains(g, (0.0,), (0.3,), tol=1e-9)
    assert operator_contains(g, (0.0,), (-1.0,), tol=1e-9)
    assert not operator_contains(g, (0.0,), (1.5,), tol=1e-9)
    # the value set at the jump is exactly [-1, 1]
    assert operator_contains(g, (0.0,), (1.0,), tol=1e-9)
    assert not operator_contains(g, (0.0,), (-1.5,), tol=1e-9)
    assert operator_contains(g, (2.0,), (1.0,), tol=1e-9)
    assert not operator_contains(g, (2.0,), (0.5,), tol=1e-9)


def test_multi_piece_graph_resolvent_solves_inclusion():
    g = Graph1D(breakpoints=(-1.0, 2.0), intercepts=(-3.0, 0.0, 3.5), slopes=(1.0, 2.0, 0.5))
    gen = KEY.child(6).generator()
    xs = gen.uniform(-8.0, 8.0, size=(400, 1))
    for lam in (0.2, 1.0, 3.0):
        y = resolvent(g, lam, xs)
        v = (xs - y) / lam
        assert np.all(operator_contains(g, y, v, tol=1e-9))
