import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lineplace import (
    Interval,
    NormP,
    Point,
    PointSet,
    Segment,
    Tolerance,
    lp_distance,
    max_empty_binsearch,
    min_enclosing,
    obnoxious,
    one_center,
    point_segment_distance,
    transform_to_axis,
)
from lineplace._reference import axis_argmin_exact, covering_interval, distance_argmin_on_axis, \
    rmin_on_axis
from lineplace.intervals import SegmentArray, union_covers_rows

TOL = Tolerance()

coord = st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
norm_p = st.one_of(st.just(1.0), st.floats(min_value=1.1, max_value=8.0,
                                           allow_nan=False))


def points(strategy=coord):
    return st.builds(Point, strategy, strategy)


def segments(strategy=coord):
    return st.builds(Segment, points(strategy), points(strategy))


@given(points(), points(), points(), norm_p)
def test_metric_properties(a, b, c, p):
    norm = NormP(p)
    dab = lp_distance(a, b, norm)
    dba = lp_distance(b, a, norm)
    assert dab >= 0.0
    assert dab == dba
    assert lp_distance(a, a, norm) == 0.0
    dac = lp_distance(a, c, norm)
    dcb = lp_distance(c, b, norm)
    assert dab <= dac + dcb + 1e-9 * max(1.0, dab)


@given(points(small), segments(small), norm_p)
def test_point_segment_distance_bounds(q, s, p):
    norm = NormP(p)
    d = point_segment_distance(q, s, norm, TOL)
    da = lp_distance(q, s.a, norm)
    db = lp_distance(q, s.b, norm)
    assert 0.0 <= d <= min(da, db) + 1e-9 * max(1.0, d)


@given(segments(small), st.floats(0.0, 1.0), norm_p)
def test_distance_to_own_point_is_zero(s, t, p):
    norm = NormP(p)
    q = Point(s.a.x + t * (s.b.x - s.a.x), s.a.y + t * (s.b.y - s.a.y))
    d = point_segment_distance(q, s, norm, TOL)
    scale = max(1.0, abs(q.x), abs(q.y))
    assert d <= 1e-9 * scale


@given(segments(small), st.floats(0.0, 12.0), norm_p)
@settings(max_examples=60)
def test_covering_interval_membership(s, radius, p):
    # the kernel the solvers run, and the scalar reference
    norm = NormP(p)
    (lo,), (hi,) = SegmentArray([s], norm).covering(np.array([radius]))
    for iv in (Interval.empty() if lo[0] > hi[0] else Interval(lo[0], hi[0]),
               covering_interval(s, radius, norm)):
        if iv.is_empty:
            for x in (-3.0, 2.0, 5.0, 8.0, 13.0):
                d = point_segment_distance(Point(x, 0.0), s, norm, TOL)
                assert d >= radius - 1e-6
            continue
        span = max(iv.hi - iv.lo, 1.0)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = iv.lo + frac * (iv.hi - iv.lo)
            d = point_segment_distance(Point(x, 0.0), s, norm, TOL)
            assert d <= radius + 1e-6 * max(1.0, radius)
        for x in (iv.lo - 0.01 * span, iv.hi + 0.01 * span):
            d = point_segment_distance(Point(x, 0.0), s, norm, TOL)
            assert d >= radius - 1e-6 * max(1.0, radius)


@given(segments(small), norm_p, st.floats(-20.0, 20.0))
def test_profile_matches_distance(s, p, x):
    # the envelope machinery rests on these per-segment profiles
    norm = NormP(p)
    prof = obnoxious._build_profile(s.a.x, s.a.y, s.b.x, s.b.y, p)
    got = prof.value(x)
    want = point_segment_distance(Point(x, 0.0), s, norm, TOL)
    assert abs(got - want) <= 1e-8 * max(1.0, want)


@given(segments(small), norm_p)
def test_argmin_strategies_agree(s, p):
    norm = NormP(p)
    xd, dd = distance_argmin_on_axis(s, 10.0, norm, TOL)
    xe, de = axis_argmin_exact(s, 10.0, norm, TOL)
    assert abs(dd - de) <= 1e-6 * max(1.0, de)
    assert 0.0 <= xe <= 10.0


@given(segments(small), segments(small), norm_p)
@settings(max_examples=60)
def test_equal_distance_postcondition(s1, s2, p):
    # at each ownership boundary of the two segments' lower envelope
    norm = NormP(p)
    segs = [s1, s2]
    env = obnoxious.compute_lower_envelope(segs, 10.0, norm, TOL)
    for left, right in zip(env.pieces, env.pieces[1:]):
        x = left.b
        assert 0.0 <= x <= 10.0
        d1 = point_segment_distance(Point(x, 0.0), segs[left.seg_index], norm, TOL)
        d2 = point_segment_distance(Point(x, 0.0), segs[right.seg_index], norm, TOL)
        assert abs(d1 - d2) <= 1e-6 * max(1.0, d1, d2)


@given(points(small), points(small), points(small))
def test_transform_round_trip(a, b, q):
    assume(lp_distance(a, b, NormP(2.0)) > 1e-6)
    frame = transform_to_axis(Segment(a, b), NormP(2.0))
    r = frame.inverse_point(frame.forward_point(q))
    scale = max(1.0, abs(q.x), abs(q.y))
    assert abs(r.x - q.x) <= 1e-9 * scale
    assert abs(r.y - q.y) <= 1e-9 * scale
    d0 = lp_distance(a, q, NormP(2.0))
    d1 = lp_distance(frame.forward_point(a), frame.forward_point(q), NormP(2.0))
    assert abs(d0 - d1) <= 1e-9 * max(1.0, d0)


@given(st.lists(st.tuples(st.floats(-20, 20, allow_nan=False),
                          st.floats(0, 15, allow_nan=False)), max_size=6))
def test_union_covers_witness_is_uncovered(raw):
    ivs = [Interval(lo, lo + w) for lo, w in raw]
    domain = Interval(0.0, 10.0)
    lo = np.array([iv.lo for iv in ivs], dtype=float)
    hi = np.array([iv.hi for iv in ivs], dtype=float)
    (ok,), (witness,), _ = union_covers_rows(lo[None], hi[None], domain)
    if ok:
        assert math.isnan(witness)
        return
    assert domain.contains(witness)
    assert all(not iv.contains(witness) for iv in ivs)


# -- pruning in the two radius bisections never changes an answer ------

# the search tolerances: the default, one relative to the coordinate
# scale, and coarse ones, 0.5 and 4 times the scale
_EPS = [None, 1e-9, 0.5, 4.0]


def _tolerance(eps, scale):
    if eps is None:
        return TOL
    return Tolerance(eps=eps) if eps == 0.5 else Tolerance(eps=eps * scale)


@st.composite
def _row_instances(draw, sizes, scales):
    """Rows mixing the shapes the pruning rules meet, with the search
    tolerance.

    A seeded generator fills the rows; hypothesis draws the seed, the
    size, the coordinate scale, L, the tolerance and the share of each
    shape: spread or near-line rows, rows crossing the axis, point rows,
    level rows, duplicates (ties in every bound), and rows lying on the
    axis over all of [0, L]. When every row lies on the axis, the
    one-center lower bound is 0 and a rule that dropped every row with
    max(d0, dL) <= lo would keep none. Near-line rows either overhang
    [0, 100 scale] or lie over it, where the largest empty circle sits
    at 0 or next to 100 scale once L is that.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(sizes)
    scale = draw(st.sampled_from(scales))
    L = draw(st.sampled_from([0.0, 1.0, 10.0, 100.0])) * scale
    tol = _tolerance(draw(st.sampled_from(_EPS)), scale)
    nearline = draw(st.booleans())
    x_lo, x_hi = draw(st.sampled_from([(-20.0, 120.0), (0.0, 100.0)]))
    # one weight per shape, and the last for duplicates
    weights = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    rng = random.Random(seed)

    def coord(lo, hi):
        return rng.uniform(lo, hi) * scale

    def row():
        if nearline:
            x1, x2 = coord(x_lo, x_hi), coord(x_lo, x_hi)
            y1, y2 = coord(-2.0, 2.0), coord(-2.0, 2.0)
        else:
            x1, y1, x2, y2 = (coord(-100.0, 100.0) for _ in range(4))
        return [x1, y1, x2, y2]

    def crossing():
        x1, y1, x2, y2 = row()
        return [x1, abs(y1), x2, -abs(y2)]

    def point():
        x, y = row()[:2]
        return [x, y, x, y]

    def level():
        x1, y1, x2, _ = row()
        return [x1, y1, x2, y1]

    def on_axis():
        return [-coord(0.0, 5.0), 0.0, L + coord(0.0, 5.0), 0.0]

    makers = [row, crossing, point, level, on_axis]
    pick = [m for m, w in zip(makers, weights) for _ in range(w)] or [on_axis]
    rows = []
    while len(rows) < n:
        if rows and rng.random() < 0.1 * weights[5]:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append(rng.choice(pick)())
    return np.array(rows), L, tol


def _nearline(seed, n, L, scale=1.0, eps=None):
    """n rows with x in [0, 100 scale] and |y| <= 2 scale, over [0, L]."""
    rng = random.Random(seed)
    rows = [[rng.uniform(0.0, 100.0) * scale, rng.uniform(-2.0, 2.0) * scale,
             rng.uniform(0.0, 100.0) * scale, rng.uniform(-2.0, 2.0) * scale] for _ in range(n)]
    return np.array(rows), L, _tolerance(eps, scale)


def _bits(c):
    return c.cx.hex(), c.radius.hex()


def _all_rows(far, *args):
    return np.ones(len(far), dtype=bool)


def _all_rows_every_radius(far, *args):
    # no row dropped, and no radius answered covered unasked (R_s = inf)
    return _all_rows(far), math.inf


def _binsearch_runs(segs, L, norm, tol):
    """The bits of max_empty_binsearch as it runs, with the gap anchor
    moved before every pass however few its rows, and with no anchor."""
    runs = [_bits(max_empty_binsearch(segs, L, norm, tol))]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(obnoxious, "MAX_RADII", math.inf)
        runs.append(_bits(max_empty_binsearch(segs, L, norm, tol)))
        m.setattr(obnoxious._GapAnchor, "_move", lambda *args: None)
        runs.append(_bits(max_empty_binsearch(segs, L, norm, tol)))
    return runs


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 30.0])
@given(inst=_row_instances(st.integers(24, 200), [1e-70, 1e-6, 1.0, 1e6, 1e70]))
@example(inst=_nearline(9, 200, 100.0)).via("largest empty circle at x = 0")
@example(inst=_nearline(8, 200, 100.0)).via("largest empty circle next to x = L")
@example(inst=_nearline(2, 60, 0.0)).via("L = 0")
@example(inst=_nearline(3, 120, 100.0, eps=0.5)).via("eps of 0.5")
@example(inst=_nearline(4, 120, 100.0, eps=4.0)).via("eps of 4 times the scale")
@example(inst=_nearline(5, 120, 1e72, scale=1e70)).via("scale beyond 2^200")
@example(inst=_nearline(5, 120, 1e-68, scale=1e-70, eps=1e-9)).via("scale below 2^-200")
@settings(deadline=None)
def test_pruning_never_changes_an_answer(p, inst):
    # the rows that cannot own the answer, and the rows that cannot
    # reach the gaps left a band below the bracket, are dropped: with
    # the pruning and without any, the bits agree
    cols, L, tol = inst
    norm = NormP(p)
    segs = [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in cols.tolist()]
    pruned = _bits(min_enclosing(segs, L, norm, tol))
    runs = _binsearch_runs(segs, L, norm, tol)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(one_center, "_binding_rows", _all_rows)
        m.setattr(obnoxious, "_owning_rows", _all_rows_every_radius)
        m.setattr(obnoxious._GapAnchor, "_move", lambda *args: None)
        full = [_bits(min_enclosing(segs, L, norm, tol)),
                _bits(max_empty_binsearch(segs, L, norm, tol))]
    assert pruned == full[0]
    assert runs == [full[1]] * 3


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(17, 300),
       L=st.sampled_from([10.0, 50.0, 100.0]))
@settings(deadline=None)
def test_gap_anchor_never_changes_an_answer(p, seed, n, L):
    # near-line rows over [0, 100], where the search reaches a bracket a
    # few bands wide and the anchor drops all but a few rows
    cols, L, tol = _nearline(seed, n, L)
    segs = [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in cols.tolist()]
    runs = _binsearch_runs(segs, L, NormP(p), tol)
    assert runs[1:] == runs[:1] * 2


# -- the k-cover circle of a run scales with its points ----------------

# nonzero magnitudes in [1e-6, 1e6], so that 2^-200 and 2^200 times a
# coordinate, or its square at p = 2, stay normal floats
_scalable = st.one_of(st.sampled_from([0.0, -0.0]),
                      st.floats(1e-6, 1e6).flatmap(lambda v: st.sampled_from([v, -v])))


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("k", [200, -200])
@given(pairs=st.lists(st.tuples(_scalable, _scalable), min_size=1, max_size=12))
@example(pairs=[(0.0, 2.0), (1067.0, 1067.0)]).via("an absolute center slack broke the scaling")
@settings(deadline=None)
def test_run_circle_commutes_with_power_of_two_scaling(p, k, pairs):
    # scaling by 2^k is exact, and at p = 1 and 2 the pair circles are
    # closed forms, so the circle of the run scales bit for bit
    xy = np.array(pairs)
    n = len(pairs)
    cx, r = rmin_on_axis(PointSet(xy), 0, n - 1, NormP(p), TOL)
    sx, sr = rmin_on_axis(PointSet(np.ldexp(xy, k)), 0, n - 1, NormP(p), TOL)
    assert (sx.hex(), sr.hex()) == (math.ldexp(cx, k).hex(), math.ldexp(r, k).hex())
