import decimal
import itertools
import json
import math
import pathlib
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lineplace import (
    AggSpec,
    EmptyInput,
    NormP,
    Point,
    PointSet,
    Tolerance,
    dp_solve,
    lp_distance,
)
from lineplace import geometry, k_cover, verify
from lineplace.cli import main
from lineplace._reference import NoBisectorRoot, _halfwidth, dp_scan, min_enclosing_scalar, \
    relax_scan, rmin_on_axis, run_circle, run_radii, two_point_circle
from lineplace.errors import TooLarge
from lineplace.verify import _enclosing_circle, certify_run_table, enumerate_partitions, \
    set_partition_oracle

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)
ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def pset(*pairs):
    return PointSet(tuple(Point(x, y) for x, y in pairs))


def point(ps, i):
    """Point i of the sorted set, as a Point of plain floats."""
    return Point(*ps.xy[i].tolist())


def random_pset(rng, n, regime):
    """Points near the line, spread over the plane, or on a small
    integer grid (equal abscissas, equal |y|, duplicates)."""
    if regime == "nearline":
        return pset(*((rng.uniform(0, 100), rng.uniform(-2, 2)) for _ in range(n)))
    if regime == "spread":
        return pset(*((rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)))
    return pset(*((float(rng.randint(0, 5)), float(rng.randint(-3, 3))) for _ in range(n)))


U = 2.0 ** -52


def pair_tolerance(ps, i, j, xc, R, p, eps):
    """Bound on |batch radius - scalar radius| for one pair at p != 1, 2.

    Derived before comparing, from float64 and the pair's conditioning.
    Both routes evaluate F(x) = |x - xi|^p - |x - xj|^p and the target
    |yj|^p - |yi|^p with a few ulp of error each (numpy's SIMD powers
    and Python's ** may differ in the last bit), so within
    dF = 8u (|x - xi|^p + |x - xj|^p + |yi|^p + |yj|^p), u = 2^-52.
    F increases with slope s = F'(xc), so every bracket end a route
    keeps lies within dF / s of the root, and its midpoint within
    dF / s + eps/8 once the bracket is eps/4 wide. The scalar route
    ends so; the batch's rtsafe ends so when it bisects, and otherwise
    after a Newton step of at most eps/4, whose error is of the order
    of the step squared times F''/F', far below eps/8: centers differ
    by at most 2 dF / s + eps/4. The radius is 1-Lipschitz in the center
    and each route rounds it by a few ulp, so the radii differ by at
    most 2 dF / s + eps/4 + 8u R. Between the points s = p (da^(p-1) +
    db^(p-1)), with da, db the distances to them; outside, the mean
    value theorem gives s >= p (p - 1) min(da^(p-2), db^(p-2)) |xj - xi|
    (the difference of the two powers cancels in float64, so s is not
    computed from it). Far from both points, at distance D ~ R, that
    is s ~ p (p - 1) R^(p-2) |xj - xi| against dF ~ u R^p, so the
    relative bound grows like u R / |xj - xi|.
    """
    a, b = point(ps, i), point(ps, j)
    da, db = abs(xc - a.x), abs(xc - b.x)
    dF = 8 * U * (da ** p + db ** p + abs(a.y) ** p + abs(b.y) ** p)
    if a.x <= xc <= b.x:
        s = p * (da ** (p - 1) + db ** (p - 1))
    else:
        s = p * (p - 1) * min(da ** (p - 2), db ** (p - 2)) * (b.x - a.x)
    return 2 * dF / s + eps / 4 + 8 * U * R


def taxicab_tolerance(ps, i, j, eps):
    """Bound on |batch - scalar| for one pair's center and radius at p = 1.

    The batch takes the closed form c = (xi + xj + t) / 2 with t =
    |yj| - |yi|, within u (|xi| + |xj| + |t|) of the exact root of
    2x - xi - xj = t, u = 2^-52. The scalar route bisects the same
    F(x) = |x - xi| - |x - xj| on [xi, xj] to a bracket eps/4 wide, so
    its midpoint lies within eps/8 of the root of its float F; that F
    is within 2u |xj - xi| of 2x - xi - xj, and the slope 2 halves it.
    So the centers differ by at most the returned eps/8 + 4u (|xi| +
    |xj| + |yi| + |yj|). The radius |c - xi| + |yi| is 1-Lipschitz in
    c and each route rounds it twice, which adds 4u R for the radii.
    """
    a, b = point(ps, i), point(ps, j)
    return eps / 8 + 4 * U * (abs(a.x) + abs(b.x) + abs(a.y) + abs(b.y))


def batch_binding(ps, norm, tol):
    """(i, j, binding radius) of every pair i <= j of the sorted set."""
    X, Y = ps.xy.T.copy()
    I, J = np.triu_indices(len(ps))
    binding = k_cover._binding_radii(X, Y, I, J, norm.p, tol)
    return zip(I.tolist(), J.tolist(), binding.tolist())


# two points whose p = 2 pair radius np.hypot rounds 1 ulp above
# math.hypot: 0x1.28b71cd0857e0p+3 against 0x1.28b71cd0857dfp+3
HYPOT_APART = ((13.552, -1.727), (31.884, 0.966))


def hypot_tolerance(R):
    """Bound on |batch radius - scalar radius| for a p = 2 pair of
    radius R (a float or an array).

    Both routes take the same closed-form center c, so both radii are
    the hypot of the same two floats |c - xi| and |yi|: np.hypot in the
    batch (_np_lp), math.hypot in the scalar route (_lp_pair). Each is
    within 1 ulp of the exact value: CPython's math.hypot has its error
    under 1 ulp since 3.10, and np.hypot calls the C library's hypot,
    within 1 ulp in glibc. So the two lie within 2 ulp of each other,
    and an ulp of R is at most U R, u = 2^-52, or 2^-1074 where R is
    subnormal. On 100,000 random draws in [0, 100] x [-2, 2] they
    differ on about 70, by 1 ulp; HYPOT_APART is one.
    """
    return 2 * np.maximum(U * R, 2.0 ** -1074)


def reference_tolerance(ps, i, j, want, p, eps):
    """How far the batch's pair center, and its radius up to the
    rounding that check_binding adds, may lie from the scalar reference
    want = (center, radius): bit for bit at p = 2 (the same closed-form
    center), taxicab_tolerance at p = 1, pair_tolerance at other p
    (which also bounds the centers' difference, 2 dF / s + eps/4)."""
    if p == 2.0:
        return 0.0
    if p == 1.0:
        return taxicab_tolerance(ps, i, j, eps)
    return pair_tolerance(ps, i, j, *want, p, eps)


def check_binding(ps, i, j, binding, want, p, eps):
    """One pair's binding radius against the scalar reference want =
    (center, radius) of two_point_circle, None where it raises
    NoBisectorRoot: 0 where that has no center or where its center
    lies outside [xi, xj] by more than reference_tolerance, the
    reference's radius within that tolerance (inf where it is not
    finite) where its center lies inside by more; within the tolerance
    of an end, either. The radius may also differ by its own rounding:
    4u R at p = 1, and hypot_tolerance at p = 2."""
    xi, xj = ps.xy[i, 0], ps.xy[j, 0]
    if i == j:
        assert binding == want[1]
        return
    if want is None or xi == xj:
        assert binding == 0.0
        return
    xc, R = want
    if not math.isfinite(xc):
        assert binding == math.inf
        return
    bound = reference_tolerance(ps, i, j, want, p, eps)
    if not math.isfinite(R):
        near = binding == math.inf
    else:
        rounding = {1.0: 4 * U * R, 2.0: hypot_tolerance(R)}.get(p, 0.0)
        near = abs(binding - R) <= bound + rounding
    if xi + bound <= xc <= xj - bound:
        assert near, (i, j, binding, want)
    elif not xi - bound <= xc <= xj + bound:
        assert binding == 0.0, (i, j, binding, want)
    else:
        assert binding == 0.0 or near, (i, j, binding, want)


class TestPointSet:
    def test_sorted_on_construction(self):
        ps = pset((5, 1), (1, 2), (1, -3))
        assert ps.xy.tolist() == [[1, -3], [1, 2], [5, 1]]
        assert len(ps) == 3

    def test_order_is_that_of_a_key_sort(self):
        # the stable lexsort keeps rows with equal keys in input order,
        # as a sort by the key (x, y) does: 0.0 and -0.0 compare equal,
        # and duplicates stay as they came
        rng = random.Random("point order")
        for _ in range(50):
            pairs = [(rng.choice((0.0, -0.0, 1.0, -1.0)), rng.choice((0.0, -0.0, 2.0)))
                     for _ in range(12)]
            want = sorted(pairs, key=lambda q: (q[0], q[1]))
            for ps in (pset(*pairs), PointSet(np.array(pairs))):
                assert [tuple(map(float.hex, row)) for row in ps.xy.tolist()] == \
                    [tuple(map(float.hex, q)) for q in want]

    def test_table_is_read_only(self):
        ps = PointSet(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert ps.xy.shape == (2, 2) and ps.xy.dtype == np.float64
        with pytest.raises(ValueError):
            ps.xy[0, 0] = 5.0
        assert PointSet(()).xy.shape == (0, 2)


class TestAggSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggSpec(0.5, "sum")
        with pytest.raises(ValueError):
            AggSpec(1.0, "median")
        assert AggSpec().kind == "sum"


class TestTwoPointCircle:
    def test_pinned(self):
        cx, r = two_point_circle(pset((3, -4), (9, 9)), 0, 0, N2, TOL)
        assert (cx, r) == (3.0, 4.0)

    def test_euclidean_pair(self):
        cx, r = two_point_circle(pset((0, 1), (2, 3)), 0, 1, N2, TOL)
        assert abs(cx - 3.0) < 1e-12
        assert abs(r - math.sqrt(10.0)) < 1e-12

    def test_equal_x_same_absy(self):
        cx, r = two_point_circle(pset((4, -2), (4, 2)), 0, 1, N2, TOL)
        assert (cx, r) == (4.0, 2.0)

    def test_equal_x_different_absy_raises(self):
        with pytest.raises(NoBisectorRoot):
            two_point_circle(pset((4, 1), (4, 2)), 0, 1, N2, TOL)

    def test_taxicab_plateau_raises(self):
        # |y| difference exceeds the x spread, so no axis point is
        # equidistant under p = 1
        with pytest.raises(NoBisectorRoot):
            two_point_circle(pset((0, 1), (1, 9)), 0, 1, N1, TOL)

    @pytest.mark.parametrize("norm", [N1, N3])
    def test_general_norm_equidistant(self, norm):
        ps = pset((0, 2), (5, 3))
        cx, r = two_point_circle(ps, 0, 1, norm, TOL)
        d0 = lp_distance(Point(cx, 0.0), point(ps, 0), norm)
        d1 = lp_distance(Point(cx, 0.0), point(ps, 1), norm)
        assert abs(d0 - d1) < 1e-7
        assert abs(r - d0) < 1e-7


# tie-heavy points: a small integer grid (duplicates, equal abscissas,
# equal |y|), one-decimal points, and points at scale 1e-3
_GRID_POINT = st.tuples(st.integers(0, 5), st.integers(-3, 3)).map(
    lambda t: (float(t[0]), float(t[1])))
_ONE_DECIMAL_POINT = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
    lambda t: (t[0] / 10, t[1] / 10))
_MILLI_POINT = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
    lambda t: (t[0] * 1e-3, t[1] * 1e-3))


class TestPairCirclesBatch:
    """k_cover._binding_radii against two_point_circle, pair by pair.

    The scalar kernel bisects at every p != 2, while the batch takes the
    closed form at p = 1 and rtsafe at other p, so the two agree within
    the bounds derived in taxicab_tolerance and pair_tolerance
    (check_binding).
    """

    SPECIAL = {
        # i == j, equal abscissas with equal and with different |y|
        "ties": ((4, -2), (4, 2), (4, 3), (4, 3), (6, 1)),
        # p = 1: target = +span, beyond +span, beyond -span, = -span
        "plateau": ((0, 1), (2, 3), (3, 6), (4, 1), (6, 4), (7, 3)),
        # abscissas 1e-3 apart: centers far away, F cancels
        "near-equal": ((0.0, 1.0), (1e-3, 2.0), (2e-3, 1.5), (50, 0.5), (50.001, -1.7)),
    }

    def _compare(self, ps, norm):
        seen_fail = 0
        for i, j, binding in batch_binding(ps, norm, TOL):
            try:
                want = two_point_circle(ps, i, j, norm, TOL)
            except NoBisectorRoot:
                want = None
                seen_fail += 1
            check_binding(ps, i, j, binding, want, norm.p, TOL.eps)
        return seen_fail

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("case", sorted(SPECIAL))
    def test_special_cases(self, case, p):
        ps = pset(*self.SPECIAL[case])
        fails = self._compare(ps, NormP(p))
        if case == "ties":
            assert fails >= 1  # (4, 2) with (4, 3)
        if case == "plateau" and p == 1.0:
            assert fails >= 1

    def test_plateau_cases_occur(self):
        # the "plateau" points hold each p = 1 case of the sign test
        ps = pset(*self.SPECIAL["plateau"])
        assert two_point_circle(ps, 0, 1, N1, TOL) == (2.0, 3.0)  # target = +span
        assert two_point_circle(ps, 4, 5, N1, TOL) == (6.0, 4.0)  # target = -span
        for i, j in ((1, 2), (2, 3)):  # beyond +span, beyond -span
            with pytest.raises(NoBisectorRoot):
                two_point_circle(ps, i, j, N1, TOL)

    def test_hypots_apart(self):
        # the p = 2 radii of the two routes differ here, by 1 ulp, and
        # check_binding admits that within hypot_tolerance
        ps = pset(*HYPOT_APART)
        (_, _, binding), = [pair for pair in batch_binding(ps, N2, TOL) if pair[0] < pair[1]]
        want = two_point_circle(ps, 0, 1, N2, TOL)
        assert binding != want[1]
        assert abs(binding - want[1]) <= hypot_tolerance(want[1])
        check_binding(ps, 0, 1, binding, want, 2.0, TOL.eps)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_random(self, regime, p):
        rng = random.Random(f"{regime}{p}")
        for _ in range(4):
            self._compare(random_pset(rng, rng.randint(1, 25), regime), NormP(p))

    def test_huge_coordinates_give_no_inf(self):
        # pair circles of coordinates near the float range overflow to
        # inf or NaN at p = 2, as in Python floats, and the runs over them
        # get radius inf in the run table
        ps = pset((-2.019955896797132e+200, 0.0), (-9.864074220590215e+151, 0.0),
                  (1.7602215165300773e+241, 1.0), (1.2662318830438603e+282, 0.0))
        assert two_point_circle(ps, 1, 3, N2, TOL)[1] == math.inf
        assert math.isnan(two_point_circle(ps, 0, 3, N2, TOL)[1])
        radius = run_radii(ps.xy, 2.0, TOL)
        assert radius[0, 3] == radius[1, 3] == math.inf
        assert np.isfinite(np.diag(radius)).all()

    def test_taxicab_closed_form_is_exact(self):
        # at p = 1 the center of an inner pair is (xi + xj + t) / 2 with
        # t = |yj| - |yi|: three operations, each rounded by a factor
        # within 2^-53 of 1, and an exact halving. So it lies within
        # 2^-54 (|xi + xj| + |t| + |fl(xi + xj) + fl(t)|) of the exact
        # rational value. The binding radius is |xc - xi| + |yi| at that
        # center where it lies in [xi, xj], else 0
        rng = random.Random("closed form")
        inner = 0
        for regime in ("nearline", "spread", "grid"):
            ps = random_pset(rng, 25, regime)
            for i, j, R in batch_binding(ps, N1, TOL):
                a, b = point(ps, i), point(ps, j)
                t = abs(b.y) - abs(a.y)
                if a.x == b.x or not -(b.x - a.x) < t < b.x - a.x:
                    continue
                inner += 1
                xc = 0.5 * (a.x + b.x + t)
                assert R == (abs(xc - a.x) + abs(a.y) if a.x <= xc <= b.x else 0.0)
                s = Fraction(a.x) + Fraction(b.x)
                exact_t = abs(Fraction(b.y)) - abs(Fraction(a.y))
                rounded = Fraction(a.x + b.x) + Fraction(t)
                err = abs(Fraction(xc) - (s + exact_t) / 2)
                assert err <= Fraction(2) ** -54 * (abs(s) + abs(exact_t) + abs(rounded))
        assert inner > 300

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("case", ["near-equal", "far"])
    def test_no_pair_reaches_the_cap(self, case, p, monkeypatch):
        # pairs whose centers lie up to 1e10 away are not searched, and
        # every searched pair stops before 64 steps of rtsafe (the root
        # kernel geometry._rtsafe), so a cap of 64 gives the same binding
        # radii as the default 200
        if case == "near-equal":
            ps = pset(*self.SPECIAL[case])
        else:
            rng = random.Random("far centers")
            pairs = [(round(rng.uniform(-100, 100), 6), round(rng.uniform(-100, 100), 6))
                     for _ in range(40)]
            # abscissas 1e-6 apart whose |y| differ by tens
            pairs += [(x + 1e-6, rng.choice((-1, 1)) * rng.uniform(50, 100)) for x, _ in pairs[::8]]
            ps = pset(*pairs)
        running = []
        step = geometry._rtsafe_step

        def counted(fdf, act, x, *args):
            running.append(len(act))
            return step(fdf, act, x, *args)

        monkeypatch.setattr(geometry, "_rtsafe_step", counted)
        want = list(batch_binding(ps, NormP(p), TOL))
        # the last step leaves no pair running
        assert len(running) < 64
        if case == "far":
            # Newton steps keep the mean number of steps per pair small
            assert sum(running) < 8 * running[0]
        assert list(batch_binding(ps, NormP(p), Tolerance(max_iters=64))) == want

    @pytest.mark.parametrize("p", [1.5, 3.0, 300.0])
    @pytest.mark.parametrize("case", ["nearline", "spread", "far"])
    def test_search_stays_in_the_span(self, case, p, monkeypatch):
        # F is evaluated only inside each pair's own [a, b], and only by
        # rtsafe: its first call of every block takes the midpoints of
        # the pairs that pass the span test, whose ends straddle the
        # target, and its calls never grow within a block. "far" holds
        # pairs whose centers lie up to 1e10 away, which a bracket
        # widened toward them would reach
        rng = random.Random(f"span {case}{p}")
        ps = pset(*far_center_pairs(rng, 24)) if case == "far" else random_pset(rng, 30, case)
        calls, blocks = [], []
        real_gap, real_rtsafe = k_cover._power_gap, k_cover._rtsafe

        def checked(x, a, b, t, p):
            assert ((a <= x) & (x <= b)).all()
            calls.append(x.copy())
            return real_gap(x, a, b, t, p)

        def rtsafe(fdf, lo, hi, q, max_iters):
            assert not calls, "F was evaluated before rtsafe"
            rows = np.arange(len(lo))
            assert (fdf(lo, rows)[0] <= 0.0).all() and (fdf(hi, rows)[0] >= 0.0).all()
            calls.clear()
            first = 0.5 * (lo + hi)
            out = real_rtsafe(fdf, lo, hi, q, max_iters)
            blocks.append((first, calls[:]))
            calls.clear()
            return out

        monkeypatch.setattr(k_cover, "_power_gap", checked)
        monkeypatch.setattr(k_cover, "_rtsafe", rtsafe)
        dp_solve(ps, 3, NormP(p), TOL, AggSpec())
        assert blocks and not calls
        for first, seen in blocks:
            assert len(first) > 0 and len(seen) > 1
            assert np.array_equal(seen[0], first)
            assert all(len(later) <= len(earlier) for earlier, later in zip(seen, seen[1:]))

    @given(p=st.sampled_from([1.01, 1.5, 3.0, 30.0, 400.0, 1000.0]),
           scale=st.integers(-300, 300).map(lambda e: 10.0 ** e),
           pairs=st.one_of(st.lists(_GRID_POINT, min_size=2, max_size=8),
                           st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                    min_size=2, max_size=8),
                           st.lists(st.floats(1e-3, 1.0).map(lambda v: (v, v)), min_size=1,
                                    max_size=7).map(lambda diagonal: [(0.0, 0.0)] + diagonal)))
    @example(p=3.0, scale=1.0, pairs=[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0), (2.0, -2.0)]).via(
        "targets of +S and -S: span 2, |y| of 0 and 2")
    @settings(deadline=None)
    def test_span_test_matches_the_end_signs(self, p, scale, pairs):
        # the pairs that reach rtsafe are exactly those whose _power_gap
        # values at their two ends, on the pair's own scale, give
        # F(a) - t <= 0 <= F(b) - t. The origin's pairs with points of
        # |y| = x have t = span^p, within rounding of S = span^(p-1) span
        ps = pset(*((x * scale, y * scale) for x, y in pairs))
        X, Y = ps.xy.T.copy()
        I, J = np.triu_indices(len(ps))
        seen = []
        real = k_cover._rtsafe

        def rtsafe(fdf, lo, hi, q, max_iters):
            seen.append((lo.copy(), hi.copy()))
            return real(fdf, lo, hi, q, max_iters)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(k_cover, "_rtsafe", rtsafe)
            k_cover._binding_radii(X, Y, I, J, p, TOL)
        g = np.flatnonzero(X[I] != X[J])
        xi, yi, xj, yj = X[I[g]], Y[I[g]], X[J[g]], Y[J[g]]
        s = k_cover._pair_scale(xi, yi, xj, yj)
        a, b = xi * s, xj * s
        t = np.abs(yj * s) ** p - np.abs(yi * s) ** p
        keep = ((k_cover._power_gap(a, a, b, t, p)[0] <= 0.0)
                & (k_cover._power_gap(b, a, b, t, p)[0] >= 0.0))
        (lo, hi), = seen
        assert np.array_equal(lo, a[keep]) and np.array_equal(hi, b[keep])

    @pytest.mark.parametrize("p", [1.5, 3.0, 300.0])
    def test_subnormal_pairs_keep_a_finite_scale(self, p):
        # the scale that brings these pairs near 1 exceeds the float
        # range, so it stops at 2^1021; every pair circle and every run
        # radius stays finite
        ps = pset((1e-320, 2e-315), (3e-318, -1e-310), (5e-300, 1.5e-300))
        assert all(math.isfinite(R) for *_, R in batch_binding(ps, NormP(p), TOL))
        radius = run_radii(ps.xy, p, TOL)
        assert np.isfinite(radius).all()
        sol = dp_solve(ps, None, NormP(p), TOL, AggSpec())
        assert all(math.isfinite(c.radius) for c in sol.circles)

    def test_far_pair_circles_do_not_overflow(self):
        # Python's ** overflows in the scalar reference's widening; the
        # batch runs each pair on its own power-of-two scale and binds
        # every pair as the reference's circles do. The pairs of point 0,
        # |y| = 3.73e16, have their centers far left of the span, where
        # the reference overflows: they bind at 0
        ps = pset((-16, -3.73e16), (-16, 0), (-10, 0), (-6, -94.8), (1.2e-246, -16))
        norm = NormP(5.998)
        overflows = 0
        for i, j, R in batch_binding(ps, norm, TOL):
            assert math.isfinite(R), (i, j)
            try:
                want = two_point_circle(ps, i, j, norm, TOL)
            except OverflowError:
                assert i == 0 and j > 0 and R == 0.0, (i, j)
                overflows += 1
                continue
            except NoBisectorRoot:  # (0, 1): one abscissa, |y| differ
                want = None
            check_binding(ps, i, j, R, want, norm.p, TOL.eps)
        assert overflows > 0
        assert np.isfinite(run_radii(ps.xy, norm.p, TOL)).all()


def scalar_table(ps, norm):
    """The run table by Helly's theorem from the scalar pair circles of
    two_point_circle: entry [l, r], l <= r, is the largest |y| of points
    l..r and radius of their pairs whose center lies between the pair's
    points. A pair with no center (NoBisectorRoot) binds nothing."""
    n = len(ps)
    X = ps.xy[:, 0].tolist()
    binding = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            try:
                xc, R = two_point_circle(ps, i, j, norm, TOL)
            except NoBisectorRoot:
                continue
            if X[i] <= xc <= X[j]:
                binding[i, j] = R
    return np.maximum.accumulate(np.maximum.accumulate(binding, axis=1)[::-1], axis=0)[::-1]


class TestListsAgainstLoop:
    """The run table (_reference.run_radii) against the scalar pair
    circles of _reference.two_point_circle, maximised over each run by
    Helly's theorem (scalar_table). The entries of the two differ by no
    more than the two routes' pair radii do. (The class and test names
    come from the candidate lists that the per-pair loop grew from the
    same scalar pair circles; they are kept so that the test ids stay
    stable.)
    """

    def _compare(self, ps, p, above):
        iu = np.triu_indices(len(ps))
        radius = run_radii(ps.xy, p, TOL)[iu]
        assert (np.abs(scalar_table(ps, NormP(p))[iu] - radius) <= above).all()

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_identical_lists(self, regime, p):
        # at p = 2 both routes take the same closed-form pair circles,
        # whose radii np.hypot and math.hypot round within
        # hypot_tolerance of each other; at p = 1 the scalar route
        # bisects where the table takes the closed form, within
        # taxicab_tolerance of each other
        rng = random.Random(f"lists{regime}{p}")
        for n in (1, 2, 7, 30):
            ps = random_pset(rng, n, regime)
            radius = run_radii(ps.xy, p, TOL)[np.triu_indices(n)]
            if p == 1.0:
                above = TOL.eps / 8 + 16 * U * float(np.abs(ps.xy).max()) + 4 * U * radius
            else:
                above = hypot_tolerance(radius)
            self._compare(ps, p, above)

    def test_hypots_apart(self):
        # the run of both points has the table's radius from np.hypot and
        # the scalar route's from math.hypot, 1 ulp apart
        ps = pset(*HYPOT_APART)
        radius = run_radii(ps.xy, 2.0, TOL)[np.triu_indices(2)]
        assert radius[1] != scalar_table(ps, N2)[0, 1]
        self._compare(ps, 2.0, hypot_tolerance(radius))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_identical_runs(self, regime, p):
        # the scalar route bisects where the table takes rtsafe; a run's
        # entry is the radius of a pair whose center lies between its
        # points, and there the two routes differ within pair_tolerance
        rng = random.Random(f"runs{regime}{p}")
        norm = NormP(p)
        for n in (1, 2, 7, 30):
            ps = random_pset(rng, n, regime)
            above = max([pair_tolerance(ps, i, j, *two_point_circle(ps, i, j, norm, TOL), p, TOL.eps)
                         for i, j, binding in batch_binding(ps, norm, TOL) if i < j and binding > 0],
                        default=0.0)
            self._compare(ps, p, above)

    def test_near_equal_abscissas(self):
        ps = pset((0.447712, 96.415328), (0.447713, 54.104628), (3, 1))
        radius = run_radii(ps.xy, 2.0, TOL)[np.triu_indices(3)]
        self._compare(ps, 2.0, hypot_tolerance(radius))


class TestRunTableCertificate:
    """verify.certify_run_table, the k-cover check of --verify above 10
    points, on tables that are right; criterion 6 moves entries."""

    @given(pairs=st.one_of(st.lists(_GRID_POINT, min_size=1, max_size=40),
                           st.lists(_ONE_DECIMAL_POINT, min_size=1, max_size=40),
                           st.lists(_MILLI_POINT, min_size=1, max_size=40)),
           p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 30.0]))
    def test_passes_tied_tables(self, pairs, p):
        # ties in distance, abscissa and |y|, and duplicates, which
        # random floats almost never draw
        n = len(pairs)
        report = certify_run_table(pset(*pairs), NormP(p), TOL)
        assert report == {"runs": n * (n + 1) // 2, "failed": 0}

    def test_non_finite_entry_fails(self):
        # the pair circle of these points has a NaN center, so the run of
        # both has radius inf in the table: a failing run, not an error
        report = certify_run_table(pset((1e200, 1), (2e200, 1)), N2, TOL)
        assert report == {"runs": 3, "failed": 1, "run": [0, 1], "radius": None,
                          "tolerance": None}

    def test_memory_stays_within_blocks(self):
        # one column block of runs against a slab of points at a time,
        # with no N x N table
        rng = random.Random(300)
        n = 1100
        ps = pset(*((rng.uniform(0, 100), rng.uniform(-2, 2)) for _ in range(n)))
        tracemalloc.start()
        try:
            report = certify_run_table(ps, N2, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["failed"] == 0
        assert peak < n * n * 8


def far_center_pairs(rng, n):
    """n spread points, and a twin of every eighth one whose abscissa is
    1e-6 larger and whose |y| differs by tens: the twins' pair centers
    lie far away, where F is about as large as its own rounding."""
    pairs = [(round(rng.uniform(-100, 100), 6), round(rng.uniform(-100, 100), 6))
             for _ in range(n)]
    return pairs + [(x + 1e-6, rng.choice((-1, 1)) * rng.uniform(50, 100)) for x, _ in pairs[::8]]


def nearline_pairs(rng, n):
    """n points near the line as the benchmark draws them: x in [0, 100],
    |y| <= 2, rounded to 6 decimals."""
    return tuple((round(rng.uniform(0, 100), 6), round(rng.uniform(-2, 2), 6)) for _ in range(n))


def bench_like_pset(rng, n, regime):
    """Points as the benchmark draws them: spread over [-100, 100]^2, or
    near the line (nearline_pairs)."""
    if regime == "spread":
        return pset(*((round(rng.uniform(-100, 100), 6), round(rng.uniform(-100, 100), 6))
                      for _ in range(n)))
    return pset(*nearline_pairs(rng, n))


def contiguous_optimum(ps, K, norm, tol, agg):
    """The least objective over every split of the points into at most
    K contiguous runs (K = None: any number), each run priced at its
    rmin_on_axis radius ** q and the prices aggregated by fsum or max;
    inf where every split overflows. Enumerates all 2^(n-1) splits."""
    n = len(ps)
    price = {}

    def cost(i, j):
        if (i, j) not in price:
            try:
                price[i, j] = rmin_on_axis(ps, i, j, norm, tol)[1] ** agg.q
            except (ValueError, OverflowError):  # a radius beyond the float range
                price[i, j] = math.inf
        return price[i, j]

    best = math.inf
    for cuts in itertools.product((False, True), repeat=n - 1):
        if K is not None and sum(cuts) >= K:
            continue
        ends = [k for k, cut in enumerate(cuts) if cut] + [n - 1]
        weights = [cost(i, j) for i, j in zip([0] + [e + 1 for e in ends[:-1]], ends)]
        try:
            value = math.fsum(weights) if agg.kind == "sum" else max(weights)
        except OverflowError:
            value = math.inf
        best = min(best, value)
    return best


def dp_rounding(n):
    """Relative bound on how far dp_solve's objective may lie above the
    contiguous optimum over n points, u = 2^-53.

    Both price a split by the same run radii (the table's entry is
    rmin_on_axis's radius, bit for bit), and the DP reports the fsum or
    max of its own split, so its objective is never below the optimum.
    It chooses that split by another value, though. For the sum the DP
    adds the m <= n weights in sequence, within g = (m - 1) u / (1 -
    (m - 1) u) of their exact sum, where fsum rounds once: its split's
    fsum is at most (1 + u)^2 (1 + g) / (1 - g) times the optimum,
    below 1 + (2 n + 2) u for n <= 10. For the max of radius^2 the DP
    weighs numpy's square, the report Python's **, each within an ulp
    of the exact square: (1 + 2 u)^2 at most. 4 n u covers both.
    """
    return 4 * n * 2.0 ** -53


class TestCertifiedJumps:
    """Extreme inputs for the DP over the run table: duplicates on a
    grid, p = 1 plateaus, far pair centers and points near the line, at
    coordinate scales from 1e-300 to 1e150 and eps down to 1e-300; and
    sets of the benchmark's sizes. (The class and test names come from
    an earlier list builder, which was tested on the same inputs; they
    are kept so that the test ids stay stable.)
    """

    ADVERSARIAL = {
        # duplicates, equal abscissas with equal and with different |y|
        "grid": ((0.0, -2.0), (0.0, 2.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                 (1.0, 0.0), (2.0, 3.0), (2.5, -1.0), (3.0, -2.0)),
        "plateau": TestPairCirclesBatch.SPECIAL["plateau"] + ((1, 8), (5, 0.5), (6, -4)),
        "near-equal": tuple(far_center_pairs(random.Random("adversarial"), 8)),
        "nearline": nearline_pairs(random.Random("adversarial nearline"), 10),
    }

    # eps = 1e-300 lies far below every rounding, where rtsafe stops only
    # once its bracket ends are adjacent floats
    @pytest.mark.parametrize("scale, eps", [
        pytest.param(scale, eps, id=str(scale) if eps == TOL.eps else f"{scale}-eps{eps}")
        for eps in (TOL.eps, 1e-300) for scale in (1.0, 1e-300, 1e-170, 1e150)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 300.0])
    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_jumped_runs_equal_the_loop(self, case, p, scale, eps):
        # the DP reaches the optimum of every split into at most K
        # contiguous runs (contiguous_optimum), within dp_rounding, for
        # K = 1, 3 and None, the sum of radii and the max of squares;
        # where every split overflows it raises OverflowError
        ps = pset(*((x * scale, y * scale) for x, y in self.ADVERSARIAL[case]))
        norm, tol, n = NormP(p), Tolerance(eps=eps), len(ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for K in (1, 3, None):
                for agg in (AggSpec(1.0, "sum"), AggSpec(2.0, "max")):
                    want = contiguous_optimum(ps, K, norm, tol, agg)
                    if want == math.inf:
                        with pytest.raises(OverflowError):
                            dp_solve(ps, K, norm, tol, agg)
                        continue
                    sol = dp_solve(ps, K, norm, tol, agg)
                    assert K is None or len(sol.intervals) <= K
                    assert want <= sol.objective <= want * (1 + dp_rounding(n)) + n * 2.0 ** -1074, \
                        (K, agg)

    @pytest.mark.parametrize("regime, n, p, most", [
        ("nearline", 150, 1.0, 4), ("nearline", 150, 1.5, 4), ("nearline", 150, 2.0, 4),
        ("spread", 260, 1.5, 2), ("spread", 260, 2.0, 2)])
    def test_few_exact_steps_are_left(self, regime, n, p, most):
        # sets of the benchmark's sizes, with a budget of most runs: the
        # table's entries are the standalone circles of its runs, bit for
        # bit, and the vectorised relaxation of dp_solve chooses the runs
        # of the plain recursion over the same table (dp_scan)
        rng = random.Random(f"steps {regime}")
        ps = bench_like_pset(rng, n, regime)
        norm = NormP(p)
        radius = run_radii(ps.xy, p, TOL)
        for _ in range(10):
            i, j = sorted(rng.randrange(n) for _ in range(2))
            got = run_circle(ps.xy[i:j + 1], radius[i, j], p)
            assert bits(got) == bits(rmin_on_axis(ps, i, j, norm, TOL)), (i, j)
        sol = dp_solve(ps, most, norm, TOL, AggSpec(1.0, "sum"))
        assert sol.intervals == dp_scan(ps, most, norm, TOL, AggSpec(1.0, "sum")).intervals
        assert sol.objective == math.fsum(radius[i, j] for i, j in sol.intervals)

    @pytest.mark.parametrize("case, p", [("far", 1.5), ("far", 3.0), ("grid", 1.0),
                                         ("grid", 300.0), ("nearline", 30.0),
                                         ("nearline", 300.0)])
    def test_certified_thresholds_hold_exactly(self, case, p):
        # every entry R of the run table is the run's least radius within
        # s = eps max(1, R), the coverage slack of --verify
        # (_cover_slack): at R + s the points' intervals of
        # centers meet, and at R - s they do not, checked in 60-digit
        # decimal arithmetic, far beyond the float rounding. "far" holds
        # pairs whose centers lie far away (abscissas 1e-6 apart, |y|
        # tens apart); at large p the powers span hundreds of decades
        rng = random.Random(f"certified {case}")
        if case == "far":
            ps = pset(*far_center_pairs(rng, 24))
        elif case == "grid":
            ps = random_pset(rng, 25, case)
        else:
            ps = bench_like_pset(rng, 25, case)
        n = len(ps)
        radius = run_radii(ps.xy, p, TOL)
        D = decimal.Context(prec=60)
        e = D.create_decimal(p)
        X = [D.create_decimal(x) for x in ps.xy[:, 0].tolist()]
        Y = [abs(D.create_decimal(y)) for y in ps.xy[:, 1].tolist()]
        Yp = [D.power(y, e) for y in Y]

        def meet(i, j, R):
            # whether the centers within R of every point of i..j meet
            if R < max(Y[i:j + 1]):
                return False
            h = [D.power(D.power(R, e) - Yp[k], 1 / e) for k in range(i, j + 1)]
            return max(x - w for x, w in zip(X[i:j + 1], h)) <= min(
                x + w for x, w in zip(X[i:j + 1], h))

        for i in range(n):
            for j in range(i, n):
                r = float(radius[i, j])
                R, s = D.create_decimal(r), D.create_decimal(verify._cover_slack(r, TOL.eps))
                assert meet(i, j, R + s), (i, j)
                assert R < s or not meet(i, j, R - s), (i, j)


def enclosing_route(ps, i, j, norm):
    """The circle of run i..j by min_enclosing over its point segments."""
    return _enclosing_circle(ps.xy[i:j + 1].tolist(), norm, TOL)


def scalar_enclosing_route(ps, i, j, norm):
    """enclosing_route by min_enclosing's scalar reference route, over
    the same window."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "min_enclosing", min_enclosing_scalar)
        return enclosing_route(ps, i, j, norm)


def bits(pair):
    return tuple(float.hex(v) for v in pair)


def kernel_psets(rng, n):
    """Runs of n points near the line, spread, all on the axis (lower
    bound 0), on one abscissa, and all at one point of the axis (L = 0)."""
    x0 = rng.uniform(-50, 50)
    yield random_pset(rng, n, "nearline")
    yield random_pset(rng, n, "spread")
    yield pset(*((rng.uniform(0, 100), 0.0) for _ in range(n)))
    yield pset(*((x0, rng.uniform(-5, 5)) for _ in range(n)))
    yield pset(*((x0, 0.0) for _ in range(n)))


def rounding_scale(ps, i, j, r):
    """The magnitude that the rounding of a run's circle scales with:
    its radius and its points' coordinates."""
    return max(r, float(np.abs(ps.xy[i:j + 1]).max()))


def helly_runs(rng, sizes=(1, 2, 5, 23, 60)):
    """(PointSet, i, j): a whole and an inner run of random point sets."""
    for n in sizes:
        for ps in list(kernel_psets(rng, n)) + [random_pset(rng, n, "grid")]:
            yield ps, 0, n - 1
            yield ps, n // 3, n - 1 - n // 4


class TestRminOnAxis:
    def test_single(self):
        cx, r = rmin_on_axis(pset((2, 5)), 0, 0, N2, TOL)
        assert abs(cx - 2.0) < 1e-9
        assert abs(r - 5.0) < 1e-9

    def test_pair(self):
        cx, r = rmin_on_axis(pset((0, 1), (2, 3)), 0, 1, N2, TOL)
        assert abs(cx - 2.0) < 1e-6
        assert abs(r - 3.0) < 1e-9

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_bits_of_the_scalar_enclosing_route(self, p):
        # the bisecting reference is min_enclosing's scalar reference
        # route over the run's point segments, in the window of the
        # partition oracle (on these draws at p = 1 and 2 the array
        # route gives its bits too, at every size; elsewhere numpy's
        # powers may round 1 ulp apart from Python's), and rmin_on_axis
        # lies in that bisection's final bracket: the
        # reference reports its upper end hi, with hi - lo <= eps and
        # nothing below lo feasible. Both routes round each distance and
        # interval end by a few ulps of the run's scale.
        norm = NormP(p)
        rng = random.Random(f"rmin{p}")
        for n in (1, 2, 5, 23, 24, 60, 200):
            for ps in kernel_psets(rng, n):
                runs = [(0, n - 1), (n // 3, n - 1 - n // 4)]
                want = [scalar_enclosing_route(ps, i, j, norm) for i, j in runs]
                if p in (1.0, 2.0):
                    assert ([bits(c) for c in want]
                            == [bits(enclosing_route(ps, i, j, norm)) for i, j in runs])
                for (i, j), (_, r_ref) in zip(runs, want):
                    r = rmin_on_axis(ps, i, j, norm, TOL)[1]
                    slack = 16 * U * rounding_scale(ps, i, j, r_ref)
                    assert r_ref - TOL.eps - slack <= r <= r_ref + slack, (n, i, j)

    def test_signed_zero_abscissas(self):
        # -0.0 and 0.0 on the axis: the bits of the center follow
        # min_enclosing's, signs of zero included; the radius is half
        # the span, exactly
        for pairs, radius in ((((0.0, 0.0), (-0.0, 0.0)), 0.0),
                              (((-0.0, 0.0), (0.0, 0.0)), 0.0),
                              (((0.0, 0.0), (-0.0, 0.0), (5.0, 0.0)), 2.5)):
            ps = pset(*pairs)
            for p in (1.0, 2.0, 3.0):
                n = len(ps) - 1
                cx, r = rmin_on_axis(ps, 0, n, NormP(p), TOL)
                assert float.hex(cx) == float.hex(enclosing_route(ps, 0, n, NormP(p))[0])
                assert r == radius

    def test_window_beyond_the_float_range(self):
        # the span 2e308 overflows, but at p = 1 it only enters the
        # plateau test, and the closed-form center 0 and radius 1e308
        # are exact; at p = 2 the closed form overflows, and the circle
        # raises PlacedCircle's error
        assert rmin_on_axis(pset((-1e308, 0.0), (1e308, 0.0)), 0, 1, N1, TOL) == (0.0, 1e308)
        with pytest.raises(ValueError, match="circle parameters must be finite"):
            rmin_on_axis(pset((0.0, 1e308), (1.0, 1.7e308)), 0, 1, N2, TOL)


def exact_binding(a, b, p):
    """min over centers c of max(f_a(c), f_b(c)) for two points of
    Fractions: the value itself at p = 1, its square at p = 2."""
    (xi, yi), (xj, yj) = sorted((a, b))
    yi, yj = abs(yi), abs(yj)
    if p == 1.0:
        span, target = xj - xi, yj - yi
        if -span <= target <= span:
            return max(yi, yj, (span + yi + yj) / 2)
        return max(yi, yj)
    if xi == xj:
        return max(yi * yi, yj * yj)
    c = (xj * xj + yj * yj - xi * xi - yi * yi) / (2 * (xj - xi))
    if xi <= c <= xj:
        return max(yi * yi, yj * yj, (c - xi) ** 2 + yi * yi)
    return max(yi * yi, yj * yj)


def pair_binding(xy, p):
    """(Y, I, J, binding) of the sorted points xy: the ordinates, the
    pairs I <= J, and each pair's share of a run's radius
    (k_cover._binding_radii): its circle's radius where its center lies
    between its points, |y| on the diagonal, else 0."""
    X, Y = xy.T.copy()
    I, J = np.triu_indices(len(xy))
    return Y, I, J, k_cover._binding_radii(X, Y, I, J, p, TOL)


def pair_rounding(a, b, p, R):
    """Bound on |float pair radius - exact minimax| of two points at p = 1
    or 2 (u = 2^-52, each operation within u of its result).

    p = 1: c = (xi + xj + |yj| - |yi|) / 2 takes three roundings, so it
    lies within dc = 2u (|xi| + |xj| + |yi| + |yj|) of the root. p = 2:
    the numerator xj^2 + yj^2 - xi^2 - yi^2 errs by at most 4u S, S the
    sum of the four squares, and the division and 2 (xj - xi) by 2u |c|,
    so dc = 4u S / (2 |xj - xi|) + 2u |c|. The radius (|c - xi| + |yi|, or
    hypot) is 1-Lipschitz in c and rounded twice more, within dc + 2u R;
    a center within dc of an end of [xi, xj] may be taken in or left out
    by rounding, where the pair's exact minimax lies within dc of
    max(|yi|, |yj|). Twice dc + 2u R covers both. Equal abscissas and
    i = j are exact.
    """
    (xi, yi), (xj, yj) = sorted((a, b))
    if xi == xj:
        return 0.0
    if p == 1.0:
        dc = 2 * U * (abs(xi) + abs(xj) + abs(yi) + abs(yj))
    else:
        c = (xj * xj + yj * yj - xi * xi - yi * yi) / (2 * (xj - xi))
        dc = 4 * U * (xi * xi + xj * xj + yi * yi + yj * yj) / (2 * abs(xj - xi)) + 2 * U * abs(c)
    return 2 * (dc + 2 * U * R)


class TestHellyReduction:
    """The circle of a run from its pair circles (k_cover._run_circles)."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_radius_is_the_exact_maximum(self, p):
        # the exact least radius is the largest exact pair minimax
        # (Fractions; at p = 2 of the squares, with a 60-digit square
        # root); the float radius is the largest float pair radius, so
        # the two differ by at most the larger pair_rounding of the two
        # pairs where the maxima are taken
        rng = random.Random(f"helly exact {p}")
        ctx = decimal.Context(prec=60)
        for ps, i, j in helly_runs(rng, sizes=(1, 2, 5, 23)):
            cx, r = rmin_on_axis(ps, i, j, NormP(p), TOL)
            rows = ps.xy[i:j + 1].tolist()
            exact = [[Fraction(v) for v in row] for row in rows]
            Y, I, J, binding = pair_binding(ps.xy[i:j + 1], p)
            pairs = list(zip(I.tolist(), J.tolist()))
            ex = [exact_binding(exact[a], exact[b], p) for a, b in pairs]
            # each pair's float minimax: its own and its points' pinned circles
            fl = np.maximum(binding, np.maximum(abs(Y[I]), abs(Y[J])))
            assert r == fl.max()
            bound = max(pair_rounding(rows[a], rows[b], p, r)
                        for a, b in (pairs[int(np.argmax(fl))], pairs[int(np.argmax(ex))]))
            want = max(ex)
            if p == 1.0:
                assert abs(Fraction(r) - want) <= Fraction(bound), (i, j)
            else:
                root = ctx.sqrt(ctx.divide(decimal.Decimal(want.numerator),
                                           decimal.Decimal(want.denominator)))
                assert abs(decimal.Decimal(r) - root) <= decimal.Decimal(bound) + ctx.power(10, -50)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_every_point_is_covered(self, p):
        # the center is the midpoint of the intersection [lo, hi] of the
        # points' intervals at the radius (_halfwidth); a point
        # whose interval holds it is covered up to rounding, and where
        # rounding leaves lo > hi no point lies farther than (lo - hi) / 2
        # outside its interval, where a distance grows at slope <= 1. The
        # excess stays within the coverage slack of --verify at any eps,
        # 2^-40 max(1, R) (_cover_slack)
        norm = NormP(p)
        rng = random.Random(f"helly cover {p}")
        for ps, i, j in helly_runs(rng):
            cx, r = rmin_on_axis(ps, i, j, norm, TOL)
            rows = ps.xy[i:j + 1].tolist()
            ends = [(x - h, x + h) for x, y in rows for h in [_halfwidth(r, y, p)]]
            lo, hi = max(e[0] for e in ends), min(e[1] for e in ends)
            assert cx == 0.5 * (lo + hi)
            gap = max(0.0, lo - hi) / 2
            for x, y in rows:
                d = lp_distance(Point(x, y), Point(cx, 0.0), norm)
                assert d <= r + gap + 16 * U * rounding_scale(ps, i, j, r), (i, j, x, y)
                assert d <= r + verify._cover_slack(r, 0.0), (i, j, x, y)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 30.0, 300.0])
    def test_strict_halfwidth_is_the_reference_rule(self, p):
        # at a radius r >= every |y|, _meeting's strict halfwidth takes
        # the operations of _reference._halfwidth, whose rejection and
        # clamp never fire there, so the two folds agree bit for bit:
        # at r = 0, at |y| = r, at subnormal r, and at random runs
        def fold(xy, r):
            lo, hi = -math.inf, math.inf
            for x, y in xy.tolist():
                h = _halfwidth(r, y, p)
                lo, hi = max(lo, x - h), min(hi, x + h)
            return lo, hi

        rng = random.Random(f"strict halfwidth {p}")
        tiny = 5e-324
        runs = [(np.array([[-1.0, 0.0], [0.0, -0.0], [2.0, 0.0]]), 0.0),
                (np.array([[3.0, 0.0], [3.0, -0.0]]), 0.0)]
        for _ in range(30):
            n = rng.randint(1, 8)
            r = rng.uniform(0.01, 100.0)
            xy = np.array([[rng.uniform(-50, 50), rng.uniform(-r, r)] for _ in range(n)])
            xy[rng.randrange(n), 1] = rng.choice([-r, r])
            runs.append((xy, r))
            k = rng.choice([1, 3, 1000, 2 ** 40, 2 ** 51])
            ys = [rng.randint(-k, k) * tiny for _ in range(n - 1)] + [k * tiny]
            xs = [rng.uniform(-1e-310, 1e-310) for _ in range(n)]
            runs.append((np.array([xs, ys]).T, k * tiny))
        for xy, r in runs:
            assert bits(k_cover._meeting(xy, r, p)) == bits(fold(xy, r)), (xy.tolist(), r)

    LARGE_P = [[68.534549, 1.270405], [69.533712, 1.946048], [71.904772, 1.461635]]

    def test_large_p_center_covers_the_run(self):
        # at p = 30 the run's radius is the middle point's |y| to the last
        # bit, where that point's interval has width 0 and the others
        # cross it; the intervals meet one float higher, and the center
        # comes from there, with the radius unchanged
        ps = PointSet(np.array(self.LARGE_P))
        norm = NormP(30.0)
        radius = run_radii(ps.xy, 30.0, TOL)
        cx, r = run_circle(ps.xy, radius[0, 2], 30.0)
        assert r == 1.946048
        for x, y in self.LARGE_P:
            assert lp_distance(Point(x, y), Point(cx, 0.0), norm) <= r + verify._cover_slack(r, 0.0)
        assert (cx, r) == rmin_on_axis(ps, 0, 2, norm, TOL)

    # p = 2: point 0's pinned circle and its pair circles with points
    # 1-3 round to the same largest binding radius, point 0's |y|, and
    # the first entry of that maximum is the pinned circle
    BINDING_MISS = [[1.6990599788775098, -1.9059325163268743],
                    [1.7007081975137266, -1.9059318036596673],
                    [2.4499773289786004, -1.7517710768213273],
                    [2.6135225439660337, 1.6722251620799866]]

    def test_center_of_the_binding_entry_misses(self):
        # the entry that sets a run's radius does not give its center:
        # here it is point 0's pinned circle, centered at point 0's x,
        # which leaves point 3 outside by 4.9e-9, beyond _center_slack;
        # the meeting of the points' intervals covers every point exactly
        xy = PointSet(np.array(self.BINDING_MISS)).xy
        X, Y = xy.T.copy()
        I, J = np.triu_indices(len(xy))
        binding = k_cover._binding_radii(X, Y, I, J, 2.0, TOL)
        r = run_radii(xy, 2.0, TOL)[0, -1]
        top = int(np.argmax(binding))
        assert (I[top], J[top]) == (0, 0) and binding[top] == r

        def excess(cx):
            return max(lp_distance(Point(x, y), Point(cx, 0.0), N2) for x, y in xy.tolist()) - r

        assert excess(float(xy[0, 0])) > k_cover._center_slack(r, float(np.abs(xy[:, 0]).max()))
        cx, got = run_circle(xy, r, 2.0)
        assert got == r and excess(cx) <= 0.0

    def test_verify_checks_coverage(self, tmp_path, monkeypatch, capsys):
        # --verify compared objectives only; a circle that misses a point
        # of its run now makes it not ok, with the same fields
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"problem": "k-cover", "p": 30.0, "k": 1, "q": 1.0,
                                    "agg": "sum", "constraint": [0, 0, 100, 0],
                                    "points": self.LARGE_P}))

        def verify_block():
            assert main(["solve", "--in", str(path), "--verify"]) == 0
            return json.loads(capsys.readouterr().out)["result"]["verify"]

        good = verify_block()
        assert good["ok"] is True

        def midpoints(xy, runs, radii, p):
            return [(0.5 * (lo + hi), float(r)) for (left, right), r in zip(runs, radii)
                    for lo, hi in [k_cover._meeting(xy[left:right + 1], float(r), p)]]

        monkeypatch.setattr(k_cover, "_run_circles", midpoints)
        bad = verify_block()
        assert bad["ok"] is False
        assert bad.keys() == good.keys() and bad["delta"] == good["delta"]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_table_slices_equal_the_standalone_route(self, p):
        # dp_solve reads a run's radius off the one table of all runs;
        # rmin_on_axis computes the run's own. Each pair circle is
        # computed alone (the lockstep iterations never mix pairs), and
        # a maximum is exact, so the two give the same bits
        norm = NormP(p)
        rng = random.Random(f"helly slices {p}")
        for n, regime in ((23, "nearline"), (30, "spread"), (12, "grid")):
            ps = random_pset(rng, n, regime)
            radius = run_radii(ps.xy, p, TOL)
            for _ in range(40):
                i, j = sorted(rng.randrange(n) for _ in range(2))
                got = run_circle(ps.xy[i:j + 1], radius[i, j], p)
                assert bits(got) == bits(rmin_on_axis(ps, i, j, norm, TOL)), (i, j)
            for K, how in ((1, "sum"), (3, "max"), (None, "sum")):
                sol = dp_solve(ps, K, norm, TOL, AggSpec(1.0, how))
                assert ([bits((c.cx, c.radius)) for c in sol.circles]
                        == [bits(rmin_on_axis(ps, i, j, norm, TOL)) for i, j in sol.intervals])

    @pytest.mark.parametrize("lists, p", [("naive", 1.0), ("naive", 1.5), ("naive", 2.0)])
    def test_one_pair_table_per_solve(self, monkeypatch, lists, p):
        # the weights and the circles share one pass of _binding_radii
        # over all pairs
        calls = []
        real = k_cover._binding_radii

        def counting(X, Y, I, J, *args):
            calls.append(len(I))
            return real(X, Y, I, J, *args)

        monkeypatch.setattr(k_cover, "_binding_radii", counting)
        ps = random_pset(random.Random(f"one table {lists}{p}"), 30, "nearline")
        dp_solve(ps, 4, NormP(p), TOL, AggSpec(), lists=lists)
        assert calls == [30 * 31 // 2]


class TestDpSolve:
    def test_two_clusters(self):
        ps = pset((0, 0), (1, 0), (10, 0), (11, 0))
        sol = dp_solve(ps, 2, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(sol.objective - 1.0) < 1e-6
        assert sol.intervals == ((0, 1), (2, 3))
        assert abs(sol.circles[0].cx - 0.5) < 1e-6
        assert abs(sol.circles[1].cx - 10.5) < 1e-6

    def test_single_circle(self):
        ps = pset((0, 0), (1, 0), (10, 0), (11, 0))
        sol = dp_solve(ps, 1, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(sol.objective - 5.5) < 1e-6
        assert abs(sol.circles[0].cx - 5.5) < 1e-6

    def test_squared_sum(self):
        ps = pset((0, 1), (2, 1), (6, 1))
        sol = dp_solve(ps, 2, N2, TOL, AggSpec(2.0, "sum"))
        assert abs(sol.objective - 3.0) < 1e-6

    def test_unbounded_k(self):
        ps = pset((0, 2), (5, 1), (9, 3))
        sol = dp_solve(ps, None, N2, TOL, AggSpec(1.0, "sum"))
        assert len(sol.circles) <= 3
        assert sol.objective <= 6.0 + 1e-6

    def test_unused_budget_is_free(self):
        ps = pset((0, 1), (1, 1))
        a = dp_solve(ps, 2, N2, TOL, AggSpec(1.0, "sum"))
        b = dp_solve(ps, 4, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(a.objective - b.objective) < 1e-9

    def test_budget_beyond_point_count(self):
        # rows k >= n of the DP are identical, so the budget is clamped
        # to n instead of allocating K rows
        ps = pset((0, 1), (4, 2), (9, 1))
        agg = AggSpec(1.0, "sum")
        assert dp_solve(ps, 10**6, N2, TOL, agg) == dp_solve(ps, len(ps), N2, TOL, agg)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            dp_solve(PointSet(()), 1, N2, TOL, AggSpec())
        with pytest.raises(ValueError):
            dp_solve(pset((0, 1)), 0, N2, TOL, AggSpec())

    @pytest.mark.parametrize("norm", [N2, N3])
    def test_lists_select_nothing(self, norm):
        # both values weigh the runs by the run table, at every p
        ps = pset((2.82, -0.75), (3.64, -0.13), (2.86, 0.16), (2.75, -0.03))
        agg = AggSpec(2.0, "max")
        want = dp_solve(ps, None, norm, TOL, agg)
        assert dp_solve(ps, None, norm, TOL, agg, lists="naive") == want
        assert dp_solve(ps, None, norm, TOL, agg, lists="sweep") == want
        with pytest.raises(ValueError, match="unknown lists"):
            dp_solve(ps, None, norm, TOL, agg, lists="dense")

    def test_break_inside_wide_candidate(self):
        # the minimax optimum needs a block strictly inside a wider
        # candidate run; a transition pinned to candidate left ends
        # misses it
        ps = pset((-15.277, -3.275), (-8.482, 19.207), (-8.009, 11.775),
                  (2.977, 1.008), (7.96, -10.236), (15.005, 9.178))
        agg = AggSpec(2.0, "max")
        sol = dp_solve(ps, 2, N2, TOL, agg)
        oracle = set_partition_oracle(ps, 2, N2, TOL, agg)
        assert abs(sol.objective - oracle.objective) <= 1e-6

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_matches_oracle_random(self, kind):
        rng = random.Random(17 if kind == "sum" else 18)
        for _ in range(25):
            n = rng.randint(1, 7)
            ps = pset(*((round(rng.uniform(-20, 20), 3),
                         round(rng.uniform(-20, 20), 3)) for _ in range(n)))
            K = rng.randint(1, 3)
            agg = AggSpec(rng.choice([1.0, 2.0]), kind)
            a = dp_solve(ps, K, N2, TOL, agg)
            o = set_partition_oracle(ps, K, N2, TOL, agg)
            assert abs(a.objective - o.objective) <= 1e-6

    def test_non_euclidean_against_oracle(self):
        rng = random.Random(71)
        for _ in range(8):
            n = rng.randint(1, 6)
            ps = pset(*((round(rng.uniform(-10, 10), 3),
                         round(rng.uniform(-10, 10), 3)) for _ in range(n)))
            agg = AggSpec(1.0, "sum")
            a = dp_solve(ps, 2, N3, TOL, agg)
            o = set_partition_oracle(ps, 2, N3, TOL, agg)
            assert abs(a.objective - o.objective) <= 1e-6


def list_weights(cls, q):
    """The weight of every last run b..r over the candidate lists cls, as
    an N x N table: the least radius ** q of list r's candidates with
    left <= b, since a candidate's circle covers every sub-run with its
    right end. A b below every left of list r weighs inf; entries b > r
    are never read."""
    weights = np.full((len(cls), len(cls)), math.inf)
    for r, cl in enumerate(cls):
        for left, radius in cl:
            weights[left, r] = radius ** q
    return np.minimum.accumulate(weights, axis=0)


class TestRelax:
    """k_cover._best_breaks, one previous DP row against a block of
    weight rows at once, against the scalar scan of lineplace._reference,
    cell by cell. Each cell is a column j and the candidate runs of its
    last run; its weight row is theirs (list_weights) with inf at the
    breaks b >= j, as k_cover._relax_blocks masks them."""

    def _both(self, prev, cells, q, is_sum):
        rows = []
        for j, cands in cells:
            # list j - 1 holds cands; the lists before it are not read
            w = list_weights(((),) * (j - 1) + (tuple(cands),), q)[:, j - 1]
            rows.append(np.concatenate([w, np.full(len(prev) - j, math.inf)]))
        # the DP's np.errstate: prev + w overflows to inf, as Python floats do
        with np.errstate(over="ignore"):
            best, brk = k_cover._best_breaks(np.array(prev), np.array(rows), is_sum)
        got = [(b, None if b == math.inf else k) for b, k in zip(best.tolist(), brk.tolist())]
        want = [relax_scan(prev, row.tolist(), is_sum) for row in rows]
        return got, want

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_random_rows(self, kind):
        rng = random.Random(kind)
        for _ in range(400):
            width = rng.randint(1, 12)
            prev = [rng.choice([math.inf, float(rng.randint(0, 4)), rng.uniform(0, 4)])
                    for _ in range(width)]
            cells = []
            for _ in range(rng.randint(1, 4)):
                # the cell's breaks from j on weigh inf (_both)
                j = rng.randint(1, width)
                lefts = sorted(rng.sample(range(j), rng.randint(1, j)))
                cells.append((j, [(left, rng.choice([0.0, 1.0, rng.uniform(0, 3)]))
                                  for left in lefts]))
            q = rng.choice([1.0, 2.0])
            got, want = self._both(prev, cells, q, kind == "sum")
            assert got == want

    def test_all_inf(self):
        for is_sum in (True, False):
            got, want = self._both([math.inf] * 3, [(3, [(0, 1.0), (2, 0.5)])], 1.0, is_sum)
            assert got == want == [(math.inf, None)]

    def test_rounding_tie_keeps_the_first_break(self):
        # prev one ulp apart, the smaller one later: with w = 1e6 both
        # sums round to 1000001.0, and the scan keeps the first break,
        # not the one of the least prev
        prev = [math.nextafter(1.0, 2.0), 1.0]
        got, want = self._both(prev, [(2, [(0, 1e6)])], 1.0, True)
        assert got == want == [(1000001.0, 0)]

    def test_overflow_is_inf(self):
        # prev + w beyond the float range is inf, as in Python floats
        got, want = self._both([1e308, 1.0], [(2, [(0, 1e308)])], 1.0, True)
        assert got == want == [(1e308, 1)]

    def test_rows_choose_different_candidates(self):
        # from one previous row: cell 0 takes its narrow candidate, cell 1
        # (for the sum) its only candidate at a break inside it, cell 2
        # the one break it has, and cell 3 a candidate that starts late
        prev = [4.0, 0.0, 1.0]
        cells = [(3, [(0, 5.0), (2, 1.0)]), (3, [(0, 5.0)]), (1, [(0, 2.0)]), (2, [(1, 3.0)])]
        for is_sum, want_rows in ((True, [(2.0, 2), (5.0, 1), (6.0, 0), (3.0, 1)]),
                                  (False, [(1.0, 2), (5.0, 0), (4.0, 0), (3.0, 1)])):
            got, want = self._both(prev, cells, 1.0, is_sum)
            assert got == want == want_rows


def budget(K, n):
    """K, or with K = "n" or "n+2" that budget for n points."""
    return {"n": n, "n+2": n + 2}.get(K, K)


class TestDpAgainstScan:
    """dp_solve against the per-cell scan of lineplace._reference, the
    plain recursion over the same run table."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_loops_give_the_same_solution(self, K, p):
        rng = random.Random(f"dp{K}{p}")
        norm = NormP(p)
        for n, regime, q, kind in ((9, "nearline", 1.0, "sum"), (14, "spread", 2.0, "max"),
                                   (12, "grid", 1.0, "max"), (25, "nearline", 2.0, "sum")):
            ps, agg, k = random_pset(rng, n, regime), AggSpec(q, kind), budget(K, n)
            assert dp_solve(ps, k, norm, TOL, agg) == dp_scan(ps, k, norm, TOL, agg)

    @pytest.mark.parametrize("lists", ["naive"])
    def test_non_finite_pair_circle(self, lists):
        # the pair circle of points near the float range has a NaN
        # center, and the run of both radius inf: the DP and the scan
        # skip it
        ps = pset((1e200, 1), (2e200, 1))
        agg = AggSpec(1.0, "sum")
        got = [dp_solve(ps, K, N2, TOL, agg, lists=lists) for K in (2, None)]
        assert got[0] == got[1]
        assert got[0].intervals == ((0, 0), (1, 1))
        with pytest.raises(OverflowError):
            dp_solve(ps, 1, N2, TOL, agg, lists=lists)
        assert [dp_scan(ps, K, N2, TOL, agg) for K in (2, None)] == got
        with pytest.raises(OverflowError):
            dp_scan(ps, 1, N2, TOL, agg)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_scan_relax_gives_the_same_solution(self, K, p):
        rng = random.Random(f"dpq{K}{p}")
        for n, regime in ((9, "nearline"), (14, "spread"), (12, "grid")):
            ps, k = random_pset(rng, n, regime), budget(K, n)
            for agg in (AggSpec(1.0, "sum"), AggSpec(2.0, "max")):
                want = dp_scan(ps, k, NormP(p), TOL, agg)
                assert dp_solve(ps, k, NormP(p), TOL, agg) == want


    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_one_relaxation_per_budget_row(self, monkeypatch, K):
        # an integer K relaxes each budget row for all columns of a block
        # in one call, min(K, n) calls per block; K = None relaxes its one
        # row from the breaks before each _SCAN_COLUMNS columns of a
        # block in one call, and scans the breaks among them. A budget of
        # 20 pairs cuts the larger sets into blocks
        calls = []
        real = k_cover._best_breaks

        def counting(prev, w, is_sum):
            calls.append(w.shape)
            return real(prev, w, is_sum)

        monkeypatch.setattr(k_cover, "_best_breaks", counting)
        monkeypatch.setattr(k_cover, "PAIR_BUDGET", 20)
        monkeypatch.setattr(k_cover, "_SCAN_COLUMNS", 3)
        rng = random.Random(f"relax calls {K}")
        for n, regime in ((1, "nearline"), (2, "grid"), (9, "nearline"), (14, "spread")):
            ps, k = random_pset(rng, n, regime), budget(K, n)
            agg = AggSpec(2.0, "sum")
            blocks = list(k_cover._column_blocks(n))
            assert len(blocks) == {1: 1, 2: 1, 9: 3, 14: 8}[n]
            if k is None:
                want = [(min(3, c1 - s), s + 1) for c0, c1 in blocks for s in range(c0, c1, 3)]
            else:
                want = [(c1 - c0, c1) for c0, c1 in blocks for _ in range(min(k, n))]
            calls.clear()
            got = dp_solve(ps, k, N2, TOL, agg)
            assert calls == want
            assert got == dp_scan(ps, k, N2, TOL, agg)

    @pytest.mark.parametrize("kind", ["sum", "max"])
    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_entries_below_the_diagonal_are_not_read(self, monkeypatch, K, kind):
        # _relax_blocks masks the breaks b > r of its weight blocks and
        # reads the radius blocks only at the breaks it chooses, so any
        # finite value there gives the solution of inf-filled weights.
        # A value >= 0 there cannot win: the prefix before such a break
        # holds more points, so it alone costs no less than the optimum
        # (ties keep the first break). Only a negative value under the
        # sum shows a read; grid points tie often. A budget of 20 pairs
        # cuts every set into several blocks
        monkeypatch.setattr(k_cover, "PAIR_BUDGET", 20)
        rng = random.Random(f"below {K}{kind}")
        agg = AggSpec(2.0, kind)

        def relax(ps, k, radius, weights):
            blocks = ((c0, radius.T[c0:c1, :c1], weights.T[c0:c1, :c1])
                      for c0, c1 in k_cover._column_blocks(len(ps)))
            return k_cover._relax_blocks(ps.xy, k, blocks, 2.0, agg)

        for n, regime in ((12, "grid"), (15, "grid"), (11, "nearline")):
            ps, k = random_pset(rng, n, regime), budget(K, n)
            radius = run_radii(ps.xy, 2.0, TOL)
            below = np.tril_indices(n, -1)
            weights = radius ** agg.q
            weights[below] = math.inf
            want = relax(ps, k, radius, weights)
            assert want == dp_solve(ps, k, N2, TOL, agg)
            drawn = np.array([rng.uniform(-4, 4) for _ in below[0]])
            for fill in (0.0, drawn):
                weights[below] = radius[below] = fill
                assert relax(ps, k, radius, weights) == want


@st.composite
def stream_sets(draw):
    """Up to 300 points near the line, spread, on a small integer grid,
    or drawn again and again from a few points with equal |y| (ties in
    abscissa, in |y| and duplicates)."""
    n = draw(st.integers(1, 300))
    regime = draw(st.sampled_from(["nearline", "spread", "grid", "repeats"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if regime != "repeats":
        return random_pset(rng, n, regime)
    base = [(float(rng.randint(0, 40)), rng.choice([-1.5, 1.5, 0.25])) for _ in range(1 + n // 4)]
    return pset(*(rng.choice(base) for _ in range(n)))


def sol_bits(sol):
    return (sol.intervals, [bits((c.cx, c.radius)) for c in sol.circles], sol.objective.hex())


class TestStream:
    """The run table streamed into the DP in column blocks
    (k_cover._run_columns, k_cover._relax_blocks) against one block of
    the whole table, bit for bit."""

    @given(ps=stream_sets(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 30.0]),
           K=st.sampled_from([None, 1, 2, 3, 4, 5, 6, 7]), kind=st.sampled_from(["sum", "max"]),
           q=st.sampled_from([1.0, 2.0]), pairs=st.sampled_from([1, 2, 7, 60, 600, 4096]))
    @example(ps=pset((0, 1), (0, 1), (0, -1), (2, 1)), p=2.0, K=None, kind="sum", q=1.0,
             pairs=1).via("duplicates and a tie in |y| at one pair per block")
    @example(ps=pset(*((float(i % 5), float(i % 3 - 1)) for i in range(40))), p=1.5, K=3,
             kind="max", q=2.0, pairs=7).via("an integer grid, blocks cutting through runs")
    @settings(deadline=None, max_examples=40)
    def test_stream_equals_the_full_table(self, ps, p, K, kind, q, pairs):
        # a small pair budget makes blocks of a column or a few, which
        # cut through the optimal runs; a budget of every pair makes one
        # block, with no carry between blocks. A maximum is exact and the
        # DP keeps the first break of the least value, so nothing moves
        agg = AggSpec(q, kind)
        got, table = [], []
        for budget_pairs in (pairs, len(ps) * (len(ps) + 1) // 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(k_cover, "PAIR_BUDGET", budget_pairs)
                got.append(sol_bits(dp_solve(ps, K, NormP(p), TOL, agg)))
                table.append(run_radii(ps.xy, p, TOL).tobytes())
        assert got[0] == got[1]
        assert table[0] == table[1]

    def test_blocks_hold_at_most_the_pair_budget(self, monkeypatch):
        for pairs in (1, 2, 7, 60, 4096):
            monkeypatch.setattr(k_cover, "PAIR_BUDGET", pairs)
            for n in (1, 2, 3, 50, 301):
                blocks = list(k_cover._column_blocks(n))
                assert [c0 for c0, _ in blocks] == [0] + [c1 for _, c1 in blocks[:-1]]
                assert blocks[-1][1] == n
                for c0, c1 in blocks:
                    size = (c1 * (c1 + 1) - c0 * (c0 + 1)) // 2
                    # a block is as wide as the budget allows, and holds one
                    # column at least
                    assert size <= pairs or c1 == c0 + 1
                    assert c1 == n or size + c1 + 1 > pairs

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_dp_memory_follows_the_block(self, p):
        # one dp_solve at N = 2000 near the line traced 334 MiB (p = 2)
        # and 513 MiB (p = 1.5) over whole N x N tables; streamed, it
        # holds one block of at most PAIR_BUDGET pairs, the DP's K + 1
        # rows of value, break and radius, and O(N) besides, about
        # 0.9 and 1.5 MiB: 10 and 13 floats per budget pair and DP cell
        rng = random.Random(2000)
        n, K = 2000, 5
        ps = pset(*((rng.uniform(0, 100), rng.uniform(-2, 2)) for _ in range(n)))
        tracemalloc.start()
        try:
            dp_solve(ps, K, NormP(p), TOL, AggSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * (k_cover.PAIR_BUDGET + (K + 1) * n) * 8


class TestEnumeratePartitions:
    def test_bell_counts(self):
        assert sum(1 for _ in enumerate_partitions(4, 4)) == 15
        assert sum(1 for _ in enumerate_partitions(5, 5)) == 52

    def test_bounded_block_count(self):
        parts = list(enumerate_partitions(4, 2))
        assert all(len(p) <= 2 for p in parts)
        assert len(parts) == 8

    def test_covers_every_index(self):
        for blocks in enumerate_partitions(5, 3):
            flat = sorted(i for b in blocks for i in b)
            assert flat == list(range(5))


class TestSetPartitionOracle:
    def test_size_guards(self):
        # 10 points bound the enumeration at every K: K = None already
        # enumerates every partition, and a K above 4 is answered
        big = pset(*((float(i), 1.0) for i in range(11)))
        with pytest.raises(TooLarge):
            set_partition_oracle(big, 2, N2, TOL, AggSpec())
        small = pset((0, 1), (1, 1))
        got = set_partition_oracle(small, 5, N2, TOL, AggSpec())
        assert got.objective == set_partition_oracle(small, None, N2, TOL, AggSpec()).objective
        assert abs(got.objective - dp_solve(small, 5, N2, TOL, AggSpec()).objective) <= TOL.eps

    def test_independent_of_the_reconstruction_kernel(self, monkeypatch):
        # --verify prices blocks by min_enclosing, not by the kernel
        # that reconstructs the solver's circles
        def broken(*args):
            raise AssertionError("the oracle reached the k-cover kernel")

        monkeypatch.setattr(k_cover, "_binding_radii", broken)
        monkeypatch.setattr(k_cover, "_run_circles", broken)
        inst = json.loads((GOLDEN / "inst_10.json").read_text())
        out = json.loads((GOLDEN / "out_10.json").read_text())
        ps = pset(*inst["points"])
        agg = AggSpec(inst["q"], inst["agg"])
        got = set_partition_oracle(ps, inst["k"], NormP(inst["p"]), TOL, agg)
        assert got.objective == out["result"]["objective"]

    def test_contiguity_counterexample_artifact(self):
        # two coincident points plus one offset point tie the optimum
        # with a non-contiguous partition; record the instance so the
        # tie is reproducible
        ps = pset((0, 0), (0, 0), (1, 1))
        agg = AggSpec(1.0, "sum")
        sol = dp_solve(ps, 2, N2, TOL, agg)
        memo = {}

        def block_cost(idx):
            key = tuple(sorted(idx))
            if key not in memo:
                pts = [point(ps, i) for i in key]
                maxy = max(abs(q.y) for q in pts)
                xs = [q.x for q in pts]
                lo, hi = min(xs) - maxy, max(xs) + maxy
                from lineplace import Segment, min_enclosing
                segs = [Segment(Point(q.x - lo, q.y), Point(q.x - lo, q.y))
                        for q in pts]
                memo[key] = min_enclosing(segs, max(hi - lo, 0.0), N2, TOL).radius
            return memo[key]

        best = None
        optimal = []
        for blocks in enumerate_partitions(3, 2):
            val = sum(block_cost(b) for b in blocks)
            if best is None or val < best - 1e-9:
                best = val
                optimal = [blocks]
            elif abs(val - best) <= 1e-9:
                optimal.append(blocks)
        noncontig = [blocks for blocks in optimal
                     if any(b[-1] - b[0] + 1 != len(b) for b in blocks)]
        assert noncontig, "expected a non-contiguous optimal partition"
        assert abs(best - sol.objective) <= 1e-6

        ARTIFACTS.mkdir(exist_ok=True)
        record = {
            "points": ps.xy.tolist(),
            "k": 2,
            "agg": {"q": 1.0, "kind": "sum"},
            "objective": best,
            "noncontiguous_optimal_partition": [list(map(list, b))
                                                for b in [noncontig[0]]][0],
            "dp_objective": sol.objective,
        }
        path = ARTIFACTS / "contiguity_counterexample.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        assert json.loads(path.read_text())["objective"] == best
