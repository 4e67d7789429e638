import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooproute import search
from cooproute.search import (argmin_by_derivative, bisect_sign_change,
                              grid, newton_argmin, scan_sign_changes)


class TestGrid:
    def test_last_point_is_exactly_the_end(self):
        # r * 200 / 200 rounds to 0.7362098140890851, an ulp short of r
        r = 0.7362098140890853
        assert r * 200 / 200 != r
        assert grid(r, 201)[-1] == r

    @settings(max_examples=100)
    @given(st.floats(0.0, 1e6), st.integers(2, 1001))
    def test_starts_at_zero_and_never_decreases(self, r, n):
        xs = grid(r, n)
        assert len(xs) == n
        assert xs[0] == 0.0
        assert xs[-1] == r
        assert all(a <= b for a, b in zip(xs, xs[1:]))


class TestBisectSignChange:
    def test_finds_linear_root(self):
        root = bisect_sign_change(lambda x: 3.0 - x, 0.0, 10.0)
        assert root == pytest.approx(3.0, abs=1e-12)

    def test_nonnegative_everywhere_returns_upper_end(self):
        assert bisect_sign_change(lambda x: 1.0, 0.0, 2.0) == 2.0

    def test_nonpositive_everywhere_returns_lower_end(self):
        assert bisect_sign_change(lambda x: -1.0, 0.0, 2.0) == 0.0

    @given(st.floats(0.1, 9.9))
    def test_recovers_planted_root(self, c):
        root = bisect_sign_change(lambda x: c - x, 0.0, 10.0)
        assert root == pytest.approx(c, abs=1e-9)


class TestScanSignChanges:
    GRID = [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_zero_at_grid_point_is_kept_as_is(self):
        # f vanishes exactly at 0.5; the next interval has no strict change
        assert scan_sign_changes(lambda x: x - 0.5, self.GRID) == [0.5]

    def test_falling_sign_change_is_bisected(self):
        roots = scan_sign_changes(lambda x: 1.3 - x, self.GRID)
        assert roots == [pytest.approx(1.3, abs=1e-12)]

    def test_rising_sign_change_is_bisected(self):
        roots = scan_sign_changes(lambda x: x * x - 2.0, self.GRID)
        assert roots == [pytest.approx(math.sqrt(2.0), abs=1e-12)]

    def test_zero_at_upper_end(self):
        assert scan_sign_changes(lambda x: x - 2.0, self.GRID) == [2.0]

    def test_no_root(self):
        assert scan_sign_changes(lambda x: x + 1.0, self.GRID) == []

    def test_roots_in_grid_order_and_step_count(self, monkeypatch):
        def f(x):
            return (x - 0.3) * (x - 1.2)

        roots = scan_sign_changes(f, self.GRID)
        assert roots == [pytest.approx(0.3, abs=1e-12),
                         pytest.approx(1.2, abs=1e-12)]
        # with one step the root is the midpoint of the halved bracket
        monkeypatch.setattr(search, "SEARCH_STEPS", 1)
        assert scan_sign_changes(f, self.GRID) == [0.375, 1.125]


class TestArgminByDerivative:
    def test_interior_quadratic_minimum(self):
        x = argmin_by_derivative(lambda t: 2.0 * (t - 1.25), 0.0, 3.0)
        assert x == pytest.approx(1.25, abs=1e-12)

    def test_clamps_to_left_corner(self):
        x = argmin_by_derivative(lambda t: 2.0 * (t + 1.0), 0.0, 3.0)
        assert x == 0.0

    def test_clamps_to_right_corner(self):
        x = argmin_by_derivative(lambda t: 2.0 * (t - 5.0), 0.0, 3.0)
        assert x == 3.0

    def test_nan_region_is_stepped_around(self):
        # derivative undefined past the pole; the search must stay left
        def deriv(t):
            if t >= 2.0:
                return math.nan
            return 1.0 / (2.0 - t) ** 2 - 4.0

        x = argmin_by_derivative(deriv, 0.0, 3.0)
        assert x == pytest.approx(1.5, abs=1e-9)

    @settings(max_examples=60)
    @given(st.floats(-1.0, 4.0), st.floats(0.1, 5.0))
    def test_matches_clamped_vertex(self, c, a):
        x = argmin_by_derivative(lambda t: 2.0 * a * (t - c), 0.0, 3.0)
        assert x == pytest.approx(min(max(c, 0.0), 3.0), abs=1e-9)


class TestNewtonArgmin:
    @staticmethod
    def pole(t):
        # derivative of a convex cost whose latency blows up at t = 2
        if t >= 2.0:
            return math.nan, math.nan
        return 1.0 / (2.0 - t) ** 2 - 4.0, 2.0 / (2.0 - t) ** 3

    def test_interior_quadratic_minimum(self):
        x = newton_argmin(lambda t: (2.0 * (t - 1.25), 2.0), 0.0, 3.0)
        assert x == 1.25

    def test_corners_match_argmin_by_derivative(self):
        assert newton_argmin(lambda t: (2.0 * (t + 1.0), 2.0), 0.0, 3.0) == 0.0
        assert newton_argmin(lambda t: (2.0 * (t - 5.0), 2.0), 0.0, 3.0) == 3.0
        assert newton_argmin(lambda t: (0.0, 0.0), 0.0, 3.0) == 0.0
        assert newton_argmin(lambda t: (1.0, 0.0), 2.0, 1.0) == 2.0

    def test_nan_region_is_stepped_around(self):
        evals = []

        def deriv(t):
            evals.append(t)
            return self.pole(t)

        x = newton_argmin(deriv, 0.0, 3.0)
        assert x == pytest.approx(1.5, abs=1e-15)
        assert x == pytest.approx(
            argmin_by_derivative(lambda t: self.pole(t)[0], 0.0, 3.0),
            abs=1e-12)
        assert len(evals) <= 12

    def test_flat_slope_bisects(self):
        # a slope of zero or infinity gives no Newton step
        def deriv(t):
            return t - 0.7, (0.0 if t < 0.5 else math.inf)

        assert newton_argmin(deriv, 0.0, 1.0) == pytest.approx(0.7, abs=1e-15)

    def test_step_cap(self, monkeypatch):
        # one step evaluates the midpoint and takes the Newton step from it
        monkeypatch.setattr(search, "SEARCH_STEPS", 1)
        x = newton_argmin(lambda t: (t * t * t - 0.001, 3.0 * t * t),
                          0.0, 1.0)
        assert x == pytest.approx(0.5 - (0.125 - 0.001) / 0.75, abs=1e-15)

    @settings(max_examples=60)
    @given(st.floats(-1.0, 4.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0))
    def test_matches_bisection(self, c, a, k):
        # convex cost a (t - c)^2 + k (t - c)^4 / 4 on [0, 3]
        def deriv(t):
            return 2 * a * (t - c) + k * (t - c) ** 3, 2 * a + 3 * k * (t - c) ** 2

        x = newton_argmin(deriv, 0.0, 3.0)
        assert x == pytest.approx(min(max(c, 0.0), 3.0), abs=1e-12)
        assert x == pytest.approx(
            argmin_by_derivative(lambda t: deriv(t)[0], 0.0, 3.0), abs=1e-12)
