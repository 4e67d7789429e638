"""Closed-form and iterative solvers for the two-queue group-plus-mass
model, cross-checked against each other and against hand-solved cases.

The reference instance has capacities 4 and 3 with group demand 1.2 and
mass demand 1.  At cooperation degree 0.9 it carries three equilibria:
the empty-first-link corner, an interior point at group split 1.1625,
and the full-first-link corner.  At degree 0 the unique equilibrium
parks the whole mass on the second link with group split 0.6.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cooproute import (ConfigError, InfeasibleError, MixedScenario,
                       MM1Cost, costs, get_preset, mixed, mixed_closed_form,
                       mixed_costs, mixed_numeric, verify_mixed,
                       wardrop_split)
from cooproute.costs import CAPACITY_GUARD, SplitCost
from cooproute.search import argmin_by_derivative, bisect_sign_change


def reference(alpha):
    return MixedScenario(capacity_one=4.0, capacity_two=3.0,
                         group_demand=1.2, mass_demand=1.0, alpha=alpha)


def hand_costs(s, x, w):
    # group, mass and weighted cost written out: a full link's latency is
    # infinite, and zero flow on it costs nothing
    def latency(capacity, flow):
        return math.inf if capacity - flow <= 0.0 else 1.0 / (capacity - flow)

    t1 = latency(s.capacity_one, x + (s.mass_demand - w))
    t2 = latency(s.capacity_two, (s.group_demand - x) + w)

    def times(flow, lat):
        return 0.0 if flow == 0.0 else flow * lat

    jg = times(x, t1) + times(s.group_demand - x, t2)
    jm = times(s.mass_demand - w, t1) + times(w, t2)
    return jg, jm, (1.0 - s.alpha) * jg + s.alpha * jm


def verified_splits(result):
    return sorted((round(s.group_split, 7), round(s.mass_split, 7))
                  for s in result.solutions if s.verified)


class TestScenario:
    def test_demand_must_fit_capacity(self):
        with pytest.raises(InfeasibleError):
            MixedScenario(2.0, 1.5, 2.0, 1.5, 0.3)

    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            MixedScenario(4.0, 3.0, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, v):
        args = [4.0, 3.0, 1.0, 1.0, 0.5]
        args[field] = v
        with pytest.raises(ConfigError):
            MixedScenario(*args)


class TestWardropSplit:
    @settings(max_examples=60)
    @given(st.floats(2.5, 6.0), st.floats(2.5, 6.0),
           st.floats(0.0, 1.2), st.floats(0.1, 1.0))
    def test_split_equalizes_or_hits_corner(self, c1, c2, x, mass):
        r1 = 1.2
        one, two = MM1Cost(c1), MM1Cost(c2)
        w = wardrop_split(one, two, x, r1 - x, mass)
        assert 0.0 <= w <= mass
        f1 = x + mass - w
        f2 = r1 - x + w
        t1 = one.value(f1)
        t2 = two.value(f2)
        if 1e-7 < w < mass - 1e-7:
            assert t1 == pytest.approx(t2, rel=1e-5, abs=1e-6)
        elif w <= 1e-7:
            assert t1 <= t2 + 1e-6
        else:
            assert t2 <= t1 + 1e-6

    @settings(max_examples=200)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.0, 0.99),
           st.floats(0.0, 0.99), st.floats(0.0, 20.0))
    def test_closed_form_matches_bisection(self, c1, c2, b1, b2, mass):
        # equal slack on two M/M/1 links against the bisected latency gap
        one, two = MM1Cost(c1), MM1Cost(c2)
        base_one, base_two = b1 * c1, b2 * c2
        lo = max(mass - (c1 - base_one) + CAPACITY_GUARD, 0.0)
        hi = min(c2 - base_two - CAPACITY_GUARD, mass)
        assume(0.0 < mass and lo <= hi)
        w = wardrop_split(one, two, base_one, base_two, mass)
        ref = bisect_sign_change(
            lambda v: one.value(base_one + mass - v) - two.value(base_two + v),
            lo, hi)
        assert abs(w - ref) <= 1e-12 * max(1.0, mass)

    def test_all_mass_avoids_full_link(self):
        w = wardrop_split(MM1Cost(1.0), MM1Cost(5.0), 0.9, 0.3, 0.5)
        assert w == pytest.approx(0.5)


class TestClosedForm:
    def test_reference_three_equilibria(self):
        result = mixed_closed_form(reference(0.9))
        assert verified_splits(result) == [
            (0.0, 0.0), (1.1625, 0.5625), (1.2, 0.6)]
        rejected = [s for s in result.solutions if not s.verified]
        assert len(rejected) == 1
        assert rejected[0].group_split == pytest.approx(0.6)

    def test_reference_selfish_unique(self):
        result = mixed_closed_form(reference(0.0))
        assert verified_splits(result) == [(0.6, 0.0)]

    def test_interior_point_balances_slacks(self):
        s = reference(0.9)
        sol = next(x for x in mixed_closed_form(s).solutions
                   if x.kind == "interior" and x.verified)
        f1 = sol.group_split + s.mass_demand - sol.mass_split
        f2 = s.group_demand - sol.group_split + sol.mass_split
        assert (s.capacity_one - f1) == pytest.approx(
            s.capacity_two - f2, abs=1e-9)

    def test_quadratic_trail_vanishes_at_root(self):
        for a in (0.1, 0.2, 0.3, 0.4):
            result = mixed_closed_form(reference(a))
            sols = [s for s in result.solutions
                    if s.case == "wardrop-link1-only"
                    and s.kind == "interior"]
            assert sols, f"no pinned-mass interior solution at {a}"
            sol = sols[0]
            x = sol.group_split
            res = sol.quad_a * x * x + sol.quad_b * x + sol.quad_c
            scale = max(abs(sol.quad_a), abs(sol.quad_b), abs(sol.quad_c))
            assert abs(res) <= 1e-8 * scale

    def test_balanced_weight_is_noted_not_solved(self):
        result = mixed_closed_form(reference(0.5))
        assert not result.continuum
        assert any("no interior stationary point" in n
                   for n in result.notes)

    def test_balanced_equal_capacity_continuum(self):
        s = MixedScenario(4.0, 4.0, 1.0, 1.0, 0.5)
        result = mixed_closed_form(s)
        assert result.continuum
        assert result.continuum_span == (0.0, 1.0)


class TestSymmetricInstance:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.48, 0.49, 0.51, 0.52,
                                       0.7, 0.9, 1.0])
    def test_even_split_is_exact(self, alpha):
        s = MixedScenario(4.0, 4.0, 1.0, 1.0, alpha)
        closed = [x for x in mixed_closed_form(s).solutions
                  if x.kind == "interior" and x.verified]
        assert closed and closed[0].case == "both-links"
        assert closed[0].group_split == 0.5
        assert closed[0].mass_split == 0.5
        numeric = [p for p in mixed_numeric(s).points
                   if abs(p.group_split - 0.5) < 0.2]
        assert numeric
        assert numeric[0].group_split == pytest.approx(0.5, abs=1e-12)
        assert numeric[0].mass_split == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("alpha,expect", [
        (0.1, False), (0.3, False), (0.49, False),
        (0.51, True), (0.7, True), (1.0, True)])
    def test_corners_appear_with_enough_weight(self, alpha, expect):
        s = MixedScenario(4.0, 4.0, 1.0, 1.0, alpha)
        got = (0.0, 0.0) in verified_splits(mixed_closed_form(s))
        assert got == expect
        check = verify_mixed(s, 0.0, 0.0)
        assert check.ok == expect


class TestNumericAgreement:
    def test_reference_points_match_closed_form(self):
        for alpha in (0.0, 0.2, 0.7, 0.9):
            s = reference(alpha)
            closed = verified_splits(mixed_closed_form(s))
            numeric = sorted((round(p.group_split, 7),
                              round(p.mass_split, 7))
                             for p in mixed_numeric(s).points if p.verified)
            assert len(numeric) >= len(closed)
            for pair in closed:
                assert any(abs(pair[0] - q[0]) < 1e-5
                           and abs(pair[1] - q[1]) < 1e-5
                           for q in numeric), (alpha, pair, numeric)

    def test_random_scenarios_agree(self):
        rng = random.Random(7)
        for _ in range(10):
            c1 = rng.uniform(1.5, 6.0)
            c2 = rng.uniform(1.5, 6.0)
            r1 = rng.uniform(0.2, 0.45) * (c1 + c2)
            r2 = rng.uniform(0.1, 0.4) * (c1 + c2 - r1)
            alpha = rng.choice([0.0, 0.15, 0.35, 0.65, 0.85, 1.0])
            s = MixedScenario(c1, c2, r1, r2, alpha)
            closed = [x for x in mixed_closed_form(s).solutions
                      if x.verified]
            pts = mixed_numeric(s).points
            for sol in closed:
                assert any(abs(p.group_split - sol.group_split) < 1e-5
                           and abs(p.mass_split - sol.mass_split) < 1e-5
                           for p in pts), (s, sol)

    def test_costs_blend_consistently(self):
        s = reference(0.9)
        jg, jm, jw = mixed_costs(s, 1.1625, 0.5625)
        assert jw == pytest.approx((1 - 0.9) * jg + 0.9 * jm)
        assert (jg, jm, jw) == hand_costs(s, 1.1625, 0.5625)

    # Audit scenarios random-24 and random-35, whose group demands the
    # hand-built grid r * i / (n - 1) missed by an ulp at its last point.
    @pytest.mark.parametrize("scenario, basin", [
        (MixedScenario(1.8095165549790508, 1.539723716549714,
                       0.7362098140890853, 0.7232922364609202,
                       0.6609580177032867), 25),
        (MixedScenario(5.52803947450978, 4.558632290150358,
                       3.3235601882742034, 2.159449588170212,
                       0.9835054029211315), 71)])
    def test_scan_returns_the_full_group_corner(self, monkeypatch, scenario,
                                                basin):
        roots = []
        scan = mixed.scan_sign_changes

        def spy(*args):
            found = scan(*args)
            roots.extend(found)
            return found

        monkeypatch.setattr(mixed, "scan_sign_changes", spy)
        r1 = scenario.group_demand
        pts = mixed_numeric(scenario).points
        assert r1 in roots
        corner = [p for p in pts if p.group_split == r1]
        assert len(corner) == 1
        assert corner[0].basin_count == basin
        assert not corner[0].scan_found
        assert corner[0].verified

    def test_scan_recovers_repelled_interior(self):
        pts = mixed_numeric(reference(0.9)).points
        interior = [p for p in pts
                    if abs(p.group_split - 1.1625) < 1e-5]
        assert interior
        assert interior[0].scan_found
        assert interior[0].basin_count == 0
        assert interior[0].verified


def test_saturating_split_reports_infinite_cost():
    # group and mass together exceed the first capacity, so any cost
    # touching that link blows up while the mass-only cost stays finite
    s = MixedScenario(2.0, 3.0, 1.2, 1.0, 0.3)
    jg, jm, jw = mixed_costs(s, 1.2, 0.0)
    assert jg == math.inf
    jg2, jm2, jw2 = mixed_costs(s, 0.0, 0.0)
    assert jg2 < math.inf
    for corner in ((1.2, 0.0), (0.0, 0.0)):
        assert mixed_costs(s, *corner) == hand_costs(s, *corner)


def hand_group_response(s, w):
    # the group's derivative written out by hand, bisected 80 times
    r1, r2, a = s.group_demand, s.mass_demand, s.alpha
    mass_one = r2 - w
    lo = max(r1 - (s.capacity_two - w) + CAPACITY_GUARD, 0.0)
    hi = min(s.capacity_one - mass_one - CAPACITY_GUARD, r1)

    def deriv(x):
        u = s.capacity_one - (x + mass_one)
        v = s.capacity_two - (r1 - x + w)
        d1 = 1.0 / (u * u)
        d2 = 1.0 / (v * v)
        own = (1.0 / u + x * d1) - (1.0 / v + (r1 - x) * d2)
        return (1.0 - a) * own + a * (mass_one * d1 - w * d2)

    return lo, hi, argmin_by_derivative(deriv, lo, hi)


@st.composite
def group_cases(draw):
    """A scenario and a mass split, wider than the acceptance suite draws
    them: weights near 1/2, nearly equal capacities, and mass splits
    that put one end of the group's guard bracket against a capacity."""
    alpha = draw(st.one_of(st.floats(0.45, 0.55), st.floats(0.0, 1.0)))
    c1 = draw(st.floats(1.0, 6.0))
    c2 = draw(st.one_of(st.floats(1.0, 6.0),
                        st.floats(-1e-3, 1e-3).map(lambda e: c1 * (1 + e))))
    total = (c1 + c2) * draw(st.floats(0.05, 0.999))
    r1 = total * draw(st.floats(0.05, 0.95))
    r2 = total - r1
    s = MixedScenario(c1, c2, r1, r2, alpha)
    # the mass's own extremes, and the mass splits at which an end of the
    # group's bracket [lo, hi] leaves 0 or r1 for a link's capacity guard
    ends = [c2 - r1 - CAPACITY_GUARD, r1 + r2 + CAPACITY_GUARD - c1]
    w = draw(st.one_of(st.sampled_from([0.0, r2]),
                       st.sampled_from(ends).flatmap(
                           lambda e: st.floats(-1e-6, 1e-6).map(
                               lambda d: e + d)),
                       st.floats(0.0, 1.0).map(lambda f: f * r2)))
    assume(0.0 <= w <= r2)
    return s, w


@settings(max_examples=300)
@given(group_cases())
def test_group_response_matches_bisection(case):
    s, w = case
    lo, hi, ref = hand_group_response(s, w)
    assume(lo <= hi)
    x = mixed._group_response(s, mixed._group_split(s), w)
    assert lo <= x <= hi
    r1 = s.group_demand
    if abs(x - ref) <= 1e-12 * max(1.0, r1):
        return
    cost = mixed_costs(s, x, w)[2]
    assert cost <= mixed_costs(s, ref, w)[2] + 1e-12 * max(1.0, abs(cost))


@st.composite
def balanced_scenarios(draw):
    """Scenarios drawn as the acceptance suite draws them, but with the
    weight near 1/2 and half the capacity pairs nearly equal."""
    alpha = draw(st.floats(0.45, 0.55))
    c1 = draw(st.floats(1.5, 6.0))
    c2 = draw(st.one_of(st.floats(1.5, 6.0),
                        st.floats(-1e-3, 1e-3).map(lambda e: c1 * (1 + e))))
    r1 = draw(st.floats(0.2, 0.45)) * (c1 + c2)
    r2 = draw(st.floats(0.1, 0.4)) * (c1 + c2 - r1)
    return MixedScenario(c1, c2, r1, r2, alpha)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(balanced_scenarios())
def test_closed_form_lists_numeric_points_near_balance(s):
    # criterion 08's rule: each verified numeric point off the group's
    # corners lies within 1e-6 of a verified closed-form candidate, or
    # on the continuum the closed form reports
    closed = mixed_closed_form(s)
    cands = [(x.group_split, x.mass_split) for x in closed.solutions
             if x.verified]
    r1 = s.group_demand
    for p in mixed_numeric(s).points:
        if not p.verified or not 1e-7 < p.group_split < r1 - 1e-7:
            continue
        if closed.continuum:
            lo, hi = closed.continuum_span
            offset = closed.solutions[0].equal_cost_offset
            if (abs(p.group_split - p.mass_split - offset) <= 1e-6
                    and lo - 1e-6 <= p.group_split <= hi + 1e-6):
                continue
        assert any(abs(p.group_split - x) <= 1e-6
                   and abs(p.mass_split - w) <= 1e-6
                   for x, w in cands), (p.group_split, p.mass_split)


# SplitCost.derivative calls of mixed_numeric on mixed-fig7: 13,921 for
# 1,452 responses and 1 verification with the Newton group best response;
# an 80-step bisection makes about 82 per response.  The closed-form root
# of SplitCost.argmin evaluates its end tests in closed form and makes
# none.
FIG7_DERIVATIVES = 0


def test_numeric_work_stays_bounded(monkeypatch):
    calls = {"response": 0, "in_verify": 0, "derivative": 0, "newton": 0}
    respond, verify = mixed._group_response, mixed.verify_mixed
    derivative = SplitCost.derivative
    newton = costs.newton_argmin

    def counted_respond(*args):
        calls["response"] += 1
        return respond(*args)

    def counted_verify(*args):
        before = calls["response"]
        out = verify(*args)
        calls["in_verify"] += calls["response"] - before
        return out

    def counted_derivative(self, *args):
        calls["derivative"] += 1
        return derivative(self, *args)

    def counted_newton(*args):
        calls["newton"] += 1
        return newton(*args)

    monkeypatch.setattr(mixed, "_group_response", counted_respond)
    monkeypatch.setattr(mixed, "verify_mixed", counted_verify)
    monkeypatch.setattr(SplitCost, "derivative", counted_derivative)
    monkeypatch.setattr(costs, "newton_argmin", counted_newton)
    result = mixed_numeric(get_preset("mixed-fig7").build_mixed())
    assert result.diagnostics["group_responses"] == (
        calls["response"] - calls["in_verify"])
    assert calls["newton"] == 0
    assert calls["derivative"] <= 2 * FIG7_DERIVATIVES


@pytest.mark.parametrize("scenario", [
    MixedScenario(4.0, 4.0, 1.0, 1.0, 0.5),
    MixedScenario(3.0, 3.0, 1.2, 1.0, 0.5)])
def test_continuum_points_lie_on_the_continuum(scenario):
    # balanced weight and equal capacities: the group objective is flat
    # along the continuum, so which of its points the solver lists is
    # arbitrary; each must still be an equilibrium on it
    closed = mixed_closed_form(scenario)
    assert closed.continuum
    lo, hi = closed.continuum_span
    offset = closed.solutions[0].equal_cost_offset
    points = mixed_numeric(scenario).points
    assert points
    for p in points:
        assert p.verified
        assert abs((p.group_split - p.mass_split) - offset) <= 1e-9
        assert lo - 1e-9 <= p.group_split <= hi + 1e-9
