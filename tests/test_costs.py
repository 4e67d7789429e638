import math
import struct
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cooproute import (ConfigError, CooperationProfile, InfeasibleError,
                       LinearCost, MM1Cost, MixedScenario, SolverError,
                       assemble_profile, build_network, build_path_set,
                       make_game, mixed, nash, wardrop_split)
from cooproute import costs
from cooproute.costs import (CAPACITY_GUARD, SplitCost, guard_fill,
                             path_marginals)
from cooproute.search import newton_argmin
from cooproute.netmodel import UserSpec


# Just above the smallest positive capacity that MM1Cost accepts, the
# cube root of sys.float_info.min (about 2.81e-103).
MIN_CAPACITY = 3e-103


def parallel_net(costs):
    links = [(f"l{i + 1}", 1, 2, c) for i, c in enumerate(costs)]
    return build_network([1, 2], links)


def parallel_profile(net, rows):
    users = [UserSpec(user_id=i + 1, source=1, target=2,
                      demand=sum(row)) for i, row in enumerate(rows)]
    pset = build_path_set(net, users)
    return assemble_profile(net, pset, rows, [u.demand for u in users])


def priced(net, prof, coop):
    """Raw and operating costs of every user at the profile."""
    raws = tuple(costs.user_costs(net.links, prof.user_link_flows,
                                  prof.total_link_flows))
    return raws, tuple(costs.weighted_cost(row, raws) for row in coop.rows)


def selfish(n):
    return CooperationProfile.from_alphas(tuple(range(1, n + 1)), [0.0] * n)


def marginal(net, prof, coop, uid, link_id):
    """User ``uid``'s marginal operating cost along the one-link path
    ``link_id`` at the profile, whose loads already hold its own flow."""
    ui = prof.user_ids.index(uid)
    row = coop.rows[ui]
    weighted = [0.0] * len(net.links)
    for w, own in zip(row, prof.user_link_flows):
        if w:
            for li, v in enumerate(own):
                weighted[li] += w * v
    li = [lk.link_id for lk in net.links].index(link_id)
    return path_marginals(net.links, [[li]], row[ui],
                          prof.total_link_flows, weighted, [0.0])[0]


@st.composite
def priced_loads(draw):
    """A latency of either class and flows to price on it: zero, flows
    just below, at and past an M/M/1 capacity, large affine loads that
    may overflow, and NaN."""
    if draw(st.booleans()):
        cap = draw(st.just(0.0) | st.floats(MIN_CAPACITY, 1e3))
        spec = MM1Cost(cap)
        edges = [0.0, math.nextafter(cap, 0.0), cap,
                 math.nextafter(cap, math.inf), 2.0 * cap + 1.0]
    else:
        spec = LinearCost(draw(st.floats(0.0, 1e3, allow_subnormal=False)),
                          draw(st.floats(0.0, 1e3)))
        edges = [0.0, 1e150, 1e300, sys.float_info.max]
    flows = draw(st.lists(st.sampled_from(edges + [math.nan])
                          | st.floats(0.0, 1e6), max_size=40))
    return spec, flows


def float_bits(xs):
    return [struct.pack("<d", x) for x in xs]


def latency_column(spec, flows):
    """``spec.LATENCY`` over ``flows`` as the deviation kernel evaluates
    it: a comprehension's ``for`` clause on a bound load, with the fields
    passed in as the parameters ``{name}0``."""
    names = {name: f"{name}0" for name in spec.__slots__}
    source = (f"lambda {', '.join(names.values())}, flows: "
              f"[l0 for t0 in flows for l0 in "
              f"({spec.LATENCY.format(f='t0', **names)},)]")
    kernel = eval(source, {"INF": costs.INFINITE_COST})
    return kernel(*(getattr(spec, name) for name in spec.__slots__), flows)


@settings(max_examples=200, deadline=None)
@given(priced_loads())
def test_latency_source_equals_value_bit_for_bit(case):
    # the deviation sweep prices loads through each class's ``LATENCY``
    # source; each must be the float ``value`` gives, NaN and the sign of
    # zero included
    spec, flows = case
    assert float_bits(latency_column(spec, flows)) == float_bits(
        [spec.value(f) for f in flows])


class TestLinkCosts:
    def test_linear_value_and_slope(self):
        c = LinearCost(slope=2.0, intercept=0.5)
        assert c.value(3.0) == 6.5
        assert c.derivative(3.0) == 2.0

    def test_linear_rejects_negative_slope(self):
        with pytest.raises(ConfigError):
            LinearCost(slope=-1.0)

    @pytest.mark.parametrize("slope", [5e-324, sys.float_info.min / 2])
    def test_linear_rejects_subnormal_slope(self, slope):
        # slope * flow loses its precision or underflows to zero, so a
        # game on such a link could verify a split that is no equilibrium
        with pytest.raises(ConfigError, match="subnormal"):
            LinearCost(slope=slope)
        assert LinearCost(slope=sys.float_info.min).slope > 0.0

    @pytest.mark.parametrize("capacity", [5e-324, 1e-170, 1e-110,
                                          2.8e-103])
    def test_queue_rejects_capacity_with_subnormal_cube(self, capacity):
        # the second derivative divides by the slack's cube, which would
        # lose its precision or round to zero; an absent link stays valid,
        # and so does a capacity whose cube overflows
        with pytest.raises(ConfigError, match="subnormal cube"):
            MM1Cost(capacity)
        assert MM1Cost(MIN_CAPACITY).capacity ** 3 >= sys.float_info.min
        for valid in (0.0, 1e103, 1e300, sys.float_info.max):
            assert MM1Cost(valid).capacity == valid

    def test_queue_value_and_slope(self):
        c = MM1Cost(capacity=4.0)
        assert c.value(2.0) == pytest.approx(0.5)
        assert c.derivative(2.0) == pytest.approx(0.25)

    def test_queue_saturates_to_infinity(self):
        c = MM1Cost(capacity=2.0)
        assert c.value(2.0) == math.inf
        assert c.value(3.0) == math.inf
        assert c.derivative(2.0) == math.inf

    def test_queue_rejects_negative_capacity(self):
        with pytest.raises(ConfigError):
            MM1Cost(capacity=-1.0)

    def test_zero_capacity_queue_is_always_full(self):
        # capacity 0 models a link that exists but cannot carry flow
        c = MM1Cost(capacity=0.0)
        assert c.value(0.0) == math.inf
        assert c.derivative(0.0) == math.inf

    def test_negative_flow_rejected(self):
        # costs are only ever evaluated at the loads of a profile, and a
        # profile refuses negative flow
        net = parallel_net([LinearCost(1.0), MM1Cost(2.0)])
        with pytest.raises(ConfigError):
            parallel_profile(net, [[-0.1, 1.1]])

    @pytest.mark.parametrize("make", [
        lambda v: LinearCost(slope=v),
        lambda v: LinearCost(slope=1.0, intercept=v),
        lambda v: MM1Cost(capacity=v),
    ], ids=["slope", "intercept", "capacity"])
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, make, v):
        with pytest.raises(ConfigError):
            make(v)

    @given(st.floats(0.0, 50.0), st.floats(0.01, 10.0),
           st.floats(0.0, 5.0))
    def test_linear_matches_direct_formula(self, f, a, g):
        assert LinearCost(a, g).value(f) == pytest.approx(a * f + g)

    @given(st.floats(0.0, 3.9), st.floats(4.0, 20.0))
    def test_queue_derivative_is_squared_slack(self, f, cap):
        c = MM1Cost(cap)
        assert c.derivative(f) == pytest.approx(1.0 / (cap - f) ** 2)


class TestSplitCost:
    """One user with paths (l1) and (l2, l3): t on the second path."""

    PATHS = [[0], [1, 2]]

    def marginal_gap(self, latencies, others, weighted, b, r, t):
        m = path_marginals(latencies, self.PATHS, b, others, weighted,
                           [r - t, t])
        return m[1] - m[0]

    def split(self, specs, b, r):
        # second-path links first
        return SplitCost(specs=(specs[1], specs[2], specs[0]), n1=2,
                         own_weight=b, demand=r)

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, 3.0, allow_subnormal=False),
                    min_size=6, max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_affine_line_is_the_marginal_gap(self, ab, others, b, share):
        specs = [LinearCost(ab[2 * i], ab[2 * i + 1]) for i in range(3)]
        links = parallel_net(specs).links
        weighted = [0.5 * o for o in others]
        split = self.split(specs, b, 1.5)
        assert split.affine
        mine = (others[1], others[2], others[0])
        c, slope = split.line(mine, (weighted[1], weighted[2], weighted[0]))
        for t in (0.0, 1.5 * share, 1.5):
            want = self.marginal_gap(links, others, weighted, b, 1.5, t)
            assert c + slope * t == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.05, 0.95))
    def test_queue_derivative_and_slope(self, b, share):
        specs = [MM1Cost(3.0), MM1Cost(2.5), LinearCost(1.0, 0.2)]
        links = parallel_net(specs).links
        others, weighted = [0.7, 0.4, 0.1], [0.3, 0.2, 0.05]
        split = self.split(specs, b, 1.5)
        assert not split.affine
        mine = (others[1], others[2], others[0])
        mine_w = (weighted[1], weighted[2], weighted[0])
        t, h = 1.5 * share, 1e-6
        g, slope = split.derivative(t, mine, mine_w)
        assert g == pytest.approx(
            self.marginal_gap(links, others, weighted, b, 1.5, t), rel=1e-12)
        fd = (split.derivative(t + h, mine, mine_w)[0]
              - split.derivative(t - h, mine, mine_w)[0]) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-5)

    @settings(max_examples=40)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.95))
    def test_one_path_derivative_is_the_path_marginal(self, b, share):
        # every link on the second path: the marginal along (l2, l3)
        specs = [MM1Cost(3.0), MM1Cost(2.5), LinearCost(1.0, 0.2)]
        links = parallel_net(specs).links
        others, weighted = [0.7, 0.4, 0.1], [0.3, 0.2, 0.05]
        path = SplitCost(specs=(specs[1], specs[2]), n1=2, own_weight=b,
                         demand=1.5)
        t, h = 1.5 * share, 1e-6
        m, slope = path.derivative(t, others[1:], weighted[1:])
        assert m == path_marginals(links, self.PATHS, b, others, weighted,
                                   [0.0, t])[1]
        if t > h:
            fd = (path.derivative(t + h, others[1:], weighted[1:])[0]
                  - path.derivative(t - h, others[1:], weighted[1:])[0]
                  ) / (2 * h)
            assert slope == pytest.approx(fd, rel=1e-5)


# Cooperation weights and shares of a load: the ends, or at least 5 %, so
# that no marginal is subnormal.
WEIGHTS = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 1.0)


def curvature(spec, flow):
    """``T''``: 0 on an affine link, ``2 / s^3`` at slack ``s`` on an
    M/M/1 link, infinite at and past its capacity."""
    if isinstance(spec, LinearCost):
        return 0.0
    slack = spec.capacity - flow
    if slack <= 0.0:
        return math.inf
    return 2.0 / (slack * slack * slack)


def reference_derivative(split, t, others, weighted):
    """``SplitCost.derivative`` as a sum of cost-method calls, link by
    link in the order of ``split.specs``."""
    b, g, slope = split.own_weight, 0.0, 0.0
    for i, spec in enumerate(split.specs):
        own, sgn = (t, 1.0) if i < split.n1 else (split.demand - t, -1.0)
        f = others[i] + own
        dt = spec.derivative(f)
        c = weighted[i] + b * own
        g += sgn * (b * spec.value(f) + c * dt)
        slope += 2.0 * b * dt + c * curvature(spec, f)
    return g, slope


def outcome(fn, *args):
    """``fn(*args)`` as a tuple of floats, or the class of the error it
    raises: a slack whose square or cube underflows to zero divides by
    zero in the cost methods and in the table alike."""
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc)
    return out if isinstance(out, tuple) else (out,)


def same_outcome(a, b):
    """Equal floats by ``==``, NaN against NaN, or the same error."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


@st.composite
def split_tables(draw):
    """A ``SplitCost`` over a random mix of M/M/1 and affine links, or
    over affine or M/M/1 links alone, the other users' loads on them,
    and a split ``t`` inside the guard bracket, at an end of it or of
    ``[0, r]``, or putting an M/M/1 link at or past its capacity.  Loads
    and ``t`` may be zeros of either sign."""
    kind = draw(st.sampled_from(["mixed", "affine", "queue"]))
    specs = tuple(
        MM1Cost(draw(st.just(0.0) | st.floats(MIN_CAPACITY, 8.0)))
        if kind == "queue" or kind == "mixed" and draw(st.booleans()) else
        LinearCost(draw(st.floats(0.0, 3.0, allow_subnormal=False)),
                   draw(st.floats(0.0, 2.0)))
        for _ in range(draw(st.integers(1, 5))))
    n1 = draw(st.integers(0, len(specs)))
    r = draw(st.floats(0.0, 5.0))
    split = SplitCost(specs=specs, n1=n1, own_weight=draw(WEIGHTS),
                      demand=r)
    zero = st.sampled_from([0.0, -0.0])
    others = tuple(draw(zero | st.floats(0.0, 5.0)) for _ in specs)
    weighted = tuple(o * draw(WEIGHTS) for o in others)
    lo, hi = split.bracket(others)
    queues = [i for i, s in enumerate(specs) if isinstance(s, MM1Cost)]
    kind = draw(st.sampled_from(["inside", "end", "pole"]))
    if kind == "pole" and queues:
        i = draw(st.sampled_from(queues))
        own = specs[i].capacity - others[i] + draw(
            st.just(0.0) | st.floats(0.0, 2.0))
        t = own if i < n1 else r - own
    elif kind == "inside" and lo <= hi:
        t = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    else:
        t = draw(st.sampled_from([lo, hi, 0.0, -0.0, r]))
    return split, t, others, weighted


class TestSplitTable:
    """``SplitCost.derivative`` runs one loop over a table of link
    constants, with the float operations of the cost methods."""

    @settings(max_examples=500)
    @given(split_tables())
    # the three facts of the curvature, which the reference reads and
    # the table must match bit for bit: 0 on an affine link, 2 / s^3 on
    # an M/M/1 link (0.25 at slack 2), infinite at and past capacity
    @example((SplitCost(specs=(LinearCost(2.0, 1.0), MM1Cost(4.0)), n1=1,
                        own_weight=0.5, demand=3.0),
              1.0, (2.0, 0.0), (1.0, 0.0)))
    @example((SplitCost(specs=(MM1Cost(4.0), MM1Cost(4.0)), n1=1,
                        own_weight=1.0, demand=5.0),
              4.0, (0.0, 3.5), (0.0, 0.0)))
    # an infinite term; signed zeros everywhere
    @example((SplitCost(specs=(MM1Cost(2.0), LinearCost(1.0, 0.5)), n1=1,
                        own_weight=0.0, demand=1.0),
              -0.0, (2.0, -0.0), (0.0, -0.0)))
    @example((SplitCost(specs=(LinearCost(0.0), LinearCost(2.0)), n1=1,
                        own_weight=0.0, demand=1.0),
              0.0, (-0.0, 0.0), (-0.0, 0.0)))
    def test_table_matches_cost_methods(self, case):
        split, t, others, weighted = case
        for i, spec in enumerate(split.specs):
            f = others[i] + (t if i < split.n1 else split.demand - t)
            if isinstance(spec, LinearCost):
                assert curvature(spec, f) == 0.0
            elif spec.capacity - f <= 0.0:
                assert curvature(spec, f) == math.inf
            elif spec.capacity - f == 2.0:
                assert curvature(spec, f) == 0.25
        got = outcome(split.derivative, t, others, weighted)
        want = outcome(reference_derivative, split, t, others, weighted)
        assert same_outcome(got, want), (got, want)


def split_objective(split, t, others, weighted):
    """The user's operating cost at split ``t``, up to the terms that do
    not move: ``(b x + w) T(o + x)`` summed over the moving links."""
    b, acc = split.own_weight, 0.0
    for i, spec in enumerate(split.specs):
        own = t if i < split.n1 else split.demand - t
        acc += (b * own + weighted[i]) * spec.value(others[i] + own)
    return acc


@st.composite
def brackets(draw, r):
    """The whole of [0, r], a corner, an empty bracket or an inner one."""
    kind = draw(st.sampled_from(["whole", "corner", "empty", "inner"]))
    if kind == "whole":
        return 0.0, r
    if kind == "corner":
        end = draw(st.sampled_from([0.0, r]))
        return end, end
    a, b = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                max_size=2)))
    return (r * b, r * a) if kind == "empty" else (r * a, r * b)


@st.composite
def queue_pairs(draw):
    """One M/M/1 link on each path: the user's demand ``r`` fits on either
    link beside the other users, with slack down to ``CAPACITY_GUARD``."""
    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    r = draw(st.floats(0.01, 3.0))
    b = draw(share)
    cs = draw(st.floats(r + 2 * CAPACITY_GUARD, 8.0))
    cf = draw(st.floats(r + 2 * CAPACITY_GUARD, 8.0)
              | st.floats(-1e-3, 1e-3).map(lambda e: cs * (1 + e)))
    assume(cf >= r + 2 * CAPACITY_GUARD)
    others, weighted = [], []
    for c in (cs, cf):
        o = (c - r - CAPACITY_GUARD) * draw(share)
        others.append(o)
        weighted.append(o * draw(share))
    split = SplitCost(specs=(MM1Cost(cs), MM1Cost(cf)), n1=1, own_weight=b,
                      demand=r)
    return split, tuple(others), tuple(weighted), draw(brackets(r))


class TestSplitArgmin:
    @settings(max_examples=300)
    @given(queue_pairs())
    def test_queue_pair_root_matches_newton(self, case):
        split, others, weighted, (lo, hi) = case
        t = split.argmin(lo, hi, others, weighted)
        ref = newton_argmin(lambda t: split.derivative(t, others, weighted),
                            lo, hi)
        if hi <= lo:
            assert t == lo
            return
        assert lo <= t <= hi
        r = split.demand
        if abs(t - ref) <= 1e-12 * max(1.0, r):
            return
        cost = split_objective(split, t, others, weighted)
        assert cost <= (split_objective(split, ref, others, weighted)
                        + 1e-12 * max(1.0, abs(cost)))

    def test_flat_pair_returns_lo(self):
        # b = 0 and nobody else weighed: h_s = h_f = 0, every split costs 0
        split = SplitCost(specs=(MM1Cost(3.0), MM1Cost(2.0)), n1=1,
                          own_weight=0.0, demand=1.0)
        for lo, hi in ((0.0, 1.0), (0.25, 0.75), (1.0, 1.0)):
            assert split.argmin(lo, hi, (0.5, 0.3), (0.0, 0.0)) == lo

    def test_pair_root_is_the_square_root_split(self):
        # equal capacities and loads, b = 1: the split is r / 2
        split = SplitCost(specs=(MM1Cost(4.0), MM1Cost(4.0)), n1=1,
                          own_weight=1.0, demand=1.0)
        assert split.argmin(0.0, 1.0, (1.0, 1.0), (0.0, 0.0)) == 0.5

    @settings(max_examples=200)
    @given(st.lists(st.floats(0.0, 3.0, allow_subnormal=False),
                    min_size=6, max_size=6),
           st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           st.floats(0.0, 1.0), st.floats(0.01, 2.0), brackets(1.0))
    def test_affine_argmin_is_the_line_zero(self, ab, loads, b, r, bracket):
        split = SplitCost(specs=tuple(LinearCost(ab[2 * i], ab[2 * i + 1])
                                      for i in range(3)),
                          n1=2, own_weight=b, demand=r)
        others, weighted = loads[:3], [o * f for o, f in zip(loads[:3],
                                                             loads[3:])]
        lo, hi = r * bracket[0], r * bracket[1]
        # the line's zero as the two-path best response took it before
        # the argmin moved into SplitCost
        c, slope = split.line(others, weighted)
        if hi <= lo or c + slope * lo >= 0.0:
            want = lo
        elif c + slope * hi <= 0.0:
            want = hi
        else:
            want = min(max(-c / slope, lo), hi)
        assert split.argmin(lo, hi, others, weighted) == want


@st.composite
def one_link_levels(draw):
    """A one-path ``SplitCost`` on one M/M/1 link or one affine link with
    ``a b > 0``, the other users' loads on it, its top and a level
    ``lam`` strictly between its marginals at 0 and at the top.

    Near an M/M/1 pole one float step of the load moves the marginal by
    about ``2 eps C / slack`` relative, so the level's root keeps at
    least 1 % of the capacity free: the link runs up to 99 % full."""
    r = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        b = draw(WEIGHTS)
        cap = draw(st.floats(0.5, 8.0))
        o = cap * draw(st.floats(0.0, 0.9))
        w = o * draw(WEIGHTS)
        u = cap - o
        h = b * u + w
        assume(h > 1e-3)
        # the root's slack: from the whole room down to a tenth of it
        lam = h / (u * draw(st.floats(0.1, 1.0))) ** 2
        spec = MM1Cost(cap)
    else:
        b = draw(st.just(1.0) | st.floats(0.05, 1.0))
        spec = LinearCost(draw(st.floats(0.05, 3.0)), draw(st.floats(0.0, 2.0)))
        o = draw(st.floats(0.0, 1.0))
        w = o * draw(WEIGHTS)
        lam = None
    path = SplitCost(specs=(spec,), n1=1, own_weight=b, demand=r)
    others, weighted = (o,), (w,)
    top = max(path.bracket(others)[1], 0.0)
    m0 = path.derivative(0.0, others, weighted)[0]
    mt = path.derivative(top, others, weighted)[0]
    if lam is None:
        lam = m0 + draw(st.floats(0.0, 1.0)) * (mt - m0)
    assume(m0 < lam < mt)
    return path, others, weighted, top, lam


def bisect_level(path, lam, others, weighted, top):
    """The flow in ``[0, top]`` where the path's marginal crosses
    ``lam``, by plain bisection."""
    lo, hi = 0.0, top
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if path.derivative(mid, others, weighted)[0] < lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPathLevel:
    """``SplitCost.inverse``: the own flow at which a one-path marginal
    meets a level, in closed form on one M/M/1 or affine link."""

    @settings(max_examples=300)
    @given(one_link_levels())
    # a subnormal level: the marginal one float step below the root reads
    # 2e-323, one subnormal step above lam, and no split does better
    @example((SplitCost(specs=(LinearCost(0.796875, 0.0),), n1=1,
                        own_weight=0.25, demand=7.0),
              (0.0,), (0.0,), 7.0, 1.5e-323))
    def test_level_brackets_lam(self, case):
        path, others, weighted, top, lam = case
        x, slope = path.inverse(others, weighted, top)(lam)
        assert 0.0 <= x <= top
        below = path.derivative(math.nextafter(x, -math.inf), others,
                                weighted)[0]
        above = path.derivative(math.nextafter(x, math.inf), others,
                                weighted)[0]
        # ulp(lam) is about 2.2e-16 of a normal lam, so it only matters
        # at subnormal levels, where one step of the marginal exceeds
        # the relative slack
        assert below <= lam * (1 + 1e-12) + math.ulp(lam)
        assert above >= lam * (1 - 1e-12) - math.ulp(lam)
        assert slope == pytest.approx(
            path.derivative(x, others, weighted)[1], rel=1e-12)

    @settings(max_examples=100)
    @given(WEIGHTS, st.just(0.0) | st.floats(0.01, 0.9), WEIGHTS,
           st.floats(0.0, 1.0))
    def test_series_path_takes_newton(self, b, load, share, q):
        # an M/M/1 link in series with an affine one has no closed form
        path = SplitCost(specs=(MM1Cost(3.0), LinearCost(1.0, 0.2)), n1=2,
                         own_weight=b, demand=2.0)
        others = (3.0 * load, load)
        weighted = (others[0] * share, others[1] * share)
        top = path.bracket(others)[1]
        m0 = path.derivative(0.0, others, weighted)[0]
        mt = path.derivative(top, others, weighted)[0]
        lam = m0 + q * (mt - m0)
        assume(m0 < lam < mt)
        calls = []

        def counted(*args):
            calls.append(args)
            return newton_argmin(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(costs, "newton_argmin", counted)
            x, slope = path.inverse(others, weighted, top)(lam)
        assert len(calls) == 1
        assert x == pytest.approx(
            bisect_level(path, lam, others, weighted, top), abs=1e-12)
        assert slope == path.derivative(x, others, weighted)[1]


class TestSplitGuard:
    """``SplitCost.bracket`` and a pair's ``pair_argmin``: ``t`` on the
    second path, ``r - t`` on the first, each M/M/1 link kept
    ``CAPACITY_GUARD`` below its capacity."""

    g = CAPACITY_GUARD

    def test_second_path_queue_caps_from_above(self):
        split = SplitCost(specs=(MM1Cost(2.0), LinearCost(1.0),
                                 LinearCost(0.5, 1.0)),
                          n1=2, own_weight=0.7, demand=1.5)
        assert split.bracket((0.8, 0.1, 0.3)) == (0.0, 2.0 - 0.8 - self.g)
        # room for the whole demand: the bracket is [0, r]
        assert split.bracket((0.2, 0.1, 0.3)) == (0.0, 1.5)

    def test_first_path_queue_caps_from_below(self):
        split = SplitCost(specs=(LinearCost(1.0), MM1Cost(2.0),
                                 LinearCost(0.5)),
                          n1=1, own_weight=0.7, demand=1.5)
        assert split.bracket((0.3, 1.0, 0.2)) == (
            1.5 - (2.0 - 1.0) + self.g, 1.5)

    def test_queues_on_both_paths_take_the_tightest(self):
        split = SplitCost(specs=(MM1Cost(3.0), MM1Cost(2.5), MM1Cost(2.0),
                                 MM1Cost(4.0)),
                          n1=2, own_weight=1.0, demand=1.5)
        lo, hi = split.bracket((2.0, 1.2, 1.0, 3.2))
        assert hi == min(3.0 - 2.0 - self.g, 2.5 - 1.2 - self.g)
        assert lo == max(1.5 - (2.0 - 1.0) + self.g,
                         1.5 - (4.0 - 3.2) + self.g)

    def test_shared_queue_is_left_to_the_caller(self):
        # paths (l1, l3) and (l2, l3) share the queue l3: the split's
        # bracket covers l1 and l2 only, and the two-path user saturates
        # l3 whatever the split
        net = build_network([1, 2, 3], [
            ("l1", 1, 2, MM1Cost(2.0)), ("l2", 1, 2, MM1Cost(3.0)),
            ("l3", 2, 3, MM1Cost(1.5))])
        game = make_game(net, [UserSpec(1, 1, 3, 1.0)], [0.0])
        tp = game.two_path[0]
        assert tp.caps == ((2, 1.5),)
        assert tp.split.bracket((2.5, 1.5, 0.0)) == (
            1.0 - (2.0 - 1.5) + self.g, 3.0 - 2.5 - self.g)
        assert tp.split.bracket((2.5, 1.5, 9.0)) == \
            tp.split.bracket((2.5, 1.5, 0.0))
        pair = nash._guarded_split(game, 0, tp, (0.5, 0.4, 0.0),
                                   (0.0, 0.0, 0.0))
        assert sum(pair) == pytest.approx(1.0)
        with pytest.raises(SolverError, match="saturates link 'l3'"):
            nash._guarded_split(game, 0, tp, (0.5, 0.4, 0.6),
                                (0.0, 0.0, 0.0))

    def pair(self, r=1.0):
        return SplitCost(specs=(MM1Cost(3.0), MM1Cost(2.0)), n1=1,
                         own_weight=0.6, demand=r)

    def test_open_bracket_takes_the_argmin(self):
        split = self.pair()
        others, weighted = (1.0, 0.5), (0.2, 0.1)
        lo, hi = split.bracket(others)
        assert lo < hi
        assert split.pair_argmin(*others, *weighted) == (
            split.argmin(lo, hi, others, weighted), True)

    def test_full_second_path_sends_nothing_along_it(self):
        assert self.pair().pair_argmin(3.0, 0.5, 0.0, 0.0) == (
            0.0, True)

    def test_full_first_path_sends_everything_along_the_second(self):
        assert self.pair().pair_argmin(1.0, 2.5, 0.0, 0.0) == (
            1.0, True)

    def test_neither_path_fits(self):
        # rooms 0.5 and 0.4 cannot carry 1: the second path is filled to
        # its guard and the first stays over its own
        t, fits = self.pair().pair_argmin(2.5, 1.6, 0.0, 0.0)
        assert not fits
        assert t == 3.0 - 2.5 - self.g
        assert guard_fill(1.0 - (2.0 - 1.6) + self.g, t, 1.0) == (t, False)


def pair_split_steps(caps, r, b, others, weighted, bounds=None):
    """``(t, fits)`` of a split over one M/M/1 link on each path, by the
    steps of ``bracket`` and then ``guard_fill`` or ``argmin``'s end
    tests and square-root split, written out in their order: the second
    path's capacity and load first.  Given ``bounds``, ``argmin`` alone
    runs on them."""
    if bounds is None:
        lo, hi = 0.0, r
        hi = min(hi, (caps[0] - others[0]) - CAPACITY_GUARD)
        lo = max(lo, r - (caps[1] - others[1]) + CAPACITY_GUARD)
        if lo > hi:
            t = max(hi, 0.0)
            return t, t >= r or t >= lo
    else:
        lo, hi = bounds
    if hi <= lo:
        return lo, True
    us = caps[0] - others[0]
    uf = caps[1] - others[1]
    hs = b * us + weighted[0]
    hf = b * uf + weighted[1]
    vf = uf - r
    s, f = us - lo, vf + lo
    if hs / (s * s) - hf / (f * f) >= 0.0:
        return lo, True
    s, f = us - hi, vf + hi
    if hs / (s * s) - hf / (f * f) <= 0.0:
        return hi, True
    rs, rf = math.sqrt(hs), math.sqrt(hf)
    t = 0.5 * (us - vf) + 0.5 * (us + vf) * (rf - rs) / (rs + rf)
    return min(max(t, lo), hi), True


@st.composite
def pair_loads(draw):
    """Two M/M/1 links, the second path's first, with the other users'
    loads anywhere from empty to past capacity, so that guard brackets
    come out open, a single point, or empty."""
    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    r = draw(st.floats(0.0, 3.0))
    b = draw(share)
    # one link in ten is absent (capacity 0)
    cap = st.tuples(st.integers(0, 9), st.floats(0.5, 8.0)).map(
        lambda kc: kc[1] if kc[0] else 0.0)
    cs = draw(cap)
    cf = draw(cap | st.floats(-1e-3, 1e-3).map(lambda e: cs * (1 + e)))
    others, weighted = [], []
    for c, room in ((cs, r - CAPACITY_GUARD), (cf, CAPACITY_GUARD)):
        # at capacity, past it, at a guard end, or (twice as often) a
        # share of it
        part = st.floats(0.0, 1.0).map(lambda u: c * u)
        o = draw(st.sampled_from([c, c + 0.5, c - room, c - r - room])
                 | part | part)
        others.append(max(o, 0.0))
        weighted.append(others[-1] * draw(share))
    split = SplitCost(specs=(MM1Cost(cs), MM1Cost(cf)), n1=1, own_weight=b,
                      demand=r)
    return split, (cs, cf), tuple(others), tuple(weighted)


def same_split(got, want):
    """Equal value, sign of zero and ``fits``."""
    return (got == want
            and math.copysign(1.0, got[0]) == math.copysign(1.0, want[0]))


class TestPairArgmin:
    """``SplitCost.pair_argmin`` does ``bracket``'s, ``guard_fill``'s and
    ``argmin``'s float operations on a pair, in their order."""

    @settings(max_examples=1000)
    @given(pair_loads())
    @example((SplitCost(specs=(MM1Cost(3.0), MM1Cost(2.0)), n1=1,
                        own_weight=0.6, demand=1.0), (3.0, 2.0),
              (2.5, 1.6), (0.0, 0.0)))
    def test_matches_bracket_then_argmin(self, case):
        split, caps, others, weighted = case
        r, b = split.demand, split.own_weight
        want = pair_split_steps(caps, r, b, others, weighted)
        assert same_split(split.pair_argmin(*others, *weighted), want)

    @settings(max_examples=300)
    @given(queue_pairs())
    def test_argmin_on_a_bracket(self, case):
        split, others, weighted, bounds = case
        caps = tuple(spec.capacity for spec in split.specs)
        want = pair_split_steps(caps, split.demand, split.own_weight,
                                others, weighted, bounds)
        assert same_split((split.argmin(*bounds, others, weighted), True),
                          want)


class TestGuardCorners:
    """The mixed model's group and mass, on an empty bracket, land where
    an atomic two-path user on the same two queues lands."""

    @staticmethod
    def atomic(caps, loads, demand):
        """The second-path flow of a selfish user of ``demand`` on
        parallel queues l1 and l2 (the second path) beside ``loads``, or
        None when it has no feasible split."""
        game = make_game(parallel_net([MM1Cost(c) for c in caps]),
                         [UserSpec(1, 1, 2, demand)], [0.0])
        tp = game.two_path[0]
        assert tp.links == (1, 0)
        try:
            return nash._guarded_split(game, 0, tp, (loads[1], loads[0]),
                                       (0.0, 0.0))[1]
        except SolverError:
            return None

    @pytest.mark.parametrize("scenario, w, want", [
        (MixedScenario(2.0, 3.0, 1.0, 2.5, 0.3), 0.0, 0.0),
        (MixedScenario(3.0, 2.0, 1.0, 2.5, 0.3), 2.2, 1.0)],
        ids=["link-one-full", "link-two-full"])
    def test_group(self, scenario, w, want):
        # the group's split goes on link one, its SplitCost's second path
        mass_one = scenario.mass_demand - w
        lo, hi = scenario.split.bracket((mass_one, w))
        assert lo > hi
        x = mixed._group_response(scenario, w)
        assert x == want
        assert x == self.atomic(
            (scenario.capacity_two, scenario.capacity_one), (w, mass_one),
            scenario.group_demand)

    @pytest.mark.parametrize("caps, bases, want", [
        ((1.0, 5.0), (1.2, 0.3), 0.5),
        ((5.0, 1.0), (0.3, 1.2), 0.0),
        ((2.0, 2.0), (1.5, 1.5), None)],
        ids=["link-one-full", "link-two-full", "neither"])
    def test_mass(self, caps, bases, want):
        mass = 0.5 if want is not None else 1.0
        try:
            w = wardrop_split(MM1Cost(caps[0]), MM1Cost(caps[1]), *bases,
                              mass)
        except InfeasibleError:
            w = None
        assert w == want
        assert w == self.atomic(caps, bases, mass)


class TestCooperationProfile:
    def test_from_alphas_splits_weight_evenly(self):
        prof = CooperationProfile.from_alphas((1, 2, 3), [0.6, 0.0, 1.0])
        assert prof.rows[0] == pytest.approx((0.4, 0.3, 0.3))
        assert prof.rows[1] == pytest.approx((0.0, 1.0, 0.0))
        assert prof.rows[2] == pytest.approx((0.5, 0.5, 0.0))

    def test_alpha_of_recovers_degree(self):
        prof = CooperationProfile.from_alphas((1, 2), [0.25, 0.75])
        assert prof.alpha_of(0) == pytest.approx(0.25)
        assert prof.alpha_of(1) == pytest.approx(0.75)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ConfigError):
            CooperationProfile(user_ids=(1, 2),
                               rows=((0.5, 0.6), (0.0, 1.0)))
        with pytest.raises(ConfigError):
            CooperationProfile(user_ids=(1, 2),
                               rows=((-0.1, 1.1), (0.0, 1.0)))

    def test_degree_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            CooperationProfile.from_alphas((1, 2), [1.2, 0.0])

    def test_selfish_profile_is_identity(self):
        prof = selfish(3)
        for i, row in enumerate(prof.rows):
            assert row[i] == 1.0
            assert sum(row) == 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5))
    def test_from_alphas_always_stochastic(self, alphas):
        prof = CooperationProfile.from_alphas(
            tuple(range(1, len(alphas) + 1)), alphas)
        for i, row in enumerate(prof.rows):
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            assert prof.alpha_of(i) == pytest.approx(alphas[i], abs=1e-12)


class TestUserCosts:
    def test_user_cost_sums_link_terms(self):
        net = parallel_net([LinearCost(1.0), LinearCost(0.0, 0.5)])
        prof = parallel_profile(net, [[0.25, 0.75], [0.5, 0.5]])
        raws, _ = priced(net, prof, selfish(2))
        # link 1 carries 0.75 total, link 2 is constant
        assert raws == pytest.approx(
            (0.25 * 0.75 + 0.75 * 0.5, 0.5 * 0.75 + 0.5 * 0.5))

    def test_zero_flow_on_saturated_link_costs_nothing(self):
        net = parallel_net([MM1Cost(1.0), MM1Cost(10.0)])
        prof = parallel_profile(net, [[1.0, 0.0], [0.0, 2.0]])
        raws, _ = priced(net, prof, selfish(2))
        # 0 * inf counts as 0; positive flow on the full link is infinite
        assert raws[0] == math.inf
        assert raws[1] == pytest.approx(2.0 / 8.0)

    def test_infinite_cost_propagates(self):
        net = parallel_net([MM1Cost(1.0), MM1Cost(10.0)])
        prof = parallel_profile(net, [[1.0, 0.0], [0.0, 2.0]])
        coop = CooperationProfile.from_alphas((1, 2), [0.0, 0.5])
        _, ops = priced(net, prof, coop)
        # user 2 weighs the infinite cost of user 1; user 1 weighs nobody
        assert ops == (math.inf, math.inf)
        _, ops = priced(net, prof, selfish(2))
        assert ops[1] == pytest.approx(2.0 / 8.0)
        assert marginal(net, prof, selfish(2), 2, "l1") == math.inf
        assert marginal(net, prof, selfish(2), 2, "l2") < math.inf

    def test_selfish_operating_cost_equals_raw(self):
        net = parallel_net([LinearCost(2.0), MM1Cost(5.0)])
        prof = parallel_profile(net, [[0.3, 0.7], [1.0, 0.5]])
        raws, ops = priced(net, prof, selfish(2))
        assert ops == pytest.approx(raws)

    def test_operating_cost_blends_users(self):
        net = parallel_net([LinearCost(1.0), LinearCost(0.0, 0.5)])
        prof = parallel_profile(net, [[0.25, 0.75], [0.5, 0.5]])
        coop = CooperationProfile.from_alphas((1, 2), [0.4, 0.0])
        (j1, j2), ops = priced(net, prof, coop)
        assert ops[0] == pytest.approx(0.6 * j1 + 0.4 * j2)
        assert ops[1] == pytest.approx(j2)

    def test_marginal_is_weighted_formula(self):
        # b_i T_l + (sum_k b_k f_l^k) T_l' on each link, summed on a path
        net = parallel_net([MM1Cost(8.0), LinearCost(1.5, 0.2)])
        prof = parallel_profile(net, [[0.4, 0.6], [1.0, 0.3]])
        coop = CooperationProfile.from_alphas((1, 2), [0.3, 0.0])
        f1 = 1.4
        want = 0.7 / (8.0 - f1) + (0.7 * 0.4 + 0.3 * 1.0) / (8.0 - f1) ** 2
        assert marginal(net, prof, coop, 1, "l1") == \
            pytest.approx(want, rel=1e-12)
        want = 1.5 * 0.9 + 0.2 + 1.0 * 0.3 * 1.5
        assert marginal(net, prof, coop, 2, "l2") == \
            pytest.approx(want, rel=1e-12)

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.01, 1.5), min_size=2, max_size=2),
           st.lists(st.floats(0.01, 1.5), min_size=2, max_size=2),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_marginal_matches_finite_difference(self, r1, r2, a1, a2):
        net = parallel_net([MM1Cost(8.0), LinearCost(1.5, 0.2)])
        coop = CooperationProfile.from_alphas((1, 2), [a1, a2])
        rows = [list(r1), list(r2)]
        h = 1e-6

        def objective(uid, link, flow):
            trial = [list(r) for r in rows]
            trial[uid - 1][link] = flow
            prof = parallel_profile(net, trial)
            return priced(net, prof, coop)[1][uid - 1]

        prof = parallel_profile(net, rows)
        for uid in (1, 2):
            for li, lid in enumerate(("l1", "l2")):
                base = rows[uid - 1][li]
                fd = (objective(uid, li, base + h)
                      - objective(uid, li, base - h)) / (2 * h)
                assert marginal(net, prof, coop, uid, lid) == \
                    pytest.approx(fd, rel=1e-4, abs=1e-4)
