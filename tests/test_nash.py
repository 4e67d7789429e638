"""Solver tests against instances that admit pencil-and-paper solutions.

The linear two-origin instance used throughout: direct links cost their
own flow, transfer links cost a flat 0.5, both demands are 1.  Writing x
and y for the users' transfer-path flows, the costs are

    J1 = 1 - 0.5 x + y + 2 x^2 - 2 x y
    J2 = 1 + x - 0.5 y - 2 x y + 2 y^2

so a selfish user 2 always answers y = 0.125 + 0.5 x, and when only user
1 cooperates at degree a the interior fixed point sits at
x = 0.75 (1 - 2a) / (3 - 4a) for a < 0.5.
"""

import dataclasses
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cooproute import (LinearCost, MM1Cost, assemble_profile, br_dynamics,
                       cli, costs, get_preset, make_game, multistart_nash,
                       nash, netmodel, verify_nash)
from cooproute.costs import (CAPACITY_GUARD, CooperationProfile, SplitCost,
                             deviation_cost, path_marginals, user_costs,
                             weighted_cost)
from cooproute.errors import ConfigError, InfeasibleError, SolverError
from cooproute.experiments import alpha_sweep, parameter_sweep
from cooproute.nash import _best_response, _state_loads, profile_from_state
from cooproute.netmodel import UserSpec, build_network
from cooproute.search import argmin_by_derivative, grid, scan_sign_changes

# The benchmark's exact oracles, which import nothing from cooproute.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402


def load_balancing_game(latencies, demands, alphas):
    # users 1 and 2 go from nodes 1 and 2 to node 3, directly or across
    net = build_network([1, 2, 3], [
        ("l1", 1, 3, latencies[0]),
        ("l2", 2, 3, latencies[1]),
        ("l3", 1, 2, latencies[2]),
        ("l4", 2, 1, latencies[3]),
    ])
    users = [UserSpec(1, 1, 3, demands[0]), UserSpec(2, 2, 3, demands[1])]
    return make_game(net, users, alphas)


def linear_two_origin(alphas):
    return load_balancing_game(
        [LinearCost(1.0), LinearCost(1.0), LinearCost(0.0, 0.5),
         LinearCost(0.0, 0.5)], [1.0, 1.0], alphas)


def composition_scan(game):
    """Candidate fixed points of two two-path users' best-response
    composition, as path flows: each sign change of ``br(br(x)) - x`` on
    a grid of 801 flows, bisected, in both user orders.  A grid point or
    bisection step whose best response raises ``SolverError`` reads as no
    sign change.  It is the reference that the paired map is checked
    against."""
    r1, r2 = game.demands

    def br_first(y):
        return _best_response(game, [[r1, 0.0], [r2 - y, y]], 0)[1]

    def br_second(x):
        return _best_response(game, [[r1 - x, x], [r2, 0.0]], 1)[1]

    def gap(outer, inner):
        def f(x):
            try:
                return outer(inner(x)) - x
            except SolverError:
                return math.nan
        return f

    candidates = []
    # Both orders are needed: a user at alpha 1 can answer from corner to
    # corner, so when it answers second the forward candidate
    # y = br_second(x) lands on a corner and fails verification; only the
    # reverse scan, on that user's own coordinate, finds the point.
    for outer, inner, r, flip in ((br_first, br_second, r1, False),
                                  (br_second, br_first, r2, True)):
        f, xs = gap(outer, inner), grid(r, 801)
        for x in scan_sign_changes(f, xs, [f(x) for x in xs]):
            try:
                y = inner(x)
            except SolverError:
                continue
            if flip:
                x, y = y, x
            candidates.append(((r1 - x, x), (r2 - y, y)))
    return candidates


def parallel_game(costs, demands, alphas):
    links = [(f"l{i + 1}", 1, 2, c) for i, c in enumerate(costs)]
    net = build_network([1, 2], links)
    users = [UserSpec(i + 1, 1, 2, r) for i, r in enumerate(demands)]
    return make_game(net, users, alphas)


BRAESS_LINKS = ("sa", "sb", "ab", "at", "bt")


def braess_game(latencies, demands, alphas):
    # every user goes from s to t on s-a-b-t, s-a-t or s-b-t; the first
    # shares sa with the second and bt with the third
    net = build_network(["s", "a", "b", "t"], [
        (lid, lid[0], lid[1], c) for lid, c in zip(BRAESS_LINKS, latencies)])
    users = [UserSpec(i + 1, "s", "t", r) for i, r in enumerate(demands)]
    return make_game(net, users, alphas)


def edge_braess_game():
    # sa and bt cost f, sb and at 1, ab 0.1: the optimum leaves s-a-b-t
    # empty (its marginal is 2.1 against 2.0 at (0, 0.5, 0.5))
    return braess_game([LinearCost(1.0), LinearCost(0.0, 1.0),
                        LinearCost(0.0, 0.1), LinearCost(0.0, 1.0),
                        LinearCost(1.0)], [1.0], [0.0])


def walked_loads(game, state, ui):
    """Link totals of every user but ``ui`` and those users' flows weighted
    by ``ui``'s cooperation row, summed path by path in user order: the
    reference for ``_state_loads``."""
    m = len(game.net.links)
    row = game.coop.rows[ui]
    totals = [0.0] * m
    weighted = [0.0] * m
    for k, paths in enumerate(game.paths.paths):
        if k == ui:
            continue
        for links_p, v in zip(paths, state[k]):
            if v == 0.0:
                continue
            for li in links_p:
                totals[li] += v
                if row[k]:
                    weighted[li] += row[k] * v
    return totals, weighted


def priced(game, prof):
    """Raw and operating costs of every user at the profile."""
    raws = user_costs(game.net.links, prof.user_link_flows,
                      prof.total_link_flows)
    return raws, [weighted_cost(row, raws) for row in game.coop.rows]


def transfer_flows(eq):
    return eq.profile.path_flows[0][1], eq.profile.path_flows[1][1]


def find_near(eqs, x, y, tol=1e-6):
    for eq in eqs:
        fx, fy = transfer_flows(eq)
        if abs(fx - x) <= tol and abs(fy - y) <= tol:
            return eq
    return None


class TestBestResponse:
    def test_selfish_response_line(self):
        game = linear_two_origin((0.0, 0.0))
        for x in (0.0, 0.2, 0.5, 0.8, 1.0):
            state = [[1.0 - x, x], [1.0, 0.0]]
            br = _best_response(game, state, 1)
            assert br[1] == pytest.approx(0.125 + 0.5 * x, abs=1e-9)

    def test_response_respects_capacity(self):
        game = parallel_game([MM1Cost(0.6), MM1Cost(4.0)], [1.0], [0.0])
        state = [[0.5, 0.5]]
        br = _best_response(game, state, 0)
        assert br[0] < 0.6
        assert sum(br) == pytest.approx(1.0)

    def test_unusable_path_gets_nothing(self):
        game = parallel_game([MM1Cost(4.0), MM1Cost(0.0)], [1.0], [0.0])
        br = _best_response(game, [[0.5, 0.5]], 0)
        assert br == (1.0, 0.0)


@st.composite
def best_response_cases(draw):
    """A two-user load-balancing game, a responding user, and a split of
    the other user.  M/M/1 capacities sit just above the demand that
    flows through the link, so the guard bracket binds."""
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    if draw(st.booleans()):
        latencies = [LinearCost(draw(st.floats(0.0, 3.0,
                                               allow_subnormal=False)),
                                draw(st.floats(0.0, 2.0)))
                     for _ in range(4)]
    else:
        over = draw(st.lists(st.floats(1e-3, 1.5), min_size=4, max_size=4))
        latencies = [MM1Cost(demands[i % 2] + e) for i, e in enumerate(over)]
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    ui = draw(st.integers(0, 1))
    share = draw(st.floats(0.0, 1.0))
    game = load_balancing_game(latencies, demands, alphas)
    r_other = demands[1 - ui]
    state = [None, None]
    state[ui] = [demands[ui], 0.0]
    state[1 - ui] = [r_other - share * r_other, share * r_other]
    return game, ui, state


def guard_bracket(game, ui, others):
    # second-path share t: M/M/1 links on one path only leave room
    # CAPACITY_GUARD short of their capacity
    p0, p1 = game.paths.paths[ui]
    r = game.demands[ui]
    lo, hi = 0.0, r
    for li in p1:
        c = game.net.links[li].cost
        if li not in p0 and isinstance(c, MM1Cost):
            hi = min(hi, c.capacity - others[li] - CAPACITY_GUARD)
    for li in p0:
        c = game.net.links[li].cost
        if li not in p1 and isinstance(c, MM1Cost):
            lo = max(lo, r - (c.capacity - others[li] - CAPACITY_GUARD))
    return lo, hi


@settings(max_examples=40, deadline=None)
@given(best_response_cases())
# user 1 weighs only user 2's cost, and its second path fills link l2 at
# split 1: a split outside the guard bracket would do better by 2e-10
@example((load_balancing_game([MM1Cost(2.0), MM1Cost(1.0), MM1Cost(2.0),
                               MM1Cost(1.5)], [1.0, 0.5], [1.0, 0.0]),
          0, [[1.0, 0.0], [0.0, 0.5]]))
def test_exact_response_matches_bisection(case):
    game, ui, state = case
    r = game.demands[ui]
    paths = game.paths.paths[ui]
    own_weight = game.coop.rows[ui][ui]
    others, weighted = walked_loads(game, state, ui)

    def deriv(t):
        m = path_marginals(game.net.links, paths, own_weight, others,
                           weighted, [r - t, t])
        return m[1] - m[0]

    lo, hi = guard_bracket(game, ui, others)
    # an empty bracket sends everything down the open path, which
    # test_unusable_path_gets_nothing covers
    assume(lo <= hi)
    t_ref = argmin_by_derivative(deriv, lo, hi)
    br = _best_response(game, state, ui)
    assert sum(br) == pytest.approx(r, abs=1e-12)
    assert abs(br[1] - t_ref) <= 1e-9 * max(1.0, r)

    def cost(flows):
        trial = [list(s) for s in state]
        trial[ui] = list(flows)
        prof = assemble_profile(game.net, game.paths, trial, game.demands)
        return priced(game, prof)[1][ui]

    # the response is taken within the guard bracket, so the grid is too
    at_br = cost(br)
    grid_min = min(cost((r - t, t)) for t in (lo + (hi - lo) * i / 1000
                                              for i in range(1001)))
    assert at_br <= grid_min + 1e-12 * max(1.0, abs(at_br))


def simplex_grid(r, rooms, steps=100):
    """Every split of ``r`` over ``len(rooms)`` paths in multiples of
    ``r / steps`` that keeps each path's flow below its room."""
    ticks = [r * i / steps for i in range(steps + 1)]

    def splits(p, left):
        if p == len(rooms) - 1:
            return [(ticks[left],)] if ticks[left] < rooms[p] else []
        return [(ticks[i],) + rest for i in range(left + 1)
                if ticks[i] < rooms[p] for rest in splits(p + 1, left - i)]
    return splits(0, steps)


@st.composite
def disjoint_response_cases(draw):
    """One responding user on 3 or 4 parallel links beside one or two
    users of fixed random splits.  Links are affine or M/M/1; an M/M/1
    capacity sits just above the other users' load on it, so the guard
    bracket binds.  Some cases put alpha = 1 on affine links of one
    slope, where every path's marginal is flat."""
    k = draw(st.integers(3, 4))
    n = draw(st.integers(2, 3))
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    shares = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    state = [[demands[0]] + [0.0] * (k - 1)]
    for r in demands[1:]:
        w = draw(st.lists(shares, min_size=k, max_size=k))
        assume(sum(w) > 0)
        state.append([r * v / sum(w) for v in w])
    loads = [sum(s[l] for s in state[1:]) for l in range(k)]
    if draw(st.booleans()):
        slope = draw(st.floats(0.0, 3.0, allow_subnormal=False))
        latencies = [LinearCost(slope, draw(st.floats(0.0, 2.0)))
                     for _ in range(k)]
        alpha = 1.0
    else:
        latencies = [MM1Cost(loads[l] + draw(st.floats(1e-3, 1.5)))
                     if draw(st.booleans()) else
                     LinearCost(draw(st.floats(0.0, 3.0,
                                               allow_subnormal=False)),
                                draw(st.floats(0.0, 2.0)))
                     for l in range(k)]
        alpha = draw(st.floats(0.0, 1.0))
    try:
        game = parallel_game(latencies, demands, [alpha] * n)
    except InfeasibleError:  # the capacities cannot hold all the demand
        reject()
    return game, state


@settings(max_examples=20, deadline=None)
@given(disjoint_response_cases())
def test_water_filling_response_is_optimal(case):
    game, state = case
    r = game.demands[0]
    paths = game.paths.paths[0]
    own_weight = game.coop.rows[0][0]
    others, weighted = walked_loads(game, state, 0)
    # a path's flow stays CAPACITY_GUARD below the room its M/M/1 link has
    rooms = [math.inf] * len(paths)
    for p, (li,) in enumerate(paths):
        c = game.net.links[li].cost
        if isinstance(c, MM1Cost):
            rooms[p] = c.capacity - others[li]
    tops = [min(r, room - CAPACITY_GUARD) for room in rooms]
    total_room = math.fsum(max(t, 0.0) for t in tops)
    assume(abs(total_room - r) > 1e-9)
    if total_room < r:
        with pytest.raises(SolverError):
            _best_response(game, state, 0)
        return
    br = _best_response(game, state, 0)
    assert math.fsum(br) == pytest.approx(r, abs=1e-12)
    assert all(0.0 <= x <= max(t, 0.0) for x, t in zip(br, tops))
    # No path with flow has a marginal above a path with room left, to the
    # flows' float resolution: near a capacity the marginal can move by
    # more than 1e-9 between neighbouring floats, so a path's flow is
    # nudged one float toward the side it is compared on.
    def marginals(flows):
        return path_marginals(game.net.links, paths, own_weight, others,
                              weighted, flows)

    up = marginals([math.nextafter(x, math.inf) for x in br])
    down = marginals([math.nextafter(x, 0.0) for x in br])
    lam = min(m for x, m, t in zip(br, up, tops) if x < t)
    for x, m in zip(br, down):
        if x > 0.0:
            assert m - lam <= 1e-9 * max(1.0, abs(lam))
    cost = deviation_cost(game.net.links, game.paths.paths, state,
                          game.coop.rows[0], 0)
    at_br = cost.price([br])[0]
    # splits that fill an M/M/1 link cost infinity; leave them out
    grid_min = min(cost.price(simplex_grid(r, rooms)), default=math.inf)
    assert at_br <= grid_min + 1e-12 * max(1.0, abs(at_br))


@st.composite
def load_cases(draw):
    """A two- or three-user game and a random state of it: two-path users
    on the load-balancing network, two-path or water-filling users on 2
    to 4 parallel links, or Braess users beside two-path users from s to
    b and from a to t."""
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["load-balancing", "parallel", "braess"]))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=n, max_size=n))
    demands = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    if kind == "load-balancing":
        n = 2
        game = load_balancing_game([LinearCost(1.0)] * 4, demands[:2],
                                   alphas[:2])
    elif kind == "parallel":
        k = draw(st.integers(2, 4))
        game = parallel_game([LinearCost(1.0)] * k, demands, alphas)
    else:
        ends = draw(st.lists(st.sampled_from([("s", "t"), ("s", "b"),
                                              ("a", "t")]),
                             min_size=n, max_size=n))
        net = build_network(["s", "a", "b", "t"], [
            (lid, lid[0], lid[1], LinearCost(1.0)) for lid in BRAESS_LINKS])
        game = make_game(net, [UserSpec(i + 1, s, t, r) for i, ((s, t), r)
                               in enumerate(zip(ends, demands))], alphas)
    state = [draw(st.lists(st.sampled_from([0.0]) | st.floats(0.0, 3.0),
                           min_size=len(paths), max_size=len(paths)))
             for paths in game.paths.paths]
    return game, state


@settings(max_examples=60, deadline=None)
@given(load_cases())
def test_state_loads_match_the_path_walk(case):
    # bit for bit: a two-path user reads its own links, any other user
    # every link
    game, state = case
    for ui, tp in enumerate(game.two_path):
        totals, weighted = walked_loads(game, state, ui)
        links = range(len(game.net.links)) if tp is None else tp.links
        assert _state_loads(game, state, ui) == (
            [totals[li] for li in links], [weighted[li] for li in links])


def full_state_cost(game, state, ui):
    """Operating cost of user ``ui`` from every user's link loads, summed
    path by path in user order."""
    m = len(game.net.links)
    loads, totals = [], [0.0] * m
    for paths, flows in zip(game.paths.paths, state):
        own = [0.0] * m
        for links_p, v in zip(paths, flows):
            if v == 0.0:
                continue
            for li in links_p:
                own[li] += v
                totals[li] += v
        loads.append(own)
    return weighted_cost(game.coop.rows[ui],
                         user_costs(game.net.links, loads, totals))


def link_sum_cost(game, state, ui):
    """Operating cost of user ``ui`` as ``deviation_cost`` states it, by
    plain loops in its order: the other users' loads path by path in
    user order, ``ui``'s own load over its covering paths in path order,
    then the constant and the link terms in link order."""
    links, row = game.net.links, game.coop.rows[ui]
    mine, m = game.paths.paths[ui], len(links)
    others, weighted = [0.0] * m, [0.0] * m
    for k, (paths, flows) in enumerate(zip(game.paths.paths, state)):
        if k == ui:
            continue
        own = [0.0] * m
        for links_p, v in zip(paths, flows):
            if v != 0.0:
                for li in links_p:
                    own[li] += v
                    others[li] += v
        if row[k]:
            for li in range(m):
                weighted[li] += row[k] * own[li]
    const, terms = 0.0, []
    for li, lk in enumerate(links):
        cover = [v for links_p, v in zip(mine, state[ui]) if li in links_p]
        y = 0.0
        for v in cover:
            y += v
        h = weighted[li] + row[ui] * y
        term = h * lk.cost.value(others[li] + y) if h else 0.0
        if cover:
            terms.append(term)
        else:
            const += term
    for term in terms:
        const += term
    return const


DEVIATION_GAMES = {
    "asym-cross-0": lambda: get_preset("braess-lb-asym").build_game(param=0.0),
    "asym-cross-0.5": lambda: get_preset("braess-lb-asym").build_game(
        param=0.5),
    "asym-cross-10": lambda: get_preset("braess-lb-asym").build_game(
        param=10.0),
    "sym-cross-10": lambda: get_preset("braess-lb-sym").build_game(
        param=10.0),
    "exp1": lambda: get_preset("exp1").build_game(alphas=(0.95, 0.0)),
    # user 1 puts weight 0 on user 2, whose flow fills l1: 0 * inf = 0
    "weight-0-on-full-link": lambda: parallel_game(
        [MM1Cost(1.0), LinearCost(1.0, 0.2)], [1.0, 1.0], [0.0, 0.5]),
    # both paths of each user share sa, so both of a user's flows load
    # that link, on top of the other user's
    "shared-first-hop": lambda: make_game(
        build_network(["s", "a", "t"], [
            ("sa", "s", "a", MM1Cost(4.0)),
            ("at1", "a", "t", LinearCost(1.0, 0.1)),
            ("at2", "a", "t", MM1Cost(1.2))]),
        [UserSpec(1, "s", "t", 1.0), UserSpec(2, "s", "t", 1.5)],
        [0.4, 0.7]),
    # two later users load both of user 1's links, user 2 sits between
    # one user ahead and one behind
    "three-users": lambda: parallel_game(
        [MM1Cost(2.5), LinearCost(1.0, 0.2)], [1.0, 0.8, 1.2],
        [0.3, 0.6, 0.9]),
}


@pytest.mark.parametrize("name", list(DEVIATION_GAMES))
def test_deviation_cost_equals_full_state_cost(name):
    # the verifier's sweep recomputes only the deviating user's links; it
    # must price every split as the link sum, which is the full state's
    # cost up to the rounding of the loads (near an M/M/1 capacity a
    # one-ulp change in a load moves 1 / (C - f) by far more than an ulp)
    game = DEVIATION_GAMES[name]()
    g = nash.DEVIATION_GRID
    seen_inf = False
    for ui, r in enumerate(game.demands):
        for share in (0.0, 0.3, 1.0):
            # everyone else puts ``share`` of its demand on its second path
            state = [[d - share * d, share * d] for d in game.demands]
            state[ui] = [r, 0.0]
            splits = [(r - r * i / (g - 1), r * i / (g - 1))
                      for i in range(g)]
            cost = deviation_cost(game.net.links, game.paths.paths, state,
                                  game.coop.rows[ui], ui)
            for flows, got in zip(splits, cost.price(splits)):
                trial = [list(s) for s in state]
                trial[ui] = list(flows)
                assert got == link_sum_cost(game, trial, ui)
                # isclose holds for two infinities and for no other pair
                # with one infinity
                assert math.isclose(got, full_state_cost(game, trial, ui),
                                    rel_tol=1e-9)
                seen_inf |= got == math.inf
    if name in ("asym-cross-0", "weight-0-on-full-link", "shared-first-hop",
                "three-users"):
        assert seen_inf


@pytest.mark.parametrize("name", ["asym-cross-0", "shared-first-hop",
                                  "three-users"])
def test_a_split_costs_the_same_alone_and_in_the_sweep(name):
    # verify_nash compares the current split, priced alone, with the
    # 1,001 splits priced together: a point's cost must not depend on
    # the points priced beside it
    game = DEVIATION_GAMES[name]()
    for ui, r in enumerate(game.demands):
        state = [[0.7 * d, d - 0.7 * d] for d in game.demands]
        cost = deviation_cost(game.net.links, game.paths.paths, state,
                              game.coop.rows[ui], ui)
        splits = nash._deviation_splits(r)
        together = cost.price(splits)
        assert [cost.price([flows])[0] for flows in splits] == together
        if name == "asym-cross-0":
            # the crossing path's link has capacity 0
            assert math.inf in together


# A user from s to t has three paths, two of them through sa, one from
# a to t has two and one from s to a has one.
FORK_LINKS = (("sa", "s", "a"), ("at1", "a", "t"), ("at2", "a", "t"),
              ("st", "s", "t"))


@st.composite
def deviation_cases(draw):
    """Two games of one shape on the fork network, mixing affine and
    M/M/1 links, with different constants: 2 or 3 users, cooperation
    degrees of 0 and 1 among them (zero weights), a state and points for
    each user whose flows may fill an M/M/1 link."""
    n = draw(st.integers(2, 3))
    ends = draw(st.lists(st.sampled_from([("s", "t"), ("a", "t"),
                                          ("s", "a")]),
                         min_size=n, max_size=n))
    classes = draw(st.lists(st.sampled_from([LinearCost, MM1Cost]),
                            min_size=4, max_size=4))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0])
                           | st.floats(0.05, 0.95), min_size=n, max_size=n))
    games, caps = [], []
    for _ in range(2):
        latencies = [
            MM1Cost(draw(st.floats(0.5, 3.0))) if cls is MM1Cost else
            LinearCost(draw(st.floats(0.0, 2.0, allow_subnormal=False)),
                       draw(st.floats(0.0, 1.0)))
            for cls in classes]
        net = build_network(["s", "a", "t"], [
            (lid, a, b, c) for (lid, a, b), c in zip(FORK_LINKS, latencies)])
        caps += [c.capacity for c in latencies if isinstance(c, MM1Cost)]
        games.append(make_game(net, [UserSpec(i + 1, a, b, 0.1)
                                     for i, (a, b) in enumerate(ends)],
                               alphas))
        # the second game keeps the zero weights and draws the rest anew
        alphas = [a if a == 0.0 or a == 1.0 else draw(st.floats(0.05, 0.95))
                  for a in alphas]
    flow = st.sampled_from([0.0, *caps]) | st.floats(0.0, 3.0)
    width = [len(paths) for paths in games[0].paths.paths]
    state = [draw(st.lists(flow, min_size=w, max_size=w)) for w in width]
    points = [draw(st.lists(st.lists(flow, min_size=w, max_size=w),
                            min_size=1, max_size=8)) for w in width]
    return games, state, points


@settings(max_examples=100, deadline=None)
@given(deviation_cases())
def test_deviation_kernel_equals_full_state_cost(case):
    # the second game has the first one's shape, so it reuses the first
    # one's compiled kernel and must not price with any of its constants;
    # the drawn flows may fill a link, where rounding of the loads can
    # move the full state's cost far, so the link sum is the reference
    games, state, points = case
    for game in games:
        compiled = costs._kernel.cache_info().misses
        for ui, pts in enumerate(points):
            cost = deviation_cost(game.net.links, game.paths.paths, state,
                                  game.coop.rows[ui], ui)
            for flows, got in zip(pts, cost.price(pts)):
                trial = [list(s) for s in state]
                trial[ui] = list(flows)
                assert got == link_sum_cost(game, trial, ui)
    assert costs._kernel.cache_info().misses == compiled


def solve_recording_runs(game, monkeypatch):
    """``multistart_nash``'s result and every ``br_dynamics`` run it made."""
    runs = []
    dynamics = nash.br_dynamics

    def recorded(*args):
        runs.append(dynamics(*args))
        return runs[-1]

    monkeypatch.setattr(nash, "br_dynamics", recorded)
    return multistart_nash(game), runs


def three_link_game(alpha):
    # three users of demand 1 on l1 (M/M/1, capacity 3), l2 (f + 0.2)
    # and l3 (M/M/1, capacity 2.5), all at cooperation degree alpha
    return parallel_game([MM1Cost(3.0), LinearCost(1.0, 0.2), MM1Cost(2.5)],
                         [1.0, 1.0, 1.0], [alpha] * 3)


# Evaluations one solve makes: cost-method calls (``value`` and
# ``derivative`` of ``LinearCost`` and ``MM1Cost``), table rows of
# ``SplitCost.derivative``, and levels of the water-filling inverse
# (``SplitCost.inverse``).
#
# History, in cost-method calls.  When the exact best response came in,
# exp1 at (0.95, 0) and braess-lb-sym at capacity 10 made 48,208 value
# and 48 derivative calls, and 96,480, 48,318 and 48,270 curvature
# calls; with 60-step bisection the same solves made 284,759 value and
# 220,575 derivative calls, and 318,896 and 254,712.  The three-link
# game at alpha 0.3 made 11,990,442 value and 11,990,424 derivative
# calls over 64 trajectories with the conditional-gradient best
# response, before water-filling, and 219,787, 219,769 and 219,760
# while water-filling found each path's flow at a level by Newton's
# method, before its closed-form inverse, and 10,737, 10,719 and 10,710
# with a per-coordinate Aitken step, before the window fit of
# ``nash._extrapolate``.  The one-user Braess game of
# ``edge_braess_game`` took that loop 960 sweeps (58 s) on one
# trajectory; the pairwise exchange takes 2.  Before ``SplitCost`` read
# its table, the solves made 45 and 18, 2,824, 3,076 and 3,058,
# 4,281, 4,275 and 4,266, and 143 and 133 value, derivative and
# curvature calls, so the pins of exp1 and braess-lb-sym had gone stale
# by factors of over 1,000 and 30.  Now every table row and level counts.
# braess-lb-sym made 3,058 rows while ``SplitCost.cross`` walked the
# table a second time for the support pass, and Newton best responses
# were solved again on the same input, and 1,773 with the support pass,
# its row walks included, before the map's search replaced it.
SOLVE_WORK = {
    "exp1": {"value": 45, "derivative": 18, "rows": 0, "levels": 0},
    "braess-lb-sym": {"value": 46, "derivative": 18, "rows": 2_196,
                      "levels": 0},
    "parallel-3x3": {"value": 15, "derivative": 9, "rows": 4_266,
                     "levels": 11_930},
    "braess-edge": {"value": 143, "derivative": 133, "rows": 0,
                    "levels": 0},
}
SOLVE_GAMES = {
    "exp1": lambda: get_preset("exp1").build_game(alphas=(0.95, 0.0)),
    "braess-lb-sym": lambda: get_preset("braess-lb-sym").build_game(
        param=10.0),
    "parallel-3x3": lambda: three_link_game(0.3),
    "braess-edge": edge_braess_game,
}


def count_solve_work(game, monkeypatch):
    """``multistart_nash(game)`` and the evaluations it made: cost-method
    calls, table rows of ``SplitCost.derivative`` (a row per moving link)
    and levels of ``SplitCost.inverse``."""
    calls = dict.fromkeys(("value", "derivative", "rows", "levels"), 0)
    for cls in (LinearCost, MM1Cost):
        for meth in ("value", "derivative"):
            def counted(self, flow, _orig=getattr(cls, meth), _meth=meth):
                calls[_meth] += 1
                return _orig(self, flow)
            monkeypatch.setattr(cls, meth, counted)
    split_derivative, inverse = SplitCost.derivative, SplitCost.inverse

    def counted_derivative(self, t, others, weighted):
        calls["rows"] += len(self.specs)
        return split_derivative(self, t, others, weighted)

    def counted_inverse(self, others, weighted, top):
        level = inverse(self, others, weighted, top)

        def counted_level(lam):
            calls["levels"] += 1
            return level(lam)
        return counted_level

    monkeypatch.setattr(SplitCost, "derivative", counted_derivative)
    monkeypatch.setattr(SplitCost, "inverse", counted_inverse)
    return multistart_nash(game), calls


@pytest.mark.parametrize("preset", list(SOLVE_WORK))
def test_solve_work_stays_bounded(preset, monkeypatch):
    # wall time is too noisy to catch a slow fallback; evaluation counts
    # are not
    eqs, calls = count_solve_work(SOLVE_GAMES[preset](), monkeypatch)
    for key, measured in SOLVE_WORK[preset].items():
        assert calls[key] <= 2 * measured, key
    if preset == "parallel-3x3":
        # the first user's water-filling response ignores its own start,
        # so its 4 starts run as one trajectory each
        assert eqs.diagnostics["trajectories"] == 16
        assert sum(eq.basin_count for eq in eqs) == 64


# verify_nash and composition-scan calls of
# alpha_sweep(exp1, 0..1 step 0.05, vary="first"): 76 and 21 when every
# scan candidate was verified and every row scanned; 27 and 6 with
# merge-before-verify and the scan skipped on the 15 certified rows; 26
# and 1 with the support pass, whose index sum sent only the row at 0.9
# (an unused path at zero slack) to the fallback scan.  With the scan
# gone, verify_nash still ran 26 times: the scan's candidates at 0.9
# all fell in clusters that the pass and the dynamics had found.  The
# map verifies each of the 26 points once; at alpha 1, where user 1's
# own weight is 0, the split where user 2's answer crosses the middle
# root stands in for user 1's answer there.
SWEEP_WORK = {"verify_nash": 26}


def test_sweep_work_stays_bounded(monkeypatch):
    calls = dict.fromkeys(SWEEP_WORK, 0)
    for name in calls:
        def counted(*args, _orig=getattr(nash, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(nash, name, counted)
    table = alpha_sweep(get_preset("exp1"), [i / 20 for i in range(21)],
                        "first")
    assert [len(row.equilibria) for row in table.rows] == [1] * 18 + [2, 3, 3]
    for name, measured in SWEEP_WORK.items():
        assert calls[name] <= measured, name


# verify_nash calls of the continuum rows at alphas (0.5, 0.5), where
# every point is degenerate and no check closes the set: 813 (2.9 s, 813
# clusters) on exp4-feasible and 201 (201 clusters) on exp2 while a 2x2
# composition scan ran as the fallback and opened a cluster for each of
# its verified candidates on the continuum; 21 and 6 without it, one per
# support-pass root or dynamics cluster, and as many on the map, one per
# start that is a point of its own or takes the rest's basins.
CONTINUUM_WORK = {"exp4-feasible": 21, "exp2": 6}


@pytest.mark.parametrize("preset", list(CONTINUUM_WORK))
def test_continuum_rows_stay_small(preset, monkeypatch):
    calls = []

    def counted(game, profile):
        calls.append(profile)
        return verify_nash(game, profile)

    monkeypatch.setattr(nash, "verify_nash", counted)
    eqs = multistart_nash(get_preset(preset).build_game(alphas=(0.5, 0.5)))
    diag = eqs.diagnostics
    assert diag["scan_coverage"] == "none"
    assert diag["index_sum"] is None and diag["degenerate"] > 0
    assert all(eq.verified for eq in eqs)
    assert len(calls) <= CONTINUUM_WORK[preset]


# Deviation kernels compiled by exp1's 101-row vary="first" sweep (the
# exp1-alpha benchmark) and by the braess-lb-sym then braess-lb-asym
# parameter sweeps, which share every shape.  A cache key that held
# a constant would compile one kernel per verified profile.
KERNEL_WORK = {"exp1": 2, "braess-lb-sym": 2, "braess-lb-asym": 0}
# Trajectories the same sweeps run: 2,121, 441 and 441 from every start
# of the second user; 246, 105 and 46 once a bisection over ordered
# starts credited the starts between two that reach one cluster; none
# since the map credits every start of these paired games by the
# direction of its first step.  A paired game that falls back to the
# dynamics shows here.
TRAJECTORY_WORK = {"exp1": 0, "braess-lb-sym": 0, "braess-lb-asym": 0}
# Splits the deviation sweeps of the same sweeps price, block corners
# included: 244,244 and 148,148 (1,001 a sweep) when every split is
# priced, 48,086 and 13,532 when the support pass and the dynamics gave
# the points, and the same on the map.  Wall time is too noisy to show
# a bound that stops pruning.
DEVIATION_WORK = {"exp1": 48_086, "braess": 13_532}
# Newton best responses (``SplitCost.argmin`` off the line and the pair)
# that the two Braess parameter sweeps solve: 5,628 when every one asked
# for was solved, 3,435 once each solve kept them by exact input and
# found 2,193 of them again, with the dynamics and the support pass; the
# map asks for 3,536 and finds 465 of them again, and for 2,608 and
# finds 404 again once it skips the starts that a dropped piece decides.
# exp1's affine links need none.  Wall time is too noisy to show a lost
# reuse; the count is not.
RESPONSE_WORK = {"solved": 2_204, "asked": 2_608}
# Evaluations of the map (``diagnostics["sweeps"]``) that the braess-lb-asym
# parameter sweep and exp1's 101-row vary="first" sweep make: 562 and
# 4,205 with every start evaluated, 302 and 3,119 once the starts that a
# dropped piece decides are not.  Wall time is too noisy to show a search
# that stops dropping intervals; the count is not.
MAP_WORK = {"braess-lb-asym": 302, "exp1": 3_119}


def test_a_capped_search_keeps_the_clear_crossings(monkeypatch):
    # with no evaluation left for the exclusion search nothing is proved,
    # but each grid interval where g changes sign beyond FP_TOL still
    # holds a root: all three equilibria, with the basins of a full search
    game = get_preset("exp1").build_game(alphas=(0.95, 0.0))
    full = multistart_nash(game)
    monkeypatch.setattr(nash, "MAP_EVALS", 0)
    eqs = multistart_nash(game)
    diag = eqs.diagnostics
    assert diag["scan_coverage"] == "none"
    assert diag["sweeps"] < full.diagnostics["sweeps"]
    assert (diag["non_converged"], diag["failed_starts"]) == (0, 0)
    assert len(eqs) == len(full) == 3
    for eq, ref in zip(eqs, full):
        assert eq.verified and eq.basin_count == ref.basin_count
        assert transfer_flows(eq) == pytest.approx(transfer_flows(ref),
                                                   abs=1e-12)


def all_splits(*args):
    """``deviation_cost`` with the bound off: its sweep prices every
    split, as the reference of the bounded one."""
    return dataclasses.replace(deviation_cost(*args), monotone=False)


def test_deviation_kernels_compile_once_per_shape(monkeypatch):
    def compiled():
        return costs._kernel.cache_info().misses

    def trajectories(table):
        return sum(row.equilibria.diagnostics["trajectories"]
                   for row in table.rows)

    priced, checks = [0], []
    least_below = costs.DeviationCost.least_below

    def counted(cost, splits, bound):
        def price(points):
            priced[0] += len(points)
            return cost.price(points)
        return least_below(dataclasses.replace(cost, price=price), splits,
                           bound)

    def recorded(game, profile, _verify=nash.verify_nash):
        check = _verify(game, profile)
        checks.append((game, profile, repr(check)))
        return check

    solved = [0]
    argmin = SplitCost.argmin

    def solving(split, *args):
        solved[0] += split.newton
        return argmin(split, *args)

    def responses(table):
        return [sum(row.equilibria.diagnostics[key] for row in table.rows)
                for key in ("responses", "responses_reused")]

    monkeypatch.setattr(costs.DeviationCost, "least_below", counted)
    monkeypatch.setattr(nash, "verify_nash", recorded)
    monkeypatch.setattr(SplitCost, "argmin", solving)
    costs._kernel.cache_clear()
    exp1 = alpha_sweep(get_preset("exp1"), [i / 100 for i in range(101)],
                       "first")
    assert compiled() == KERNEL_WORK["exp1"]
    assert trajectories(exp1) == TRAJECTORY_WORK["exp1"]
    assert priced[0] == DEVIATION_WORK["exp1"]
    assert solved[0] == 0 and responses(exp1) == [0, 0]
    priced[0] = 0
    costs._kernel.cache_clear()
    reused = 0
    for preset in ("braess-lb-sym", "braess-lb-asym"):
        before = compiled(), solved[0]
        table = parameter_sweep(get_preset(preset))
        assert compiled() - before[0] == KERNEL_WORK[preset], preset
        assert trajectories(table) == TRAJECTORY_WORK[preset], preset
        # the diagnostics count what was solved
        assert responses(table)[0] == solved[0] - before[1], preset
        reused += responses(table)[1]
    assert priced[0] == DEVIATION_WORK["braess"]
    assert solved[0] == RESPONSE_WORK["solved"]
    assert solved[0] + reused == RESPONSE_WORK["asked"]
    # the bounded sweep's verdicts are the full sweep's, bit for bit
    monkeypatch.setattr(nash, "deviation_cost", all_splits)
    for game, profile, check in checks:
        assert repr(verify_nash(game, profile)) == check


def test_the_map_search_work_is_pinned():
    sweeps = {
        "braess-lb-asym": lambda: parameter_sweep(
            get_preset("braess-lb-asym")),
        "exp1": lambda: alpha_sweep(get_preset("exp1"),
                                    [i / 100 for i in range(101)], "first")}
    for name, sweep in sweeps.items():
        diags = [row.equilibria.diagnostics for row in sweep().rows]
        assert sum(d["sweeps"] for d in diags) == MAP_WORK[name], name
        # exp1's zero-slack corner at 0.9 and its row at alpha 1, where
        # user 1's own weight is 0, are the rows not proved
        assert [d["scan_coverage"] for d in diags].count("none") == (
            2 if name == "exp1" else 0), name


@pytest.mark.parametrize("preset,build,newton", [
    ("exp4-feasible", {"alphas": (0.0, 0.0)}, False),
    ("exp4-feasible", {"alphas": (0.7, 0.35)}, False),
    ("braess-lb-sym", {"param": 10.0}, True)])
def test_queue_pairs_skip_newton(preset, build, newton, monkeypatch):
    # two users on two parallel M/M/1 links split by the closed-form
    # root; braess-lb-sym's crossing paths have two links and keep Newton
    calls = []
    real = costs.newton_argmin

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(costs, "newton_argmin", counted)
    eqs = multistart_nash(get_preset(preset).build_game(**build))
    assert all(eq.verified for eq in eqs)
    assert bool(calls) == newton


# Capacities and alphas of two users on two equal parallel M/M/1 links
# whose asymmetric equilibria are mirror images.
TIED_MIRRORS = [(1.05, (0.7, 0.35)), (1.05, (0.3, 0.9)), (4.1, (0.3, 0.9))]


def mirror_game(capacity, alphas):
    return parallel_game([MM1Cost(capacity), MM1Cost(capacity)], [1.0, 1.0],
                         alphas)


@pytest.mark.parametrize("capacity,alphas", TIED_MIRRORS)
def test_tied_equilibria_come_in_flow_order(capacity, alphas):
    # mirror images: two asymmetric equilibria cost user 1 the same in
    # exact arithmetic, and only the last bits tell their floats apart
    eqs = multistart_nash(mirror_game(capacity, alphas)).equilibria
    assert len(eqs) == 3
    first, second = eqs[0], eqs[1]
    assert (format(first.operating_costs[0], ".12g")
            == format(second.operating_costs[0], ".12g"))
    assert first.profile.path_flows[0][0] < second.profile.path_flows[0][0]


class TestMakeGame:
    def test_paths_are_enumerated_once(self, monkeypatch):
        calls = []
        original = netmodel.enumerate_paths

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(netmodel, "enumerate_paths", counted)
        get_preset("exp1").build_game()
        assert len(calls) == 2

    def test_no_users_rejected(self):
        # the multistart indexes the first user's starts
        net = build_network([1, 2], [("l1", 1, 2, LinearCost(1.0))])
        with pytest.raises(ConfigError, match="at least one user"):
            make_game(net, [], [])


class TestDynamics:
    def test_converges_from_corner(self):
        game = linear_two_origin((0.0, 0.0))
        res = br_dynamics(game, [[1.0, 0.0], [1.0, 0.0]])
        assert res.converged
        prof = profile_from_state(game, res.state)
        assert prof.path_flows[0][1] == pytest.approx(0.25, abs=1e-7)
        assert prof.path_flows[1][1] == pytest.approx(0.25, abs=1e-7)

    def test_unconfirmed_jump_is_undone(self, monkeypatch):
        # a jump to the far corner moves the next sweep far more than a
        # quarter of the last displacement: the state goes back, and the
        # run ends where plain sweeps end, one trial sweep later
        game = linear_two_origin((0.0, 0.0))
        start = [[1.0, 0.0], [1.0, 0.0]]
        monkeypatch.setattr(nash, "_extrapolate", lambda window: None)
        plain = br_dynamics(game, start)
        monkeypatch.setattr(nash, "_extrapolate",
                            lambda window: ([1.0, 1.0], 1e-3))
        res = br_dynamics(game, start)
        assert res.converged and plain.converged
        assert (res.jumps_kept, res.jumps_rejected) == (0, 1)
        assert res.state == plain.state
        assert res.sweeps == plain.sweeps + 1

    def test_jump_whose_sweep_raises_is_undone(self, monkeypatch):
        # user 1 crosses L (capacity 1.5) on both of its paths; a jump
        # that puts user 2's whole demand on F-L leaves user 1 no split,
        # so the trial sweep raises.  The jump is undone, not the run.
        net = build_network([1, 2, 3, 5], [
            ("F", 5, 1, LinearCost(0.1)), ("L", 1, 2, MM1Cost(1.5)),
            ("D", 5, 2, LinearCost(1.0, 0.5)), ("M1", 2, 3, LinearCost(1.0)),
            ("M2", 2, 3, LinearCost(1.0, 0.2))])
        game = make_game(net, [UserSpec(1, 1, 3, 1.0),
                               UserSpec(2, 5, 2, 1.0)], [0.0, 0.0])
        ids = [lk.link_id for lk in game.net.links]
        assert [[ids[li] for li in p] for p in game.paths.paths[1]] == [
            ["D"], ["F", "L"]]
        start = [[1.0, 0.0], [1.0, 0.0]]
        # the dynamics settle in 2 sweeps; never stopping them lets the
        # window fill
        monkeypatch.setattr(nash, "FP_TOL", 0.0)
        monkeypatch.setattr(nash, "MAX_SWEEPS", 6)
        monkeypatch.setattr(nash, "_extrapolate", lambda window: None)
        plain = br_dynamics(game, start)
        monkeypatch.setattr(nash, "_extrapolate",
                            lambda window: ([0.5, 1.0], 1.0))
        with pytest.raises(SolverError):
            _best_response(game, [[0.5, 0.5], [0.0, 1.0]], 0)
        res = br_dynamics(game, start)
        assert (res.jumps_kept, res.jumps_rejected) == (0, 1)
        assert res.state == plain.state
        assert res.sweeps == plain.sweeps == 6

    def test_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(nash, "MAX_SWEEPS", 1)
        monkeypatch.setattr(nash, "FP_TOL", 1e-14)
        game = linear_two_origin((0.0, 0.0))
        res = br_dynamics(game, [[1.0, 0.0], [1.0, 0.0]])
        assert not res.converged
        assert res.sweeps == 1


class TestMultistartLinear:
    def test_selfish_equilibrium_unique(self):
        eqs = multistart_nash(linear_two_origin((0.0, 0.0)))
        assert len(eqs) == 1
        eq = eqs.equilibria[0]
        assert transfer_flows(eq) == pytest.approx((0.25, 0.25), abs=1e-8)
        assert eq.raw_costs == pytest.approx((1.125, 1.125), abs=1e-8)
        assert eq.verified

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.4])
    def test_one_sided_interior_point(self, a):
        eqs = multistart_nash(linear_two_origin((a, 0.0)))
        assert len(eqs) == 1
        x = 0.75 * (1 - 2 * a) / (3 - 4 * a)
        assert transfer_flows(eqs.equilibria[0]) == pytest.approx(
            (x, 0.125 + 0.5 * x), abs=1e-7)

    def test_one_sided_multiplicity_window(self):
        # below the window: unique; inside it: both corners plus an
        # interior point that plain iteration repels
        assert len(multistart_nash(linear_two_origin((0.85, 0.0)))) == 1
        eqs = multistart_nash(linear_two_origin((0.95, 0.0)))
        assert len(eqs) == 3
        assert find_near(eqs, 0.0, 0.125) is not None
        assert find_near(eqs, 1.0, 0.625) is not None
        x = 0.75 * (2 * 0.95 - 1) / (4 * 0.95 - 3)
        interior = find_near(eqs, x, 0.125 + 0.5 * x)
        assert interior is not None
        assert interior.scan_found
        assert interior.basin_count == 0

    def test_fully_cooperative_keeps_indifferent_point(self):
        eqs = multistart_nash(linear_two_origin((1.0, 0.0)))
        assert find_near(eqs, 0.75, 0.5) is not None
        assert len(eqs) == 3

    def test_symmetric_interior_and_corners(self):
        eqs = multistart_nash(linear_two_origin((0.2, 0.2)))
        assert len(eqs) == 1
        x = (0.5 - 1.5 * 0.2) / (2 - 4 * 0.2)
        assert transfer_flows(eqs.equilibria[0]) == pytest.approx(
            (x, x), abs=1e-7)
        eqs = multistart_nash(linear_two_origin((0.7, 0.7)))
        assert find_near(eqs, 0.0, 0.0) is not None
        assert find_near(eqs, 1.0, 1.0) is not None

    def test_scan_clusters_are_verified_once(self, monkeypatch):
        # each root of the map is verified once, whether starts reach it
        # or not
        calls = []

        def counted(game, profile):
            calls.append(profile)
            return verify_nash(game, profile)

        monkeypatch.setattr(nash, "verify_nash", counted)
        eqs = multistart_nash(linear_two_origin((0.95, 0.0)))
        reached = sum(1 for eq in eqs if not eq.scan_found)
        assert eqs.diagnostics["scan_coverage"] == "map"
        assert eqs.diagnostics["scan_added"] == 1
        assert eqs.diagnostics["scan_candidates"] == 3
        assert len(calls) == eqs.diagnostics["scan_added"] + reached == 3

    def test_reverse_scan_finds_what_the_forward_one_cannot(self):
        # user 2 at alpha 1 answers from corner to corner, so the forward
        # scan pairs the interior fixed point's x with a corner y, which
        # fails verification; only the reverse scan recovers the point
        game = parallel_game([LinearCost(2.0502, 0.5027),
                              LinearCost(1.9063, 0.9537)],
                             [0.7622, 0.9072], [0.128, 1.0])
        # The map's search finds the three points, whose index sum is
        # 1; the interior one, where user 2 jumps from corner to corner,
        # is a sign change of g.  User 2's own weight is 0, so it could
        # be indifferent along a segment that the map does not see, and
        # nothing proves the set complete.
        eqs = multistart_nash(game)
        assert len(eqs) == 3 and all(eq.verified for eq in eqs)
        assert eqs.diagnostics["scan_coverage"] == "none"
        assert eqs.diagnostics["index_sum"] == 1
        interior = [eq for eq in eqs if 0.0 < eq.profile.path_flows[1][1]
                    < game.demands[1]]
        assert len(interior) == 1
        eq = interior[0]
        assert eq.scan_found and eq.basin_count == 0
        flows = eq.profile.path_flows
        assert flows[0] == pytest.approx((0.36724, 0.39496), abs=1e-5)
        assert flows[1] == pytest.approx((0.53650, 0.37070), abs=1e-5)
        near = [cand for cand in composition_scan(game)
                if abs(cand[0][1] - flows[0][1]) <= 1e-9]
        verdicts = [verify_nash(game, profile_from_state(game, cand))
                    for cand in near]
        # forward then reverse
        assert [v.ok for v in verdicts] == [False, True]
        assert near[0][1][1] == game.demands[1]
        assert verdicts[0].max_violation == pytest.approx(1.21, abs=0.01)

    def test_scan_coverage(self):
        eqs = multistart_nash(linear_two_origin((0.95, 0.0)))
        assert eqs.diagnostics["scan_coverage"] == "map"
        assert eqs.diagnostics["index_sum"] == 1
        # at 0.9 the corner (0, 1) of user 1 has zero slack: g does not
        # cross 0 there, so the search closes but proves nothing
        eqs = multistart_nash(linear_two_origin((0.9, 0.0)))
        assert eqs.diagnostics["scan_coverage"] == "none"
        assert eqs.diagnostics["index_sum"] is None
        assert eqs.diagnostics["degenerate"] == 1
        eqs = multistart_nash(parallel_game([LinearCost(1.0, 0.5)],
                                            [1.0, 1.0], [0.5, 0.0]))
        assert eqs.diagnostics["scan_coverage"] == "none"
        assert eqs.diagnostics["scan_candidates"] == 0

    def test_results_are_reproducible(self):
        a = multistart_nash(linear_two_origin((0.95, 0.0)))
        b = multistart_nash(linear_two_origin((0.95, 0.0)))
        assert [e.profile.path_flows for e in a] == \
            [e.profile.path_flows for e in b]
        assert [e.basin_count for e in a] == [e.basin_count for e in b]


class TestMultistartQueueing:
    def test_identical_links_split_evenly(self):
        game = parallel_game([MM1Cost(4.1), MM1Cost(4.1)], [1.0, 1.0],
                             [0.0, 0.0])
        eqs = multistart_nash(game)
        assert len(eqs) == 1
        prof = eqs.equilibria[0].profile
        for row in prof.path_flows:
            assert row == pytest.approx((0.5, 0.5), abs=1e-7)

    def test_equilibria_never_saturate(self):
        game = parallel_game([MM1Cost(2.5), MM1Cost(0.3)], [2.0, 0.2],
                             [0.0, 0.0])
        eqs = multistart_nash(game)
        for eq in eqs:
            assert eq.verified
            assert all(c < math.inf for c in eq.raw_costs)

    def test_heavier_demand_prefers_wider_link(self):
        game = parallel_game([MM1Cost(6.0), MM1Cost(2.0)], [3.0],
                             [0.0])
        eqs = multistart_nash(game)
        f = eqs.equilibria[0].profile.path_flows[0]
        assert f[0] > f[1]

    def test_polish_reaches_the_symmetric_split(self):
        # equal queues, alphas (0.75, 0): a fixed number of polishing
        # sweeps stopped about 7e-8 short of the even split.  The solve
        # emits the support-pass root there, so the polish of a
        # dynamics limit is checked on its own as well.
        game = get_preset("exp4-feasible").build_game(alphas=(0.75, 0.0))
        limit = br_dynamics(game, ((1.0, 0.0), (1.0, 0.0))).state
        polished = nash._iterate(game, [list(s) for s in limit], True)
        for eq in multistart_nash(game):
            for flows in eq.profile.path_flows + polished.state:
                assert flows == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_covered_points_are_neither_polished_nor_verified_twice(
            self, monkeypatch):
        # all three equilibria are roots of the map: each is verified
        # once, and none is polished
        polishes, verifies = [], []
        iterate = nash._iterate

        def counted_iterate(game, state, polish):
            if polish:
                polishes.append(state)
            return iterate(game, state, polish)

        def counted_verify(game, profile):
            verifies.append(profile)
            return verify_nash(game, profile)

        monkeypatch.setattr(nash, "_iterate", counted_iterate)
        monkeypatch.setattr(nash, "verify_nash", counted_verify)
        eqs = multistart_nash(
            get_preset("exp3").build_game(alphas=(0.85, 0.85)))
        assert sorted(eq.basin_count for eq in eqs) == [0, 105, 336]
        assert (len(polishes), len(verifies)) == (0, 3)


class TestVerification:
    def test_solver_output_passes(self):
        game = linear_two_origin((0.3, 0.0))
        eq = multistart_nash(game).equilibria[0]
        check = verify_nash(game, eq.profile)
        assert check.ok
        assert check.max_violation <= 1e-6

    def test_perturbed_profile_fails(self):
        game = linear_two_origin((0.3, 0.0))
        eq = multistart_nash(game).equilibria[0]
        x, y = transfer_flows(eq)
        prof = assemble_profile(game.net, game.paths,
                                [[1.0 - x - 0.05, x + 0.05],
                                 [1.0 - y, y]], game.demands)
        check = verify_nash(game, prof)
        assert not check.ok
        assert check.max_violation > 1e-4

    def test_saturated_profile_fails(self):
        game = parallel_game([MM1Cost(0.8), MM1Cost(4.0)], [1.0], [0.0])
        prof = assemble_profile(game.net, game.paths, [[0.9, 0.1]],
                                game.demands)
        check = verify_nash(game, prof)
        assert not check.ok
        assert "l1" in check.saturated

    def test_nan_profile_fails(self):
        # assemble_profile refuses NaN flows, so build the profile directly
        game = linear_two_origin((0.3, 0.0))
        ok = assemble_profile(game.net, game.paths, [[0.5, 0.5], [0.5, 0.5]],
                              game.demands)
        row = tuple(math.nan if v else 0.0 for v in ok.user_link_flows[0])
        prof = dataclasses.replace(
            ok, path_flows=((math.nan, math.nan), ok.path_flows[1]),
            user_link_flows=(row, ok.user_link_flows[1]),
            total_link_flows=tuple(a + b for a, b in
                                   zip(row, ok.user_link_flows[1])))
        check = verify_nash(game, prof)
        assert not check.ok
        assert check.max_violation == math.inf

    def test_nan_cost_fails(self):
        # a NaN slope slipped past validation makes every cost NaN
        game = parallel_game([LinearCost(1.0), LinearCost(0.0, 0.5)],
                             [1.0, 1.0], [0.0, 0.0])
        object.__setattr__(game.net.links[0].cost, "slope", math.nan)
        prof = assemble_profile(game.net, game.paths,
                                [[1 / 6, 5 / 6], [1 / 6, 5 / 6]],
                                game.demands)
        check = verify_nash(game, prof)
        assert not check.ok
        assert check.max_violation == math.inf

    def test_multiplier_matches_used_path_marginal(self):
        game = linear_two_origin((0.0, 0.0))
        eq = multistart_nash(game).equilibria[0]
        check = verify_nash(game, eq.profile)
        lam = check.kkt_multipliers[0]
        # user 1 is selfish: its weighted loads are its own, at weight 1
        prof = eq.profile
        assert game.net.links[0].link_id == "l1"
        direct = path_marginals(game.net.links, [[0]],
                                1.0, prof.total_link_flows,
                                prof.user_link_flows[0], [0.0])[0]
        assert lam == pytest.approx(direct, abs=1e-7)


class TestSaturatedStarts:
    """Three users of demand 1 on three parallel links at alpha 0.3.

    Everyone on l3 overloads it (3 > 2.5) and everyone on l1 fills it to
    capacity; best response must leave both starts.
    """

    @pytest.mark.parametrize("start", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    def test_dynamics_leave_a_full_link(self, start):
        game = parallel_game(
            [MM1Cost(3.0), LinearCost(1.0, 0.2), MM1Cost(2.5)],
            [1.0, 1.0, 1.0], [0.3, 0.3, 0.3])
        res = br_dynamics(game, [start] * 3)
        assert res.converged
        prof = profile_from_state(game, res.state)
        raw, _ = priced(game, prof)
        assert all(c < math.inf for c in raw)
        assert verify_nash(game, prof).ok


def bisect_increasing(f, lo, hi):
    """The point in [lo, hi] where the increasing ``f`` crosses zero."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def symmetric_water_level(alpha):
    """Per-user link flows of the three-link game's symmetric equilibrium.

    With every user on split ``x``, link ``l`` carries ``3 x_l`` and each
    user weighs the others' load there by ``alpha / 2``, so the marginal
    of one user on ``l`` is ``(1 - alpha) T(3 x) + x T'(3 x)``.  The
    split fills the links to the level where the flows sum to 1.
    """
    links = [  # (T, T') of l1, l2, l3
        (lambda f: 1 / (3.0 - f), lambda f: 1 / (3.0 - f) ** 2),
        (lambda f: f + 0.2, lambda f: 1.0),
        (lambda f: 1 / (2.5 - f), lambda f: 1 / (2.5 - f) ** 2)]
    caps = [1.0, 1.0, 2.5 / 3]

    def marginal(l, x):
        t, dt = links[l]
        return (1 - alpha) * t(3 * x) + x * dt(3 * x)

    def split(lam):
        return [0.0 if marginal(l, 0.0) >= lam else
                bisect_increasing(lambda x: marginal(l, x) - lam, 0.0,
                                  min(caps[l] * (1 - 1e-12), 1.0))
                for l in range(3)]

    lam = bisect_increasing(lambda lam: sum(split(lam)) - 1.0, 0.0, 100.0)
    return split(lam)


class TestThreeParallelLinks:
    """The three-link game of ``three_link_game``: every user has three
    link-disjoint paths, so its best response is water-filling."""

    @pytest.mark.parametrize("start", [(1 / 3, 1 / 3, 1 / 3),
                                       (0.0, 1.0, 0.0)])
    def test_converged_dynamics_verify(self, start):
        # converged must mean verified: a best response that is not exact
        # lets the sweep deltas fall below FP_TOL away from any equilibrium
        game = three_link_game(0.9)
        res = br_dynamics(game, [start] * 3)
        assert res.converged
        assert res.sweeps <= 10
        assert verify_nash(game, profile_from_state(game, res.state)).ok

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6])
    def test_unique_symmetric_equilibrium(self, alpha):
        # the paper's low-cooperation uniqueness: one equilibrium, which
        # every start reaches
        eqs = multistart_nash(three_link_game(alpha))
        assert len(eqs) == 1
        eq = eqs.equilibria[0]
        assert eq.verified
        assert eq.basin_count == 64
        want = symmetric_water_level(alpha)
        for flows in eq.profile.path_flows:
            assert flows == pytest.approx(want, abs=1e-7)

    def test_csv_matches_golden_file(self):
        """The CSV bytes of the solves at alpha 0.3, 0.6 and 0.9 are
        pinned in ``tests/data/three_link.csv``, the only golden file of
        users with three or more paths, written from the repository root
        by

            import sys
            sys.path[:0] = ["src", "tests"]
            from test_nash import three_link_game
            from cooproute import cli, multistart_nash
            rows = [(a, multistart_nash(three_link_game(a)))
                    for a in (0.3, 0.6, 0.9)]
            game = three_link_game(0.3)
            sys.stdout.write(cli.emit_csv(
                rows, [u.user_id for u in game.users],
                [lk.link_id for lk in game.net.links]))

        A change that means to move these answers regenerates the file
        the same way and says so in CHANGES.md."""
        rows = [(a, multistart_nash(three_link_game(a)))
                for a in (0.3, 0.6, 0.9)]
        game = three_link_game(0.3)
        text = cli.emit_csv(rows, [u.user_id for u in game.users],
                            [lk.link_id for lk in game.net.links])
        golden = Path(__file__).resolve().parent / "data" / "three_link.csv"
        assert text.encode() == golden.read_bytes()

    def test_several_equilibria_under_cooperation(self):
        eqs = multistart_nash(three_link_game(0.9))
        assert len(eqs) >= 2
        assert all(eq.verified for eq in eqs)
        assert sum(eq.basin_count for eq in eqs) == 64

    @pytest.mark.parametrize("alpha", [0.3, 0.6])
    def test_trajectories_converge_within_twenty_sweeps(self, alpha,
                                                        monkeypatch):
        # The sweep map rotates here, so the displacements change sign
        # and a per-coordinate Aitken step never fired: 32 to 36 sweeps
        # a trajectory at 0.3, and up to 138 at 0.6.  The window fit
        # over d + 2 = 6 iterates takes 14.
        eqs, runs = solve_recording_runs(three_link_game(alpha), monkeypatch)
        assert len(runs) == eqs.diagnostics["trajectories"] == 16
        assert all(res.converged and res.sweeps <= 20 for res in runs)
        assert eqs.diagnostics["jumps_kept"] >= 16
        assert eqs.diagnostics["sweeps"] > sum(res.sweeps for res in runs)


def test_slow_three_user_game_converges(monkeypatch):
    # A sweep contraction close to 1: with a per-coordinate Aitken step
    # each trajectory took 2,300 to 2,500 sweeps, and the solve about
    # 41,600.
    game = parallel_game([MM1Cost(2.3848), MM1Cost(1.3443),
                          MM1Cost(1.4998)], [0.8887, 1.4283, 1.2638],
                         [0.6618] * 3)
    eqs, runs = solve_recording_runs(game, monkeypatch)
    assert len(eqs) == 1
    assert eqs.equilibria[0].verified
    assert eqs.equilibria[0].basin_count == 64
    assert runs and all(res.converged and res.sweeps <= 100 for res in runs)


class TestExtrapolate:
    @staticmethod
    def iterates(step, x, n):
        out = [x]
        while len(out) < n:
            out.append(step(out[-1]))
        return out

    def test_rotating_linear_map_lands_on_its_fixed_point(self):
        # x -> s + A (x - s) with A block upper triangular: its diagonal
        # blocks are rotations scaled to 0.6, so its eigenvalues are two
        # complex pairs of modulus 0.6.  d + 2 = 6 iterates pin s.
        def block(theta):
            c, s = 0.6 * math.cos(theta), 0.6 * math.sin(theta)
            return [[c, -s], [s, c]]

        top, bottom = block(1.1), block(2.5)
        a = [top[0] + [0.3, -0.7], top[1] + [0.5, 0.2],
             [0.0, 0.0] + bottom[0], [0.0, 0.0] + bottom[1]]
        fixed = [0.4, -1.3, 2.2, 0.7]

        def step(x):
            return [f + math.fsum(v * (xi - fi) for v, xi, fi in
                                  zip(row, x, fixed))
                    for f, row in zip(fixed, a)]

        window = self.iterates(step, [1.0, 0.5, -0.5, 2.0], 6)
        target, size = nash._extrapolate(window)
        assert target == pytest.approx(fixed, abs=1e-12)
        assert size == max(abs(u - v) for u, v in zip(window[-1],
                                                      window[-2]))
        # the displacements change sign, so Aitken's step declines
        assert nash._extrapolate(window[-3:]) is None

    def test_geometric_sequence_takes_the_delta_squared_step(self):
        limit = [0.25, 1.5]
        window = self.iterates(
            lambda x: [l + 0.5 * (v - l) for v, l in zip(x, limit)],
            [0.65, 1.3], 3)
        target, size = nash._extrapolate(window)
        x0, x1, x2 = window
        assert target == [c - (c - b) ** 2 / ((c - b) - (b - a))
                          for a, b, c in zip(x0, x1, x2)]
        assert target == pytest.approx(limit, abs=1e-15)
        assert size == max(abs(c - b) for b, c in zip(x1, x2))

    @pytest.mark.parametrize("ratio", [1.5, -0.5])
    def test_delta_squared_needs_shrinking_steps_of_one_sign(self, ratio):
        window = self.iterates(lambda x: [1.0 + ratio * (v - 1.0) for v in x],
                               [1.3, 0.9], 3)
        assert nash._extrapolate(window) is None


def test_overlapping_paths_use_pairwise_exchange():
    # one user through Braess's network: s-a-b-t shares a link with each
    # of s-a-t and s-b-t, so the best response is the pairwise exchange.
    # Links sa, ab and bt cost f, and sb and at cost f + 1; equal path
    # marginals put 1/4 across ab and 3/8 on each side, at level 3.
    game = braess_game([LinearCost(1.0), LinearCost(1.0, 1.0),
                        LinearCost(1.0), LinearCost(1.0, 1.0),
                        LinearCost(1.0)], [1.0], [0.0])
    ids = [lk.link_id for lk in game.net.links]
    assert [[ids[li] for li in p] for p in game.paths.paths[0]] == [
        ["sa", "ab", "bt"], ["sa", "at"], ["sb", "bt"]]
    assert game.two_path[0] is None and game.disjoint[0] is None
    res = br_dynamics(game, [(1.0, 0.0, 0.0)])
    assert res.converged
    assert res.state[0] == pytest.approx((0.25, 0.375, 0.375), abs=1e-6)
    check = verify_nash(game, profile_from_state(game, res.state))
    assert check.ok
    assert check.kkt_multipliers[0] == pytest.approx(3.0, abs=1e-6)
    cost = deviation_cost(game.net.links, game.paths.paths,
                          [list(res.state[0])], game.coop.rows[0], 0)
    at_br = cost.price([res.state[0]])[0]
    grid_min = min(cost.price(simplex_grid(1.0, [math.inf] * 3)))
    assert at_br <= grid_min + 1e-12 * max(1.0, abs(at_br))


def test_exchange_empties_a_dear_path():
    # the optimum lies on the simplex's edge: a response that only
    # approaches it leaves flow on s-a-b-t, at a marginal 0.1 too high,
    # and fails verification
    game = edge_braess_game()
    res = br_dynamics(game, [(1.0, 0.0, 0.0)])
    assert res.converged
    assert res.state[0] == pytest.approx((0.0, 0.5, 0.5), abs=1e-9)
    assert verify_nash(game, profile_from_state(game, res.state)).ok


@st.composite
def braess_games(draw):
    """One or two users through Braess's network on affine and M/M/1
    links.  Every capacity exceeds the total demand by at least 1e-3, so
    no start fills a link and the guard brackets can bind."""
    n = draw(st.integers(1, 2))
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    latencies = [MM1Cost(sum(demands) + draw(st.floats(1e-3, 2.0)))
                 if draw(st.booleans()) else
                 LinearCost(draw(st.sampled_from([0.0, 1.0]) |
                                 st.floats(0.0, 3.0, allow_subnormal=False)),
                            draw(st.floats(0.0, 2.0)))
                 for _ in BRAESS_LINKS]
    alphas = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return braess_game(latencies, demands, alphas)


@settings(max_examples=40, deadline=None)
@given(braess_games())
def test_exchange_dynamics_verify(game):
    # converged must mean verified, and each exchange must stop on its
    # own test, well before the step cap
    steps, runs = [0], []
    split, exchange, dynamics = (nash._guarded_split, nash._exchange_response,
                                 nash.br_dynamics)

    def counted_split(*args):
        steps[0] += 1
        return split(*args)

    def capped_exchange(*args):
        steps[0] = 0
        out = exchange(*args)
        assert steps[0] < nash.EXCHANGE_STEPS
        return out

    def recorded(*args):
        runs.append(dynamics(*args))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash, "_guarded_split", counted_split)
        mp.setattr(nash, "_exchange_response", capped_exchange)
        mp.setattr(nash, "br_dynamics", recorded)
        # A runtime net, not a bound the dynamics need: a drawn game whose
        # extrapolation kept failing would otherwise run 10,000 sweeps a
        # trajectory.  test_near_continuum_converges runs the game that
        # once crept to the default cap.
        mp.setattr(nash, "MAX_SWEEPS", 500)
        try:
            eqs = multistart_nash(game)
        except SolverError:
            # only "no starting point converged" may end the solve
            assert not any(res.converged for res in runs)
            eqs = ()
    assert runs
    for res in runs:
        if res.converged:
            assert verify_nash(game, profile_from_state(game, res.state)).ok
    assert all(eq.verified for eq in eqs)


def test_near_continuum_converges():
    # alphas 0.5 -+ 3.3e-4 and flat shared paths: a near-continuum of
    # equilibria.  Each sweep moved user 2's s-a-t flow by about 3.8e-5,
    # and with a per-coordinate Aitken step every trajectory crept to
    # MAX_SWEEPS and the solve raised "no starting point converged".
    game = braess_game(
        [LinearCost(0.0, 1.8994809003040491),
         LinearCost(0.0, 1.6121398347751912), MM1Cost(3.4826599070078323),
         LinearCost(0.0, 1.0998206379061009), MM1Cost(3.0633278250125127)],
        [0.8477503348591087] * 2,
        CooperationProfile((1, 2), ((0.5003305808277427, 0.4996694191722573),
                                    (0.4996694191722573,
                                     0.5003305808277427))))
    eqs = multistart_nash(game)
    assert eqs.diagnostics["non_converged"] == 0
    assert eqs.diagnostics["failed_starts"] == 0
    assert all(eq.verified for eq in eqs)


class TestSaturatedBraessStarts:
    """Two users of demand 1 through Braess's network on M/M/1 links at
    alpha 0.3, sa and bt of capacity 1.8 and the rest 3.

    Both users on s-a-t overload sa, and both on s-b-t overload bt, which
    leaves each user one open path; both on s-a-b-t overload sa and bt,
    which leaves none open at the scaled start.  Best response must leave
    all three starts.
    """

    @staticmethod
    def game():
        return braess_game([MM1Cost(1.8), MM1Cost(3.0), MM1Cost(3.0),
                            MM1Cost(3.0), MM1Cost(1.8)], [1.0, 1.0],
                           [0.3, 0.3])

    @pytest.mark.parametrize("start", [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                       (1.0, 0.0, 0.0)])
    def test_dynamics_leave_a_full_link(self, start):
        game = self.game()
        prof = profile_from_state(game, [start] * 2)
        assert math.inf in priced(game, prof)[0]
        res = br_dynamics(game, [start] * 2)
        assert res.converged
        prof = profile_from_state(game, res.state)
        raw, _ = priced(game, prof)
        assert all(c < math.inf for c in raw)
        assert verify_nash(game, prof).ok

    def test_every_start_converges(self):
        # both users on s-a-b-t fill sa and bt, so user 1's scaled start
        # prices all three paths at infinity; its exchange restarts from
        # the even split, and that start too reaches the equilibrium
        eqs = multistart_nash(self.game())
        assert eqs.diagnostics["failed_starts"] == 0
        assert len(eqs) == 1 and eqs.equilibria[0].verified
        assert eqs.equilibria[0].basin_count == 16

    def test_failed_start_does_not_end_the_solve(self, monkeypatch):
        # the dynamics raise on the start with both users on s-a-b-t;
        # every other start reaches the even split over s-a-t and s-b-t
        game = self.game()
        start = ((1.0, 0.0, 0.0),) * 2
        dynamics = nash.br_dynamics

        def failing_once(game, combo):
            if tuple(map(tuple, combo)) == start:
                raise SolverError("no unsaturated path")
            return dynamics(game, combo)

        monkeypatch.setattr(nash, "br_dynamics", failing_once)
        eqs = multistart_nash(game)
        diag = eqs.diagnostics
        assert diag["failed_starts"] == 1
        assert diag["non_converged"] == 0
        assert len(eqs) == 1
        eq = eqs.equilibria[0]
        assert eq.verified
        assert eq.basin_count == diag["total_starts"] - 1
        for flows in eq.profile.path_flows:
            assert flows == pytest.approx((0.0, 0.5, 0.5), abs=1e-9)

    def test_solve_fails_when_every_start_fails(self, monkeypatch):
        game = self.game()

        def failing(game, start):
            raise SolverError("no unsaturated path")

        monkeypatch.setattr(nash, "br_dynamics", failing)
        with pytest.raises(SolverError, match="no starting point") as info:
            multistart_nash(game)
        assert info.value.diagnostics["failed_starts"] == 16


def test_exchange_overflow_moves_to_a_third_path():
    # one user of demand 1 at alpha 0, all on s-a-b-t, overloads ab
    # (capacity 0.2).  The cheapest path, s-a-t, has room for only 0.5 at
    # at, so no split of the pair fits; the exchange fills s-a-t to its
    # guard and a later step moves the rest to s-b-t.
    game = braess_game([LinearCost(1.0), LinearCost(0.0, 5.0), MM1Cost(0.2),
                        MM1Cost(0.5), LinearCost(0.0, 5.0)], [1.0], [0.0])
    start = [(1.0, 0.0, 0.0)]
    assert math.inf in priced(game, profile_from_state(game, start))[0]
    br = _best_response(game, start, 0)
    assert br[0] == 0.0 and sum(br) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < br[1] < 0.5
    res = br_dynamics(game, start)
    assert res.converged
    assert verify_nash(game, profile_from_state(game, res.state)).ok
    eqs = multistart_nash(game)
    assert len(eqs) == 1 and all(eq.verified for eq in eqs)


def test_raising_best_response_does_not_abort_a_converged_solve():
    # user 2 crosses L (capacity 1.5) on both of its paths with demand 1,
    # so user 1 can put at most 0.5 on its path F-L.  Past that, user 2's
    # best response raises.  Every start converges, and the composition
    # scan's grid reaches user 1's corner, where that raise must not end
    # the scan.
    net = build_network([1, 2, 3, 5], [
        ("F", 5, 1, LinearCost(0.1)), ("L", 1, 2, MM1Cost(1.5)),
        ("D", 5, 2, LinearCost(1.0, 0.5)), ("M1", 2, 3, LinearCost(1.0)),
        ("M2", 2, 3, LinearCost(1.0, 0.2))])
    game = make_game(net, [UserSpec(1, 5, 2, 1.0), UserSpec(2, 1, 3, 1.0)],
                     [0.0, 0.0])
    eqs = multistart_nash(game)
    diag = eqs.diagnostics
    assert diag["failed_starts"] == diag["non_converged"] == 0
    assert diag["scan_coverage"] == "map"
    assert len(eqs) == 1 and eqs.equilibria[0].verified
    # the composition scan reads the raising grid points as no sign
    # change
    cands = composition_scan(game)
    assert cands
    for cand in cands:
        assert verify_nash(game, profile_from_state(game, cand)).ok


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
    st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
)
def test_random_parallel_games_solve_clean(slopes, icepts, demands, alphas):
    game = parallel_game(
        [LinearCost(a, g) for a, g in zip(slopes, icepts)],
        demands, alphas)
    eqs = multistart_nash(game)
    assert len(eqs) >= 1
    for eq in eqs:
        assert eq.verified
        assert eq.max_violation <= 1e-6
        for ui, r in enumerate(game.demands):
            assert sum(eq.profile.path_flows[ui]) == pytest.approx(r)


# ------------------------------------------------ uniqueness certificate

def rosen_certified(game):
    """Whether Rosen's test proves that a game of two two-path users on
    affine links has one equilibrium.

    User ``i``'s derivative along its second-path flow is then affine in
    both users' second-path flows, with the constant Jacobian

        J_ii = 2 w_ii sum_l a_l e_il^2,
        J_ij = (w_ii + w_ij) sum_l a_l e_il e_jl,

    where ``a_l`` is link ``l``'s slope, ``w`` the cooperation rows, and
    ``e_il`` is +1 on links of ``i``'s second path only, -1 on links of
    its first path only and 0 elsewhere (``nash._signs``).  If the
    symmetric part of ``J`` is positive definite, the users' derivatives
    are strictly monotone and the equilibrium is unique (diagonal strict
    convexity with unit weights).  In rational arithmetic the 2x2 test
    decides that exactly.
    """
    if (len(game.two_path) != 2 or any(tp is None for tp in game.two_path)
            or not all(isinstance(lk.cost, LinearCost)
                       for lk in game.net.links)):
        return False
    links = game.net.links
    signs = [nash._signs(tp) for tp in game.two_path]
    w = [[Fraction(v) for v in row] for row in game.coop.rows]

    def jac(i, j):
        return (2 * w[i][i] if i == j else w[i][i] + w[i][j]) * sum(
            (Fraction(links[li].cost.slope) * e * signs[j][li]
             for li, e in signs[i].items() if li in signs[j]), Fraction(0))

    j00, j11 = jac(0, 0), jac(1, 1)
    return j00 > 0 and j00 * j11 > ((jac(0, 1) + jac(1, 0)) / 2) ** 2


class TestUniquenessCertificate:
    @pytest.mark.parametrize("a, certified", [(0.74, True), (0.75, False)])
    def test_exp1_threshold(self, a, certified):
        # the Jacobian's symmetric part [[4 (1 - a), -2], [-2, 4]] is
        # positive definite exactly for a < 0.75; on either side the map
        # proves the one equilibrium alone, as a crossing root
        game = get_preset("exp1").build_game(alphas=(a, 0.0))
        assert rosen_certified(game) is certified
        eqs = multistart_nash(game)
        assert len(eqs) == 1
        assert eqs.diagnostics["scan_coverage"] == "map"
        assert eqs.diagnostics["scan_candidates"] == 1
        assert eqs.diagnostics["scan_added"] == 0
        assert eqs.diagnostics["index_sum"] == 1

    @pytest.mark.parametrize("build, coverage", [
        (lambda: get_preset("exp1").build_game(alphas=(0.95, 0.0)), "map"),
        (lambda: get_preset("exp3").build_game(alphas=(0.0, 0.0)), "map"),
        (lambda: parallel_game([LinearCost(1.0), LinearCost(2.0, 0.1),
                                LinearCost(0.5, 0.3)], [1.0, 1.0],
                               [0.0, 0.0]), "none"),
    ], ids=["exp1-0.95", "exp3-mm1", "three-paths"])
    def test_uncertified_games_keep_their_coverage(self, build, coverage):
        game = build()
        assert not rosen_certified(game)
        assert multistart_nash(game).diagnostics["scan_coverage"] == coverage


def affine_two_user_game(specs, demands, alphas):
    """A two-user game on affine links given as (slope, intercept) pairs,
    parallel for two links and load-balancing for four, as a cooproute
    game and as the oracle's input."""
    latencies = [LinearCost(a, g) for a, g in specs]
    if len(specs) == 2:
        game = parallel_game(latencies, demands, alphas)
    else:
        game = load_balancing_game(latencies, demands, alphas)
    links = {lk.link_id: ab for lk, ab in zip(game.net.links, specs)}
    ids = [lk.link_id for lk in game.net.links]
    users = [(r, [ids[li] for li in p[0]], [ids[li] for li in p[1]])
             for r, p in zip(game.demands, game.paths.paths)]
    return game, links, users, alphas


@st.composite
def affine_two_user_games(draw):
    """A two-user load-balancing or parallel game on affine links, some
    of them flat, built by ``affine_two_user_game``.  Slopes are 0 or at
    least 1e-6: below about 1e-300, slope times flow underflows to 0 and
    the float objectives go flat, although the exact game still has one
    equilibrium."""
    slope = st.one_of(st.just(0.0), st.floats(1e-6, 3.0))
    k = 2 if draw(st.booleans()) else 4
    specs = [(draw(slope), draw(st.floats(0.0, 2.0))) for _ in range(k)]
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=2, max_size=2))
    return affine_two_user_game(specs, demands, alphas)


@settings(max_examples=40, deadline=None)
@given(affine_two_user_games())
def test_certified_games_have_one_equilibrium(case):
    game, links, users, alphas = case
    # a certified game reads coverage "map" with one root
    assume(rosen_certified(game))
    points, segments = checks.affine_equilibria(links, users, alphas)
    assert len(points) == 1 and not segments
    eqs = multistart_nash(game)
    assert len(eqs) == 1
    eq = eqs.equilibria[0]
    assert eq.verified
    assert eqs.diagnostics["scan_coverage"] == "map"
    assert eqs.diagnostics["scan_candidates"] == 1
    flows = [eq.profile.path_flows[ui][1] for ui in range(2)]
    assert max(abs(f - float(t)) for f, t in zip(flows, points[0])) \
        <= checks.FLOW_TOL


def oracle_holds(flows, points, segments):
    return (any(max(abs(f - float(v)) for f, v in zip(flows, p))
                <= checks.FLOW_TOL for p in points)
            or any(checks.distance_to_segment(flows, seg) <= checks.FLOW_TOL
                   for seg in segments))


# The arguments of ``affine_two_user_game`` for three float-degenerate
# games.
ORACLE_EXAMPLES = [
    # A point where user 1 sits on l2 with a slack of exactly zero: the
    # support pass's exact sign test dropped it, and the dynamics stopped
    # short of it.
    ([(1.082884660382893, 0.5), (0.0, 1.5)], [1.0, 0.625], [0.5, 0.99999]),
    # An own weight of 2^-53, at float resolution: user 1's float
    # derivative at the oracle's point (1, 0.9389) reads +1.1e-16 where
    # the exact slack is zero (the slope 0.8911 is rounded from a random
    # draw) ...
    ([(0.8911, 0.0), (0.0, 1.0)], [1.0, 1.5], [0.5, 1 - 2**-53]),
    # ... and the oracle's third point puts 2.75e-17 on user 1's path,
    # below float resolution.
    ([(0.0, 0.25), (1.0, 0.0)], [1.0, 1.0], [0.99609375, 1 - 2**-53])]


@settings(max_examples=60, deadline=None)
@given(affine_two_user_games())
@example(affine_two_user_game(*ORACLE_EXAMPLES[0]))
@example(affine_two_user_game(*ORACLE_EXAMPLES[1]))
@example(affine_two_user_game(*ORACLE_EXAMPLES[2]))
def test_affine_games_match_the_oracle(case):
    # certified or not: every verified point is an equilibrium of the
    # exact oracle, and every isolated oracle point is emitted, also
    # beside a continuum
    game, links, users, alphas = case
    # An intercept below float resolution beside the others (7.8e-175
    # beside 1) makes path costs that the exact oracle tells apart equal
    # in float, so a float-verified point need not be exact; as with
    # slopes, intercepts are 0 or at least 1e-6.
    assume(all(g == 0.0 or g >= 1e-6 for _, g in links.values()))
    try:
        points, segments = checks.affine_equilibria(links, users, alphas)
    except ValueError:  # a two-dimensional continuum, which it cannot list
        reject()
    eqs = multistart_nash(game)
    emitted = [tuple(eq.profile.path_flows[ui][1] for ui in range(2))
               for eq in eqs if eq.verified]
    for flows in emitted:
        assert oracle_holds(flows, points, segments), flows
    for p in points:
        assert any(max(abs(f - float(v)) for f, v in zip(flows, p))
                   <= checks.FLOW_TOL for flows in emitted), p


def test_pass_roots_of_other_supports_inside_the_cluster_radius():
    # parallel links of slopes 1 and 1e-6, alphas (0, 0.875): three
    # equilibria within 5e-6 of each other, one per support.  The
    # support pass once dropped the two the dynamics miss, as inside
    # CLUSTER_RADIUS of the one they reach; the map's roots are apart
    # by more than its bracket.
    links = {"l1": (1.0, 0.0), "l2": (1e-6, 0.0)}
    users = [(1.0, ["l1"], ["l2"]), (1.0, ["l1"], ["l2"])]
    alphas = [0.0, 0.875]
    game = parallel_game([LinearCost(*links["l1"]), LinearCost(*links["l2"])],
                         [1.0, 1.0], alphas)
    points, segments = checks.affine_equilibria(links, users, alphas)
    assert len(points) == 3 and not segments
    eqs = multistart_nash(game)
    assert len(eqs) == 3 and all(eq.verified for eq in eqs)
    emitted = sorted(tuple(eq.profile.path_flows[ui][1] for ui in range(2))
                     for eq in eqs)
    for flows, p in zip(emitted, sorted(points)):
        assert flows == pytest.approx([float(v) for v in p], abs=1e-12)
    assert eqs.diagnostics["scan_coverage"] == "map"
    assert eqs.diagnostics["index_sum"] == 1
    assert sum(eq.basin_count for eq in eqs) == 441


def test_exp1_at_full_cooperation_lists_the_oracles_three_points():
    # each user at alpha 1 weighs only the other's cost, so its own
    # objective is linear in its split; the point (0.5, 0.5) of each user
    # repels best response, and the composition scan steps over it.
    # On the map it is a jump of g across 0, where user 1's answer
    # leaves one corner for the other.
    eqs = multistart_nash(get_preset("exp1").build_game(alphas=(1.0, 1.0)))
    points, segments = checks.affine_equilibria(
        {"l1": (1.0, 0.0), "l2": (1.0, 0.0), "l3": (0.0, 0.5),
         "l4": (0.0, 0.5)},
        [(1.0, ["l1"], ["l3", "l2"]), (1.0, ["l2"], ["l4", "l1"])],
        (1.0, 1.0))
    assert len(points) == 3 and not segments
    assert len(eqs) == 3 and all(eq.verified for eq in eqs)
    emitted = sorted(transfer_flows(eq) for eq in eqs)
    for flows, p in zip(emitted, sorted(points)):
        assert flows == pytest.approx([float(v) for v in p], abs=1e-12)
    assert find_near(eqs, 0.5, 0.5).basin_count == 0
    # an own weight of 0 can leave a user indifferent along a segment,
    # which the map does not see: nothing proves the set complete
    assert eqs.diagnostics["scan_coverage"] == "none"
    assert eqs.diagnostics["index_sum"] == 1


@st.composite
def queue_two_user_games(draw):
    """A two-user load-balancing or parallel game on M/M/1 and affine
    links.  An M/M/1 capacity is drawn around the demand that can cross
    the link, so that guard brackets bind and several equilibria
    appear."""
    parallel = draw(st.booleans())
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    latencies = []
    for i in range(2 if parallel else 4):
        through = sum(demands) if parallel else demands[i % 2]
        if draw(st.booleans()):
            latencies.append(MM1Cost(through * draw(st.floats(0.6, 1.5))
                                     + draw(st.floats(1e-3, 1.0))))
        else:
            latencies.append(LinearCost(
                draw(st.floats(0.0, 3.0, allow_subnormal=False)),
                draw(st.floats(0.0, 2.0))))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=2, max_size=2))
    try:
        if parallel:
            return parallel_game(latencies, demands, alphas)
        return load_balancing_game(latencies, demands, alphas)
    except InfeasibleError:
        reject()


def on_verified_segment(game, t, flows, steps=4):
    """Whether the inner points of the segment from second-path flows
    ``t`` to ``flows``, at ``1 / steps`` of its length apart, verify."""
    r = game.demands
    for k in range(1, steps):
        x, y = (a + (b - a) * k / steps for a, b in zip(t, flows))
        if not verify_nash(game, profile_from_state(
                game, ((r[0] - x, x), (r[1] - y, y)))).ok:
            return False
    return True


@settings(max_examples=30, deadline=None)
@given(queue_two_user_games())
# a continuum at tied alphas 0.5, which the scan crosses in float noise
@example(parallel_game([LinearCost(1.0), LinearCost(0.0, 1.0)], [1.0, 1.0],
                       [0.5, 0.5]))
# user 2 at alpha 1 is indifferent while user 1 sits on its flat path:
# the scan finds the far end of that continuum, the solve its near end
@example(parallel_game([MM1Cost(2.159521298272994),
                        LinearCost(0.0, 1.1005495074944804)],
                       [0.8844144311480451, 1.9842200787261843],
                       [0.9522462283575805, 1.0]))
# user 1's two paths share the M/M/1 link s, which user 2's second path
# also loads: the pass meets splits where both demands do not fit on s
@example(make_game(build_network([0, 1, 2, 3], [
    ("e", 0, 1, LinearCost(0.5)), ("d", 0, 2, LinearCost(1.0, 0.5)),
    ("s", 1, 2, MM1Cost(2.0)), ("a", 2, 3, LinearCost(1.0)),
    ("b", 2, 3, MM1Cost(2.0))]),
    [UserSpec(1, 1, 3, 1.2), UserSpec(2, 0, 2, 1.0)], [0.0, 0.0]))
def test_support_pass_finds_what_the_scan_finds(game):
    scan_points_are_emitted(game)


def scan_points_are_emitted(game):
    """The completeness check on M/M/1 links, where no exact oracle
    exists: every verified candidate of the composition scan is emitted,
    unless it lies on a continuum.  The solver lists a continuum only by
    the map's roots and its points of their own, so a candidate it
    leaves out must lie on a segment of verified points to an emitted
    one, in a game that reports no check closing its set.  Candidates
    are taken farthest first, and one on a segment already checked needs
    no check of its own."""
    try:
        eqs = multistart_nash(game)
    except SolverError:
        reject()
    diag = eqs.diagnostics
    emitted = [tuple(eq.profile.path_flows[ui][1] for ui in range(2))
               for eq in eqs if eq.verified]

    def gap(t):
        return min((max(abs(a - b) for a, b in zip(t, f)) for f in emitted),
                   default=math.inf)

    r = game.demands
    cands = [(cand[0][1], cand[1][1]) for cand in composition_scan(game)]
    segments = []
    for t in sorted((t for t in cands if gap(t) > nash.CLUSTER_RADIUS),
                    key=gap, reverse=True):
        if any(checks.distance_to_segment(t, seg) <= nash.CLUSTER_RADIUS
               for seg in segments):
            continue
        if not verify_nash(game, profile_from_state(
                game, ((r[0] - t[0], t[0]), (r[1] - t[1], t[1])))).ok:
            continue
        assert diag["scan_coverage"] == "none" and diag["degenerate"], t
        end = next((f for f in sorted(emitted, key=lambda f: math.dist(t, f))
                    if on_verified_segment(game, t, f)), None)
        assert end is not None, t
        segments.append((t, end))


def test_a_demand_that_misses_a_shared_link_is_refused():
    # user 1's two paths share the M/M/1 link s of capacity 2, and user 2
    # loads it too.  make_game refuses the game in which both of user
    # 2's paths load s, since its users bound for different destinations
    # must both cross s; built without that check, every sweep of the
    # map raises, so every start fails and the solver refuses it too.
    net = build_network([0, 1, 2, 3], [
        ("s", 0, 1, MM1Cost(2.0)), ("a", 1, 2, LinearCost(1.0)),
        ("b", 1, 2, LinearCost(0.0, 0.5)), ("c", 2, 3, LinearCost(1.0))])
    users = (UserSpec(1, 0, 2, 1.2), UserSpec(2, 0, 3, 1.0))
    with pytest.raises(InfeasibleError, match="links s:") as refused:
        make_game(net, users, [0.0, 0.0])
    assert refused.value.detail == {
        "lambda": float(Fraction(2.0 - CAPACITY_GUARD) / (Fraction(1.2) + 1)),
        "links": ["s"], "prices": [1]}
    both = nash.RoutingGame(net, users, netmodel.build_path_set(net, users),
                            CooperationProfile.from_alphas((1, 2),
                                                           [0.0, 0.0]))
    with pytest.raises(SolverError, match="no starting point") as info:
        multistart_nash(both)
    diag = info.value.diagnostics
    assert diag["failed_starts"] == diag["total_starts"] == 441
    assert diag["scan_candidates"] == 0 and diag["scan_coverage"] == "none"


# ----------------------------------------------------- deviation splits

def same_float(a, b):
    """Equal, of one type, and with one sign, so 0.0 and -0.0 differ."""
    return (type(a) is type(b) and a == b
            and math.copysign(1.0, a) == math.copysign(1.0, b))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(0.0, 1e300), st.integers(1, 10 ** 6)))
@example(1.0)
@example(1)
@example(5e-324)
def test_deviation_splits_are_the_uncached_splits(r):
    splits = nash._deviation_splits(r)
    expected = [(r - t, t) for t in grid(r, nash.DEVIATION_GRID)]
    assert type(splits) is tuple and len(splits) == len(expected)
    for got, want in zip(splits, expected):
        assert type(got) is tuple
        assert all(map(same_float, got, want)), (got, want)
    assert nash._deviation_splits(r) is splits
    # the order the sweep's block corners rely on
    firsts, seconds = zip(*splits)
    assert all(a >= b for a, b in zip(firsts, firsts[1:]))
    assert all(a <= b for a, b in zip(seconds, seconds[1:]))


def test_sweep_builds_the_deviation_grid_once_per_demand(monkeypatch):
    # verify_nash prices the same 1,001 splits of a demand on every
    # check; exp1's two users share the demand 1.0, so its 101-row sweep
    # builds that grid once, however many profiles it verifies
    grids, checks = [], []

    def counted_grid(r, n):
        if n == nash.DEVIATION_GRID:
            grids.append(r)
        return grid(r, n)

    def counted_verify(game, profile, _orig=nash.verify_nash):
        checks.append(profile)
        return _orig(game, profile)

    monkeypatch.setattr(nash, "grid", counted_grid)
    monkeypatch.setattr(nash, "verify_nash", counted_verify)
    nash._deviation_splits.cache_clear()
    scenario = get_preset("exp1")
    alpha_sweep(scenario, [i / 100 for i in range(101)], "first")
    assert grids == sorted(set(scenario.build_game().demands))
    assert len(checks) > 100


@settings(max_examples=60, deadline=None)
@given(st.one_of(affine_two_user_games().map(lambda case: case[0]),
                 queue_two_user_games()),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
@example(load_balancing_game([MM1Cost(2.0), LinearCost(0.0), MM1Cost(1.0),
                              LinearCost(0.0)], [1.0, 2.0], [0.0, 0.0]),
         [0.0, 1.0])
def test_verify_nash_is_the_same_with_a_cold_or_warm_cache(game, shares):
    # a profile at the drawn shares of each user's second path, checked
    # with splits built per call (as before the cache), with an empty
    # cache and with a filled one.  In the example, user 2's 2.0 fills l1
    # and leaves user 1 no split that fits: a failed check, not an error
    r = game.demands
    flows = [[ri - ri * f, ri * f] for ri, f in zip(r, shares)]
    profile = assemble_profile(game.net, game.paths, flows, r)
    cached = nash._deviation_splits
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nash, "_deviation_splits", lambda d: [
            (d - t, t) for t in grid(d, nash.DEVIATION_GRID)])
        uncached = repr(verify_nash(game, profile))
    cached.cache_clear()
    assert repr(verify_nash(game, profile)) == uncached
    assert cached.cache_info().currsize == len(set(r))
    assert repr(verify_nash(game, profile)) == uncached


# Each user's two paths in link indices, and the links' ends: parallel
# links, the load-balancing network (user 1 from 1 to 3 on l1 or l3 then
# l2, user 2 from 2 to 3 on l2 or l4 then l1) and a shared first hop.
SWEEP_SHAPES = {
    "parallel": ([(1, 2), (1, 2)], [[(0,), (1,)], [(0,), (1,)]]),
    "load-balancing": ([(1, 3), (2, 3), (1, 2), (2, 1)],
                       [[(0,), (2, 1)], [(1,), (3, 0)]]),
    "shared-first-hop": ([(1, 2), (2, 3), (2, 3)],
                         [[(0, 1), (0, 2)], [(0, 1), (0, 2)]]),
}


@st.composite
def bounded_sweep_cases(draw):
    """User 1 of a two-user shape of ``SWEEP_SHAPES`` on affine and M/M/1
    links, with zero weights and user 2's flows at, below or past an
    M/M/1 capacity; its cooperation row, maybe one with a weight of
    -1e-13, which ``CooperationProfile`` admits; an ``int`` or ``float``
    demand, and a split of it."""
    ends, paths = SWEEP_SHAPES[draw(st.sampled_from(list(SWEEP_SHAPES)))]
    latencies = [
        MM1Cost(draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 3.0)))
        if draw(st.booleans()) else
        LinearCost(draw(st.sampled_from([0.0])
                        | st.floats(0.0, 2.0, allow_subnormal=False)),
                   draw(st.floats(0.0, 1.0)))
        for _ in ends]
    net = build_network([1, 2, 3], [(f"l{i}", a, b, c) for i, ((a, b), c)
                                     in enumerate(zip(ends, latencies))])
    caps = [c.capacity for c in latencies if isinstance(c, MM1Cost)]
    flow = st.sampled_from([0.0, *caps]) | st.floats(0.0, 3.0)
    state = [[0.0, 0.0], draw(st.lists(flow, min_size=2, max_size=2))]
    tiny = draw(st.sampled_from([None] * 4 + [0, 1]))
    if tiny is None:
        a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        row = (1.0 - a, a)
    else:
        # -1e-13 on the user itself (b) or on the other (w and c)
        row = [1.0 + 1e-13] * 2
        row[tiny] = -1e-13
    coop = CooperationProfile((1, 2), (tuple(row), (0.0, 1.0)))
    r = draw(st.sampled_from([1]) | st.floats(0.1, 2.0))
    t = draw(st.sampled_from([0.0, r]) | st.floats(0.0, r))
    return net.links, paths, state, coop.rows[0], r, [r - t, t]


@settings(max_examples=300, deadline=None)
@given(bounded_sweep_cases(), st.floats(0.0, 10.0))
def test_bounded_sweep_reads_what_the_full_sweep_reads(case, rand):
    # below any bound the bounded sweep returns the full sweep's least
    # cost exactly, and otherwise a value at or above the bound; a NaN
    # bound, as a NaN current cost gives when a -1e-13 weight meets an
    # infinite latency, prunes nothing
    links, paths, state, row, r, split = case
    cost = deviation_cost(links, paths, state, row, 0)
    priced = [0]

    def price(points):
        priced[0] += len(points)
        return cost.price(points)

    counted = dataclasses.replace(cost, price=price)
    splits = nash._deviation_splits(r)
    full = min(math.inf, *cost.price(splits))
    for bound in (cost.price([split])[0], math.inf, full, rand):
        got = counted.least_below(splits, bound)
        if not full >= bound:
            assert same_float(got, full), (bound, got, full)
        else:
            assert got >= bound, (bound, got, full)
    if all(w >= 0.0 for w in row):
        assert cost.monotone
    if row[0] < 0.0:
        # a negative self-weight: every split of each of the four sweeps
        assert not cost.monotone
        assert priced[0] == 4 * len(splits)


@pytest.mark.parametrize("preset,build", [
    ("exp1", {"alphas": (0.95, 0.0)}),
    ("braess-lb-asym", {"param": 10.0})])
def test_the_sweep_alone_rejects_a_moved_equilibrium(preset, build,
                                                      monkeypatch):
    # with marginals that always agree and a best response that keeps
    # any profile, the deviation sweep is the only check left: it must
    # still reject 0.01 moved between a user's paths, and by as much as
    # a sweep that prices every split
    game = get_preset(preset).build_game(**build)
    eqs = multistart_nash(game)
    assert len(eqs) >= 1
    monkeypatch.setattr(nash, "path_marginals",
                        lambda links, paths, *rest: [1.0] * len(paths))
    monkeypatch.setattr(nash, "_best_response",
                        lambda game, state, ui: list(state[ui]))
    for eq in eqs:
        assert verify_nash(game, eq.profile).ok
        for ui, (x, y) in enumerate(eq.profile.path_flows):
            move = 0.01 if x >= y else -0.01
            flows = [list(f) for f in eq.profile.path_flows]
            flows[ui] = [x - move, y + move]
            moved = assemble_profile(game.net, game.paths, flows,
                                     game.demands)
            check = verify_nash(game, moved)
            with monkeypatch.context() as m:
                m.setattr(nash, "deviation_cost", all_splits)
                reference = verify_nash(game, moved)
            assert not check.ok
            assert check.max_violation == reference.max_violation
            assert check.max_violation > nash.VERIFY_TOL


# ---------------------------------------------------------------- basins

@st.composite
def ordered_start_games(draw):
    """A two-user load-balancing or parallel game on affine and M/M/1
    links, each M/M/1 capacity 1e-3 to 3 above the demand that can cross
    the link."""
    parallel = draw(st.booleans())
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    latencies = []
    for i in range(2 if parallel else 4):
        through = sum(demands) if parallel else demands[i % 2]
        if draw(st.booleans()):
            latencies.append(MM1Cost(through + draw(st.floats(1e-3, 3.0))))
        else:
            latencies.append(LinearCost(
                draw(st.floats(0.0, 3.0, allow_subnormal=False)),
                draw(st.floats(0.0, 2.0))))
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=2, max_size=2))
    try:
        if parallel:
            return parallel_game(latencies, demands, alphas)
        return load_balancing_game(latencies, demands, alphas)
    except InfeasibleError:
        reject()


def every_start_clusters(game):
    """The dynamics run from every start of the second user, merged in
    grid order: the clusters' states and basins, the non-converged and
    the failed starts."""
    options = nash._start_options(game)
    weight = len(options[0])
    clusters = []
    non_converged = failed = 0
    for start in itertools.product(options[0][:1], *options[1:]):
        try:
            res = br_dynamics(game, start)
        except SolverError:
            failed += weight
            continue
        if not res.converged:
            non_converged += weight
            continue
        nash._cluster_merge(clusters, nash._reduced(game, res.state),
                            res.state, weight)
    return ([(c.state, c.basin) for c in clusters], non_converged, failed)


@settings(max_examples=30, deadline=None)
@given(ordered_start_games())
def test_ordered_starts_match_every_start(game):
    # the map credits each start to where the dynamics from it go, by
    # the order of phi: each cluster of the dynamics from every start is
    # an emitted point with its basin, and the failed starts agree
    clusters, non_converged, failed = every_start_clusters(game)
    assume(non_converged == 0)
    try:
        eqs = multistart_nash(game)
    except SolverError as err:
        assert not clusters and err.diagnostics["failed_starts"] == failed
        return
    assert eqs.diagnostics["failed_starts"] == failed
    reached = [eq for eq in eqs if eq.basin_count]
    assert len(reached) == len(clusters)
    for state, basin in clusters:
        near = [eq for eq in reached if abs(
            eq.profile.path_flows[1][1] - state[1][1]) <= nash.CLUSTER_RADIUS]
        assert [eq.basin_count for eq in near] == [basin], state


# ------------------------------------------ paired games and reused responses

# Each shape of SWEEP_SHAPES as two users' (source, destination).
PAIRED_ENDS = {"parallel": ((1, 2), (1, 2)),
               "load-balancing": ((1, 3), (2, 3)),
               "shared-first-hop": ((1, 3), (1, 3))}


@st.composite
def paired_games(draw, queue=st.booleans()):
    """Two two-path users on a shape of ``SWEEP_SHAPES``, each link M/M/1
    when ``queue`` draws True and affine otherwise.  An M/M/1 capacity
    is drawn around the users' total demand, so that guard brackets
    bind."""
    shape = draw(st.sampled_from(list(SWEEP_SHAPES)))
    ends = SWEEP_SHAPES[shape][0]
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    latencies = [
        MM1Cost(sum(demands) * draw(st.floats(0.3, 1.5))
                + draw(st.floats(1e-3, 1.0)))
        if draw(queue) else
        LinearCost(draw(st.floats(0.0, 3.0, allow_subnormal=False)),
                   draw(st.floats(0.0, 2.0)))
        for _ in ends]
    net = build_network([1, 2, 3], [(f"l{i}", a, b, c) for i, ((a, b), c)
                                     in enumerate(zip(ends, latencies))])
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=2, max_size=2))
    try:
        return make_game(net, [
            UserSpec(k + 1, a, b, r)
            for k, ((a, b), r) in enumerate(zip(PAIRED_ENDS[shape], demands))],
            alphas)
    except InfeasibleError:
        reject()


@settings(max_examples=100, deadline=None)
@given(paired_games(), st.data())
def test_pair_state_loads_are_the_path_walk(game, data):
    # bit for bit, signs of zero included: the loads of a pair's state,
    # as the map's sweeps read them, are the path walk's (a second-path
    # flow of -0.0 loads nothing)
    r = game.demands
    for _ in range(4):
        t = [data.draw(st.sampled_from([0.0, -0.0, ri]) | st.floats(0.0, ri))
             for ri in r]
        state = ((r[0] - t[0], t[0]), (r[1] - t[1], t[1]))
        for i, tp in enumerate(game.two_path):
            walked = walked_loads(game, state, i)
            assert [list(map(repr, v)) for v in _state_loads(
                game, state, i)] == [[repr(v[li]) for li in tp.links]
                                     for v in walked]


@settings(max_examples=40, deadline=None)
@given(paired_games())
def test_map_finds_what_the_scan_finds(game):
    scan_points_are_emitted(game)


# Two users from node 1 to node 3 over u = l0 (1 to 2), v = l1 (2 to 3),
# w = l2 (1 to 3), x = l3 (1 to 2) and y = l4 (2 to 3), each held to two
# of its five paths: user 1 to (u, v) or w, user 2 to (u, y) or (x, v).
# Each user's split moves u one way and v the other way for user 2, so
# the signs are mixed and phi need not be monotone.
MIXED_ENDS = ((1, 2), (2, 3), (1, 3), (1, 2), (2, 3))
MIXED_PATHS = (((0, 1), (2,)), ((0, 4), (3, 1)))


@st.composite
def mixed_sign_games(draw):
    """Two two-path users on the links of ``MIXED_ENDS`` held to
    ``MIXED_PATHS``, each link M/M/1 or affine as in ``paired_games``."""
    demands = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=2))
    latencies = [
        MM1Cost(sum(demands) * draw(st.floats(0.3, 1.5))
                + draw(st.floats(1e-3, 1.0)))
        if draw(st.booleans()) else
        LinearCost(draw(st.floats(0.0, 3.0, allow_subnormal=False)),
                   draw(st.floats(0.0, 2.0)))
        for _ in MIXED_ENDS]
    net = build_network([1, 2, 3], [(f"l{i}", a, b, c) for i, ((a, b), c)
                                     in enumerate(zip(MIXED_ENDS, latencies))])
    alphas = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=2, max_size=2))
    return nash.RoutingGame(
        net, (UserSpec(1, 1, 3, demands[0]), UserSpec(2, 1, 3, demands[1])),
        netmodel.PathSet((1, 2), MIXED_PATHS),
        CooperationProfile.from_alphas((1, 2), alphas))


@settings(max_examples=40, deadline=None)
@given(mixed_sign_games())
def test_mixed_sign_map_finds_what_the_scan_finds(game):
    # with phi not monotone no search closes, and the grid's sign changes
    # of g still hold every point that the scan verifies
    signs = [nash._signs(tp) for tp in game.two_path]
    assert {signs[0][li] * signs[1][li] for li in (0, 1)} == {1, -1}
    try:
        assert multistart_nash(game).diagnostics["scan_coverage"] == "none"
    except SolverError:
        reject()
    scan_points_are_emitted(game)


def solved_reprs(solve, reuse=True):
    """What ``solve()`` returns, as the reprs of its equilibrium sets
    with their diagnostics but the reuse counters, and of every
    ``NashCheck`` it made; with each solve's table of Newton best
    responses, or with every response solved anew."""
    checks = []
    verify = nash.verify_nash

    def recorded(game, profile):
        check = verify(game, profile)
        checks.append(repr(check))
        return check

    def solved_anew(game, ui, tp, lo, hi, others, weighted):
        return tp.split.argmin(lo, hi, others, weighted)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash, "verify_nash", recorded)
        if not reuse:
            mp.setattr(nash, "_split_argmin", solved_anew)
        try:
            sets = solve()
        except SolverError as err:
            sets = [nash.EquilibriumSet((), err.diagnostics)]
    return [repr(s.equilibria) + repr(
        {k: v for k, v in s.diagnostics.items()
         if k not in ("responses", "responses_reused")}) for s in sets], checks


@pytest.mark.parametrize("preset,sweep", [
    ("braess-lb-sym", None), ("braess-lb-asym", None),
    ("exp3", "all"), ("exp4-feasible", "first")])
def test_reused_responses_change_no_answer(preset, sweep):
    def solve():
        if sweep is None:
            table = parameter_sweep(get_preset(preset))
        else:
            table = alpha_sweep(get_preset(preset),
                                [i / 20 for i in range(21)], sweep)
        return [row.equilibria for row in table.rows]

    assert solved_reprs(solve) == solved_reprs(solve, reuse=False)


@settings(max_examples=200, deadline=None)
@given(paired_games(st.sampled_from([True, True, True, False])))
def test_reused_responses_change_no_random_answer(game):
    def solve():
        return [multistart_nash(game)]

    assert solved_reprs(solve) == solved_reprs(solve, reuse=False)


def test_reuse_table_lives_in_one_solve():
    # a second solve of the same game solves every response again
    game = get_preset("braess-lb-sym").build_game(param=10.0)
    first = multistart_nash(game).diagnostics
    assert nash._RESPONSES.get() == (None, None)
    assert first["responses"] > 0 and first["responses_reused"] > 0
    assert multistart_nash(game).diagnostics == first


def test_a_kept_response_is_kept_by_its_bracket():
    # the same loads on a narrower bracket ask another question
    game = get_preset("braess-lb-sym").build_game(param=10.0)
    tp = game.two_path[0]
    assert tp.split.newton
    others, weighted = _state_loads(game, ((1.0, 0.0), (0.5, 0.5)), 0)
    lo, hi = tp.split.bracket(others)
    whole = tp.split.argmin(lo, hi, others, weighted)
    mid = 0.5 * (lo + whole)
    assert lo < mid < whole < hi
    table = {}
    token = nash._RESPONSES.set((game, table))
    try:
        answers = [nash._split_argmin(game, 0, tp, lo, top, others, weighted)
                   for top in (hi, mid, hi)]
    finally:
        nash._RESPONSES.reset(token)
    assert answers == [whole, mid, whole]
    assert sorted(n for _, n in table.values()) == [0, 1]


# ------------------------------ starts that a dropped piece already decides

def map_solve(game, decide=True):
    """``multistart_nash(game)`` as the repr of its equilibria and of its
    diagnostics but the work counters, and the t's at which its map
    evaluated ``phi``; with ``decide`` False the piece lookup decides
    nothing, so that the map evaluates every start, and the search each
    grid interval, as a search from the first start to the last does."""
    seen = []
    piece_sign = nash._piece_sign

    def spied(evaluated, *args):
        seen.append(evaluated)
        return piece_sign(evaluated, *args) if decide else 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nash, "_piece_sign", spied)
        try:
            eqs = multistart_nash(game)
        except SolverError as err:
            eqs = nash.EquilibriumSet((), err.diagnostics)
    diag = {k: v for k, v in eqs.diagnostics.items()
            if k not in ("sweeps", "responses", "responses_reused")}
    # one list, sorted, which the map extends as it evaluates
    assert seen and len(set(map(id, seen))) == 1
    assert len(seen[0]) == eqs.diagnostics["sweeps"]
    return repr(eqs.equilibria) + repr(diag), set(seen[0])


def skipping_changes_nothing(game):
    """The map's answer with the starts a dropped piece decides, and the
    evaluations that decide them, left out is its answer with every start
    evaluated, from a subset of that one's evaluations."""
    got, evaluated = map_solve(game)
    reference, every = map_solve(game, decide=False)
    assert got == reference
    assert evaluated <= every


def failing_start_game():
    """A load-balancing game whose last start fails: above t = 1.915
    user 1 answers with a split beside which user 2 has no feasible
    split.  The search halves that band, where every sweep fails, until
    it runs into ``MAP_EVALS``."""
    return load_balancing_game(
        [LinearCost(1.0), MM1Cost(1.75), LinearCost(0.0), MM1Cost(1.0625)],
        [1.0, 2.0], [0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(paired_games())
@example(failing_start_game())
def test_skipped_starts_change_no_answer(game):
    skipping_changes_nothing(game)


@pytest.mark.parametrize("build", [
    *(lambda args=args: affine_two_user_game(*args)[0]
      for args in ORACLE_EXAMPLES),
    *(lambda args=args: mirror_game(*args) for args in TIED_MIRRORS),
    lambda: get_preset("exp1").build_game(alphas=(0.95, 0.0)),
    lambda: get_preset("braess-lb-asym").build_game(param=1.0),
    failing_start_game,
], ids=["oracle-0", "oracle-1", "oracle-2", "mirror-0", "mirror-1",
        "mirror-2", "exp1-0.95", "braess-lb-asym", "failed-start"])
@pytest.mark.parametrize("capped", [False, True])
def test_skipped_starts_change_no_listed_answer(build, capped, monkeypatch):
    # with no evaluation left for the search, too, as in
    # test_a_capped_search_keeps_the_clear_crossings
    if capped:
        monkeypatch.setattr(nash, "MAP_EVALS", 0)
    game = build()
    skipping_changes_nothing(game)
    if build is failing_start_game:
        diag = multistart_nash(game).diagnostics
        assert 0 < diag["failed_starts"] < diag["total_starts"]
        assert diag["scan_coverage"] == "none"
