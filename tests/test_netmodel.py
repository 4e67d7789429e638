import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cooproute import (ConfigError, InfeasibleError, LinearCost, MM1Cost,
                       assemble_profile, build_network, build_path_set,
                       check_feasibility, enumerate_paths, make_game,
                       saturated_links)
from cooproute.costs import CAPACITY_GUARD
from cooproute.netmodel import MAX_PATHS, UserSpec


def ladder(rungs):
    """``rungs`` pairs of parallel links in series: ``2 ** rungs`` simple
    paths from node 0 to node ``rungs``."""
    links = []
    for i in range(rungs):
        links.append((f"u{i}", i, i + 1, LinearCost(1.0)))
        links.append((f"v{i}", i, i + 1, LinearCost(2.0)))
    return build_network(list(range(rungs + 1)), links)


def link_ids(net, paths):
    """Index paths as tuples of link ids."""
    return tuple(tuple(net.links[li].link_id for li in p) for p in paths)


def reference_paths(net, source, target):
    """The recursive walk that ``enumerate_paths`` replaced, over link
    ids: the reference for its order and its refusal."""
    by_source = {}
    for lk in net.links:
        by_source.setdefault(lk.source, []).append(lk)
    found, stack, visited = [], [], {source}

    def walk(node):
        if node == target:
            found.append(tuple(stack))
            if len(found) > MAX_PATHS:
                raise ConfigError(
                    f"more than {MAX_PATHS} paths from {source} to {target}")
            return
        for lk in by_source.get(node, ()):
            if lk.target in visited:
                continue
            visited.add(lk.target)
            stack.append(lk.link_id)
            walk(lk.target)
            stack.pop()
            visited.remove(lk.target)

    walk(source)
    return tuple(found)


@st.composite
def digraphs(draw):
    """A random multigraph on up to 7 nodes and two distinct nodes of it."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                         min_size=1, max_size=30))
    # ids in a drawn order, so that id order is not insertion order
    names = draw(st.permutations(range(len(ends))))
    net = build_network(range(n), [(f"e{k}", u, v, LinearCost(1.0))
                                   for k, (u, v) in zip(names, ends)])
    source = draw(node)
    return net, source, draw(node.filter(lambda t: t != source))


def two_origin_net(direct=4.1, cross=5.0):
    """Two sources, one sink, with a transfer link in each direction."""
    return build_network([1, 2, 3], [
        ("l1", 1, 3, MM1Cost(direct)),
        ("l2", 2, 3, MM1Cost(direct)),
        ("l3", 1, 2, MM1Cost(cross)),
        ("l4", 2, 1, MM1Cost(cross)),
    ])


class TestBuildNetwork:
    def test_links_keep_given_order(self):
        net = two_origin_net()
        assert tuple(lk.link_id for lk in net.links) == ("l1", "l2", "l3",
                                                         "l4")
        assert net.links[2].source == 1

    def test_duplicate_link_ids_rejected(self):
        with pytest.raises(ConfigError):
            build_network([1, 2], [("a", 1, 2, LinearCost(1.0)),
                                   ("a", 1, 2, LinearCost(2.0))])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigError):
            build_network([1, 2], [("a", 1, 1, LinearCost(1.0))])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigError):
            build_network([1, 2], [("a", 1, 3, LinearCost(1.0))])


class TestEnumeratePaths:
    def test_two_origin_paths_in_link_order(self):
        net = two_origin_net()
        assert enumerate_paths(net, 1, 3) == ((0,), (2, 1))
        assert link_ids(net, enumerate_paths(net, 1, 3)) == (("l1",),
                                                             ("l3", "l2"))
        assert link_ids(net, enumerate_paths(net, 2, 3)) == (("l2",),
                                                             ("l4", "l1"))

    def test_no_path_gives_empty_tuple(self):
        net = build_network([1, 2, 3], [("a", 1, 2, LinearCost(1.0))])
        assert enumerate_paths(net, 1, 3) == ()

    def test_cycle_does_not_trap_search(self):
        net = build_network([1, 2, 3], [
            ("a", 1, 2, LinearCost(1.0)),
            ("b", 2, 1, LinearCost(1.0)),
            ("c", 2, 3, LinearCost(1.0)),
        ])
        assert link_ids(net, enumerate_paths(net, 1, 3)) == (("a", "c"),)

    def test_path_explosion_capped(self):
        with pytest.raises(ConfigError):
            enumerate_paths(ladder(11), 0, 11)

    def test_path_cap_admits_exactly_max_paths(self):
        game = make_game(ladder(6), [UserSpec(1, 0, 6, 1.0)], [0.0])
        assert len(game.paths.paths[0]) == MAX_PATHS == 64

    def test_path_cap_refuses_one_path_more(self):
        with pytest.raises(ConfigError, match="more than 64 paths"):
            make_game(ladder(7), [UserSpec(1, 0, 7, 1.0)], [0.0])

    @settings(max_examples=200)
    @given(digraphs())
    @example((ladder(6), 0, 6))
    @example((ladder(7), 0, 7))
    def test_walk_matches_recursive_reference(self, case):
        net, source, target = case

        def outcome(walk):
            try:
                return walk(net, source, target)
            except ConfigError as e:
                return str(e)

        got = outcome(enumerate_paths)
        want = outcome(reference_paths)
        assert (got if isinstance(got, str) else link_ids(net, got)) == want


class TestPathSetAndProfiles:
    def test_missing_path_is_infeasible(self):
        net = build_network([1, 2, 3], [("a", 1, 2, LinearCost(1.0))])
        users = [UserSpec(user_id=1, source=1, target=3, demand=1.0)]
        with pytest.raises(InfeasibleError):
            build_path_set(net, users)

    @pytest.mark.parametrize("demand", [math.nan, math.inf])
    def test_non_finite_demand_rejected(self, demand):
        with pytest.raises(ConfigError):
            UserSpec(user_id=1, source=1, target=3, demand=demand)

    def test_zero_demand_user_may_lack_paths(self):
        net = build_network([1, 2, 3], [("a", 1, 2, LinearCost(1.0))])
        users = [UserSpec(user_id=1, source=1, target=3, demand=0.0)]
        pset = build_path_set(net, users)
        assert pset.paths[pset.user_ids.index(1)] == ()

    def test_assemble_checks_demand(self):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        pset = build_path_set(net, users)
        with pytest.raises(ConfigError):
            assemble_profile(net, pset, [[1.0, 0.5], [1.0, 0.0]],
                             demands=(2.0, 1.0))

    @pytest.mark.parametrize("v", [math.nan, math.inf])
    def test_assemble_rejects_non_finite_flows(self, v):
        # the finiteness check refuses these before the demand check
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        pset = build_path_set(net, users)
        with pytest.raises(ConfigError, match="finite"):
            assemble_profile(net, pset, [[v, 0.5], [1.0, 0.0]],
                             demands=(2.0, 1.0))

    def test_assemble_accumulates_link_flows(self):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        pset = build_path_set(net, users)
        prof = assemble_profile(net, pset, [[1.5, 0.5], [0.25, 0.75]],
                                demands=(2.0, 1.0))
        # l1 carries user 1 direct plus user 2 transfer
        assert prof.total_link_flows == pytest.approx(
            (1.5 + 0.75, 0.5 + 0.25, 0.5, 0.75))

    def test_tiny_negative_flows_are_clamped(self):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 1.0), UserSpec(2, 2, 3, 0.0)]
        pset = build_path_set(net, users)
        prof = assemble_profile(net, pset, [[1.0 + 1e-13, -1e-13],
                                            [0.0, 0.0]], demands=(1.0, 0.0))
        assert prof.path_flows[0][1] == 0.0

    @settings(max_examples=30)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.0))
    def test_totals_are_user_sums(self, t1, t2):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        pset = build_path_set(net, users)
        prof = assemble_profile(net, pset, [[2.0 - t1, t1], [1.0 - t2, t2]],
                                demands=(2.0, 1.0))
        for li in range(4):
            assert prof.total_link_flows[li] == pytest.approx(
                prof.user_link_flows[0][li] + prof.user_link_flows[1][li])


def decide(net, users):
    """``check_feasibility`` over the users' enumerated paths: the exact
    ``lam*`` of a routable game, or None when nothing bounds it."""
    return check_feasibility(net, users, build_path_set(net, users))


def refusal(net, users, match=None):
    """The ``detail`` of the ``InfeasibleError`` that refuses the game."""
    with pytest.raises(InfeasibleError, match=match) as exc:
        decide(net, users)
    return exc.value.detail


def room(capacity):
    """An M/M/1 capacity as the check bounds it, exactly."""
    return Fraction(max(capacity - CAPACITY_GUARD, 0.0))


class TestSaturationAndFeasibility:
    def test_saturated_only_with_positive_flow(self):
        # a zero-capacity link carrying nothing is idle, not saturated
        net = build_network([1, 2], [("a", 1, 2, MM1Cost(1.0)),
                                     ("b", 1, 2, MM1Cost(0.0))])
        users = [UserSpec(1, 1, 2, 1.0)]
        pset = build_path_set(net, users)
        ok = assemble_profile(net, pset, [[0.5, 0.0]], demands=(0.5,))
        assert saturated_links(net, ok) == ()
        bad = assemble_profile(net, pset, [[1.0, 0.0]], demands=(1.0,))
        assert saturated_links(net, bad) == ("a",)

    def test_overloaded_cut_is_infeasible(self):
        net = build_network([1, 2], [("a", 1, 2, MM1Cost(0.001)),
                                     ("b", 1, 2, MM1Cost(0.001))])
        users = [UserSpec(1, 1, 2, 1.0), UserSpec(2, 1, 2, 1.0)]
        assert refusal(net, users) == {
            "lambda": float(room(0.001) * 2 / 2), "links": ["a", "b"],
            "prices": [1, 1]}

    def test_linear_links_never_trigger_cut_check(self):
        net = build_network([1, 2], [("a", 1, 2, LinearCost(1.0))])
        users = [UserSpec(1, 1, 2, 100.0)]
        assert decide(net, users) is None

    def test_feasible_instance_passes(self):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        assert decide(net, users) > 1

    @staticmethod
    def bottleneck_net(bypass=None):
        # a (capacity 1) feeds b and c (capacity 10 each) into node 3
        links = [("a", 1, 2, MM1Cost(1.0)), ("b", 2, 3, MM1Cost(10.0)),
                 ("c", 2, 3, MM1Cost(10.0))]
        if bypass is not None:
            links.append(("d", 1, 2, bypass))
        return build_network([1, 2, 3], links)

    def test_upstream_bottleneck_is_infeasible(self):
        # the cut into node 3 holds 20, but everything crosses a first
        users = [UserSpec(1, 1, 3, 0.75), UserSpec(2, 1, 3, 0.75)]
        assert refusal(self.bottleneck_net(), users, "links a:") == {
            "lambda": float(room(1.0) / Fraction(1.5)), "links": ["a"],
            "prices": [1]}

    @pytest.mark.parametrize("bypass, feasible", [
        (LinearCost(1.0), True), (MM1Cost(0.6), True), (MM1Cost(0.5), False)])
    def test_parallel_bypass_adds_to_the_cut(self, bypass, feasible):
        users = [UserSpec(1, 1, 3, 0.75), UserSpec(2, 1, 3, 0.75)]
        net = self.bottleneck_net(bypass)
        if feasible:
            assert decide(net, users) > 1
        else:
            assert refusal(net, users, "links a, d:")["links"] == ["a", "d"]

    def test_other_users_sources_add_no_capacity(self):
        # user 2 starts at node 2, user 1's destination, but user 1's own
        # demand must still cross a (capacity 1)
        net = build_network([1, 2, 3], [("a", 1, 2, MM1Cost(1.0)),
                                        ("b", 2, 3, LinearCost(1.0))])
        detail = refusal(net, [UserSpec(1, 1, 2, 1.5),
                               UserSpec(2, 2, 3, 1.0)])
        assert (detail["links"], detail["prices"]) == (["a"], [1])

    def test_transfer_links_carry_flow_both_ways(self):
        # l1 alone cannot carry user 1's 4.5, but l3 then l2 can carry
        # the rest; the sink's incoming links hold 8.2 against 8.0
        net = two_origin_net(direct=4.1, cross=5.0)
        assert decide(net, [UserSpec(1, 1, 3, 4.5),
                            UserSpec(2, 2, 3, 3.5)]) == 2 * room(4.1) / 8
        detail = refusal(net, [UserSpec(1, 1, 3, 4.5),
                               UserSpec(2, 2, 3, 3.7)])
        assert detail["lambda"] == float(
            2 * room(4.1) / (Fraction(4.5) + Fraction(3.7)))
        assert (detail["links"], detail["prices"]) == (["l1", "l2"], [1, 1])

    @staticmethod
    def shared_start_net(bypass=None):
        # every path out of node 0 starts on s (capacity 2); users bound
        # for nodes 2 and 3 then part at node 2
        links = [("s", 0, 1, MM1Cost(2.0)), ("a", 1, 2, LinearCost(1.0)),
                 ("b", 1, 2, LinearCost(0.0, 0.5)),
                 ("c", 2, 3, LinearCost(1.0))]
        if bypass is not None:
            links.append(("d", 0, 1, bypass))
        return build_network([0, 1, 2, 3], links)

    @pytest.mark.parametrize("second, refused", [
        (0.7, False), (0.8, True), (1.0, True)])
    def test_link_on_every_path_of_two_destinations(self, second, refused):
        # each destination's own cut holds its demand, but both users
        # must cross s, so the sum of their demands must fit on it
        net = self.shared_start_net()
        users = [UserSpec(1, 0, 2, 1.2), UserSpec(2, 0, 3, second)]
        if not refused:
            assert decide(net, users) == room(2.0) / Fraction(1.2 + second)
            return
        assert refusal(net, users, "links s:") == {
            "lambda": float(room(2.0) / (Fraction(1.2) + Fraction(second))),
            "links": ["s"], "prices": [1]}

    @pytest.mark.parametrize("bypass", [LinearCost(1.0), MM1Cost(0.5)])
    def test_a_bypass_frees_the_shared_link(self, bypass):
        # with a second link from 0 to 1, no path set forces s
        net = self.shared_start_net(bypass)
        users = [UserSpec(1, 0, 2, 1.2), UserSpec(2, 0, 3, 1.0)]
        lam = decide(net, users)
        assert lam is None if isinstance(bypass, LinearCost) else lam > 1
        make_game(net, users, [0.0, 0.0])

    @staticmethod
    def returning_net():
        # s1 and s2 (capacity 1 each) from 0 to 1, then linear a from 1
        # to 2 and b from 2 back to 0
        return build_network([0, 1, 2], [
            ("a", 1, 2, LinearCost(1.0)), ("b", 2, 0, LinearCost(1.0)),
            ("s1", 0, 1, MM1Cost(1.0)), ("s2", 0, 1, MM1Cost(1.0))])

    @pytest.mark.parametrize("second", [1.0, 0.7])
    def test_a_source_at_another_destination_still_counts(self, second):
        # user 2 starts at user 1's destination, and both users must
        # cross {s1, s2}: 2.2 against 2 is refused, 1.9 is not
        users = [UserSpec(1, 0, 2, 1.2), UserSpec(2, 2, 1, second)]
        lam = 2 * room(1.0) / (Fraction(1.2) + Fraction(second))
        if second == 0.7:
            assert decide(self.returning_net(), users) == lam
            return
        assert refusal(self.returning_net(), users, "links s1, s2:") == {
            "lambda": float(lam), "links": ["s1", "s2"], "prices": [1, 1]}

    @pytest.mark.parametrize("demand, refused", [
        (2 - 1e-9, True), (2 - 3e-9, False), (2.0, True)])
    def test_the_guard_is_taken_from_every_capacity(self, demand, refused):
        # two capacity-1 links carry at most 2 - 2e-9 with the solvers'
        # guard on each: a demand between that and 2 gets no guard bracket
        net = build_network([1, 2], [("a", 1, 2, MM1Cost(1.0)),
                                     ("b", 1, 2, MM1Cost(1.0))])
        users = [UserSpec(1, 1, 2, demand)]
        lam = 2 * room(1.0) / Fraction(demand)
        assert (lam <= 1) is refused
        if refused:
            assert refusal(net, users)["lambda"] == float(lam)
        else:
            assert decide(net, users) == lam
            make_game(net, users, [0.0])

    def test_zero_capacity_carries_nothing(self):
        net = build_network([1, 2], [("a", 1, 2, MM1Cost(0.0)),
                                     ("b", 1, 2, MM1Cost(1.0))])
        assert decide(net, [UserSpec(1, 1, 2, 0.5)]) == room(1.0) / 0.5
        assert decide(net, [UserSpec(1, 1, 2, 0.0)]) is None
        net = build_network([1, 2], [("a", 1, 2, MM1Cost(0.0))])
        assert refusal(net, [UserSpec(1, 1, 2, 0.5)]) == {
            "lambda": 0.0, "links": ["a"], "prices": [1]}


def test_a_long_chain_is_decided_by_its_narrowest_link():
    # one user on a path of 1,200 M/M/1 links: lam* is the least room
    # over the demand, found in two pivots
    n, r = 1200, 0.75
    caps = [1.0 + (7919 * i % n) / 100 for i in range(n)]
    net = build_network(range(n + 1), [(f"l{i:04d}", i, i + 1, MM1Cost(c))
                                       for i, c in enumerate(caps)])
    users = [UserSpec(1, 0, n, r)]
    assert decide(net, users) == min(map(room, caps)) / Fraction(r)
    assert make_game(net, users, [0.0]).paths.paths == ((tuple(range(n)),),)


def reference_lambda(net, users, paths):
    """``lam*`` by a different LP, solved by a dense two-phase simplex in
    ``Fraction`` with Bland's rule: the least congestion ``mu`` such that
    every positive demand routes in full with each M/M/1 link's load at
    most ``mu`` times its room.  Then ``lam* = 1 / mu*``; ``mu* = 0``
    (nothing bounds the demand) gives None, and no routing at all 0."""
    cols = [(ui, path) for ui, upaths in enumerate(paths.paths)
            if users[ui].demand > 0 for path in upaths]
    queues = sorted({li for _, path in cols for li in path
                     if isinstance(net.links[li].cost, MM1Cost)})
    # columns: the path flows, mu, a slack per queue, an artificial per
    # row; rows: each user's demand, then each queue's load
    nx = len(cols) + 1 + len(queues)
    bound = sorted({ui for ui, _ in cols})
    rows = [[Fraction(ui == k) for ui, _ in cols] + [Fraction(0)] * (
        1 + len(queues)) + [Fraction(users[k].demand)] for k in bound]
    for q, li in enumerate(queues):
        rows.append([Fraction(li in path) for _, path in cols]
                    + [-room(net.links[li].cost.capacity)]
                    + [Fraction(q == j) for j in range(len(queues))]
                    + [Fraction(0)])
    m = len(rows)
    tab = [row[:-1] + [Fraction(i == j) for j in range(m)] + row[-1:]
           for i, row in enumerate(rows)]
    basis = list(range(nx, nx + m))

    def minimize(cost, allowed):
        while True:
            reduced = [cost[j] - sum(cost[b] * tab[i][j]
                                     for i, b in enumerate(basis))
                       for j in range(nx + m)]
            entering = next((j for j in range(nx + m)
                             if j in allowed and reduced[j] < 0), None)
            if entering is None:
                return sum(cost[b] * tab[i][-1] for i, b in enumerate(basis))
            ratios = [(tab[i][-1] / tab[i][entering], basis[i], i)
                      for i in range(m) if tab[i][entering] > 0]
            assert ratios, "mu is bounded below by 0"
            _, _, r = min(ratios)
            p = tab[r][entering]
            tab[r] = [v / p for v in tab[r]]
            for i in range(m):
                if i != r and tab[i][entering]:
                    f = tab[i][entering]
                    tab[i] = [v - f * w for v, w in zip(tab[i], tab[r])]
            basis[r] = entering

    every = set(range(nx + m))
    if minimize([0] * nx + [1] * m, every) > 0:
        return Fraction(0)
    for i, b in enumerate(basis):
        # drive a zero artificial out of the basis where a column can
        if b >= nx:
            j = next((j for j in range(nx) if tab[i][j]), None)
            if j is not None:
                p = tab[i][j]
                tab[i] = [v / p for v in tab[i]]
                for k in range(m):
                    if k != i and tab[k][j]:
                        f = tab[k][j]
                        tab[k] = [v - f * w for v, w in zip(tab[k], tab[i])]
                basis[i] = j
    mu = minimize([0] * len(cols) + [1] + [0] * (len(queues) + m),
                  set(range(nx)))
    return None if mu == 0 else 1 / mu


@st.composite
def capacity_games(draw):
    """Two or three users on a random network of at most 5 nodes with
    affine and M/M/1 links, zero capacities among them, and, half of the
    time, demands scaled to within a few ulps of the most that fits."""
    n = draw(st.integers(2, 5))
    node = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                         min_size=1, max_size=8))
    caps = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0]),
                     st.floats(1e-3, 3.0))
    net = build_network(range(n), [
        (f"e{k}", u, v, LinearCost(1.0) if c is None else MM1Cost(c))
        for k, ((u, v), c) in enumerate(zip(ends, draw(
            st.lists(caps, min_size=len(ends), max_size=len(ends)))))])
    pairs = [(s, t) for s in range(n) for t in range(n)
             if s != t and enumerate_paths(net, s, t)]
    pair = st.sampled_from(pairs)
    users = [UserSpec(k, *draw(pair), draw(st.one_of(
        st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(1e-3, 3.0))))
        for k in range(1, draw(st.integers(2, 3)) + 1)]
    lam = reference_lambda(net, users, build_path_set(net, users))
    if lam and draw(st.booleans()):
        near = draw(st.sampled_from([1, 1 - 2 ** -52, 1 + 2 ** -52,
                                     1 - 1e-9, 1 + 1e-9]))
        users = [UserSpec(u.user_id, u.source, u.target,
                          float(Fraction(u.demand) * lam * Fraction(near)))
                 for u in users]
    return net, users


@settings(max_examples=150, deadline=None)
@given(capacity_games())
def test_each_decision_carries_its_certificate(case):
    # a routable game's lam* is the reference's; a refused game's link
    # prices y bound it: sum_i r_i dist_y(s_i, t_i) >= sum_l y_l C'_l > 0,
    # over each user's enumerated paths, so no routing of the full demand
    # keeps every M/M/1 load C - CAPACITY_GUARD below its capacity
    net, users = case
    paths = build_path_set(net, users)
    want = reference_lambda(net, users, paths)
    try:
        got = check_feasibility(net, users, paths)
    except InfeasibleError as e:
        ids = [lk.link_id for lk in net.links]
        y = dict.fromkeys(range(len(ids)), 0)
        for lid, price in zip(e.detail["links"], e.detail["prices"]):
            assert isinstance(price, int) and price > 0
            y[ids.index(lid)] = price
        dist = sum(Fraction(u.demand) * min(sum(y[li] for li in path)
                                            for path in upaths)
                   for u, upaths in zip(users, paths.paths) if u.demand > 0)
        capacity = sum(y[li] * room(net.links[li].cost.capacity)
                       for li in y if y[li])
        assert dist >= capacity and dist > 0
        assert want is not None and want <= 1
        assert e.detail["lambda"] == float(want)
        return
    assert got == want and (got is None or got > 1)
