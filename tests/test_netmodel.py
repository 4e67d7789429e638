import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cooproute import (ConfigError, InfeasibleError, LinearCost, MM1Cost,
                       assemble_profile, build_network, build_path_set,
                       check_feasibility, enumerate_paths, make_game,
                       saturated_links)
from cooproute.netmodel import MAX_PATHS, UserSpec, check_shared_links


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
        with pytest.raises(InfeasibleError) as exc:
            check_feasibility(net, users)
        assert exc.value.detail is not None
        assert exc.value.detail["demand"] == pytest.approx(2.0)

    def test_linear_links_never_trigger_cut_check(self):
        net = build_network([1, 2], [("a", 1, 2, LinearCost(1.0))])
        users = [UserSpec(1, 1, 2, 100.0)]
        check_feasibility(net, users)

    def test_feasible_instance_passes(self):
        net = two_origin_net()
        users = [UserSpec(1, 1, 3, 2.0), UserSpec(2, 2, 3, 1.0)]
        check_feasibility(net, users)

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
        with pytest.raises(InfeasibleError, match="cut through links a") \
                as exc:
            check_feasibility(self.bottleneck_net(), users)
        assert exc.value.detail == {"node": 3, "demand": 1.5,
                                    "capacity": 1.0, "links": ["a"]}

    @pytest.mark.parametrize("bypass, feasible", [
        (LinearCost(1.0), True), (MM1Cost(0.6), True), (MM1Cost(0.5), False)])
    def test_parallel_bypass_adds_to_the_cut(self, bypass, feasible):
        users = [UserSpec(1, 1, 3, 0.75), UserSpec(2, 1, 3, 0.75)]
        net = self.bottleneck_net(bypass)
        if feasible:
            check_feasibility(net, users)
        else:
            with pytest.raises(InfeasibleError, match="links a, d"):
                check_feasibility(net, users)

    def test_other_users_sources_add_no_capacity(self):
        # user 2 starts at node 2, user 1's destination, but user 1's own
        # demand must still cross a (capacity 1)
        net = build_network([1, 2, 3], [("a", 1, 2, MM1Cost(1.0)),
                                        ("b", 2, 3, LinearCost(1.0))])
        with pytest.raises(InfeasibleError, match="incoming links"):
            check_feasibility(net, [UserSpec(1, 1, 2, 1.5),
                                    UserSpec(2, 2, 3, 1.0)])

    def test_transfer_links_carry_flow_both_ways(self):
        # l1 alone cannot carry user 1's 4.5, but l3 then l2 can carry
        # the rest; the sink's incoming links hold 8.2 against 8.0
        net = two_origin_net(direct=4.1, cross=5.0)
        check_feasibility(net, [UserSpec(1, 1, 3, 4.5),
                                UserSpec(2, 2, 3, 3.5)])
        with pytest.raises(InfeasibleError, match="incoming links"):
            check_feasibility(net, [UserSpec(1, 1, 3, 4.5),
                                    UserSpec(2, 2, 3, 3.7)])

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
        paths = build_path_set(net, users)
        check_feasibility(net, users)
        if not refused:
            check_shared_links(net, users, paths)
            return
        with pytest.raises(InfeasibleError, match="link 's'") as exc:
            check_shared_links(net, users, paths)
        assert exc.value.detail == {"link": "s", "demand": 1.2 + second,
                                    "capacity": 2.0}

    @pytest.mark.parametrize("bypass", [LinearCost(1.0), MM1Cost(0.5)])
    def test_a_bypass_frees_the_shared_link(self, bypass):
        # with a second link from 0 to 1, no path set forces s
        net = self.shared_start_net(bypass)
        users = [UserSpec(1, 0, 2, 1.2), UserSpec(2, 0, 3, 1.0)]
        check_shared_links(net, users, build_path_set(net, users))
        make_game(net, users, [0.0, 0.0])

    def test_cut_message_comes_first(self):
        # make_game reports one destination's overloaded cut as before,
        # even when a shared link is overloaded too
        net = self.shared_start_net()
        users = [UserSpec(1, 0, 2, 2.5), UserSpec(2, 0, 3, 1.0)]
        with pytest.raises(InfeasibleError, match="into node 2"):
            make_game(net, users, [0.0, 0.0])
