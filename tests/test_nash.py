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
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cooproute import (LinearCost, MM1Cost, assemble_profile, br_dynamics,
                       cost_report, get_preset, make_game, multistart_nash,
                       nash, netmodel, verify_nash)
from cooproute.nash import _best_response, profile_from_state
from cooproute.netmodel import UserSpec, build_network


def linear_two_origin(alphas):
    net = build_network([1, 2, 3], [
        ("l1", 1, 3, LinearCost(1.0)),
        ("l2", 2, 3, LinearCost(1.0)),
        ("l3", 1, 2, LinearCost(0.0, 0.5)),
        ("l4", 2, 1, LinearCost(0.0, 0.5)),
    ])
    users = [UserSpec(1, 1, 3, 1.0), UserSpec(2, 2, 3, 1.0)]
    return make_game(net, users, alphas)


def parallel_game(costs, demands, alphas):
    links = [(f"l{i + 1}", 1, 2, c) for i, c in enumerate(costs)]
    net = build_network([1, 2], links)
    users = [UserSpec(i + 1, 1, 2, r) for i, r in enumerate(demands)]
    return make_game(net, users, alphas)


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
            br = _best_response(game, state, 1, 60)
            assert br[1] == pytest.approx(0.125 + 0.5 * x, abs=1e-9)

    def test_response_respects_capacity(self):
        game = parallel_game([MM1Cost(0.6), MM1Cost(4.0)], [1.0], [0.0])
        state = [[0.5, 0.5]]
        br = _best_response(game, state, 0, 60)
        assert br[0] < 0.6
        assert sum(br) == pytest.approx(1.0)

    def test_unusable_path_gets_nothing(self):
        game = parallel_game([MM1Cost(4.0), MM1Cost(0.0)], [1.0], [0.0])
        br = _best_response(game, [[0.5, 0.5]], 0, 60)
        assert br == (1.0, 0.0)


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


class TestDynamics:
    def test_converges_from_corner(self):
        game = linear_two_origin((0.0, 0.0))
        res = br_dynamics(game, [[1.0, 0.0], [1.0, 0.0]])
        assert res.converged
        prof = profile_from_state(game, res.state)
        assert prof.path_flows[0][1] == pytest.approx(0.25, abs=1e-7)
        assert prof.path_flows[1][1] == pytest.approx(0.25, abs=1e-7)

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
        # every scan candidate is verified on admission, and only the
        # clusters dynamics reached are verified again after polishing
        calls = []

        def counted(game, profile):
            calls.append(profile)
            return verify_nash(game, profile)

        monkeypatch.setattr(nash, "verify_nash", counted)
        eqs = multistart_nash(linear_two_origin((0.95, 0.0)))
        reached = sum(1 for eq in eqs if not eq.scan_found)
        assert eqs.diagnostics["scan_added"] == 1
        assert len(calls) == eqs.diagnostics["scan_candidates"] + reached

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
        from cooproute import path_marginal
        game = linear_two_origin((0.0, 0.0))
        eq = multistart_nash(game).equilibria[0]
        check = verify_nash(game, eq.profile)
        lam = check.kkt_multipliers[0]
        direct = path_marginal(game.net, eq.profile, game.coop, 1, ("l1",))
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
        raw = cost_report(game.net, prof, game.coop).raw_costs
        assert all(c < math.inf for c in raw)
        assert verify_nash(game, prof).ok


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
