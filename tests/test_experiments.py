from types import SimpleNamespace

import pytest

from cooproute import (ConfigError, InfeasibleError, alpha_sweep,
                       detect_braess, detect_cooperation_paradox,
                       get_preset, parameter_sweep)
from cooproute.experiments import PRESETS, _branch_steps


def steps_of(table):
    return list(_branch_steps([r.equilibria for r in table.rows]))


class TestPresets:
    def test_registry_contents(self):
        names = tuple(PRESETS)
        assert len(names) == 10
        for expected in ("exp1", "exp2", "exp3", "exp4", "exp5",
                         "braess-lb-asym", "braess-lb-sym", "mixed-fig7"):
            assert expected in names

    def test_variants_are_flagged(self):
        assert get_preset("exp3-text").variant
        assert get_preset("exp4-feasible").variant
        assert not get_preset("exp1").variant

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            get_preset("exp99")

    def test_alpha_override(self):
        game = get_preset("exp1").build_game(alphas=(0.3, 0.1))
        assert game.coop.alpha_of(0) == pytest.approx(0.3)
        assert game.coop.alpha_of(1) == pytest.approx(0.1)

    def test_undersized_capacity_preset_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            get_preset("exp4").build_game()

    def test_param_needs_a_parameter(self):
        with pytest.raises(ConfigError, match="no structural parameter"):
            get_preset("exp1").build_game(param=5)

    def test_structural_parameter_grid(self):
        sc = get_preset("exp5")
        assert sc.param is not None
        assert len(sc.param.values) == 51
        assert sc.param.values[0] == 0.0
        assert sc.param.values[-1] == 1000.0

    def test_mixed_preset_builds_scenario(self):
        s = get_preset("mixed-fig7").build_mixed(alpha=0.9)
        assert s.capacity_one == pytest.approx(4.0)
        assert s.alpha == pytest.approx(0.9)

    def test_game_preset_refuses_mixed_build(self):
        with pytest.raises(ConfigError):
            get_preset("exp1").build_mixed()
        with pytest.raises(ConfigError):
            get_preset("mixed-fig7").build_game()


class TestAlphaSweep:
    def test_shared_degree_sweep(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.2, 0.4))
        assert table.parameter == "alpha"
        assert [r.value for r in table.rows] == [0.0, 0.2, 0.4]
        assert table.varied_users == (0, 1)
        # one equilibrium per row on this instance
        assert [len(r.equilibria) for r in table.rows] == [1, 1, 1]
        # one branch through every row
        assert steps_of(table) == [(0, 0, 1, 0, 0, False),
                                   (1, 0, 2, 0, 0, False)]

    def test_first_user_sweep_varies_one_degree(self):
        table = alpha_sweep(get_preset("exp1"), (0.0, 0.4), vary="first")
        assert table.parameter == "alpha_first"
        assert table.varied_users == (0,)
        game_like = table.rows[1].equilibria
        assert len(game_like) == 1

    def test_bad_vary_mode_rejected(self):
        with pytest.raises(ConfigError):
            alpha_sweep(get_preset("exp1"), (0.0,), vary="second")


def test_branch_steps_on_hand_built_rows():
    # one flow per equilibrium; the rows are, by index:
    #   0: []       empty first row
    #   1: [0]      branch 0 born, no row before to compare with
    #   2: [4, 0]   branch 0 goes on at 0; 4 is born as branch 1 and
    #               compared with row 1's 0, which also went on
    #   3: [4, 0]   both branches go on
    #   4: [2]      2 away from both: the tie goes to branch 0, the
    #               lower id, although branch 1 holds equilibrium 0
    #   5: []       empty middle row
    #   6: [7]      branch 2 born, not compared
    #   7: [7]      branch 2 goes on
    rows = [[], [0], [4, 0], [4, 0], [2], [], [7], [7]]
    sets = [SimpleNamespace(equilibria=[
        SimpleNamespace(profile=SimpleNamespace(path_flows=((x,),)))
        for x in row]) for row in rows]
    # branch by branch; a branch's birth step follows its other steps
    assert list(_branch_steps(sets)) == [
        (1, 0, 2, 1, 0, False), (2, 1, 3, 1, 0, False),
        (3, 1, 4, 0, 0, False),
        (2, 0, 3, 0, 1, False), (1, 0, 2, 0, 1, True),
        (6, 0, 7, 0, 2, False)]


class TestParameterSweep:
    def test_branch_birth_has_parent(self):
        sc = get_preset("braess-lb-sym")
        table = parameter_sweep(sc, values=(0.0, 5.0, 6.5, 10.0))
        assert table.parameter == "cross_capacity"
        assert all(r.equilibria for r in table.rows)
        steps = steps_of(table)
        # branch 0 starts on the first row and runs to the last
        assert [s[:4] for s in steps if s[4] == 0] == [
            (0, 0, 1, 0), (1, 0, 2, 0), (2, 0, 3, 0)]
        # no row is empty, so every later branch is compared at its
        # birth with an equilibrium one row earlier
        births = [s for s in steps if s[5]]
        assert births
        assert {s[4] for s in births} == {s[4] for s in steps} - {0}
        assert all(s[2] == s[0] + 1 for s in births)

    def test_requires_a_parameter(self):
        with pytest.raises(ConfigError):
            parameter_sweep(get_preset("exp1"))

    @pytest.mark.parametrize("preset", ["braess-lb-sym", "braess-lb-asym"])
    def test_braess_rows_need_no_scan(self, preset):
        # the support pass's index sum is 1 on every row, with no
        # degenerate point, so the pass closes every row
        table = parameter_sweep(get_preset(preset))
        assert len(table.rows) == 21
        for row in table.rows:
            diag = row.equilibria.diagnostics
            assert (diag["scan_coverage"], diag["index_sum"],
                    diag["degenerate"]) == ("support", 1, 0), row.value


@pytest.mark.parametrize("preset, vary", [
    ("exp1", "first"), ("exp1", "all"), ("exp3", "all"),
    ("braess-lb-sym", None), ("braess-lb-asym", None)])
def test_support_pass_takes_every_dynamics_cluster(preset, vary):
    # on a row that the support pass or the certificate closes, every
    # cluster the dynamics reached lies near a verified root
    scenario = get_preset(preset)
    table = (parameter_sweep(scenario) if vary is None else alpha_sweep(
        scenario, [i / 20 for i in range(21)], vary))
    for row in table.rows:
        diag = row.equilibria.diagnostics
        if diag["scan_coverage"] in ("support", "unique"):
            assert diag["pass_missed"] == 0, row.value


class TestDetectBraess:
    def test_capacity_growth_witness(self):
        table = parameter_sweep(get_preset("braess-lb-sym"),
                                values=(0.0, 5.0, 6.5, 10.0))
        report = detect_braess(table)
        assert report.kind == "braess"
        assert report.found
        w = report.witnesses[0]
        assert w.birth
        assert w.parameter_from == 0.0
        assert w.parameter_to == 5.0
        assert all(b > a for a, b in zip(w.user_costs_from,
                                         w.user_costs_to))

    def test_decreasing_resource_direction(self):
        # the swept slope is a price, so the resource grows as it falls
        table = parameter_sweep(get_preset("exp5"),
                                values=(0.0, 20.0, 40.0))
        report = detect_braess(table, resource_direction="decreasing")
        assert report.found
        w = report.witnesses[0]
        assert w.parameter_from == 40.0
        assert w.parameter_to == 20.0
        assert w.birth

    def test_flat_sweep_has_no_witness(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.1))
        assert not detect_braess(table).found

    def test_direction_must_be_known(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.1))
        with pytest.raises(ConfigError):
            detect_braess(table, resource_direction="sideways")


class TestDetectCooperationParadox:
    def test_own_cost_falls_with_more_weight(self):
        sc = get_preset("exp1")
        table = alpha_sweep(sc, (0.0, 0.1, 0.2, 0.3), vary="first")
        report = detect_cooperation_paradox(table)
        assert report.found
        for w in report.witnesses:
            assert w.user_index == 0
            assert w.user_costs_to[0] < w.user_costs_from[0]

    def test_single_cluster_rows_set_discrepancy(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.2, 0.4))
        report = detect_cooperation_paradox(table)
        assert report.found
        assert report.discrepancy
        assert any("single equilibrium" in n or "one equilibrium" in n
                   for n in report.notes)

    def test_structural_sweep_has_no_varied_user(self):
        table = parameter_sweep(get_preset("exp5"), values=(0.0, 20.0))
        with pytest.raises(ConfigError):
            detect_cooperation_paradox(table)

    def test_user_one_witness_exists(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.2, 0.4))
        report = detect_cooperation_paradox(table)
        assert any(w.user_index == 1 for w in report.witnesses)
