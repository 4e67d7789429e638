import pytest

from cooproute import (ConfigError, InfeasibleError, alpha_sweep,
                       detect_braess, detect_cooperation_paradox,
                       get_preset, parameter_sweep)
from cooproute.experiments import PRESETS


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
        assert len(table.branches) == 1
        assert table.branches[0].entries == ((0, 0), (1, 0), (2, 0))

    def test_first_user_sweep_varies_one_degree(self):
        table = alpha_sweep(get_preset("exp1"), (0.0, 0.4), vary="first")
        assert table.parameter == "alpha_first"
        assert table.varied_users == (0,)
        game_like = table.rows[1].equilibria
        assert len(game_like) == 1

    def test_bad_vary_mode_rejected(self):
        with pytest.raises(ConfigError):
            alpha_sweep(get_preset("exp1"), (0.0,), vary="second")


class TestParameterSweep:
    def test_branch_birth_has_parent(self):
        sc = get_preset("braess-lb-sym")
        table = parameter_sweep(sc, values=(0.0, 5.0, 6.5, 10.0))
        assert table.parameter == "cross_capacity"
        base = table.branches[0]
        assert base.born_at == 0
        assert base.parent is None
        assert len(base.entries) == 4
        born_later = [b for b in table.branches if b.born_at > 0]
        assert born_later
        for b in born_later:
            assert b.parent is not None

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

    def test_explicit_user_selection(self):
        table = alpha_sweep(get_preset("exp2"), (0.0, 0.2, 0.4))
        report = detect_cooperation_paradox(table, users=(1,))
        assert report.found
        assert all(w.user_index == 1 for w in report.witnesses)
