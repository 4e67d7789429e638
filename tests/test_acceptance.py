"""End-to-end acceptance checks for the headline behaviors.

Every test prints one scoreboard line (``criterion N: PASS/FAIL``) before
asserting, so a full run with ``-s`` (or the captured output of any
failure) shows the whole picture at a glance.  The heavy sweeps are
computed once in a module fixture.  The determinism check recomputes all
of them from scratch in a separate Python process, started beside the
fixture's run, and compares the rendered CSV bytes.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import cooproute
from cooproute import (MixedScenario, alpha_sweep, assemble_profile,
                       detect_braess, detect_cooperation_paradox,
                       get_preset, mixed_closed_form, mixed_numeric,
                       multistart_nash, parameter_sweep, verify_mixed,
                       verify_nash)
from cooproute.cli import _fmt, emit_csv

ALPHA_GRID = tuple(i / 100 for i in range(101))
LOW_COOP_ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4)
SYM_MIXED_ALPHAS = (0.1, 0.3, 0.7, 0.9)


def report(num, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}{tail}")


def table_csv(preset_name, table):
    game = get_preset(preset_name).build_game()
    user_ids = tuple(u.user_id for u in game.users)
    link_ids = tuple(lk.link_id for lk in game.net.links)
    return emit_csv([(row.value, row.equilibria) for row in table.rows],
                    user_ids, link_ids)


def solve_rows_csv(preset_name, pairs):
    game = get_preset(preset_name).build_game()
    user_ids = tuple(u.user_id for u in game.users)
    link_ids = tuple(lk.link_id for lk in game.net.links)
    return emit_csv(pairs, user_ids, link_ids)


def mixed_lines(scenario):
    closed = mixed_closed_form(scenario)
    numeric = mixed_numeric(scenario)
    lines = []
    for sol in closed.solutions:
        lines.append(",".join(["closed", sol.case, sol.kind,
                               _fmt(sol.group_split), _fmt(sol.mass_split),
                               str(sol.verified).lower()]))
    for pt in numeric.points:
        lines.append(",".join(["numeric", "", "",
                               _fmt(pt.group_split), _fmt(pt.mass_split),
                               str(pt.verified).lower()]))
    return lines, closed, numeric


def random_mixed_scenarios(n=100, seed=20260821):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        c1 = rng.uniform(1.5, 6.0)
        c2 = rng.uniform(1.5, 6.0)
        r1 = rng.uniform(0.2, 0.45) * (c1 + c2)
        r2 = rng.uniform(0.1, 0.4) * (c1 + c2 - r1)
        alpha = rng.uniform(0.0, 1.0)
        # keeps perfbench's copy in step; test_mixed.py tests these weights
        if abs(2 * alpha - 1) < 0.05:
            continue
        out.append(MixedScenario(c1, c2, r1, r2, alpha))
    return out


def compute_bundle():
    data = {"csv": {}}

    asym = parameter_sweep(get_preset("braess-lb-asym"))
    sym = parameter_sweep(get_preset("braess-lb-sym"))
    data["braess_asym"] = asym
    data["braess_sym"] = sym
    data["csv"]["braess-asym"] = table_csv("braess-lb-asym", asym)
    data["csv"]["braess-sym"] = table_csv("braess-lb-sym", sym)

    exp1 = get_preset("exp1")
    exp1_asym = alpha_sweep(exp1, ALPHA_GRID, vary="first")
    exp1_sym = alpha_sweep(exp1, ALPHA_GRID, vary="all")
    data["exp1_asym"] = exp1_asym
    data["exp1_sym"] = exp1_sym
    data["csv"]["exp1-asym"] = table_csv("exp1", exp1_asym)
    data["csv"]["exp1-sym"] = table_csv("exp1", exp1_sym)

    exp5 = parameter_sweep(get_preset("exp5"))
    data["exp5"] = exp5
    data["csv"]["exp5"] = table_csv("exp5", exp5)

    low = []
    for a in LOW_COOP_ALPHAS:
        game = get_preset("exp4-feasible").build_game(alphas=(a, a))
        low.append((a, game, multistart_nash(game)))
    data["low_coop"] = low
    data["csv"]["low-coop"] = solve_rows_csv(
        "exp4-feasible", [(a, eqs) for a, _, eqs in low])

    sym_mixed = {}
    sym_lines = []
    for a in SYM_MIXED_ALPHAS:
        s = MixedScenario(4.0, 4.0, 1.0, 1.0, a)
        lines, closed, numeric = mixed_lines(s)
        sym_lines += [f"{_fmt(a)},{line}" for line in lines]
        sym_mixed[a] = (s, closed, numeric)
    data["sym_mixed"] = sym_mixed
    data["csv"]["mixed-sym"] = "\n".join(sym_lines) + "\n"

    audit_lines = []
    matches = []
    for s in random_mixed_scenarios():
        closed = mixed_closed_form(s)
        numeric = mixed_numeric(s)
        matches.append((s, closed, numeric))
        audit_lines.append(",".join(
            [_fmt(s.capacity_one), _fmt(s.capacity_two),
             _fmt(s.group_demand), _fmt(s.mass_demand), _fmt(s.alpha),
             str(sum(1 for x in closed.solutions if x.verified)),
             str(len(numeric.points))]))
    data["random_mixed"] = matches
    data["csv"]["mixed-random"] = "\n".join(audit_lines) + "\n"

    return data


# Recomputes the bundle in a fresh interpreter and prints its tables.
RERUN = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
         "from test_acceptance import compute_bundle; "
         "json.dump(compute_bundle()['csv'], sys.stdout)")


@pytest.fixture(scope="module")
def rerun():
    """The tables of a second, independent bundle computation, running
    in its own process while the tests use the first one."""
    paths = [os.path.dirname(os.path.dirname(cooproute.__file__)),
             os.path.dirname(os.path.abspath(__file__))]
    with subprocess.Popen([sys.executable, "-c", RERUN, *paths],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()


@pytest.fixture(scope="module")
def bundle(rerun):
    return compute_bundle()


def endpoint_sets(table):
    return table.rows[-1].equilibria


# Tolerance on every flow and cost the endpoint criteria derive by hand.
TOL = 1e-6


def with_flows(eqs, flows):
    """The equilibrium whose per-user path flows match ``flows``, or None."""
    for eq in eqs:
        if all(abs(got - want) <= TOL
               for got_row, want_row in zip(eq.profile.path_flows, flows)
               for got, want in zip(got_row, want_row)):
            return eq
    return None


def costs_match(costs, expected):
    return all(abs(got - want) <= TOL for got, want in zip(costs, expected))


def describe(eqs):
    return [(tuple(round(c, 9) for c in eq.raw_costs),
             tuple(tuple(round(f, 9) for f in row)
                   for row in eq.profile.path_flows)) for eq in eqs]


def bisect_root(f, lo, hi):
    """Root of ``f`` on ``[lo, hi]``, given a sign change at the ends."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Both capacity-sweep presets at their endpoint: M/M/1 direct links l1, l2
# of capacity 4.1, crossing links l3, l4 of capacity 10, demands (2, 1).
# User 1 routes over (l1) or (l3, l2); user 2 over (l2) or (l4, l1).
# The all-direct equilibrium costs J1 = 2/2.1 and J2 = 1/3.1 in both games;
# an equilibrium that costs both users more than this is the Braess effect.
DIRECT_FLOWS = ((2.0, 0.0), (1.0, 0.0))
DIRECT_COSTS = (2 / 2.1, 1 / 3.1)


def check_braess_endpoint(num, eqs, crossed_flows, crossed_costs):
    baseline = with_flows(eqs, DIRECT_FLOWS)
    crossed = with_flows(eqs, crossed_flows)
    ok = (baseline is not None
          and costs_match(baseline.raw_costs, DIRECT_COSTS)
          and crossed is not None
          and costs_match(crossed.raw_costs, crossed_costs)
          and all(c > d for c, d in zip(crossed.raw_costs, DIRECT_COSTS)))
    report(num, ok, f"crossed equilibrium: "
                    f"{describe([crossed]) if crossed else None}")
    assert baseline is not None, (
        f"missing the all-direct equilibrium; found {describe(eqs)}")
    assert costs_match(baseline.raw_costs, DIRECT_COSTS), (
        f"all-direct equilibrium should cost {DIRECT_COSTS}; "
        f"found {describe([baseline])}")
    assert crossed is not None, (
        f"missing the crossed equilibrium with flows {crossed_flows}; "
        f"found {describe(eqs)}")
    assert costs_match(crossed.raw_costs, crossed_costs), (
        f"crossed equilibrium should cost {crossed_costs}; "
        f"found {describe([crossed])}")
    assert all(c > d for c, d in zip(crossed.raw_costs, DIRECT_COSTS)), (
        f"crossed equilibrium {describe([crossed])} does not cost every "
        f"user more than the all-direct {DIRECT_COSTS}")


def test_criterion_01_asymmetric_capacity_endpoint(bundle):
    # alpha = (0.93, 0).  In the crossed equilibrium user 1 sends all of
    # its demand 2 across; selfish user 2 sends x direct and y = 1 - x
    # across.  Link loads are l1 = y, l2 = 2 + x, l3 = 2, l4 = y, so
    #   J1 = 2 (1/(1.1 + y) + 1/8)
    #   J2 = (1 - y)/(1.1 + y) + y (1/(10 - y) + 1/(4.1 - y))
    # and y equalizes user 2's two path marginals (its first-order
    # condition):
    #   2.1/(1.1 + y)^2 = 10/(10 - y)^2 + 4.1/(4.1 - y)^2.
    # Its root is y = 0.904810863, so x = 0.095189137 and
    # (J1, J2) = (1.247600341, 0.430141841).
    y = bisect_root(lambda y: 2.1 / (1.1 + y) ** 2 - 10 / (10 - y) ** 2
                    - 4.1 / (4.1 - y) ** 2, 0.0, 1.0)
    j1 = 2 * (1 / (1.1 + y) + 1 / 8)
    j2 = (1 - y) / (1.1 + y) + y * (1 / (10 - y) + 1 / (4.1 - y))
    check_braess_endpoint(1, endpoint_sets(bundle["braess_asym"]),
                          ((0.0, 2.0), (1 - y, y)), (j1, j2))


def test_criterion_02_symmetric_capacity_endpoint(bundle):
    # alpha = (0.9, 0.9).  The crossed equilibrium is the full swap: user 1
    # sends 2 across and user 2 sends 1 across, so the link loads are
    # l1 = 1, l2 = 2, l3 = 2, l4 = 1 and
    #   J1 = 2 (1/(4.1 - 2) + 1/(10 - 2)) = 2 (1/2.1 + 1/8) = 1.202380952
    #   J2 = 1/(10 - 1) + 1/(4.1 - 1) = 1/9 + 1/3.1 = 0.433691756.
    check_braess_endpoint(2, endpoint_sets(bundle["braess_sym"]),
                          ((0.0, 2.0), (0.0, 1.0)),
                          (2 * (1 / 2.1 + 1 / 8), 1 / 9 + 1 / 3.1))


def test_criterion_03_braess_witnesses(bundle):
    rep_a = detect_braess(bundle["braess_asym"])
    rep_s = detect_braess(bundle["braess_sym"])
    ok = rep_a.found and rep_s.found
    report(3, ok, f"witnesses: asym {len(rep_a.witnesses)}, "
                  f"sym {len(rep_s.witnesses)}")
    assert rep_a.found and rep_a.witnesses
    assert rep_s.found and rep_s.witnesses
    for w in rep_a.witnesses + rep_s.witnesses:
        assert all(b > a for a, b in zip(w.user_costs_from,
                                         w.user_costs_to))


def test_criterion_04_multiplicity_window(bundle):
    counts = [len(row.equilibria) for row in bundle["exp1_asym"].rows]
    ok = any(c >= 3 for c in counts) and any(c == 1 for c in counts)
    report(4, ok, f"cluster counts range {min(counts)}..{max(counts)}")
    assert any(c >= 3 for c in counts)
    assert any(c == 1 for c in counts)


def test_criterion_05_low_cooperation_uniqueness(bundle):
    sizes = {}
    diameters = {}
    for a, _, eqs in bundle["low_coop"]:
        sizes[a] = len(eqs)
        diameters[a] = max(eq.cluster_diameter for eq in eqs)
    ok = (all(v == 1 for v in sizes.values())
          and all(d < 1e-5 for d in diameters.values()))
    report(5, ok, f"sizes {sorted(sizes.values())}, "
                  f"max diameter {max(diameters.values()):.2e}")
    assert all(v == 1 for v in sizes.values()), sizes
    assert all(d < 1e-5 for d in diameters.values()), diameters


def test_criterion_06_cooperation_paradox_windows(bundle):
    rep_a = detect_cooperation_paradox(bundle["exp1_asym"])
    rep_s = detect_cooperation_paradox(bundle["exp1_sym"])
    high = [w for w in rep_a.witnesses
            if w.parameter_to > 0.8 and w.parameter_from < 1.0]
    low = [w for w in rep_s.witnesses
           if 0.0 < w.parameter_from and w.parameter_to < 0.5]
    ok = rep_a.found and rep_s.found and bool(high) and bool(low)
    report(6, ok, f"asym witnesses above 0.8: {len(high)}, "
                  f"sym witnesses inside (0, 0.5): {len(low)}")
    assert rep_a.found and high
    assert rep_s.found and low


def test_criterion_07_symmetric_mixed_split(bundle):
    centered = True
    corner_rule = True
    for a, (s, closed, numeric) in bundle["sym_mixed"].items():
        interior = [x for x in closed.solutions
                    if x.kind == "interior" and x.verified]
        centered &= bool(interior) and \
            abs(interior[0].group_split - 0.5) <= 1e-9 and \
            abs(interior[0].mass_split - 0.5) <= 1e-9
        near = [p for p in numeric.points
                if abs(p.group_split - 0.5) < 0.1]
        centered &= bool(near) and \
            abs(near[0].group_split - 0.5) <= 1e-9 and \
            abs(near[0].mass_split - 0.5) <= 1e-9
        for corner in ((0.0, 0.0), (s.group_demand, s.mass_demand)):
            check = verify_mixed(s, *corner)
            corner_rule &= check.ok == (a >= 0.5)
    ok = centered and corner_rule
    report(7, ok, f"alphas {SYM_MIXED_ALPHAS}")
    assert centered
    assert corner_rule


def test_criterion_08_closed_form_against_oracle(bundle):
    unmatched_closed = []
    unmatched_numeric = []
    for s, closed, numeric in bundle["random_mixed"]:
        pts = [(p.group_split, p.mass_split) for p in numeric.points]
        for sol in closed.solutions:
            if not (sol.verified and sol.kind == "interior"):
                continue
            if not any(abs(sol.group_split - x) <= 1e-6
                       and abs(sol.mass_split - w) <= 1e-6
                       for x, w in pts):
                unmatched_closed.append((s, sol.case, sol.group_split,
                                         sol.quad_a, sol.quad_b,
                                         sol.quad_c))
        cands = [(x.group_split, x.mass_split) for x in closed.solutions
                 if x.verified]
        for p in numeric.points:
            if not p.verified:
                continue
            if p.group_split <= 1e-7 or \
                    p.group_split >= s.group_demand - 1e-7:
                continue
            if not any(abs(p.group_split - x) <= 1e-6
                       and abs(p.mass_split - w) <= 1e-6
                       for x, w in cands):
                unmatched_numeric.append((s, p.group_split, p.mass_split))
    ok = not unmatched_closed and not unmatched_numeric
    report(8, ok, f"{len(bundle['random_mixed'])} scenarios, "
                  f"{len(unmatched_closed)} closed-form misses, "
                  f"{len(unmatched_numeric)} oracle misses")
    assert not unmatched_closed, unmatched_closed[:3]
    assert not unmatched_numeric, unmatched_numeric[:3]


def _gather_games(bundle):
    out = []
    asym_game = get_preset("braess-lb-asym").build_game()
    for eq in endpoint_sets(bundle["braess_asym"]):
        out.append((asym_game, eq))
    sym_game = get_preset("braess-lb-sym").build_game()
    for eq in endpoint_sets(bundle["braess_sym"]):
        out.append((sym_game, eq))
    for a in (0.0, 0.95, 1.0):
        game = get_preset("exp1").build_game(alphas=(a, 0.0))
        for eq in multistart_nash(game):
            out.append((game, eq))
    for a, game, eqs in bundle["low_coop"]:
        for eq in eqs:
            out.append((game, eq))
    return out


def test_criterion_09_verification_gate(bundle):
    gathered = _gather_games(bundle)
    clean = True
    perturbed_caught = True
    for game, eq in gathered:
        check = verify_nash(game, eq.profile)
        clean &= check.ok and check.max_violation <= 1e-6
        moved = [list(row) for row in eq.profile.path_flows]
        if moved[0][0] >= 0.05:
            moved[0][0] -= 0.05
            moved[0][1] += 0.05
        else:
            moved[0][0] += 0.05
            moved[0][1] -= 0.05
        if min(moved[0]) >= 0.0:
            prof = assemble_profile(game.net, game.paths, moved,
                                    [u.demand for u in game.users])
            perturbed_caught &= not verify_nash(game, prof).ok
    ok = clean and perturbed_caught
    report(9, ok, f"{len(gathered)} equilibria checked")
    assert clean
    assert perturbed_caught


# exp5: affine direct links 4.1 f, crossing links c f + 0.5, unit demands,
# alpha = (0.93, 0.93).  In the swap equilibrium both users send everything
# across, so each pays (c + 0.5) + 4.1 = c + 4.6.  As user 1 shifts flow
# onto its direct link, its own cost changes at rate -2c - 4.6 and user 2's
# at rate 4.1; the swap stays an equilibrium while
#   0.07 (-2c - 4.6) + 0.93 * 4.1 >= 0,  that is  c <= C_STAR = 24.936.
# The all-direct equilibrium costs 4.1 per user at every c.
EXP5_ALPHA = 0.93
C_STAR = (EXP5_ALPHA * 4.1 - (1 - EXP5_ALPHA) * 4.6) / (2 * (1 - EXP5_ALPHA))
EXP5_SWAP_FLOWS = ((0.0, 1.0), (0.0, 1.0))
EXP5_DIRECT_FLOWS = ((1.0, 0.0), (1.0, 0.0))


def test_criterion_10_priced_out_crossing(bundle):
    table = bundle["exp5"]
    multi = [row for row in table.rows if len(row.equilibria) >= 2]
    coexist = len(multi) >= 2
    values = [row.value for row in multi]
    expected_values = [row.value for row in table.rows
                       if row.value <= C_STAR]
    swap_costs = {}
    for row in multi:
        swap = with_flows(row.equilibria, EXP5_SWAP_FLOWS)
        swap_costs[row.value] = None if swap is None else swap.raw_costs
    swap_ok = all(cost is not None
                  and costs_match(cost, (c + 4.6, c + 4.6))
                  for c, cost in swap_costs.items())
    worst_at_zero = max(max(eq.raw_costs) for eq in table.rows[0].equilibria)
    priced_out = []
    for row in table.rows:
        if row.value <= C_STAR:
            continue
        direct = with_flows(row.equilibria, EXP5_DIRECT_FLOWS)
        if not (len(row.equilibria) == 1 and direct is not None
                and costs_match(direct.raw_costs, (4.1, 4.1))
                and max(direct.raw_costs) < worst_at_zero):
            priced_out.append(row.value)
    ok = (coexist and values == expected_values and swap_ok
          and not priced_out)
    report(10, ok, f"branches coexist at c={values}, "
                   f"swap costs {swap_costs}")
    assert coexist, "no sub-interval with at least two branches"
    assert values == expected_values, (
        f"several equilibria at c={values}; the swap equilibrium exists "
        f"exactly for c <= {C_STAR}, i.e. c={expected_values}")
    assert swap_ok, (
        f"swap equilibrium should cost c + 4.6 per user; found {swap_costs}")
    assert not priced_out, (
        f"rows past c={C_STAR} should hold only the all-direct "
        f"equilibrium at (4.1, 4.1); failing rows c={priced_out}")


def test_criterion_11_byte_identical_reruns(bundle, rerun):
    out, _ = rerun.communicate(timeout=1800)
    assert rerun.returncode == 0, "the rerun process failed"
    again = json.loads(out)
    mismatched = [k for k in bundle["csv"]
                  if bundle["csv"][k] != again.get(k)]
    ok = not mismatched
    report(11, ok, f"{len(bundle['csv'])} rendered tables compared")
    assert not mismatched, mismatched
