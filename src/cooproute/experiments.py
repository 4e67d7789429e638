"""Preset scenarios, parameter sweeps, and paradox detection.

A sweep re-solves a preset's game at every value of one scalar (a
cooperation degree or a structural parameter such as a cross-link
capacity) and stitches the equilibrium sets into branches by
nearest-neighbor continuation.  New branches remember which existing
branch they split from, so the detectors can compare a newborn
equilibrium against its predecessor one step earlier.

Two detectors walk the branches: one looks for everyone's cost rising as
resources grow (within a branch or across a branch birth), the other for
a user's own cost falling as that user's cooperation degree rises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .costs import LinearCost, MM1Cost
from .errors import ConfigError
from .mixed import MixedScenario
from .nash import EquilibriumSet, RoutingGame, make_game, multistart_nash
from .netmodel import UserSpec, build_network


def _load_balancing_net(direct_one, direct_two, cross_onetwo, cross_twoone):
    # Two origins feeding one destination, with a transfer link each way.
    return build_network((1, 2, 3), [
        ("l1", 1, 3, direct_one),
        ("l2", 2, 3, direct_two),
        ("l3", 1, 2, cross_onetwo),
        ("l4", 2, 1, cross_twoone),
    ])


def _parallel_net(first, second):
    return build_network((1, 2), [
        ("l1", 1, 2, first),
        ("l2", 1, 2, second),
    ])


@dataclass(frozen=True)
class SweepParameter:
    """A structural parameter and the grid a preset sweeps it over."""

    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A named, buildable setup: either a routing game or a mixed pair.

    ``builder(alphas, param)`` produces the concrete game or mixed
    scenario; ``assumed`` lists the conventions filled in where the setup
    leaves a value open, and is surfaced in run manifests.
    """

    name: str
    description: str
    kind: str
    base_alphas: tuple[float, ...]
    builder: Callable = field(compare=False, repr=False)
    param: SweepParameter | None = None
    default_param: float | None = None
    variant: bool = False
    assumed: tuple[str, ...] = ()

    def build_game(self, alphas: Sequence[float] | None = None,
                   param: float | None = None) -> RoutingGame:
        if self.kind != "game":
            raise ConfigError(f"preset {self.name!r} is not a routing game")
        if param is not None and self.param is None:
            raise ConfigError(f"{self.name!r} has no structural parameter")
        a = tuple(alphas) if alphas is not None else self.base_alphas
        p = param if param is not None else self.default_param
        return self.builder(a, p)

    def build_mixed(self, alpha: float | None = None) -> MixedScenario:
        if self.kind != "mixed":
            raise ConfigError(f"preset {self.name!r} is not a mixed setup")
        a = alpha if alpha is not None else self.base_alphas[0]
        return self.builder((a,), None)


def _two_origin_users(demands) -> list[UserSpec]:
    return [UserSpec(user_id=1, source=1, target=3, demand=demands[0]),
            UserSpec(user_id=2, source=2, target=3, demand=demands[1])]


def _exp1_builder(alphas, param):
    net = _load_balancing_net(LinearCost(1.0, 0.0), LinearCost(1.0, 0.0),
                              LinearCost(0.0, 0.5), LinearCost(0.0, 0.5))
    return make_game(net, _two_origin_users((1.0, 1.0)), alphas)


def _exp2_builder(alphas, param):
    net = _parallel_net(LinearCost(1.0, 0.0), LinearCost(0.0, 0.5))
    users = [UserSpec(user_id=1, source=1, target=2, demand=1.0),
             UserSpec(user_id=2, source=1, target=2, demand=1.0)]
    return make_game(net, users, alphas)


def _exp3_builder(alphas, param):
    net = _load_balancing_net(MM1Cost(4.1), MM1Cost(4.1),
                              MM1Cost(5.0), MM1Cost(5.0))
    return make_game(net, _two_origin_users((1.0, 1.0)), alphas)


def _exp3_text_builder(alphas, param):
    net = _load_balancing_net(LinearCost(4.0, 1.0), LinearCost(2.0, 2.0),
                              LinearCost(0.0, 0.5), LinearCost(0.0, 0.5))
    return make_game(net, _two_origin_users((1.2, 1.0)), alphas)


def _exp4_builder(capacity):
    def build(alphas, param):
        net = _parallel_net(MM1Cost(capacity), MM1Cost(capacity))
        users = [UserSpec(user_id=1, source=1, target=2, demand=1.0),
                 UserSpec(user_id=2, source=1, target=2, demand=1.0)]
        return make_game(net, users, alphas)
    return build


def _exp5_builder(alphas, param):
    slope = float(param)
    net = _load_balancing_net(LinearCost(4.1, 0.0), LinearCost(4.1, 0.0),
                              LinearCost(slope, 0.5), LinearCost(slope, 0.5))
    return make_game(net, _two_origin_users((1.0, 1.0)), alphas)


def _braess_builder(alphas, param):
    cap = float(param)
    net = _load_balancing_net(MM1Cost(4.1), MM1Cost(4.1),
                              MM1Cost(cap), MM1Cost(cap))
    return make_game(net, _two_origin_users((2.0, 1.0)), alphas)


def _mixed_fig_builder(alphas, param):
    return MixedScenario(capacity_one=4.0, capacity_two=3.0,
                         group_demand=1.2, mass_demand=1.0,
                         alpha=alphas[0])


def _make_presets() -> dict[str, Scenario]:
    presets: dict[str, Scenario] = {}
    presets["exp1"] = Scenario(
        name="exp1",
        description="Two origins, one destination; linear direct links and "
                    "constant-delay transfer links",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp1_builder,
        assumed=("direct links use unit slope and zero intercept",
                 "both demands set to 1"))
    presets["exp2"] = Scenario(
        name="exp2",
        description="Two parallel links shared by two users; the second "
                    "link has a constant delay",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp2_builder,
        assumed=("the constant delay is assigned to the second link",
                 "both demands set to 1"))
    presets["exp3"] = Scenario(
        name="exp3",
        description="Two origins, one destination; capacity-limited links "
                    "throughout",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp3_builder)
    presets["exp3-text"] = Scenario(
        name="exp3-text",
        description="Two origins, one destination; uneven linear direct "
                    "links and constant-delay transfer links",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp3_text_builder,
        variant=True,
        assumed=("transfer links carry a constant delay of 0.5",))
    presets["exp4"] = Scenario(
        name="exp4",
        description="Two parallel links whose combined capacity cannot "
                    "carry the demand; building it reports infeasibility",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp4_builder(0.001),
        assumed=("both demands set to 1",))
    presets["exp4-feasible"] = Scenario(
        name="exp4-feasible",
        description="The same parallel setup with workable capacities",
        kind="game", base_alphas=(0.0, 0.0), builder=_exp4_builder(4.1),
        variant=True,
        assumed=("both demands set to 1",))
    presets["exp5"] = Scenario(
        name="exp5",
        description="Two origins, one destination; transfer-link slope "
                    "swept upward to price the crossing out",
        kind="game", base_alphas=(0.93, 0.93), builder=_exp5_builder,
        param=SweepParameter(
            name="cross_slope",
            values=tuple(float(c) for c in range(0, 1001, 20))),
        default_param=0.0,
        assumed=("direct links use slope 4.1 and zero intercept",
                 "both demands set to 1"))
    presets["braess-lb-asym"] = Scenario(
        name="braess-lb-asym",
        description="Capacity-limited network where only the first user "
                    "cooperates; transfer capacity swept upward",
        kind="game", base_alphas=(0.93, 0.0), builder=_braess_builder,
        param=SweepParameter(
            name="cross_capacity",
            values=tuple(0.5 * i for i in range(21))),
        default_param=10.0)
    presets["braess-lb-sym"] = Scenario(
        name="braess-lb-sym",
        description="Capacity-limited network with both users cooperating; "
                    "transfer capacity swept upward",
        kind="game", base_alphas=(0.9, 0.9), builder=_braess_builder,
        param=SweepParameter(
            name="cross_capacity",
            values=tuple(0.5 * i for i in range(21))),
        default_param=10.0)
    presets["mixed-fig7"] = Scenario(
        name="mixed-fig7",
        description="One coordinated flow beside a selfish background "
                    "mass on two parallel capacity-limited links",
        kind="mixed", base_alphas=(0.7,), builder=_mixed_fig_builder)
    return presets


PRESETS: dict[str, Scenario] = _make_presets()


def get_preset(name: str) -> Scenario:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(PRESETS)
        raise ConfigError(f"unknown preset {name!r}; known: {known}") from None


@dataclass(frozen=True)
class SweepRow:
    value: float
    equilibria: EquilibriumSet


@dataclass(frozen=True)
class Branch:
    """A continued equilibrium across sweep rows.

    ``entries`` are (row index, equilibrium index) pairs; ``parent`` is
    the branch this one split from when it was born after row zero.
    """

    index: int
    born_at: int
    parent: int | None
    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SweepTable:
    scenario: str
    parameter: str
    rows: tuple[SweepRow, ...]
    branches: tuple[Branch, ...]
    varied_users: tuple[int, ...]


def _flow_vector(eq) -> tuple[float, ...]:
    return tuple(v for flows in eq.profile.path_flows for v in flows)


def _match_lineage(sets: Sequence[EquilibriumSet]) -> tuple[Branch, ...]:
    """Continuation matching: nearest neighbors carry a branch forward,
    unmatched newcomers are born with the nearest predecessor as parent."""
    raw: list[dict] = []
    prev_vecs: list[tuple[int, tuple[float, ...]]] = []
    for k, eqset in enumerate(sets):
        vecs = [_flow_vector(e) for e in eqset.equilibria]
        if k == 0:
            for i, v in enumerate(vecs):
                raw.append({"entries": [(0, i)], "last": v,
                            "parent": None, "born_at": 0})
            prev_vecs = [(bi, b["last"]) for bi, b in enumerate(raw)]
            continue
        alive = [bi for bi, b in enumerate(raw)
                 if b["entries"][-1][0] == k - 1]
        pairs = sorted(
            (max(abs(a - b) for a, b in zip(raw[bi]["last"], v)), bi, i)
            for bi in alive for i, v in enumerate(vecs))
        used_b: set[int] = set()
        used_i: set[int] = set()
        for _, bi, i in pairs:
            if bi in used_b or i in used_i:
                continue
            used_b.add(bi)
            used_i.add(i)
            raw[bi]["entries"].append((k, i))
            raw[bi]["last"] = vecs[i]
        for i, v in enumerate(vecs):
            if i in used_i:
                continue
            parent = None
            if prev_vecs:
                parent = min(prev_vecs, key=lambda pv: max(
                    abs(a - b) for a, b in zip(pv[1], v)))[0]
            raw.append({"entries": [(k, i)], "last": v,
                        "parent": parent, "born_at": k})
        prev_vecs = [(bi, raw[bi]["last"]) for bi in range(len(raw))
                     if raw[bi]["entries"][-1][0] == k]
    return tuple(Branch(index=bi, born_at=b["born_at"], parent=b["parent"],
                        entries=tuple(b["entries"]))
                 for bi, b in enumerate(raw))


def _solve_rows(values, games, map) -> tuple[SweepRow, ...]:
    # Looked up at call time, so a replaced ``multistart_nash`` is seen.
    return tuple(SweepRow(value=v, equilibria=eqs)
                 for v, eqs in zip(values, map(multistart_nash, games)))


def alpha_sweep(scenario: Scenario, values: Sequence[float],
                vary: str = "all", map: Callable = map) -> SweepTable:
    """Solve the preset at each cooperation degree in ``values``.

    ``vary`` is "all" to move every user's degree together or "first" to
    move only the first user's, keeping the preset's values for the rest.
    Every row's game is built here and solved through ``map``, which may
    be a process pool's ``map``; rows keep the order of ``values``.
    """
    if scenario.kind != "game":
        raise ConfigError("cooperation sweeps need a routing-game preset")
    if vary not in ("all", "first"):
        raise ConfigError('vary must be "all" or "first"')
    values = tuple(float(v) for v in values)
    games = []
    for v in values:
        if vary == "all":
            alphas = tuple(v for _ in scenario.base_alphas)
        else:
            alphas = (v,) + scenario.base_alphas[1:]
        games.append(scenario.build_game(alphas=alphas))
    rows = _solve_rows(values, games, map)
    branches = _match_lineage([r.equilibria for r in rows])
    varied = (tuple(range(len(scenario.base_alphas)))
              if vary == "all" else (0,))
    return SweepTable(scenario=scenario.name,
                      parameter="alpha" if vary == "all" else "alpha_first",
                      rows=rows, branches=branches, varied_users=varied)


def parameter_sweep(scenario: Scenario,
                    values: Sequence[float] | None = None,
                    map: Callable = map) -> SweepTable:
    """Solve the preset at each value of its structural parameter,
    through ``map`` as in ``alpha_sweep``."""
    if scenario.kind != "game":
        raise ConfigError("parameter sweeps need a routing-game preset")
    if scenario.param is None:
        raise ConfigError(f"preset {scenario.name!r} has no sweep parameter")
    vals = tuple(float(v) for v in (values if values is not None
                                    else scenario.param.values))
    rows = _solve_rows(vals, [scenario.build_game(param=v) for v in vals],
                       map)
    branches = _match_lineage([r.equilibria for r in rows])
    return SweepTable(scenario=scenario.name, parameter=scenario.param.name,
                      rows=rows, branches=branches, varied_users=())


# A cost counts as risen or fallen only when it moves by more than
# PARADOX_MARGIN, so solver noise on a flat stretch is no witness.
PARADOX_MARGIN = 1e-6


@dataclass(frozen=True)
class ParadoxWitness:
    """One comparison pair where the paradox shows."""

    parameter_from: float
    parameter_to: float
    branch: int
    birth: bool
    user_costs_from: tuple[float, ...]
    user_costs_to: tuple[float, ...]
    user_index: int | None = None


@dataclass(frozen=True)
class ParadoxReport:
    kind: str
    found: bool
    witnesses: tuple[ParadoxWitness, ...]
    discrepancy: bool = False
    notes: tuple[str, ...] = ()


def _branch_pairs(sets: Sequence[EquilibriumSet]):
    """Consecutive comparison pairs along branches, births included.

    Yields (row_from, eq_from, row_to, eq_to, branch_index, birth).
    """
    branches = _match_lineage(sets)
    for b in branches:
        for (k1, i1), (k2, i2) in zip(b.entries, b.entries[1:]):
            yield k1, i1, k2, i2, b.index, False
        if b.parent is not None and b.born_at > 0:
            # _match_lineage picks a parent that ends on the row before
            k1, i1 = next(e for e in branches[b.parent].entries
                          if e[0] == b.born_at - 1)
            k2, i2 = b.entries[0]
            yield k1, i1, k2, i2, b.index, True


def detect_braess(table: SweepTable,
                  resource_direction: str = "increasing") -> ParadoxReport:
    """Look for added resources making every user worse off.

    The rows are walked in the direction of growing resources (set
    ``resource_direction`` to "decreasing" when smaller parameter values
    mean more resources, as for a link price).  A witness is a branch
    step, or a branch birth compared against its parent, where every
    user's cost rises by more than ``PARADOX_MARGIN``.
    """
    if resource_direction not in ("increasing", "decreasing"):
        raise ConfigError('resource_direction must be "increasing" or '
                          '"decreasing"')
    rows = list(table.rows)
    if resource_direction == "decreasing":
        rows = rows[::-1]
    sets = [r.equilibria for r in rows]
    witnesses = []
    for k1, i1, k2, i2, branch, birth in _branch_pairs(sets):
        before = sets[k1].equilibria[i1].raw_costs
        after = sets[k2].equilibria[i2].raw_costs
        if all(b + PARADOX_MARGIN < a for b, a in zip(before, after)):
            witnesses.append(ParadoxWitness(
                parameter_from=rows[k1].value, parameter_to=rows[k2].value,
                branch=branch, birth=birth, user_costs_from=before,
                user_costs_to=after))
    return ParadoxReport(kind="braess", found=bool(witnesses),
                         witnesses=tuple(witnesses))


def detect_cooperation_paradox(table: SweepTable) -> ParadoxReport:
    """Look for a user's own cost falling, by more than ``PARADOX_MARGIN``,
    as its cooperation degree rises.

    Checks the users whose degree the sweep varied, along branch steps
    and births; a structural sweep varies none and is refused.  When a
    witness lies on rows that each hold a single equilibrium, the report
    sets ``discrepancy``: the drop then cannot be explained by a jump
    between coexisting equilibria.
    """
    checked = table.varied_users
    if not checked:
        raise ConfigError("the sweep varies no user's cooperation degree; "
                          "the cooperation paradox needs an alpha sweep")
    sets = [r.equilibria for r in table.rows]
    witnesses = []
    discrepancy = False
    notes: list[str] = []
    for k1, i1, k2, i2, branch, birth in _branch_pairs(sets):
        before = sets[k1].equilibria[i1].raw_costs
        after = sets[k2].equilibria[i2].raw_costs
        for ui in checked:
            if after[ui] + PARADOX_MARGIN < before[ui]:
                witnesses.append(ParadoxWitness(
                    parameter_from=table.rows[k1].value,
                    parameter_to=table.rows[k2].value,
                    branch=branch, birth=birth, user_costs_from=before,
                    user_costs_to=after, user_index=ui))
                if (len(sets[k1].equilibria) == 1
                        and len(sets[k2].equilibria) == 1):
                    discrepancy = True
    if discrepancy:
        notes.append("own-cost drop on a stretch where each row holds a "
                     "single equilibrium; the drop is a property of the "
                     "unique equilibrium itself")
    return ParadoxReport(kind="cooperation", found=bool(witnesses),
                         witnesses=tuple(witnesses), discrepancy=discrepancy,
                         notes=tuple(notes))
