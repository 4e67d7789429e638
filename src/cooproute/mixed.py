"""Mixed equilibria on two parallel capacity-limited links.

One atomic group player routes ``group_demand`` and weighs the background
traffic's cost with weight ``alpha``; the background mass of
``mass_demand`` is made of selfish infinitesimal users and settles into an
equal-latency split on its own.  An equilibrium is a pair of splits that
are simultaneous best responses: the group split minimizes the group's
weighted cost against the frozen mass split, and the mass split equalizes
the latencies it sees (or piles onto the cheaper link).

Both a closed-form case analysis and an independent iterative solver are
provided; the latter prices the group as a two-path user with the shared
``costs.SplitCost``, whose ``guarded_argmin`` gives its best response in
closed form: the square-root split of two M/M/1 links inside the
capacity-guard bracket.  When the mass's own bracket is empty, the mass
takes the same fill rule, ``costs.guard_fill``.  Each
solution is re-verified from the definition, and candidates that fail
verification are kept in the output with a flag rather than silently
dropped, so disagreements between the two solvers stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .costs import (CAPACITY_GUARD, MM1Cost, SplitCost, guard_fill,
                    user_costs, weighted_cost)
from .errors import ConfigError, InfeasibleError, SolverError
from .netmodel import Link
from .search import grid, scan_sign_changes

_REGION_TOL = 1e-12
_DUP_TOL = 1e-9

# Solver settings.  The numeric solver scans STARTS group splits, then
# alternates from each for up to MAX_ITERS rounds, until neither split
# moves by FP_TOL, and merges points within DEDUPE_RADIUS.  Verification
# accepts a normalized violation up to VERIFY_TOL.
STARTS = 201
FP_TOL = 1e-9
MAX_ITERS = 10_000
DEDUPE_RADIUS = 1e-5
VERIFY_TOL = 1e-7


@dataclass(frozen=True, slots=True)
class MixedScenario:
    """Two parallel links, a group player, and a selfish background mass.
    Built once, here: ``links``, the two M/M/1 links, and ``split``, the
    group's cost along its flow on link one (the second path) with the
    cooperation row ``(1 - alpha, alpha)``."""

    capacity_one: float
    capacity_two: float
    group_demand: float
    mass_demand: float
    alpha: float
    links: tuple[Link, Link] = field(init=False, repr=False, compare=False)
    split: SplitCost = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        one, two = MM1Cost(self.capacity_one), MM1Cost(self.capacity_two)
        if not all(math.isfinite(v) for v in (
                self.group_demand, self.mass_demand, self.alpha)):
            raise ConfigError("mixed scenario fields must be finite")
        if self.group_demand < 0 or self.mass_demand < 0:
            raise ConfigError("demands must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        total = self.group_demand + self.mass_demand
        if total >= self.capacity_one + self.capacity_two:
            raise InfeasibleError(
                f"total demand {total} meets or exceeds total capacity "
                f"{self.capacity_one + self.capacity_two}",
                detail={"demand": total,
                        "capacity": self.capacity_one + self.capacity_two})
        object.__setattr__(self, "links", (Link("1", 1, 2, one),
                                           Link("2", 1, 2, two)))
        object.__setattr__(self, "split", SplitCost(
            specs=(one, two), n1=1, own_weight=1.0 - self.alpha,
            demand=self.group_demand))


def wardrop_split(cost_one: MM1Cost, cost_two: MM1Cost, base_one: float,
                  base_two: float, mass: float) -> float:
    """Equal-latency split of ``mass`` over two M/M/1 links with fixed
    base loads.

    Returns the amount sent to the second link.  Equal latency on two
    M/M/1 links means equal slack, so the split is half of
    ``room_two - room_one + mass``, clamped to the capacity-guarded
    bracket.  When the bracket is empty, ``costs.guard_fill`` decides,
    which sends the mass whole to a link with room for it.
    """
    if mass == 0.0:
        return 0.0
    guard = CAPACITY_GUARD
    room_one = cost_one.capacity - base_one
    room_two = cost_two.capacity - base_two
    lo = max(mass - room_one + guard, 0.0)
    hi = min(room_two - guard, mass)
    if lo > hi:
        t, fits = guard_fill(lo, hi, mass)
        if not fits:
            raise InfeasibleError(
                "background traffic does not fit on the two links",
                detail=dict(mass=mass, room_one=room_one, room_two=room_two))
        return t
    return min(max(0.5 * (room_two - room_one + mass), lo), hi)


def _group_response(s: MixedScenario, w: float) -> float:
    """Group split on link one minimizing its weighted cost at mass split w."""
    mass_one = s.mass_demand - w
    x, fits = s.split.guarded_argmin((mass_one, w),
                                     (s.alpha * mass_one, s.alpha * w))
    if not fits:
        raise InfeasibleError(
            "group demand does not fit beside the background mass",
            detail={"group": s.group_demand, "mass_split": w})
    return x


def mixed_costs(s: MixedScenario, group_split: float,
                mass_split: float) -> tuple[float, float, float]:
    """Group cost, mass cost, and the group's weighted objective."""
    loads = ((group_split, s.group_demand - group_split),
             (s.mass_demand - mass_split, mass_split))
    totals = (group_split + loads[1][0], loads[0][1] + mass_split)
    raws = user_costs(s.links, loads, totals)
    return (*raws, weighted_cost((1.0 - s.alpha, s.alpha), raws))


@dataclass(frozen=True, slots=True)
class MixedCheck:
    ok: bool
    violation: float


def verify_mixed(s: MixedScenario, group_split: float,
                 mass_split: float) -> MixedCheck:
    """Re-derive both best responses and measure the distance to them.

    The group check accepts either a matching split or a matching cost,
    so flat stretches of the group objective do not flag false
    violations.  A split that saturates a link is refused outright.
    """
    r1, r2 = s.group_demand, s.mass_demand
    f1 = group_split + (r2 - mass_split)
    f2 = (r1 - group_split) + mass_split
    if (f1 > 0 and f1 >= s.capacity_one) or (f2 > 0 and f2 >= s.capacity_two):
        return MixedCheck(ok=False, violation=math.inf)
    w_star = wardrop_split(*s.split.specs, group_split, r1 - group_split, r2)
    wardrop_gap = abs(mass_split - w_star) / max(1.0, r2)
    x_star = _group_response(s, mass_split)
    split_gap = abs(group_split - x_star) / max(1.0, r1)
    _, _, cur = mixed_costs(s, group_split, mass_split)
    _, _, best = mixed_costs(s, x_star, mass_split)
    cost_gap = max(cur - best, 0.0) / max(1.0, abs(best))
    violation = max(wardrop_gap, min(split_gap, cost_gap))
    return MixedCheck(ok=violation <= VERIFY_TOL, violation=violation)


@dataclass(frozen=True, slots=True)
class MixedPoint:
    """One candidate of either solver, priced and verified.  A closed-form
    point names the links the mass uses (``case``) and is "interior" when
    the group's first-order condition picked it, "boundary" when a region
    end did, with no ``basin_count``.  A numeric point has an empty case
    and is "scan" when no start's alternation reached it (basin count 0),
    so only the scan found it, and "iterated" otherwise."""

    case: str
    kind: str
    group_split: float
    mass_split: float
    group_cost: float
    mass_cost: float
    operating_cost: float
    verified: bool
    violation: float
    basin_count: int | None


def _point(s: MixedScenario, case: str, kind: str, x: float, w: float,
           basin_count: int | None = None) -> MixedPoint:
    """The point ``(x, w)`` priced by ``mixed_costs`` and checked by
    ``verify_mixed``."""
    costs = mixed_costs(s, x, w)
    check = verify_mixed(s, x, w)
    return MixedPoint(case, kind, x, w, *costs, check.ok, check.violation,
                      basin_count)


@dataclass(frozen=True, slots=True)
class MixedSolutionSet:
    solutions: tuple[MixedPoint, ...]
    continuum: bool
    continuum_span: tuple[float, float] | None
    notes: tuple[str, ...]


def mixed_closed_form(s: MixedScenario) -> MixedSolutionSet:
    """Case analysis of the equilibrium conditions.

    The mass either uses both links, only the first, or only the second.
    Each case contributes an interior stationary point of the group
    objective plus the ends of the case's admissible interval, all of
    which are then verified against the definition.  Only the exactly
    balanced weight, alpha = 1/2, has no interior formula in the
    both-links case: with equal capacities the whole interval is
    stationary and is reported as a continuum, and otherwise the
    objective is linear along the interval (a note says so).  Near 1/2
    the formula's root leaves the interval unless the capacities are
    nearly equal, where it tends to half the group demand.
    """
    c1, c2 = s.capacity_one, s.capacity_two
    r1, r2, a = s.group_demand, s.mass_demand, s.alpha
    scale = max(1.0, c1, c2, r1, r2)
    tol = _REGION_TOL * scale
    # the shift between the two splits that keeps both latencies equal
    offset = 0.5 * (c1 - c2) + 0.5 * (r1 - r2)
    upper = offset + r2
    notes: list[str] = []
    continuum = False
    continuum_span = None
    candidates: list[MixedPoint] = []

    def emit(case, kind, x, w):
        x = min(max(x, 0.0), r1)
        w = min(max(w, 0.0), r2)
        for prev in candidates:
            if (abs(prev.group_split - x) <= _DUP_TOL * scale
                    and abs(prev.mass_split - w) <= _DUP_TOL * scale):
                return
        candidates.append(_point(s, case, kind, x, w))

    # Mass on both links: equal latencies tie the splits together through
    # a constant offset, and the group's stationarity is linear.
    lo1, hi1 = max(offset, 0.0), min(upper, r1)
    if lo1 <= hi1 + tol:
        balance = 1.0 - 2.0 * a
        if balance == 0.0:
            if c1 == c2:
                continuum = True
                continuum_span = (lo1, hi1)
                notes.append(
                    "balanced weight with equal capacities: every split in "
                    f"[{lo1:.12g}, {hi1:.12g}] paired with its equal-latency "
                    "mass split is an equilibrium")
                emit("both-links", "boundary", lo1, lo1 - offset)
                emit("both-links", "boundary", hi1, hi1 - offset)
            else:
                notes.append(
                    "balanced weight: the both-links objective is linear "
                    "along the equal-latency splits; no interior "
                    "stationary point")
        else:
            root = (a * (c2 - c1) + r1 * balance) / (2.0 * balance)
            if lo1 - tol <= root <= hi1 + tol:
                emit("both-links", "interior", root, root - offset)

        def along(x: float) -> float:
            return (1.0 - a) * (2.0 * x - r1) + a * (r2 - 2.0 * (x - offset))

        if along(lo1) >= -tol:
            emit("both-links", "boundary", lo1, lo1 - offset)
        if along(hi1) <= tol:
            emit("both-links", "boundary", hi1, hi1 - offset)

    def one_link(case, w, lo, hi, u0, v0, heavy, light):
        # With the mass fixed on one link the group's derivative is
        # heavy / u^2 - light / v^2 in the slacks u = u0 - x, v = v0 + x.
        def deriv(x: float) -> float:
            uu, vv = u0 - x, v0 + x
            if uu <= 0 or vv <= 0:
                return math.inf if uu <= 0 else -math.inf
            return heavy / (uu * uu) - light / (vv * vv)

        if heavy > 0 and light > 0:
            root = ((math.sqrt(light) * u0 - math.sqrt(heavy) * v0)
                    / (math.sqrt(heavy) + math.sqrt(light)))
            if lo - tol <= root <= hi + tol:
                emit(case, "interior", root, w)
        if deriv(lo) >= -tol:
            emit(case, "boundary", lo, w)
        if deriv(hi) <= tol:
            emit(case, "boundary", hi, w)

    # Mass only on link one (its split is zero there).
    hi2 = min(offset, r1)
    if hi2 >= -tol:
        u0 = c1 - r2   # link-one slack at x = 0
        v0 = c2 - r1   # link-two slack at x = 0
        one_link("wardrop-link1-only", 0.0, 0.0, min(max(hi2, 0.0), r1),
                 u0, v0, (1.0 - a) * u0 + a * r2, (1.0 - a) * c2)

    # Mass only on link two.
    lo3 = max(upper, 0.0)
    if lo3 <= r1 + tol:
        v0 = c2 - r1 - r2  # link-two slack at x = 0
        light = (1.0 - a) * (c2 - r2) + a * r2
        if light <= 0:
            notes.append(
                "second-link derivative keeps one sign in the "
                "wardrop-link2-only case; no interior stationary point")
        one_link("wardrop-link2-only", r2, min(lo3, r1), r1, c1, v0,
                 (1.0 - a) * c1, light)

    candidates.sort(key=lambda sol: (sol.group_split, sol.mass_split))
    return MixedSolutionSet(solutions=tuple(candidates), continuum=continuum,
                            continuum_span=continuum_span, notes=tuple(notes))


@dataclass(frozen=True, slots=True)
class MixedNumericSet:
    points: tuple[MixedPoint, ...]
    diagnostics: dict


def mixed_numeric(s: MixedScenario) -> MixedNumericSet:
    """Independent iterative solver used to cross-check the closed forms.

    A grid of group splits ending exactly at the group demand is scanned
    for sign changes of the composed update's displacement (the group's
    best response, the closed form of ``SplitCost.guarded_argmin``, to
    the mass's equal-latency split), and each root, corners included,
    opens a cluster.  Then the two responses alternate from each grid
    split, and each limit is credited to the cluster within
    ``DEDUPE_RADIUS``, or opens its own.  Clusters the alternation never
    reaches, the equilibria it repels, keep a zero basin count.
    """
    r1, r2 = s.group_demand, s.mass_demand
    specs = s.split.specs
    responses = 0

    def mass_response(x: float) -> float:
        return wardrop_split(*specs, x, r1 - x, r2)

    def group_response(w: float) -> float:
        nonlocal responses
        responses += 1
        return _group_response(s, w)

    clusters: list[list] = []   # [x, w, basin]

    def merge(x: float, w: float, weight: int) -> None:
        for c in clusters:
            if (abs(c[0] - x) <= DEDUPE_RADIUS
                    and abs(c[1] - w) <= DEDUPE_RADIUS):
                c[2] += weight
                return
        clusters.append([x, w, weight])

    xs = grid(r1, STARTS)
    for x in scan_sign_changes(
            lambda x: group_response(mass_response(x)) - x, xs):
        merge(x, mass_response(x), 0)
    non_converged = 0
    for x in xs:
        w = mass_response(x)
        for _ in range(MAX_ITERS):
            x_new = group_response(w)
            w_new = mass_response(x_new)
            delta = max(abs(x_new - x), abs(w_new - w))
            x, w = x_new, w_new
            if delta < FP_TOL:
                merge(x, w, 1)
                break
        else:
            non_converged += 1

    if not clusters:
        raise SolverError("no start converged and no fixed point was "
                          "bracketed",
                          diagnostics={"starts": STARTS,
                                       "non_converged": non_converged})
    points = sorted((_point(s, "", "iterated" if basin else "scan", x, w,
                            basin) for x, w, basin in clusters),
                    key=lambda p: (p.group_split, p.mass_split))
    return MixedNumericSet(
        points=tuple(points),
        diagnostics={"starts": STARTS,
                     "non_converged": non_converged,
                     "scan_added": sum(c[2] == 0 for c in clusters),
                     "group_responses": responses})
