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
``costs.SplitCost``, whose ``argmin`` gives its best response in closed
form: the square-root split of two M/M/1 links.  Each
solution is re-verified from the definition, and candidates that fail
verification are kept in the output with a flag rather than silently
dropped, so disagreements between the two solvers stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import (CAPACITY_GUARD, MM1Cost, SplitCost, user_costs,
                    weighted_cost)
from .errors import ConfigError, InfeasibleError, SolverError
from .netmodel import Link
from .search import scan_sign_changes

_REGION_TOL = 1e-12
_DUP_TOL = 1e-9

# Solver settings.  The numeric solver alternates from STARTS group splits
# for up to MAX_ITERS rounds, until neither split moves by FP_TOL, and
# merges points within DEDUPE_RADIUS.  Verification accepts a normalized
# violation up to VERIFY_TOL.  The closed form skips the both-links
# interior formula while the group weight is within SINGULAR_BAND of
# balance.
STARTS = 201
FP_TOL = 1e-9
MAX_ITERS = 10_000
DEDUPE_RADIUS = 1e-5
VERIFY_TOL = 1e-7
SINGULAR_BAND = 0.05


@dataclass(frozen=True)
class MixedScenario:
    """Two parallel links, a group player, and a selfish background mass."""

    capacity_one: float
    capacity_two: float
    group_demand: float
    mass_demand: float
    alpha: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (
                self.capacity_one, self.capacity_two, self.group_demand,
                self.mass_demand, self.alpha)):
            raise ConfigError("mixed scenario fields must be finite")
        if self.capacity_one < 0 or self.capacity_two < 0:
            raise ConfigError("capacities must be nonnegative")
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


def wardrop_split(cost_one: MM1Cost, cost_two: MM1Cost, base_one: float,
                  base_two: float, mass: float) -> float:
    """Equal-latency split of ``mass`` over two M/M/1 links with fixed
    base loads.

    Returns the amount sent to the second link.  Equal latency on two
    M/M/1 links means equal slack, so the split is half of
    ``room_two - room_one + mass``, clamped to the capacity-guarded
    bracket.  When the bracket is empty, the mass goes whole to a link
    with room for it.
    """
    if mass == 0.0:
        return 0.0
    guard = CAPACITY_GUARD
    room_one = cost_one.capacity - base_one
    room_two = cost_two.capacity - base_two
    lo = max(mass - room_one + guard, 0.0)
    hi = min(room_two - guard, mass)
    if lo > hi:
        if lo > mass and room_two - guard >= mass:
            return mass
        if hi < 0.0 and room_one - guard >= mass:
            return 0.0
        raise InfeasibleError(
            "background traffic does not fit on the two links",
            detail={"mass": mass, "room_one": room_one, "room_two": room_two})
    return min(max(0.5 * (room_two - room_one + mass), lo), hi)


def _group_split(s: MixedScenario) -> SplitCost:
    """The group as a two-path user with cooperation row (1 - alpha, alpha)."""
    return SplitCost(specs=(MM1Cost(s.capacity_one), MM1Cost(s.capacity_two)),
                     n1=1, own_weight=1.0 - s.alpha, demand=s.group_demand)


def _group_response(s: MixedScenario, split: SplitCost, w: float) -> float:
    """Group split on link one minimizing its weighted cost at mass split w."""
    r1, r2, a = s.group_demand, s.mass_demand, s.alpha
    mass_one = r2 - w
    guard = CAPACITY_GUARD
    lo = max(r1 - (s.capacity_two - w) + guard, 0.0)
    hi = min(s.capacity_one - mass_one - guard, r1)
    if lo > hi:
        if hi < 0.0 and r1 + w <= s.capacity_two - guard:
            return 0.0
        if lo > r1 and r1 + mass_one <= s.capacity_one - guard:
            return r1
        raise InfeasibleError(
            "group demand does not fit beside the background mass",
            detail={"group": r1, "mass_split": w})
    return split.argmin(lo, hi, (mass_one, w), (a * mass_one, a * w))


def mixed_costs(s: MixedScenario, group_split: float,
                mass_split: float) -> tuple[float, float, float]:
    """Group cost, mass cost, and the group's weighted objective."""
    loads = ((group_split, s.group_demand - group_split),
             (s.mass_demand - mass_split, mass_split))
    totals = (group_split + loads[1][0], loads[0][1] + mass_split)
    links = (Link("1", 1, 2, MM1Cost(s.capacity_one)),
             Link("2", 1, 2, MM1Cost(s.capacity_two)))
    raws = user_costs(links, loads, totals)
    return (*raws, weighted_cost((1.0 - s.alpha, s.alpha), raws))


@dataclass(frozen=True)
class MixedCheck:
    ok: bool
    violation: float
    wardrop_gap: float
    group_gap: float
    saturated: bool


def verify_mixed(s: MixedScenario, group_split: float,
                 mass_split: float) -> MixedCheck:
    """Re-derive both best responses and measure the distance to them.

    The group check accepts either a matching split or a matching cost,
    so flat stretches of the group objective do not flag false
    violations.
    """
    r1, r2 = s.group_demand, s.mass_demand
    f1 = group_split + (r2 - mass_split)
    f2 = (r1 - group_split) + mass_split
    saturated = ((f1 > 0 and f1 >= s.capacity_one)
                 or (f2 > 0 and f2 >= s.capacity_two))
    if saturated:
        return MixedCheck(ok=False, violation=math.inf,
                          wardrop_gap=math.inf, group_gap=math.inf,
                          saturated=True)
    split = _group_split(s)
    w_star = wardrop_split(*split.specs, group_split, r1 - group_split, r2)
    wardrop_gap = abs(mass_split - w_star) / max(1.0, r2)
    x_star = _group_response(s, split, mass_split)
    split_gap = abs(group_split - x_star) / max(1.0, r1)
    _, _, cur = mixed_costs(s, group_split, mass_split)
    _, _, best = mixed_costs(s, x_star, mass_split)
    cost_gap = max(cur - best, 0.0) / max(1.0, abs(best))
    group_gap = min(split_gap, cost_gap)
    violation = max(wardrop_gap, group_gap)
    return MixedCheck(ok=violation <= VERIFY_TOL,
                      violation=violation, wardrop_gap=wardrop_gap,
                      group_gap=group_gap, saturated=False)


@dataclass(frozen=True)
class MixedSolution:
    """One closed-form candidate with its derivation trail.

    ``case`` says which links the mass uses; ``kind`` is "interior" when
    the group's first-order condition picked the point and "boundary" when
    a region end did.  ``span`` is the case's admissible interval for the
    group split, ``equal_cost_offset`` the shift between the two splits
    that keeps both link latencies equal, and the quadratic fields record
    the resolvent behind the interior root where one applies.
    """

    case: str
    kind: str
    group_split: float
    mass_split: float
    group_cost: float
    mass_cost: float
    operating_cost: float
    verified: bool
    violation: float
    span: tuple[float, float]
    equal_cost_offset: float
    interior_split: float | None = None
    wardrop_interior: float | None = None
    quad_a: float | None = None
    quad_b: float | None = None
    quad_c: float | None = None
    quad_disc: float | None = None


@dataclass(frozen=True)
class MixedSolutionSet:
    solutions: tuple[MixedSolution, ...]
    continuum: bool
    continuum_span: tuple[float, float] | None
    notes: tuple[str, ...]


def mixed_closed_form(s: MixedScenario) -> MixedSolutionSet:
    """Case analysis of the equilibrium conditions.

    The mass either uses both links, only the first, or only the second.
    Each case contributes an interior stationary point of the group
    objective plus the ends of the case's admissible interval, all of
    which are then verified against the definition.  Near the balanced
    weight the interior formula of the both-links case divides by almost
    zero and is skipped (a note says so); at the exactly balanced weight
    with equal capacities the whole interval is stationary and is
    reported as a continuum.
    """
    c1, c2 = s.capacity_one, s.capacity_two
    r1, r2, a = s.group_demand, s.mass_demand, s.alpha
    scale = max(1.0, c1, c2, r1, r2)
    tol = _REGION_TOL * scale
    offset = 0.5 * (c1 - c2) + 0.5 * (r1 - r2)
    upper = offset + r2
    notes: list[str] = []
    continuum = False
    continuum_span = None
    candidates: list[MixedSolution] = []

    def emit(case, kind, x, w, span, **extra):
        x = min(max(x, 0.0), r1)
        w = min(max(w, 0.0), r2)
        for prev in candidates:
            if (abs(prev.group_split - x) <= _DUP_TOL * scale
                    and abs(prev.mass_split - w) <= _DUP_TOL * scale):
                return
        jg, jm, jo = mixed_costs(s, x, w)
        check = verify_mixed(s, x, w)
        candidates.append(MixedSolution(
            case=case, kind=kind, group_split=x, mass_split=w,
            group_cost=jg, mass_cost=jm, operating_cost=jo,
            verified=check.ok, violation=check.violation, span=span,
            equal_cost_offset=offset, **extra))

    # Mass on both links: equal latencies tie the splits together through
    # a constant offset, and the group's stationarity is linear.
    lo1, hi1 = max(offset, 0.0), min(upper, r1)
    if lo1 <= hi1 + tol:
        span1 = (lo1, hi1)
        balance = 1.0 - 2.0 * a
        if abs(balance) <= SINGULAR_BAND:
            residual = r2 - r1 + 2.0 * offset  # == c1 - c2
            if a == 0.5 and residual == 0.0:
                continuum = True
                continuum_span = span1
                notes.append(
                    "balanced weight with equal capacities: every split in "
                    f"[{lo1:.12g}, {hi1:.12g}] paired with its equal-latency "
                    "mass split is an equilibrium")
                emit("both-links", "boundary", lo1, lo1 - offset, span1)
                emit("both-links", "boundary", hi1, hi1 - offset, span1)
            else:
                notes.append(
                    "interior formula for the both-links case skipped: the "
                    "group weight is inside the singular band around 1/2")
        else:
            root = (a * (c2 - c1) + r1 * balance) / (2.0 * balance)
            if lo1 - tol <= root <= hi1 + tol:
                emit("both-links", "interior", root, root - offset, span1,
                     interior_split=root, wardrop_interior=root - offset)

        def along(x: float) -> float:
            return (1.0 - a) * (2.0 * x - r1) + a * (r2 - 2.0 * (x - offset))

        if along(lo1) >= -tol:
            emit("both-links", "boundary", lo1, lo1 - offset, span1)
        if along(hi1) <= tol:
            emit("both-links", "boundary", hi1, hi1 - offset, span1)

    def one_link(case, w, span, u0, v0, heavy, light):
        # With the mass fixed on one link the group's derivative is
        # heavy / u^2 - light / v^2 in the slacks u = u0 - x, v = v0 + x;
        # its zero solves a quadratic whose coefficients form the trail.
        lo, hi = span
        qa = heavy - light
        qb = 2.0 * (heavy * v0 + light * u0)
        qc = heavy * v0 * v0 - light * u0 * u0
        trail = dict(quad_a=qa, quad_b=qb, quad_c=qc,
                     quad_disc=qb * qb - 4.0 * qa * qc)

        def deriv(x: float) -> float:
            uu, vv = u0 - x, v0 + x
            if uu <= 0 or vv <= 0:
                return math.inf if uu <= 0 else -math.inf
            return heavy / (uu * uu) - light / (vv * vv)

        if heavy > 0 and light > 0:
            root = ((math.sqrt(light) * u0 - math.sqrt(heavy) * v0)
                    / (math.sqrt(heavy) + math.sqrt(light)))
            if lo - tol <= root <= hi + tol:
                emit(case, "interior", root, w, span, interior_split=root,
                     **trail)
        if deriv(lo) >= -tol:
            emit(case, "boundary", lo, w, span, **trail)
        if deriv(hi) <= tol:
            emit(case, "boundary", hi, w, span, **trail)

    # Mass only on link one (its split is zero there).
    hi2 = min(offset, r1)
    if hi2 >= -tol:
        u0 = c1 - r2   # link-one slack at x = 0
        v0 = c2 - r1   # link-two slack at x = 0
        one_link("wardrop-link1-only", 0.0, (0.0, min(max(hi2, 0.0), r1)),
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
        one_link("wardrop-link2-only", r2, (min(lo3, r1), r1), c1, v0,
                 (1.0 - a) * c1, light)

    candidates.sort(key=lambda sol: (sol.group_split, sol.mass_split))
    return MixedSolutionSet(solutions=tuple(candidates), continuum=continuum,
                            continuum_span=continuum_span, notes=tuple(notes))


@dataclass(frozen=True)
class MixedPoint:
    """One equilibrium found by the iterative solver."""

    group_split: float
    mass_split: float
    group_cost: float
    mass_cost: float
    operating_cost: float
    basin_count: int
    scan_found: bool
    verified: bool
    violation: float


@dataclass(frozen=True)
class MixedNumericSet:
    points: tuple[MixedPoint, ...]
    diagnostics: dict


def mixed_numeric(s: MixedScenario) -> MixedNumericSet:
    """Independent iterative solver used to cross-check the closed forms.

    Alternates the group's best response, the closed-form root of the
    shared ``SplitCost.argmin``, with the mass's equal-latency split from
    a grid of starting group splits.  The alternation repels some interior
    equilibria, so the composed update is also scanned for sign changes
    of its displacement and each bracket is bisected; points found only
    that way carry a zero basin count.
    """
    r1, r2 = s.group_demand, s.mass_demand
    split = _group_split(s)
    responses = 0

    def mass_response(x: float) -> float:
        return wardrop_split(*split.specs, x, r1 - x, r2)

    def group_response(w: float) -> float:
        nonlocal responses
        responses += 1
        return _group_response(s, split, w)

    clusters: list[list] = []   # [x, w, basin, scan_found]

    def merge(x: float, w: float, weight: int, scan: bool) -> bool:
        for c in clusters:
            if (abs(c[0] - x) <= DEDUPE_RADIUS
                    and abs(c[1] - w) <= DEDUPE_RADIUS):
                c[2] += weight
                return False
        clusters.append([x, w, weight, scan])
        return True

    def displacement(x: float) -> float:
        return group_response(mass_response(x)) - x

    def polish(x: float) -> float:
        # the alternation stops on step size, a bit short of the fixed
        # point; re-bracket the displacement and bisect it down
        roots = scan_sign_changes(
            displacement, (max(0.0, x - 1e-6), min(r1, x + 1e-6)), 80)
        return roots[0] if roots else x

    xs = [r1 * i / (STARTS - 1) for i in range(STARTS)]
    non_converged = 0
    for x in xs:
        w = mass_response(x)
        converged = False
        for _ in range(MAX_ITERS):
            x_new = group_response(w)
            w_new = mass_response(x_new)
            delta = max(abs(x_new - x), abs(w_new - w))
            x, w = x_new, w_new
            if delta < FP_TOL:
                converged = True
                break
        if converged:
            x = polish(x)
            merge(x, mass_response(x), 1, False)
        else:
            non_converged += 1

    scan_added = 0
    for x in scan_sign_changes(displacement, xs, 80):
        if merge(x, mass_response(x), 0, True):
            scan_added += 1

    if not clusters:
        raise SolverError("no start converged and no fixed point was "
                          "bracketed",
                          diagnostics={"starts": STARTS,
                                       "non_converged": non_converged})
    points = []
    for x, w, basin, scan in clusters:
        jg, jm, jo = mixed_costs(s, x, w)
        check = verify_mixed(s, x, w)
        points.append(MixedPoint(
            group_split=x, mass_split=w, group_cost=jg, mass_cost=jm,
            operating_cost=jo, basin_count=basin, scan_found=scan,
            verified=check.ok, violation=check.violation))
    points.sort(key=lambda p: (p.group_split, p.mass_split))
    return MixedNumericSet(
        points=tuple(points),
        diagnostics={"starts": STARTS,
                     "non_converged": non_converged,
                     "scan_added": scan_added,
                     "group_responses": responses})
