"""Equilibrium search for finitely many routing users.

The workhorse is plain Gauss-Seidel best response: sweep the users in id
order, each one exactly minimizing its operating cost against the current
flows of the others.  A two-path user's best response is
``costs.SplitCost.argmin`` inside the split's capacity-guard bracket:
in closed form on affine links (the zero of a line) and with one M/M/1
link on each path (the square-root split of parallel queues), and by a
safeguarded Newton search otherwise, solved once per exact input within
one ``multistart_nash`` call (``_split_argmin``).  A user with three or more
link-disjoint paths, such as parallel links, water-fills: safeguarded
Newton on the marginal-cost level, with each path's flow at that level
the inverse of its marginal, in closed form on one M/M/1 link or on
affine links and by the same Newton search otherwise.  A user whose
three or more paths share links equilibrates them pairwise (Dafermos
and Sparrow): it moves flow between its cheapest path and its dearest
used path by the same guarded two-path solve, with its flow elsewhere
held as fixed load, until their marginals agree to float noise.  Every
best response is thus exact.  Between sweeps, the dynamics and the
polish of the fixed points they reach extrapolate the iterates to their
limit by least squares over a short window (``_extrapolate``), and keep
a jump only when the next sweep confirms it.  A multistart driver
clusters the fixed points reached from a grid of starting splits
(``search.grid``, whose last split is exactly the demand) and counts
basin sizes and failed starts.

Best-response iteration only ever reaches attracting fixed points, and
interior equilibria of these games are often repelling.  For two users
with two paths each the driver therefore also enumerates supports
(``_support_roots``): each user on its first path, its second or both,
with "the derivative along the split is zero" solved for the users on
both.  One such user takes its exact best response; two solve a linear
system on affine links, and otherwise follow each user's best-response
curve and solve each sign change of the other's derivative by Newton's
method with its analytic slope.  Each point is priced once, by
``SplitCost.row`` with loads read from the pair's state
(``_split_rows``): a point on a curve takes the responder's loads and
guard bracket from its best response, and a root keeps the rows it was
found with.  The verified roots are the equilibria: each cluster of
dynamics limits gives its basin to the nearest root within
``CLUSTER_RADIUS``, and only a cluster near no root is polished and
verified itself.  The pass checks itself by the index sum of the
verified equilibria (``_index_sum``), which is 1 for a complete set of
regular equilibria; when it is not 1, or a point is degenerate, no check
says the set is complete.  On affine links
the game can be certified, in exact arithmetic, to have a single
equilibrium (Rosen's diagonal strict convexity with unit weights); when
the dynamics reach one verified equilibrium of a certified game, there
is nothing left to find and the pass does not run.

Costs, path marginals and the two-path derivative, which also prices
one path alone, come from ``costs``; this module only sums the other
users' path flows into link loads, through the game's precomputed
``feeds`` in one fixed order (``_state_loads``), and hands them over.  The
verifier's deviation sweep prices a split with ``costs.deviation_cost``,
one sum over the deviating user's links by one list comprehension
compiled per shape of the game, which agrees with the reported costs up
to the rounding of the loads.  With no negative constant that cost is
nondecreasing in each flow, so the sweep prices the corners of blocks
of its sorted splits first and skips every block whose corner already
costs no less than the current split
(``costs.DeviationCost.least_below``); it still prices every split that
could cost less, and reads the same least cost as a sweep of all 1,001.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .costs import (CAPACITY_GUARD, INFINITE_COST, CooperationProfile,
                    LinearCost, MM1Cost, SplitCost, deviation_cost,
                    guard_fill, path_marginals, user_costs, weighted_cost)
from .errors import ConfigError, SolverError
from .netmodel import (FlowProfile, Network, PathSet, UserSpec,
                       assemble_profile, build_path_set, check_feasibility,
                       saturated_links)
from .search import SEARCH_STEPS, grid, newton_argmin


# Solver settings.  The pairwise exchange stops when no used path's
# marginal exceeds the cheapest by EXCHANGE_TOL relative, or, as a safety
# net, after EXCHANGE_STEPS steps.  Dynamics stop when a sweep moves no
# coordinate by FP_TOL, or after MAX_SWEEPS sweeps; between sweeps they
# extrapolate from a window of d + 2 iterates, where d, the number of
# coordinates a sweep reads, is capped at EXTRAPOLATION_RANK.
# GRID_DENSITY splits per two-path user seed the multistart, and fixed
# points within CLUSTER_RADIUS of each other, or of a support-pass root,
# are one equilibrium.  One support's pass roots are one within
# CLUSTER_RADIUS too (_support_roots); roots of different supports are
# one only within DISTINCT_TOL.  The support pass samples each
# best-response curve at CURVE_GRID flows; a reduced Jacobian's
# determinant, or an unused path's slack, at or below DEGENERATE_TOL
# relative makes a point degenerate.  Verification sweeps DEVIATION_GRID
# splits and accepts a normalized violation up to VERIFY_TOL.
EXCHANGE_TOL = 1e-14
EXCHANGE_STEPS = 1_000
FP_TOL = 1e-8
MAX_SWEEPS = 10_000
EXTRAPOLATION_RANK = 8
GRID_DENSITY = 21
CLUSTER_RADIUS = 1e-4
DISTINCT_TOL = 1e-9
CURVE_GRID = 21
DEGENERATE_TOL = 1e-9
VERIFY_TOL = 1e-6
DEVIATION_GRID = 1001


@dataclass(frozen=True, slots=True)
class _TwoPath:
    """Two of a user's paths and the demand split between them.

    ``links`` lists the links on the second path only, then those on the
    first path only (``split.specs`` covers both), then the shared ones.
    ``caps`` holds ``(i, capacity)`` for every shared M/M/1 link, and
    ``split`` the cost along the split.
    """

    links: tuple[int, ...]
    caps: tuple
    split: SplitCost


@dataclass(frozen=True, slots=True)
class RoutingGame:
    """A network, its users, their path sets, and the cooperation weights."""

    net: Network
    users: tuple[UserSpec, ...]
    paths: PathSet
    coop: CooperationProfile
    two_path: tuple = field(init=False, repr=False, compare=False)
    feeds: tuple = field(init=False, repr=False, compare=False)
    disjoint: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paths = self.paths.paths
        object.__setattr__(self, "two_path", tuple(
            self._two_path_user(ui, 0, 1, self.users[ui].demand)
            if len(idx) == 2 else None for ui, idx in enumerate(paths)))
        # A two-path user reads the loads on its own links; any other
        # user reads them on every link.
        m = len(self.net.links)
        object.__setattr__(self, "feeds", tuple(
            self._feeds(ui, range(m) if tp is None else tp.links)
            for ui, tp in enumerate(self.two_path)))
        # Three or more paths, none sharing a link with another: each
        # path is priced alone, by a one-path ``SplitCost``.
        object.__setattr__(self, "disjoint", tuple(
            self._disjoint_user(ui) if len(idx) > 2 and len(
                {l for p in idx for l in p}) == sum(map(len, idx)) else None
            for ui, idx in enumerate(paths)))

    def _disjoint_user(self, ui: int) -> tuple[SplitCost, ...]:
        b, r = self.coop.rows[ui][ui], self.users[ui].demand
        return tuple(
            SplitCost(specs=tuple(self.net.links[li].cost for li in p),
                      n1=len(p), own_weight=b, demand=r)
            for p in self.paths.paths[ui])

    def _two_path_user(self, ui: int, first: int, second: int,
                       demand: float) -> _TwoPath:
        """User ``ui``'s paths ``first`` and ``second`` sharing ``demand``."""
        p0 = self.paths.paths[ui][first]
        p1 = self.paths.paths[ui][second]
        only1 = [l for l in p1 if l not in p0]
        only0 = [l for l in p0 if l not in p1]
        links = tuple(only1 + only0 + [l for l in p0 if l in p1])
        row = self.coop.rows[ui]
        specs = [self.net.links[li].cost for li in links]
        moving = len(only1) + len(only0)
        caps = tuple((i, c.capacity) for i, c in enumerate(specs)
                     if i >= moving and isinstance(c, MM1Cost))
        split = SplitCost(specs=tuple(specs[:moving]), n1=len(only1),
                          own_weight=row[ui], demand=demand)
        return _TwoPath(links=links, caps=caps, split=split)

    def _feeds(self, ui: int, links) -> tuple:
        """For each of ``links``, the other users' path flows that load it
        as ``(user, path, weight in user ui's cooperation row)``, in user
        order and then path order."""
        row = self.coop.rows[ui]
        return tuple(
            tuple((k, p, row[k]) for k, paths in enumerate(self.paths.paths)
                  if k != ui for p, lp in enumerate(paths) if li in lp)
            for li in links)

    @property
    def demands(self) -> tuple[float, ...]:
        return tuple(u.demand for u in self.users)


def make_game(net: Network, users: Sequence[UserSpec],
              coop: CooperationProfile | Sequence[float]) -> RoutingGame:
    """Bundle a validated game, refused by ``check_feasibility`` when its
    demand cannot fit below the capacities.  ``coop`` is either a full
    weight profile or a sequence of per-user cooperation degrees."""
    users = tuple(sorted(users, key=lambda u: u.user_id))
    if not users:
        raise ConfigError("a game needs at least one user")
    ids = tuple(u.user_id for u in users)
    if not isinstance(coop, CooperationProfile):
        coop = CooperationProfile.from_alphas(ids, list(coop))
    if coop.user_ids != ids:
        raise ConfigError("cooperation profile user ids do not match users")
    paths = build_path_set(net, users)
    check_feasibility(net, users, paths)
    return RoutingGame(net=net, users=users, paths=paths, coop=coop)


def _state_loads(game: RoutingGame, state, ui: int):
    """On each link of ``game.feeds[ui]``, the total flow of every user
    but ``ui`` and those users' flows weighted by ``ui``'s cooperation
    row, summed in the feed's order."""
    totals = []
    weighted = []
    for feed in game.feeds[ui]:
        o = w = 0.0
        for k, p, wk in feed:
            v = state[k][p]
            if v != 0.0:
                o += v
                if wk:
                    w += wk * v
        totals.append(o)
        weighted.append(w)
    return totals, weighted


def _guarded_split(game: RoutingGame, ui: int, tp: _TwoPath, others,
                   weighted) -> tuple[float, float]:
    """The least-cost split ``(first, second)`` of ``tp``'s demand, with
    the fixed loads ``others`` and ``weighted`` on ``tp.links``; a split
    that does not fit is kept only when a third path can relieve it."""
    split, r = tp.split, tp.split.demand
    for i, cap in tp.caps:
        if others[i] + r > cap - CAPACITY_GUARD:
            raise SolverError(
                f"user {game.users[ui].user_id} saturates link "
                f"{game.net.links[tp.links[i]].link_id!r} on every path")
    lo, hi = split.bracket(others)
    t, fits = (guard_fill(lo, hi, r) if lo > hi else
               (_split_argmin(game, ui, tp, lo, hi, others, weighted), True))
    if not fits and len(game.paths.paths[ui]) == 2:
        raise SolverError(
            f"user {game.users[ui].user_id} has no feasible split "
            f"between its two paths")
    return (r - t, t)


# The running ``multistart_nash`` call's game and its Newton best
# responses, each ``[t, times reused]`` by exact input (``_split_argmin``),
# in that call's own copy of the context.
_RESPONSES = contextvars.ContextVar("responses", default=(None, None))


def _split_argmin(game: RoutingGame, ui: int, tp: _TwoPath, lo: float,
                  hi: float, others, weighted) -> float:
    """``tp.split.argmin`` on ``[lo, hi]``; within a ``multistart_nash``
    call on ``game``, that of a Newton split (``SplitCost.newton``) of
    user ``ui``'s two paths once per bracket and loads."""
    split, (owner, table) = tp.split, _RESPONSES.get()
    if owner is not game or not split.newton or tp is not game.two_path[ui]:
        return split.argmin(lo, hi, others, weighted)
    kept = table.setdefault((ui, lo, hi, *others, *weighted), [None, -1])
    if kept[0] is None:
        kept[0] = split.argmin(lo, hi, others, weighted)
    kept[1] += 1
    return kept[0]


def _settle(x, lo, hi, r: float, order=None) -> tuple[float, ...]:
    """Move the flows ``x`` inside ``[lo, hi]``, one path at a time in
    ``order`` (path order by default), until they sum to ``r``."""
    x = list(x)
    d = r - math.fsum(x)
    for p in range(len(x)) if order is None else order:
        if d == 0.0:
            break
        nv = min(max(x[p] + d, lo[p]), hi[p])
        d -= nv - x[p]
        x[p] = nv
    return tuple(x)


def _disjoint_response(game: RoutingGame, ui: int, r: float,
                       state) -> tuple[float, ...]:
    """Water-filling on link-disjoint paths.

    Path ``p``'s marginal ``m_p`` rises with its own flow, so at a level
    ``lam`` the path carries the root of ``m_p(x) = lam`` in
    ``[0, top_p]``, the guard bracket of the path's one-path
    ``SplitCost``.  ``SplitCost.inverse`` inverts the marginal, from
    constants computed once per response, as are the marginal's ends
    ``m_p(0)``, ``m_p'(0)`` and ``m_p(top_p)``: ``(u, h)`` on one M/M/1
    link give ``u - sqrt(h / lam)``, ``(C, S)`` on affine links give
    the zero of ``C + S x - lam``, and other paths run Newton's method
    on the marginal.  The total supply rises with ``lam``;
    safeguarded Newton on ``lam`` (its slope is the sum of ``1 / m_p'``
    over the paths strictly inside) finds the level where it meets
    ``r``.  A flat marginal makes the supply jump; its paths are filled
    in path order at the final level.
    """
    margins = game.disjoint[ui]
    totals, weighted = _state_loads(game, state, ui)
    loads = [([totals[li] for li in p], [weighted[li] for li in p])
             for p in game.paths.paths[ui]]
    k = len(margins)
    tops = [max(split.bracket(others)[1], 0.0)
            for split, (others, _) in zip(margins, loads)]
    if math.fsum(tops) < r:
        raise SolverError(
            f"user {game.users[ui].user_id} cannot route its demand below "
            f"the capacities of its paths")
    live = [p for p in range(k) if tops[p] > 0.0]
    zeros = [0.0] * k
    # m_p(0), m_p'(0), m_p(top_p) and the inverse's constants do not
    # move with the level.
    ends, levels = {}, {}
    for p in live:
        m0, s0 = margins[p].derivative(0.0, *loads[p])
        ends[p] = (m0, s0, margins[p].derivative(tops[p], *loads[p])[0])
        levels[p] = margins[p].inverse(*loads[p], tops[p])

    def supply(lam: float):
        # The least and the greatest flows at level lam, and each path's
        # gain 1 / m_p' just above lam: the supply's slope is their sum.
        lower, upper, gains = list(zeros), list(zeros), list(zeros)
        for p in live:
            m0, s0, mt = ends[p]
            if m0 >= lam:
                if mt <= lam:
                    upper[p] = tops[p]
                elif m0 == lam and s0 > 0.0:
                    gains[p] = 1.0 / s0
                continue
            if mt <= lam:
                lower[p] = upper[p] = tops[p]
                continue
            x, s = levels[p](lam)
            lower[p] = upper[p] = x
            if s > 0.0:
                gains[p] = 1.0 / s
        return lower, upper, gains

    # Probe the highest m_p(top_p), where every path is full unless flat
    # there, and the lowest m_p(0), where every path is empty.  Then
    # probe the levels of flat marginals, the only places the supply
    # jumps, so that Newton runs where the supply is continuous.
    probes = [max(mt for _, _, mt in ends.values()),
              min(m0 for m0, _, _ in ends.values()),
              *sorted({m0 for m0, _, mt in ends.values() if m0 == mt})]
    a, b, below, above = -math.inf, math.inf, zeros, tops
    for n in itertools.count():
        lam = probes.pop(0) if probes else lam
        lower, upper, gains = supply(lam)
        low_sum, high_sum = math.fsum(lower), math.fsum(upper)
        if low_sum <= r <= high_sum:
            return _settle(lower, lower, upper, r)
        if high_sum < r:
            a, below, gap = lam, upper, high_sum - r
        else:
            b, above, gap = lam, lower, low_sum - r
        probes = [v for v in probes if a < v < b]
        if probes:
            continue
        nxt = 0.5 * (a + b)
        slope = sum(gains)
        # Newton for the first SEARCH_STEPS steps, then plain bisection.
        if n < SEARCH_STEPS and 0.0 < slope < math.inf:
            step = lam - gap / slope
            if step == lam:
                # The level is exact to float resolution.  The rest goes
                # to the paths that move with it, flattest marginal
                # first, so that it moves their marginals least.
                return _settle(lower, zeros, tops, r, sorted(
                    (p for p in range(k) if gains[p] > 0.0),
                    key=lambda p: -gains[p]))
            if a < step < b:
                nxt = step
        if not a < nxt < b:
            # No float left between the ends: fill from below toward above.
            return _settle(below, below, above, r)
        lam = nxt


def _exchange_response(game: RoutingGame, ui: int, r: float,
                       state) -> tuple[float, ...]:
    """Pairwise exchange for three or more paths that share links.

    From the user's flows scaled to ``r``, or from the even split when
    those price every path at infinity, each step moves flow between
    the cheapest path and the dearest path that carries flow: their
    split is a two-path best response (``_guarded_split``) in which the
    user's flow on its other paths is fixed load, weighed by its
    self-weight.  The steps stop when the two marginals agree to
    ``EXCHANGE_TOL`` or a step moves nothing.
    """
    idx = game.paths.paths[ui]
    k = len(idx)
    links = game.net.links
    b = game.coop.rows[ui][ui]
    totals, weighted = _state_loads(game, state, ui)
    f = [max(0.0, v) for v in state[ui]]
    s = math.fsum(f)
    if s > 0:
        f = [v * (r / s) for v in f]
    else:
        f = [r] + [0.0] * (k - 1)
    for _ in range(EXCHANGE_STEPS):
        margs = path_marginals(links, idx, b, totals, weighted, f)
        cheap = min(range(k), key=lambda p: (margs[p], p))
        low = margs[cheap]
        if low == INFINITE_COST:
            # The scaled start fills every path; the even split may not.
            even = [r / k] * k
            if f == even:
                raise SolverError(
                    f"user {game.users[ui].user_id} has no unsaturated path")
            f = even
            continue
        dear = max((p for p in range(k) if f[p] > 0.0),
                   key=lambda p: (margs[p], -p))
        if margs[dear] - low <= EXCHANGE_TOL * max(1.0, abs(low)):
            break
        own = [0.0] * len(links)
        for p, links_p in enumerate(idx):
            if f[p] and p != dear and p != cheap:
                for li in links_p:
                    own[li] += f[p]
        tp = game._two_path_user(ui, dear, cheap, f[dear] + f[cheap])
        pair = _guarded_split(
            game, ui, tp, [totals[li] + own[li] for li in tp.links],
            [weighted[li] + b * own[li] for li in tp.links])
        if pair == (f[dear], f[cheap]):
            break
        f[dear], f[cheap] = pair
    return tuple(f)


def _best_response(game: RoutingGame, state, ui: int) -> tuple[float, ...]:
    r = game.users[ui].demand
    paths = game.paths.paths[ui]
    if not paths:
        return ()
    if r == 0.0:
        return (0.0,) * len(paths)
    if len(paths) == 1:
        return (r,)
    tp = game.two_path[ui]
    if tp is not None:
        return _guarded_split(game, ui, tp, *_state_loads(game, state, ui))
    if game.disjoint[ui] is not None:
        return _disjoint_response(game, ui, r, state)
    return _exchange_response(game, ui, r, state)


@dataclass(frozen=True, slots=True)
class DynamicsResult:
    state: tuple[tuple[float, ...], ...]
    converged: bool
    sweeps: int
    jumps_kept: int
    jumps_rejected: int


def _reduced(game: RoutingGame, state) -> list[float]:
    out: list[float] = []
    for ui in range(len(game.users)):
        out.extend(state[ui][1:])
    return out


def _set_from_reduced(game: RoutingGame, state, red) -> None:
    i = 0
    for ui, u in enumerate(game.users):
        k = len(game.paths.paths[ui])
        if k <= 1:
            continue
        coords = [min(max(c, 0.0), u.demand) for c in red[i:i + k - 1]]
        i += k - 1
        s = math.fsum(coords)
        if s > u.demand and s > 0:
            coords = [c * (u.demand / s) for c in coords]
            s = u.demand
        state[ui] = [u.demand - s, *coords]


def _sweep(game: RoutingGame, state) -> None:
    """One Gauss-Seidel sweep: each user in turn takes its best response
    against the current flows."""
    for ui in range(len(game.users)):
        state[ui] = list(_best_response(game, state, ui))


def _forgets_start(game: RoutingGame) -> bool:
    """Whether the first user's best response ignores its own flows: it
    has two paths or fewer, or water-fills link-disjoint ones."""
    return (len(game.paths.paths[0]) <= 2
            or game.disjoint[0] is not None)


def _sweep_rank(game: RoutingGame) -> int:
    """``d``: how many reduced coordinates the next sweep reads, those of
    users 2..n and the first user's own unless ``_forgets_start``; at
    least 1 and at most ``EXTRAPOLATION_RANK``."""
    ks = [len(p) - 1 for p in game.paths.paths]
    d = sum(ks[1:]) + (0 if not ks or _forgets_start(game) else ks[0])
    return min(max(d, 1), EXTRAPOLATION_RANK)


def _distance(a, b) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _iterate(game: RoutingGame, state, polish: bool) -> DynamicsResult:
    """Gauss-Seidel sweeps from ``state``, extrapolated between them.

    The last ``d + 2`` reduced iterates (``_sweep_rank``) form a window;
    when it is full, ``_extrapolate`` fits its limit and the state jumps
    there.  A trial sweep then keeps the jump only if it moves the state
    less than a quarter of the window's last displacement; otherwise the
    state goes back and ten plain sweeps cool it down.  A trial sweep
    whose best response raises rejects the jump the same way.

    The dynamics (``polish`` False) stop when a sweep moves no reduced
    coordinate by ``FP_TOL``, converged, or after ``MAX_SWEEPS``.  The
    polish starts from a converged state and stops when a sweep leaves
    it bit-identical or moves it no less than the sweep before.
    """
    rank = _sweep_rank(game)
    prev = _reduced(game, state) if polish else None
    last = math.inf
    window: list[list[float]] = []
    cooldown = sweeps = kept = rejected = 0
    converged = False

    def settled(move: float) -> bool:
        nonlocal last, converged
        if polish:
            stop, last = move == 0.0 or not move < last, move
            return stop
        converged = move < FP_TOL
        return converged

    while sweeps < MAX_SWEEPS:
        _sweep(game, state)
        sweeps += 1
        red = _reduced(game, state)
        if prev is not None and settled(_distance(red, prev)):
            break
        prev = red
        window.append(red)
        if len(window) > rank + 2:
            window.pop(0)
        if cooldown > 0:
            cooldown -= 1
            continue
        if len(window) < rank + 2 or sweeps + 1 >= MAX_SWEEPS:
            continue
        jump = _extrapolate(window)
        if jump is None:
            continue
        window = []
        target, size = jump
        saved = [list(s) for s in state]
        _set_from_reduced(game, state, target)
        sweeps += 1
        try:
            _sweep(game, state)
        except SolverError:
            move = math.inf
        else:
            red = _reduced(game, state)
            move = _distance(red, target)
        if move < 0.25 * size:
            kept += 1
            prev = red
            if settled(move):
                break
        else:
            rejected += 1
            state[:] = saved
            cooldown = 10
    return DynamicsResult(state=tuple(tuple(s) for s in state),
                          converged=converged, sweeps=sweeps,
                          jumps_kept=kept, jumps_rejected=rejected)


def br_dynamics(game: RoutingGame, start) -> DynamicsResult:
    """Run Gauss-Seidel best response from one starting profile,
    extrapolated between sweeps (``_iterate``)."""
    return _iterate(game, [list(map(float, s)) for s in start], False)


def _extrapolate(window):
    """The limit that the reduced iterates ``window`` head for, and the
    size of their last displacement; None when no limit is trusted.

    With ``d + 2`` iterates ``x_0 .. x_{d+1}`` and displacements ``u_j =
    x_{j+1} - x_j``, weights ``g_j`` summing to 1 minimize
    ``|sum g_j u_j|`` by least squares, and the limit is ``sum g_j
    x_{j+1}`` (Anderson acceleration: Walker and Ni 2011; reduced rank
    extrapolation: Sidi 2017).  On an affine map whose displacements span
    at most ``d`` dimensions that sum is the fixed point, whatever the
    map's eigenvalues; a column the earlier ones already span is left
    out of the fit.

    With ``d = 1`` this is Aitken's delta-squared step, taken per
    coordinate: every coordinate that moves must keep one sign and
    shrink at a ratio in [0.02, 0.9], and the ratios must agree within
    0.05.
    """
    diffs = [[b - a for a, b in zip(x0, x1)]
             for x0, x1 in zip(window, window[1:])]
    size = max(map(abs, diffs[-1]), default=0.0)
    if len(diffs) == 2:
        target, ratios = [], []
        for x, u0, u1 in zip(window[-1], *diffs):
            if abs(u0) < 1e-14 and abs(u1) < 1e-14:
                target.append(x)
                continue
            if abs(u0) < 1e-14 or u0 * u1 <= 0 or not 0.02 <= u1 / u0 <= 0.9:
                return None
            ratios.append(u1 / u0)
            target.append(x - u1 * u1 / (u1 - u0))
        if not ratios or max(ratios) - min(ratios) > 0.05:
            return None
        return target, size
    # With g_d = 1 - sum of the others, the fit is min |u_d + sum g_j
    # (u_j - u_d)| over j < d: modified Gram-Schmidt on those columns,
    # newest first, then back substitution.
    last = diffs[-1]
    basis, rows, cols = [], [], []
    for j in reversed(range(len(diffs) - 1)):
        v = [a - b for a, b in zip(diffs[j], last)]
        norm = math.hypot(*v)
        row = []
        for q in basis:
            h = math.fsum(a * b for a, b in zip(q, v))
            row.append(h)
            v = [a - h * b for a, b in zip(v, q)]
        rest = math.hypot(*v)
        if not rest > 1e-10 * norm:
            continue
        basis.append([a / rest for a in v])
        rows.append(row + [rest])
        cols.append(j)
    if not basis:
        return None
    rhs = [-math.fsum(a * b for a, b in zip(q, last)) for q in basis]
    g = [0.0] * len(basis)
    for i in reversed(range(len(basis))):
        g[i] = (rhs[i] - math.fsum(rows[k][i] * g[k]
                                   for k in range(i + 1, len(basis)))
                ) / rows[i][i]
    newest = window[-1]
    target = list(newest)
    for gi, j in zip(g, cols):
        target = [t + gi * (a - b) for t, a, b in zip(target, window[j + 1],
                                                       newest)]
    return target, size


@dataclass(frozen=True, slots=True)
class NashCheck:
    """Outcome of an independent equilibrium verification."""

    ok: bool
    max_violation: float
    kkt_multipliers: tuple[float, ...]
    saturated: tuple[str, ...]


@functools.lru_cache(maxsize=8, typed=True)
def _deviation_splits(r: float) -> tuple[tuple[float, float], ...]:
    """The ``(r - t, t)`` splits of demand ``r`` that ``verify_nash``'s
    deviation sweep prices, for ``t`` on ``grid(r, DEVIATION_GRID)``.

    ``t`` does not decrease along the grid, so the first flow does not
    increase and the second does not decrease, the order that
    ``DeviationCost.least_below``'s block corners need.  They depend on
    the demand alone, so each demand's splits are built once and shared
    as a tuple no caller can change.  ``typed`` keeps an
    ``int`` demand apart from the equal ``float``, whose splits differ in
    the type of the last point.  A preset's users have at most two
    demands; each entry holds about 110 KB.
    """
    return tuple((r - t, t) for t in grid(r, DEVIATION_GRID))


def verify_nash(game: RoutingGame, profile: FlowProfile) -> NashCheck:
    """Check a profile against three independent optimality conditions.

    Per user: every flow-carrying path's marginal operating cost must match
    the minimum over its paths; recomputing the exact best response must
    reproduce the user's flows; and for two-path users a dense sweep of
    alternative splits must not beat the current operating cost.  All
    violations are normalized before comparing with ``VERIFY_TOL``.  NaN
    compares false both ways, so a NaN cost or marginal counts as an
    infinite violation, and so does a best response that cannot be
    recomputed because no split of the user's demand fits.
    """
    sat = saturated_links(game.net, profile)
    state = [list(f) for f in profile.path_flows]
    lambdas: list[float] = []
    links = game.net.links
    raws = user_costs(links, profile.user_link_flows, profile.total_link_flows)
    viol = math.inf if any(math.isnan(j) for j in raws) else 0.0
    for ui in range(len(profile.user_ids)):
        r = game.users[ui].demand
        k = len(profile.path_flows[ui])
        if r == 0.0 or k <= 1:
            lambdas.append(0.0)
            continue
        # The profile's loads hold the user's own flow: none goes on top.
        row = game.coop.rows[ui]
        weighted = [0.0] * len(links)
        for wk, own in zip(row, profile.user_link_flows):
            if wk:
                weighted = [w + wk * v for w, v in zip(weighted, own)]
        margs = path_marginals(links, game.paths.paths[ui], row[ui],
                               profile.total_link_flows, weighted,
                               [0.0] * k)
        finite = [v for v in margs if v != INFINITE_COST]
        lam = min(finite) if finite else INFINITE_COST
        lambdas.append(lam)
        flow_eps = 1e-9 * max(1.0, r)
        scale = max(1.0, abs(lam)) if lam != INFINITE_COST else 1.0
        for p in range(k):
            if profile.path_flows[ui][p] > flow_eps:
                if margs[p] == INFINITE_COST or math.isnan(margs[p] - lam):
                    viol = math.inf
                else:
                    viol = max(viol, (margs[p] - lam) / scale)
        cost = deviation_cost(game.net.links, game.paths.paths, state,
                              game.coop.rows[ui], ui)
        cur = cost.price([state[ui]])[0]
        try:
            br = _best_response(game, state, ui)
        except SolverError:  # no split fits beside the others' flows
            br, viol = state[ui], math.inf
        res = max(abs(a - b) for a, b in zip(br, profile.path_flows[ui]))
        if res > flow_eps:
            # A different split only disqualifies the profile if it is
            # actually cheaper; with a flat objective any split is a best
            # response and the recomputed one is arbitrary.
            at_br = cost.price([br])[0]
            if cur == INFINITE_COST:
                gap = 0.0 if at_br == INFINITE_COST else math.inf
            else:
                gap = max(0.0, cur - at_br) / max(1.0, abs(cur))
            viol = max(viol, min(res / max(1.0, r), gap))
        if k == 2:
            cscale = max(1.0, abs(cur)) if cur != INFINITE_COST else 1.0
            # the true least cost of a split when it is below cur, which
            # is all that is read of it
            best_alt = cost.least_below(_deviation_splits(r), cur)
            if cur != INFINITE_COST and best_alt < cur:
                viol = max(viol, (cur - best_alt) / cscale)
            elif cur == INFINITE_COST and best_alt < INFINITE_COST:
                viol = math.inf
    ok = not sat and viol <= VERIFY_TOL
    return NashCheck(ok=ok, max_violation=viol,
                     kkt_multipliers=tuple(lambdas), saturated=sat)


@dataclass(frozen=True, slots=True)
class EquilibriumResult:
    """One equilibrium with its costs, basin share, and verification."""

    profile: FlowProfile
    raw_costs: tuple[float, ...]
    operating_costs: tuple[float, ...]
    basin_count: int
    # spread of the limits of the trajectories that ran into the cluster
    cluster_diameter: float
    scan_found: bool
    verified: bool
    max_violation: float


@dataclass(frozen=True, slots=True)
class EquilibriumSet:
    """All equilibria found for one game, cheapest first for user one."""

    equilibria: tuple[EquilibriumResult, ...]
    diagnostics: dict

    def __len__(self):
        return len(self.equilibria)

    def __iter__(self):
        return iter(self.equilibria)


def profile_from_state(game: RoutingGame, state) -> FlowProfile:
    return assemble_profile(game.net, game.paths,
                            [list(s) for s in state], game.demands)


class _Cluster:
    """Fixed points within ``CLUSTER_RADIUS`` of the first one, or a
    verified support-pass root.  ``mins`` and ``maxs`` bound the dynamics
    limits in it, ``supports`` holds the supports of the pass roots in
    it, ``done`` its profile and check (``_finish``), and ``polish`` its
    polishing run."""

    __slots__ = ("red", "state", "basin", "mins", "maxs", "supports",
                 "done", "polish")

    def __init__(self, red, state, weight, done):
        self.red = red
        self.state = state
        self.basin = weight
        self.mins = list(red)
        self.maxs = list(red)
        self.supports = set()
        self.done = done
        self.polish = None


def _cluster_of(clusters: list[_Cluster], red, far=None) -> _Cluster | None:
    """The first cluster within ``CLUSTER_RADIUS`` of ``red``, if any;
    given ``far``, the one that is first for every point of the box that
    ``red`` and ``far`` span, if one is."""
    far = red if far is None else far
    for c in clusters:
        if all(abs(x - r) <= CLUSTER_RADIUS and abs(y - r) <= CLUSTER_RADIUS
               for x, y, r in zip(red, far, c.red)):
            return c
        if not any(abs(x - r) > CLUSTER_RADIUS and abs(y - r) > CLUSTER_RADIUS
                   and (x > r) == (y > r) for x, y, r in zip(red, far, c.red)):
            return None
    return None


def _cluster_merge(clusters: list[_Cluster], red, state, weight) -> None:
    c = _cluster_of(clusters, red)
    if c is None:
        clusters.append(_Cluster(red, state, weight, None))
        return
    c.basin += weight
    for i, v in enumerate(red):
        if v < c.mins[i]:
            c.mins[i] = v
        if v > c.maxs[i]:
            c.maxs[i] = v


def _finish(game: RoutingGame, c: _Cluster) -> tuple[FlowProfile, NashCheck]:
    """A cluster's profile and its check.  A cluster the pass opened
    holds the check that admitted it; one that dynamics reached is
    polished (``_iterate``), its run kept in ``c.polish``, and verified on
    the first call."""
    if c.done is None:
        c.polish = _iterate(game, [list(s) for s in c.state], True)
        profile = profile_from_state(game, c.polish.state)
        c.done = (profile, verify_nash(game, profile))
    return c.done


def _signs(tp: _TwoPath) -> dict[int, int]:
    """+1 on each link of ``tp``'s second path only, -1 on each link of
    its first path only: how one more unit of ``t`` moves their loads."""
    n1 = tp.split.n1
    return {li: (1 if i < n1 else -1)
            for i, li in enumerate(tp.links[:len(tp.split.specs)])}


def _certified_unique(game: RoutingGame) -> bool:
    """Whether Rosen's test proves that the game has one equilibrium.

    It applies to two users with two paths each on affine links.  User
    ``i``'s derivative along its second-path flow is then affine in both
    users' second-path flows, with the constant Jacobian

        J_ii = 2 w_ii sum_l a_l e_il^2,
        J_ij = (w_ii + w_ij) sum_l a_l e_il e_jl,

    where ``a_l`` is link ``l``'s slope, ``w`` the cooperation rows, and
    ``e_il`` is +1 on links of ``i``'s second path only, -1 on links of
    its first path only and 0 elsewhere.  If the symmetric part of ``J``
    is positive definite, the users' derivatives are strictly monotone
    and the equilibrium is unique (diagonal strict convexity with unit
    weights).  In rational arithmetic the 2x2 test decides that exactly.
    """
    if (len(game.two_path) != 2 or any(tp is None for tp in game.two_path)
            or not all(isinstance(lk.cost, LinearCost)
                       for lk in game.net.links)):
        return False
    links = game.net.links
    signs = [_signs(tp) for tp in game.two_path]
    w = [[Fraction(v) for v in row] for row in game.coop.rows]

    def jac(i, j):
        return (2 * w[i][i] if i == j else w[i][i] + w[i][j]) * sum(
            (Fraction(links[li].cost.slope) * e * signs[j][li]
             for li, e in signs[i].items() if li in signs[j]), Fraction(0))

    j00, j11 = jac(0, 0), jac(1, 1)
    return j00 > 0 and j00 * j11 > ((jac(0, 1) + jac(1, 0)) / 2) ** 2


def _start_options(game: RoutingGame):
    options = []
    for ui, u in enumerate(game.users):
        k = len(game.paths.paths[ui])
        r = u.demand
        if k == 0:
            options.append([()])
        elif k == 1 or r == 0.0:
            options.append([(r,) + (0.0,) * (k - 1)])
        elif k == 2:
            options.append([(r - t, t) for t in grid(r, GRID_DENSITY)])
        else:
            verts = []
            for p in range(k):
                v = [0.0] * k
                v[p] = r
                verts.append(tuple(v))
            verts.append(tuple(r / k for _ in range(k)))
            options.append(verts)
    return options


def _split_rows(game: RoutingGame):
    """For two two-path users: a function from their second-path flows
    ``t``, and user ``j``'s loads and bracket ``(j, others, weighted, lo,
    hi)`` if ``given``, to each user's ``(derivative, slope, cross)``
    along its split (``SplitCost.row``, loads by ``_state_loads`` of the
    pair's state), where ``cross`` is the slope in the other user's flow.
    It returns None when a user's demand does not fit on a shared M/M/1
    link, or its split leaves the guard bracket on a path it uses."""
    tps = game.two_path
    r = game.demands
    shifts = [tuple(_signs(tps[1 - i]).get(li, 0)
                    for li in tp.links[:len(tp.split.specs)])
              for i, tp in enumerate(tps)]
    weights = [game.coop.rows[i][1 - i] for i in range(2)]

    def rows(t, given=(None,)):
        state = ((r[0] - t[0], t[0]), (r[1] - t[1], t[1]))
        out = []
        for i, tp in enumerate(tps):
            if given[0] == i:
                others, weighted, lo, hi = given[1:]
            else:
                others, weighted = _state_loads(game, state, i)
                lo, hi = tp.split.bracket(others)
            if any(others[k] + r[i] > cap - CAPACITY_GUARD
                   for k, cap in tp.caps):
                return None
            if not ((t[i] == r[i] or lo <= t[i])
                    and (t[i] == 0.0 or t[i] <= hi)):
                return None
            out.append(tp.split.row(t[i], others, weighted, shifts[i],
                                    weights[i]))
        return out
    return rows


def _on_curve(game: RoutingGame, rows, i: int, x: float):
    """User ``i`` at second-path flow ``x`` and the other user at its
    exact best response (``_split_argmin``), as ``(t, rows(t), inside)``:
    ``inside`` tells whether that response lies strictly inside its guard
    bracket, which ``rows`` takes with the responder's loads.  None when
    the split leaves a guard bracket or a shared link (``rows`` tests the
    latter)."""
    j = 1 - i
    tp = game.two_path[j]
    flows = (game.demands[i] - x, x)
    others, weighted = _state_loads(game, (flows, flows), j)
    lo, hi = tp.split.bracket(others)
    if lo > hi:
        return None
    y = _split_argmin(game, j, tp, lo, hi, others, weighted)
    t = [x, y] if i == 0 else [y, x]
    at = rows(t, (j, others, weighted, lo, hi))
    return None if at is None else (t, at, lo < y < hi)


def _curve_roots(game: RoutingGame, rows, i: int) -> list:
    """Points ``t`` where both users sit strictly inside their guard
    brackets with a zero derivative, as ``(t, rows(t))``, found along the
    other user's best-response curve (``_on_curve``) as zeros of user
    ``i``'s derivative ``phi`` over user ``i``'s flow.

    ``phi`` is sampled at ``CURVE_GRID`` flows.  Where the curve leaves
    the guard brackets between two of them, the last flow inside, found
    by bisection, is sampled too: a root can sit in a sliver next to a
    capacity.  Each sign change is solved by ``newton_argmin`` with
    ``phi``'s analytic slope ``s_i - c_i c_j / s_j`` in ``rows``' terms:
    the best response moves by ``-c_j / s_j``, or not at all where it
    sits at an end of its bracket.
    """
    j = 1 - i
    xs = grid(game.demands[i], CURVE_GRID)
    marks = [(x, _on_curve(game, rows, i, x)) for x in xs]
    for (a, pa), (b, pb) in zip(marks[:len(xs)], marks[1:len(xs)]):
        if (pa is None) == (pb is None):
            continue
        if pa is None:
            a, b, pa = b, a, pb
        for _ in range(SEARCH_STEPS):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            pm = _on_curve(game, rows, i, mid)
            if pm is None:
                b = mid
            else:
                a, pa = mid, pm
        marks.append((a, pa))
    marks = sorted((x, p[1][i][0]) for x, p in marks if p is not None)
    roots = []
    for (a, ga), (b, gb) in zip(marks, marks[1:]):
        if not (ga <= 0.0 <= gb or gb <= 0.0 <= ga):
            continue
        sign = 1.0 if ga <= gb else -1.0

        def phi(x: float) -> tuple[float, float]:
            p = _on_curve(game, rows, i, x)
            if p is None:
                return math.nan, math.nan
            (g, s, c), (_, sj, cj) = p[1][i], p[1][j]
            if not p[2]:
                return sign * g, sign * s
            return sign * g, sign * (s - c * cj / sj) if sj else math.nan

        p = _on_curve(game, rows, i, newton_argmin(phi, a, b))
        if p is not None and p[2] and 0.0 < p[0][i] < game.demands[i]:
            roots.append(p[:2])
    return roots


def _support_roots(game: RoutingGame, rows) -> list:
    """For two two-path users, the roots of each support, as ``(support,
    state)``: each user on its first path (0), its second (1) or both
    (2), with a zero derivative for the users on both, strictly inside
    the box and the guard brackets, and no unused path cheaper.  The
    solves test the guard brackets and shared links first, so a support
    whose splits do not fit yields no root instead of raising.

    One user on both paths takes its exact best response (``_on_curve``).
    Two solve a linear system on affine links, from ``rows`` at the
    centroid, and otherwise take ``_curve_roots`` along both users'
    best-response curves, since such a support can hold several roots.
    A root keeps the rows it was found with for the slack test.  Both
    scans can find the same root, and near a continuum of equilibria
    their copies can lie further apart than ``DISTINCT_TOL``, so a root
    within ``CLUSTER_RADIUS`` of an earlier one of its support is dropped;
    ``multistart_nash`` merges roots of different supports only within
    ``DISTINCT_TOL``.
    """
    r = game.demands
    affine = all(tp.split.affine for tp in game.two_path)
    out = []
    for support in itertools.product((0, 1, 2), repeat=2):
        t = [(0.0, r[i], 0.5 * r[i])[s] for i, s in enumerate(support)]
        free = [i for i, s in enumerate(support) if s == 2]
        if not free:
            roots = [(t, rows(t))]
        elif len(free) == 1:
            p = _on_curve(game, rows, 1 - free[0], t[1 - free[0]])
            roots = [p[:2]] if p is not None and p[2] else []
        elif not affine:
            roots = []
            for root in (_curve_roots(game, rows, 0)
                         + _curve_roots(game, rows, 1)):
                if not any(_distance(root[0], seen[0]) <= CLUSTER_RADIUS
                           for seen in roots):
                    roots.append(root)
        else:
            # On affine links the derivatives are linear in t: one Newton
            # step from the centroid lands on the root.
            at = rows(t)
            if at is None:
                continue
            (g0, s0, x0), (g1, s1, x1) = at
            det = _free_det(at, free)[0]
            if not det:
                continue
            t = [t[0] + (x0 * g1 - s1 * g0) / det,
                 t[1] + (x1 * g0 - s0 * g1) / det]
            inside = all(0.0 < v < ri for v, ri in zip(t, r))
            roots = [(t, rows(t))] if inside else []
        for t, at in roots:
            if at is None or any(s == 0 and g < 0.0 or s == 1 and g > 0.0
                                 for s, (g, _, _) in zip(support, at)):
                continue
            out.append((support, ((r[0] - t[0], t[0]), (r[1] - t[1], t[1]))))
    return out


def _free_det(at, free) -> tuple[float, float]:
    """The determinant of the Jacobian of the derivatives in ``at``
    (``rows``' slopes and crosses) reduced to the users in ``free``, and
    its size: the product of those users' ``hypot(slope, cross)``."""
    det = math.prod(at[i][1] for i in free)
    return (det - at[0][2] * at[1][2] if len(free) == 2 else det,
            math.prod(math.hypot(at[i][1], at[i][2]) for i in free))


def _index_sum(game: RoutingGame, rows,
               clusters) -> tuple[int | None, int]:
    """The index sum of the verified clusters of two two-path users, or
    None if one is degenerate, and the number of degenerate ones.

    A point's support puts each user on its first path, its second or
    both, and its index is the sign of the determinant of the Jacobian of
    the derivatives, reduced to the users on both paths (+1 when there is
    none).  The indices of a game's regular equilibria sum to 1 (Simsek,
    Ozdaglar and Acemoglu 2007).  A point is degenerate when that
    determinant is near zero against its size (``_free_det``), when an
    unused path's slack is near zero against the user's multiplier, or
    when pass roots of two supports fell in its cluster.
    """
    total = degenerate = 0
    for c in clusters:
        profile, check = _finish(game, c)
        if not check.ok:
            continue
        t = [profile.path_flows[i][1] for i in range(2)]
        support = tuple(0 if v == 0.0 else 1 if v == r else 2
                        for v, r in zip(t, game.demands))
        at = rows(t)
        free = [i for i, s in enumerate(support) if s == 2]
        if at is None or len(c.supports | {support}) > 1 or any(
                abs(at[i][0]) <= DEGENERATE_TOL * max(
                    1.0, abs(check.kkt_multipliers[i]))
                for i in range(2) if i not in free):
            degenerate += 1
            continue
        det, size = _free_det(at, free)
        if abs(det) <= DEGENERATE_TOL * size:
            degenerate += 1
        else:
            total += 1 if det > 0.0 else -1
    return (None if degenerate else total), degenerate


def multistart_nash(game: RoutingGame) -> EquilibriumSet:
    """Find the game's equilibria from a grid of starts plus a support pass.

    Starting profiles are the product of per-user splits.  When the
    first user's best response ignores its own flows
    (``_forgets_start``), it does not depend on its own start, so
    trajectories differing only there coincide after one step; they are
    run once and their count is credited to the reached basin.  A start
    whose dynamics raise ``SolverError`` counts in ``failed_starts``.

    With two users, the first user's start fixed and the second on two
    paths, the starts are bisected when one sweep from each keeps them
    in order (Topkis 1979; Milgrom and Roberts 1990): from the lowest
    up, an interval whose ends' limits span a box in one cluster
    (``_cluster_of``) credits its inner starts to the lower end.  That
    this matches running every start is tested, not proved: the probe
    checks order at the starts only, and the dynamics extrapolate.

    For two two-path users with positive demands the support pass then
    lists the supports' roots (``_support_roots``), the repelling fixed
    points among them.  Each root is verified and, if it passes, opens a
    cluster with basin 0, or notes its support on an earlier root's
    within ``DISTINCT_TOL``.  Each dynamics cluster within
    ``CLUSTER_RADIUS`` of one gives the nearest its basin and limits'
    bounds; one near none stays, to be polished and verified, and counts
    in ``pass_missed``.  ``diagnostics["scan_coverage"]`` reads
    ``"support"`` when the verified clusters' index sum (``_index_sum``)
    is 1 with no degenerate point.  The pass does not run, and it reads
    ``"unique"``, when the game is certified to have one equilibrium
    (``_certified_unique``), every trajectory converged, and the one
    cluster they reached verifies.  Otherwise it reads ``"none"``: no
    check says the listed set is complete.  ``scan_candidates`` counts
    the pass's roots, ``scan_added`` the basin-0 clusters
    (``scan_found``), and ``index_sum`` and ``degenerate`` describe the
    final set (None and 0 without two two-path users), so they tell a
    pass that did not close from one that did not run.
    ``sweeps`` counts the probe's sweeps and those of the dynamics and
    the polish, trial sweeps included, and ``jumps_kept`` and
    ``jumps_rejected`` their extrapolations (``_iterate``); a start that
    raised adds none.  ``responses`` and ``responses_reused`` count the
    Newton best responses solved and found again (``_split_argmin``).
    """
    return contextvars.copy_context().run(_multistart, game)


def _multistart(game: RoutingGame) -> EquilibriumSet:
    table: dict = {}
    _RESPONSES.set((game, table))
    n = len(game.users)
    options = _start_options(game)
    total_starts = 1
    for opts in options:
        total_starts *= len(opts)
    if _forgets_start(game) and len(options[0]) > 1:
        weight = len(options[0])
        head = [options[0][0]]
    else:
        weight = 1
        head = options[0]
    combos = list(itertools.product(head, *options[1:]))
    probes = []
    if n == 2 and len(head) == 1 and game.two_path[1] is not None:
        try:
            for state in ([list(s) for s in combo] for combo in combos):
                _sweep(game, state)
                probes.append(state[1][1])
        except SolverError:
            probes = []
    ordered = bool(probes) and probes == sorted(probes)
    runs = []
    clusters: list[_Cluster] = []
    trajectories = non_converged = failed_starts = 0

    def run(i):
        # start i's dynamics (None if they raised) and limit (or None)
        nonlocal trajectories
        trajectories += 1
        try:
            res = br_dynamics(game, combos[i])
        except SolverError:
            return None, None
        runs.append(res)
        return res, _reduced(game, res.state) if res.converged else None

    def fill(lo, a, hi, b):
        # the starts up to lo are merged and hi has run: merge those up
        # to hi, crediting the ones between to lo's cluster or bisecting
        nonlocal non_converged, failed_starts
        if hi - lo > 1 and not (ordered and a[1] and b[1]
                                and _cluster_of(clusters, a[1], b[1])):
            mid = (lo + hi) // 2
            m = run(mid)
            fill(lo, a, mid, m)
            fill(mid, m, hi, b)
            return
        for (res, red), count in ((a, hi - lo - 1), (b, 1)):
            if res is None:
                failed_starts += count * weight
            elif red is None:
                non_converged += count * weight
            else:
                _cluster_merge(clusters, red, res.state, count * weight)

    first = run(0)
    fill(-1, (None, None), 0, first)
    if len(combos) > 1:
        fill(0, first, len(combos) - 1, run(len(combos) - 1))
    reached = clusters
    scan_candidates = pass_missed = 0
    index_sum, degenerate = None, 0
    paired = (n == 2 and all(k is not None for k in game.two_path)
              and all(r > 0 for r in game.demands))
    # A certified game has one equilibrium: once the dynamics all reach
    # it and it verifies, there is nothing left to find.
    unique = (paired and non_converged == 0 and len(clusters) == 1
              and _certified_unique(game) and _finish(game, clusters[0])[1].ok)

    coverage = "none"
    if paired:
        rows = _split_rows(game)
        if not unique:
            roots: list[_Cluster] = []
            for support, cand in _support_roots(game, rows):
                scan_candidates += 1
                red = _reduced(game, cand)
                c = next((h for h in roots
                          if _distance(red, h.red) <= DISTINCT_TOL), None)
                if c is None:
                    # a new root opens a basin-0 cluster if it verifies
                    profile = profile_from_state(game, cand)
                    check = verify_nash(game, profile)
                    if not check.ok:
                        continue
                    c = _Cluster(red, cand, 0, (profile, check))
                    roots.append(c)
                c.supports.add(support)
            # each dynamics cluster near a root gives the nearest its
            # basin and the bounds of its limits; the rest stay
            missed = []
            for c in reached:
                h = min(roots, key=lambda h: _distance(c.red, h.red),
                        default=None)
                if h is None or _distance(c.red, h.red) > CLUSTER_RADIUS:
                    missed.append(c)
                    continue
                if h.basin:
                    c.mins = list(map(min, h.mins, c.mins))
                    c.maxs = list(map(max, h.maxs, c.maxs))
                h.mins, h.maxs = c.mins, c.maxs
                h.basin += c.basin
            clusters, pass_missed = roots + missed, len(missed)
        index_sum, degenerate = _index_sum(game, rows, clusters)
        coverage = ("unique" if unique
                    else "support" if index_sum == 1 else "none")
    results = []
    for c in clusters:
        profile, check = _finish(game, c)
        raws = user_costs(game.net.links, profile.user_link_flows,
                          profile.total_link_flows)
        diameter = max((mx - mn for mn, mx in zip(c.mins, c.maxs)),
                       default=0.0)
        results.append(EquilibriumResult(
            profile=profile, raw_costs=tuple(raws),
            operating_costs=tuple(weighted_cost(row, raws)
                                  for row in game.coop.rows),
            basin_count=c.basin, cluster_diameter=diameter,
            scan_found=c.basin == 0,
            verified=check.ok, max_violation=check.max_violation))
    runs += [c.polish for c in reached if c.polish is not None]
    diagnostics = {"total_starts": total_starts,
                   "trajectories": trajectories,
                   "non_converged": non_converged,
                   "failed_starts": failed_starts,
                   "sweeps": len(probes) + sum(r.sweeps for r in runs),
                   "responses": len(table),
                   "responses_reused": sum(k[1] for k in table.values()),
                   "jumps_kept": sum(r.jumps_kept for r in runs),
                   "jumps_rejected": sum(r.jumps_rejected for r in runs),
                   "scan_candidates": scan_candidates,
                   "scan_added": sum(c.basin == 0 for c in clusters),
                   "pass_missed": pass_missed,
                   "scan_coverage": coverage,
                   "index_sum": index_sum,
                   "degenerate": degenerate}
    if not results:
        raise SolverError("no starting point converged to an equilibrium",
                          diagnostics=diagnostics)
    # Costs compare at the CSV's 12 digits, so equilibria whose costs tie
    # in exact arithmetic (mirror images) come out in flow order.
    results.sort(key=lambda e: (float(format(e.operating_costs[0], ".12g")),)
                 + tuple(v for flows in e.profile.path_flows for v in flows))
    return EquilibriumSet(equilibria=tuple(results),
                          diagnostics=diagnostics)
