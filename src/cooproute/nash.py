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
interior equilibria of these games are often repelling.  Two users with
two paths each are therefore solved as one map (``_map_points``): the
equilibria are the fixed points of ``phi(t)``, user 2's split after one
sweep from its split ``t``.  When the links that both users' splits move
push the loads one way, ``phi`` does not decrease, and an exclusion
search drops each interval that ``phi`` maps wholly above or below
itself.  Basins follow from the direction of each start's first step.

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

import bisect
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .costs import (CAPACITY_GUARD, INFINITE_COST, CooperationProfile,
                    MM1Cost, SplitCost, deviation_cost,
                    guard_fill, path_marginals, user_costs, weighted_cost)
from .errors import ConfigError, SolverError
from .netmodel import (FlowProfile, Network, PathSet, UserSpec,
                       assemble_profile, build_path_set, check_feasibility,
                       saturated_links)
from .search import SEARCH_STEPS, grid


# Solver settings.  The pairwise exchange stops when no used path's
# marginal exceeds the cheapest by EXCHANGE_TOL relative, or, as a safety
# net, after EXCHANGE_STEPS steps.  Dynamics stop when a sweep moves no
# coordinate by FP_TOL, or after MAX_SWEEPS sweeps; between sweeps they
# extrapolate from a window of d + 2 iterates, where d, the number of
# coordinates a sweep reads, is capped at EXTRAPOLATION_RANK.
# GRID_DENSITY splits per two-path user seed the multistart, and fixed
# points within CLUSTER_RADIUS of each other are one equilibrium.  The
# map's exclusion search halves intervals down to MAP_TOL relative to
# the demand, for at most MAP_EVALS evaluations of the map.
# Verification sweeps DEVIATION_GRID splits and accepts a normalized
# violation up to VERIFY_TOL.
EXCHANGE_TOL = 1e-14
EXCHANGE_STEPS = 1_000
FP_TOL = 1e-8
MAX_SWEEPS = 10_000
EXTRAPOLATION_RANK = 8
GRID_DENSITY = 21
CLUSTER_RADIUS = 1e-4
MAP_TOL = 1e-7
MAP_EVALS = 3_000
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
    """Fixed points of the dynamics within ``CLUSTER_RADIUS`` of the first
    one; ``mins`` and ``maxs`` bound the limits in it."""

    __slots__ = ("red", "state", "basin", "mins", "maxs")

    def __init__(self, red, state, weight):
        self.red = red
        self.state = state
        self.basin = weight
        self.mins = list(red)
        self.maxs = list(red)


def _cluster_merge(clusters: list[_Cluster], red, state, weight) -> None:
    c = next((c for c in clusters if _distance(red, c.red) <= CLUSTER_RADIUS),
             None)
    if c is None:
        clusters.append(_Cluster(red, state, weight))
        return
    c.basin += weight
    for i, v in enumerate(red):
        if v < c.mins[i]:
            c.mins[i] = v
        if v > c.maxs[i]:
            c.maxs[i] = v


def _signs(tp: _TwoPath) -> dict[int, int]:
    """+1 on each link of ``tp``'s second path only, -1 on each link of
    its first path only: how one more unit of ``t`` moves their loads."""
    n1 = tp.split.n1
    return {li: (1 if i < n1 else -1)
            for i, li in enumerate(tp.links[:len(tp.split.specs)])}


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


def _refine(f, a: float, b: float) -> tuple[float, float]:
    """Adjacent floats ``a < b`` at which ``f`` has opposite signs, from
    ``[a, b]`` whose ends it gives opposite signs, or ``(x, x)`` at a zero
    ``x``.  Each step is Illinois' secant (the value at an end kept twice
    in a row is halved), or the midpoint when the secant leaves the
    bracket or the step before did not halve it."""
    fa = f(a)
    wa, wb = fa, f(b)
    kept, halve = 0, False
    while True:
        x = 0.5 * (a + b)
        if x == a or x == b:
            return a, b
        if not halve:
            s = a - wa * ((b - a) / (wb - wa))
            if a < s < b:
                x = s
        width = b - a
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == (fa < 0.0):
            a, fa, wa = x, fx, fx
            wb *= 0.5 if kept == -1 else 1.0
            kept = -1
        else:
            b, wb = x, fx
            wa *= 0.5 if kept == 1 else 1.0
            kept = 1
        halve = not halve and b - a > 0.5 * width


def _map_points(game: RoutingGame, weight: int):
    """The equilibria of two two-path users as the fixed points of ``phi``,
    each with its check, basin and bracket width, and the diagnostics.

    ``phi(t)`` is user 2's split after one sweep from ``((r1, 0), (r2 -
    t, t))``, evaluated once per ``t``, and ``g = phi - t``.  When every
    link that both users' splits move gives their ``_signs`` one product,
    ``phi`` does not decrease (Topkis 1978; Vives 1990), so no fixed
    point lies in ``[a, phi(a))`` nor in ``(phi(b), b]``.  The search
    drops those pieces of the grid's intervals (a whole interval, or its
    larger piece when that is a quarter of it) and halves the rest, down
    to ``MAP_TOL`` relative, for at most ``MAP_EVALS`` evaluations.
    Adjacent kept intervals form a stretch, whose roots are the zeros of
    ``g`` at its points and its first sign change refined to adjacent
    floats (``_refine``), sought from the next float in beside a corner
    where ``g`` is 0, as a corner fixed point can hide a root beside it.
    A root within ``FP_TOL`` of an earlier one in both splits is that
    one.  The search closes when the cap is not met and every stretch
    gives a root.  A stretch the cap left wide proves nothing, but each
    sign change in it beyond ``FP_TOL`` (not a continuum's noise) gives
    a root.  With mixed signs each grid interval where ``g`` changes sign
    or is zero is a stretch, and nothing closes.

    A root ``t`` gives user 1's answer to it, or, where user 1 answers
    the ends of the final bracket differently, the fixed point of the
    reverse composition between those answers.  Where ``g`` jumps across
    0 at ``t``, or user 1's own weight is 0, the split at which user 2's
    answer crosses ``t`` stands in for that answer, or is tried beside
    it when far from it; a user that can be indifferent along a segment
    (own weight 0, or flat moving links) adds the four corners; and a
    closed search adds each sweep's end where user 1 would stay, since
    ``g`` can touch 0 there without crossing.  A point is kept when
    verified or reached.

    A start goes where monotone sweeps take it: to the nearest point above
    when ``g > 0``, below when ``g < 0``, and with ``|g| <= FP_TOL`` to a
    root within ``CLUSTER_RADIUS`` or else to a point of its own; one
    whose sweep raised fails, and one with nowhere to go does not
    converge.  A verified root's index is the sign of ``g``'s crossing,
    ``+1`` from above to below; a verified point that does not cross is
    degenerate.
    """
    r1, r2 = game.demands
    # each evaluated t: (user 1's answer x to it, phi(t))
    sweeps: dict = {}

    def answer(ui: int, x: float, t: float) -> float:
        # user ui's second-path flow against the splits x and t, or NaN
        if math.isnan(x + t):
            return math.nan
        try:
            return _best_response(game, ((r1 - x, x), (r2 - t, t)), ui)[1]
        except SolverError:
            return math.nan

    def phi(t: float) -> float:
        if t not in sweeps:
            x = answer(0, 0.0, t)
            sweeps[t] = (x, answer(1, x, t))
        return sweeps[t][1]

    def g(t: float) -> float:
        return phi(t) - t

    # the reverse composition's gap at user 1's split x
    h = functools.cache(lambda x: answer(0, x, answer(1, x, 0.0)) - x)

    def closest(f, lo: float, hi: float) -> float:
        return lo if abs(f(lo)) <= abs(f(hi)) else hi

    def crossing(t: float) -> list[float]:
        # user 1's split at which user 2's answer crosses t, if one does
        gap = functools.cache(lambda x: answer(1, x, t) - t)
        return ([closest(gap, *_refine(gap, 0.0, r1))] if gap(0.0) < 0.0 <
                gap(r1) or gap(r1) < 0.0 < gap(0.0) else [])

    starts = grid(r2, GRID_DENSITY)
    s0, s1 = map(_signs, game.two_path)
    uniform = len({s0[li] * s1[li] for li in s0.keys() & s1.keys()}) <= 1
    tol = MAP_TOL * max(1.0, r2)
    closed = uniform
    stretches: list[list[float]] = []
    if uniform:
        stack = list(zip(starts, starts[1:]))[::-1]
        while stack:
            a, b = stack.pop()
            pa, pb = phi(a), phi(b)
            if pa > b or pb < a:
                continue
            # up = g(a) and down = -g(b); below tol only an interval
            # whose ends give g one sign holds no root yet
            up, down = pa - a, b - pb
            wide = b - a > tol
            work = wide or up > 0.0 > down or up < 0.0 < down
            mid = 0.5 * (a + b)
            if work and len(sweeps) >= MAP_EVALS:
                closed = False
            if work and closed and a < mid < b:
                quarter = 0.25 * (b - a) if wide else 0.0
                if up > 0.0 and up >= max(down, quarter):
                    stack.append((pa, b))
                elif down > 0.0 and down >= quarter:
                    stack.append((a, pb))
                else:
                    stack += [(mid, b), (a, mid)]
            elif stretches and a - stretches[-1][-1] <= tol:
                stretches[-1].append(b)
            else:
                stretches.append([a, b])
    else:
        stretches = [[a, b] for a, b in zip(starts, starts[1:])
                     if not g(a) * g(b) > 0.0]

    def crosses(a: float, b: float, least: float = 0.0) -> bool:
        return (min(abs(g(a)), abs(g(b))) > least
                and (g(a) < 0.0 < g(b) or g(b) < 0.0 < g(a)))

    # each point: [t, user 1's split, final bracket width, basin, root]
    points: list[list] = []
    for pts in stretches:
        pairs = list(zip(pts, pts[1:]))
        if uniform and any(b - a > tol for a, b in pairs):
            # left wide by the cap: no proof, but a sign change of g
            # beyond FP_TOL (not the noise of a continuum) holds a root
            brackets = [_refine(g, a, b) for a, b in pairs
                        if crosses(a, b, FP_TOL)]
        else:
            # each zero of g, and the first sign change; a corner fixed
            # point can hide one beside it, sought from the next float in
            inner = [t if 0.0 < t < r2 or g(t) != 0.0 else
                     math.nextafter(t, r2 - t) for t in pts]
            pair = next(((a, b) for a, b in zip(inner, inner[1:])
                         if crosses(a, b)), None)
            brackets = [(t, t) for t in pts if g(t) == 0.0] + (
                [_refine(g, *pair)] if pair is not None else [])
            closed = closed and bool(brackets)
        for lo, hi in brackets:
            t = closest(g, lo, hi)
            x = sweeps[t][0]
            a, b = sorted((sweeps[lo][0], sweeps[hi][0]))
            if h(a) < 0.0 < h(b) or h(b) < 0.0 < h(a):
                x = closest(h, *_refine(h, a, b))
            # one point, found twice: beside a corner, or at a shared end
            if not any(abs(p[0] - t) <= FP_TOL and abs(p[1] - x) <= FP_TOL
                       for p in points):
                points.append([t, x, hi - lo, 0, True])
    roots = len(points)

    failed = non_converged = 0
    for t in starts:
        if abs(g(t)) <= FP_TOL and not any(
                abs(p[0] - t) <= CLUSTER_RADIUS for p in points):
            points.append([t, sweeps[t][0], 0.0, 0, False])
    for t in starts:
        gt = g(t)
        if math.isnan(gt):
            failed += weight
            continue
        near = [p for p in points if (
            abs(p[0] - t) <= CLUSTER_RADIUS if abs(gt) <= FP_TOL
            else p[0] > t if gt > 0.0 else p[0] < t)]
        if near:
            min(near, key=lambda p: abs(p[0] - t))[3] += weight
        else:
            non_converged += weight
    if closed:
        # a sweep that ends where user 1 would stay (its answers to t and
        # to phi(t) agree within FP_TOL) ends at an equilibrium, also on
        # a kink where g touches 0 and float arithmetic misses the root
        for x, t in list(sweeps.values()):
            end = sweeps.get(t)
            if end is not None and abs(end[0] - x) <= FP_TOL and not any(
                    abs(p[0] - t) <= CLUSTER_RADIUS for p in points):
                points.append([t, x, 0.0, 0, False])

    # A user whose own weight is 0, or whose moving links are all flat,
    # can be indifferent along a segment of which the map sees one
    # answer: the four corners are tried too, where no user's derivative
    # points away from its corner (a float test, finer than VERIFY_TOL).
    unique = all(tp.split.own_weight > 0.0 and any(
        isinstance(c, MM1Cost) or c.slope > 0.0 for c in tp.split.specs)
        for tp in game.two_path)

    def stays(state) -> bool:
        for ui, tp in enumerate(game.two_path):
            d = tp.split.derivative(state[ui][1],
                                    *_state_loads(game, state, ui))[0]
            if d < 0.0 < state[ui][0] or state[ui][1] > 0.0 < d:
                return False
        return True

    for t, x in itertools.product((0.0, r2), () if unique else (0.0, r1)):
        if not any(abs(p[0] - t) <= CLUSTER_RADIUS
                   and abs(p[1] - x) <= CLUSTER_RADIUS for p in points) \
                and stays(((r1 - x, x), (r2 - t, t))):
            points.append([t, x, 0.0, 0, False])

    evaluated = sorted(sweeps)

    def index(t: float) -> int:
        # the sign of 1 - phi' at t, read from g past FP_TOL each side;
        # the ends of [0, r2] count as g > 0 below and g < 0 above
        i = bisect.bisect_left(evaluated, t - FP_TOL)
        j = bisect.bisect_right(evaluated, t + FP_TOL)
        below = g(evaluated[i - 1]) if i else 1.0
        above = g(evaluated[j]) if j < len(evaluated) else -1.0
        return 1 if below > 0.0 > above else -1 if below < 0.0 < above else 0

    out = []
    index_sum = degenerate = 0
    for t, x, width, basin, root in points:
        # where g jumps across 0 user 1's answer leaves user 2's answer off
        # t, so the crossing stands in for it, as it does for one near it
        jump = root and abs(g(t)) > FP_TOL
        c = (crossing(t) if jump or root and game.coop.rows[0][0] == 0.0
             else [])
        tried = (c if c and (jump or abs(c[0] - x) <= CLUSTER_RADIUS)
                 else [x] + c)
        ok = False
        for k, x in enumerate(tried):
            profile = profile_from_state(game, ((r1 - x, x), (r2 - t, t)))
            check = verify_nash(game, profile)
            if check.ok or (basin and not k):
                out.append((profile, check, 0 if k else basin, width))
            ok = ok or check.ok
        if ok:
            k = index(t) if root else 0
            index_sum += k
            degenerate += not k
    diagnostics = {"trajectories": 0, "non_converged": non_converged,
                   "failed_starts": failed, "sweeps": len(sweeps),
                   "jumps_kept": 0, "jumps_rejected": 0,
                   "scan_candidates": roots,
                   "scan_coverage": ("map" if closed and unique
                                     and not degenerate else "none"),
                   "index_sum": None if degenerate else index_sum,
                   "degenerate": degenerate}
    return out, diagnostics


def _dynamics_points(game: RoutingGame, options, weight: int):
    """The clusters of the dynamics from every start, each polished and
    verified, with its basin and the spread of its limits, and the
    diagnostics."""
    head = options[0][:1] if weight > 1 else options[0]
    clusters: list[_Cluster] = []
    runs = []
    trajectories = non_converged = failed = 0
    for combo in itertools.product(head, *options[1:]):
        trajectories += 1
        try:
            res = br_dynamics(game, combo)
        except SolverError:
            failed += weight
            continue
        runs.append(res)
        if not res.converged:
            non_converged += weight
            continue
        _cluster_merge(clusters, _reduced(game, res.state), res.state, weight)
    out = []
    for c in clusters:
        runs.append(_iterate(game, [list(s) for s in c.state], True))
        profile = profile_from_state(game, runs[-1].state)
        out.append((profile, verify_nash(game, profile), c.basin,
                    max((mx - mn for mn, mx in zip(c.mins, c.maxs)),
                        default=0.0)))
    diagnostics = {"trajectories": trajectories,
                   "non_converged": non_converged, "failed_starts": failed,
                   "sweeps": sum(r.sweeps for r in runs),
                   "jumps_kept": sum(r.jumps_kept for r in runs),
                   "jumps_rejected": sum(r.jumps_rejected for r in runs),
                   "scan_candidates": 0, "scan_coverage": "none",
                   "index_sum": None, "degenerate": 0}
    return out, diagnostics


def multistart_nash(game: RoutingGame) -> EquilibriumSet:
    """Find the game's equilibria from a grid of starts.

    Starting profiles are the product of per-user splits.  When the
    first user's best response ignores its own flows
    (``_forgets_start``), it does not depend on its own start, so starts
    differing only there are one start whose count is credited to where
    it goes.  A start whose sweep raises ``SolverError`` counts in
    ``failed_starts``.

    Two users with two paths each and positive demands are solved on
    the map of user 2's split (``_map_points``), whose fixed points are
    the equilibria.  ``diagnostics["scan_coverage"]`` reads ``"map"``
    when that proved the set complete (``phi`` monotone, the search
    closed, each user's cost strictly convex in its split, no verified
    point degenerate), and ``"none"`` otherwise and for every other
    game.  ``scan_candidates`` counts the map's roots, ``scan_added``
    the points no start reaches (``scan_found``), and ``index_sum`` sums
    the sign of ``g``'s crossing over the verified roots (None when one
    does not cross; ``degenerate`` counts those).  ``cluster_diameter``
    is a root's final bracket width, and ``sweeps`` counts evaluations
    of the map.

    Any other game runs Gauss-Seidel best response (``br_dynamics``) from
    every start, clusters the limits within ``CLUSTER_RADIUS``, and
    polishes and verifies each cluster; ``cluster_diameter`` is then the
    spread of a cluster's limits, ``sweeps`` counts the dynamics' and the
    polish's sweeps, and ``jumps_kept`` and ``jumps_rejected`` their
    extrapolations (``_iterate``).  ``responses`` and
    ``responses_reused`` count the Newton best responses solved and
    found again (``_split_argmin``).
    """
    return contextvars.copy_context().run(_multistart, game)


def _multistart(game: RoutingGame) -> EquilibriumSet:
    table: dict = {}
    _RESPONSES.set((game, table))
    options = _start_options(game)
    total_starts = math.prod(map(len, options))
    weight = (len(options[0]) if _forgets_start(game) and len(options[0]) > 1
              else 1)
    if (len(game.users) == 2 and None not in game.two_path
            and all(r > 0 for r in game.demands)):
        points, found = _map_points(game, weight)
    else:
        points, found = _dynamics_points(game, options, weight)
    results = []
    for profile, check, basin, diameter in points:
        raws = user_costs(game.net.links, profile.user_link_flows,
                          profile.total_link_flows)
        results.append(EquilibriumResult(
            profile=profile, raw_costs=tuple(raws),
            operating_costs=tuple(weighted_cost(row, raws)
                                  for row in game.coop.rows),
            basin_count=basin, cluster_diameter=diameter,
            scan_found=basin == 0,
            verified=check.ok, max_violation=check.max_violation))
    diagnostics = {"total_starts": total_starts, **found,
                   "responses": len(table),
                   "responses_reused": sum(k[1] for k in table.values()),
                   "scan_added": sum(e.scan_found for e in results)}
    if not results:
        raise SolverError("no starting point converged to an equilibrium",
                          diagnostics=diagnostics)
    # Costs compare at the CSV's 12 digits, so equilibria whose costs tie
    # in exact arithmetic (mirror images) come out in flow order.
    results.sort(key=lambda e: (float(format(e.operating_costs[0], ".12g")),)
                 + tuple(v for flows in e.profile.path_flows for v in flows))
    return EquilibriumSet(equilibria=tuple(results),
                          diagnostics=diagnostics)
