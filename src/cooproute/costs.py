"""Link cost functions, cooperation weights, and cost evaluation.

Two latency families are supported: affine (``a * f + g``) and a queueing
delay ``1 / (C - f)`` that blows up at the capacity ``C``.  Flows at or
beyond capacity get an infinite cost sentinel; a link carrying zero flow
contributes zero to a user's cost even when its latency is infinite, so
absent links can be modeled as zero-capacity links.

A user weighs the costs of all users through a row-stochastic weight
matrix.  The scalar shorthand ``alpha`` is the total weight a user puts on
everyone else: 0 is fully self-interested, 1 is fully altruistic, and the
remainder ``1 - alpha`` stays on the user's own cost.

``SplitCost`` prices every split over two paths, of an atomic user or of
the mixed model's group, and owns the M/M/1 capacity guard: its
``bracket``, and ``guard_fill`` for when the bracket is empty.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .errors import ConfigError
from .search import newton_argmin

if TYPE_CHECKING:  # pragma: no cover
    from .netmodel import FlowProfile, Link, Network

INFINITE_COST = math.inf

_STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class LinearCost:
    """Affine latency ``slope * f + intercept``."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ConfigError("linear cost needs finite slope and intercept")
        if self.slope < 0 or self.intercept < 0:
            raise ConfigError("linear cost needs slope >= 0 and intercept >= 0")
        if 0.0 < self.slope < sys.float_info.min:
            # slope * flow would lose its precision or round to zero, and
            # the solvers could verify a split that is no equilibrium
            raise ConfigError(f"linear cost slope {self.slope!r} is subnormal")

    def value(self, flow: float) -> float:
        return self.slope * flow + self.intercept

    def values(self, flows) -> list[float]:
        """``[self.value(f) for f in flows]`` in one pass."""
        a, g = self.slope, self.intercept
        return [a * f + g for f in flows]

    def derivative(self, flow: float) -> float:
        return self.slope

    def curvature(self, flow: float) -> float:
        return 0.0


@dataclass(frozen=True, slots=True)
class MM1Cost:
    """Queueing latency ``1 / (capacity - f)`` for ``f < capacity``."""

    capacity: float

    def __post_init__(self):
        if not math.isfinite(self.capacity):
            raise ConfigError("capacity must be finite")
        if self.capacity < 0:
            raise ConfigError("capacity must be nonnegative")

    def value(self, flow: float) -> float:
        slack = self.capacity - flow
        if slack <= 0.0:
            return INFINITE_COST
        return 1.0 / slack

    def values(self, flows) -> list[float]:
        """``[self.value(f) for f in flows]`` in one pass."""
        c = self.capacity
        return [INFINITE_COST if (s := c - f) <= 0.0 else 1.0 / s
                for f in flows]

    def derivative(self, flow: float) -> float:
        slack = self.capacity - flow
        if slack <= 0.0:
            return INFINITE_COST
        return 1.0 / (slack * slack)

    def curvature(self, flow: float) -> float:
        slack = self.capacity - flow
        if slack <= 0.0:
            return INFINITE_COST
        return 2.0 / (slack * slack * slack)


CostSpec = LinearCost | MM1Cost

# Slack the solvers keep below an M/M/1 capacity, so that a split they
# choose never prices a link at its infinite-cost pole.
CAPACITY_GUARD = 1e-9


def guard_fill(lo: float, hi: float, demand: float) -> tuple[float, bool]:
    """Second-path share ``t`` of ``demand`` for an empty guard bracket
    ``[lo, hi]``: the second path filled to its guard, or left empty,
    and the rest on the first.  ``fits`` is False when that leaves flow
    on the first path beyond its guard."""
    t = max(hi, 0.0)
    return t, t >= demand or t >= lo


@dataclass(frozen=True, slots=True)
class CooperationProfile:
    """Row-stochastic cost weights, one row per user in user order.

    ``rows[i][k]`` is the weight user ``i`` places on user ``k``'s cost.
    Rows must sum to 1 within 1e-12 and entries must lie in [0, 1].
    """

    user_ids: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.user_ids)
        if len(set(self.user_ids)) != n:
            raise ConfigError("duplicate user ids in cooperation profile")
        if len(self.rows) != n:
            raise ConfigError("cooperation profile needs one row per user")
        for row in self.rows:
            if len(row) != n:
                raise ConfigError("cooperation row length must equal user count")
            for w in row:
                if not (-_STOCHASTIC_TOL <= w <= 1.0 + _STOCHASTIC_TOL):
                    raise ConfigError(f"cooperation weight {w} outside [0, 1]")
            if abs(math.fsum(row) - 1.0) > _STOCHASTIC_TOL:
                raise ConfigError("cooperation rows must sum to 1")

    @staticmethod
    def from_alphas(user_ids: Sequence[int], alphas: Sequence[float]) -> "CooperationProfile":
        """Build the uniform profile from per-user degrees of cooperation.

        User ``i`` keeps weight ``1 - alpha_i`` on itself and spreads
        ``alpha_i`` evenly over the other users.
        """
        ids = tuple(user_ids)
        if len(alphas) != len(ids):
            raise ConfigError("need one alpha per user")
        n = len(ids)
        rows = []
        for i, a in enumerate(alphas):
            if not (0.0 <= a <= 1.0):
                raise ConfigError(f"alpha {a} outside [0, 1]")
            if n == 1:
                rows.append((1.0,))
            else:
                off = a / (n - 1)
                rows.append(tuple((1.0 - a) if k == i else off for k in range(n)))
        return CooperationProfile(user_ids=ids, rows=tuple(rows))

    def alpha_of(self, user_index: int) -> float:
        """Total weight the user places on others."""
        return 1.0 - self.rows[user_index][user_index]


def _flow_times_cost(flow: float, cost: float) -> float:
    # Zero flow on an unusable link costs nothing; avoids 0 * inf.
    if flow == 0.0:
        return 0.0
    return flow * cost


# The kernel below works on link loads in network link order.  Callers
# build the loads once per evaluation, each in its own summation order,
# so the kernel adds no rounding of its own to theirs.

def link_shares(links: Sequence["Link"], user_loads, totals
                ) -> tuple[tuple[float, ...], ...]:
    """Cost share ``f_l^i * T_l(f_l)`` of every user on every link.

    ``user_loads[i][l]`` is user ``i``'s flow on link ``l`` and
    ``totals[l]`` the link's total flow.
    """
    latencies = [lk.cost.value(f) for lk, f in zip(links, totals)]
    return tuple(tuple(_flow_times_cost(v, t)
                       for v, t in zip(own, latencies))
                 for own in user_loads)


def user_costs(links: Sequence["Link"], user_loads, totals) -> list[float]:
    """Raw cost ``sum_l f_l^i * T_l(f_l)`` of every user; infinite when the
    user puts flow on a full link."""
    latencies = [lk.cost.value(f) for lk, f in zip(links, totals)]
    out = []
    for own in user_loads:
        acc = 0.0
        for v, t in zip(own, latencies):
            if v:
                acc += v * t
        out.append(acc)
    return out


def weighted_cost(row: Sequence[float], raws: Sequence[float]) -> float:
    """Operating cost: one cooperation row applied to everyone's raw cost."""
    acc = 0.0
    for w, jk in zip(row, raws):
        if w:
            if jk == INFINITE_COST:
                return INFINITE_COST
            acc += w * jk
    return acc


def path_marginals(links: Sequence["Link"], paths, own_weight: float,
                   base, base_weighted, flows) -> list[float]:
    """Marginal operating cost of one more unit of a user's flow per path.

    The user routes ``flows`` on ``paths`` (link indices) on top of link
    loads ``base``, which its cooperation row weighs to ``base_weighted``.
    On link ``l`` that is ``b T_l + (w_l + b x_l) T_l'`` at the total
    ``base_l + x_l``, with own load ``x_l`` and self-weight ``b``; a path
    through a full link is infinite."""
    own = [0.0] * len(links)
    for path, v in zip(paths, flows):
        if v:
            for li in path:
                own[li] += v
    out = []
    for path in paths:
        acc = 0.0
        for li in path:
            spec = links[li].cost
            f = base[li] + own[li]
            t = spec.value(f)
            dt = spec.derivative(f)
            if t == INFINITE_COST or dt == INFINITE_COST:
                acc = INFINITE_COST
                break
            acc += (own_weight * t
                    + (base_weighted[li] + own_weight * own[li]) * dt)
        out.append(acc)
    return out


@dataclass(frozen=True, slots=True)
class SplitCost:
    """A two-path user's operating cost as a function of its flow ``t`` on
    the second path, with ``r - t`` on the first and everyone else fixed.

    Only the links on exactly one of the paths move with ``t``: ``specs``
    holds their latencies, the ``n1`` second-path links first.  Callers
    pass the other users' loads on them (``others``) and those loads
    weighed by the user's cooperation row (``weighted``) in the same
    order.  With self-weight ``b``, a link with own load ``x`` at total
    ``o + x`` adds ``b T + (w + b x) T'`` to the derivative in ``t`` on
    the second path and subtracts it on the first; either way it adds
    ``2 b T' + (w + b x) T''`` to the derivative's slope.  On affine
    links the derivative is the line ``C + S t``.

    With every link on the second path (``n1 == len(specs)``) the
    derivative is the user's marginal cost along that one path at own
    flow ``t``, and ``demand`` plays no part: that is how a user whose
    paths share no link prices each of them, and ``level`` inverts it.

    On an M/M/1 link, with ``u = C - o`` the room the other users leave
    and ``h = b u + w``, that term is ``h / (u - x)^2``.  With one M/M/1
    link on each path (``s`` on the second, ``f`` on the first) the
    derivative is ``h_s / (u_s - t)^2 - h_f / (u_f - r + t)^2``, whose
    zero is ``t* = (sqrt(h_f) u_s - sqrt(h_s) (u_f - r)) /
    (sqrt(h_s) + sqrt(h_f))``: the square-root split of Orda, Rom and
    Shimkin for parallel M/M/1 links.
    """

    specs: tuple[CostSpec, ...]
    n1: int
    own_weight: float
    demand: float
    _line: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    _pair: bool = field(default=False, init=False, repr=False, compare=False)
    _caps: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        caps = tuple((i, s.capacity) for i, s in enumerate(self.specs)
                     if isinstance(s, MM1Cost))
        object.__setattr__(self, "_caps", caps)
        if self.n1 == 1 and len(self.specs) == len(caps) == 2:
            object.__setattr__(self, "_pair", True)
            return
        if not all(isinstance(s, LinearCost) for s in self.specs):
            return
        b, r = self.own_weight, self.demand
        const = slope = 0.0
        coefs = []
        for i, s in enumerate(self.specs):
            # second path: b (a (o + t) + g) + (w + b t) a;
            # first path: minus the same with r - t for t
            if i < self.n1:
                const += b * s.intercept
                coefs.append((b * s.slope, s.slope))
            else:
                const -= b * (s.intercept + 2.0 * s.slope * r)
                coefs.append((-b * s.slope, -s.slope))
            slope += 2.0 * b * s.slope
        object.__setattr__(self, "_line", (const, slope, tuple(coefs)))

    def bracket(self, others) -> tuple[float, float]:
        """``[lo, hi]`` of splits that keep each M/M/1 link of ``specs``
        ``CAPACITY_GUARD`` below capacity beside ``others``, within
        ``[0, demand]``; empty when the paths cannot carry the demand."""
        lo, hi = 0.0, self.demand
        for i, cap in self._caps:
            room = cap - others[i]
            if i < self.n1:
                hi = min(hi, room - CAPACITY_GUARD)
            else:
                lo = max(lo, self.demand - room + CAPACITY_GUARD)
        return lo, hi

    def guarded_argmin(self, others, weighted) -> tuple[float, bool]:
        """``argmin`` within ``bracket(others)`` and True, or
        ``guard_fill``'s ``(t, fits)`` when the bracket is empty."""
        lo, hi = self.bracket(others)
        if lo > hi:
            return guard_fill(lo, hi, self.demand)
        return self.argmin(lo, hi, others, weighted), True

    @property
    def affine(self) -> bool:
        return self._line is not None

    def line(self, others, weighted) -> tuple[float, float]:
        """``(C, S)`` of the derivative ``C + S t``; affine links only."""
        c, slope, coefs = self._line
        for (co, cw), o, w in zip(coefs, others, weighted):
            c += co * o + cw * w
        return c, slope

    def derivative(self, t: float, others, weighted) -> tuple[float, float]:
        """The derivative at ``t`` and its slope."""
        b, n1 = self.own_weight, self.n1
        g = slope = 0.0
        for i, spec in enumerate(self.specs):
            if i < n1:
                own, sgn = t, 1.0
            else:
                own, sgn = self.demand - t, -1.0
            f = others[i] + own
            dt = spec.derivative(f)
            c = weighted[i] + b * own
            g += sgn * (b * spec.value(f) + c * dt)
            slope += 2.0 * b * dt + c * spec.curvature(f)
        return g, slope

    def cross(self, t: float, others, weighted, shift, weight: float
              ) -> float:
        """The derivative's slope in another user's flow, at ``t``.

        One more unit of that user's flow moves ``others[i]`` by
        ``shift[i]`` (1, -1 or 0) and ``weighted[i]`` by ``weight *
        shift[i]``; a link then adds ``(b + weight) T' + (w + b x) T''``,
        times its path's sign and ``shift[i]``.  Affine links read the
        line's coefficients and call no cost method."""
        if self._line is not None:
            return sum((co + cw * weight) * e
                       for (co, cw), e in zip(self._line[2], shift) if e)
        b, n1 = self.own_weight, self.n1
        acc = 0.0
        for i, (spec, e) in enumerate(zip(self.specs, shift)):
            if not e:
                continue
            if i < n1:
                own, sgn = t, e
            else:
                own, sgn = self.demand - t, -e
            f = others[i] + own
            acc += sgn * ((b + weight) * spec.derivative(f)
                          + (weighted[i] + b * own) * spec.curvature(f))
        return acc

    def argmin(self, lo: float, hi: float, others, weighted) -> float:
        """The split ``t`` in ``[lo, hi]`` of least cost.

        ``newton_argmin``'s end tests come first: ``lo`` when ``hi <= lo``
        or the derivative is nonnegative there, ``hi`` when it is
        nonpositive there.  Inside, affine links give the line's zero and
        one M/M/1 link on each path gives ``t*``, both clamped; other
        links run ``newton_argmin``.  The bracket stays within
        ``[0, demand]`` and short of every capacity, as ``bracket``'s
        does.
        """
        if self._line is not None:
            c, slope = self.line(others, weighted)
            if hi <= lo or c + slope * lo >= 0.0:
                return lo
            if c + slope * hi <= 0.0:
                return hi
            return min(max(-c / slope, lo), hi)
        if not self._pair:
            return newton_argmin(
                lambda t: self.derivative(t, others, weighted), lo, hi)
        if hi <= lo:
            return lo
        b = self.own_weight
        us = self._caps[0][1] - others[0]
        uf = self._caps[1][1] - others[1]
        hs = b * us + weighted[0]
        hf = b * uf + weighted[1]
        vf = uf - self.demand   # the first link's slack is vf + t
        s, f = us - lo, vf + lo
        if hs / (s * s) - hf / (f * f) >= 0.0:
            return lo
        s, f = us - hi, vf + hi
        if hs / (s * s) - hf / (f * f) <= 0.0:
            return hi
        # Past the end tests h_s and h_f are positive.  t* is written as
        # the even split of the two slacks plus a shift that vanishes
        # when h_s == h_f, so a symmetric pair splits exactly.
        rs, rf = math.sqrt(hs), math.sqrt(hf)
        t = 0.5 * (us - vf) + 0.5 * (us + vf) * (rf - rs) / (rs + rf)
        return min(max(t, lo), hi)

    def level(self, lam: float, others, weighted, top: float
              ) -> tuple[float, float]:
        """One-path mode: the own flow ``x`` in ``[0, top]`` at which the
        path's marginal meets ``lam``, and the marginal's slope there.

        ``lam`` lies above the marginal at 0, and ``top`` is at most
        ``bracket(others)[1]``.  Affine links invert the line ``C + S x``;
        one M/M/1 link inverts ``h / (u - x)^2`` to ``x = u - sqrt(h /
        lam)``, with slope ``2 h / (u - x)^3``.  Other paths run
        ``newton_argmin`` on the marginal minus ``lam``.
        """
        if self._line is not None and self._line[1] > 0.0:
            c, slope = self.line(others, weighted)
            return min(max((lam - c) / slope, 0.0), top), slope
        if len(self.specs) == len(self._caps) == 1:
            u = self._caps[0][1] - others[0]
            h = self.own_weight * u + weighted[0]
            x = min(max(u - math.sqrt(h / lam), 0.0), top)
            s = u - x
            return x, 2.0 * h / (s * s * s)

        def excess(x: float) -> tuple[float, float]:
            m, slope = self.derivative(x, others, weighted)
            return m - lam, slope

        x = newton_argmin(excess, 0.0, top)
        return x, self.derivative(x, others, weighted)[1]


def deviation_cost(links: Sequence["Link"], paths, state, row: Sequence[float],
                   ui: int):
    """User ``ui``'s operating cost as a function of its own path flows,
    everyone else's fixed.

    ``paths[k]`` lists user ``k``'s paths as link indices and ``state[k]``
    its path flows.  The function returned maps a list of flow vectors
    for ``ui`` to their costs, each exactly
    ``weighted_cost(row, user_costs(...))`` at the loads summed path by
    path in user order, with the same rules: zero flow on a full link
    costs nothing, a user of weight zero is skipped, and an infinite raw
    cost makes the operating cost infinite, since every weight left is
    positive.  (A NaN flow or cost can make a cost NaN where
    ``weighted_cost`` returns infinity; ``verify_nash`` rejects such a
    profile on its raw costs first.)  Only the links on ``ui``'s paths
    are recomputed, each priced by one ``values`` call per list of
    points; every other link's latency and cost shares are summed here,
    once.
    """
    mine = paths[ui]
    moving = sorted({li for p in mine for li in p})
    slot = {li: j for j, li in enumerate(moving)}
    m = len(links)
    before = [0.0] * len(moving)   # totals of the users ahead of ui
    after = [[] for _ in moving]   # later users' flows, added one by one
    loads = []
    totals = [0.0] * m
    for k, (kpaths, flows) in enumerate(zip(paths, state)):
        own = [0.0] * m
        loads.append(own)
        if k == ui:
            continue
        for links_p, v in zip(kpaths, flows):
            if v == 0.0:
                continue
            for li in links_p:
                own[li] += v
                totals[li] += v
                j = slot.get(li)
                if j is not None:
                    if k < ui:
                        before[j] += v
                    else:
                        after[j].append(v)
    # Adding a zero flow changes no sum, so ui's flows go in unskipped.
    movers = tuple((links[li].cost, before[j],
                    tuple(p for p, lp in enumerate(mine) if li in lp),
                    tuple(after[j]))
                   for j, li in enumerate(moving))
    # A raw cost sums f * T over links in link order.  Terms on fixed
    # links are constants: ``(j, v)`` is load ``v`` on moving link ``j``
    # and ``(-1, c)`` a constant.  ``None`` stands for ui's own terms.
    plans = []
    for k, own in enumerate(loads):
        if not row[k]:
            continue
        terms = None
        if k != ui:
            terms = []
            for li, v in enumerate(own):
                if v:
                    j = slot.get(li)
                    terms.append((j, v) if j is not None else
                                 (-1, v * links[li].cost.value(totals[li])))
        plans.append((row[k], terms))

    # Each step below runs over all points at once, in the order a
    # single evaluation would take, on the points' flows by path.  A
    # link's own load starts at its first path's flow, not at 0.0 plus
    # it: the two differ only in the sign of a zero, which no term reads.
    def costs(points) -> list[float]:
        if not points:
            return []
        n = len(points)
        cols = list(zip(*points))
        owns, lats = [], []
        for spec, base, cover, tail in movers:
            own = cols[cover[0]]
            tot = [base + v for v in own]
            for p in cover[1:]:
                col = cols[p]
                own = [o + v for o, v in zip(own, col)]
                tot = [x + v for x, v in zip(tot, col)]
            for v in tail:
                tot = [x + v for x in tot]
            owns.append(own)
            lats.append(spec.values(tot))
        acc = [0.0] * n
        for w, terms in plans:
            raw = [0.0] * n
            if terms is None:
                for own, lat in zip(owns, lats):
                    raw = [x + o * t if o else x
                           for x, o, t in zip(raw, own, lat)]
            else:
                for j, v in terms:
                    if j < 0:
                        raw = [x + v for x in raw]
                    else:
                        raw = [x + v * t for x, t in zip(raw, lats[j])]
            acc = [a + w * x for a, x in zip(acc, raw)]
        return acc

    return costs


@dataclass(frozen=True)
class CostReport:
    """Per-user raw and operating costs plus per-link cost shares.

    ``link_shares[i][l]`` is ``f_l^i * T_l(f_l)`` in user and link order.
    """

    user_ids: tuple[int, ...]
    raw_costs: tuple[float, ...]
    operating_costs: tuple[float, ...]
    link_shares: tuple[tuple[float, ...], ...]


def cost_report(net: "Network", profile: "FlowProfile",
                coop: CooperationProfile) -> CostReport:
    loads, totals = profile.user_link_flows, profile.total_link_flows
    raws = tuple(user_costs(net.links, loads, totals))
    return CostReport(user_ids=profile.user_ids, raw_costs=raws,
                      operating_costs=tuple(weighted_cost(row, raws)
                                            for row in coop.rows),
                      link_shares=link_shares(net.links, loads, totals))
