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

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ConfigError
from .search import newton_argmin

if TYPE_CHECKING:  # pragma: no cover
    from .netmodel import Link

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

    # ``value`` as source for ``deviation_cost``'s kernel, over the load
    # ``{f}`` and the fields, each ``{name}``.  Every class the kernel
    # prices must be nonnegative and nondecreasing in the load for
    # nonnegative fields: ``DeviationCost.least_below`` bounds a block of
    # splits by its corner on that ground alone.  A class that is not
    # must make ``deviation_cost`` report ``monotone`` False, which
    # prices every split.
    LATENCY = "{slope} * {f} + {intercept}"

    def value(self, flow: float) -> float:
        return self.slope * flow + self.intercept

    def derivative(self, flow: float) -> float:
        return self.slope


@dataclass(frozen=True, slots=True)
class MM1Cost:
    """Queueing latency ``1 / (capacity - f)`` for ``f < capacity``."""

    capacity: float

    def __post_init__(self):
        if not math.isfinite(self.capacity):
            raise ConfigError("capacity must be finite")
        if self.capacity < 0:
            raise ConfigError("capacity must be nonnegative")
        cube = self.capacity * self.capacity * self.capacity
        if 0.0 < self.capacity and cube < sys.float_info.min:
            # the cube of a slack, which T'' divides by, would lose its
            # precision or round to zero (multiplied, not raised by
            # ``**``, a large capacity's cube is inf instead of an error)
            raise ConfigError(f"capacity {self.capacity!r} has a subnormal "
                              f"cube")

    # ``value`` as kernel source (see ``LinearCost.LATENCY``); the slack
    # is taken twice and comes out the same both times
    LATENCY = "INF if {capacity} - {f} <= 0.0 else 1.0 / ({capacity} - {f})"

    def value(self, flow: float) -> float:
        slack = self.capacity - flow
        if slack <= 0.0:
            return INFINITE_COST
        return 1.0 / slack

    def derivative(self, flow: float) -> float:
        slack = self.capacity - flow
        if slack <= 0.0:
            return INFINITE_COST
        return 1.0 / (slack * slack)


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


# The kernel below works on link loads in network link order.  Callers
# build the loads once per evaluation, each in its own summation order,
# so the kernel adds no rounding of its own to theirs.

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

    ``derivative`` loops over a table built once per split, a row per
    moving link: on the first path or not, and an M/M/1 link's
    capacity or an affine one's slope and intercept.  The loop writes
    ``T``, ``T'``, ``T''`` as ``1 / s``, ``1 / s^2``, ``2 / s^3`` at slack
    ``s`` (infinite at ``s <= 0``) or ``a f + g``, ``a``, 0, with the
    float operations of ``value`` and ``derivative``, and calls no cost
    method.  Within one solve, nash asks ``argmin`` of a ``newton`` split
    once per exact input.

    With every link on the second path (``n1 == len(specs)``) the
    derivative is the user's marginal cost along that one path at own
    flow ``t``, and ``demand`` plays no part: that is how a user whose
    paths share no link prices each of them, and ``inverse`` inverts it.

    On an M/M/1 link, with ``u = C - o`` the room the other users leave
    and ``h = b u + w``, that term is ``h / (u - x)^2``.  With one M/M/1
    link on each path (``s`` on the second, ``f`` on the first) the
    derivative is ``h_s / (u_s - t)^2 - h_f / (u_f - r + t)^2``, whose
    zero is ``t* = (sqrt(h_f) u_s - sqrt(h_s) (u_f - r)) /
    (sqrt(h_s) + sqrt(h_f))``: the square-root split of Orda, Rom and
    Shimkin for parallel M/M/1 links.  ``pair_argmin``, the one copy of
    it, runs it on four floats for ``argmin`` and the mixed model's group
    response, guard bracket and ``guard_fill`` too.
    """

    specs: tuple[CostSpec, ...]
    n1: int
    own_weight: float
    demand: float
    _line: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    _pair: bool = field(default=False, init=False, repr=False, compare=False)
    _caps: tuple = field(default=(), init=False, repr=False, compare=False)
    _table: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        # a row per link: (on the first path, capacity, None) or
        # (on the first path, slope, intercept)
        object.__setattr__(self, "_table", tuple(
            (i >= self.n1, s.capacity, None) if isinstance(s, MM1Cost)
            else (i >= self.n1, s.slope, s.intercept)
            for i, s in enumerate(self.specs)))
        caps = tuple((i, s.capacity) for i, s in enumerate(self.specs)
                     if isinstance(s, MM1Cost))
        object.__setattr__(self, "_caps", caps)
        if self.n1 == 1 and len(self.specs) == len(caps) == 2:
            object.__setattr__(self, "_pair", True)
            return
        if caps:
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

    @property
    def affine(self) -> bool:
        return self._line is not None

    @property
    def newton(self) -> bool:   # argmin runs newton_argmin
        return self._line is None and not self._pair

    def line(self, others, weighted) -> tuple[float, float]:
        """``(C, S)`` of the derivative ``C + S t``; affine links only."""
        c, slope, coefs = self._line
        for (co, cw), o, w in zip(coefs, others, weighted):
            c += co * o + cw * w
        return c, slope

    def derivative(self, t: float, others, weighted) -> tuple[float, float]:
        """The derivative at ``t`` and its slope."""
        b, r = self.own_weight, self.demand
        g = slope = 0.0
        for (first, a, icpt), o, w in zip(self._table, others, weighted):
            own = r - t if first else t
            f = o + own
            if icpt is None:
                s = a - f
                if s <= 0.0:
                    v = dt = ddt = INFINITE_COST
                else:
                    v, dt, ddt = 1.0 / s, 1.0 / (s * s), 2.0 / (s * s * s)
            else:
                v, dt, ddt = a * f + icpt, a, 0.0
            c = w + b * own
            if first:
                g -= b * v + c * dt
            else:
                g += b * v + c * dt
            slope += 2.0 * b * dt + c * ddt
        return g, slope

    def argmin(self, lo: float, hi: float, others, weighted) -> float:
        """The split ``t`` in ``[lo, hi]`` of least cost.

        ``newton_argmin``'s end tests come first: ``lo`` when ``hi <= lo``
        or the derivative is nonnegative there, ``hi`` when it is
        nonpositive there.  Inside, affine links give the line's zero and
        one M/M/1 link on each path gives ``t*``, both clamped; other
        links run ``newton_argmin``.  The bracket stays within
        ``[0, demand]`` and short of every capacity, as ``bracket``'s
        does.  The pair runs ``pair_argmin``.
        """
        if self._line is not None:
            c, slope = self.line(others, weighted)
            if hi <= lo or c + slope * lo >= 0.0:
                return lo
            if c + slope * hi <= 0.0:
                return hi
            return min(max(-c / slope, lo), hi)
        if self._pair:
            return self.pair_argmin(others[0], others[1], weighted[0],
                                    weighted[1], (lo, hi))[0]
        return newton_argmin(
            lambda t: self.derivative(t, others, weighted), lo, hi)

    def pair_argmin(self, o_s: float, o_f: float, w_s: float, w_f: float,
                    bounds: tuple[float, float] | None = None
                    ) -> tuple[float, bool]:
        """A pair split's least-cost ``t`` within ``bracket``, and True, or
        ``guard_fill``'s ``(t, fits)`` when the bracket is empty, on four
        floats: the second path's link carries ``o_s`` of the others'
        load, weighed to ``w_s``, and the first path's ``o_f`` and ``w_f``.
        Given
        ``bounds`` ``(lo, hi)``, the split is sought there instead, and
        ``fits`` is True.  The float operations are ``bracket``'s, then
        ``guard_fill``'s or the end tests and ``t*``, in that order."""
        r = self.demand
        us = self._caps[0][1] - o_s
        uf = self._caps[1][1] - o_f
        if bounds is None:
            lo = max(0.0, r - uf + CAPACITY_GUARD)
            hi = min(r, us - CAPACITY_GUARD)
            if lo > hi:
                return guard_fill(lo, hi, r)
        else:
            lo, hi = bounds
        if hi <= lo:
            return lo, True
        b = self.own_weight
        hs = b * us + w_s
        hf = b * uf + w_f
        vf = uf - r   # the first link's slack is vf + t
        s, f = us - lo, vf + lo
        if hs / (s * s) - hf / (f * f) >= 0.0:
            return lo, True
        s, f = us - hi, vf + hi
        if hs / (s * s) - hf / (f * f) <= 0.0:
            return hi, True
        # Past the end tests h_s and h_f are positive.  t* is written as
        # the even split of the two slacks plus a shift that vanishes
        # when h_s == h_f, so a symmetric pair splits exactly.
        rs, rf = math.sqrt(hs), math.sqrt(hf)
        t = 0.5 * (us - vf) + 0.5 * (us + vf) * (rf - rs) / (rs + rf)
        return min(max(t, lo), hi), True

    def inverse(self, others, weighted, top: float):
        """One-path mode: the inverse of the path's marginal beside the
        loads ``others`` and ``weighted``, as a function that takes a
        level ``lam`` above the marginal at 0 to the own flow ``x`` in
        ``[0, top]`` at which the marginal meets ``lam``, and the
        marginal's slope there.

        ``top`` is at most ``bracket(others)[1]``.  The constants that do
        not move with the level are computed here, once: affine links
        give ``(C, S)`` and invert the line ``C + S x``; one M/M/1 link
        gives ``(u, h)`` and inverts ``h / (u - x)^2`` to ``x = u -
        sqrt(h / lam)``, with slope ``2 h / (u - x)^3``.  Other paths run
        ``newton_argmin`` on the marginal minus ``lam``.
        """
        if self._line is not None and self._line[1] > 0.0:
            c, slope = self.line(others, weighted)

            def level(lam: float) -> tuple[float, float]:
                x = (lam - c) / slope
                if 0.0 > x:
                    x = 0.0
                if top < x:
                    x = top
                return x, slope
            return level
        if len(self._table) == len(self._caps) == 1:
            u = self._caps[0][1] - others[0]
            h = self.own_weight * u + weighted[0]

            def level(lam: float) -> tuple[float, float]:
                x = u - math.sqrt(h / lam)
                if 0.0 > x:
                    x = 0.0
                if top < x:
                    x = top
                s = u - x
                return x, 2.0 * h / (s * s * s)
            return level

        def level(lam: float) -> tuple[float, float]:
            def excess(x: float) -> tuple[float, float]:
                m, slope = self.derivative(x, others, weighted)
                return m - lam, slope

            x = newton_argmin(excess, 0.0, top)
            return x, self.derivative(x, others, weighted)[1]
        return level


def deviation_cost(links: Sequence["Link"], paths, state, row: Sequence[float],
                   ui: int):
    """User ``ui``'s operating cost as a function of its own path flows,
    everyone else's fixed.

    ``paths[k]`` lists user ``k``'s paths as link indices and ``state[k]``
    its path flows.  The function returned maps a list of flow vectors
    for ``ui`` to their costs ``c + sum_l (w_l + b y_l) T_l(o_l + y_l)``
    over the links on ``ui``'s paths in link order: ``o_l`` is the other
    users' load, summed path by path in user order, ``w_l`` that load
    weighed by ``row``, ``b = row[ui]`` and ``y_l`` the point's own load,
    summed over the paths through ``l`` in path order.  ``c`` sums the
    other links' terms, once.  A term of weight zero adds nothing, so in
    exact arithmetic this is ``weighted_cost(row, user_costs(...))`` with
    its rules (a user of weight zero is skipped, zero flow on a full link
    is free, a weighted infinite cost is infinite); in floats the two
    agree up to the rounding of the loads.

    The function is a ``DeviationCost``, ``monotone`` when ``c``, ``b``
    and every ``o_l``, ``w_l`` and cost field are nonnegative.  A
    cooperation weight inside ``CooperationProfile``'s tolerance below
    0 can make one of them negative.
    """
    m = len(links)
    others, weighted = [0.0] * m, [0.0] * m
    for k, (kpaths, flows) in enumerate(zip(paths, state)):
        if k == ui:
            continue
        own = [0.0] * m
        for links_p, v in zip(kpaths, flows):
            if v != 0.0:
                for li in links_p:
                    own[li] += v
                    others[li] += v
        if row[k]:
            weighted = [w + row[k] * v for w, v in zip(weighted, own)]
    mine = paths[ui]
    cover = {li: tuple(p for p, lp in enumerate(mine) if li in lp)
             for lp in mine for li in lp}
    c, movers, consts = 0.0, [], []   # the shape, and the kernel's floats
    for li, (lk, o, w) in enumerate(zip(links, others, weighted)):
        spec = lk.cost
        if li in cover:
            movers.append((type(spec), cover[li]))
            consts += (o, w, *(getattr(spec, name) for name in spec.__slots__))
        elif w:
            c += w * spec.value(o)
    b = row[ui]
    return DeviationCost(
        functools.partial(_kernel(len(mine), tuple(movers)), c, b, *consts),
        c >= 0.0 and b >= 0.0 and all(v >= 0.0 for v in consts))


# Sizes of the blocks of splits whose corners ``least_below`` prices,
# coarse then fine, before the splits of the blocks left.  Any sizes give
# the same answer; on exp1's 101-row sweep others from 16 to 128, in one
# to three levels, timed within noise of these.
_BLOCKS = (64, 8)


@dataclass(frozen=True, slots=True)
class DeviationCost:
    """A user's cost over its own path flows (``deviation_cost``).

    Called on a list of flow vectors, ``price`` returns their costs.
    ``monotone`` says that every constant ``price`` holds is nonnegative.
    Each cost is then nondecreasing in every flow, in floats too: the
    kernel adds, multiplies by nonnegative numbers and takes ``1 / x``,
    all monotone when correctly rounded, and each ``LATENCY`` is
    nonnegative and nondecreasing.  A term whose weight ``h_l`` is zero
    is 0.0 even beside an infinite latency, and ``h_l`` does not
    decrease either, so that rule keeps the order.
    """

    price: Callable[[list], list[float]]
    monotone: bool

    def least_below(self, splits, bound) -> float:
        """``min(math.inf, *self.price(splits))`` unless that is ``>=
        bound``, and otherwise some value ``>= bound``: exactly the least
        cost when it is below ``bound``, or when ``bound`` is NaN.

        ``splits`` are two-path flows whose first flow does not increase
        and whose second does not decrease along the list.  When
        ``monotone``, the cost at a block's lower corner, the first flow
        of its last split and the second of its first, bounds the cost of
        every split in it from below.  So the corners of coarse blocks
        are priced in one call, then those of the fine blocks inside the
        ones whose corner is below ``bound``, and only the splits of the
        fine blocks left are priced: every split that could cost less
        than ``bound`` is priced (branch and bound, Land and Doig 1960).
        A NaN corner keeps its block.  When not ``monotone``, every split
        is priced.
        """
        spans = [(0, len(splits))]
        for size in _BLOCKS if self.monotone else ():
            spans = [(a, min(a + size, end)) for start, end in spans
                     for a in range(start, end, size)]
            corners = [(splits[e - 1][0], splits[a][1]) for a, e in spans]
            spans = [span for span, v in zip(spans, self.price(corners))
                     if not v >= bound]
        return min([math.inf,
                    *self.price([p for a, e in spans for p in splits[a:e]])])


@functools.lru_cache(maxsize=128)
def _kernel(ncols: int, movers: tuple):
    """``deviation_cost``'s evaluator for one shape: ``ncols`` path flows
    per point and each moving link's ``(class, covering paths)``.  It
    takes ``c``, ``b``, each link's ``o``, ``w`` and fields, then the
    points, and prices each point in one comprehension, a latency by its
    class's ``LATENCY``.  The source holds names and those templates
    only, never a float, so games of one shape share a kernel.
    """
    xs = [f"x{p}" for p in range(ncols)]
    params, acc = ["c", "b"], "c"
    clauses = ["for (" + "".join(x + ", " for x in xs) + ") in points"]
    for j, (cls, cover) in enumerate(movers):
        names = {name: f"{name}{j}" for name in cls.__slots__}
        params += [f"o{j}", f"w{j}", *names.values()]
        clauses += [f"for y{j} in ({' + '.join(xs[p] for p in cover)},)",
                    f"for h{j} in (w{j} + b * y{j},)",
                    f"for t{j} in (o{j} + y{j},)"]
        latency = cls.LATENCY.format(f=f"t{j}", **names)
        acc += f" + (h{j} * ({latency}) if h{j} else 0.0)"
    source = (f"def kernel({', '.join(params)}, points):\n"
              f"    return [{acc} {' '.join(clauses)}]\n")
    scope = {"INF": INFINITE_COST}
    exec(compile(source, "<deviation kernel>", "exec"), scope)
    return scope["kernel"]
