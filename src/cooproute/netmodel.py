"""Network topology, user demands, path enumeration, and flow profiles.

Everything here is immutable: networks and flow profiles are frozen
dataclasses over tuples, so they can be hashed, compared, and safely shared
between solver restarts.  Link ids are strings and are kept sorted, which
fixes the iteration order everywhere else in the package.  Whether the
demand fits below the M/M/1 capacities is decided once, exactly, by one
maximum-concurrent-flow LP over the enumerated paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .costs import CAPACITY_GUARD, CostSpec, MM1Cost
from .errors import ConfigError, InfeasibleError

# The most simple paths a user may have; a network with more is refused.
MAX_PATHS = 64

_FLOW_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Link:
    link_id: str
    source: int
    target: int
    cost: CostSpec


@dataclass(frozen=True, slots=True)
class Network:
    """Directed network with sorted, uniquely named links."""

    nodes: tuple[int, ...]
    links: tuple[Link, ...]


def build_network(nodes: Iterable[int],
                  links: Iterable[tuple]) -> Network:
    """Validate and normalize a network description.

    ``links`` entries are ``(id, source, target, cost)`` tuples.  Ids are
    coerced to strings and the link list is sorted by id.
    """
    node_tuple = tuple(nodes)
    if len(set(node_tuple)) != len(node_tuple):
        raise ConfigError("duplicate node ids")
    node_set = set(node_tuple)
    out = []
    for lid, src, dst, cost in links:
        lk = Link(link_id=str(lid), source=src, target=dst, cost=cost)
        if lk.source not in node_set or lk.target not in node_set:
            raise ConfigError(
                f"link {lk.link_id!r} references unknown node "
                f"{lk.source if lk.source not in node_set else lk.target}")
        if lk.source == lk.target:
            raise ConfigError(f"link {lk.link_id!r} is a self-loop")
        out.append(lk)
    out.sort(key=lambda lk: lk.link_id)
    seen = set()
    for lk in out:
        if lk.link_id in seen:
            raise ConfigError(f"duplicate link id {lk.link_id!r}")
        seen.add(lk.link_id)
    if not out:
        raise ConfigError("network needs at least one link")
    return Network(nodes=node_tuple, links=tuple(out))


@dataclass(frozen=True, slots=True)
class UserSpec:
    """One user: an id, an origin/destination pair, and a demand rate."""

    user_id: int
    source: int
    target: int
    demand: float

    def __post_init__(self):
        if not math.isfinite(self.demand):
            raise ConfigError("demand must be finite")
        if self.demand < 0:
            raise ConfigError("demand must be nonnegative")
        if self.source == self.target:
            raise ConfigError("user source and target must differ")


def enumerate_paths(net: Network, source: int,
                    target: int) -> tuple[tuple[int, ...], ...]:
    """All simple paths from source to target as tuples of indices into
    ``net.links``; more than ``MAX_PATHS`` of them raise ``ConfigError``.

    Paths come out in lexicographic link-id order because the network's
    links are sorted and the search extends smallest id first.  The
    search keeps one iterator over outgoing links per node on the path,
    so a path may have any number of links.
    """
    out_links: dict[int, list[int]] = {}
    for li, lk in enumerate(net.links):
        out_links.setdefault(lk.source, []).append(li)
    found: list[tuple[int, ...]] = []
    path: list[int] = []
    visited = {source}
    frames = [iter(out_links.get(source, ()))]
    while frames:
        li = next(frames[-1], None)
        if li is None:
            frames.pop()
            if path:
                visited.remove(net.links[path.pop()].target)
            continue
        node = net.links[li].target
        if node in visited:
            continue
        if node == target:
            found.append((*path, li))
            if len(found) > MAX_PATHS:
                raise ConfigError(
                    f"more than {MAX_PATHS} paths from {source} to {target}")
            continue
        visited.add(node)
        path.append(li)
        frames.append(iter(out_links.get(node, ())))
    return tuple(found)


@dataclass(frozen=True, slots=True)
class PathSet:
    """Per-user routing options, aligned with a user id list; each path
    is a tuple of indices into the network's links."""

    user_ids: tuple[int, ...]
    paths: tuple[tuple[tuple[int, ...], ...], ...]


def build_path_set(net: Network, users: Sequence[UserSpec]) -> PathSet:
    ids = tuple(u.user_id for u in users)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate user ids")
    all_paths = []
    for u in users:
        paths = enumerate_paths(net, u.source, u.target)
        if not paths and u.demand > 0:
            raise InfeasibleError(
                f"user {u.user_id} has no path from {u.source} to {u.target}",
                detail={"user": u.user_id})
        all_paths.append(paths)
    return PathSet(user_ids=ids, paths=tuple(all_paths))


@dataclass(frozen=True, slots=True)
class FlowProfile:
    """Routing decision of every user, stored per path and per link.

    ``path_flows[i][p]`` is user ``i``'s flow on its ``p``-th path;
    ``user_link_flows[i][l]`` and ``total_link_flows[l]`` are the induced
    link loads in network link order.
    """

    user_ids: tuple[int, ...]
    path_flows: tuple[tuple[float, ...], ...]
    user_link_flows: tuple[tuple[float, ...], ...]
    total_link_flows: tuple[float, ...]


def assemble_profile(net: Network, path_set: PathSet,
                     path_flows: Sequence[Sequence[float]],
                     demands: Sequence[float]) -> FlowProfile:
    """Turn per-path flow amounts into a validated ``FlowProfile``.

    Flows must be finite and nonnegative (up to 1e-12, then clamped), and
    each user's flows must sum to its demand within 1e-12 scaled by the
    demand size.
    """
    n = len(path_set.user_ids)
    if len(path_flows) != n:
        raise ConfigError("need one flow vector per user")
    cleaned: list[tuple[float, ...]] = []
    for ui in range(n):
        flows = list(path_flows[ui])
        if len(flows) != len(path_set.paths[ui]):
            raise ConfigError(
                f"user {path_set.user_ids[ui]} has {len(path_set.paths[ui])} "
                f"paths but {len(flows)} flow entries")
        for p, v in enumerate(flows):
            if not math.isfinite(v):
                raise ConfigError(f"path flow must be finite, not {v}")
            if v < -_FLOW_TOL:
                raise ConfigError(f"negative path flow {v}")
            if v < 0:
                flows[p] = 0.0
        total = math.fsum(flows)
        scale = max(1.0, abs(demands[ui]))
        if abs(total - demands[ui]) > _FLOW_TOL * scale:
            raise ConfigError(
                f"user {path_set.user_ids[ui]} routes {total}, "
                f"demand is {demands[ui]}")
        cleaned.append(tuple(flows))
    m = len(net.links)
    per_user = []
    for ui in range(n):
        row = [0.0] * m
        for p, path in enumerate(path_set.paths[ui]):
            v = cleaned[ui][p]
            if v == 0.0:
                continue
            for li in path:
                row[li] += v
        per_user.append(tuple(row))
    totals = tuple(math.fsum(per_user[ui][li] for ui in range(n))
                   for li in range(m))
    return FlowProfile(user_ids=path_set.user_ids, path_flows=tuple(cleaned),
                       user_link_flows=tuple(per_user),
                       total_link_flows=totals)


def saturated_links(net: Network, profile: FlowProfile) -> tuple[str, ...]:
    """Links that carry positive flow at or beyond a finite capacity.

    Zero-capacity links with zero flow are fine; they stand in for absent
    connections.
    """
    bad = []
    for li, lk in enumerate(net.links):
        f = profile.total_link_flows[li]
        if f <= 0.0:
            continue
        if isinstance(lk.cost, MM1Cost) and f >= lk.cost.capacity:
            bad.append(lk.link_id)
    return tuple(bad)


def check_feasibility(net: Network, users: Sequence[UserSpec],
                      paths: PathSet) -> Fraction | None:
    """Raise ``InfeasibleError`` unless the positive demands fit on
    ``paths`` with every M/M/1 link ``CAPACITY_GUARD`` below capacity.

    That is the maximum concurrent flow ``lam*``: the largest ``lam``
    such that each user routes ``lam`` times its demand while each M/M/1
    link carries at most ``max(C - CAPACITY_GUARD, 0)``.  It returns
    ``lam*`` exactly, or None when no M/M/1 link bounds it, and refuses
    ``lam* <= 1``.  Then the message names the links that the optimal
    dual prices, and ``detail`` holds ``lam*``, those links and their
    prices as coprime integers: a Farkas certificate.

    Every row is ``<=`` with a nonnegative right side, so a one-phase
    simplex with Bland's rule starts from the slacks.  One power of two
    makes every (dyadic) float an integer, and integer-preserving pivots
    (Edmonds 1967) keep the tableau exact over the last pivot ``d``.
    """
    bound = [ui for ui, u in enumerate(users) if u.demand > 0]
    cols = [(ui, set(path)) for ui in bound for path in paths.paths[ui]]
    queues = sorted({li for _, path in cols for li in path
                     if isinstance(net.links[li].cost, MM1Cost)})
    if not queues:
        return None
    ratios = [v.as_integer_ratio() for v in [users[k].demand for k in bound]
              + [max(net.links[li].cost.capacity - CAPACITY_GUARD, 0.0)
                 for li in queues]]
    scale = max(den for _, den in ratios)
    rhs = [num * (scale // den) for num, den in ratios]
    # Row i reads ``basic_i + sum_j a_ij x_j = b_i`` over lam, the path
    # flows and the rows' slacks; the last row is the objective z - lam.
    n, m = len(cols) + 1, len(rhs)
    tab = [[r] + [-(ui == k) for ui, _ in cols] + [0]
           for k, r in zip(bound, rhs)]
    tab += [[0] + [int(li in path) for _, path in cols] + [c]
            for li, c in zip(queues, rhs[len(bound):])]
    tab.append([-1] + [0] * n)
    col_var, row_var = list(range(n)), list(range(n, n + m))
    d = 1
    while any(v < 0 for v in tab[m][:n]):
        c = min((j for j in range(n) if tab[m][j] < 0),
                key=col_var.__getitem__)
        rows = [i for i in range(m) if tab[i][c] > 0]
        if not rows:
            return None
        r = min(rows, key=lambda i: (Fraction(tab[i][n], tab[i][c]),
                                     row_var[i]))
        prow, p = tab[r], tab[r][c]
        for i, row in enumerate(tab):
            if i != r:
                f = row[c]
                tab[i] = [(v * p - f * w) // d for v, w in zip(row, prow)]
                tab[i][c] = -f
        prow[c], d = d, p
        row_var[r], col_var[c] = col_var[c], row_var[r]
    lam = Fraction(tab[m][n], d)
    if lam > 1:
        return lam
    priced = sorted((queues[v - n - len(bound)], tab[m][j])
                    for j, v in enumerate(col_var)
                    if v >= n + len(bound) and tab[m][j] > 0)
    links = [net.links[li].link_id for li, _ in priced]
    unit = math.gcd(*(y for _, y in priced))
    raise InfeasibleError(
        f"demand meets or exceeds the capacity of links {', '.join(links)}: "
        f"at most {float(lam)} of every user's demand fits",
        detail={"lambda": float(lam), "links": links,
                "prices": [y // unit for _, y in priced]})
