"""Network topology, user demands, path enumeration, and flow profiles.

Everything here is immutable: networks and flow profiles are frozen
dataclasses over tuples, so they can be hashed, compared, and safely shared
between solver restarts.  Link ids are strings and are kept sorted, which
fixes the iteration order everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .costs import CostSpec, MM1Cost
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


def _min_cut(net: Network, sources, targets) -> list[Link] | None:
    """The links of a minimum cut between ``sources`` and ``targets``,
    found by an exact max-flow (Edmonds and Karp) from a super source
    with unbounded edges to each of ``sources`` to a super sink with
    unbounded edges from each of ``targets``.  An M/M/1 link carries
    its capacity and a linear link is unbounded; an unbounded path to
    a target has no finite cut and returns None."""
    # Residual graph as an edge list; edge e's reverse is e ^ 1.
    heads, room, out = [], [], {}
    super_source, super_sink = object(), object()

    def add(u, v, cap):
        for a, b, c in ((u, v, cap), (v, u, 0.0)):
            out.setdefault(a, []).append(len(heads))
            heads.append(b)
            room.append(c)

    for s in sources:
        add(super_source, s, math.inf)
    for t in targets:
        add(t, super_sink, math.inf)
    for lk in net.links:
        add(lk.source, lk.target, lk.cost.capacity
            if isinstance(lk.cost, MM1Cost) else math.inf)
    while True:
        via = {super_source: None}
        queue = [super_source]
        for u in queue:
            for e in out.get(u, ()):
                if room[e] > 0.0 and heads[e] not in via:
                    via[heads[e]] = e
                    queue.append(heads[e])
        if super_sink not in via:
            break
        path, v = [], super_sink
        while via[v] is not None:
            path.append(via[v])
            v = heads[via[v] ^ 1]
        push = min(room[e] for e in path)
        if push == math.inf:
            return None
        for e in path:
            room[e] -= push
            room[e ^ 1] += push
    return [lk for lk in net.links
            if lk.source in via and lk.target not in via]


def check_feasibility(net: Network, users: Sequence[UserSpec]) -> None:
    """Raise ``InfeasibleError`` when the demand provably cannot be carried.

    For each destination, the total demand bound for it must stay below
    the capacity of a minimum cut between those users' sources and the
    destination (``_min_cut``): its incoming links, or a bottleneck
    further upstream.  A user with positive demand and no path at all is
    caught earlier, by ``build_path_set``; demands of different
    destinations that meet on one link or one cut, by
    ``check_shared_links``.
    """
    by_target: dict[int, float] = {}
    sources: dict[int, dict] = {}
    for u in users:
        by_target[u.target] = by_target.get(u.target, 0.0) + u.demand
        sources.setdefault(u.target, {})[u.source] = None
    for target, demand in by_target.items():
        if demand <= 0:
            continue
        cut = _min_cut(net, sources[target], (target,))
        if cut is None:
            continue
        cap = math.fsum(lk.cost.capacity for lk in cut)
        if demand < cap:
            continue
        if {lk.link_id for lk in cut} == {
                lk.link_id for lk in net.links if lk.target == target}:
            raise InfeasibleError(
                f"demand {demand} into node {target} meets or exceeds the "
                f"total capacity {cap} of its incoming links",
                detail={"node": target, "demand": demand, "capacity": cap})
        raise InfeasibleError(
            f"demand {demand} into node {target} meets or exceeds the "
            f"capacity {cap} of the cut through links "
            f"{', '.join(lk.link_id for lk in cut)}",
            detail={"node": target, "demand": demand, "capacity": cap,
                    "links": [lk.link_id for lk in cut]})


def check_shared_links(net: Network, users: Sequence[UserSpec],
                       paths: PathSet) -> None:
    """Raise ``InfeasibleError`` when the demands that must cross one
    M/M/1 link, because it lies on every one of their users' ``paths``,
    meet or exceed its capacity, whatever destinations they are bound
    for.  ``check_feasibility`` covers one destination's demand alone.

    Then, when positive demands are bound for two or more destinations,
    their total must stay below the capacity of a minimum cut from all
    their sources to all those destinations (``_min_cut``): every
    routing of every user is one flow between the two sets.
    """
    forced: dict[int, list[float]] = {}
    for u, upaths in zip(users, paths.paths):
        if upaths:
            for li in set(upaths[0]).intersection(*upaths[1:]):
                forced.setdefault(li, []).append(u.demand)
    for li in sorted(forced):
        lk = net.links[li]
        demand = math.fsum(forced[li])
        if (isinstance(lk.cost, MM1Cost) and demand > 0
                and demand >= lk.cost.capacity):
            raise InfeasibleError(
                f"demand {demand} that must cross link {lk.link_id!r} meets "
                f"or exceeds its capacity {lk.cost.capacity}",
                detail={"link": lk.link_id, "demand": demand,
                        "capacity": lk.cost.capacity})
    bound = [u for u in users if u.demand > 0]
    ends = list(dict.fromkeys(u.target for u in bound))
    if len(ends) < 2:
        return
    cut = _min_cut(net, [u.source for u in bound], ends)
    if cut is None:
        return
    demand = math.fsum(u.demand for u in bound)
    cap = math.fsum(lk.cost.capacity for lk in cut)
    if demand >= cap:
        links = [lk.link_id for lk in cut]
        raise InfeasibleError(
            f"demand {demand} into nodes {', '.join(map(str, ends))} meets "
            f"or exceeds the capacity {cap} of the cut through links "
            f"{', '.join(links)}",
            detail={"nodes": ends, "demand": demand, "capacity": cap,
                    "links": links})
