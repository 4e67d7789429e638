"""Independent checks of cooproute's outputs.

Nothing in this module imports cooproute.  Each check rebuilds what it
needs from the model's definitions alone: affine latencies ``a * F + g``,
queueing latencies ``1 / (C - F)``, user demands, and cooperation weights
``1 - alpha`` on the user's own cost and ``alpha / (n - 1)`` on each other
user's cost.  A check returns a list of problem strings; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

FLOW_TOL = 1e-6       # distance between an emitted and a derived flow
COST_TOL = 1e-9       # relative error of a recomputed cost
FOC_TOL = 1e-6        # first-order residual, in units of flow
DEVIATION_GRID = 1001  # points of the dense unilateral-deviation sweeps


# ---------------------------------------------------------------- latencies

def latency(spec, flow):
    """Latency of a link spec ``("linear", a, g)`` or ``("queue", C)``."""
    if spec[0] == "linear":
        return spec[1] * flow + spec[2]
    slack = spec[1] - flow
    return math.inf if slack <= 0.0 else 1.0 / slack


def latency_slope(spec, flow):
    if spec[0] == "linear":
        return spec[1]
    slack = spec[1] - flow
    return math.inf if slack <= 0.0 else 1.0 / (slack * slack)


def bisect(below, lo, hi, iters=60):
    """Halve ``[lo, hi]`` ``iters`` times and return the last midpoint.

    ``below(x)`` is true when the point sought lies above ``x``.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weights(alphas):
    """Row-stochastic cooperation weights built from per-user alphas."""
    n = len(alphas)
    if n == 1:
        return [[1.0]]
    return [[1.0 - a if k == i else a / (n - 1) for k in range(n)]
            for i, a in enumerate(alphas)]


def user_costs(links, user_link_flows):
    """``J_k = sum_l f_l^k T_l(F_l)``, with zero flow costing nothing."""
    totals = {l: sum(f[l] for f in user_link_flows) for l in links}
    out = []
    for f in user_link_flows:
        acc = 0.0
        for l, spec in links.items():
            if f[l] != 0.0:
                acc += f[l] * latency(spec, totals[l])
        out.append(acc)
    return out


def operating_costs(alphas, raw):
    b = weights(alphas)
    out = []
    for row in b:
        if any(w and math.isinf(j) for w, j in zip(row, raw)):
            out.append(math.inf)
        else:
            out.append(sum(w * j for w, j in zip(row, raw) if w))
    return out


def close(a, b, tol=COST_TOL):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def cost_problems(links, alphas, flows, raw, op, where):
    """Recompute raw and operating costs from per-user link flows."""
    want_raw = user_costs(links, flows)
    want_op = operating_costs(alphas, want_raw)
    probs = []
    for k, (got, want) in enumerate(zip(raw, want_raw)):
        if not close(got, want):
            probs.append(f"{where}: J of user {k + 1} is {got!r}, "
                         f"the flows give {want!r}")
    for k, (got, want) in enumerate(zip(op, want_op)):
        if not close(got, want):
            probs.append(f"{where}: Jhat of user {k + 1} is {got!r}, "
                         f"the flows give {want!r}")
    return probs


# ------------------------------------------------------------------- CSV

def parse_game_csv(text, user_ids, link_ids):
    """Rows of a cooproute equilibrium CSV, grouped by ``param``.

    Returns ``{param text: [cluster dict, ...]}`` in file order, where a
    cluster dict holds ``raw``, ``op`` and ``flows`` (one ``{link: flow}``
    per user).
    """
    rows = list(csv.reader(io.StringIO(text)))
    header = ["param", "cluster", "basin_count"]
    header += [f"J_{u}" for u in user_ids]
    header += [f"Jhat_{u}" for u in user_ids]
    header += [f"f_{u}_{l}" for u in user_ids for l in link_ids]
    if not rows or rows[0] != header:
        raise ValueError(f"unexpected CSV header {rows[:1]}")
    col = {name: i for i, name in enumerate(header)}
    out = {}
    for r in rows[1:]:
        out.setdefault(r[0], []).append({
            "cluster": int(r[1]),
            "basin": int(r[2]),
            "raw": [float(r[col[f"J_{u}"]]) for u in user_ids],
            "op": [float(r[col[f"Jhat_{u}"]]) for u in user_ids],
            "flows": [{l: float(r[col[f"f_{u}_{l}"]]) for l in link_ids}
                      for u in user_ids]})
    return out


# --------------------------------------------------- two-path user games

class TwoPathGame:
    """Users that each split a demand between a direct and a cross path.

    ``users`` is a list of ``(demand, direct links, cross links)``.  The
    state is the vector ``t`` of cross-path flows.  Every user's
    operating cost is convex in its own ``t`` for these latencies, so a
    best response is the sign change of the derivative ``deriv``.
    """

    def __init__(self, links, users, alphas):
        self.link_ids = list(links)
        self.specs = [links[l] for l in self.link_ids]
        self.users = [(r, tuple(d), tuple(c)) for r, d, c in users]
        self.alphas = tuple(alphas)
        self.b = weights(alphas)
        idx = {l: j for j, l in enumerate(self.link_ids)}
        # Per user: link indices of each path, and +1 on links only the
        # cross path uses, -1 on links only the direct path uses.
        self.direct = [[idx[l] for l in d] for _, d, _ in self.users]
        self.cross = [[idx[l] for l in c] for _, _, c in self.users]
        self.sign = [[(idx[l], 1.0) for l in c if l not in d]
                     + [(idx[l], -1.0) for l in d if l not in c]
                     for _, d, c in self.users]
        self.marker = [next(l for l in c if l not in d)
                       for _, d, c in self.users]

    def _flows(self, t):
        m = len(self.link_ids)
        out = []
        for k, (r, _, _) in enumerate(self.users):
            f = [0.0] * m
            for j in self.direct[k]:
                f[j] += r - t[k]
            for j in self.cross[k]:
                f[j] += t[k]
            out.append(f)
        return out

    def flows(self, t):
        """Per-user ``{link: flow}`` of the state ``t``."""
        return [dict(zip(self.link_ids, f)) for f in self._flows(t)]

    def cross_flows(self, user_link_flows):
        return [f[m] for f, m in zip(user_link_flows, self.marker)]

    def op_cost(self, i, t):
        f = self._flows(t)
        totals = [sum(col) for col in zip(*f)]
        lat = [latency(s, x) for s, x in zip(self.specs, totals)]
        acc = 0.0
        for k, fk in enumerate(f):
            w = self.b[i][k]
            if not w:
                continue
            for j, v in enumerate(fk):
                if v != 0.0:
                    acc += w * v * lat[j]
        return acc

    def deriv(self, i, t):
        """Derivative of user i's operating cost in its own ``t_i``."""
        f = self._flows(t)
        acc = 0.0
        bi = self.b[i]
        for j, e in self.sign[i]:
            spec = self.specs[j]
            total = 0.0
            weighted = 0.0
            for k, fk in enumerate(f):
                total += fk[j]
                weighted += bi[k] * fk[j]
            lat = latency(spec, total)
            slope = latency_slope(spec, total)
            if math.isinf(lat) or math.isinf(slope):
                return math.inf if e > 0 else -math.inf
            acc += e * (bi[i] * lat + weighted * slope)
        return acc

    def deriv_scale(self, i, t):
        """Size of the terms in ``deriv``, to normalize its residual."""
        f = self._flows(t)
        acc = 0.0
        for j, _ in self.sign[i]:
            total = sum(fk[j] for fk in f)
            acc += abs(latency(self.specs[j], total))
            acc += abs(latency_slope(self.specs[j], total)) * total
        return max(1.0, acc)

    def _bounds(self, i, t):
        """Interval of ``t_i`` that keeps every queue below capacity."""
        r = self.users[i][0]
        f = self._flows(t)
        lo, hi = 0.0, r
        for j, e in self.sign[i]:
            spec = self.specs[j]
            if spec[0] != "queue":
                continue
            room = spec[1] - sum(f[k][j] for k in range(len(f)) if k != i)
            if e > 0:
                hi = min(hi, room - 1e-12 * max(1.0, room))
            else:
                lo = max(lo, r - room + 1e-12 * max(1.0, room))
        return lo, hi

    def best_response(self, i, t, iters=60):
        r = self.users[i][0]
        lo, hi = self._bounds(i, t)
        if lo > hi:
            # One path cannot carry flow at all: the other one takes it.
            return 0.0 if hi < 0.0 else r
        trial = list(t)

        def d(x):
            trial[i] = x
            return self.deriv(i, trial)

        if d(lo) >= 0.0:
            return lo
        if d(hi) <= 0.0:
            return hi
        return bisect(lambda x: d(x) <= 0.0, lo, hi, iters)

    def equilibrium_problems(self, t, where):
        """First-order conditions plus a dense unilateral-deviation sweep."""
        probs = []
        for i, (r, _, _) in enumerate(self.users):
            ti = t[i]
            d = self.deriv(i, t)
            scale = self.deriv_scale(i, t)
            eps = 1e-9 * max(1.0, r)
            if ti > eps and d > FOC_TOL * scale:
                probs.append(f"{where}: user {i + 1} could move flow off "
                             f"its cross path (derivative {d:.3g})")
            if ti < r - eps and d < -FOC_TOL * scale:
                probs.append(f"{where}: user {i + 1} could move flow onto "
                             f"its cross path (derivative {d:.3g})")
            cur = self.op_cost(i, t)
            trial = list(t)
            best = math.inf
            for g in range(DEVIATION_GRID):
                trial[i] = r * g / (DEVIATION_GRID - 1)
                best = min(best, self.op_cost(i, trial))
            if best < cur - COST_TOL * max(1.0, abs(cur)):
                probs.append(f"{where}: user {i + 1} lowers its operating "
                             f"cost from {cur!r} to {best!r} by deviating")
        return probs

    def composition_equilibria(self, grid=201):
        """Every transversal equilibrium of a two-user game.

        Each equilibrium ``(x, y)`` is a fixed point of ``x -> BR1(BR2(x))``
        and every fixed point gives one, so the equilibria are the sign
        changes and exact zeros of ``BR1(BR2(x)) - x`` on a grid, refined
        by bisection.  Repelling equilibria are found as well.
        """
        if len(self.users) != 2:
            raise ValueError("the composition scan needs two users")
        r1 = self.users[0][0]

        def respond(x):
            y = self.best_response(1, [x, 0.0])
            return y, self.best_response(0, [x, y])

        def g(x):
            return respond(x)[1] - x

        xs = [r1 * k / (grid - 1) for k in range(grid)]
        vals = [g(x) for x in xs]
        roots = [x for x, v in zip(xs, vals) if v == 0.0]
        for k in range(grid - 1):
            va, vb = vals[k], vals[k + 1]
            if va == 0.0 or vb == 0.0 or (va > 0.0) == (vb > 0.0):
                continue
            sign = va > 0.0
            roots.append(bisect(lambda x: (g(x) > 0.0) == sign,
                                xs[k], xs[k + 1]))
        out = []
        for x in roots:
            y = respond(x)[0]
            out.append((x, y))
        return out


# ------------------------------------------- exact oracle, affine links

def _affine_zero(n):
    return [Fraction(0)] * (n + 1)


def affine_equilibria(links, users, alphas):
    """All equilibria of a game of two-path users on affine links.

    Every objective is quadratic, so each user's derivative in its own
    cross flow ``t_i`` is affine in ``t``.  For each support (``t_i`` at
    0, at the demand, or interior) the interior users' first-order
    conditions are a linear system, solved in exact rational arithmetic;
    the other users' sign conditions and the box then cut the solution
    set.  Returns ``(points, segments)``: isolated equilibria, and
    continua given by their two ends.  Points that lie on a continuum are
    folded into it.
    """
    n = len(users)
    fr_links = {l: (Fraction(a), Fraction(g)) for l, (a, g) in links.items()}
    r = [Fraction(u[0]) for u in users]
    b = [[Fraction(1) - Fraction(a) if k == i else
          (Fraction(a) / (n - 1) if n > 1 else Fraction(0))
          for k in range(n)] for i, a in enumerate(alphas)]
    # f[k][l] as affine forms [const, coef t_1, ..., coef t_n]
    f = []
    for k, (_, d, c) in enumerate(users):
        fk = {l: _affine_zero(n) for l in fr_links}
        for l in d:
            fk[l][0] += r[k]
            fk[l][1 + k] -= 1
        for l in c:
            fk[l][1 + k] += 1
        f.append(fk)
    total = {l: [sum(f[k][l][j] for k in range(n)) for j in range(n + 1)]
             for l in fr_links}
    forms = []
    for i, (_, d, c) in enumerate(users):
        D = _affine_zero(n)
        for l in fr_links:
            e = (l in c) - (l in d)
            if e == 0:
                continue
            a, g = fr_links[l]
            for j in range(n + 1):
                lat = a * total[l][j] + (g if j == 0 else 0)
                weighted = sum(b[i][k] * f[k][l][j] for k in range(n))
                D[j] += e * (b[i][i] * lat + a * weighted)
        forms.append(D)

    points, segments = [], []
    for support in itertools.product("lhi", repeat=n):
        fixed = {k: (Fraction(0) if s == "l" else r[k])
                 for k, s in enumerate(support) if s != "i"}
        free = [k for k, s in enumerate(support) if s == "i"]
        sol = _solve_support(forms, fixed, free, n)
        if sol is None:
            continue
        base, direction = sol
        lo_s, hi_s = None, None
        constraints = []
        for k in free:
            constraints.append((_pick(base, direction, k), 0, None))
            constraints.append((_pick(base, direction, k), None, r[k]))
        for k, s in enumerate(support):
            if s == "i":
                continue
            val = _eval_line(forms[k], base, direction)
            constraints.append((val, 0, None) if s == "l" else
                               (val, None, 0))
        feasible = True
        for (c0, c1), low, high in constraints:
            # c0 + c1 * s >= low  and/or  <= high
            for bound, sense in ((low, 1), (high, -1)):
                if bound is None:
                    continue
                # sense * (c0 + c1 s - bound) >= 0
                k0, k1 = sense * (c0 - bound), sense * c1
                if k1 == 0:
                    if k0 < 0:
                        feasible = False
                elif k1 > 0:
                    cut = -k0 / k1
                    lo_s = cut if lo_s is None or cut > lo_s else lo_s
                else:
                    cut = -k0 / k1
                    hi_s = cut if hi_s is None or cut < hi_s else hi_s
        if not feasible:
            continue
        if direction is None:
            points.append(tuple(base))
            continue
        if lo_s is None or hi_s is None:
            raise ValueError("unbounded continuum of equilibria")
        if lo_s > hi_s:
            continue
        a_end = tuple(p + lo_s * q for p, q in zip(base, direction))
        b_end = tuple(p + hi_s * q for p, q in zip(base, direction))
        if lo_s == hi_s:
            points.append(a_end)
        else:
            segments.append((a_end, b_end))
    segments = list(dict.fromkeys(
        tuple(sorted(s)) for s in segments))
    points = [p for p in dict.fromkeys(points)
              if not any(_on_segment(p, s) for s in segments)]
    return points, segments


def _pick(base, direction, k):
    return (base[k], direction[k] if direction is not None else Fraction(0))


def _eval_line(form, base, direction):
    c0 = form[0] + sum(form[1 + j] * base[j] for j in range(len(base)))
    c1 = (sum(form[1 + j] * direction[j] for j in range(len(base)))
          if direction is not None else Fraction(0))
    return c0, c1


def _solve_support(forms, fixed, free, n):
    """Solve the interior users' conditions ``D_i(t) = 0``.

    Returns ``(base, direction)`` with ``direction`` None for a unique
    solution and a null-space vector for a one-dimensional solution set,
    or None when the system is inconsistent.
    """
    rows = []
    for i in free:
        row = [forms[i][1 + k] for k in free]
        rhs = -forms[i][0] - sum(forms[i][1 + k] * v for k, v in fixed.items())
        rows.append(row + [rhs])
    m = len(free)
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((j for j in range(rank, len(rows)) if rows[j][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [v / p for v in rows[rank]]
        for j in range(len(rows)):
            if j != rank and rows[j][col] != 0:
                fac = rows[j][col]
                rows[j] = [a - fac * b for a, b in zip(rows[j], rows[rank])]
        pivots.append(col)
        rank += 1
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in rows):
        return None
    free_cols = [c for c in range(m) if c not in pivots]
    if len(free_cols) > 1:
        raise ValueError("continuum of dimension above one")
    base = [Fraction(0)] * n
    for k, v in fixed.items():
        base[k] = v
    direction = None
    if free_cols:
        direction = [Fraction(0)] * n
        direction[free[free_cols[0]]] = Fraction(1)
    for j, col in enumerate(pivots):
        base[free[col]] = rows[j][-1]
        if direction is not None:
            direction[free[col]] = -rows[j][free_cols[0]]
    return base, direction


def _on_segment(p, seg):
    a, b = seg
    d = [y - x for x, y in zip(a, b)]
    dd = sum(v * v for v in d)
    s = sum((pi - ai) * di for pi, ai, di in zip(p, a, d)) / dd
    if s < 0 or s > 1:
        return False
    return all(pi == ai + s * di for pi, ai, di in zip(p, a, d))


def distance_to_segment(p, seg):
    """Max-norm distance from a float point to a segment of Fractions."""
    a = [float(v) for v in seg[0]]
    b = [float(v) for v in seg[1]]
    d = [y - x for x, y in zip(a, b)]
    dd = sum(v * v for v in d)
    s = sum((pi - ai) * di for pi, ai, di in zip(p, a, d)) / dd
    s = min(max(s, 0.0), 1.0)
    return max(abs(pi - ai - s * di) for pi, ai, di in zip(p, a, d))


def match_set(emitted, points, segments, where, tol=FLOW_TOL):
    """The emitted cross-flow vectors against an oracle's equilibrium set.

    Every emitted point must lie within ``tol`` of an oracle point or
    continuum, every oracle point must have an emitted point within
    ``tol``, and every continuum must carry at least one emitted point.
    """
    probs = []
    fpoints = [tuple(float(v) for v in p) for p in points]
    for e in emitted:
        near_p = any(max(abs(a - b) for a, b in zip(e, p)) <= tol
                     for p in fpoints)
        near_s = any(distance_to_segment(e, s) <= tol for s in segments)
        if not (near_p or near_s):
            probs.append(f"{where}: emitted cross flows {e} are no "
                         f"equilibrium of the game")
    for p in fpoints:
        if not any(max(abs(a - b) for a, b in zip(e, p)) <= tol
                   for e in emitted):
            probs.append(f"{where}: equilibrium with cross flows {p} "
                         f"is missing")
    for s in segments:
        if not any(distance_to_segment(e, s) <= tol for e in emitted):
            ends = [tuple(float(v) for v in end) for end in s]
            probs.append(f"{where}: continuum {ends} is missing")
    return probs


# ------------------------------------------------------------ mixed model

def mixed_problems(c1, c2, r1, r2, alpha, x, w, costs, where):
    """Check one point of the mixed model from ``1 / (C - f)``.

    ``x`` is the group's flow on link one and ``w`` the mass's flow on
    link two.  Checks the reported costs, the mass's equal-latency
    (Wardrop) condition, the group's first-order condition, and a dense
    sweep over the group's splits.
    """
    probs = []

    def state(xv):
        f1 = xv + (r2 - w)
        f2 = (r1 - xv) + w
        if f1 >= c1 and f1 > 0 or f2 >= c2 and f2 > 0:
            return None
        t1 = 1.0 / (c1 - f1)
        t2 = 1.0 / (c2 - f2)
        jg = (xv * t1 if xv else 0.0) + ((r1 - xv) * t2 if r1 - xv else 0.0)
        jm = ((r2 - w) * t1 if r2 - w else 0.0) + (w * t2 if w else 0.0)
        return t1, t2, jg, jm, (1.0 - alpha) * jg + alpha * jm

    cur = state(x)
    if cur is None:
        return [f"{where}: a link is at or over capacity"]
    t1, t2, jg, jm, jo = cur
    for name, got, want in zip(("group", "mass", "operating"), costs,
                               (jg, jm, jo)):
        if not close(got, want):
            probs.append(f"{where}: {name} cost {got!r}, the splits give "
                         f"{want!r}")
    # Wardrop: the mass uses only links of least latency.  The latency gap
    # is divided by its slope in w, so the tolerance is in units of flow.
    gap = (t1 - t2) / (t1 * t1 + t2 * t2)
    eps = 1e-9 * max(1.0, r2)
    if w > eps and gap < -FOC_TOL:
        probs.append(f"{where}: mass on link two although link one is "
                     f"faster (gap {gap:.3g})")
    if w < r2 - eps and gap > FOC_TOL:
        probs.append(f"{where}: mass on link one although link two is "
                     f"faster (gap {gap:.3g})")
    # Group first-order condition in x at the frozen mass split.
    d1, d2 = t1 * t1, t2 * t2
    dd1, dd2 = 2.0 * d1 * t1, 2.0 * d2 * t2
    deriv = ((1.0 - alpha) * (t1 + x * d1 - t2 - (r1 - x) * d2)
             + alpha * ((r2 - w) * d1 - w * d2))
    curv = ((1.0 - alpha) * (2.0 * d1 + x * dd1 + 2.0 * d2 + (r1 - x) * dd2)
            + alpha * ((r2 - w) * dd1 + w * dd2))
    step = deriv / max(1.0, curv)
    eps = 1e-9 * max(1.0, r1)
    if x > eps and step > FOC_TOL:
        probs.append(f"{where}: the group gains by moving flow to link two "
                     f"(step {step:.3g})")
    if x < r1 - eps and step < -FOC_TOL:
        probs.append(f"{where}: the group gains by moving flow to link one "
                     f"(step {step:.3g})")
    best = math.inf
    for g in range(DEVIATION_GRID):
        st = state(r1 * g / (DEVIATION_GRID - 1))
        if st is not None:
            best = min(best, st[4])
    if best < jo - COST_TOL * max(1.0, abs(jo)):
        probs.append(f"{where}: the group lowers its objective from {jo!r} "
                     f"to {best!r} by another split")
    return probs


# ------------------------------------------------- symmetric water-filling

def symmetric_split(links, demands, alpha, iters=200):
    """Per-user flows of the symmetric equilibrium on parallel links.

    With ``n`` identical users each sending ``x_l`` on link ``l``, user
    i's marginal on ``l`` is ``(1 - alpha) T_l(n x_l) + x_l T_l'(n x_l)``
    (its own term plus the ``alpha / (n - 1)`` share of everyone else's).
    It rises in ``x_l``, so the split is the water level ``lam`` at which
    the inverted marginals sum to the demand.
    """
    n = len(demands)
    r = demands[0]

    def marginal(spec, x):
        total = n * x
        return ((1.0 - alpha) * latency(spec, total)
                + x * latency_slope(spec, total))

    def top(spec):
        if spec[0] == "queue":
            return min(r, spec[1] / n)
        return r

    def invert(spec, lam):
        if marginal(spec, 0.0) >= lam:
            return 0.0
        return bisect(lambda x: marginal(spec, x) < lam, 0.0, top(spec),
                      iters)

    def supply(lam):
        return sum(invert(s, lam) for s in links.values())

    lo = min(marginal(s, 0.0) for s in links.values())
    hi = lo + 1.0
    while supply(hi) < r:
        hi = lo + 2.0 * (hi - lo)
    lam = bisect(lambda x: supply(x) < r, lo, hi, iters)
    return {l: invert(s, lam) for l, s in links.items()}
