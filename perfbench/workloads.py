"""The benchmark's four workloads.

A workload builds its inputs in ``setup`` (the part ``setup_s`` times in
fresh processes), runs one round of operations in ``run_round`` (the part
``wall_s`` times), and checks a round's output in ``check`` with the
independent computations of ``checks.py``.  An operation is one game
solved: a sweep row, a mixed scenario or a single solve.

cooproute is imported from the checkout's ``src`` directory by
``run.py``; every call goes through a module attribute at call time so
that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
import traceback

import checks
from hostclock import NullClock


class Outcome:
    """Result of the checks for one operation."""

    __slots__ = ("label", "problems", "known")

    def __init__(self, label, problems, known=False):
        self.label = label
        self.problems = list(problems)
        # True when every problem is the known parallel-3x3 fault.
        self.known = known

    @property
    def failed(self):
        return bool(self.problems)


def _error_text(exc):
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _link_flows(eq, link_ids):
    return [dict(zip(link_ids, row)) for row in eq.profile.user_link_flows]


def _fmt(v):
    return format(float(v), ".12g")


class Workload:
    name = ""
    in_process = True

    def __init__(self, root, out_dir, seed):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def run_round(self, clock):
        """Run every operation once, timing each game on ``clock``."""
        raise NotImplementedError

    def trace_round(self):
        """The round the traced run measures (the same by default)."""
        return self.run_round(NullClock())

    def fingerprint(self, output):
        """Text that two rounds with the same result share."""
        raise NotImplementedError

    def check(self, output, trace):
        raise NotImplementedError

    def manifest_timings(self, output):
        return {}


# ------------------------------------------------------------ exp1-alpha

EXP1_LINKS = {"l1": (1.0, 0.0), "l2": (1.0, 0.0), "l3": (0.0, 0.5),
              "l4": (0.0, 0.5)}
EXP1_USERS = [(1.0, ["l1"], ["l3", "l2"]), (1.0, ["l2"], ["l4", "l1"])]
EXP1_LINKS_SPEC = {l: ("linear",) + ab for l, ab in EXP1_LINKS.items()}


class Exp1Alpha(Workload):
    """``alpha_sweep(exp1, 0..1 step 0.01, vary="first")``, the cooperation
    paradox detector and CSV rendering, in-process."""

    name = "exp1-alpha"
    alphas = [i / 100 for i in range(101)]

    def setup(self):
        from cooproute import experiments
        self.scenario = experiments.get_preset("exp1")
        game = self.scenario.build_game()
        self.user_ids = tuple(u.user_id for u in game.users)
        self.link_ids = tuple(lk.link_id for lk in game.net.links)

    def run_round(self, clock):
        from cooproute import cli, experiments
        # alpha_sweep solves every row itself: time each solve through
        # the module attribute it calls.
        solve = experiments.multistart_nash

        def timed(*args, **kwargs):
            return clock.timed(solve, *args, **kwargs)
        experiments.multistart_nash = timed
        try:
            table = experiments.alpha_sweep(self.scenario, self.alphas,
                                            vary="first")
            report = experiments.detect_cooperation_paradox(table)
            text = cli.emit_csv(
                [(row.value, row.equilibria) for row in table.rows],
                self.user_ids, self.link_ids)
        except Exception as exc:  # one failed call fails every row
            return {"error": _error_text(exc)}
        finally:
            experiments.multistart_nash = solve
        return {"table": table, "report": report, "csv": text}

    def fingerprint(self, output):
        return output.get("csv") or output["error"]

    def check(self, output, trace):
        labels = [f"alpha={a}" for a in self.alphas]
        if "error" in output:
            return [Outcome(lb, [output["error"]]) for lb in labels]
        table, report = output["table"], output["report"]
        problems = {lb: [] for lb in labels}
        game = checks.TwoPathGame(EXP1_LINKS_SPEC, EXP1_USERS, (0.0, 0.0))
        try:
            parsed = list(_csv_clusters(output["csv"], self.user_ids,
                                        self.link_ids))
        except ValueError as exc:
            return [Outcome(lb, [f"CSV: {exc}"]) for lb in labels]
        cursor = 0
        for k, (alpha, row) in enumerate(zip(self.alphas, table.rows)):
            probs = problems[labels[k]]
            alphas = (alpha, 0.0)
            if row.value != alpha:
                probs.append(f"row {k} holds alpha {row.value!r}")
            emitted = []
            for ci, eq in enumerate(row.equilibria):
                flows = _link_flows(eq, self.link_ids)
                where = f"alpha={alpha} cluster {ci}"
                probs += checks.cost_problems(
                    EXP1_LINKS_SPEC, alphas, flows, eq.raw_costs,
                    eq.operating_costs, where)
                emitted.append(tuple(game.cross_flows(flows)))
            points, segments = checks.affine_equilibria(
                EXP1_LINKS, EXP1_USERS, alphas)
            probs += checks.match_set(emitted, points, segments,
                                      f"alpha={alpha}")
            rows = parsed[cursor:cursor + len(row.equilibria)]
            cursor += len(row.equilibria)
            if len(rows) != len(row.equilibria):
                probs.append(f"alpha={alpha}: CSV holds {len(rows)} "
                             f"clusters, the table {len(row.equilibria)}")
            for param, cl in rows:
                if param != _fmt(alpha):
                    probs.append(f"CSV row has param {param}, expected "
                                 f"{_fmt(alpha)}")
                probs += checks.cost_problems(
                    EXP1_LINKS_SPEC, alphas, cl["flows"], cl["raw"],
                    cl["op"], f"CSV alpha={alpha}")
        if cursor != len(parsed):
            problems[labels[-1]].append("CSV holds extra rows")
        # Each cooperation-paradox witness must compare two emitted
        # equilibria, and the varied user's own cost must really drop.
        by_value = {row.value: row for row in table.rows}
        for wit in report.witnesses:
            lb = f"alpha={wit.parameter_to}"
            probs = problems.get(lb, problems[labels[-1]])
            for value, cst in ((wit.parameter_from, wit.user_costs_from),
                               (wit.parameter_to, wit.user_costs_to)):
                row = by_value.get(value)
                if row is None or not any(
                        tuple(eq.raw_costs) == tuple(cst)
                        for eq in row.equilibria):
                    probs.append(f"paradox witness cites costs {cst} that "
                                 f"no equilibrium at alpha={value} has")
            u = wit.user_index
            if not wit.user_costs_to[u] < wit.user_costs_from[u] - 1e-6:
                probs.append(f"paradox witness {wit.parameter_from}->"
                             f"{wit.parameter_to}: user {u + 1}'s cost does "
                             f"not drop")
        if report.found != bool(report.witnesses):
            problems[labels[-1]].append("paradox report 'found' disagrees "
                                        "with its witnesses")
        return [Outcome(lb, problems[lb]) for lb in labels]



def _csv_clusters(text, user_ids, link_ids):
    """(param text, cluster) pairs of a game CSV in file order."""
    for param, clusters in checks.parse_game_csv(text, user_ids,
                                                 link_ids).items():
        for cl in clusters:
            yield param, cl


# ------------------------------------------------------------ braess-cli

CLI_MAIN = "import sys; from cooproute.cli import main; sys.exit(main())"
BRAESS = (("braess-lb-sym", (0.9, 0.9)), ("braess-lb-asym", (0.93, 0.0)))
BRAESS_CAPACITIES = [0.5 * i for i in range(21)]
BRAESS_USERS = [(2.0, ["l1"], ["l3", "l2"]), (1.0, ["l2"], ["l4", "l1"])]
BRAESS_IDS = ((1, 2), ("l1", "l2", "l3", "l4"))


def braess_links(cap):
    return {"l1": ("queue", 4.1), "l2": ("queue", 4.1),
            "l3": ("queue", cap), "l4": ("queue", cap)}


class BraessCli(Workload):
    """``cooproute sweep --preset braess-lb-{sym,asym} --parameter`` as
    subprocesses with two workers, as users run it."""

    name = "braess-cli"
    in_process = False
    threads = 2

    def _paths(self, preset, tag):
        base = os.path.join(self.out_dir, f"{preset}.{tag}")
        return base + ".csv", base + ".manifest.json"

    def _argv(self, preset, tag):
        csv_path, man_path = self._paths(preset, tag)
        return ["sweep", "--preset", preset, "--parameter",
                "--out", csv_path, "--manifest", man_path]

    def setup(self):
        # What a CLI process does before its first solve.
        from cooproute import cli, experiments
        preset = BRAESS[0][0]
        args = cli.build_parser().parse_args(self._argv(preset, "probe"))
        sc = experiments.get_preset(args.preset)
        sc.build_game(param=sc.param.values[0])

    def _collect(self, preset, tag, rc, err):
        csv_path, man_path = self._paths(preset, tag)
        result = {"rc": rc, "stderr": err, "csv": None, "manifest": None}
        if rc == 0:
            with open(csv_path, "rb") as fh:
                result["csv"] = fh.read()
            with open(man_path, encoding="utf-8") as fh:
                result["manifest"] = json.load(fh)
        return result

    def run_cli(self, threads, tag, clock=None):
        """Run both sweeps as CLI subprocesses.  With a ``clock``, tick it
        every 0.1 s while a sweep runs, and credit each of the sweep's
        rows its share of the scaled solve time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["COOPROUTE_THREADS"] = str(threads)
        out = {}
        for preset, _ in BRAESS:
            if clock is not None:
                scaled, raw = clock.tick(), clock.raw
            with subprocess.Popen(
                    [sys.executable, "-c", CLI_MAIN,
                     *self._argv(preset, tag)],
                    cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True) as proc:
                err = _wait(proc, clock)
            res = self._collect(preset, tag, proc.returncode, err[-2000:])
            if clock is not None and res["manifest"] is not None:
                speed = (clock.tick() - scaled) / (clock.raw - raw)
                rows = res["manifest"]["diagnostics"]["rows"]
                solve = res["manifest"]["timings"]["solve"]
                clock.games.extend([speed * solve / rows] * rows)
            out[preset] = res
        return out

    def run_round(self, clock):
        return self.run_cli(self.threads, "w2", clock)

    def trace_round(self):
        """In-process through ``cli.main`` with one worker."""
        from cooproute import cli
        saved = os.environ.get("COOPROUTE_THREADS")
        os.environ["COOPROUTE_THREADS"] = "1"
        out = {}
        try:
            for preset, _ in BRAESS:
                rc = cli.main(self._argv(preset, "traced"))
                out[preset] = self._collect(preset, "traced", rc, "")
        finally:
            if saved is None:
                del os.environ["COOPROUTE_THREADS"]
            else:
                os.environ["COOPROUTE_THREADS"] = saved
        return out

    def manifest_timings(self, output):
        tot = {"parse": 0.0, "solve": 0.0}
        for res in output.values():
            if res["manifest"] is not None:
                for key in tot:
                    tot[key] += res["manifest"]["timings"][key]
        return tot

    def fingerprint(self, output):
        return repr([(p, r["rc"], r["csv"]) for p, r in output.items()])

    def check(self, output, trace):
        # The README promises the same bytes with one worker and with
        # several; compare against a run with the other worker count.
        other = self.run_cli(2, "w2check") if trace else \
            self.run_cli(1, "w1")
        outcomes = []
        for preset, alphas in BRAESS:
            labels = [f"{preset} cap={c}" for c in BRAESS_CAPACITIES]
            res, ref = output[preset], other[preset]
            if res["rc"] != 0 or res["csv"] is None:
                msg = f"{preset}: exit code {res['rc']}: {res['stderr']}"
                outcomes += [Outcome(lb, [msg]) for lb in labels]
                continue
            common = []
            if ref["csv"] != res["csv"]:
                common.append(f"{preset}: CSV bytes differ between one "
                              f"and two workers")
            try:
                parsed = checks.parse_game_csv(res["csv"].decode(),
                                               *BRAESS_IDS)
            except ValueError as exc:
                outcomes += [Outcome(lb, [f"{preset}: {exc}"])
                             for lb in labels]
                continue
            for cap, lb in zip(BRAESS_CAPACITIES, labels):
                probs = list(common)
                clusters = parsed.get(_fmt(cap), [])
                probs += _braess_row(preset, alphas, cap, clusters)
                outcomes.append(Outcome(lb, probs))
        return outcomes


def _wait(proc, clock, timeout=170.0):
    """Wait for ``proc`` and return its standard error.

    The host's speed swings by up to 40 % within a second, so samples
    taken only between sweeps cannot follow it.  With a ``clock``, it is
    ticked every 0.1 s while the sweep runs.  The reference loop's CPU
    time reads the same within 2 % with zero to three busy processes
    beside it, so these ticks measure the host, not the program's load.
    """
    deadline = time.monotonic() + timeout
    while True:
        step = timeout if clock is None else 0.1
        try:
            return proc.communicate(timeout=step)[1]
        except subprocess.TimeoutExpired:
            if clock is None or time.monotonic() >= deadline:
                proc.kill()
                raise
            clock.tick()


def _braess_row(preset, alphas, cap, clusters):
    where = f"{preset} cap={cap}"
    if not clusters:
        return [f"{where}: no equilibrium emitted"]
    links = braess_links(cap)
    game = checks.TwoPathGame(links, BRAESS_USERS, alphas)
    probs = []
    emitted = []
    for cl in clusters:
        at = f"{where} cluster {cl['cluster']}"
        probs += checks.cost_problems(links, alphas, cl["flows"], cl["raw"],
                                      cl["op"], at)
        t = game.cross_flows(cl["flows"])
        for k, (f_csv, f_t) in enumerate(zip(cl["flows"], game.flows(t))):
            if any(abs(f_csv[l] - f_t[l]) > 1e-9 for l in links):
                probs.append(f"{at}: user {k + 1}'s link flows are not a "
                             f"split between its two paths")
        probs += game.equilibrium_problems(t, at)
        emitted.append(t)
    for x, y in game.composition_equilibria():
        if not any(abs(e[0] - x) <= checks.FLOW_TOL
                   and abs(e[1] - y) <= checks.FLOW_TOL for e in emitted):
            probs.append(f"{where}: equilibrium with cross flows "
                         f"({x!r}, {y!r}) is missing")
    if cap == 10.0:
        probs += _braess_endpoint(preset, clusters, emitted, where)
    return probs


def _braess_crossed():
    """The crossed equilibrium of each preset at crossing capacity 10:
    ``{preset: (cross flows, costs)}``, derived by hand and checked once
    against the costs README "Tests" gives."""
    # braess-lb-asym: user 2's first-order condition with user 1 all
    # across is 2.1/(1.1+y)^2 = 10/(10-y)^2 + 4.1/(4.1-y)^2.
    y = checks.bisect(lambda v: 2.1 / (1.1 + v) ** 2 - 10 / (10 - v) ** 2
                      - 4.1 / (4.1 - v) ** 2 > 0, 0.0, 1.0, 200)
    out = {
        "braess-lb-asym": ((2.0, y), (
            2 * (1 / (1.1 + y) + 1 / 8),
            (1 - y) / (1.1 + y) + y * (1 / (10 - y) + 1 / (4.1 - y)))),
        "braess-lb-sym": ((2.0, 1.0), (2 * (1 / 2.1 + 1 / 8),
                                       1 / 9 + 1 / 3.1)),
    }
    readme = {"braess-lb-asym": (1.247600341, 0.430141841),
              "braess-lb-sym": (1.202380952, 0.433691756)}
    for preset, want in readme.items():
        got = out[preset][1]
        if any(abs(a - b) > 1e-9 for a, b in zip(got, want)):
            raise AssertionError(f"{preset}: derived crossed costs {got} "
                                 f"differ from README's {want}")
    return out


BRAESS_DIRECT = (2 / 2.1, 1 / 3.1)
BRAESS_CROSSED = _braess_crossed()


def _braess_endpoint(preset, clusters, emitted, where):
    """Closed-form equilibria at crossing capacity 10 (README "Tests")."""
    probs = []
    direct = BRAESS_DIRECT
    crossed_t, crossed = BRAESS_CROSSED[preset]
    for t_want, j_want, name in (((0.0, 0.0), direct, "all-direct"),
                                 (crossed_t, crossed, "crossed")):
        hit = [cl for cl, t in zip(clusters, emitted)
               if all(abs(a - b) <= checks.FLOW_TOL
                      for a, b in zip(t, t_want))]
        if not hit:
            probs.append(f"{where}: the {name} equilibrium {t_want} is "
                         f"missing")
        elif any(abs(a - b) > checks.FLOW_TOL
                 for a, b in zip(hit[0]["raw"], j_want)):
            probs.append(f"{where}: the {name} equilibrium costs "
                         f"{hit[0]['raw']}, expected {j_want}")
    if not any(t[0] > checks.FLOW_TOL and all(
            j > d for j, d in zip(cl["raw"], direct))
            for cl, t in zip(clusters, emitted)):
        probs.append(f"{where}: no crossed equilibrium costs every user "
                     f"more than {direct} (no Braess effect)")
    return probs


# ----------------------------------------------------------- mixed-audit

ACCEPTANCE_MIXED_SEED = 20260821
MIXED_COUNT = 100


def random_mixed(seed, n=MIXED_COUNT):
    """Mixed-model parameters drawn like the acceptance suite draws them.

    With the acceptance seed and ``n = 100`` these are exactly the
    scenarios of the suite's random mixed audit.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        c1 = rng.uniform(1.5, 6.0)
        c2 = rng.uniform(1.5, 6.0)
        r1 = rng.uniform(0.2, 0.45) * (c1 + c2)
        r2 = rng.uniform(0.1, 0.4) * (c1 + c2 - r1)
        alpha = rng.uniform(0.0, 1.0)
        if abs(2 * alpha - 1) < 0.05:
            continue
        out.append((c1, c2, r1, r2, alpha))
    return out


class MixedAudit(Workload):
    """``mixed_closed_form`` and ``mixed_numeric`` on random mixed
    scenarios drawn like the acceptance suite's, plus ``mixed-fig7``."""

    name = "mixed-audit"

    def setup(self):
        from cooproute import experiments, mixed
        scen = [("mixed-fig7",
                 experiments.get_preset("mixed-fig7").build_mixed())]
        for k, p in enumerate(random_mixed(ACCEPTANCE_MIXED_SEED)):
            scen.append((f"random-{k}", mixed.MixedScenario(*p)))
        random.Random(self.seed).shuffle(scen)
        self.scenarios = scen

    def run_round(self, clock):
        from cooproute import mixed

        def solve(s):
            return mixed.mixed_closed_form(s), mixed.mixed_numeric(s)

        out = []
        for label, s in self.scenarios:
            try:
                closed, numeric = clock.timed(solve, s)
            except Exception as exc:  # one scenario's error fails only it
                out.append((label, s, None, None, _error_text(exc)))
                continue
            out.append((label, s, closed, numeric, None))
        return out

    def fingerprint(self, output):
        return repr([(lb, c, n, e) for lb, _, c, n, e in output])

    def check(self, output, trace):
        outcomes = []
        for label, s, closed, numeric, err in output:
            if err is not None:
                outcomes.append(Outcome(label, [err]))
                continue
            args = (s.capacity_one, s.capacity_two, s.group_demand,
                    s.mass_demand, s.alpha)
            probs = []
            good = [sol for sol in closed.solutions if sol.verified]
            pts = [pt for pt in numeric.points if pt.verified]
            if not good or not pts:
                probs.append(f"{label}: a solver returned no verified "
                             f"equilibrium")
            for sol in good:
                probs += checks.mixed_problems(
                    *args, sol.group_split, sol.mass_split,
                    (sol.group_cost, sol.mass_cost, sol.operating_cost),
                    f"{label} closed form {sol.case}/{sol.kind}")
            for pt in pts:
                probs += checks.mixed_problems(
                    *args, pt.group_split, pt.mass_split,
                    (pt.group_cost, pt.mass_cost, pt.operating_cost),
                    f"{label} numeric")
            outcomes.append(Outcome(label, probs))
        return outcomes


# ---------------------------------------------------------- parallel-3x3

P3_LINKS = {"l1": ("queue", 3.0), "l2": ("linear", 1.0, 0.2),
            "l3": ("queue", 2.5)}


class Parallel3x3(Workload):
    """``multistart_nash`` for 3 users of demand 1 on 3 parallel links at
    alpha 0.3."""

    name = "parallel-3x3"
    alphas = (0.3,)

    def setup(self):
        from cooproute import costs, nash, netmodel
        net = netmodel.build_network((1, 2), [
            ("l1", 1, 2, costs.MM1Cost(3.0)),
            ("l2", 1, 2, costs.LinearCost(1.0, 0.2)),
            ("l3", 1, 2, costs.MM1Cost(2.5))])
        users = [netmodel.UserSpec(user_id=i, source=1, target=2, demand=1.0)
                 for i in (1, 2, 3)]
        self.link_ids = tuple(lk.link_id for lk in net.links)
        self.games = [(a, nash.make_game(net, users, [a] * 3))
                      for a in self.alphas]

    def run_round(self, clock):
        from cooproute import nash
        # One solve runs 64 trajectories: tick the clock after each, so
        # that the host's speed is sampled all through the solve.
        dynamics = nash.br_dynamics

        def ticking(*args, **kwargs):
            result = dynamics(*args, **kwargs)
            clock.tick()
            return result
        nash.br_dynamics = ticking
        out = []
        try:
            for a, game in self.games:
                try:
                    eqset = clock.timed(nash.multistart_nash, game)
                except Exception as exc:  # the solve's error fails it
                    out.append((a, None, _error_text(exc)))
                    continue
                out.append((a, eqset, None))
        finally:
            nash.br_dynamics = dynamics
        return out

    def fingerprint(self, output):
        return repr([(a, None if s is None else s.equilibria, e)
                     for a, s, e in output])

    def check(self, output, trace):
        outcomes = []
        for a, eqset, err in output:
            label = f"alpha={a}"
            if err is not None:
                outcomes.append(Outcome(label, [err]))
                continue
            alphas = (a, a, a)
            probs, fault = [], []
            verified = [eq for eq in eqset if eq.verified]
            want = checks.symmetric_split(P3_LINKS, [1.0, 1.0, 1.0], a)
            if len(verified) != 1:
                probs.append(f"{label}: {len(verified)} verified clusters, "
                             f"the game has one equilibrium")
            for eq in verified:
                flows = _link_flows(eq, self.link_ids)
                probs += checks.cost_problems(P3_LINKS, alphas, flows,
                                              eq.raw_costs,
                                              eq.operating_costs, label)
                off = max(abs(f[l] - want[l]) for f in flows for l in want)
                if off > checks.FLOW_TOL:
                    probs.append(f"{label}: verified cluster is {off:.3g} "
                                 f"away from the symmetric split {want}")
            for eq in eqset:
                if eq.verified:
                    continue
                flows = _link_flows(eq, self.link_ids)
                totals = {l: sum(f[l] for f in flows) for l in P3_LINKS}
                saturated = [l for l, spec in P3_LINKS.items()
                             if spec[0] == "queue" and totals[l] >= spec[1]]
                if saturated and all(math.isinf(j) for j in eq.raw_costs):
                    fault.append(
                        f"{label}: unverified cluster saturating "
                        f"{','.join(saturated)} with flows "
                        f"{eq.profile.path_flows[0]} per user and infinite "
                        f"costs (saturated-start fault)")
                else:
                    probs.append(f"{label}: unverified cluster "
                                 f"{eq.profile.path_flows}")
            outcomes.append(Outcome(label, probs + fault,
                                    known=bool(fault) and not probs))
        return outcomes


WORKLOADS = {w.name: w for w in (Exp1Alpha, BraessCli, MixedAudit,
                                 Parallel3x3)}
