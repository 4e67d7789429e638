"""Command line front end.

Input documents are strict JSON: unknown keys, duplicate keys, or missing
required keys abort with a configuration error instead of being guessed
around.  Results go to stdout (or ``--out``) as CSV with all floats
rendered through the same 12-significant-digit format, so identical runs
produce identical bytes.  A run manifest with the tool version (which
fixes every solver setting), the parameters solved, any filled-in
assumptions, and phase timings goes to stderr (or ``--manifest``), never
to stdout.

Exit codes: 0 success, 2 malformed input, 3 infeasible instance, 4 the
solver could not produce an equilibrium.

``COOPROUTE_THREADS=N`` splits a sweep over N processes: once the parent
has built every row's game, it forks N - 1 copies of itself, and worker
k solves rows k, k + N, k + 2N, ... while the parent solves rows 0, N,
2N, ...  N is capped by the row count and by the CPUs this process may
run on.  Rows are merged back in order, so the output does not depend on
scheduling; a failing sweep reports its lowest failing row, as a
sequential one does.  Where a process cannot fork, the sweep runs
sequentially and the manifest warns.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import pickle
import signal
import sys
import time
from dataclasses import replace

from . import __version__
from .costs import CooperationProfile, LinearCost, MM1Cost
from .errors import ConfigError, InfeasibleError, SolverError
from .experiments import (PRESETS, Scenario, alpha_sweep, get_preset,
                          parameter_sweep)
from .mixed import MixedScenario, mixed_closed_form, mixed_numeric
from .nash import make_game, multistart_nash, verify_nash
from .netmodel import Network, UserSpec, assemble_profile, build_network


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _dumps(obj, indent=None) -> str:
    """``obj`` as strict JSON with sorted keys: each non-finite float,
    which JSON cannot hold, becomes the string ``_fmt`` writes for it in
    the CSV (``"inf"``, ``"-inf"``, ``"nan"``), and one that is missed
    raises."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return _fmt(v)
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v
    return json.dumps(finite(obj), allow_nan=False, indent=indent,
                      sort_keys=True)


def _no_dup_pairs(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise ConfigError(f"duplicate key {k!r} in JSON document")
        out[k] = v
    return out


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_no_dup_pairs)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError(f"{what} {path!r} nests too deeply") from None


def _check_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _number(v, where) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        x = float(v)
    except OverflowError:   # an integer past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, not {x}")
    return x


def _integer(v, where) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _cost_from_doc(obj, where):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where} needs a cost object with a 'kind'")
    kind = obj["kind"]
    if kind == "linear":
        _check_keys(obj, {"kind", "slope"}, {"intercept"}, where)
        return LinearCost(slope=_number(obj["slope"], f"{where}.slope"),
                          intercept=_number(obj.get("intercept", 0.0),
                                            f"{where}.intercept"))
    if kind == "queue":
        _check_keys(obj, {"kind", "capacity"}, set(), where)
        return MM1Cost(capacity=_number(obj["capacity"], f"{where}.capacity"))
    raise ConfigError(f"{where}.kind must be 'linear' or 'queue', "
                      f"not {kind!r}")


_MIXED_KEYS = {"capacity_one", "capacity_two", "group_demand",
               "mass_demand", "alpha"}


def _is_mixed_doc(doc) -> bool:
    return isinstance(doc, dict) and _MIXED_KEYS.issubset(doc)


def _mixed_from_doc(doc) -> MixedScenario:
    _check_keys(doc, _MIXED_KEYS, set(), "mixed document")
    return MixedScenario(
        capacity_one=_number(doc["capacity_one"], "capacity_one"),
        capacity_two=_number(doc["capacity_two"], "capacity_two"),
        group_demand=_number(doc["group_demand"], "group_demand"),
        mass_demand=_number(doc["mass_demand"], "mass_demand"),
        alpha=_number(doc["alpha"], "alpha"))


def _game_from_doc(doc):
    _check_keys(doc, {"nodes", "links", "users"},
                {"alphas", "cooperation"}, "game document")
    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise ConfigError("'nodes' must be a non-empty list")
    nodes = [_integer(n, "node id") for n in doc["nodes"]]
    links = []
    for i, entry in enumerate(doc.get("links", [])):
        where = f"links[{i}]"
        _check_keys(entry, {"id", "source", "target", "cost"}, set(), where)
        links.append((str(entry["id"]),
                      _integer(entry["source"], f"{where}.source"),
                      _integer(entry["target"], f"{where}.target"),
                      _cost_from_doc(entry["cost"], f"{where}.cost")))
    net = build_network(nodes, links)
    users = []
    for i, entry in enumerate(doc.get("users", [])):
        where = f"users[{i}]"
        _check_keys(entry, {"id", "source", "target", "demand"}, set(), where)
        users.append(UserSpec(user_id=_integer(entry["id"], f"{where}.id"),
                              source=_integer(entry["source"],
                                              f"{where}.source"),
                              target=_integer(entry["target"],
                                              f"{where}.target"),
                              demand=_number(entry["demand"],
                                             f"{where}.demand")))
    if not users:
        raise ConfigError("'users' must list at least one user")
    if ("alphas" in doc) == ("cooperation" in doc):
        raise ConfigError("give exactly one of 'alphas' or 'cooperation'")
    order = sorted(range(len(users)), key=lambda i: users[i].user_id)
    sorted_ids = tuple(users[i].user_id for i in order)
    if "alphas" in doc:
        raw = doc["alphas"]
        if not isinstance(raw, list) or len(raw) != len(users):
            raise ConfigError("'alphas' needs one entry per user")
        alphas = [_number(a, "alpha") for a in raw]
        coop = CooperationProfile.from_alphas(
            sorted_ids, [alphas[i] for i in order])
    else:
        raw = doc["cooperation"]
        if (not isinstance(raw, list) or len(raw) != len(users)
                or any(not isinstance(row, list) or len(row) != len(users)
                       for row in raw)):
            raise ConfigError("'cooperation' must be a square matrix with "
                              "one row per user")
        rows = tuple(tuple(_number(w, "cooperation weight")
                           for w in (raw[i][j] for j in order))
                     for i in order)
        coop = CooperationProfile(user_ids=sorted_ids, rows=rows)
    return net, users, coop


def _resolve_alphas(given, count):
    if given is None:
        return None
    vals = [float(a) for a in given]
    if len(vals) == 1 and count > 1:
        vals = vals * count
    if len(vals) != count:
        raise ConfigError(f"need 1 or {count} cooperation degrees, "
                          f"got {len(given)}")
    return tuple(vals)


# A value range may list at most this many values, so a tiny step is
# refused before its values are built.
MAX_VALUES = 1_000_000


def _parse_value_list(text: str):
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError("value ranges look like start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad value range {text!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"value range {text!r} must be finite")
        if step <= 0 or stop < start:
            raise ConfigError("value ranges need step > 0 and stop >= start")
        n = (stop - start) / step + 1 + 1e-9
        if not n < MAX_VALUES + 1:    # also refuses an infinite count
            raise ConfigError(f"value range {text!r} has more than "
                              f"{MAX_VALUES} values")
        return tuple(start + i * step for i in range(int(n)))
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"bad value list {text!r}") from None
    if not values:
        raise ConfigError("empty value list")
    return values


def emit_csv(rows, user_ids, link_ids) -> str:
    """Render equilibrium sets as CSV, one line per cluster.

    ``rows`` holds (parameter value or None, equilibrium set) pairs.
    """
    cols = ["param", "cluster", "basin_count"]
    cols += [f"J_{uid}" for uid in user_ids]
    cols += [f"Jhat_{uid}" for uid in user_ids]
    cols += [f"f_{uid}_{lid}" for uid in user_ids for lid in link_ids]
    lines = [",".join(cols)]
    for value, eqset in rows:
        for ci, eq in enumerate(eqset.equilibria):
            cells = ["" if value is None else _fmt(value),
                     str(ci), str(eq.basin_count)]
            cells += [_fmt(v) for v in eq.raw_costs]
            cells += [_fmt(v) for v in eq.operating_costs]
            for ui in range(len(user_ids)):
                cells += [_fmt(v) for v in eq.profile.user_link_flows[ui]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _thread_cap() -> int:
    raw = os.environ.get("COOPROUTE_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"COOPROUTE_THREADS must be an integer, not {raw!r}") from None
    if n < 1:
        raise ConfigError("COOPROUTE_THREADS must be at least 1")
    return n


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ForkUnavailable(Exception):
    """No worker could be forked; the sweep runs sequentially instead."""


def _map_slice(fn, items):
    """``fn`` over ``items`` up to the first exception: the results so
    far and that exception, or None."""
    out = []
    try:
        for item in items:
            out.append(fn(item))
    except Exception as e:
        return out, e
    return out, None


def _fork_map(fn, items, workers):
    """``list(map(fn, items))`` over ``workers`` processes.

    Forked child k (0 < k < workers) solves items k, k + workers, ...
    and pipes back one pickle of its results and first exception; the
    parent solves items 0, workers, ... itself.  The exception of the
    lowest failing item is raised.  Children are killed and reaped
    whenever the parent leaves early, so none outlives the call."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return list(map(fn, items))
    if not hasattr(os, "fork"):
        raise _ForkUnavailable("os.fork is not available")
    children = {}   # worker -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            try:
                r, w = os.pipe()
            except OSError as e:
                raise _ForkUnavailable(e) from None
            try:
                pid = os.fork()
            except OSError as e:
                os.close(r)
                os.close(w)
                raise _ForkUnavailable(e) from None
            if pid == 0:
                status = 1
                try:
                    data = pickle.dumps(_map_slice(fn, items[k::workers]),
                                        pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    # no atexit handler or inherited buffer runs twice
                    os._exit(status)
            os.close(w)
            children[k] = (pid, os.fdopen(r, "rb"))
        slices = [_map_slice(fn, items[0::workers])]
        for k in range(1, workers):
            pid, fh = children[k]
            data = fh.read()
            fh.close()
            status = os.waitpid(pid, 0)[1]
            del children[k]
            try:
                slices.append(pickle.loads(data))
            except Exception:
                raise SolverError(
                    f"sweep worker {k} left without a result (exit status "
                    f"{os.waitstatus_to_exitcode(status)})") from None
    finally:
        for pid, fh in children.values():
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)
    failed = [(k + len(out) * workers, error)
              for k, (out, error) in enumerate(slices) if error is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [slices[i % workers][0][i // workers] for i in range(len(items))]


def _scenario_for_args(args, manifest) -> Scenario:
    """Resolve ``--preset`` or ``--config`` to a routing-game scenario.
    A document's base degrees are its weight matrix's diagonal; other
    degrees replace its matrix by the uniform one."""
    if args.preset is not None:
        sc = get_preset(args.preset)
        if sc.kind != "game":
            raise ConfigError(f"preset {sc.name!r} is solved with the "
                              f"'mixed' command")
        manifest["warnings"] += [f"assumed: {a}" for a in sc.assumed]
        return sc
    doc = _load_json(args.config, "game document")
    if _is_mixed_doc(doc):
        raise ConfigError("this document describes a mixed setup; use the "
                          "'mixed' command")
    net, users, coop = _game_from_doc(doc)
    base = tuple(coop.alpha_of(i) for i in range(len(users)))

    def build(alphas, param):
        return make_game(net, users, coop if alphas is base else alphas)

    return Scenario(name=args.config, description="game document",
                    kind="game", base_alphas=base, builder=build)


def _build_game_for_args(args, manifest):
    """Shared solve/verify setup: resolve a preset or document to a game."""
    sc = _scenario_for_args(args, manifest)
    alphas = _resolve_alphas(args.alpha, len(sc.base_alphas))
    game = sc.build_game(alphas=alphas, param=args.param)
    manifest["parameters"] = {
        "alphas": list(alphas if alphas is not None else sc.base_alphas),
        "param": args.param if args.param is not None else sc.default_param}
    return game


def _cmd_solve(args, manifest):
    t0 = time.perf_counter()
    game = _build_game_for_args(args, manifest)
    manifest["timings"]["parse"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    eqset = multistart_nash(game)
    manifest["timings"]["solve"] = time.perf_counter() - t1
    manifest["diagnostics"] = dict(eqset.diagnostics)
    user_ids = tuple(u.user_id for u in game.users)
    link_ids = tuple(lk.link_id for lk in game.net.links)
    return emit_csv([(None, eqset)], user_ids, link_ids)


def _cmd_sweep(args, manifest):
    t0 = time.perf_counter()
    # Each option belongs to one kind of sweep; the other kind refuses it.
    for flag, given, structural in (
            ("--alphas", args.alphas, False), ("--vary", args.vary, False),
            ("--values", args.values, True), ("--alpha", args.alpha, True)):
        if given is not None and structural != args.parameter:
            raise ConfigError(f"{flag} needs --parameter" if structural
                              else f"{flag} does not apply with --parameter")
    sc = _scenario_for_args(args, manifest)
    if args.parameter:
        if sc.param is None:
            raise ConfigError("--parameter needs a preset with a sweep "
                              "parameter")
        values = (_parse_value_list(args.values)
                  if args.values is not None else sc.param.values)
        alphas = _resolve_alphas(args.alpha, len(sc.base_alphas))
        if alphas is not None:
            sc = replace(sc, base_alphas=alphas)
        manifest["parameters"] = {"parameter": sc.param.name,
                                  "values": list(values)}
        sweep = functools.partial(parameter_sweep, sc, values)
    else:
        if not args.alphas:
            raise ConfigError("give --alphas for a cooperation sweep or "
                              "--parameter for a structural one")
        values = _parse_value_list(args.alphas)
        vary = args.vary or "all"
        manifest["parameters"] = {
            "parameter": "alpha" if vary == "all" else "alpha_first",
            "values": list(values), "vary": vary}
        sweep = functools.partial(alpha_sweep, sc, values, vary)
    manifest["timings"]["parse"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    workers = min(_thread_cap(), len(values), _usable_cpus())
    try:
        table = sweep(map=functools.partial(_fork_map, workers=workers))
    except _ForkUnavailable as e:
        manifest["warnings"].append(
            f"worker pool unavailable ({e}); ran sequentially")
        workers = 1
        table = sweep()
    manifest["workers"] = workers
    manifest["timings"]["solve"] = time.perf_counter() - t1
    eqsets = [row.equilibria for row in table.rows]
    manifest["diagnostics"] = {
        "rows": len(eqsets),
        "non_converged": sum(s.diagnostics["non_converged"]
                             for s in eqsets),
        "failed_starts": sum(s.diagnostics["failed_starts"]
                             for s in eqsets),
        **{key: sum(s.diagnostics[key] for s in eqsets)
           for key in ("sweeps", "jumps_kept", "jumps_rejected",
                       "responses", "responses_reused")},
        "clusters": sum(len(s.equilibria) for s in eqsets),
        "scan_coverage": dict(collections.Counter(
            s.diagnostics["scan_coverage"] for s in eqsets))}
    # Header metadata comes from one cheap rebuild, not from re-solving.
    game0 = sc.build_game()
    user_ids = tuple(u.user_id for u in game0.users)
    link_ids = tuple(lk.link_id for lk in game0.net.links)
    return emit_csv([(row.value, row.equilibria) for row in table.rows],
                    user_ids, link_ids)


def _cmd_mixed(args, manifest):
    t0 = time.perf_counter()
    if args.preset is not None:
        sc = get_preset(args.preset)
        if sc.kind != "mixed":
            raise ConfigError(f"preset {sc.name!r} is a routing game; use "
                              f"'solve'")
        manifest["warnings"] += [f"assumed: {a}" for a in sc.assumed]
        scenario = sc.build_mixed(alpha=args.alpha)
    else:
        doc = _load_json(args.config, "mixed document")
        if not _is_mixed_doc(doc):
            raise ConfigError("this document is not a mixed setup; use "
                              "'solve'")
        scenario = _mixed_from_doc(doc)
        if args.alpha is not None:
            scenario = replace(scenario, alpha=float(args.alpha))
    manifest["parameters"] = {"alpha": scenario.alpha}
    manifest["timings"]["parse"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    closed = mixed_closed_form(scenario)
    numeric = mixed_numeric(scenario)
    manifest["timings"]["solve"] = time.perf_counter() - t1
    manifest["diagnostics"] = dict(numeric.diagnostics)
    manifest["diagnostics"]["continuum"] = closed.continuum
    for note in closed.notes:
        manifest["warnings"].append(f"closed form: {note}")
    lines = ["solver,case,kind,group_split,mass_split,group_cost,"
             "mass_cost,operating_cost,verified,violation,basin_count"]
    for solver, points in (("closed-form", closed.solutions),
                           ("numeric", numeric.points)):
        for pt in points:
            lines.append(",".join([
                solver, pt.case, pt.kind, _fmt(pt.group_split),
                _fmt(pt.mass_split), _fmt(pt.group_cost),
                _fmt(pt.mass_cost), _fmt(pt.operating_cost),
                str(pt.verified).lower(), _fmt(pt.violation),
                "" if pt.basin_count is None else str(pt.basin_count)]))
    return "\n".join(lines) + "\n"


def _cmd_verify(args, manifest):
    t0 = time.perf_counter()
    game = _build_game_for_args(args, manifest)
    doc = _load_json(args.profile, "flow profile")
    _check_keys(doc, {"path_flows"}, set(), "flow profile")
    raw = doc["path_flows"]
    if (not isinstance(raw, list)
            or any(not isinstance(row, list) for row in raw)):
        raise ConfigError("'path_flows' must be a list of per-user lists")
    flows = [[_number(v, "path flow") for v in row] for row in raw]
    profile = assemble_profile(game.net, game.paths, flows, game.demands)
    manifest["timings"]["parse"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    check = verify_nash(game, profile)
    manifest["timings"]["solve"] = time.perf_counter() - t1
    result = {"ok": check.ok,
              "max_violation": check.max_violation,
              "kkt_multipliers": list(check.kkt_multipliers),
              "saturated_links": list(check.saturated)}
    return _dumps(result, indent=2) + "\n"


def _cmd_presets(args, manifest):
    lines = []
    for name, sc in PRESETS.items():
        label = f"{name} (variant)" if sc.variant else name
        lines.append(f"{label:<24} {sc.description}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cooproute",
        description="Equilibria of routing games with partially "
                    "cooperative users")
    parser.add_argument("--version", action="version",
                        version=f"cooproute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, config_help):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="name of a built-in setup")
        group.add_argument("--config", help=config_help)

    def add_output(p):
        p.add_argument("--out", help="write results here instead of stdout")
        p.add_argument("--manifest",
                       help="write the run manifest here instead of stderr")

    p = sub.add_parser("solve", help="find the equilibria of one game")
    add_source(p, "JSON game document")
    p.add_argument("--alpha", type=float, nargs="+",
                   help="cooperation degrees: one shared value or one per "
                        "user")
    p.add_argument("--param", type=float,
                   help="structural parameter for presets that take one")
    add_output(p)

    p = sub.add_parser("sweep", help="re-solve a game along a parameter")
    add_source(p, "JSON game document")
    p.add_argument("--alphas",
                   help="cooperation grid: 'a,b,c' or 'start:stop:step'")
    p.add_argument("--vary", choices=("all", "first"),
                   help="move every user's degree (all, the default) or "
                        "only the first one")
    p.add_argument("--parameter", action="store_true",
                   help="sweep the preset's structural parameter instead")
    p.add_argument("--values",
                   help="override the structural grid: 'a,b,c' or "
                        "'start:stop:step'")
    p.add_argument("--alpha", type=float, nargs="+",
                   help="fixed cooperation degrees for a structural sweep")
    add_output(p)

    p = sub.add_parser("mixed",
                       help="solve a coordinated flow beside a selfish mass")
    add_source(p, "JSON mixed document")
    p.add_argument("--alpha", type=float,
                   help="cooperation degree of the coordinated flow")
    add_output(p)

    p = sub.add_parser("verify", help="check a flow profile for equilibrium")
    add_source(p, "JSON game document")
    p.add_argument("--alpha", type=float, nargs="+",
                   help="cooperation degrees: one shared value or one per "
                        "user")
    p.add_argument("--param", type=float,
                   help="structural parameter for presets that take one")
    p.add_argument("--profile", required=True,
                   help="JSON file with per-user path flows")
    add_output(p)

    p = sub.add_parser("presets", help="list the built-in setups")

    return parser


_COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "mixed": _cmd_mixed,
             "verify": _cmd_verify, "presets": _cmd_presets}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = {"tool": f"cooproute {__version__}",
                "command": args.command,
                "preset": getattr(args, "preset", None),
                "parameters": {},
                "warnings": [],
                "diagnostics": {},
                "timings": {}}
    t0 = time.perf_counter()
    try:
        output = _COMMANDS[args.command](args, manifest)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        if e.detail:
            print(_dumps(e.detail), file=sys.stderr)
        return 3
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        if e.diagnostics:
            print(_dumps(e.diagnostics), file=sys.stderr)
        return 4
    manifest["timings"]["total"] = time.perf_counter() - t0
    manifest_text = _dumps(manifest, indent=2) + "\n"
    for text, path, stream in (
            (output, getattr(args, "out", None), sys.stdout),
            (manifest_text, getattr(args, "manifest", None), sys.stderr)):
        if not path:
            stream.write(text)
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {path!r}: {e}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
