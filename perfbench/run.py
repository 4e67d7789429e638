"""Benchmark of cooproute: four workloads, checked outputs, and metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp1-alpha --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` a run measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it wraps the calls into cooproute's layers and
reports the per-layer metrics (see ``tracer.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7

sys.path.insert(0, BENCH)
from hostclock import HostClock  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("solve_p50_ms", "ms"), ("solve_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("costs.value_calls", "count"), ("costs.derivative_calls", "count"),
    ("search.argmin_calls", "count"), ("search.argmin_evals", "count"),
    ("search.argmin_s", "s"),
    ("search.bisect_calls", "count"), ("search.bisect_evals", "count"),
    ("search.bisect_s", "s"),
    ("nash.multistart_calls", "count"), ("nash.multistart_s", "s"),
    ("nash.multistart_self_s", "s"),
    ("nash.dynamics_calls", "count"), ("nash.dynamics_sweeps", "count"),
    ("nash.dynamics_nonconverged", "count"), ("nash.dynamics_s", "s"),
    ("nash.verify_calls", "count"), ("nash.verify_rejected", "count"),
    ("nash.verify_s", "s"),
    ("nash.scan_candidates", "count"), ("nash.scan_added", "count"),
    ("nash.clusters", "count"), ("nash.unverified_clusters", "count"),
    ("netmodel.assemble_calls", "count"), ("netmodel.assemble_s", "s"),
    ("netmodel.make_game_calls", "count"), ("netmodel.make_game_s", "s"),
    ("experiments.sweep_s", "s"), ("experiments.sweep_self_s", "s"),
    ("experiments.detect_s", "s"),
    ("mixed.closed_form_s", "s"), ("mixed.closed_form_self_s", "s"),
    ("mixed.numeric_s", "s"), ("mixed.numeric_self_s", "s"),
    ("mixed.wardrop_calls", "count"), ("mixed.wardrop_s", "s"),
    ("mixed.verify_calls", "count"), ("mixed.verify_s", "s"),
    ("mixed.nonconverged_starts", "count"), ("mixed.scan_added", "count"),
    ("cli.parse_s", "s"), ("cli.solve_s", "s"), ("cli.main_self_s", "s"),
    ("cli.emit_csv_s", "s"), ("cli.csv_bytes", "bytes"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans_kept", "count"),
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import cooproute from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cooproute", "__init__.py")):
        fail(f"no cooproute sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import cooproute
    where = os.path.dirname(os.path.abspath(cooproute.__file__))
    if where != os.path.join(SRC, "cooproute"):
        fail(f"imported cooproute from {where}, not from {SRC}")


def quantile(values, q):
    """Linear-interpolation quantile (the "inclusive" method)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(workload):
    """Median time, scaled to nominal host speed, of fresh processes that
    start Python, import cooproute and build the workload's inputs."""
    cmd = [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload]
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        proc = clock.timed(subprocess.run, cmd, cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr[-2000:]}")
    return statistics.median(clock.games)


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def tally(workload, outputs, trace):
    """Check each distinct round output once; count every round's ops."""
    checked = {}
    attempted = failed = unexpected = 0
    shown = []
    for out in outputs:
        key = workload.fingerprint(out)
        if key not in checked:
            checked[key] = workload.check(out, trace)
        for oc in checked[key]:
            attempted += 1
            if oc.failed:
                failed += 1
                if not oc.known:
                    unexpected += 1
                if len(shown) < 12:
                    shown.append(("known fault" if oc.known else "FAILED",
                                  oc.problems[0]))
    for kind, msg in shown:
        print(f"{workload.name}: {kind}: {msg}")
    if len(checked) > 1:
        print(f"{workload.name}: {len(checked)} distinct outputs across "
              f"{len(outputs)} rounds")
    return attempted, failed, unexpected == 0


def run_timed(workload, seconds):
    setup_s = measure_setup(workload.name)
    workload.setup()
    clock = HostClock()
    outputs, walls, raw_walls, cpus, games = [], [], [], [], []
    start = time.perf_counter()
    while True:
        scaled0 = clock.tick()
        raw0, ref0, cpu0 = clock.raw, clock.reference_cpu, cpu_seconds()
        first_game = len(clock.games)
        outputs.append(workload.run_round(clock))
        games.append(clock.games[first_game:])
        wall = clock.tick() - scaled0
        raw = clock.raw - raw0
        cpu = cpu_seconds() - cpu0 - (clock.reference_cpu - ref0)
        walls.append(wall)
        raw_walls.append(raw)
        cpus.append(cpu * wall / raw)
        if time.perf_counter() - start >= seconds:
            break
    who = (resource.RUSAGE_SELF if workload.in_process
           else resource.RUSAGE_CHILDREN)
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted, failed, correct = tally(workload, outputs, trace=False)
    # Every round solves the same games in the same order: take each
    # game's median time over the rounds.
    per_game = [statistics.median(times) for times in zip(*games)]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "solve_p50_ms": 1000.0 * quantile(per_game, 0.5),
        "solve_p90_ms": 1000.0 * quantile(per_game, 0.9),
        "peak_rss_mb": peak_mb,
    }
    print(f"{workload.name}: {len(walls)} rounds of {len(per_game)} games; "
          f"unscaled wall {statistics.median(raw_walls)!r} s")
    return correct, attempted, failed, metrics, END_TO_END


def run_traced(workload):
    import tracer as tracing

    # Both passes time set-up plus one round, after a first set-up that
    # has done the imports.
    workload.setup()
    t0 = time.perf_counter()
    workload.setup()
    workload.trace_round()
    untraced = time.perf_counter() - t0

    tracer = tracing.Tracer()
    bump = tracer.bump

    def on_result(name, args, result):
        if name == "nash.multistart":
            d = result.diagnostics
            bump("nash.scan_candidates", d["scan_candidates"])
            bump("nash.scan_added", d["scan_added"])
            bump("nash.clusters", len(result.equilibria))
            bump("nash.unverified_clusters",
                 sum(not eq.verified for eq in result.equilibria))
        elif name == "nash.dynamics":
            bump("nash.dynamics_sweeps", result.sweeps)
            bump("nash.dynamics_nonconverged", int(not result.converged))
        elif name == "nash.verify":
            bump("nash.verify_rejected", int(not result.ok))
        elif name == "mixed.numeric":
            bump("mixed.nonconverged_starts",
                 result.diagnostics["non_converged"])
            bump("mixed.scan_added", result.diagnostics["scan_added"])
        elif name == "cli.emit_csv":
            bump("cli.csv_bytes", len(result.encode()))

    tracer.install(on_result)
    try:
        t0 = time.perf_counter()
        workload.setup()
        output = workload.trace_round()
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"{workload.name}.spans.json"))
    attempted, failed, correct = tally(workload, [output], trace=True)

    c = tracer.counters
    sec, own, calls = tracer.seconds, tracer.self_seconds, tracer.calls
    manifest = workload.manifest_timings(output)
    metrics = {
        "costs.value_calls": c.get("costs.value_calls", 0),
        "costs.derivative_calls": c.get("costs.derivative_calls", 0),
        "search.argmin_calls": calls("search.argmin"),
        "search.argmin_evals": c.get("search.argmin_evals", 0),
        "search.argmin_s": sec("search.argmin"),
        "search.bisect_calls": calls("search.bisect"),
        "search.bisect_evals": c.get("search.bisect_evals", 0),
        "search.bisect_s": sec("search.bisect"),
        "nash.multistart_calls": calls("nash.multistart"),
        "nash.multistart_s": sec("nash.multistart"),
        "nash.multistart_self_s": own("nash.multistart"),
        "nash.dynamics_calls": calls("nash.dynamics"),
        "nash.dynamics_sweeps": c.get("nash.dynamics_sweeps", 0),
        "nash.dynamics_nonconverged": c.get("nash.dynamics_nonconverged", 0),
        "nash.dynamics_s": sec("nash.dynamics"),
        "nash.verify_calls": calls("nash.verify"),
        "nash.verify_rejected": c.get("nash.verify_rejected", 0),
        "nash.verify_s": sec("nash.verify"),
        "nash.scan_candidates": c.get("nash.scan_candidates", 0),
        "nash.scan_added": c.get("nash.scan_added", 0),
        "nash.clusters": c.get("nash.clusters", 0),
        "nash.unverified_clusters": c.get("nash.unverified_clusters", 0),
        "netmodel.assemble_calls": calls("netmodel.assemble"),
        "netmodel.assemble_s": sec("netmodel.assemble"),
        "netmodel.make_game_calls": calls("netmodel.make_game"),
        "netmodel.make_game_s": sec("netmodel.make_game"),
        "experiments.sweep_s": (sec("experiments.alpha_sweep")
                                + sec("experiments.parameter_sweep")),
        "experiments.sweep_self_s": (own("experiments.alpha_sweep")
                                     + own("experiments.parameter_sweep")),
        "experiments.detect_s": (sec("experiments.detect_cooperation")
                                 + sec("experiments.detect_braess")),
        "mixed.closed_form_s": sec("mixed.closed_form"),
        "mixed.closed_form_self_s": own("mixed.closed_form"),
        "mixed.numeric_s": sec("mixed.numeric"),
        "mixed.numeric_self_s": own("mixed.numeric"),
        "mixed.wardrop_calls": calls("mixed.wardrop"),
        "mixed.wardrop_s": sec("mixed.wardrop"),
        "mixed.verify_calls": calls("mixed.verify"),
        "mixed.verify_s": sec("mixed.verify"),
        "mixed.nonconverged_starts": c.get("mixed.nonconverged_starts", 0),
        "mixed.scan_added": c.get("mixed.scan_added", 0),
        "cli.parse_s": manifest.get("parse", 0.0),
        "cli.solve_s": manifest.get("solve", 0.0),
        "cli.main_self_s": own("cli.main"),
        "cli.emit_csv_s": sec("cli.emit_csv"),
        "cli.csv_bytes": c.get("cli.csv_bytes", 0),
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.spans_kept": len(tracer.rec_name),
    }
    return correct, attempted, failed, metrics, PER_LAYER


def run_all(args):
    """Run every workload in its own process and print a table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        sys.stdout.write("\n".join(lines[:-1]) + ("\n" if lines[1:] else ""))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
        print(f"== {name}: attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}")
        for key, val in res["metrics"].items():
            print(f"   {key:<28} {val['value']:>16.6g} {val['unit']}")
    print(json.dumps(total))


WORKLOAD_NAMES = ("exp1-alpha", "braess-cli", "mixed-audit", "parallel-3x3")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the mixed-audit scenarios")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole rounds for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    import workloads
    if args.workload == "all":
        run_all(args)
        return
    os.makedirs(OUT, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](ROOT, OUT, args.seed)
    if args.trace:
        result = run_traced(work)
    else:
        result = run_timed(work, args.seconds)
    correct, attempted, failed, metrics, spec = result
    units = dict(spec)
    for name, _ in spec:
        print(f"{args.workload}: {name} = {metrics[name]!r} {units[name]}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}, "
          f"correct {correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in spec}}))


if __name__ == "__main__":
    main()
