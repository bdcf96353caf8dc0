"""voidtherm benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports ``voidtherm`` from ``src/``
of that checkout.  Workloads: ``pulse1d-session``, ``plate2d-verify``,
``mms-converge`` (see README.md), or ``all``, which runs each workload in a
fresh process of its own and prints one combined result.

One workload runs in one process, one operation at a time, in whole
rounds, for about ``--seconds`` seconds; BLAS is fixed to one thread.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

- ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median program
  time of a round, after one warm-up round), ``setup_s`` (median of several
  set-ups, each in a fresh interpreter) and ``peak_rss_mib``.  Both times
  are scaled to a nominal host speed (see hostspeed.py); the raw times are
  printed on the ``#`` lines above the result.
- ``--trace 1`` alternates untraced and traced rounds and reports the
  per-layer metrics from the traced rounds, with ``trace.overhead_s``; the
  spans go to ``bench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
SETUP_PROBES = 2          # extra set-ups, each in a fresh interpreter
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "voidtherm.import_s": "s",
    "cli.simulate_s": "s",
    "cli.verify_decay_s": "s",
    "cli.sweep_lambda_s": "s",
    "cli.selftest_s": "s",
    "solver.run_s": "s",
    "solver.node_steps": "count",
    "solver.node_steps_per_s": "1/s",
    "solver.sampling_ms_per_sample": "ms",
    "solver.snapshot_mib": "MiB",
    "solver.kinematics_ns_per_node": "ns",
    "solver.field_response_ns_per_node": "ns",
    "solver.write_trajectory_csv_s": "s",
    "material.spectrum_us": "us",
    "constitutive.response_us": "us",
    "mms.manufactured_scenario_s": "s",
    "mms.source_ns_per_node": "ns",
    "measures.compute_measure_s": "s",
    "measures.compute_measure_calls": "count",
    "measures.check_energy_identity_s": "s",
    "measures.check_diff_inequality_s": "s",
    "measures.check_decay_s": "s",
    "measures.write_measure_csv_s": "s",
    "trace.overhead_s": "s",
}
WORKLOAD_NAMES = ("pulse1d-session", "plate2d-verify", "mms-converge")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the set-up time and exit")
    return p.parse_args(argv)


def info(text):
    print(f"# {text}", flush=True)


def fail(text):
    print(f"bench: {text}", file=sys.stderr)
    return 2


def import_program(tracer):
    """Import voidtherm from this checkout; returns seconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    with tracer.span("voidtherm.import"):
        import voidtherm  # noqa: F401  (timed: this is most of the set-up)
        import voidtherm.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(voidtherm.__file__))
    if where != os.path.join(SRC, "voidtherm"):
        raise ImportError(f"voidtherm imported from {where}, not from {SRC}")
    return elapsed


def setup_probes(args):
    """(set-up seconds, reference seconds) of SETUP_PROBES fresh
    interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["reference_s"]))
    return times


def traced_targets(workload):
    """Public functions that the CLI commands and the workloads call, with
    the span each gets in a traced round."""
    from voidtherm import cli, measures, solver

    targets = [(cli, "run", "solver.run", workload.record_run),
               (solver, "run", "solver.run", workload.record_run),
               (cli, "write_trajectory_csv", "solver.write_trajectory_csv", None)]
    for fn in ("compute_measure", "check_energy_identity", "check_diff_inequality",
               "check_decay", "write_measure_csv"):
        targets.append((measures, fn, f"measures.{fn}", None))
    return targets


def layer_metrics(tracer, workload, traced, untraced_s, traced_s, import_s):
    n = len(traced)
    per_round = {name: tracer.total(name, traced) / n for name in (
        "cli.simulate", "cli.verify_decay", "cli.sweep_lambda", "cli.selftest",
        "solver.run", "solver.write_trajectory_csv", "measures.compute_measure",
        "measures.check_energy_identity", "measures.check_diff_inequality",
        "measures.check_decay", "measures.write_measure_csv")}
    runs = tracer.select("solver.run", traced)
    node_steps = sum(s["node_steps"] for s in runs) / n
    out = {f"{name}_s": value for name, value in per_round.items()}
    out.update({
        "voidtherm.import_s": import_s,
        "solver.node_steps": node_steps,
        "solver.node_steps_per_s": (node_steps / per_round["solver.run"]
                                    if per_round["solver.run"] > 0 else 0.0),
        "solver.snapshot_mib": max((s["snapshot_bytes"] for s in runs), default=0) / 2 ** 20,
        "mms.manufactured_scenario_s": float(tracer.total("mms.manufactured_scenario")),
        "measures.compute_measure_calls":
            len(tracer.select("measures.compute_measure", traced)) / n,
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    })
    from workloads import calibrations
    out.update(calibrations(workload))
    return out


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "voidtherm", "__init__.py")):
        return fail(f"no voidtherm package under {SRC}; run from the root of a checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    from tracing import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    start = time.perf_counter()
    import_s = import_program(tracer)
    from workloads import WORKLOADS

    workdir = os.path.join(BENCH, "out", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](ROOT, workdir, args.seed, tracer)
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        setup_s = time.perf_counter() - start
        # Set-up is interpreter-bound for every workload, so it is scaled by
        # the small-array kernel.  numpy comes in with the set-up, so the
        # kernel runs after it: twice, standing in for "before" and "after".
        import hostspeed
        setup_reference = hostspeed.Reference("small-arrays")
        setup = (setup_s, 0.5 * (setup_reference.sample() + setup_reference.sample()))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0], "reference_s": setup[1]}))
            return 0
        return measure(args, tracer, workload, import_s, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tracer, workload, import_s, setup):
    import numpy as np
    import sympy

    import hostspeed
    from tracing import format_layer_table
    from workloads import Round

    info(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
         f"python {sys.version.split()[0]}  numpy {np.__version__}  sympy {sympy.__version__}  "
         f"blas_threads {BLAS_THREADS}  nproc {len(os.sched_getaffinity(0))}")
    workload.prepare_checks()
    setups = [setup] + ([] if args.trace else setup_probes(args))

    # Round 0 warms up: the first round pays one-off costs (heap growth, lazy
    # imports inside the CLI) that later rounds do not, so timing it with the
    # others would make wall_s depend on how many rounds fit in the run.  Its
    # operations are checked and counted like every other round's.
    reference = hostspeed.Reference(workload.regime)
    rounds, kinds, times = [], [], []
    loop_start = time.perf_counter()
    while True:
        if not rounds:
            kind = "warmup"
        else:
            kind = "traced" if args.trace and len(rounds) % 2 == 0 else "plain"
        rnd = Round(tracer, reference)
        tracer.round_id = len(rounds)
        tracer.enabled = kind == "traced"
        round_start = time.perf_counter()
        if kind == "traced":
            with tracer.wrapping(traced_targets(workload)), tracer.span("round"):
                workload.run_round(rnd)
        else:
            workload.run_round(rnd)
        times.append(time.perf_counter() - round_start)
        tracer.enabled = False
        rounds.append(rnd)
        kinds.append(kind)
        elapsed = time.perf_counter() - loop_start
        enough = len(rounds) >= (3 if args.trace else 2)
        if enough and elapsed + statistics.median(times) > args.seconds:
            break
    tracer.round_id = None

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = [p for r in rounds for p in r.wrong]
    for line in [p for r in rounds for p in r.errors] + wrong:
        print(f"FAILED {line}", file=sys.stderr)
    controls = checks_controls(workload, args.seed)
    for line in controls:
        print(line, file=sys.stderr)
    correct = not wrong and not controls

    program = {kind: [r.scaled_s for r, k in zip(rounds, kinds) if k == kind]
               for kind in ("warmup", "plain", "traced")}
    for label, key in (("scaled", "scaled_s"), ("raw", "program_s")):
        info(f"round program times, {label} (s): " + " ".join(
            f"{getattr(r, key):.4f}{'' if k == 'plain' else k[0].upper()}"
            for r, k in zip(rounds, kinds)) + "   (W warm-up, T traced)")
    info("round logs [kind, reference, call, reference, call, ...] (s): " + json.dumps(
        [[k[0]] + [round(v, 6) for v in r.log] for r, k in zip(rounds, kinds)]))
    scaled_setups = [hostspeed.scaled(t, ref, ref) for t, ref in setups]
    info("set-up times, scaled (s): " + " ".join(f"{t:.4f}" for t in scaled_setups))
    info("set-up times, raw (s): " + " ".join(f"{t:.4f}" for t, _ in setups))
    if hasattr(workload, "theta_ratios"):
        info("theta error halving ratios (recorded, not gated): " + json.dumps(
            {k: round(v, 4) for k, v in workload.theta_ratios().items()}))

    if args.trace:
        traced_ids = [i for i, k in enumerate(kinds) if k == "traced"]
        values = layer_metrics(tracer, workload, traced_ids, untraced_s=program["plain"],
                               traced_s=program["traced"], import_s=import_s)
        print(format_layer_table(tracer.layer_table([None]), 1, "set-up, once"))
        print(format_layer_table(tracer.layer_table(traced_ids), len(traced_ids),
                                 "per traced round"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        os.makedirs(os.path.join(BENCH, "traces"), exist_ok=True)
        path = os.path.join(BENCH, "traces",
                            f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "traced_rounds": traced_ids, "layer_metrics": values,
                           "layer_table": tracer.layer_table(traced_ids)})
        info(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = {"wall_s": statistics.median(program["plain"]),
                  "setup_s": statistics.median(scaled_setups),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def checks_controls(workload, seed):
    import checks

    if not workload.samples:
        return ["negative control: no checked output to corrupt"]
    return checks.negative_controls(workload.samples, seed)


def run_all(args):
    """Each workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=4 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"[{name}] {metric} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        if args.setup_probe:
            return fail("--setup-probe needs one workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
