"""The three benchmark workloads.

A workload is driven in rounds.  Every round makes the same operations in
the same order, one at a time (closed loop); an operation is one public
program call, timed alone, and is followed by the benchmark's check of its
output, which is not timed.  An operation fails when the call raises, the
command exits non-zero, or its output fails a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import checks
import hostspeed
import inputs


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class Round:
    """Operation bookkeeping of one round."""

    def __init__(self, tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.program_s = 0.0     # raw seconds in program calls
        self.scaled_s = 0.0      # the same, scaled to the nominal host speed
        self._ref = reference.sample()
        self.log = [self._ref]   # reference, call, reference, call, ... (raw seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong = []      # outputs that failed a check
        self.errors = []     # calls that raised

    def op(self, name, call, check, span=True):
        """Time ``call()``, then check its result; returns the result, or
        None when the call raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with (self.tracer.span(name) if span else contextlib.nullcontext()):
                out = call()
        except (Exception, SystemExit) as exc:  # a program fault fails the operation
            self._account(time.perf_counter() - start)
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self._account(time.perf_counter() - start)
        with self.tracer.span("bench.check"):
            problems = check(out)
        if problems:
            self.failed += 1
            self.wrong.extend(f"{name}: {p}" for p in problems)
        return out

    def _account(self, elapsed):
        ref = self.reference.sample()
        self.program_s += elapsed
        self.scaled_s += hostspeed.scaled(elapsed, self._ref, ref)
        self._ref = ref
        self.log += [elapsed, ref]


class Workload:
    """Common context: repository root, a private output directory, the
    seed, the tracer, and the largest solver run seen in a traced round."""

    name = ""
    regime = None   # the hostspeed kernel that scales this workload's times

    def __init__(self, root, workdir, seed, tracer):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.samples = {}       # latest checked outputs, for the negative controls
        self.captured = None    # (scenario, n_samples, final state) of the largest run
        self._captured_key = None

    # set-up (timed as part of setup_s) and check preparation (not timed)
    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def prepare_checks(self):
        pass

    def run_round(self, rnd):
        raise NotImplementedError

    # helpers ------------------------------------------------------------

    def cli(self, argv):
        from voidtherm import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    def outdir(self, name):
        """An emptied output directory, so a check never reads the files of
        an earlier round."""
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def record_run(self, rec, args, kwargs, traj):
        """Counts for a ``solver.run`` span; keeps the largest run's final
        state for the per-node timings of the traced run."""
        scenario = args[0]
        nodes = math.prod(scenario.grid.counts)
        samples = len(traj.times)
        rec["node_steps"] = int(traj.log["nsteps"]) * nodes
        rec["samples"] = samples
        rec["snapshot_bytes"] = samples * (2 * scenario.grid.dim + 3) * nodes * 8
        key = (rec["node_steps"], samples)
        if self._captured_key is None or key > self._captured_key:
            n_samples = kwargs.get("n_samples", args[1] if len(args) > 1 else None)
            self._captured_key = key
            self.captured = (scenario, n_samples, traj.states[-1])

    def verify_decay_op(self, rnd, scenario_path):
        out = self.outdir("verify")

        def check(result):
            problems = checks.verdict_problems(result, expect_pass=True)
            if problems:
                return problems
            table, summary = checks.read_measures(out)
            self.samples["measures"] = (table, summary)
            self.samples["verdict"] = result
            return checks.measures_problems(table, summary)

        rnd.op("cli.verify_decay",
               lambda: self.cli(["verify-decay", "--scenario", scenario_path, "--out", out,
                                 "--seed", str(self.seed)]),
               check)


class Pulse1dSession(Workload):
    """The CLI session on the 1D reference pulse."""

    name = "pulse1d-session"
    regime = "small-arrays"
    lambdas = ("2", "4", "8", "16", "32")

    def setup(self):
        super().setup()
        self.scenario = os.path.join(self.root, "demos", "inputs", "pulse.scn")
        self.material = os.path.join(self.root, "demos", "inputs", "porous_ref.mat")

    def prepare_checks(self):
        self.values = checks.read_material_values(self.material)

    def run_round(self, rnd):
        def check_material(result):
            self.samples["material"] = (result.stdout, self.values)
            return (checks.verdict_problems(result, expect_pass=False)
                    or checks.material_problems(result.stdout, self.values))

        def check_spectrum(result):
            self.samples["spectrum"] = (result.stdout, self.values)
            return (checks.verdict_problems(result, expect_pass=False)
                    or checks.spectrum_problems(result.stdout, self.values))

        rnd.op("cli.check_material",
               lambda: self.cli(["check-material", "--material", self.material]), check_material)
        rnd.op("cli.spectrum",
               lambda: self.cli(["spectrum", "--material", self.material]), check_spectrum)

        sim = self.outdir("simulate")

        def check_simulate(result):
            problems = checks.verdict_problems(result, expect_pass=False)
            if problems:
                return problems
            with open(os.path.join(sim, "run_log.json")) as fh:
                run_log = json.load(fh)
            traj = checks.read_trajectory(os.path.join(sim, "trajectory.csv"))
            self.samples["trajectory"] = (traj, run_log)
            return checks.trajectory_problems(traj, run_log)

        rnd.op("cli.simulate",
               lambda: self.cli(["simulate", "--scenario", self.scenario, "--out", sim]),
               check_simulate)

        self.verify_decay_op(rnd, self.scenario)

        sweep = self.outdir("sweep")

        def check_sweep(result):
            problems = checks.verdict_problems(result, expect_pass=False)
            if problems:
                return problems
            rows = checks.read_sweep(os.path.join(sweep, "lambda_sweep.csv"))
            self.samples["sweep"] = (rows, self.lambdas)
            return checks.sweep_problems(rows, self.lambdas)

        rnd.op("cli.sweep_lambda",
               lambda: self.cli(["sweep-lambda", "--material", self.material,
                                 "--lambda", ",".join(self.lambdas),
                                 "--scenario", self.scenario, "--out", sweep]),
               check_sweep)

        def check_selftest(result):
            problems = checks.verdict_problems(result, expect_pass=True)
            if f"(seed {self.seed})" not in result.stdout:
                problems.append("selftest did not run the requested seed")
            return problems

        rnd.op("cli.selftest", lambda: self.cli(["selftest", "--seed", str(self.seed)]),
               check_selftest)


class Plate2dVerify(Workload):
    """``verify-decay`` on the 2D plate with flux lateral faces."""

    name = "plate2d-verify"
    regime = None   # reported raw; see hostspeed.py

    def run_round(self, rnd):
        self.verify_decay_op(rnd, inputs.PLATE_SCENARIO)


class MmsConverge(Workload):
    """Manufactured-solution convergence in 2D and 3D."""

    name = "mms-converge"
    regime = "grid-functions"

    def setup(self):
        super().setup()
        from voidtherm import mms, presets, solver

        ladders = {2: (presets.mms_profiles_2d(), presets.reference_material_2d()),
                   3: (inputs.mms_profiles_3d(), inputs.reference_material_3d())}
        self.profiles = {d: prof for d, (prof, _) in ladders.items()}
        self.cases = []
        for label, dim, nodes in inputs.MMS_CASES:
            profiles, material = ladders[dim]
            grid = solver.Grid(extents=(1.0,) * dim, counts=(nodes,) * dim)
            with self.tracer.span("mms.manufactured_scenario"):
                scenario, _ = mms.manufactured_scenario(
                    *profiles, grid, material, dt=inputs.MMS_DT_PER_H * grid.spacing[0],
                    T=inputs.MMS_T)
            self.cases.append((label, dim, nodes, scenario))

    def prepare_checks(self):
        self.exact = {d: checks.ExactFields(prof, d) for d, prof in self.profiles.items()}
        self.theta_errors = {}

    def run_round(self, rnd):
        from voidtherm import solver

        coarse = {}
        for label, dim, nodes, scenario in self.cases:
            def call(scenario=scenario):
                return solver.run(scenario, n_samples=3).states[-1]

            def check(state, label=label, dim=dim, nodes=nodes):
                if not math.isclose(state.t, inputs.MMS_T, rel_tol=1e-12):
                    return [f"final sample at t = {state.t!r}, not T"]
                errors = self.exact[dim].errors(state, nodes, dim)
                self.theta_errors[label] = errors["theta"]
                problems = checks.mms_problems(errors, coarse.get(dim))
                if dim in coarse:
                    self.samples["mms"] = (errors, coarse[dim])
                coarse[dim] = errors
                return problems

            rnd.op(f"mms.{label}", call, check, span=False)

    def theta_ratios(self):
        """Halving ratios of the (ungated) temperature error."""
        out = {}
        for (a, da, _, _), (b, db, _, _) in zip(self.cases, self.cases[1:]):
            if da == db and a in self.theta_errors and b in self.theta_errors:
                out[f"{a}->{b}"] = self.theta_errors[a] / self.theta_errors[b]
        return out


WORKLOADS = {cls.name: cls for cls in (Pulse1dSession, Plate2dVerify, MmsConverge)}


# ---------------------------------------------------------------------------
# Traced-run calibrations


SAMPLING_PAIRS = 3


def per_call_s(fn, min_time=0.05, repeats=5):
    """Median seconds per call of ``fn`` over ``repeats`` timed batches."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= min_time:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return float(np.median(times))


def calibrations(workload):
    """Per-node and per-call timings of single layers on the workload's own
    largest run, and the per-sample cost of ``run``."""
    from voidtherm import constitutive, material, solver

    scenario, n_samples, state = workload.captured
    mat = scenario.material
    nodes = math.prod(scenario.grid.counts)
    out = {}

    e, gamma, kappa = solver.kinematics(state, scenario)
    out["solver.kinematics_ns_per_node"] = (
        per_call_s(lambda: solver.kinematics(state, scenario)) / nodes * 1e9)
    out["solver.field_response_ns_per_node"] = (
        per_call_s(lambda: solver.field_response(e, gamma, kappa, state.phi, state.theta, mat))
        / nodes * 1e9)
    out["material.spectrum_us"] = per_call_s(lambda: material.spectrum(mat)) * 1e6

    mid = tuple(n // 2 for n in scenario.grid.counts)
    point = constitutive.PointState(
        e=e[(slice(None), slice(None)) + mid], gamma=gamma[(slice(None),) + mid],
        kappa=kappa[(slice(None),) + mid], phi=state.phi[mid], phidot=state.phidot[mid],
        theta=state.theta[mid])
    out["constitutive.response_us"] = per_call_s(lambda: constitutive.response(point, mat)) * 1e6

    if scenario.sources:
        t = 0.5 * scenario.T
        out["mms.source_ns_per_node"] = per_call_s(
            lambda: [scenario.source(key, t) for key in ("f", "ell", "r")]) / nodes * 1e9
    else:
        out["mms.source_ns_per_node"] = 0.0

    # alternate the order of the two runs; the median difference resists drift
    diffs = []
    for pair in range(SAMPLING_PAIRS):
        timed = {}
        for n in ((n_samples, 2) if pair % 2 == 0 else (2, n_samples)):
            start = time.perf_counter()
            traj = solver.run(scenario, n_samples=n)
            timed[n] = (time.perf_counter() - start, len(traj.times))
            del traj
        (t_full, s_full), (t_two, s_two) = timed[n_samples], timed[2]
        diffs.append((t_full - t_two) / (s_full - s_two) * 1e3 if s_full > s_two else 0.0)
    out["solver.sampling_ms_per_sample"] = float(np.median(diffs))
    return out
