"""Command-line front end: material admissibility, simulation, and the
decay certificate of :func:`voidtherm.measures.certify`, rendered here.

Exit codes: 0 pass, 1 invalid input, 2 infeasible window, 3 verification
failure; errors map to their code in one table, :data:`EXIT_TABLE`, read
by :func:`main`.  All numbers are printed with 17 significant digits so
outputs round-trip and identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import material as mat_mod
from . import measures, solver
from ._csvtext import replace_on_success
from .material import (InfeasibleWindow, MaterialFileError, NoFeasibleLambda,
                       NotPositiveDefinite, read_material_file, spectrum, validate,
                       zeta_of_lambda)
# write_trajectory_csv is unused here: bench/run.py traces it by this name
from .solver import (BudgetExceeded, CflViolation, NonFiniteField, ScenarioFileError,
                     TrajectoryCsvWriter, read_scenario_file, run, write_trajectory_csv)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

# (exception types, exit code, message prefix), first match wins: the two
# infeasibility errors are ValueErrors and must be matched before them
EXIT_TABLE = (
    ((InfeasibleWindow, NoFeasibleLambda), EXIT_INFEASIBLE, "infeasible window"),
    ((OSError, MaterialFileError, ScenarioFileError, NotPositiveDefinite, BudgetExceeded,
      CflViolation, NonFiniteField, ValueError), EXIT_INVALID, "invalid input"),
)


def _fmt(x):
    return f"{x:.17g}"


def _load_material(path):
    material = read_material_file(path)
    report = validate(material)
    if not report.ok:
        raise NotPositiveDefinite("material inadmissible:\n" + str(report))
    return material


def _parse_lambdas(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
        if vals and all(0.0 < v < math.inf for v in vals):
            return vals
    except ValueError:
        pass
    raise ValueError(f"--lambda values must be positive and finite, got {text!r}")


def _finite_float(text):
    """argparse type of --r0 and --t0: a finite number."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r} (finite numbers only)")


def _count(text):
    """argparse type of --refine and selftest's --seed: an integer >= 0."""
    if text.isascii() and text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid non-negative integer: {text!r}")


def cmd_check_material(args):
    material = read_material_file(args.material)
    report = validate(material)
    print(report)
    if not report.ok:
        return EXIT_INVALID
    spec = spectrum(material)
    print(f"mu_m = {_fmt(spec.mu_m)}  mu_M = {_fmt(spec.mu_M)}")
    print(f"k_m  = {_fmt(spec.k_m)}  k_M  = {_fmt(spec.k_M)}")
    print(f"M2   = {_fmt(spec.M2)}")
    return EXIT_OK


def cmd_spectrum(args):
    # eigvalsh reads one triangle only, so symmetry is checked first
    material = _load_material(args.material)
    Q = mat_mod.assemble_quadratic_form(material)
    print("quadratic form (scaled coordinates):")
    for row in Q:
        print("  " + " ".join(_fmt(v) for v in row))
    print("eigenvalues:", " ".join(_fmt(v) for v in np.linalg.eigvalsh(Q)))
    print("K eigenvalues:", " ".join(_fmt(v) for v in np.linalg.eigvalsh(material.K)))
    spec = spectrum(material)
    print(f"M2 = {_fmt(spec.M2)}")
    return EXIT_OK


def cmd_simulate(args):
    scenario = read_scenario_file(args.scenario)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "trajectory.csv")
    # stream into a temporary file, renamed once run returns: no partial output
    with replace_on_success(path) as fh:
        traj = run(scenario, n_samples=args.samples,
                   reducers=[TrajectoryCsvWriter(scenario, fh)])
    log = {"dt": traj.log["dt"], "nsteps": traj.log["nsteps"],
           "growth_factor": traj.log["growth_factor"],
           "samples": int(traj.times.size),
           "energy_first": float(traj.log["energy"][0]),
           "energy_last": float(traj.log["energy"][-1]),
           "warnings": traj.log["warnings"]}
    measures.write_summary_json(os.path.join(outdir, "run_log.json"), log)
    print(f"wrote {path} ({traj.times.size} sample times)")
    return EXIT_OK


def _refinement_study(scenario, lam, levels):
    """Energy-identity residuals on a doubling grid hierarchy."""
    residuals, notes = [], []
    for level in range(levels + 1):
        counts = tuple((n - 1) * 2 ** level + 1 for n in scenario.grid.counts)
        refined = dataclasses.replace(
            scenario, grid=solver.Grid(extents=scenario.grid.extents, counts=counts), dt="auto")
        try:
            record, _ = measures.stream_record(refined, lam, floor=401)
        except BudgetExceeded as exc:
            notes.append(f"level {level}: skipped ({exc})")
            break
        residuals.append(measures.check_energy_identity(record, lam).residual)
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    return {"residuals": residuals, "ratios": ratios, "notes": notes}


def cmd_verify_decay(args):
    scenario = read_scenario_file(args.scenario)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else None
    verdict, series = measures.certify(scenario, lambdas=lambdas, r0=args.r0, t0=args.t0)
    summary = {"label": scenario.label, "seed": args.seed, **verdict}
    if args.refine > 0:
        summary["refinement"] = _refinement_study(scenario, summary["lambda"], args.refine)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    r_stride = max(1, series.r.size // 64)
    t_stride = max(1, series.t.size // 128)
    measures.write_measure_csv(series, os.path.join(outdir, "measures.csv"),
                               r_stride=r_stride, t_stride=t_stride)
    measures.write_summary_json(os.path.join(outdir, "summary.json"), summary)
    for key in ("energy_identity", "diff_inequality", "decay"):
        print(f"{key}: {json.dumps(summary[key])}")
    for w in summary["warnings"]:
        print(f"warning: {w}")
    print("PASS" if summary["passed"] else "FAIL")
    return EXIT_OK if summary["passed"] else EXIT_VERIFY


def cmd_sweep_lambda(args):
    material = _load_material(args.material)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else list(measures.AUTO_LAMBDAS)
    spec = spectrum(material)

    anchors = [None] * len(lambdas)   # the anchor (t0, r0) of each admissible lambda
    if args.scenario:
        scenario = read_scenario_file(args.scenario, material=material)
        geometry = measures.support_geometry(scenario)
        anchors = [row.anchor for row in measures.admissible_lambdas(scenario, lambdas)]
    admissible = [lam for lam, anchor in zip(lambdas, anchors) if anchor]
    if admissible:
        # one run, sampled for the largest admissible lambda; none if no lambda is
        record, _ = measures.stream_record(scenario, max(admissible))

    lines = ["lambda,epsilon,zeta,rate,zeta_over_sqrt_lambda,feasible,slope_measured"]
    for lam, anchor in zip(lambdas, anchors):
        decay = zeta_of_lambda(spec, material, lam)
        feasible, slope = ("yes" if anchor else "no") if args.scenario else "-", "-"
        if anchor:
            # the series is dropped before the next lambda's is computed
            slope = _fmt(measures.check_decay(
                measures.compute_measure(record, geometry, lam), *anchor).slope)
        lines.append(",".join([_fmt(lam), _fmt(decay.epsilon), _fmt(decay.zeta),
                               _fmt(decay.decay_rate), _fmt(decay.zeta / math.sqrt(lam)),
                               feasible, slope]))

    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "lambda_sweep.csv"), "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_selftest(args):
    """Fast built-in property suites (reduced sample counts): per dimension,
    one call per pointwise bound on a batch of 500 random states."""
    from . import constitutive as cn
    from .material import assemble_quadratic_form, random_material

    rng = np.random.default_rng(args.seed)
    failures = []

    for dim in (1, 2, 3):
        material = random_material(dim, rng)
        spec = spectrum(material)
        Q = assemble_quadratic_form(material)
        z = rng.normal(size=(2000, Q.shape[0]))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rayleigh = np.einsum("ki,ij,kj->k", z, Q, z)
        if rayleigh.min() < spec.mu_m - 1e-9 or rayleigh.max() > spec.mu_M + 1e-9:
            failures.append(f"dim {dim}: Rayleigh quotients escape [mu_m, mu_M]")
        lam = float(rng.uniform(0.5, 50.0))
        eps = mat_mod.epsilon_of_lambda(spec, material, lam)
        res = abs(mat_mod.epsilon_residual(eps, spec, material, lam))
        if res > 1e-12 * max(1.0, eps ** 2):
            failures.append(f"dim {dim}: epsilon root residual {res:.2e}")
        decay = zeta_of_lambda(spec, material, lam)
        state = cn.random_point_state(material, rng, 500)
        udot, normal = rng.normal(size=(dim, 500)), cn.random_unit_vector(dim, rng, 500)
        for name, (lhs, rhs) in (
                ("surface power bound", cn.check_surface_power_bound(
                    state, udot, normal, material, decay, lam)),
                ("stress bound", cn.check_stress_bound(state, material, 1.0)),
                ("flux bound", cn.check_flux_bound(state.kappa, material))):
            bad = ~cn.dominated(lhs, rhs)
            if bad.any():
                k = np.argmax(bad)
                failures.append(f"dim {dim}: {name} violated ({lhs[k]} > {rhs[k]})")

    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {'PASS' if not failures else 'FAIL'} (seed {args.seed})")
    return EXIT_OK if not failures else EXIT_VERIFY


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with the invalid-input code: argparse's own code 2
    is the infeasible-window code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _ArgumentParser(prog="voidtherm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check-material", help="validate a material file and print its spectrum")
    q.add_argument("--material", required=True)
    q.set_defaults(func=cmd_check_material)

    q = sub.add_parser("spectrum", help="print the assembled quadratic form and eigenvalues")
    q.add_argument("--material", required=True)
    q.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("simulate", help="integrate a scenario and dump the trajectory")
    q.add_argument("--scenario", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--samples", type=int, default=201)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("verify-decay", help="full pipeline: simulate, measure, certify")
    q.add_argument("--scenario", required=True)
    q.add_argument("--lambda", dest="lambdas", default=None,
                   help="comma-separated time weights (default: auto grid)")
    q.add_argument("--r0", type=_finite_float, default=None)
    q.add_argument("--t0", type=_finite_float, default=None)
    q.add_argument("--out", default=None)
    q.add_argument("--refine", type=_count, default=0,
                   help="extra runs at doubled resolution for convergence studies")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_verify_decay)

    q = sub.add_parser("sweep-lambda", help="tabulate decay constants over a lambda grid")
    q.add_argument("--material", required=True)
    q.add_argument("--lambda", dest="lambdas", default=None)
    q.add_argument("--scenario", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_sweep_lambda)

    q = sub.add_parser("selftest", help="run the built-in property suites")
    q.add_argument("--seed", type=_count, default=0)
    q.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (EXIT_INVALID)
        return exc.code
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in EXIT_TABLE:
            if isinstance(exc, types):
                print(f"{prefix} [{type(exc).__name__}]: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
