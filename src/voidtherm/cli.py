"""Command-line front end: material admissibility, simulation, and the
decay-verification pipeline.

Exit codes: 0 pass, 1 invalid input, 2 infeasible window, 3 verification
failure; errors map to their code in one table, :data:`EXIT_TABLE`, read
by :func:`main`.  All numbers are printed with 17 significant digits so
outputs round-trip and identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import material as mat_mod
from . import measures, solver
from .material import (InfeasibleWindow, MaterialFileError, NoFeasibleLambda,
                       NotPositiveDefinite, optimize_lambda, read_material_file,
                       spectrum, validate, zeta_of_lambda)
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

# reference resolution of the decay pipeline: 400 cells over a 1.25 bar
REF_SPACING = 1.25 / 400
ENERGY_IDENTITY_TOL = 5e-4
DIFF_INEQ_TOL = 5e-3
DECAY_TOL = 5e-3
AUTO_LAMBDAS = (2.0, 4.0, 8.0, 16.0, 32.0)


def _fmt(x):
    return f"{x:.17g}"


def _load_material(path):
    material = read_material_file(path)
    report = validate(material)
    if not report.ok:
        raise NotPositiveDefinite("material inadmissible:\n" + str(report))
    return material


def _resolution_factor(scenario):
    h1 = scenario.grid.spacing[0]
    return max(1.0, (h1 / REF_SPACING) ** 2)


def _auto_anchor(zeta, L, T, h1):
    r0 = min(L, 0.5 * zeta * T)
    r0 = max(h1, math.floor(r0 / h1 + 1e-9) * h1)
    t0 = T - r0 / zeta
    return t0, r0


def _parse_lambdas(text):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("lambda values must be positive")
    return vals


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
    partial = os.path.join(outdir, f".trajectory.csv.{os.getpid()}.tmp")
    fh = open(partial, "w")
    try:
        with fh:
            traj = run(scenario, n_samples=args.samples,
                       reducers=[TrajectoryCsvWriter(scenario, fh)])
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise
    log = {"dt": traj.log["dt"], "nsteps": traj.log["nsteps"],
           "growth_factor": traj.log["growth_factor"],
           "samples": int(traj.times.size),
           "energy_first": float(traj.log["energy"][0]),
           "energy_last": float(traj.log["energy"][-1]),
           "warnings": traj.log["warnings"]}
    with open(os.path.join(outdir, "run_log.json"), "w") as fh:
        json.dump(log, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path} ({traj.times.size} sample times)")
    return EXIT_OK


def verify_decay_pipeline(scenario, lambdas=None, r0=None, t0=None, seed=0):
    """Core of ``verify-decay``: returns (exit_code, summary, series).

    Exit policy: the energy-identity residual, the differential-inequality
    violations, and the decay violations must all sit inside the
    resolution-scaled slacks.
    """
    material = scenario.material
    spec = spectrum(material)
    res_factor = _resolution_factor(scenario)
    geometry = measures.support_geometry(scenario)
    h1 = scenario.grid.spacing[0]

    lam_grid = list(lambdas) if lambdas else list(AUTO_LAMBDAS)
    probe_r0 = r0 if r0 is not None else min(geometry.L, h1 * (len(geometry.r_samples) // 2))
    lam, rate = optimize_lambda(material, geometry.L, scenario.T, probe_r0, lam_grid)
    decay = zeta_of_lambda(spec, material, lam)
    if r0 is None or t0 is None:
        t0_auto, r0_auto = _auto_anchor(decay.zeta, geometry.L, scenario.T, h1)
        r0 = r0_auto if r0 is None else r0
        t0 = t0_auto if t0 is None else t0

    n_samples = min(1601, max(801, int(math.ceil(scenario.T * lam / 0.05))))
    record = measures.SampleRecord(scenario)
    traj = run(scenario, n_samples=n_samples, reducers=[record])
    series = measures.compute_measure(record, geometry, lam)

    identity = measures.check_energy_identity(record, lam)
    identity_tol = ENERGY_IDENTITY_TOL * res_factor
    diff_rep = measures.check_diff_inequality(series, tol=DIFF_INEQ_TOL * res_factor)
    decay_rep = measures.check_decay(series, t0, r0, tol=DECAY_TOL * res_factor)

    warnings = list(traj.log["warnings"])
    if res_factor > 1.0:
        warnings.append(
            f"resolution-limited: grid spacing {h1:.6g} above the reference "
            f"{REF_SPACING:.6g}; slacks enlarged by {res_factor:.6g}")

    passed = (identity.residual <= identity_tol and diff_rep.ok and decay_rep.ok)
    summary = {
        "label": scenario.label,
        "seed": seed,
        "spectrum": {"mu_m": spec.mu_m, "mu_M": spec.mu_M, "k_m": spec.k_m,
                     "k_M": spec.k_M, "M2": spec.M2},
        "lambda": lam,
        "epsilon": decay.epsilon,
        "zeta": decay.zeta,
        "decay_rate": decay.decay_rate,
        "window": {"t0": t0, "r0": r0, "L": geometry.L, "T": scenario.T},
        "energy_identity": {"residual": identity.residual,
                            "residual_max": identity.residual_max,
                            "tolerance": identity_tol},
        "diff_inequality": {"violations": len(diff_rep.violations),
                            "checked": diff_rep.n_checked,
                            "worst_margin": diff_rep.worst_margin,
                            "tolerance": diff_rep.tol},
        "decay": {"violations": len(decay_rep.violations),
                  "chain_violations": len(decay_rep.chain_violations),
                  "slope": decay_rep.slope,
                  "slope_bound": -decay.decay_rate,
                  "floored_samples": decay_rep.n_floored,
                  "tolerance": decay_rep.tol},
        "resolution_factor": res_factor,
        "warnings": warnings,
        "passed": passed,
    }
    return (EXIT_OK if passed else EXIT_VERIFY), summary, series


def _refined_copy(scenario, factor):
    import dataclasses

    grid = solver.Grid(extents=scenario.grid.extents,
                       counts=tuple((n - 1) * factor + 1 for n in scenario.grid.counts))
    return dataclasses.replace(scenario, grid=grid, dt="auto")


def _refinement_study(scenario, lam, levels):
    """Energy-identity residuals on a doubling grid hierarchy."""
    residuals = []
    notes = []
    for level in range(levels + 1):
        refined = _refined_copy(scenario, 2 ** level)
        record = measures.SampleRecord(refined)
        try:
            run(refined, n_samples=min(1601, max(401, int(math.ceil(refined.T * lam / 0.05)))),
                reducers=[record])
        except BudgetExceeded as exc:
            notes.append(f"level {level}: skipped ({exc})")
            break
        rep = measures.check_energy_identity(record, lam)
        residuals.append(rep.residual)
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)
              if residuals[i + 1] > 0]
    return {"residuals": residuals, "ratios": ratios, "notes": notes}


def cmd_verify_decay(args):
    scenario = read_scenario_file(args.scenario)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else None
    code, summary, series = verify_decay_pipeline(
        scenario, lambdas=lambdas, r0=args.r0, t0=args.t0, seed=args.seed)
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
    return code


def cmd_sweep_lambda(args):
    material = _load_material(args.material)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else list(AUTO_LAMBDAS)
    spec = spectrum(material)

    scenario = record = geometry = None
    if args.scenario:
        scenario = read_scenario_file(args.scenario, material=material)
        geometry = measures.support_geometry(scenario)
        n_samples = min(1601, max(801, int(math.ceil(scenario.T * max(lambdas) / 0.05))))
        record = measures.SampleRecord(scenario)
        run(scenario, n_samples=n_samples, reducers=[record])

    rows = []
    for lam in lambdas:
        decay = zeta_of_lambda(spec, material, lam)
        feasible = ""
        slope = ""
        if scenario is not None:
            h1 = scenario.grid.spacing[0]
            try:
                t0, r0 = _auto_anchor(decay.zeta, geometry.L, scenario.T, h1)
                mat_mod.feasibility_window(decay.zeta, geometry.L, scenario.T, r0=r0)
                feasible = "yes"
            except InfeasibleWindow:
                feasible = "no"
            if feasible == "yes":
                series = measures.compute_measure(record, geometry, lam)
                rep = measures.check_decay(series, t0, r0)
                slope = _fmt(rep.slope)
        rows.append((lam, decay.epsilon, decay.zeta, decay.decay_rate,
                     decay.zeta / math.sqrt(lam), feasible, slope))

    header = ("lambda", "epsilon", "zeta", "rate", "zeta_over_sqrt_lambda",
              "feasible", "slope_measured")
    print(",".join(header))
    lines = [",".join(header)]
    for row in rows:
        text = ",".join(_fmt(v) if isinstance(v, float) else (v or "-") for v in row)
        print(text)
        lines.append(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "lambda_sweep.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_selftest(args):
    """Fast built-in property suites (reduced sample counts)."""
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
        for _ in range(500):
            state = cn.random_point_state(material, rng)
            udot = rng.normal(size=dim)
            normal = cn.random_unit_vector(dim, rng)
            lhs, rhs = cn.check_surface_power_bound(state, udot, normal, material,
                                                    decay, lam, spec=spec)
            if not cn.TOLERANCES.dominated(lhs, rhs):
                failures.append(f"dim {dim}: surface power bound violated ({lhs} > {rhs})")
                break
            lhs, rhs = cn.check_stress_bound(state, material, 1.0, spec=spec)
            if not cn.TOLERANCES.dominated(lhs, rhs):
                failures.append(f"dim {dim}: stress bound violated")
                break
            lhs, rhs = cn.check_flux_bound(state.kappa, material, spec=spec)
            if not cn.TOLERANCES.dominated(lhs, rhs):
                failures.append(f"dim {dim}: flux bound violated")
                break

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
    q.add_argument("--r0", type=float, default=None)
    q.add_argument("--t0", type=float, default=None)
    q.add_argument("--out", default=None)
    q.add_argument("--refine", type=int, default=0,
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
    q.add_argument("--seed", type=int, default=0)
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
