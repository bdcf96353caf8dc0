"""Output checks of the benchmark, written apart from the program.

Each checker returns a list of problems; an empty list means the output is
correct.  The checkers read the files and the printed text the CLI leaves
behind and re-derive what they test with their own arithmetic: closed
forms, the paper's inequalities, and properties the method must have.
None of them compares against a stored copy of earlier output.
``negative_controls`` shows that every checker rejects a corrupted output.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

REL = 1e-12

# pulse.scn: raised-cosine displacement pulse of amplitude 0.01 and length
# 0.2 on x1 = 0; 501 nodes, T = 1.
PULSE_HALF_AMPLITUDE = 0.005
PULSE_END = 0.2
PULSE_NODES = 501
PULSE_T = 1.0
MMS_RATIO_RANGE = (3.5, 4.5)
MMS_GATED = ("u", "udot", "phi", "phidot")


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# CLI results


def verdict_problems(result, expect_pass):
    """Exit code 0, and the final verdict line reads PASS where the command
    prints one."""
    problems = []
    if result.code != 0:
        problems.append(f"exit code {result.code}: {result.stderr.strip()[-300:]}")
    if expect_pass:
        lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
        if not lines or "PASS" not in lines[-1] or "FAIL" in result.stdout:
            problems.append(f"verdict is not PASS: {lines[-1] if lines else '<no output>'}")
    return problems


def read_material_values(path):
    """Key -> list of floats of a material file (the benchmark's own parser)."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, rest = line.partition("=")
                values[key.strip()] = [float(v) for v in rest.split()]
    return values


def quadratic_form_1d(values):
    """Energy form of a 1D material in scaled coordinates (strain, sqrt(chi)
    void gradient, void fraction)."""
    v = {k: vals[0] for k, vals in values.items()}
    sq = math.sqrt(v["chi"])
    return np.array([[v["C"], v["D"] / sq, v["B"]],
                     [v["D"] / sq, v["A"] / v["chi"], v["b"] / sq],
                     [v["B"], v["b"] / sq, v["xi"]]])


def _printed(stdout, label):
    """Floats after ``label`` on the first line that holds it."""
    for line in stdout.splitlines():
        if label in line:
            return [float(tok) for tok in line.split(label, 1)[1].split()[:8]
                    if _is_float(tok)]
    return []


def _is_float(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def material_problems(stdout, values):
    """``check-material`` on a 1D file: eigenvalue bounds of the energy
    form, the conductivity moduli and M2 against closed forms."""
    w = np.linalg.eigvalsh(quadratic_form_1d(values))
    expect = {"mu_m =": w[0], "mu_M =": w[-1], "k_m  =": values["K"][0],
              "k_M  =": values["K"][0],
              "M2   =": values["M"][0] ** 2 + values["aVec"][0] ** 2 / values["chi"][0]}
    problems = []
    for label, want in expect.items():
        got = _printed(stdout, label)
        if not got or not _close(got[0], want, 1e-10):
            problems.append(f"{label.strip()} printed {got[:1]}, expected {want!r}")
    return problems


def spectrum_problems(stdout, values):
    """``spectrum`` on a 1D file: the printed form equals the closed form and
    the printed eigenvalues are those of the printed form."""
    lines = stdout.splitlines()
    try:
        start = lines.index("quadratic form (scaled coordinates):") + 1
        Q = np.array([[float(v) for v in lines[start + i].split()] for i in range(3)])
    except (ValueError, IndexError):
        return ["quadratic form missing from the output"]
    problems = []
    if not np.allclose(Q, quadratic_form_1d(values), rtol=1e-15, atol=0.0):
        problems.append("printed quadratic form differs from the closed form")
    eig = _printed(stdout, "eigenvalues:")
    ref = np.linalg.eigvalsh(Q)
    if len(eig) != 3 or not all(_close(a, b, 1e-10) for a, b in zip(eig, ref)):
        problems.append(f"eigenvalues {eig} differ from {ref.tolist()}")
    keig = _printed(stdout, "K eigenvalues:")
    if len(keig) != 1 or not _close(keig[0], values["K"][0]):
        problems.append(f"K eigenvalues {keig} differ from K")
    return problems


# ---------------------------------------------------------------------------
# simulate: trajectory.csv


def read_trajectory(path):
    """(sample times, u1 on x1 = 0, x1 of that row, rows per sample, rows)
    of a 1D trajectory dump."""
    times, u_face, x_face, per_sample = [], [], [], []
    n_rows = 0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        it, ix, iu = header.index("t"), header.index("x1"), header.index("u1")
        last_t = None
        for line in fh:
            n_rows += 1
            head = line.split(",", iu + 1)
            if head[it] != last_t:
                last_t = head[it]
                times.append(float(head[it]))
                x_face.append(float(head[ix]))
                u_face.append(float(head[iu]))
                per_sample.append(0)
            per_sample[-1] += 1
    return {"t": np.array(times), "u_face": np.array(u_face),
            "x_face": np.array(x_face), "per_sample": per_sample, "rows": n_rows}


def pulse_face_displacement(t):
    t = np.asarray(t, dtype=float)
    return np.where(t < PULSE_END,
                    PULSE_HALF_AMPLITUDE * (1.0 - np.cos(2.0 * np.pi * t / PULSE_END)), 0.0)


def trajectory_problems(traj, run_log):
    problems = []
    n = traj["t"].size
    if run_log.get("samples") != n or traj["rows"] != n * PULSE_NODES:
        problems.append(f"{traj['rows']} rows for {n} samples "
                        f"(run log {run_log.get('samples')}), expected samples x {PULSE_NODES}")
    if any(k != PULSE_NODES for k in traj["per_sample"]):
        problems.append("a sample does not hold every node")
    dt = np.diff(traj["t"])
    if n < 2 or traj["t"][0] != 0.0 or not _close(traj["t"][-1], PULSE_T) \
            or not np.allclose(dt, PULSE_T / (n - 1), rtol=1e-9, atol=0.0):
        problems.append("sample times are not uniform on [0, T]")
    if np.any(traj["x_face"] != 0.0):
        problems.append("first node of a sample is not x1 = 0")
    gap = np.abs(traj["u_face"] - pulse_face_displacement(traj["t"]))
    if gap.max(initial=0.0) > 1e-12:
        k = int(gap.argmax())
        problems.append(f"u1(x1=0, t={traj['t'][k]!r}) off the closed form by {gap[k]:.3e}")
    return problems


# ---------------------------------------------------------------------------
# verify-decay: measures.csv and summary.json


def read_measures(outdir):
    table = np.loadtxt(os.path.join(outdir, "measures.csv"), delimiter=",", skiprows=1,
                       ndmin=2)
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    return table, summary


def measures_problems(table, summary):
    """The certificate re-checked from the written files.

    The differential inequality E <= -(zeta/lam) dE/dr + (1/lam) dE/dt is
    re-evaluated at every row with the printed slack.  The slack scale is
    taken over the written rows only, which are a subset of the samples the
    program used, so the check is at least as strict as the program's.
    """
    problems = []
    if not summary.get("passed"):
        problems.append("summary.json does not record a pass")
    r, t, E, dEr, dEt, I = table.T
    rs, ts = np.unique(r), np.unique(t)
    if table.shape[0] != rs.size * ts.size or np.any(r != np.repeat(rs, ts.size)) \
            or np.any(t != np.tile(ts, rs.size)):
        return problems + ["measures.csv is not an r-major (r, t) table"]
    lam, zeta = summary["lambda"], summary["zeta"]
    tol = summary["diff_inequality"]["tolerance"]
    term_r = -(zeta / lam) * dEr
    term_t = dEt / lam
    scale = max(np.abs(E).max(), np.abs(term_r).max(), np.abs(term_t).max())
    margin = term_r + term_t + tol * scale - E
    if margin.min() < 0.0:
        k = int(margin.argmin())
        problems.append(f"differential inequality fails at r={r[k]!r}, t={t[k]!r} "
                        f"(margin {margin[k]:.3e})")
    grid = E.reshape(rs.size, ts.size)
    if E.min() < 0.0:
        problems.append("E < 0")
    if np.any(grid[:, 0] != 0.0):
        problems.append("E(r, 0) != 0")
    if np.any(np.diff(grid, axis=0) > 0.0):
        problems.append("E increases in r")
    if np.any(np.diff(grid, axis=1) < 0.0):
        problems.append("E decreases in t")
    weighted = np.exp(summary["decay_rate"] * r) * E
    if not np.allclose(I, weighted, rtol=1e-12, atol=0.0):
        problems.append("I != exp(lambda r / zeta) E")
    if not _close(summary["decay_rate"], lam / zeta):
        problems.append("decay rate != lambda / zeta")
    ident = summary["energy_identity"]
    if not (0.0 <= ident["residual"] <= ident["tolerance"]):
        problems.append(f"energy-identity residual {ident['residual']!r} above "
                        f"{ident['tolerance']!r}")
    decay = summary["decay"]
    if decay["violations"] or not decay["slope"] <= decay["slope_bound"]:
        problems.append(f"decay slope {decay['slope']!r} above bound {decay['slope_bound']!r}")
    return problems


# ---------------------------------------------------------------------------
# sweep-lambda: lambda_sweep.csv


def read_sweep(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def sweep_problems(rows, lambdas):
    problems = []
    if [float(row["lambda"]) for row in rows] != [float(v) for v in lambdas]:
        return [f"rows for lambda {[row['lambda'] for row in rows]}, asked {lambdas}"]
    for row in rows:
        lam, zeta, rate = float(row["lambda"]), float(row["zeta"]), float(row["rate"])
        if not zeta > 0.0 or not float(row["epsilon"]) > 0.0:
            problems.append(f"lambda {lam}: zeta or epsilon not positive")
        if not _close(rate, lam / zeta):
            problems.append(f"lambda {lam}: rate != lambda / zeta")
        if not _close(float(row["zeta_over_sqrt_lambda"]), zeta / math.sqrt(lam)):
            problems.append(f"lambda {lam}: zeta_over_sqrt_lambda != zeta / sqrt(lambda)")
        if row["feasible"] == "yes" and not float(row["slope_measured"]) <= -rate:
            problems.append(f"lambda {lam}: measured slope above -rate")
    return problems


# ---------------------------------------------------------------------------
# mms-converge


class ExactFields:
    """The manufactured fields, lambdified by the benchmark from the sympy
    profiles, on the benchmark's own node grid."""

    def __init__(self, profiles, dim):
        import sympy as sp

        xs = sp.symbols(" ".join(f"x{i + 1}" for i in range(dim)), real=True)
        xs = xs if isinstance(xs, tuple) else (xs,)
        t = sp.Symbol("t", real=True)
        u, phi, theta = profiles
        args = (*xs, t)
        self.fields = {
            "u": [sp.lambdify(args, e, "numpy") for e in u],
            "udot": [sp.lambdify(args, sp.diff(e, t), "numpy") for e in u],
            "phi": [sp.lambdify(args, phi, "numpy")],
            "phidot": [sp.lambdify(args, sp.diff(phi, t), "numpy")],
            "theta": [sp.lambdify(args, theta, "numpy")],
        }

    def errors(self, state, nodes, dim):
        """Max-norm errors on the nodes two layers or more off every face."""
        axes = [np.linspace(0.0, 1.0, nodes)] * dim
        X = np.meshgrid(*axes, indexing="ij")
        core = (slice(2, -2),) * dim
        computed = {"u": state.u, "udot": state.v, "phi": state.phi[None],
                    "phidot": state.phidot[None], "theta": state.theta[None]}
        out = {}
        for name, fns in self.fields.items():
            exact = np.stack([np.broadcast_to(fn(*X, state.t), X[0].shape) for fn in fns])
            out[name] = float(np.abs(computed[name] - exact)[(slice(None),) + core].max())
        return out


def mms_problems(errors, coarse_errors):
    """Finite errors; against the next coarser grid of the same ladder, the
    halving ratio of every gated field lies in MMS_RATIO_RANGE."""
    problems = [f"{k} error not finite" for k, v in errors.items() if not math.isfinite(v)]
    if coarse_errors is not None:
        lo, hi = MMS_RATIO_RANGE
        for key in MMS_GATED:
            ratio = coarse_errors[key] / errors[key] if errors[key] > 0 else math.inf
            if not lo <= ratio <= hi:
                problems.append(f"{key} halving ratio {ratio:.3f} outside [{lo}, {hi}]")
    return problems


# ---------------------------------------------------------------------------
# Negative controls


def negative_controls(samples, seed):
    """Corrupt one saved output of each kind and require its checker to
    reject it.  ``samples`` maps a kind to the arguments its checker took
    on a real output; the seed picks what is corrupted.  Returns problems
    (checkers that accepted a corrupted output)."""
    rng = random.Random(seed)
    problems = []

    def expect_rejected(kind, found):
        if not found:
            problems.append(f"negative control: corrupted {kind} was accepted")

    if "measures" in samples:
        table, summary = samples["measures"]
        bad = table.copy()
        k = rng.randrange(bad.shape[0])
        lam, zeta = summary["lambda"], summary["zeta"]
        rhs = -(zeta / lam) * bad[k, 3] + bad[k, 4] / lam
        bad[k, 2] = 2.0 * abs(rhs) + 2.0 * np.abs(bad[:, 2:5]).max() + 1.0
        expect_rejected("measures.csv E entry", measures_problems(bad, summary))
        worse = json.loads(json.dumps(summary))
        worse["energy_identity"]["residual"] = 2.0 * worse["energy_identity"]["tolerance"]
        expect_rejected("energy-identity residual", measures_problems(table, worse))
    if "trajectory" in samples:
        traj, run_log = samples["trajectory"]
        bad = dict(traj, u_face=traj["u_face"].copy())
        bad["u_face"][rng.randrange(bad["u_face"].size)] += 1e-9
        expect_rejected("trajectory.csv boundary row", trajectory_problems(bad, run_log))
    if "sweep" in samples:
        rows, lambdas = samples["sweep"]
        bad = [dict(row) for row in rows]
        row = bad[rng.randrange(len(bad))]
        row["rate"] = repr(float(row["rate"]) * (1.0 + 1e-9))
        expect_rejected("lambda_sweep.csv rate", sweep_problems(bad, lambdas))
    if "material" in samples:
        stdout, values = samples["material"]
        expect_rejected("check-material listing",
                        material_problems(stdout.replace("mu_M = ", "mu_M = 1"), values))
    if "spectrum" in samples:
        stdout, values = samples["spectrum"]
        expect_rejected("spectrum eigenvalues",
                        spectrum_problems(stdout.replace("eigenvalues: ", "eigenvalues: 1", 1),
                                          values))
    if "verdict" in samples:
        result = samples["verdict"]
        bad = type(result)(code=result.code, stdout=result.stdout.replace("PASS", "FAIL"),
                           stderr=result.stderr)
        expect_rejected("verdict line", verdict_problems(bad, expect_pass=True))
    if "mms" in samples:
        errors, coarse = samples["mms"]
        key = MMS_GATED[rng.randrange(len(MMS_GATED))]
        first_order = dict(errors, **{key: coarse[key] / 2.0})
        expect_rejected(f"first-order {key} error", mms_problems(first_order, coarse))
    return problems
