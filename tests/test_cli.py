import dataclasses
import json

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import _csvtext, presets
from voidtherm.cli import main

PULSE_FILE = """\
dim = 1
extent = 1.25
nodes = {nodes}
dt = auto
T = 1.0
support_x0 = 0.25
material = ref.mat
label = cli-pulse
face.x1min.displacement = dirichlet raised_cosine amplitude=0.01 t_end=0.2
face.x1min.void = dirichlet zero
face.x1min.thermal = dirichlet zero
face.x1max.displacement = dirichlet zero
face.x1max.void = dirichlet zero
face.x1max.thermal = dirichlet zero
"""


# a non-square 2D grid, so that a row-major slip in the dump shows
PLATE_FILE = """\
dim = 2
extent = 1.0 0.75
nodes = 5 4
dt = auto
T = 0.3
support_x0 = 0.25
material = ref2.mat
label = cli-plate
face.x1min.displacement = dirichlet raised_cosine amplitude=0.01 t_end=0.2 axis=0
face.x1min.void = dirichlet zero
face.x1min.thermal = dirichlet zero
face.x1max.displacement = dirichlet zero
face.x1max.void = dirichlet zero
face.x1max.thermal = dirichlet zero
face.x2min.displacement = flux zero
face.x2min.void = flux zero
face.x2min.thermal = flux zero
face.x2max.displacement = flux zero
face.x2max.void = flux zero
face.x2max.thermal = flux zero
"""


# a 3D box with three different node counts, clamped on every lateral face so
# that the fields vary along every axis: an axis-order slip in the dump shows
BOX_FILE = PLATE_FILE.replace("dim = 2", "dim = 3").replace(
    "extent = 1.0 0.75", "extent = 1.0 0.75 0.5").replace(
    "nodes = 5 4", "nodes = 5 4 3").replace("ref2.mat", "ref3.mat").replace(
    "flux zero", "dirichlet zero") + "".join(
    f"face.x3{side}.{group} = dirichlet zero\n"
    for side in ("min", "max") for group in ("displacement", "void", "thermal"))


@pytest.fixture()
def workdir(tmp_path):
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
    vt.write_material_file(presets.reference_material_2d(), tmp_path / "ref2.mat")
    (tmp_path / "plate.scn").write_text(PLATE_FILE)
    box = vt.random_material(3, np.random.default_rng(0))
    vt.write_material_file(dataclasses.replace(box, K=box.K * 1e-6), tmp_path / "ref3.mat")
    (tmp_path / "box.scn").write_text(BOX_FILE)
    (tmp_path / "pulse.scn").write_text(PULSE_FILE.format(nodes=501))
    (tmp_path / "coarse.scn").write_text(PULSE_FILE.format(nodes=161))
    # horizon too short for any wave to cross the bar: no admissible window
    (tmp_path / "short.scn").write_text(
        PULSE_FILE.format(nodes=161).replace("T = 1.0", "T = 0.5"))
    return tmp_path


def test_check_material_ok(workdir, capsys):
    assert main(["check-material", "--material", str(workdir / "ref.mat")]) == 0
    out = capsys.readouterr().out
    assert "mu_m" in out and "M2" in out


def test_check_material_broken_symmetry(workdir, capsys):
    lines = (workdir / "ref.mat").read_text().splitlines()
    # dim-2 material with a one-sided coupling entry breaks the pair symmetry
    m = vt.Material(dim=2, C=np.einsum("ir,js->ijrs", np.eye(2), np.eye(2)),
                    A=np.eye(2), K=np.eye(2), rho=1.0, chi=1.0, aHeat=1.0,
                    theta0=1.0, xi=1.0)
    vt.write_material_file(m, workdir / "asym.mat")
    text = (workdir / "asym.mat").read_text()
    text = text.replace("A = 1 0 0 1", "A = 1 0.5 0 1")
    (workdir / "asym.mat").write_text(text)
    assert main(["check-material", "--material", str(workdir / "asym.mat")]) == 1
    out = capsys.readouterr().out
    assert "A symmetry" in out and "(0, 1)" in out


def test_check_material_missing_key(workdir, capsys):
    lines = (workdir / "ref.mat").read_text().splitlines()
    (workdir / "short.mat").write_text("\n".join(lines[:-1]) + "\n")
    assert main(["check-material", "--material", str(workdir / "short.mat")]) == 1
    err = capsys.readouterr().err
    assert "missing keys" in err and "theta0" in err


def test_spectrum_subcommand(workdir, capsys):
    assert main(["spectrum", "--material", str(workdir / "ref.mat")]) == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out


def test_simulate(workdir, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", str(workdir / "coarse.scn"),
                 "--out", str(out), "--samples", "5"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    log = json.loads((out / "run_log.json").read_text())
    assert log["nsteps"] > 0


def _reference_trajectory_csv(traj, header):
    # one f-string per value, one row per (sample, node), nodes in row-major
    # index order
    scen = traj.scenario
    d, X = scen.grid.dim, scen.mesh()
    lines = [header]
    for st in traj.states:
        for idx in np.ndindex(*scen.grid.counts):
            row = ([st.t] + [x[idx] for x in X] + [st.u[(i,) + idx] for i in range(d)]
                   + [st.v[(i,) + idx] for i in range(d)]
                   + [st.phi[idx], st.phidot[idx], st.theta[idx]])
            lines.append(",".join(f"{v:.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name, header, samples", [
    ("coarse.scn", "t,x1,u1,v1,phi,phidot,theta", 4),
    ("plate.scn", "t,x1,x2,u1,u2,v1,v2,phi,phidot,theta", 4),
    ("box.scn", "t,x1,x2,x3,u1,u2,u3,v1,v2,v3,phi,phidot,theta", 4),
    ("pulse.scn", "t,x1,u1,v1,phi,phidot,theta", 8),
], ids=["1d", "2d-5x4", "3d-5x4x3", "1d-pulse-subnormal"])
def test_trajectory_csv_byte_pinned(workdir, tmp_path, capsys, name, header, samples):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(workdir / name), "--out", str(out),
                 "--samples", str(samples)]) == 0
    streamed = (out / "trajectory.csv").read_bytes()
    traj = vt.run(vt.read_scenario_file(workdir / name), n_samples=samples)
    assert len(traj.states) == samples and np.abs(traj.states[-1].u[0]).max() > 0.0
    for axis in range(1, traj.scenario.grid.dim):
        # the fields vary along every axis: a transposed block would not match
        assert np.ptp(traj.states[-1].u[0], axis=axis).max() > 0.0
    if name == "pulse.scn":
        # the front underflows through the subnormals down to 5e-324
        values = np.abs(np.concatenate([np.ravel(getattr(st, f)) for st in traj.states
                                        for f in ("u", "v", "phi", "phidot", "theta")]))
        assert values[values > 0].min() == 5e-324
    vt.write_trajectory_csv(traj, tmp_path / "replayed.csv")
    assert (tmp_path / "replayed.csv").read_bytes() == streamed
    assert streamed == _reference_trajectory_csv(traj, header)


@pytest.mark.parametrize("r_stride, t_stride", [(3, 5), (1, 16)])
def test_measure_csv_byte_pinned(tmp_path, pulse_series, r_stride, t_stride):
    s = pulse_series
    path = tmp_path / "measures.csv"
    vt.write_measure_csv(s, path, r_stride=r_stride, t_stride=t_stride)
    lines = ["r,t,E,dE_dr,dE_dt,I"]
    for j in range(0, s.r.size, r_stride):
        for k in range(0, s.t.size, t_stride):
            lines.append(",".join(f"{v:.17g}" for v in (
                s.r[j], s.t[k], s.E[j, k], s.dE_dr[j, k], s.dE_dt[j, k], s.I[j, k])))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_writers_in_blocks(workdir, tmp_path, capsys, monkeypatch, pulse_series):
    # blocks far smaller than a sample or an r: the rows come out whole,
    # in order, with the prefixes of their own nodes and r
    monkeypatch.setattr(_csvtext, "SLAB", 13)
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(workdir / "plate.scn"), "--out", str(out),
                 "--samples", "4"]) == 0
    traj = vt.run(vt.read_scenario_file(workdir / "plate.scn"), n_samples=4)
    assert (out / "trajectory.csv").read_bytes() == _reference_trajectory_csv(
        traj, "t,x1,x2,u1,u2,v1,v2,phi,phidot,theta")
    s = pulse_series
    vt.write_measure_csv(s, tmp_path / "measures.csv", r_stride=3, t_stride=5)
    lines = ["r,t,E,dE_dr,dE_dt,I"] + [
        ",".join(f"{v:.17g}" for v in (s.r[j], s.t[k], s.E[j, k], s.dE_dr[j, k],
                                       s.dE_dt[j, k], s.I[j, k]))
        for j in range(0, s.r.size, 3) for k in range(0, s.t.size, 5)]
    assert (tmp_path / "measures.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_verify_decay_reference(workdir, tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify-decay", "--scenario", str(workdir / "pulse.scn"),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["diff_inequality"]["violations"] == 0
    assert summary["decay"]["violations"] == 0
    assert summary["decay"]["slope"] <= summary["decay"]["slope_bound"]
    assert (out / "measures.csv").exists()


def test_verify_decay_byte_identical(workdir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["verify-decay", "--scenario", str(workdir / "pulse.scn"),
                     "--out", str(out)]) == 0
    assert (out1 / "measures.csv").read_bytes() == (out2 / "measures.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_verify_decay_infeasible_window(workdir, tmp_path, capsys):
    code = main(["verify-decay", "--scenario", str(workdir / "short.scn"),
                 "--out", str(tmp_path / "w")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("r0", ["0.9", "0.2"])
def test_verify_decay_given_r0_sets_t0(workdir, tmp_path, r0):
    # with --r0 alone, t0 = T - r0/zeta follows the given r0, not the automatic one
    out = tmp_path / "r0"
    assert main(["verify-decay", "--scenario", str(workdir / "pulse.scn"),
                 "--r0", r0, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    window = summary["window"]
    assert window["r0"] == float(r0)
    assert window["t0"] == window["T"] - float(r0) / summary["zeta"]


def test_verify_decay_anchor_rejected_before_the_run(workdir, tmp_path, monkeypatch, capsys):
    # a t0 outside its window exits 2 without stepping the scenario; the
    # positive control, the automatic anchor, steps it once under the same patch
    runs = []
    real_run = vt.solver.run
    monkeypatch.setattr(vt.solver, "run",
                        lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    for t0, code in ((None, 0), ("0.0", 2)):
        assert main(["verify-decay", "--scenario", str(workdir / "coarse.scn"),
                     "--out", str(tmp_path / "t0")] + (["--t0", t0] if t0 else [])) == code
        assert len(runs) == 1
    assert "t0 = 0 outside" in capsys.readouterr().err


@pytest.mark.parametrize("text, lambdas", [
    (PULSE_FILE.format(nodes=161), None),
    # the 5 x 4 plate over twice its horizon (at T = 0.3 no window is
    # feasible), on two lambdas and on the default grid, whose lambda >= 8
    # are ruled out before the run: its few steps sample them too coarsely
    (PLATE_FILE.replace("T = 0.3", "T = 0.6"), "2,4"),
    (PLATE_FILE.replace("T = 0.3", "T = 0.6"), None)], ids=["coarse", "plate", "plate-default"])
def test_certify_matches_summary(workdir, tmp_path, text, lambdas):
    # summary.json is the verdict of certify behind the label and the seed
    (workdir / "case.scn").write_text(text)
    out = tmp_path / "cli"
    code = main(["verify-decay", "--scenario", str(workdir / "case.scn"), "--out", str(out),
                 "--seed", "3"] + (["--lambda", lambdas] if lambdas else []))
    scenario = vt.read_scenario_file(workdir / "case.scn")
    verdict, series = vt.certify(
        scenario, lambdas=[float(v) for v in lambdas.split(",")] if lambdas else None)
    assert code == (0 if verdict["passed"] else 3)
    expected = json.loads(json.dumps({"label": scenario.label, "seed": 3, **verdict}))
    assert json.loads((out / "summary.json").read_text()) == expected
    assert series.lam == verdict["lambda"]


@pytest.mark.parametrize("T", ["0.6", "1.0"])
def test_default_grid_skips_coarsely_sampled_lambdas(workdir, tmp_path, capsys, T):
    # the 5 x 4 plate takes few steps, too few to sample e^{lambda t} for
    # lambda >= 8: the default grid certifies at lambda = 4, and the sweep
    # marks 8, 16 and 32 as not admissible
    (workdir / "case.scn").write_text(PLATE_FILE.replace("T = 0.3", f"T = {T}"))
    out = tmp_path / "vd"
    assert main(["verify-decay", "--scenario", str(workdir / "case.scn"),
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["lambda"] == 4.0
    capsys.readouterr()
    assert main(["sweep-lambda", "--material", str(workdir / "ref2.mat"),
                 "--scenario", str(workdir / "case.scn")]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [(float(row[0]), row[5]) for row in rows] == [
        (2.0, "yes"), (4.0, "yes"), (8.0, "no"), (16.0, "no"), (32.0, "no")]
    assert all((row[6] == "-") == (row[5] == "no") for row in rows)


@pytest.mark.parametrize("T", ["0.3", "0.6"], ids=["window", "sampling"])
def test_sweep_rows_match_certify(workdir, monkeypatch, capsys, T):
    # one rule: where a sweep row reads no, certify at that lambda alone
    # raises before any run; where it reads yes, certify runs once
    (workdir / "case.scn").write_text(PLATE_FILE.replace("T = 0.3", f"T = {T}"))
    assert main(["sweep-lambda", "--material", str(workdir / "ref2.mat"),
                 "--scenario", str(workdir / "case.scn")]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    scenario = vt.read_scenario_file(workdir / "case.scn")
    runs = []
    real_run = vt.solver.run
    monkeypatch.setattr(vt.solver, "run",
                        lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    for row in rows:
        before = len(runs)
        if row[5] == "no":
            with pytest.raises(vt.NoFeasibleLambda):
                vt.certify(scenario, lambdas=[float(row[0])])
            assert len(runs) == before
        else:
            assert row[5] == "yes"
            vt.certify(scenario, lambdas=[float(row[0])])
            assert len(runs) == before + 1
    assert {row[5] for row in rows} == ({"no"} if T == "0.3" else {"yes", "no"})


@pytest.mark.parametrize("x0", ["1.0", "0.75"], ids=["far-end", "one-depth"])
def test_support_slab_without_two_depths(workdir, tmp_path, monkeypatch, capsys, x0):
    # a slab at the far end, or one cell short of it, leaves fewer than two
    # depths r: both commands exit 1 naming the slab, before any run
    (workdir / "slab.scn").write_text(PLATE_FILE.replace("T = 0.3", "T = 0.6").replace(
        "support_x0 = 0.25", f"support_x0 = {x0}"))
    runs = []
    monkeypatch.setattr(vt.solver, "run", lambda *a, **k: runs.append(a))
    assert main(["verify-decay", "--scenario", str(workdir / "slab.scn"),
                 "--out", str(tmp_path / "slab")]) == 1
    assert main(["sweep-lambda", "--material", str(workdir / "ref2.mat"),
                 "--scenario", str(workdir / "slab.scn")]) == 1
    assert runs == []
    assert capsys.readouterr().err.count(f"support slab x1 <= {float(x0):g}") == 2


def test_verify_decay_coarse_grid_warns(workdir, tmp_path, capsys):
    out = tmp_path / "coarse"
    code = main(["verify-decay", "--scenario", str(workdir / "coarse.scn"),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resolution_factor"] > 1.0
    assert any("resolution-limited" in w for w in summary["warnings"])


def test_verify_decay_bad_file(workdir, tmp_path, capsys):
    (workdir / "bad.scn").write_text("dim = 1\n")
    code = main(["verify-decay", "--scenario", str(workdir / "bad.scn"),
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_sweep_lambda(workdir, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "1,4,16", "--out", str(out)])
    assert code == 0
    text = (out / "lambda_sweep.csv").read_text().splitlines()
    assert text[0].startswith("lambda,epsilon,zeta,rate,zeta_over_sqrt_lambda")
    assert len(text) == 4


def test_sweep_lambda_asymptotic_tail(tmp_path, capsys):
    # decoupled unit set: the spatial speed grows like sqrt(lambda)
    vt.write_material_file(presets.toy_unit_material(), tmp_path / "toy.mat")
    code = main(["sweep-lambda", "--material", str(tmp_path / "toy.mat"),
                 "--lambda", "1e6,4e6,16e6"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    tails = [float(r.split(",")[4]) for r in rows]
    target = np.sqrt(0.5)
    assert all(abs(v - target) <= 0.01 * target for v in tails)


def test_sweep_lambda_marks_infeasible(workdir, monkeypatch, capsys):
    # short horizon: every moderate lambda is infeasible, none gets a slope,
    # and the scenario is not run at all
    runs = []
    real_run = vt.solver.run
    monkeypatch.setattr(vt.solver, "run",
                        lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    code = main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "0.05,8", "--scenario", str(workdir / "short.scn")])
    assert code == 0 and runs == []
    rows = capsys.readouterr().out.splitlines()[1:]
    assert main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "0.05,8"]) == 0
    bare = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(bare) == 2
    for row, row_bare in zip(rows, bare):
        cells = row.split(",")
        assert cells[5] == "no" and cells[6] == "-"
        assert cells[:5] == row_bare.split(",")[:5]
    # the positive control: a feasible lambda makes exactly one run under the same patch
    assert main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "8", "--scenario", str(workdir / "coarse.scn")]) == 0
    assert len(runs) == 1


def test_sweep_lambda_feasible_slopes(workdir, capsys):
    code = main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "8", "--scenario", str(workdir / "coarse.scn")])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    cells = rows[0].split(",")
    assert cells[5] == "yes"
    assert float(cells[6]) < -float(cells[3])  # measured slope beats the bound


def test_sweep_lambda_memory_flat_in_lambdas(workdir, tmp_path, monkeypatch, capsys):
    # each lambda's measure series (four (r, t) tables) is dropped before the
    # next is computed: five lambdas on one record peak within one table of
    # the last lambda alone (holding the previous series would add four)
    import gc
    import tracemalloc

    from voidtherm import cli

    scenario = vt.read_scenario_file(workdir / "pulse.scn")
    nr = vt.support_geometry(scenario).r_samples.size
    runs = []
    real_run = vt.solver.run
    monkeypatch.setattr(vt.solver, "run",
                        lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    peaks = []
    for lambdas in ("32", "2,4,8,16,32"):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert cli.main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                             "--lambda", lambdas, "--scenario", str(workdir / "pulse.scn"),
                             "--out", str(tmp_path / lambdas)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    assert len(runs[0].times) == len(runs[1].times)
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 + 6 and all(row.split(",")[5] == "yes" for row in rows[-5:])
    table_bytes = nr * len(runs[0].times) * 8
    assert peaks[1] - peaks[0] <= table_bytes


def test_selftest(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_selftest_fails_on_one_bad_state(monkeypatch, capsys):
    # each bound is checked on a batch: one violating state of the 500 must
    # fail the run, so the batch reduction cannot hide it
    from voidtherm import constitutive as cn

    real = cn.check_stress_bound
    calls = []

    def one_bad(*args, **kwargs):
        lhs, rhs = real(*args, **kwargs)
        calls.append(lhs.shape)
        lhs = lhs.copy()
        lhs[137] = 2.0 * rhs[137] + 1.0
        return lhs, rhs

    monkeypatch.setattr(cn, "check_stress_bound", one_bad)
    assert main(["selftest", "--seed", "0"]) == 3
    out = capsys.readouterr().out
    assert calls == [(500,)] * 3
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL dim 1", "FAIL dim 2", "FAIL dim 3"]
    assert "stress bound violated" in out and "selftest: FAIL (seed 0)" in out


def test_verify_decay_refinement_study(workdir, tmp_path):
    out = tmp_path / "refined"
    code = main(["verify-decay", "--scenario", str(workdir / "coarse.scn"),
                 "--out", str(out), "--refine", "1"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    study = summary["refinement"]
    assert len(study["residuals"]) == 2
    assert study["residuals"][1] < study["residuals"][0]


def _asymmetric_k(workdir):
    m = vt.Material(dim=2, C=np.einsum("ir,js->ijrs", np.eye(2), np.eye(2)),
                    A=np.eye(2), K=np.eye(2), rho=1.0, chi=1.0, aHeat=1.0,
                    theta0=1.0, xi=1.0)
    path = workdir / "asym.mat"
    vt.write_material_file(m, path)
    path.write_text(path.read_text().replace("K = 1 0 0 1", "K = 1 0.5 0 1"))


def _huge_pulse(workdir):
    (workdir / "huge.scn").write_text(
        PULSE_FILE.format(nodes=161).replace("amplitude=0.01", "amplitude=1e307"))


def _edited(old, new):
    """Set-up writing bad.scn: the coarse pulse file with ``old`` replaced."""
    def setup(workdir):
        (workdir / "bad.scn").write_text(PULSE_FILE.format(nodes=161).replace(old, new))
    return setup


def _material_edited(old, new):
    """Set-up writing bad.mat: the reference material file with ``old``
    replaced."""
    def setup(workdir):
        (workdir / "bad.mat").write_text((workdir / "ref.mat").read_text().replace(old, new))
    return setup


# (command line with {d} for the work directory, input set-up, exit code,
# text the report must contain)
MALFORMED = [
    ("check-material --material {d}/none.mat", None, 1, "FileNotFoundError"),
    ("spectrum --material {d}/none.mat", None, 1, "FileNotFoundError"),
    ("simulate --scenario {d}/none.scn --out {d}/o", None, 1, "FileNotFoundError"),
    ("verify-decay --scenario {d}/none.scn --out {d}/o", None, 1, "FileNotFoundError"),
    ("sweep-lambda --material {d}/none.mat", None, 1, "FileNotFoundError"),
    ("sweep-lambda --material {d}/ref.mat --scenario {d}/none.scn", None, 1,
     "FileNotFoundError"),
    ("simulate --scenario {d}/huge.scn --out {d}/o", _huge_pulse, 1, "NonFiniteField"),
    ("verify-decay --scenario {d}/huge.scn --out {d}/o", _huge_pulse, 1, "NonFiniteField"),
    ("sweep-lambda --material {d}/ref.mat --lambda 8 --scenario {d}/huge.scn", _huge_pulse, 1,
     "NonFiniteField"),
    ("spectrum --material {d}/asym.mat", _asymmetric_k, 1, "K symmetry"),
    ("sweep-lambda --material {d}/ref.mat --lambda 0,-1", None, 1, "must be positive"),
    ("simulate", None, 1, "the following arguments are required: --scenario"),
    ("verify-decay --scenario {d}/pulse.scn --r0 abc", None, 1, "invalid float value: 'abc'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("t_end=0.2", "t_end=0.2 axis=4"),
     1, "axis 4 outside 0..0"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited(
        "label = cli-pulse", "initial.u = cosine_bump amplitude=1e-3 center=0.1 width=0.1 axis=2"),
     1, "axis 2 outside 0..0"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("label = cli-pulse", "source.f ="),
     1, "only zero sources"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited(
        "face.x1min.void = dirichlet zero",
        "face.x1min.void = dirichlet zero\nface.x1min.displacement = dirichlet zero"),
     1, "duplicate key 'face.x1min.displacement'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited(
        "label = cli-pulse", "initial.theta = zero\ninitial.theta = zero"),
     1, "duplicate key 'initial.theta'"),
    ("simulate --scenario {d}/coarse.scn --samples 0 --out {d}/o", None, 1,
     "n_samples must be at least 2"),
    # every malformed value is reported with its file and line
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("T = 1.0", "T = abc"),
     1, "bad.scn:5: T: expected finite numbers, got 'abc'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("T = 1.0", "T = nan"),
     1, "bad.scn:5: T: expected finite numbers, got 'nan'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("dim = 1", "dim = x"),
     1, "bad.scn:1: dim: expected integers, got 'x'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("amplitude=0.01", "amplitude=abc"),
     1, "bad.scn:9: amplitude: expected finite numbers, got 'abc'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("t_end=0.2", "t_end=0.2 axis=q"),
     1, "bad.scn:9: axis: expected integers, got 'q'"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited(
        "label = cli-pulse", "face.x3max.void = dirichlet zero"), 1, "bad.scn:8: face keys"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("nodes = 161", "nodes = 2"),
     1, "bad.scn:3: need at least 3 nodes per axis"),
    ("check-material --material {d}/bad.mat", _material_edited("rho = 1", "rho = abc"),
     1, "bad.mat:14: rho: expected finite numbers, got 'abc'"),
    ("check-material --material {d}/bad.mat", _material_edited("K = ", "K = 1 "),
     1, "bad.mat:9: K: expected 1 values, got 2"),
    ("check-material --material {d}/bad.mat", _material_edited("dim = 1", "dim = 4"),
     1, "bad.mat:1: dim must be 1, 2 or 3"),
    # time steps that are not positive: no ZeroDivisionError, no one-step run
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("dt = auto", "dt = 0"),
     1, "dt must be positive and finite, got 0.0"),
    ("simulate --scenario {d}/bad.scn --out {d}/o", _edited("dt = auto", "dt = -0.001"),
     1, "dt must be positive and finite, got -0.001"),
    ("verify-decay --scenario {d}/bad.scn --out {d}/o", _edited("dt = auto", "dt = 0"),
     1, "dt must be positive and finite"),
    # non-finite numbers on the command line name their flag
    ("sweep-lambda --material {d}/ref.mat --lambda nan --out {d}/o", None, 1,
     "--lambda values must be positive and finite, got 'nan'"),
    ("sweep-lambda --material {d}/ref.mat --lambda 2,inf --out {d}/o", None, 1,
     "--lambda values must be positive and finite, got '2,inf'"),
    ("verify-decay --scenario {d}/pulse.scn --lambda nan --out {d}/o", None, 1,
     "--lambda values must be positive and finite"),
    ("verify-decay --scenario {d}/pulse.scn --r0 nan --out {d}/o", None, 1,
     "argument --r0: invalid float value: 'nan'"),
    ("verify-decay --scenario {d}/pulse.scn --t0 inf --out {d}/o", None, 1,
     "argument --t0: invalid float value: 'inf'"),
    # --lambda values that are not numbers name the flag too
    ("sweep-lambda --material {d}/ref.mat --lambda abc --out {d}/o", None, 1,
     "--lambda values must be positive and finite, got 'abc'"),
    ("verify-decay --scenario {d}/pulse.scn --lambda 2,x --out {d}/o", None, 1,
     "--lambda values must be positive and finite, got '2,x'"),
    # counts below zero name their flag: no silently skipped study, no numpy error
    ("verify-decay --scenario {d}/pulse.scn --refine -1 --out {d}/o", None, 1,
     "argument --refine: invalid non-negative integer: '-1'"),
    ("selftest --seed -1", None, 1, "argument --seed: invalid non-negative integer: '-1'"),
]


@pytest.mark.parametrize("command, setup, code, report", MALFORMED,
                         ids=[f"{row[0].split()[0]}-{i}" for i, row in enumerate(MALFORMED)])
def test_malformed_input_exit_codes(workdir, capsys, command, setup, code, report):
    if setup is not None:
        setup(workdir)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(command.format(d=workdir).split()) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert report in out + err
    # no partial output: no trajectory.csv, run_log.json or temporary file
    outdir = workdir / "o"
    assert not outdir.exists() or not list(outdir.iterdir())


def test_blow_up_mid_block_leaves_no_trajectory(workdir, monkeypatch, capsys):
    # the pulse overflows at its 11th sample: at B = 4 two full blocks have
    # gone to trajectory.csv's temporary file and two samples wait in the
    # third when NonFiniteField is raised
    (workdir / "huge.scn").write_text(
        PULSE_FILE.format(nodes=161).replace("amplitude=0.01", "amplitude=1e305"))
    scen = vt.read_scenario_file(workdir / "huge.scn")
    for size, handed_out in ((1, [1] * 10), (4, [4, 4])):
        monkeypatch.setattr(vt.solver, "SAMPLE_BLOCK", size * 161)
        sizes = []
        with pytest.raises(vt.NonFiniteField), np.errstate(over="ignore", invalid="ignore"):
            vt.run(scen, reducers=[lambda block: sizes.append(len(block.times))])
        assert sizes == handed_out
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--scenario", str(workdir / "huge.scn"),
                     "--out", str(workdir / "o")]) == 1
    assert "NonFiniteField" in capsys.readouterr().err
    assert list((workdir / "o").iterdir()) == []


def test_help_exits_zero(capsys):
    assert main(["simulate", "--help"]) == 0
    assert "usage: voidtherm simulate" in capsys.readouterr().out


def test_verify_decay_memory_flat_in_samples(monkeypatch):
    # verify-decay streams its samples: the traced peak must not grow with
    # the sample count by more than a few states (snapshots would add one
    # state per sample: 450 here); what does grow is the lateral profiles
    # and the measure series, O(samples x n1), small next to a state when the
    # plate is wide across x1
    import dataclasses
    import tracemalloc

    from voidtherm.solver import BoundaryCondition, BoundaryPartition, Grid, Scenario

    mat = dataclasses.replace(presets.reference_material_2d(), K=1e-7 * np.eye(2))
    faces = BoundaryPartition.all_dirichlet_zero(2).faces
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=0.1), axis=0)
    grid = Grid(extents=(0.5, 0.5), counts=(6, 241))
    scen = Scenario(grid=grid, material=mat, boundary=BoundaryPartition(faces=faces),
                    dt=2.5e-4, T=0.225, support_x0=0.1)
    state_bytes = (2 * grid.dim + 3) * np.prod(grid.counts) * 8
    runs = []
    real_run = vt.solver.run
    monkeypatch.setattr(vt.solver, "run",
                        lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    peaks = []
    for lam in (2.0, 256.0):   # 900 steps: 451 and 901 samples
        tracemalloc.start()
        try:
            vt.certify(scen, lambdas=[lam])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [len(traj.times) for traj in runs] == [451, 901]
    assert peaks[1] - peaks[0] < 4 * state_bytes
    for traj in runs:
        assert traj.log["nsteps"] == 900 and traj.times[-1] == pytest.approx(scen.T)
        assert traj.states[-1].t == traj.times[-1] and traj.states[-1].theta.shape == grid.counts


def test_simulate_memory_flat_in_samples(workdir, tmp_path, monkeypatch):
    # simulate streams its samples into trajectory.csv: the traced peak must
    # not grow with the sample count by more than a few states (snapshots
    # would add one state per sample: 36 here); what does grow is the times
    # and the energy and theta_max logs, a few floats per sample
    import gc
    import tracemalloc

    from voidtherm import cli

    grid = vt.read_scenario_file(workdir / "coarse.scn").grid
    state_bytes = (2 * grid.dim + 3) * np.prod(grid.counts) * 8
    runs = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    peaks = []
    for samples in (5, 41):
        # no collection inside the window: whether the CLI's argparse cycles
        # (~30 kB) are freed before the peak would otherwise depend on when
        # the collector happens to run
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--scenario", str(workdir / "coarse.scn"),
                             "--out", str(tmp_path / f"s{samples}"),
                             "--samples", str(samples)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    assert [len(traj.times) for traj in runs] == [5, 41]
    assert peaks[1] - peaks[0] < 4 * state_bytes
    for traj, samples in zip(runs, (5, 41)):
        assert len(traj.states) == 1 and traj.states[-1].t == traj.times[-1]
        lines = (tmp_path / f"s{samples}" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + samples * grid.counts[0]
