import json

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import presets
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


@pytest.fixture()
def workdir(tmp_path):
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
    vt.write_material_file(presets.reference_material_2d(), tmp_path / "ref2.mat")
    (tmp_path / "plate.scn").write_text(PLATE_FILE)
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


@pytest.mark.parametrize("name, header", [
    ("coarse.scn", "t,x1,u1,v1,phi,phidot,theta"),
    ("plate.scn", "t,x1,x2,u1,u2,v1,v2,phi,phidot,theta"),
], ids=["1d", "2d-5x4"])
def test_trajectory_csv_byte_pinned(workdir, tmp_path, capsys, name, header):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(workdir / name), "--out", str(out),
                 "--samples", "4"]) == 0
    streamed = (out / "trajectory.csv").read_bytes()
    traj = vt.run(vt.read_scenario_file(workdir / name), n_samples=4)
    assert len(traj.states) == 4 and np.abs(traj.states[-1].u[0]).max() > 0.0
    if traj.scenario.grid.dim == 2:
        # the fields vary along both axes: a transposed block would not match
        assert np.ptp(traj.states[-1].u[0], axis=1).max() > 0.0
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


def test_sweep_lambda_marks_infeasible(workdir, capsys):
    # short horizon: every moderate lambda is infeasible, none gets a slope
    code = main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "0.05,8", "--scenario", str(workdir / "short.scn")])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert cells[5] == "no" and cells[6] == "-"


def test_sweep_lambda_feasible_slopes(workdir, capsys):
    code = main(["sweep-lambda", "--material", str(workdir / "ref.mat"),
                 "--lambda", "8", "--scenario", str(workdir / "coarse.scn")])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    cells = rows[0].split(",")
    assert cells[5] == "yes"
    assert float(cells[6]) < -float(cells[3])  # measured slope beats the bound


def test_selftest(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    assert "PASS" in capsys.readouterr().out


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

    from voidtherm import cli
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
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    peaks = []
    for lam in (2.0, 256.0):   # 900 steps: 451 and 901 samples
        tracemalloc.start()
        try:
            cli.verify_decay_pipeline(scen, lambdas=[lam])
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
    import tracemalloc

    from voidtherm import cli

    grid = vt.read_scenario_file(workdir / "coarse.scn").grid
    state_bytes = (2 * grid.dim + 3) * np.prod(grid.counts) * 8
    runs = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(real_run(*a, **k)) or runs[-1])
    peaks = []
    for samples in (5, 41):
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--scenario", str(workdir / "coarse.scn"),
                             "--out", str(tmp_path / f"s{samples}"),
                             "--samples", str(samples)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [len(traj.times) for traj in runs] == [5, 41]
    assert peaks[1] - peaks[0] < 4 * state_bytes
    for traj, samples in zip(runs, (5, 41)):
        assert len(traj.states) == 1 and traj.states[-1].t == traj.times[-1]
        lines = (tmp_path / f"s{samples}" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + samples * grid.counts[0]
