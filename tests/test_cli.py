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


@pytest.fixture()
def workdir(tmp_path):
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
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
