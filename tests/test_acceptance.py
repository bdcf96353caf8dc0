"""Acceptance gate: every criterion below runs standalone at its stated
tolerance and prints one pass/fail line.  Run with

    pytest tests/test_acceptance.py -v
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import constitutive as cn
from voidtherm import presets
from voidtherm.material import random_material
from voidtherm.mms import manufactured_scenario
from voidtherm.solver import SimState, Trajectory


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# 1. spectral oracle


def test_acceptance_1_spectral_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    for dim in (1, 2, 3, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        Q = vt.assemble_quadratic_form(m)
        z = rng.normal(size=(10_000, Q.shape[0]))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        quot = np.einsum("ki,ij,kj->k", z, Q, z)
        ok &= quot.min() >= spec.mu_m - 1e-9
        ok &= quot.max() <= spec.mu_M + 1e-9

    diag = vt.Material(dim=1, C=2.0, A=3.0, K=1.0, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=5.0)
    s = vt.spectrum(diag)
    ok &= (s.mu_m, s.mu_M) == (2.0, 5.0)
    coupled = vt.Material(dim=1, C=2.0, A=1.0, K=1.0, rho=1.0, chi=1.0,
                          aHeat=1.0, theta0=1.0, xi=2.0, B=1.0)
    s = vt.spectrum(coupled)
    ok &= abs(s.mu_m - 1.0) <= 1e-12 and abs(s.mu_M - 3.0) <= 1e-12
    elapsed = time.monotonic() - t0
    assert _report(1, "spectral oracle", ok, f"[{elapsed:.2f}s]")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. inequality suite


def test_acceptance_2_inequality_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    n = 10_000
    m = random_material(3, rng)
    spec = vt.spectrum(m)
    lam = 3.7
    decay = vt.zeta_of_lambda(spec, m, lam)
    rel = 1e-10
    violations = {}

    # each bound is called once on its n draws, a batch on one trailing axis
    Ea, Eb = cn.random_point_state(m, rng, n), cn.random_point_state(m, rng, n)
    f = vt.bilinear_form(Ea, Eb, m)
    wa = vt.stored_energy(Ea, m)
    violations["cauchy_schwarz"] = int(np.sum(f * f > wa * vt.stored_energy(Eb, m) * (1 + rel)
                                              + 1e-12))
    g = vt.response(dataclasses.replace(Ea, theta=0.0), m)
    lhs = np.sum(g.S ** 2, axis=(0, 1)) + np.sum(g.h ** 2, axis=0) / m.chi + g.G ** 2
    violations["image_energy"] = int(np.sum(lhs > 2.0 * spec.mu_M * wa * (1 + rel) + 1e-12))

    lhs, rhs = vt.check_flux_bound(rng.normal(size=(3, n)), m)
    violations["flux"] = int(np.sum(lhs > rhs * (1 + rel) + 1e-15))

    eps = np.resize((0.1, 1.0, 10.0), n)
    lhs, rhs = vt.check_stress_bound(cn.random_point_state(m, rng, n), m, eps)
    violations["stress"] = int(np.sum(lhs > rhs * (1 + rel) + 1e-12))

    L = rng.normal(size=(n, 3, 3))
    F = rng.normal(size=(n, 3, 3))
    lhs = np.sum((L + F) ** 2, axis=(1, 2))
    rhs = (1 + eps) * np.sum(L ** 2, axis=(1, 2)) + (1 + 1 / eps) * np.sum(F ** 2, axis=(1, 2))
    violations["tensor_split"] = int(np.sum(lhs > rhs * (1 + rel)))

    st = cn.random_point_state(m, rng, n)
    udot = rng.normal(size=(3, n))
    normal = cn.random_unit_vector(3, rng, n)
    lhs, rhs = vt.check_surface_power_bound(st, udot, normal, m, decay, lam)
    violations["surface_power"] = int(np.sum(lhs > rhs * (1 + rel) + 1e-12))

    elapsed = time.monotonic() - t0
    total = sum(violations.values())
    assert _report(2, "inequality suite", total == 0,
                   f"violations={violations} [{elapsed:.2f}s]")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. epsilon / zeta correctness


def test_acceptance_3_epsilon_zeta():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    ok = True
    for dim in (1, 2, 3):
        m = random_material(dim, rng)
        spec = vt.spectrum(m)
        for lam in np.geomspace(1e-2, 1e6, 33):
            eps = vt.epsilon_of_lambda(spec, m, float(lam))
            res = abs(vt.epsilon_residual(eps, spec, m, float(lam)))
            ok &= res <= 1e-12 * max(1.0, eps ** 2)

    toy = presets.toy_unit_material()
    s = vt.spectrum(toy)
    ok &= vt.epsilon_of_lambda(s, toy, 4.0) == 1.0
    d4 = vt.zeta_of_lambda(s, toy, 4.0)
    ok &= abs(d4.zeta - math.sqrt(2.0)) <= 1e-15
    tail = vt.zeta_of_lambda(s, toy, 1e6)
    target = math.sqrt(s.k_M / (2.0 * toy.theta0 * toy.aHeat * toy.rho))
    ok &= abs(tail.zeta / math.sqrt(1e6) - target) <= 0.01 * target
    elapsed = time.monotonic() - t0
    assert _report(3, "epsilon/zeta correctness", ok, f"[{elapsed:.2f}s]")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. energy-identity convergence on a manufactured solution


def test_acceptance_4_energy_identity_convergence():
    t0 = time.monotonic()
    mat = presets.reference_material()
    u, phi, theta = presets.mms_profiles_1d(length=1.0)
    residuals = []
    for n in (101, 201, 401):
        grid = vt.Grid(extents=(1.0,), counts=(n,))
        h = 1.0 / (n - 1)
        nsteps = int(round(0.4 / (0.2 * h)))
        scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h, T=0.4)
        X = scen.mesh()
        times = np.linspace(0.0, 0.4, nsteps + 1)
        states = [SimState(t=float(t), u=exact.u(X, float(t)), v=exact.udot(X, float(t)),
                           phi=exact.phi(X, float(t)), phidot=exact.phidot(X, float(t)),
                           theta=exact.theta(X, float(t))) for t in times]
        traj = Trajectory(scenario=scen, times=times, states=states)
        residuals.append(vt.check_energy_identity(vt.record_trajectory(traj), 2.0).residual)
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    elapsed = time.monotonic() - t0
    assert _report(4, "energy identity convergence", ok,
                   f"ratios={[round(r, 3) for r in ratios]} [{elapsed:.1f}s]")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5-7. reference pulse scenario


def _anchor(series, T, h1):
    decay = series.decay
    r0 = math.floor(min(float(series.r[-1]), 0.5 * decay.zeta * T) / h1) * h1
    t0 = T - r0 / decay.zeta
    return t0, r0


def test_acceptance_5_differential_inequality(pulse_scenario, pulse_trajectory,
                                              pulse_geometry, pulse_lambda, pulse_series):
    t0 = time.monotonic()
    scen = pulse_scenario
    spec = vt.spectrum(scen.material)
    assert scen.grid.extents == (1.25,)
    assert scen.grid.counts[0] >= 400
    assert scen.support_x0 == 0.25
    assert spec.k_M <= 1e-4
    assert scen.material.tau == 0.0
    assert scen.boundary.faces[(0, "min")]["displacement"].signal.t_end == 0.2
    assert scen.T == 1.0

    rep = vt.check_diff_inequality(pulse_series, tol=5e-3)
    elapsed = time.monotonic() - t0
    ok = rep.ok
    assert _report(5, "differential inequality", ok,
                   f"lambda={pulse_lambda} checked={rep.n_checked} "
                   f"violations={len(rep.violations)} [{elapsed:.1f}s]")
    assert elapsed < 120.0


def test_acceptance_6_decay_estimate(pulse_scenario, pulse_series, pulse_lambda):
    t0 = time.monotonic()
    h1 = pulse_scenario.grid.spacing[0]
    anchor_t0, anchor_r0 = _anchor(pulse_series, pulse_scenario.T, h1)
    rep = vt.check_decay(pulse_series, anchor_t0, anchor_r0, tol=5e-3)
    decay = pulse_series.decay
    ok = rep.ok and rep.slope <= -decay.decay_rate
    elapsed = time.monotonic() - t0
    assert _report(6, "exponential decay along characteristics", ok,
                   f"slope={rep.slope:.1f} bound={-decay.decay_rate:.2f} "
                   f"floored={rep.n_floored}/{rep.n_samples} [{elapsed:.1f}s]")
    assert elapsed < 120.0


def test_acceptance_7_measure_monotonicity(pulse_record, pulse_geometry, pulse_series):
    t0 = time.monotonic()
    ok = True
    series_list = [pulse_series, vt.compute_measure(pulse_record, pulse_geometry, 8.0)]
    insulated = presets.insulated_relaxation_scenario()
    record = vt.record_trajectory(vt.run(insulated, n_samples=401))
    series_list.append(vt.compute_measure(record, vt.support_geometry(insulated), 2.0))
    for series in series_list:
        tol = 1e-12 * series.E[0]
        ok &= bool(np.all(np.diff(series.E, axis=0) <= tol[None, :]))
    elapsed = time.monotonic() - t0
    assert _report(7, "measure monotone in depth", ok, f"[{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 8. determinism of the full pipeline


PULSE_FILE = """\
dim = 1
extent = 1.25
nodes = 501
dt = auto
T = 1.0
support_x0 = 0.25
material = ref.mat
label = acceptance-pulse
face.x1min.displacement = dirichlet raised_cosine amplitude=0.01 t_end=0.2
face.x1min.void = dirichlet zero
face.x1min.thermal = dirichlet zero
face.x1max.displacement = dirichlet zero
face.x1max.void = dirichlet zero
face.x1max.thermal = dirichlet zero
"""


def test_acceptance_8_determinism(tmp_path):
    from voidtherm.cli import main

    t0 = time.monotonic()
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
    (tmp_path / "pulse.scn").write_text(PULSE_FILE)
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        code = main(["verify-decay", "--scenario", str(tmp_path / "pulse.scn"),
                     "--out", str(out)])
        assert code == 0
    same_csv = (outs[0] / "measures.csv").read_bytes() == (outs[1] / "measures.csv").read_bytes()
    same_sum = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    elapsed = time.monotonic() - t0
    assert _report(8, "byte-identical pipeline outputs", same_csv and same_sum,
                   f"[{elapsed:.1f}s]")
