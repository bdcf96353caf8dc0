import dataclasses
import io
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import _csvtext
from voidtherm import constitutive as cn
from voidtherm import presets
from voidtherm.measures import MeasureSeries
from voidtherm.mms import manufactured_scenario
from voidtherm.solver import SimState, Trajectory, kinematics


def test_weighted_energy_density_examples():
    m = vt.Material(dim=3, C=np.einsum("ir,js->ijrs", np.eye(3), np.eye(3)),
                    A=np.eye(3), K=np.eye(3), rho=2.0, chi=1.0, aHeat=1.0,
                    theta0=1.0, xi=1.0)
    zero = cn.PointState.zero(3)
    assert vt.weighted_energy_density(zero, np.zeros(3), m, 4.0) == 0.0
    # velocity-only state: (lambda/2) * rho * |udot|^2
    assert vt.weighted_energy_density(zero, [1.0, 0.0, 0.0], m, 4.0) == pytest.approx(4.0)


def test_density_nonnegative_for_admissible_material(rng):
    m = vt.random_material(3, rng)
    st = cn.random_point_state(m, rng, 300)
    assert np.all(vt.weighted_energy_density(st, rng.normal(size=(3, 300)), m, 2.0) >= -1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_field_matches_quadratic_form(dim, rng):
    # pointwise density at the nodes of a random grid state against
    # 0.5*lam*(... + z^T Q z) + ..., with Q assembled independently of the
    # constitutive kernel
    from voidtherm.solver import BoundaryPartition, Grid, Scenario

    mat = vt.random_material(dim, rng)
    grid = Grid(extents=(1.0,) * dim, counts=(7,) * dim)
    scen = Scenario(grid=grid, material=mat, boundary=BoundaryPartition.all_dirichlet_zero(dim),
                    dt=0.01, T=0.1, support_x0=1.0)
    shape = grid.counts
    st = SimState(t=0.0, u=rng.normal(size=(dim,) + shape), v=rng.normal(size=(dim,) + shape),
                  phi=rng.normal(size=shape), phidot=rng.normal(size=shape),
                  theta=rng.normal(size=shape))
    lam = 3.7
    e, gamma, kappa = kinematics(st, scen)
    Q = vt.assemble_quadratic_form(mat)
    for flat in rng.integers(0, st.phi.size, size=12):
        idx = np.unravel_index(flat, shape)
        point = cn.PointState(e=e[(slice(None), slice(None)) + idx],
                              gamma=gamma[(slice(None),) + idx],
                              kappa=kappa[(slice(None),) + idx], phi=st.phi[idx],
                              phidot=st.phidot[idx], theta=st.theta[idx])
        z = point.scaled_coords(mat)
        v, k = st.v[(slice(None),) + idx], point.kappa
        oracle = (0.5 * lam * (mat.rho * v @ v + mat.rho * mat.chi * st.phidot[idx] ** 2
                               + mat.aHeat * st.theta[idx] ** 2 + z @ Q @ z)
                  + mat.tau * st.phidot[idx] ** 2 + k @ mat.K @ k / mat.theta0)
        assert vt.weighted_energy_density(point, v, mat, lam) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# measure series


def test_zero_trajectory_gives_zero_series():
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(vt.record_trajectory(traj), geom, 4.0)
    assert not np.any(series.E != 0.0)
    assert not np.any(series.dE_dr != 0.0)
    assert not np.any(series.dE_dt != 0.0)


def test_measure_monotone_in_r(pulse_series):
    drops = np.diff(pulse_series.E, axis=0)
    tol = 1e-12 * pulse_series.E[0]
    assert np.all(drops <= tol[None, :])


def test_measure_nonnegative_and_zero_at_t0(pulse_series):
    assert pulse_series.E.min() >= 0.0
    assert np.all(pulse_series.E[:, 0] == 0.0)


def test_derivatives_match_finite_differences():
    # direct surface/volume formulas vs centred differences of E: the gap
    # must scale at second order in the differencing stride (checked on a
    # smooth manufactured trajectory; a traveling front would add noise)
    mat = presets.reference_material()
    u, phi, theta = presets.mms_profiles_1d(length=1.25)
    grid = vt.Grid(extents=(1.25,), counts=(201,))
    h1 = 1.25 / 200
    scen, _ = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h1, T=0.4)
    traj = vt.run(scen, n_samples=321)
    geom = vt.SupportGeometry(x0=0.25, L=1.0, r_samples=np.arange(0, 160) * h1)
    series = vt.compute_measure(vt.record_trajectory(traj), geom, 3.0)

    def dr_error(stride):
        fd = (series.E[2 * stride:, :] - series.E[:-2 * stride, :]) / (2 * stride * h1)
        return np.abs(fd - series.dE_dr[stride:-stride, :]).max()

    assert dr_error(4) / dr_error(2) == pytest.approx(4.0, rel=0.2)

    dt = float(series.t[1] - series.t[0])

    def dt_error(stride):
        fd = (series.E[:, 2 * stride:] - series.E[:, :-2 * stride]) / (2 * stride * dt)
        return np.abs(fd - series.dE_dt[:, stride:-stride]).max()

    assert dt_error(4) / dt_error(2) == pytest.approx(4.0, rel=0.2)


def test_finite_propagation(pulse_record, pulse_scenario):
    # before the wave plus the stencil halo can reach depth r, E(r, t) is
    # exactly zero (bitwise); the measured halo at t = 0.02 is 0.27 units
    # beyond the physical cone, asserted with 0.35 for headroom
    mat = pulse_scenario.material
    geom = vt.support_geometry(pulse_scenario)
    series = vt.compute_measure(pulse_record, geom, 8.0)
    spec = vt.spectrum(mat)
    vmax = math.sqrt(spec.mu_M * max(1.0 / mat.rho, 1.0 / (mat.rho * mat.chi)))
    k = int(np.argmin(np.abs(series.t - 0.02)))
    t_k = series.t[k]
    reach = max(0.0, vmax * t_k - pulse_scenario.support_x0) + 0.35
    far = series.r > reach
    assert far.any()
    assert not np.any(series.E[far, k] != 0.0)
    assert series.E[0, k] > 0.0


def test_sampling_pre_check(pulse_record, pulse_scenario):
    geom = vt.support_geometry(pulse_scenario)
    with pytest.raises(ValueError, match="coarsely"):
        vt.compute_measure(pulse_record, geom, 1e4)


def test_geometry_outside_grid(pulse_record, pulse_scenario):
    grid = pulse_scenario.grid
    geom = vt.SupportGeometry(x0=0.25, L=2.0,
                              r_samples=np.arange(0.0, 2.0, grid.spacing[0]))
    with pytest.raises(ValueError, match="outside"):
        vt.compute_measure(pulse_record, geom, 8.0)


@pytest.mark.parametrize("call, report", [
    (lambda rec, scen, h: vt.support_geometry(dataclasses.replace(scen, support_x0=0.25 + h / 3)),
     "support depth x0 must be grid-aligned"),
    (lambda rec, scen, h: vt.support_geometry(dataclasses.replace(scen, support_x0=1.25 + h)),
     "support depth x0 lies outside the grid"),
    (lambda rec, scen, h: vt.compute_measure(
        rec, vt.SupportGeometry(x0=0.25, L=1.0, r_samples=[0.0, h / 3]), 8.0),
     "r_samples must be grid-aligned"),
    (lambda rec, scen, h: vt.surface_power(rec, 0.5 + h / 2, 8.0), "plane must be grid-aligned"),
    (lambda rec, scen, h: vt.surface_power(rec, 1.0 + h, 8.0), "plane lies outside the grid"),
    (lambda rec, scen, h: vt.surface_power(rec, -0.25 - h, 8.0), "plane lies outside the grid"),
], ids=["support-aligned", "support-inside", "measure-aligned", "plane-aligned",
        "plane-inside", "plane-below"])
def test_depth_to_plane_errors(pulse_record, pulse_scenario, call, report):
    # every depth becomes a grid plane x1 = x0 + r through one check: aligned
    # with the nodes and inside the grid (r_samples beyond the grid:
    # test_geometry_outside_grid)
    with pytest.raises(ValueError, match=report):
        call(pulse_record, pulse_scenario, pulse_scenario.grid.spacing[0])


# ---------------------------------------------------------------------------
# energy identity


def test_energy_identity_zero_trajectory():
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    rep = vt.check_energy_identity(vt.record_trajectory(traj), 4.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


def test_energy_identity_insulated_regression():
    # regression value pinned from the first oracle run at this exact
    # configuration (401 nodes, half-CFL step, 801 samples): 4.6e-5
    scen = presets.insulated_relaxation_scenario()
    traj = vt.run(scen, n_samples=801)
    rep = vt.check_energy_identity(vt.record_trajectory(traj), 2.0)
    assert rep.residual <= 1e-4


def test_energy_identity_subregion(pulse_trajectory, pulse_lambda):
    # the identity holds on interior boxes, not only on the whole body
    rep = vt.check_energy_identity(vt.record_trajectory(pulse_trajectory, ((120, 380),)),
                                   pulse_lambda)
    assert rep.residual <= 5e-4


def test_energy_identity_manufactured_convergence():
    mat = presets.reference_material()
    u, phi, theta = presets.mms_profiles_1d(length=1.0)
    residuals = []
    for n in (51, 101, 201):
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
    for a, b in zip(residuals, residuals[1:]):
        assert 3.5 <= a / b <= 4.5


# ---------------------------------------------------------------------------
# differential inequality and decay


def test_diff_inequality_zero_series():
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(vt.record_trajectory(traj), geom, 4.0)
    rep = vt.check_diff_inequality(series)
    assert rep.ok


def test_diff_inequality_reference_run(pulse_series):
    rep = vt.check_diff_inequality(pulse_series)
    assert rep.ok
    assert rep.n_checked == pulse_series.E.size


def test_diff_inequality_checker_detects_corruption(pulse_series):
    broken = MeasureSeries(lam=pulse_series.lam, decay=pulse_series.decay,
                           geometry=pulse_series.geometry, r=pulse_series.r,
                           t=pulse_series.t, E=pulse_series.E,
                           dE_dr=-pulse_series.dE_dr,  # flipped sign
                           dE_dt=pulse_series.dE_dt, I=pulse_series.I)
    rep = vt.check_diff_inequality(broken)
    assert not rep.ok
    assert rep.violations


def _reference_diff_inequality(series, tol=cn.DISCRETE_REL):
    # the check on full (r, t) tables, each margin formed in one expression
    decay = series.decay
    term_r = -(decay.zeta / decay.lam) * series.dE_dr
    term_t = series.dE_dt / decay.lam
    scale = max(float(np.max(np.abs(series.E))), float(np.max(np.abs(term_r))),
                float(np.max(np.abs(term_t))), 1e-30)
    margin = (term_r + term_t) + tol * scale - series.E
    violations = [(float(series.r[j]), float(series.t[k]), float(margin[j, k]))
                  for j, k in np.argwhere(margin < 0.0)[:64]]
    return violations, int(margin.size), float(margin.min()), tol, scale


def _planted_violations(series, count, seed):
    # E raised above the right-hand side at ``count`` random samples
    rng = np.random.default_rng(seed)
    E = series.E.copy()
    flat = rng.choice(E.size, size=count, replace=False)
    E.reshape(-1)[flat] += rng.uniform(1.0, 2.0, count) * np.abs(E).max()
    return dataclasses.replace(series, E=E)


@pytest.mark.parametrize("block", [None, 1, 3000])
@pytest.mark.parametrize("case", ["reference", "flipped", "planted"])
def test_diff_inequality_blocks_match_the_full_tables(pulse_series, case, block,
                                                      monkeypatch):
    # field for field, whatever the block: one row per block (block 1), a
    # few rows, or the module's; the planted case caps at 64 violations
    # spread over many blocks
    if block is not None:
        monkeypatch.setattr(vt.measures, "CHECK_BLOCK", block)
    series = {"reference": pulse_series,
              "flipped": dataclasses.replace(pulse_series, dE_dr=-pulse_series.dE_dr),
              "planted": _planted_violations(pulse_series, 300, 5)}[case]
    rep = vt.check_diff_inequality(series)
    want = _reference_diff_inequality(series)
    assert (rep.violations, rep.n_checked, rep.worst_margin, rep.tol, rep.scale) == want
    if case == "planted":
        rows = np.searchsorted(series.r, [r for r, _, _ in rep.violations])
        step = max(1, vt.measures.CHECK_BLOCK // series.t.size)
        assert len(rep.violations) == 64 and len(set(rows // step)) > 2


def test_decay_zero_series_trivially_satisfied():
    scen = presets.pulse_scenario(nodes=51, T=1.0, amplitude=0.0)
    traj = vt.run(scen, n_samples=101)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(vt.record_trajectory(traj), geom, 4.0)
    decay = series.decay
    t0, r0 = scen.T - 0.5 / decay.zeta, 0.5
    rep = vt.check_decay(series, t0, r0)
    assert rep.ok
    assert rep.n_floored == rep.n_samples


def test_decay_reference_run(pulse_series, pulse_scenario):
    decay = pulse_series.decay
    h1 = pulse_scenario.grid.spacing[0]
    r0 = math.floor(min(1.0, 0.5 * decay.zeta * 1.0) / h1) * h1
    t0 = 1.0 - r0 / decay.zeta
    rep = vt.check_decay(pulse_series, t0, r0)
    assert rep.ok
    assert not rep.chain_violations
    assert rep.slope <= -decay.decay_rate


def test_decay_r0_endpoint_never_violates(pulse_series, pulse_scenario):
    # at r = 0 the bound is an equality by construction, so even with zero
    # slack no violation may be reported there
    decay = pulse_series.decay
    h1 = pulse_scenario.grid.spacing[0]
    r0 = math.floor(min(1.0, 0.5 * decay.zeta) / h1) * h1
    t0 = 1.0 - r0 / decay.zeta
    rep = vt.check_decay(pulse_series, t0, r0, tol=0.0)
    assert all(r != 0.0 for r, _ in rep.violations)


def test_decay_infeasible_window_raises(pulse_series):
    with pytest.raises(vt.InfeasibleWindow):
        vt.check_decay(pulse_series, t0=0.99, r0=0.9)  # t0 above t0_max


# ---------------------------------------------------------------------------
# admissible time weights


def test_admissible_lambdas_keep_the_given_order(pulse_scenario):
    rows = vt.admissible_lambdas(pulse_scenario, [8.0, 2.0, 8.0])
    assert [row.lam for row in rows] == [8.0, 2.0, 8.0]
    assert rows[0].anchor == rows[2].anchor and rows[0].decay == rows[2].decay
    # an empty grid is the default one
    assert [row.lam for row in vt.admissible_lambdas(pulse_scenario, [])] == [
        2.0, 4.0, 8.0, 16.0, 32.0]


@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [0.0], [1.0, math.nan]])
def test_admissible_lambdas_reject_bad_grids(pulse_scenario, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        vt.admissible_lambdas(pulse_scenario, bad)


def test_certify_takes_the_largest_rate_and_the_smallest_lambda_on_a_tie(pulse_scenario,
                                                                         monkeypatch):
    class Chosen(Exception):
        pass

    def chosen(scenario, lam):
        raise Chosen(lam)

    monkeypatch.setattr(vt.measures, "stream_record", chosen)
    with pytest.raises(Chosen) as info:
        vt.certify(pulse_scenario, lambdas=[8.0, 2.0, 4.0])
    assert info.value.args == (8.0,)   # the decay rate grows with lambda
    real = vt.measures.zeta_of_lambda
    monkeypatch.setattr(vt.measures, "zeta_of_lambda", lambda spec, material, lam:
                        dataclasses.replace(real(spec, material, lam), decay_rate=1.0))
    with pytest.raises(Chosen) as info:
        vt.certify(pulse_scenario, lambdas=[8.0, 2.0, 4.0])
    assert info.value.args == (2.0,)


@pytest.mark.parametrize("T, lambdas, reason", [
    (0.5, None, "infeasible window: zeta\\*T = "),
    (1.0, [1000.0, 2000.0], "sampled too coarsely"),
], ids=["window", "sampling"])
def test_certify_without_admissible_lambda_makes_no_run(pulse_scenario, monkeypatch,
                                                        T, lambdas, reason):
    runs = []
    monkeypatch.setattr(vt.solver, "run", lambda *a, **k: runs.append(a))
    with pytest.raises(vt.NoFeasibleLambda) as info:
        vt.certify(dataclasses.replace(pulse_scenario, T=T), lambdas=lambdas)
    assert runs == []
    for lam in lambdas or (2, 4, 8, 16, 32):
        assert re.search(f"lambda = {lam:g}: {reason}", str(info.value))


# ---------------------------------------------------------------------------
# surface power


def test_surface_power_zero_trajectory():
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    power = vt.surface_power(vt.record_trajectory(traj), 0.25, 4.0)
    assert not np.any(power != 0.0)


def test_surface_power_outside_influence(pulse_trajectory, pulse_record):
    # a plane the wave has not reached carries no power early on
    power = vt.surface_power(pulse_record, 0.9, 8.0)
    early = pulse_trajectory.times <= 0.05
    assert np.all(power[early] == 0.0)
    assert np.abs(power).max() > 0.0


def test_surface_power_dominated_by_weighted_density(pulse_trajectory, pulse_record,
                                                     pulse_scenario, pulse_lambda):
    # pointwise bound integrated over the plane dominates the power series
    mat = pulse_scenario.material
    spec = vt.spectrum(mat)
    decay = vt.zeta_of_lambda(spec, mat, pulse_lambda)
    r = 0.25
    idx = int(round((pulse_scenario.support_x0 + r) / pulse_scenario.grid.spacing[0]))
    power = vt.surface_power(pulse_record, r, pulse_lambda)
    for k in range(0, len(pulse_trajectory.times), 97):
        st = pulse_trajectory.states[k]
        e, gamma, kappa = kinematics(st, pulse_scenario)
        point = cn.PointState(e=e[:, :, idx], gamma=gamma[:, idx], kappa=kappa[:, idx],
                              phi=st.phi[idx], phidot=st.phidot[idx], theta=st.theta[idx])
        lhs, rhs = vt.check_surface_power_bound(point, st.v[:, idx], [1.0], mat,
                                                decay, pulse_lambda)
        weighted = math.exp(pulse_lambda * st.t)
        assert abs(power[k]) <= weighted * rhs * (1.0 + 1e-10) + 1e-30


# ---------------------------------------------------------------------------
# emission


def test_measure_csv_round_trip(tmp_path, pulse_series):
    path = tmp_path / "measures.csv"
    vt.write_measure_csv(pulse_series, path, r_stride=40, t_stride=100)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,t,E,dE_dr,dE_dt,I"
    r, t, E, dr, dt_, I = (float(v) for v in lines[1].split(","))
    assert (r, t) == (0.0, 0.0)
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    j = np.nonzero(data[:, 2] > 0)[0][0]
    rj, tj = data[j, 0], data[j, 1]
    jr = int(np.argmin(np.abs(pulse_series.r - rj)))
    jt = int(np.argmin(np.abs(pulse_series.t - tj)))
    assert data[j, 2] == pulse_series.E[jr, jt]  # 17 digits round-trip exactly


def test_measure_csv_no_partial_file(tmp_path, pulse_series, monkeypatch):
    # a failure while the table is formatted leaves neither a truncated
    # measures.csv nor its temporary file behind
    def broken(*args):
        raise MemoryError("table too large")

    monkeypatch.setattr(_csvtext, "csv_text", broken)
    with pytest.raises(MemoryError):
        vt.write_measure_csv(pulse_series, tmp_path / "measures.csv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# two-dimensional smoke


def test_two_dimensional_pipeline_smoke():
    from voidtherm.solver import BoundaryCondition, BoundaryPartition, Grid, Scenario

    mat = presets.reference_material_2d()
    faces = BoundaryPartition.all_dirichlet_zero(2).faces
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=0.15), axis=0)
    scen = Scenario(grid=Grid(extents=(1.0, 0.5), counts=(81, 41)), material=mat,
                    boundary=BoundaryPartition(faces=faces), dt="auto", T=0.5,
                    support_x0=0.2, label="2d-pulse")
    record = vt.record_trajectory(vt.run(scen, n_samples=201))
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(record, geom, 8.0)
    assert np.all(np.diff(series.E, axis=0) <= 1e-12 * series.E[0][None, :])
    assert vt.check_diff_inequality(series).ok
    rep = vt.check_energy_identity(record, 8.0)
    assert rep.residual <= 2e-2  # coarse smoke grid
    power = vt.surface_power(record, 0.2, 8.0)
    assert np.abs(power).max() > 0.0


# ---------------------------------------------------------------------------
# one pass per sample: the record filled while stepping equals the replay


def _pulse_faces(dim, flux_faces):
    from voidtherm.solver import BoundaryCondition, BoundaryPartition

    faces = BoundaryPartition.all_dirichlet_zero(dim).faces
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=0.1), axis=0)
    for face in flux_faces:
        for g in vt.solver.GROUPS:
            faces[face][g] = BoundaryCondition("flux")
    return BoundaryPartition(faces=faces)


def _stream_case(name):
    """(scenario, n_samples, geometry, region) of one equivalence case."""
    from voidtherm.solver import Grid, Scenario

    if name == "pulse1d":
        scen = presets.pulse_scenario(nodes=101, T=0.4)
        return scen, 81, vt.support_geometry(scen), None
    if name == "plate2d":
        # traction, equilibrated-stress flux and heat flux on both lateral faces
        mat = dataclasses.replace(presets.reference_material_2d(), K=1e-4 * np.eye(2))
        scen = Scenario(grid=Grid(extents=(1.0, 0.5), counts=(21, 11)), material=mat,
                        boundary=_pulse_faces(2, [(1, "min"), (1, "max")]), dt="auto",
                        T=0.3, support_x0=0.2, label="plate")
        return scen, 41, vt.support_geometry(scen), ((2, 15), (1, 9))
    if name == "box3d":
        mat = dataclasses.replace(vt.random_material(3, np.random.default_rng(4)),
                                  K=1e-4 * np.eye(3))
        scen = Scenario(grid=Grid(extents=(1.0, 0.6, 0.5), counts=(11, 7, 6)), material=mat,
                        boundary=_pulse_faces(3, [(2, "min"), (2, "max")]), dt="auto",
                        T=0.2, support_x0=0.2, label="box")
        return scen, 21, vt.support_geometry(scen), None
    # manufactured: volume sources f, ell and r, spatially varying Dirichlet data
    mat = presets.reference_material()
    grid = vt.Grid(extents=(1.0,), counts=(41,))
    scen, _ = manufactured_scenario(*presets.mms_profiles_1d(length=1.0), grid, mat,
                                    dt=0.2 / 40, T=0.3)
    geom = vt.SupportGeometry(x0=0.25, L=0.75, r_samples=np.arange(0, 29) / 40)
    return scen, 31, geom, ((3, 36),)


def _gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("region", [((5, 51),), ((3, 3),), ((5, 40), (0, 1))])
def test_record_rejects_a_region_outside_the_grid(region):
    # a box needs one (lo, hi) pair per grid axis with 0 <= lo < hi < n
    with pytest.raises(ValueError, match="not a box inside the grid"):
        vt.SampleRecord(presets.pulse_scenario(nodes=51, T=0.1), region)


@pytest.mark.parametrize("name", ["pulse1d", "plate2d", "box3d", "manufactured"])
def test_streamed_record_matches_replay(name):
    # run(reducers=[record]) fills the record from the level the stepper
    # holds; replaying the snapshots of a default run must give the same
    # profiles, identity terms, measure and surface power
    scen, n_samples, geom, region = _stream_case(name)
    lam = 4.0
    records = [vt.SampleRecord(scen), vt.SampleRecord(scen, region)]
    streamed = vt.run(scen, n_samples=n_samples, reducers=records)
    snap = vt.run(scen, n_samples=n_samples)
    assert np.array_equal(streamed.times, snap.times)
    assert streamed.log["nsteps"] == snap.log["nsteps"]
    assert np.array_equal(streamed.log["energy"], snap.log["energy"])
    assert len(streamed.states) == 1
    for key in ("u", "v", "phi", "phidot", "theta"):
        assert np.array_equal(getattr(streamed.states[-1], key), getattr(snap.states[-1], key))

    for record, box in zip(records, (None, region)):
        replayed = vt.record_trajectory(snap, box)
        for key in ("t", "profile_blocks", "box_P", "box_R", "box_power", "box_work"):
            got, want = getattr(record, key), getattr(replayed, key)
            if key == "profile_blocks":   # blocks of the same sizes, one sample axis
                got, want = np.concatenate(got, axis=1), np.concatenate(want, axis=1)
            assert _gap(got, want) <= 1e-12, key
        got = vt.check_energy_identity(record, lam)
        want = vt.check_energy_identity(replayed, lam)
        for key in ("lhs", "rhs", "scale"):
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=1e-300)
        assert got.residual == pytest.approx(want.residual, abs=1e-12)
        for key, value in want.terms.items():
            assert got.terms[key] == pytest.approx(value, rel=1e-12, abs=1e-300)
    if name == "manufactured":
        assert np.abs(records[0].box_work).max() > 0.0

    replayed = vt.record_trajectory(snap)
    got = vt.compute_measure(records[0], geom, lam)
    want = vt.compute_measure(replayed, geom, lam)
    for key in ("E", "dE_dr", "dE_dt"):
        assert _gap(getattr(got, key), getattr(want, key)) <= 1e-12, key
    assert np.abs(want.E).max() > 0.0
    h1 = scen.grid.spacing[0]
    r = (scen.grid.counts[0] // 2) * h1 - scen.support_x0   # a plane inside the grid
    want = vt.surface_power(replayed, r, lam)
    assert _gap(vt.surface_power(records[0], r, lam), want) <= 1e-12
    assert np.abs(want).max() > 0.0


# ---------------------------------------------------------------------------
# sample blocks: the block size changes no bit of what the reducers see


def _sampled_outputs(scen, n_samples, region, tmp_path):
    """What a run and the replays of its snapshots hand out, by name; and
    the sizes of the blocks the run handed its reducers."""
    records = [vt.SampleRecord(scen), vt.SampleRecord(scen, region)]
    fh, sizes = io.StringIO(), []
    streamed = vt.run(scen, n_samples=n_samples, reducers=[
        *records, vt.TrajectoryCsvWriter(scen, fh), lambda block: sizes.append(len(block.times))])
    snap = vt.run(scen, n_samples=n_samples)
    vt.write_trajectory_csv(snap, tmp_path / "replayed.csv")
    out = {"streamed csv": fh.getvalue(), "replayed csv": (tmp_path / "replayed.csv").read_text()}
    for name, traj in (("streamed", streamed), ("snapshots", snap)):
        out[f"{name} times"] = traj.times
        for key in ("energy", "theta_max"):
            out[f"{name} {key}"] = traj.log[key]
        for key in ("u", "v", "phi", "phidot", "theta"):
            out[f"{name} {key}"] = np.stack([getattr(st, key) for st in traj.states])
    replayed = [vt.record_trajectory(snap), vt.record_trajectory(snap, region)]
    for name, pair in (("streamed", records), ("replayed", replayed)):
        for box, record in zip(("grid", "region"), pair):
            out[f"{name} {box} profiles"] = np.concatenate(record.profile_blocks, axis=1)
            for key in ("t", "box_P", "box_R", "box_power", "box_work"):
                out[f"{name} {box} {key}"] = np.array(getattr(record, key))
    return out, sizes


@pytest.mark.parametrize("name", ["pulse1d", "plate2d", "box3d", "manufactured"])
def test_sample_block_size_changes_no_bit(name, tmp_path, monkeypatch):
    # B = 1 (a view of the operator's rows, the arithmetic of one sample),
    # B = 3, and one partial block for the whole run: the record's fields,
    # the log, the states, the streamed and the replayed trajectory.csv and
    # the replayed records are bit for bit the same
    scen, n_samples, _, region = _stream_case(name)
    nodes = math.prod(scen.grid.counts)
    results = []
    for size in (1, 3, n_samples + 1):
        monkeypatch.setattr(vt.solver, "SAMPLE_BLOCK", size * nodes)
        out, sizes = _sampled_outputs(scen, n_samples, region, tmp_path)
        count = len(out["streamed times"])
        assert sizes == [size] * (count // size) + ([count % size] if count % size else [])
        results.append(out)
    assert count > 3   # so B = 3 gives several blocks, and the last size one partial block
    for key, want in results[0].items():
        for got in results[1:]:
            assert np.array_equal(got[key], want), key


def test_whole_grid_box_energy_is_the_energy_log():
    # one whole-grid sum per sample: the record reads the log's number
    scen, n_samples, _, _ = _stream_case("plate2d")
    record = vt.SampleRecord(scen)
    traj = vt.run(scen, n_samples=n_samples, reducers=[record])
    assert record.box_P == traj.log["energy"].tolist()


# ---------------------------------------------------------------------------
# the measure tables in bounded memory, against the allocating formulas


PULSE_FILE = Path(__file__).resolve().parents[1] / "demos" / "inputs" / "pulse.scn"


def _reference_cumtrapz(times, values, axis=0):
    values = np.moveaxis(values, axis, 0)
    dt = np.diff(times)
    inc = 0.5 * dt.reshape((-1,) + (1,) * (values.ndim - 1)) * (values[1:] + values[:-1])
    out = np.concatenate([np.zeros((1,) + values.shape[1:]), np.cumsum(inc, axis=0)])
    return np.moveaxis(out, 0, axis)


def _reference_measure(record, geometry, lam, decay_rate):
    """(E, dE_dr, dE_dt, I) by the formulas that built every temporary:
    a list of weighted profiles, the suffix sums of a reversed view, and a
    trapezoid rule that concatenates."""
    h1 = record.scenario.grid.spacing[0]
    times = np.asarray(record.t)
    idx = np.round((geometry.x0 + geometry.r_samples) / h1).astype(int)
    prof = np.concatenate([lam * p[0] + p[1] for p in record.profile_blocks])
    weighted = np.exp(lam * times)[:, None] * prof
    suffix = np.zeros(weighted.shape)
    cell = 0.5 * h1 * (weighted[:, :-1] + weighted[:, 1:])
    suffix[:, :-1] = np.cumsum(cell[:, ::-1], axis=1)[:, ::-1]
    vol = suffix[:, idx]
    E = _reference_cumtrapz(times, vol, axis=0).T
    dE_dr = -_reference_cumtrapz(times, weighted[:, idx], axis=0).T
    I = np.exp(decay_rate * geometry.r_samples)[:, None] * E
    return E, dE_dr, vol.T, I


def _reference_identity(record, lam):
    times = np.array(record.t)
    wgt = np.exp(lam * times)
    energy = wgt * np.array(record.box_P)
    lhs_t = _reference_cumtrapz(times, wgt * (lam * np.array(record.box_P)
                                              + np.array(record.box_R)))
    surf_t = _reference_cumtrapz(times, wgt * np.array(record.box_power))
    work_t = _reference_cumtrapz(times, wgt * np.array(record.box_work))
    rhs_t = energy - surf_t - work_t - energy[0]
    scale = max(float(np.max(np.abs(energy))), float(np.max(np.abs(surf_t))),
                float(np.max(np.abs(work_t))), float(np.max(np.abs(lhs_t))), 1e-30)
    res_t = np.abs(lhs_t - rhs_t) / scale
    return (float(lhs_t[-1]), float(rhs_t[-1]), float(res_t[-1]), float(res_t.max()), scale,
            {"final_energy": float(energy[-1]), "surface_work": float(surf_t[-1]),
             "source_work": float(work_t[-1]), "initial_energy": float(energy[0])})


@pytest.fixture(scope="module")
def pulse_file_record():
    # the record verify-decay takes of demos/inputs/pulse.scn at lambda = 8
    scen = vt.read_scenario_file(PULSE_FILE)
    record = vt.SampleRecord(scen)
    vt.run(scen, n_samples=801, reducers=[record])
    return record, vt.support_geometry(scen)


def _plate_record():
    scen, _, geom, region = _stream_case("plate2d")
    record = vt.SampleRecord(scen, region)   # a sub-box for the identity
    vt.run(scen, n_samples=161, reducers=[record])   # fine enough for lambda = 32
    return record, geom


@pytest.mark.parametrize("case", ["pulse.scn", "plate2d-subbox"])
def test_measure_tables_equal_the_allocating_formulas(case, request):
    # bit for bit: the in-place tables keep every operation and its order,
    # and their layout (rows contiguous in t, as check_decay reads them)
    if case == "pulse.scn":
        record, geom = request.getfixturevalue("pulse_file_record")
    else:
        record, geom = _plate_record()
    for lam in (2.0, 8.0, 32.0):
        series = vt.compute_measure(record, geom, lam)
        want = _reference_measure(record, geom, lam, series.decay.decay_rate)
        for key, table in zip(("E", "dE_dr", "dE_dt", "I"), want):
            assert np.array_equal(getattr(series, key), table), (lam, key)
            assert getattr(series, key).strides == table.strides, (lam, key)
        assert np.abs(series.E).max() > 0.0
        rep = vt.check_energy_identity(record, lam)
        assert (rep.lhs, rep.rhs, rep.residual, rep.residual_max, rep.scale,
                rep.terms) == _reference_identity(record, lam), lam


def _traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measure_memory_is_its_tables(pulse_file_record):
    # compute_measure holds its four (r, t) tables and at most two work
    # tables; the inequality check works in row blocks of a fixed size (the
    # allocating formulas peaked at 2.75x and 3.1 tables, full-table margins
    # at 2.2 tables)
    record, geom = pulse_file_record
    series, peak = _traced_peak(lambda: vt.compute_measure(record, geom, 8.0))
    tables = [series.E, series.dE_dr, series.dE_dt, series.I]
    assert peak <= 1.5 * sum(t.nbytes for t in tables)
    rep, peak = _traced_peak(lambda: vt.check_diff_inequality(series))
    assert rep.ok and peak <= 0.25 * series.E.nbytes


def _reference_chain(series, t0, r0, tol):
    # check_decay's chain test as a loop over neighbouring samples
    decay, floor = series.decay, cn.DECAY_FLOOR
    tchar = t0 + (r0 - series.r) / decay.zeta
    e_char = np.array([np.interp(tchar[j], series.t, series.E[j])
                       for j in range(series.r.size)])
    floored = e_char <= floor
    i_char = np.exp(decay.decay_rate * series.r) * e_char
    chain = []
    for j in range(series.r.size - 1):
        if floored[j] or floored[j + 1]:
            continue
        if i_char[j + 1] > i_char[j] * (1.0 + tol):
            chain.append((float(series.r[j + 1]),
                          float(i_char[j + 1] / max(i_char[j], floor) - 1.0)))
    return chain


def test_decay_chain_violations_match_the_loop(pulse_series, pulse_scenario):
    # a crafted E, constant in t, whose weighted profile rises and falls at
    # random and is zero (floored) at every seventh depth
    decay = pulse_series.decay
    weighted = np.random.default_rng(7).uniform(0.5, 1.5, pulse_series.r.size)
    weighted[::7] = 0.0
    E = (weighted * np.exp(-decay.decay_rate * pulse_series.r))[:, None] \
        * np.ones(pulse_series.t.size)
    crafted = dataclasses.replace(pulse_series, E=E, I=None)
    h1 = pulse_scenario.grid.spacing[0]
    r0 = math.floor(min(1.0, 0.5 * decay.zeta) / h1) * h1
    t0 = 1.0 - r0 / decay.zeta
    tol = cn.DISCRETE_REL
    rep = vt.check_decay(crafted, t0, r0, tol)
    assert rep.n_floored > 0 and len(rep.chain_violations) > 10
    assert rep.chain_violations == _reference_chain(crafted, t0, r0, tol)
