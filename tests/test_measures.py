import math

import numpy as np
import pytest

import voidtherm as vt
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
    for _ in range(300):
        st = cn.random_point_state(m, rng)
        udot = rng.normal(size=3)
        assert vt.weighted_energy_density(st, udot, m, 2.0) >= -1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_field_matches_quadratic_form(dim, rng):
    # grid density of a random state against 0.5*lam*(... + z^T Q z) + ...,
    # with Q assembled independently of the constitutive kernel
    from voidtherm.constitutive import energy_density_parts
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
    P, R = energy_density_parts(e, gamma, kappa, st.phi, st.phidot, st.theta, st.v, mat)
    dens = lam * P + R
    Q = vt.assemble_quadratic_form(mat)
    for flat in rng.integers(0, st.phi.size, size=12):
        idx = np.unravel_index(flat, shape)
        z = cn.KinematicVector(E=e[(slice(None), slice(None)) + idx],
                               pi=gamma[(slice(None),) + idx], psi=st.phi[idx],
                               chi1=math.sqrt(mat.chi)).scaled_coords()
        v, k = st.v[(slice(None),) + idx], kappa[(slice(None),) + idx]
        oracle = (0.5 * lam * (mat.rho * v @ v + mat.rho * mat.chi * st.phidot[idx] ** 2
                               + mat.aHeat * st.theta[idx] ** 2 + z @ Q @ z)
                  + mat.tau * st.phidot[idx] ** 2 + k @ mat.K @ k / mat.theta0)
        assert dens[idx] == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# measure series


def test_zero_trajectory_gives_zero_series(ref_material):
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(traj, geom, ref_material, 4.0)
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
    series = vt.compute_measure(traj, geom, mat, 3.0)

    def dr_error(stride):
        fd = (series.E[2 * stride:, :] - series.E[:-2 * stride, :]) / (2 * stride * h1)
        return np.abs(fd - series.dE_dr[stride:-stride, :]).max()

    assert dr_error(4) / dr_error(2) == pytest.approx(4.0, rel=0.2)

    dt = float(series.t[1] - series.t[0])

    def dt_error(stride):
        fd = (series.E[:, 2 * stride:] - series.E[:, :-2 * stride]) / (2 * stride * dt)
        return np.abs(fd - series.dE_dt[:, stride:-stride]).max()

    assert dt_error(4) / dt_error(2) == pytest.approx(4.0, rel=0.2)


def test_finite_propagation(pulse_trajectory, pulse_scenario):
    # before the wave plus the stencil halo can reach depth r, E(r, t) is
    # exactly zero (bitwise); the measured halo at t = 0.02 is 0.27 units
    # beyond the physical cone, asserted with 0.35 for headroom
    mat = pulse_scenario.material
    geom = vt.support_geometry(pulse_scenario)
    series = vt.compute_measure(pulse_trajectory, geom, mat, 8.0)
    spec = vt.spectrum(mat)
    vmax = math.sqrt(spec.mu_M * max(1.0 / mat.rho, 1.0 / (mat.rho * mat.chi)))
    k = int(np.argmin(np.abs(series.t - 0.02)))
    t_k = series.t[k]
    reach = max(0.0, vmax * t_k - pulse_scenario.support_x0) + 0.35
    far = series.r > reach
    assert far.any()
    assert not np.any(series.E[far, k] != 0.0)
    assert series.E[0, k] > 0.0


def test_sampling_pre_check(pulse_trajectory, pulse_scenario):
    geom = vt.support_geometry(pulse_scenario)
    with pytest.raises(ValueError, match="coarsely"):
        vt.compute_measure(pulse_trajectory, geom, pulse_scenario.material, 1e4)


def test_geometry_outside_grid(pulse_trajectory, pulse_scenario):
    grid = pulse_scenario.grid
    geom = vt.SupportGeometry(x0=0.25, L=2.0,
                              r_samples=np.arange(0.0, 2.0, grid.spacing[0]))
    with pytest.raises(ValueError, match="outside"):
        vt.compute_measure(pulse_trajectory, geom, pulse_scenario.material, 8.0)


# ---------------------------------------------------------------------------
# energy identity


def test_energy_identity_zero_trajectory(ref_material):
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    rep = vt.check_energy_identity(traj, None, ref_material, 4.0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


def test_energy_identity_insulated_regression():
    # regression value pinned from the first oracle run at this exact
    # configuration (401 nodes, half-CFL step, 801 samples): 4.6e-5
    scen = presets.insulated_relaxation_scenario()
    traj = vt.run(scen, n_samples=801)
    rep = vt.check_energy_identity(traj, None, scen.material, 2.0)
    assert rep.residual <= 1e-4


def test_energy_identity_subregion(pulse_trajectory, pulse_scenario, pulse_lambda):
    # the identity holds on interior boxes, not only on the whole body
    rep = vt.check_energy_identity(pulse_trajectory, ((120, 380),),
                                   pulse_scenario.material, pulse_lambda)
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
        residuals.append(vt.check_energy_identity(traj, None, mat, 2.0).residual)
    for a, b in zip(residuals, residuals[1:]):
        assert 3.5 <= a / b <= 4.5


# ---------------------------------------------------------------------------
# differential inequality and decay


def test_diff_inequality_zero_series(ref_material):
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(traj, geom, ref_material, 4.0)
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


def test_decay_zero_series_trivially_satisfied(ref_material):
    scen = presets.pulse_scenario(nodes=51, T=1.0, amplitude=0.0)
    traj = vt.run(scen, n_samples=101)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(traj, geom, ref_material, 4.0)
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
# surface power


def test_surface_power_zero_trajectory(ref_material):
    scen = presets.pulse_scenario(nodes=51, T=0.1, amplitude=0.0)
    traj = vt.run(scen, n_samples=21)
    power = vt.surface_power(traj, 0.25, ref_material, 4.0)
    assert not np.any(power != 0.0)


def test_surface_power_outside_influence(pulse_trajectory, pulse_scenario):
    # a plane the wave has not reached carries no power early on
    power = vt.surface_power(pulse_trajectory, 0.9, pulse_scenario.material, 8.0)
    early = pulse_trajectory.times <= 0.05
    assert np.all(power[early] == 0.0)
    assert np.abs(power).max() > 0.0


def test_surface_power_dominated_by_weighted_density(pulse_trajectory, pulse_scenario,
                                                     pulse_lambda):
    # pointwise bound integrated over the plane dominates the power series
    mat = pulse_scenario.material
    spec = vt.spectrum(mat)
    decay = vt.zeta_of_lambda(spec, mat, pulse_lambda)
    r = 0.25
    idx = int(round((pulse_scenario.support_x0 + r) / pulse_scenario.grid.spacing[0]))
    power = vt.surface_power(pulse_trajectory, r, mat, pulse_lambda)
    for k in range(0, len(pulse_trajectory.times), 97):
        st = pulse_trajectory.states[k]
        e, gamma, kappa = kinematics(st, pulse_scenario)
        point = cn.PointState(e=e[:, :, idx], gamma=gamma[:, idx], kappa=kappa[:, idx],
                              phi=st.phi[idx], phidot=st.phidot[idx], theta=st.theta[idx])
        lhs, rhs = vt.check_surface_power_bound(point, st.v[:, idx], [1.0], mat,
                                                decay, pulse_lambda, spec=spec)
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
    traj = vt.run(scen, n_samples=201)
    geom = vt.support_geometry(scen)
    series = vt.compute_measure(traj, geom, mat, 8.0)
    assert np.all(np.diff(series.E, axis=0) <= 1e-12 * series.E[0][None, :])
    assert vt.check_diff_inequality(series).ok
    rep = vt.check_energy_identity(traj, None, mat, 8.0)
    assert rep.residual <= 2e-2  # coarse smoke grid
    power = vt.surface_power(traj, 0.2, mat, 8.0)
    assert np.abs(power).max() > 0.0
