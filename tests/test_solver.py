import dataclasses
import itertools
import math

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import presets
from voidtherm.mms import manufactured_scenario, static_equilibrium_scenario
from voidtherm.solver import (BoundaryCondition, BoundaryPartition, SimState,
                              Trajectory, face_slice, initial_arrays, validate_scenario)


def quiet_scenario(nodes=41, T=0.05, material=None, length=1.25):
    return presets.pulse_scenario(material=material, nodes=nodes, T=T,
                                  length=length, amplitude=0.0)


# ---------------------------------------------------------------------------
# basics


def test_null_solution_preserved_bitwise():
    traj = vt.run(quiet_scenario(), n_samples=5)
    for st in traj.states:
        for arr in (st.u, st.v, st.phi, st.phidot, st.theta):
            assert not np.any(arr != 0.0)


def test_rigid_translation_is_stationary():
    scen = quiet_scenario(T=0.04)
    scen.initial = {"u": lambda X: np.full((1,) + X[0].shape, 0.37)}
    # clamp the ends at the same offset so the data is consistent
    scen.support_x0 = scen.grid.extents[0]
    for key in scen.boundary.faces:
        scen.boundary.faces[key]["displacement"] = BoundaryCondition(
            "dirichlet", fielddata=vt.FieldData(
                value=lambda X, t: np.full((1,) + np.shape(X[0]), 0.37),
                rate=lambda X, t: np.zeros((1,) + np.shape(X[0]))))
    traj = vt.run(scen, n_samples=5)
    last = traj.states[-1]
    assert np.abs(last.u - 0.37).max() <= 1e-13
    assert np.abs(last.v).max() <= 1e-13
    assert np.abs(last.theta).max() <= 1e-15


def test_horizon_zero_gives_initial_state_only():
    scen = quiet_scenario(T=0.0)
    traj = vt.run(scen)
    assert len(traj.states) == 1
    assert traj.times[0] == 0.0


def test_sampling_is_read_only():
    scen = presets.pulse_scenario(nodes=101, T=0.1)
    coarse = vt.run(scen, n_samples=6)
    fine = vt.run(scen, n_samples=11)
    shared = {round(t, 12) for t in coarse.times} & {round(t, 12) for t in fine.times}
    assert len(shared) >= 3
    for t in sorted(shared):
        a = coarse.states[int(np.argmin(np.abs(coarse.times - t)))]
        b = fine.states[int(np.argmin(np.abs(fine.times - t)))]
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.theta, b.theta)


def test_run_determinism():
    scen = presets.pulse_scenario(nodes=101, T=0.1)
    a = vt.run(scen, n_samples=6)
    b = vt.run(scen, n_samples=6)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.theta, sb.theta)


def test_states_own_their_memory():
    # the stepper works in place on its own buffers; a sampled state must not
    # alias them, another state, or a state of another run
    scen = presets.pulse_scenario(nodes=61, T=0.05)
    first = vt.run(scen, n_samples=6)
    second = vt.run(scen, n_samples=6)
    fields = ("u", "v", "phi", "phidot", "theta")
    arrays = [getattr(st, f) for traj in (first, second) for st in traj.states for f in fields]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)
    for f in fields:
        getattr(first.states[-1], f)[...] = np.nan
        getattr(first.states[0], f)[...] = 1.0
    third = vt.run(scen, n_samples=6)
    for sa, sb in zip(second.states, third.states):
        assert sa.t == sb.t
        for f in fields:
            assert np.array_equal(getattr(sa, f), getattr(sb, f))
    assert np.array_equal(second.log["energy"], third.log["energy"])


@pytest.mark.parametrize("dim", (1, 2))
def test_energy_log_matches_sampled_states(dim):
    # the energy log reuses the stepper's gradients of each level; recomputed
    # from the sampled states through kinematics it must be the same number
    from voidtherm.constitutive import energy_density_parts

    rng = np.random.default_rng(3)
    mat = dataclasses.replace(vt.random_material(dim, rng), K=1e-3 * np.eye(dim))
    grid = vt.Grid(extents=(1.0,) * dim, counts=(41, 21)[:dim])
    faces = BoundaryPartition.all_dirichlet_zero(dim).faces
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=0.1))
    for g in vt.solver.GROUPS:
        faces[(0, "max")][g] = BoundaryCondition("flux")
    scen = vt.Scenario(grid=grid, material=mat, boundary=BoundaryPartition(faces=faces),
                       dt="auto", T=0.2, support_x0=1.0)
    traj = vt.run(scen, n_samples=9)
    weights = vt.solver.trapezoid_weights(grid.counts, grid.spacing)
    for st, logged in zip(traj.states, traj.log["energy"]):
        P, _ = energy_density_parts(*vt.kinematics(st, scen), st.phi, st.phidot, st.theta,
                                    st.v, mat)
        assert logged == pytest.approx(float(np.sum(weights * P)), rel=1e-12, abs=1e-300)
    assert traj.log["energy"][-1] > 0.0


def test_step_matches_run():
    scen = presets.pulse_scenario(nodes=61, T=0.02)
    dt = scen.resolve_dt()
    nsteps = max(1, round(scen.T / dt))
    scen.dt = scen.T / nsteps
    traj = vt.run(scen, n_samples=nsteps + 1)
    u0, v0, phi0, pdot0, theta0 = initial_arrays(scen)
    state = SimState(t=0.0, u=u0, v=v0, phi=phi0, phidot=pdot0, theta=theta0)
    state = vt.step(state, scen)
    assert np.allclose(state.u, traj.states[1].u, atol=1e-15)
    assert np.allclose(state.theta, traj.states[1].theta, atol=1e-15)


# ---------------------------------------------------------------------------
# stability policy


def test_stability_budget_values():
    scen = quiet_scenario()
    scen.material = vt.Material(dim=1, C=1.0, A=1.0, K=0.0, rho=1.0, chi=1.0,
                                aHeat=1.0, theta0=1.0, xi=1.0)
    _, growth = vt.stability_budget(scen)
    assert growth == 1.0

    m = vt.Material(dim=1, C=1.0, A=1.0, K=1e-4, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    scen = presets.pulse_scenario(material=m, nodes=21, length=1.0, T=1.0)
    # h = 0.05: the budget formula evaluated directly
    _, growth = vt.stability_budget(scen)
    assert growth == pytest.approx(math.exp(1e-4 * (math.pi / 0.05) ** 2), rel=1e-12)

    half = presets.pulse_scenario(material=m, nodes=41, length=1.0, T=1.0)
    _, growth_half = vt.stability_budget(half)
    assert math.log(growth_half) == pytest.approx(4.0 * math.log(growth), rel=1e-12)


def test_budget_exceeded_raises():
    m = vt.Material(dim=1, C=1.0, A=1.0, K=0.1, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    scen = presets.pulse_scenario(material=m, nodes=201, T=1.0)
    with pytest.raises(vt.BudgetExceeded):
        vt.stability_budget(scen)
    with pytest.raises(vt.BudgetExceeded):
        vt.run(scen)


def test_cfl_violation_raises():
    scen = quiet_scenario()
    dt_max, _ = vt.stability_budget(scen)
    scen.dt = 2.0 * dt_max
    with pytest.raises(vt.CflViolation):
        vt.run(scen)


def test_nonfinite_fields_are_detected():
    # a poisoned node must fail loudly with its location, never propagate
    # silently (this is the backstop behind the anti-diffusive direction)
    scen = presets.standing_wave_scenario(nodes=41, T=0.1)

    def poisoned(X):
        out = np.zeros((1,) + X[0].shape)
        out[0, 17] = np.nan
        return out

    scen.initial = {"u": poisoned}
    with pytest.raises(vt.NonFiniteField, match="node"):
        vt.run(scen, n_samples=3)


# ---------------------------------------------------------------------------
# energy behaviour


def test_pure_elastic_void_energy_drift():
    # tau = 0, no conductivity, no thermal coupling: Verlet keeps the
    # discrete energy within 1e-3 relative over the horizon at half CFL
    scen = presets.standing_wave_scenario(nodes=101, T=1.0)
    traj = vt.run(scen, n_samples=101)
    energy = traj.log["energy"]
    assert np.abs(energy - energy[0]).max() <= 1e-3 * energy[0]


# ---------------------------------------------------------------------------
# manufactured solutions


def test_manufactured_zero_profile_gives_zero_sources():
    import sympy as sp

    mat = presets.reference_material()
    grid = vt.Grid(extents=(1.0,), counts=(21,))
    scen, exact = manufactured_scenario([sp.Integer(0)], sp.Integer(0), sp.Integer(0),
                                        grid, mat, T=0.1)
    X = scen.mesh()
    assert np.all(scen.source("f", 0.3) == 0.0)
    assert np.all(scen.source("ell", 0.3) == 0.0)
    assert np.all(scen.source("r", 0.3) == 0.0)
    assert np.all(exact.u(X, 0.2) == 0.0)


def test_manufactured_solution_convergence_order():
    mat = presets.reference_material()
    u, phi, theta = presets.mms_profiles_1d(length=1.0)
    errs = []
    for n in (51, 101):
        grid = vt.Grid(extents=(1.0,), counts=(n,))
        h = 1.0 / (n - 1)
        scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h, T=0.4)
        traj = vt.run(scen, n_samples=5)
        errs.append(exact.errors(traj.states[-1], scen))
    for key in ("u", "phi", "theta"):
        ratio = errs[0][key] / errs[1][key]
        assert 3.0 <= ratio <= 5.0, (key, ratio)


@pytest.mark.parametrize("dim, nodes, T", [(1, (51, 101), 0.4), (2, (17, 33), 0.2)],
                         ids=("1d", "2d"))
def test_manufactured_truncation_residual_order(dim, nodes, T):
    # residual of the exact fields in the discrete balances: clean order 2
    if dim == 1:
        mat, (u, phi, theta) = presets.reference_material(), presets.mms_profiles_1d(length=1.0)
    else:
        mat, (u, phi, theta) = presets.reference_material_2d(), presets.mms_profiles_2d()
    vals = []
    for n in nodes:
        grid = vt.Grid(extents=(1.0,) * dim, counts=(n,) * dim)
        h = 1.0 / (n - 1)
        nsteps = int(round(T / (0.2 * h)))
        scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.2 * h, T=T)
        X = scen.mesh()
        times = np.linspace(0.0, T, nsteps + 1)
        states = [SimState(t=float(t), u=exact.u(X, float(t)), v=exact.udot(X, float(t)),
                           phi=exact.phi(X, float(t)), phidot=exact.phidot(X, float(t)),
                           theta=exact.theta(X, float(t))) for t in times]
        traj = Trajectory(scenario=scen, times=times, states=states)
        vals.append(vt.pde_residual(traj, boundary_margin=2))
    for key in ("momentum", "void", "thermal"):
        ratio = vals[0][key] / vals[1][key]
        assert 3.5 <= ratio <= 4.5, (key, ratio)


def test_static_profile_stays_in_equilibrium():
    import sympy as sp

    mat = presets.reference_material()
    grid = vt.Grid(extents=(1.0,), counts=(61,))
    x1 = sp.Symbol("x1", real=True)
    scen, exact = static_equilibrium_scenario([sp.Float(0.05) * sp.sin(sp.pi * x1)],
                                              grid, mat, T=0.3)
    traj = vt.run(scen, n_samples=4)
    err = exact.errors(traj.states[-1], scen)
    # discrete equilibrium differs from the analytic one by O(h^2) only
    assert err["u"] <= 1e-4
    assert err["udot"] <= 1e-3
    drift = np.abs(traj.states[-1].u - traj.states[1].u).max()
    assert drift <= 2e-4


def test_manufactured_2d_smoke():
    mat = presets.reference_material_2d()
    u, phi, theta = presets.mms_profiles_2d()
    errs = []
    for n in (17, 33):
        grid = vt.Grid(extents=(1.0, 1.0), counts=(n, n))
        h = 1.0 / (n - 1)
        scen, exact = manufactured_scenario(u, phi, theta, grid, mat, dt=0.15 * h, T=0.25)
        traj = vt.run(scen, n_samples=3)
        errs.append(exact.errors(traj.states[-1], scen))
    assert errs[0]["u"] / errs[1]["u"] == pytest.approx(4.0, abs=1.2)


def mms_profiles_3d():
    """Smooth 3D manufactured fields exercising every coupling on the unit
    cube (the benchmark's 3D ladder uses the same fields)."""
    import sympy as sp

    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True)
    t = sp.Symbol("t", real=True)
    pi, F = sp.pi, sp.Float
    u = [F(0.05) * sp.sin(pi * x1) * sp.cos(pi * x2) * sp.cos(pi * x3) * sp.cos(t),
         F(0.04) * sp.cos(pi * x1) * sp.sin(pi * x2) * sp.cos(pi * x3) * sp.sin(t),
         F(0.03) * sp.cos(pi * x1) * sp.cos(pi * x2) * sp.sin(pi * x3) * sp.cos(F(1.2) * t)]
    phi = F(0.03) * sp.sin(pi * x1) * sp.sin(pi * x2) * sp.sin(pi * x3) * sp.cos(F(0.9) * t)
    theta = F(0.02) * sp.cos(pi * x1) * sp.cos(pi * x2) * sp.cos(pi * x3) * sp.sin(F(0.8) * t)
    return u, phi, theta


def reference_material_3d():
    """Isotropic 3D analogue of ``presets.reference_material_2d``."""
    lam_e, mu_e = 1.0, 0.8
    eye = np.eye(3)
    C = (lam_e * np.einsum("ij,rs->ijrs", eye, eye)
         + mu_e * (np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)))
    return vt.Material(dim=3, C=C, A=0.8 * eye, K=2e-6 * eye, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=0.9, m=0.05, tau=0.0,
                       B=0.15 * eye, M=0.1 * eye)


def test_manufactured_3d_smoke():
    # Dirichlet data on every face; temperature reported but not gated (its
    # order is lower next to Dirichlet faces)
    mat = reference_material_3d()
    errs = []
    for n in (9, 17):
        grid = vt.Grid(extents=(1.0,) * 3, counts=(n,) * 3)
        scen, exact = manufactured_scenario(*mms_profiles_3d(), grid, mat,
                                            dt=0.15 * grid.spacing[0], T=0.25)
        errs.append(exact.errors(vt.run(scen, n_samples=3).states[-1], scen))
    for key in ("u", "udot", "phi", "phidot"):
        ratio = errs[0][key] / errs[1][key]
        assert 3.5 <= ratio <= 4.5, (key, ratio)


def exact_face_flux(profiles, mat, face, group, order):
    """Face data sigma * (S n, h.n or q.n) of the manufactured fields on one
    face (time derivative ``order``), from their exact gradients through
    ``field_response``."""
    import sympy as sp

    from voidtherm.mms import TIME, space_symbols

    u, phi, theta = profiles
    xs = tuple(np.atleast_1d(space_symbols(mat.dim)))

    def field(expr):
        fn = sp.lambdify((*xs, TIME), sp.diff(expr, TIME, order))
        return lambda X, t: np.broadcast_to(np.asarray(fn(*X, t), dtype=float), np.shape(X[0]))

    du = [[field(sp.diff(ui, x)) for x in xs] for ui in u]
    gamma, kappa = ([field(sp.diff(f, x)) for x in xs] for f in (phi, theta))
    phi_t, theta_t = field(phi), field(theta)
    axis, side = face
    sigma = -1.0 if side == "min" else 1.0

    def value(X, t):
        grad = np.array([[f(X, t) for f in row] for row in du])
        S, h, _, q = vt.solver.field_response(
            0.5 * (grad + grad.swapaxes(0, 1)), np.array([f(X, t) for f in gamma]),
            np.array([f(X, t) for f in kappa]), phi_t(X, t), theta_t(X, t), mat)
        return sigma * {"displacement": S[:, axis], "void": h[axis], "thermal": q[axis]}[group]

    return value


@pytest.mark.parametrize("dim, nodes, T, faces", [
    (1, (101, 201, 401), 0.4, [(0, "max")]),
    (2, (33, 65), 0.15, [(1, "min"), (1, "max")]),
])
def test_manufactured_flux_faces_convergence_order(dim, nodes, T, faces, rng):
    # flux data in all three groups on the given faces, read off the exact
    # fields; a random material with small conductivity keeps every coupling
    # block active (D, B, b, M, aVec) inside the stability budget
    base = vt.random_material(dim, rng)
    mat = dataclasses.replace(base, K=1e-6 * base.K)
    profiles = presets.mms_profiles_1d() if dim == 1 else presets.mms_profiles_2d()
    errs = []
    for n in nodes:
        grid = vt.Grid(extents=(1.0,) * dim, counts=(n,) * dim)
        scen, exact = manufactured_scenario(*profiles, grid, mat, T=T)
        for face in faces:
            for g in vt.solver.GROUPS:
                scen.boundary.faces[face][g] = BoundaryCondition("flux", fielddata=vt.FieldData(
                    value=exact_face_flux(profiles, mat, face, g, 0),
                    rate=exact_face_flux(profiles, mat, face, g, 1)))
        last = vt.run(scen, n_samples=3).states[-1]
        # two node layers in: the outer layers see composed one-sided
        # stencils, whose max-norm ratios are not yet asymptotic at these sizes
        core = (Ellipsis,) + (slice(2, -2),) * dim
        X = scen.mesh()
        errs.append({key: np.abs((getattr(last, attr) - getattr(exact, key)(X, last.t))[core]).max()
                     for key, attr in (("u", "u"), ("udot", "v"), ("phi", "phi"),
                                       ("phidot", "phidot"))})
    for coarse, fine in zip(errs, errs[1:]):
        for key in coarse:
            assert 3.5 <= coarse[key] / fine[key] <= 4.5, (key, coarse[key] / fine[key])


# ---------------------------------------------------------------------------
# boundary fluxes


def test_static_traction_pull_1d():
    # bar pulled at the far end: equilibrium is a uniform strain s*/C
    m = vt.Material(dim=1, C=2.0, A=1.0, K=1e-6, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0, tau=0.0)
    faces = BoundaryPartition.all_dirichlet_zero(1).faces
    sstar = 0.002
    ramp = vt.RaisedCosinePulse(amplitude=sstar, t_end=10.0)  # slow quasi-static ramp
    faces[(0, "max")]["displacement"] = BoundaryCondition("flux", signal=ramp)
    scen = vt.Scenario(grid=vt.Grid(extents=(1.0,), counts=(81,)), material=m,
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=2.0,
                       support_x0=1.0)
    traj = vt.run(scen, n_samples=41)
    last = traj.states[-1]
    e, _, _ = vt.kinematics(last, scen)
    # boundary strain matches the applied traction to second order
    expected = ramp.value(2.0) / 2.0
    assert e[0, 0, -1] == pytest.approx(expected, rel=1e-3)


def test_heat_flux_boundary_balance():
    # prescribed inward heat flux on the far end of a conduction-only bar
    # (dissipative direction): theta rises; the discrete flux matches data
    m = vt.Material(dim=1, C=1.0, A=1.0, K=0.02, rho=1.0, chi=1.0,
                    aHeat=1.0, theta0=1.0, xi=1.0)
    faces = BoundaryPartition.all_dirichlet_zero(1).faces
    faces[(0, "max")]["thermal"] = BoundaryCondition(
        "flux", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=4.0))
    scen = vt.Scenario(grid=vt.Grid(extents=(1.0,), counts=(41,)), material=m,
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=0.5,
                       support_x0=1.0)
    traj = vt.run(scen, n_samples=11, dissipative=True)
    last = traj.states[-1]
    _, _, kappa = vt.kinematics(last, scen)
    qstar = vt.RaisedCosinePulse(amplitude=0.01, t_end=4.0).value(last.t)
    assert m.K[0, 0] * kappa[0, -1] == pytest.approx(qstar, rel=1e-9)
    assert traj.log["growth_factor"] > 1e3  # cap waived for the damped direction
    assert last.theta.max() > 0.0


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_face_flux_balance_every_combination(dim):
    # on every flux face the nodal normal flux of the corrected kinematics
    # equals the data: sigma S[:, a] = traction, sigma h[a] = void flux,
    # sigma q[a] = heat flux (sigma = -1 on min faces); checked off edges and
    # corners, where a second face's correction takes over
    rng = np.random.default_rng(7 + dim)
    mat = vt.random_material(dim, rng)
    grid = vt.Grid(extents=(1.0,) * dim, counts=(7, 6, 5)[:dim])
    X = grid.mesh()
    state = SimState(t=0.3, u=rng.normal(size=(dim,) + grid.counts),
                     v=np.zeros((dim,) + grid.counts), phi=rng.normal(size=grid.counts),
                     phidot=np.zeros(grid.counts), theta=rng.normal(size=grid.counts))
    for kinds in itertools.product(("dirichlet", "flux"), repeat=3):
        faces, data = {}, {}
        for axis in range(dim):
            for side in ("min", "max"):
                face_shape = X[0][face_slice(axis, side, dim)].shape
                faces[(axis, side)] = {}
                for g, kind, size in zip(vt.solver.GROUPS, kinds, ((dim,), (), ())):
                    values = rng.normal(size=size + face_shape)
                    data[(axis, side, g)] = values
                    faces[(axis, side)][g] = BoundaryCondition(kind, fielddata=vt.FieldData(
                        value=lambda X, t, a=values: a, rate=lambda X, t, a=values: 0.0 * a))
        scen = vt.Scenario(grid=grid, material=mat, boundary=BoundaryPartition(faces=faces),
                           dt="auto", T=1.0, support_x0=1.0)
        e, gamma, kappa = vt.kinematics(state, scen)
        S, h, _, q = vt.solver.field_response(e, gamma, kappa, state.phi, state.theta, mat)
        for (axis, side), groups in faces.items():
            sigma = -1.0 if side == "min" else 1.0
            inner = face_slice(axis, side, dim)
            inner = tuple(slice(1, -1) if j != axis else ix for j, ix in enumerate(inner))
            flux = {"displacement": S[(slice(None), axis) + inner],
                    "void": h[(axis,) + inner], "thermal": q[(axis,) + inner]}
            for g, bc in groups.items():
                if bc.kind != "flux":
                    continue
                want = data[(axis, side, g)][(Ellipsis,) + (slice(1, -1),) * (dim - 1)]
                gap = np.abs(sigma * flux[g] - want).max() / np.abs(want).max()
                assert gap <= 1e-12, (kinds, axis, side, g, gap)


# ---------------------------------------------------------------------------
# support validation


def test_support_check_rejects_data_outside_slab():
    scen = presets.pulse_scenario(nodes=41)
    scen.initial = {"theta": vt.CosineBump(amplitude=0.1, center=(0.8,), width=0.1)}
    errors, _ = validate_scenario(scen)
    assert any("support" in e for e in errors)
    with pytest.raises(ValueError, match="support"):
        vt.run(scen)


def test_support_check_rejects_far_face_data():
    scen = presets.pulse_scenario(nodes=41)
    scen.boundary.faces[(0, "max")]["void"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.1, t_end=0.2))
    errors, _ = validate_scenario(scen)
    assert any("support" in e for e in errors)


def test_incompatible_corner_data_is_flagged_not_rejected():
    scen = presets.pulse_scenario(nodes=41)
    scen.boundary.faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.WindowedGaussianPulse(amplitude=0.01, center=0.0,
                                                     sigma=0.05, t_end=0.2))
    errors, warnings = validate_scenario(scen)
    assert not errors
    assert warnings == []  # gaussian window vanishes at t = 0: compatible
    scen.initial = {"phi": vt.CosineBump(amplitude=0.05, center=(0.0,), width=0.1)}
    errors, warnings = validate_scenario(scen)
    assert not errors
    assert any("disagree" in w for w in warnings)


# ---------------------------------------------------------------------------
# time reversal


def test_reversal_is_involution():
    scen = presets.insulated_relaxation_scenario(nodes=101, T=0.2)
    fwd = vt.run(scen, n_samples=21, dissipative=True)
    back = vt.reverse_time(vt.reverse_time(fwd))
    for a, b in zip(fwd.states, back.states):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.theta, b.theta)


def test_constant_trajectory_is_reversal_fixed_point():
    scen = quiet_scenario(nodes=21, T=0.02)
    traj = vt.run(scen, n_samples=5)
    rev = vt.reverse_time(traj)
    for a, b in zip(traj.states, rev.states):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)


def test_residual_sees_the_time_direction():
    # demo 04's conduction-only bump: measured against the operator of the
    # other direction, the temperature rate has the wrong sign
    cond = vt.Material(dim=1, C=1.0, A=1.0, K=5e-5, rho=1.0, chi=1.0,
                       aHeat=1.0, theta0=1.0, xi=1.0)
    heat = vt.Scenario(grid=vt.Grid(extents=(1.25,), counts=(201,)), material=cond,
                       boundary=BoundaryPartition.all_dirichlet_zero(1), dt="auto", T=0.4,
                       support_x0=1.25,
                       initial={"theta": vt.CosineBump(amplitude=0.05, center=(0.6,),
                                                       width=0.15)})
    for dissipative in (True, False):
        traj = vt.run(heat, n_samples=81, dissipative=dissipative)
        right = vt.pde_residual(traj)["thermal"]
        traj.dissipative = not dissipative
        wrong = vt.pde_residual(traj)["thermal"]
        assert wrong >= 1e3 * right, (dissipative, wrong, right)


def test_reversed_run_solves_the_antidissipative_equations():
    scen = presets.insulated_relaxation_scenario(nodes=151, T=0.3)
    fwd = vt.run(scen, n_samples=61, dissipative=True)
    res_fwd = vt.pde_residual(fwd)  # dissipative residual of the forward run
    rev = vt.reverse_time(fwd)
    assert rev.dissipative is False
    res_rev = vt.pde_residual(rev)  # anti-dissipative residual of the image
    for key in res_fwd:
        assert res_rev[key] == pytest.approx(res_fwd[key], rel=1e-9)


# ---------------------------------------------------------------------------
# scenario files


PULSE_FILE = """\
dim = 1
extent = 1.25
nodes = 101
dt = auto
T = 0.5
support_x0 = 0.25
material = ref.mat
label = filed-pulse
face.x1min.displacement = dirichlet raised_cosine amplitude=0.01 t_end=0.2
face.x1min.void = dirichlet zero
face.x1min.thermal = dirichlet zero
face.x1max.displacement = dirichlet zero
face.x1max.void = dirichlet zero
face.x1max.thermal = dirichlet zero
"""


def write_pulse_files(tmp_path):
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
    (tmp_path / "pulse.scn").write_text(PULSE_FILE)
    return tmp_path / "pulse.scn"


def test_scenario_file_round_trip(tmp_path):
    path = write_pulse_files(tmp_path)
    scen = vt.read_scenario_file(path)
    assert scen.grid.counts == (101,)
    assert scen.T == 0.5
    assert scen.label == "filed-pulse"
    bc = scen.boundary.faces[(0, "min")]["displacement"]
    assert isinstance(bc.signal, vt.RaisedCosinePulse)
    assert bc.signal.amplitude == 0.01
    traj = vt.run(scen, n_samples=5)
    assert np.isfinite(traj.log["energy"]).all()


def test_scenario_file_errors(tmp_path):
    vt.write_material_file(presets.reference_material(), tmp_path / "ref.mat")
    bad = PULSE_FILE.replace("support_x0 = 0.25\n", "")
    (tmp_path / "a.scn").write_text(bad)
    with pytest.raises(vt.ScenarioFileError, match="missing"):
        vt.read_scenario_file(tmp_path / "a.scn")

    bad = PULSE_FILE + "face.x1min.displacement = dirichlet warble amplitude=1\n"
    (tmp_path / "b.scn").write_text(bad)
    with pytest.raises(vt.ScenarioFileError, match="unknown signal"):
        vt.read_scenario_file(tmp_path / "b.scn")

    bad = PULSE_FILE.replace("face.x1max.thermal = dirichlet zero\n", "")
    (tmp_path / "c.scn").write_text(bad)
    with pytest.raises(vt.ScenarioFileError, match="thermal"):
        vt.read_scenario_file(tmp_path / "c.scn")


def test_trajectory_csv_dump(tmp_path):
    scen = presets.pulse_scenario(nodes=51, T=0.05)
    traj = vt.run(scen, n_samples=3)
    path = tmp_path / "traj.csv"
    vt.write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,u1,v1,phi,phidot,theta"
    assert len(lines) == 1 + 3 * 51
