import dataclasses
import itertools
import math

import numpy as np
import pytest

import voidtherm as vt
from voidtherm import presets
from voidtherm.mms import manufactured_scenario
from voidtherm.solver import (BoundaryCondition, BoundaryPartition, SimState,
                              Trajectory, _face_data, face_slice, initial_arrays,
                              validate_scenario)


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
    # from the sampled states by a replay it must be the same number
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
    replayed = vt.record_trajectory(traj).box_P
    for logged, energy in zip(traj.log["energy"], replayed, strict=True):
        assert logged == pytest.approx(energy, rel=1e-12, abs=1e-300)
    assert traj.log["energy"][-1] > 0.0


@pytest.mark.parametrize("nodes, T, n_samples, want", [
    (201, 0.4, 161, 125),   # 372 steps at stride 3: a cap, not a count
    (201, 0.4, 2, 2),       # the end points only
    (41, 0.05, 1000, None), # more samples than steps: one per step
])
def test_n_samples_is_a_cap(nodes, T, n_samples, want):
    # stride = ceil(nsteps / (n_samples - 1)), the step count padded to a
    # multiple of it: at most n_samples uniform samples, t = 0 and t = T
    # among them
    scen = presets.insulated_relaxation_scenario(nodes=nodes, T=T)
    traj = vt.run(scen, n_samples=n_samples, dissipative=True)
    times, nsteps = traj.times, traj.log["nsteps"]
    stride = nsteps // (len(times) - 1)
    assert len(times) <= n_samples
    assert times[0] == 0.0 and times[-1] == pytest.approx(T, rel=1e-12)
    assert np.allclose(np.diff(times), stride * traj.log["dt"], rtol=1e-12, atol=0.0)
    unpadded = max(1, round(T / scen.resolve_dt()))
    assert stride == math.ceil(unpadded / (n_samples - 1))
    assert nsteps == stride * math.ceil(unpadded / stride)
    assert len(times) == (want if want is not None else nsteps + 1)


@pytest.mark.parametrize("n_samples", [1, 0, -3])
def test_n_samples_below_two_raises(n_samples):
    # t = 0 and t = T are always sampled, so fewer than two cannot be kept
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        vt.run(presets.pulse_scenario(nodes=51, T=0.1), n_samples=n_samples)


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


def test_run_computes_the_spectrum_once(monkeypatch):
    # dt = "auto" takes its step from the wave bound that the gate computed
    from voidtherm import solver

    calls = []
    spectrum = solver.material_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(solver, "material_spectrum", counted)
    scen = quiet_scenario()
    assert scen.dt == "auto"
    vt.run(scen, n_samples=3)
    assert len(calls) == 1


def test_cfl_violation_raises():
    scen = quiet_scenario()
    dt_max, _ = vt.stability_budget(scen)
    scen.dt = 2.0 * dt_max
    with pytest.raises(vt.CflViolation):
        vt.run(scen)


@pytest.mark.parametrize("fraction", [0.9, 0.99])
def test_cfl_checks_the_step_taken(fraction):
    # T = 1.45 dt rounds to one step of size T, above the wave bound although
    # the requested dt is below it
    scen = presets.pulse_scenario(nodes=101)
    dt_max, _ = vt.stability_budget(scen)
    scen.dt = fraction * dt_max
    scen.T = 1.45 * scen.dt
    with pytest.raises(vt.CflViolation, match="exceeds the wave bound"):
        vt.run(scen)


@pytest.mark.parametrize("dissipative", [False, True])
def test_cfl_checks_the_memory_term(dissipative):
    # the implicit kick divides by 1 - (dt/2) tau / (rho chi), here -0.25 in
    # the anti-dissipative direction; the dissipative direction damps and runs
    scen = quiet_scenario()
    dt = 0.5 * vt.stability_budget(scen)[0]
    mat = scen.material
    scen = quiet_scenario(material=dataclasses.replace(mat, tau=2.5 * mat.rho * mat.chi / dt))
    scen.dt, scen.T = dt, 10 * dt
    if dissipative:
        assert np.isfinite(vt.run(scen, dissipative=True).states[-1].phidot).all()
    else:
        with pytest.raises(vt.CflViolation, match="memory term tau"):
            vt.run(scen)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_bad_time_step_raises(dt):
    scen = presets.pulse_scenario(nodes=101, dt=dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        vt.run(scen)


@pytest.mark.parametrize("T", [math.nan, math.inf, -0.1])
def test_bad_horizon_raises(T):
    scen = presets.pulse_scenario(nodes=101, T=T)
    with pytest.raises(ValueError, match="horizon T must be finite and nonnegative"):
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


@pytest.mark.parametrize("dim, tau", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)],
                         ids=("0.5", "2.0", "2d-0.5", "2d-2.0"))
def test_memory_term_second_order_in_time(dim, tau):
    # time-only Richardson triple at fixed nodes (101 in 1D, 33 x 33 in 2D):
    # the differences of the final phi and phidot between dt, dt/2 and dt/4
    # fall by about 4 (a rate term lagging by dt/2 reads about 2)
    if dim == 1:
        mat, profiles, n, dt, T = (presets.reference_material(), presets.mms_profiles_1d(), 101,
                                   2e-3, 0.4)
    else:
        mat, profiles, n, dt, T = (presets.reference_material_2d(), presets.mms_profiles_2d(),
                                   33, 4e-3, 0.2)
    mat = dataclasses.replace(mat, tau=tau)
    grid = vt.Grid(extents=(1.0,) * dim, counts=(n,) * dim)
    finals = []
    for step in (dt, dt / 2, dt / 4):
        scen, _ = manufactured_scenario(*profiles, grid, mat, dt=step, T=T)
        finals.append(vt.run(scen, n_samples=2).states[-1])
    for key in ("phi", "phidot"):
        a, b, c = (getattr(state, key) for state in finals)
        ratio = np.abs(a - b).max() / np.abs(b - c).max()
        assert ratio >= 3.5, (key, ratio)


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
    scen, exact = manufactured_scenario([sp.Float(0.05) * sp.sin(sp.pi * x1)], sp.Integer(0),
                                        sp.Integer(0), grid, mat, T=0.3)
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


def test_support_check_rejects_source_outside_slab():
    # a body force beyond x0 that is zero at t = 0 and switches on later: the
    # check samples the source over the horizon, not only at t = 0
    scen = presets.pulse_scenario(nodes=41, T=0.2)
    scen.sources = {"f": lambda X, t: np.where(X[0] > 0.5, t > 0.05, 0.0)[None] * 1e-3}
    errors, _ = validate_scenario(scen)
    assert errors == ["source 'f' nonzero outside the support slab (max 1.000e-03)"]
    with pytest.raises(ValueError, match="source 'f' nonzero outside"):
        vt.run(scen)
    scen.sources = {"f": lambda X, t: np.where(X[0] < 0.2, 1e-3, 0.0)[None]}
    assert validate_scenario(scen)[0] == []


def test_support_check_rejects_far_face_field_data():
    # spatially varying data on a lateral face of a 2D plate, nonzero only at
    # t = T / 2: rejected at nodes beyond the slab, accepted inside it
    plate = vt.Scenario(grid=vt.Grid(extents=(1.25, 0.5), counts=(41, 9)),
                        material=presets.reference_material_2d(),
                        boundary=BoundaryPartition.all_dirichlet_zero(2), dt="auto",
                        T=0.2, support_x0=0.25)
    near = vt.FieldData(value=lambda X, t: np.where(X[0] < 0.2, 0.1 * (t == 0.1), 0.0),
                        rate=lambda X, t: np.zeros(np.shape(X[0])))
    plate.boundary.faces[(1, "max")]["thermal"] = BoundaryCondition("dirichlet", fielddata=near)
    assert validate_scenario(plate) == ([], [])
    bump = vt.FieldData(value=lambda X, t: np.where(X[0] > 0.5, 0.1 * (t == 0.1), 0.0),
                        rate=lambda X, t: np.zeros(np.shape(X[0])))
    plate.boundary.faces[(1, "max")]["void"] = BoundaryCondition("dirichlet", fielddata=bump)
    errors, _ = validate_scenario(plate)
    assert errors == ["face (1, max) 'void' field data nonzero outside the support slab"]
    with pytest.raises(ValueError, match="field data nonzero outside"):
        vt.run(plate)


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


@pytest.mark.parametrize("make", [
    lambda: presets.insulated_relaxation_scenario(nodes=101, T=0.2),
    lambda: presets.pulse_scenario(nodes=101, T=0.3),
], ids=["insulated", "pulse"])
def test_reversed_scenario_runs(make):
    # zero face data stays zero under reflection, so the data-free faces
    # beyond the support slab still pass the support check
    fwd = vt.run(make(), n_samples=3, dissipative=True)
    rev = vt.reverse_time(fwd).scenario
    for key, groups in fwd.scenario.boundary.faces.items():
        for g, bc in groups.items():
            assert rev.boundary.faces[key][g].is_zero() == bc.is_zero()
    back = vt.run(rev, n_samples=3, dissipative=not fwd.dissipative)
    assert back.times[-1] == pytest.approx(fwd.times[-1])


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


@pytest.mark.parametrize("case", ["insulated", "manufactured", "manufactured-tau"])
def test_reversed_run_solves_the_antidissipative_equations(case):
    if case == "insulated":
        scen = presets.insulated_relaxation_scenario(nodes=151, T=0.3)
    else:   # volume sources and spatially varying Dirichlet data; tau > 0 in one case
        grid = vt.Grid(extents=(1.0,), counts=(81,))
        mat = dataclasses.replace(presets.reference_material(),
                                  tau=0.5 if case == "manufactured-tau" else 0.0)
        scen, _ = manufactured_scenario(*presets.mms_profiles_1d(length=1.0), grid, mat,
                                        dt=0.2 / 80, T=0.3, dissipative=True)
    fwd = vt.run(scen, n_samples=61, dissipative=True)
    res_fwd = vt.pde_residual(fwd)  # dissipative residual of the forward run
    rev = vt.reverse_time(fwd)
    assert rev.dissipative is False
    res_rev = vt.pde_residual(rev)  # anti-dissipative residual of the image
    for key in res_fwd:
        assert res_rev[key] == pytest.approx(res_fwd[key], rel=1e-9)
    # the image's data is the reflection: values at T - t, rates negated
    T = fwd.times[-1]
    for t in (0.0, 0.3 * T, T):
        for face, groups in scen.boundary.faces.items():
            for g, (rate, sign) in itertools.product(groups, ((False, 1.0), (True, -1.0))):
                assert np.array_equal(_face_data(rev.scenario, face, g, t, rate),
                                      sign * _face_data(scen, face, g, T - t, rate))
        for key in ("f", "ell", "r"):
            assert np.array_equal(rev.scenario.source(key, t), scen.source(key, T - t))


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

    bad = PULSE_FILE.replace("dirichlet raised_cosine", "dirichlet warble")
    (tmp_path / "b.scn").write_text(bad)
    with pytest.raises(vt.ScenarioFileError, match="unknown signal"):
        vt.read_scenario_file(tmp_path / "b.scn")

    bad = PULSE_FILE.replace("face.x1max.thermal = dirichlet zero\n", "")
    (tmp_path / "c.scn").write_text(bad)
    with pytest.raises(vt.ScenarioFileError, match="thermal"):
        vt.read_scenario_file(tmp_path / "c.scn")


def test_scenario_file_profiles_and_signals_match_python(tmp_path):
    # a cosine-bump initial field and a windowed-Gaussian face read from a
    # file step bit for bit like the same scenario built in Python
    path = write_pulse_files(tmp_path)
    path.write_text(PULSE_FILE.replace("T = 0.5", "T = 0.2").replace(
        "face.x1min.void = dirichlet zero",
        "face.x1min.void = dirichlet windowed_gaussian amplitude=0.002 center=0.05 "
        "sigma=0.02 t_end=0.1") + "initial.u = cosine_bump amplitude=0.001 center=0.1 width=0.1\n")
    filed = vt.read_scenario_file(path)
    faces = BoundaryPartition.all_dirichlet_zero(1).faces
    faces[(0, "min")]["displacement"] = BoundaryCondition(
        "dirichlet", signal=vt.RaisedCosinePulse(amplitude=0.01, t_end=0.2))
    faces[(0, "min")]["void"] = BoundaryCondition(
        "dirichlet", signal=vt.WindowedGaussianPulse(amplitude=0.002, center=0.05, sigma=0.02,
                                                     t_end=0.1))
    bump = vt.CosineBump(amplitude=0.001, center=(0.1,), width=0.1)
    built = vt.Scenario(grid=vt.Grid(extents=(1.25,), counts=(101,)), material=filed.material,
                        boundary=BoundaryPartition(faces=faces), dt="auto", T=0.2,
                        support_x0=0.25, initial={"u": vt.solver.vector_profile(bump, 0, 1)})
    a, b = vt.run(filed, n_samples=11), vt.run(built, n_samples=11)
    assert np.abs(a.states[0].u).max() > 0.0 and np.abs(a.states[-1].phi).max() > 0.0
    for sa, sb in zip(a.states, b.states, strict=True):
        for key in ("u", "v", "phi", "phidot", "theta"):
            assert np.array_equal(getattr(sa, key), getattr(sb, key))


def test_trajectory_csv_dump(tmp_path):
    scen = presets.pulse_scenario(nodes=51, T=0.05)
    traj = vt.run(scen, n_samples=3)
    path = tmp_path / "traj.csv"
    vt.write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,u1,v1,phi,phidot,theta"
    assert len(lines) == 1 + 3 * 51
