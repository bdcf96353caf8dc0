"""The stepping operator against a test-held reference, and the stability
budget against the operator's own conduction block.

The reference is the semi-discrete right-hand side written with
``np.gradient`` and the pointwise constitutive kernel, flux-face corrections
included: the accelerations of (u, phi) and the temperature rate.  It is the
oracle the operator's stacked differences, packed contraction and face plans
must reproduce.
"""

import dataclasses
import itertools
import re
import warnings
import weakref

import numpy as np
import pytest

import voidtherm as vt
from voidtherm.constitutive import entropy_field, field_response, response_matrix
from voidtherm.solver import (BoundaryCondition, BoundaryPartition, SimState,
                              _face_data, _Operator, face_slice)

# ---------------------------------------------------------------------------
# reference right-hand side


def ref_grad(f, grid):
    return np.stack([np.gradient(f, grid.spacing[j], axis=j, edge_order=2)
                     for j in range(grid.dim)])


def ref_divergence(flux, grid):
    return sum(np.gradient(flux[j], grid.spacing[j], axis=j, edge_order=2)
               for j in range(grid.dim))


def ref_heat_flux_faces(dtheta, scenario, t):
    mat, d = scenario.material, scenario.grid.dim
    for (axis, side), groups in scenario.boundary.faces.items():
        if groups["thermal"].kind != "flux":
            continue
        fs = face_slice(axis, side, d)
        acc = (-1.0 if side == "min" else 1.0) * _face_data(scenario, (axis, side), "thermal", t)
        for s in range(d):
            if s != axis:
                acc = acc - mat.K[axis, s] * dtheta[(s,) + fs]
        dtheta[(axis,) + fs] = acc / mat.K[axis, axis]


def ref_flux_corrections(du, dphi, phi, theta, scenario, t):
    mat, d = scenario.material, scenario.grid.dim
    rows = ("displacement",) * d + ("void",)
    for (axis, side), groups in scenario.boundary.faces.items():
        flux_groups = [g for g in ("displacement", "void") if groups[g].kind == "flux"]
        if not flux_groups:
            continue
        sel = [r for r, g in enumerate(rows) if g in flux_groups]
        fs = face_slice(axis, side, d)
        du_face = du[(slice(None), slice(None)) + fs]
        dphi_face = dphi[(slice(None),) + fs]
        S, h, _, _ = field_response(0.5 * (du_face + du_face.swapaxes(0, 1)), dphi_face,
                                    None, phi[fs], theta[fs], mat)
        N = np.empty((d + 1, d + 1))
        N[:d, :d] = mat.C[:, axis, :, axis]
        N[:d, d] = N[d, :d] = mat.D[:, axis, axis]
        N[d, d] = mat.A[axis, axis]
        sigma = -1.0 if side == "min" else 1.0
        data = np.concatenate([
            np.reshape(_face_data(scenario, (axis, side), g, t), (-1,) + np.shape(phi[fs]))
            for g in flux_groups])
        resid = sigma * data - np.concatenate([S[:, axis], h[axis][None]])[sel]
        x = np.concatenate([du_face[:, axis], dphi_face[axis][None]])
        x[sel] += np.linalg.solve(N[np.ix_(sel, sel)],
                                  resid.reshape(len(sel), -1)).reshape(resid.shape)
        du[(slice(None), axis) + fs] = x[:d]
        dphi[(axis,) + fs] = x[d]


def ref_accelerations(u, phi, theta, phidot, scenario, t, tau_sign):
    mat, grid = scenario.material, scenario.grid
    du = np.stack([ref_grad(u[i], grid) for i in range(grid.dim)])
    dphi = ref_grad(phi, grid)
    ref_flux_corrections(du, dphi, phi, theta, scenario, t)
    S, h, G, _ = field_response(0.5 * (du + du.swapaxes(0, 1)), dphi, None, phi, theta, mat)
    div_s = np.stack([ref_divergence(S[i], grid) for i in range(grid.dim)])
    g = tau_sign * mat.tau * phidot + G
    acc_u = (div_s + mat.rho * scenario.source("f", t)) / mat.rho
    acc_p = (ref_divergence(h, grid) + g + mat.rho * scenario.source("ell", t)) / (mat.rho * mat.chi)
    return acc_u, acc_p


def ref_theta_rate(v, phidot, theta, scenario, t, thermal_sign):
    mat, grid = scenario.material, scenario.grid
    dtheta = ref_grad(theta, grid)
    ref_heat_flux_faces(dtheta, scenario, t)
    div_q = ref_divergence(np.einsum("ij,j...->i...", mat.K, dtheta), grid)
    dv = np.stack([ref_grad(v[i], grid) for i in range(grid.dim)])
    coupling = entropy_field(0.5 * (dv + dv.swapaxes(0, 1)), ref_grad(phidot, grid), phidot,
                             0.0, mat)
    rsrc = scenario.source("r", t)
    return (thermal_sign * (div_q + mat.rho * rsrc) / mat.theta0 - coupling) / mat.aHeat


# ---------------------------------------------------------------------------
# helpers


def random_faces(dim, grid, kinds, rng):
    """Every face carries ``kinds`` (one per group) with random field data."""
    X = grid.mesh()
    faces = {}
    for axis in range(dim):
        for side in ("min", "max"):
            face_shape = X[0][face_slice(axis, side, dim)].shape
            faces[(axis, side)] = {}
            for g, kind, size in zip(vt.solver.GROUPS, kinds, ((dim,), (), ())):
                values = rng.normal(size=size + face_shape)
                faces[(axis, side)][g] = BoundaryCondition(kind, fielddata=vt.FieldData(
                    value=lambda X, t, a=values: a, rate=lambda X, t, a=values: 0.0 * a))
    return faces


def random_sources(dim, rng):
    """Smooth space-time sources, so the source terms of the balances count."""
    w = rng.normal(size=3)

    def scalar(k):
        return lambda X, t: np.cos(w[k] * t + sum(X)) + X[0] ** 2

    return {"f": lambda X, t: np.stack([scalar(0)(X, t) * (i + 1) for i in range(dim)]),
            "ell": scalar(1), "r": scalar(2)}


def rel_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("dissipative", (False, True))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_operator_matches_reference(dim, dissipative):
    rng = np.random.default_rng(31 + dim)
    mat = vt.random_material(dim, rng)
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(9, 7, 6)[:dim])
    counts = grid.counts
    worst = 0.0
    for kinds in itertools.product(("dirichlet", "flux"), repeat=3):
        scen = vt.Scenario(grid=grid, material=mat,
                           boundary=BoundaryPartition(faces=random_faces(dim, grid, kinds, rng)),
                           dt="auto", T=1.0, support_x0=1.0, sources=random_sources(dim, rng))
        state = SimState(t=0.37, u=rng.normal(size=(dim,) + counts),
                         v=rng.normal(size=(dim,) + counts), phi=rng.normal(size=counts),
                         phidot=rng.normal(size=counts), theta=rng.normal(size=counts))
        tau_sign, thermal_sign = (-1.0, 1.0) if dissipative else (1.0, -1.0)
        acc_u, acc_p = ref_accelerations(state.u, state.phi, state.theta, state.phidot, scen,
                                         state.t, tau_sign)
        tdot = ref_theta_rate(state.v, state.phidot, state.theta, scen, state.t, thermal_sign)

        op = _Operator(scen, dissipative)
        got_acc, got_tdot = op.rates(state)
        for got, want in ((got_acc[:dim], acc_u), (got_acc[dim], acc_p), (got_tdot, tdot)):
            gap = rel_gap(got, want)
            worst = max(worst, gap)
            assert gap <= 1e-13, (kinds, gap)
        # the kinematics come from the same corrected differences
        e, gamma, kappa = op.kinematics(state)
        du = np.stack([ref_grad(state.u[i], grid) for i in range(dim)])
        dphi = ref_grad(state.phi, grid)
        ref_flux_corrections(du, dphi, state.phi, state.theta, scen, state.t)
        dtheta = ref_grad(state.theta, grid)
        ref_heat_flux_faces(dtheta, scen, state.t)
        assert rel_gap(e, 0.5 * (du + du.swapaxes(0, 1))) <= 1e-13
        assert rel_gap(gamma, dphi) <= 1e-13
        assert rel_gap(kappa, dtheta) <= 1e-13


def same_bits(a, b):
    # equal values, NaN included, and equal signs, so -0.0 differs from 0.0
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def with_end_specials(f):
    # f with two more fields per axis whose end nodes along that axis hold
    # signed zeros (each full end stencil then sums three -0.0 terms, so a sum
    # that starts from +0.0 shows) and NaN and +-inf (inf - inf at the far end)
    specials = []
    for j in range(1, f.ndim):
        zeros, nonfinite = f[:1].copy(), f[:1].copy()
        for k, value in zip((0, 1, 2, -3, -2, -1), (0.0, -0.0, 0.0, -0.0, 0.0, -0.0)):
            zeros[(slice(None),) * j + (k,)] = value
        for k, value in zip((0, 1, -2, -1), (np.nan, np.inf, np.inf, np.inf)):
            nonfinite[(slice(None),) * j + (k,)] = value
        specials += [zeros, nonfinite]
    return np.concatenate([f] + specials)


@pytest.mark.parametrize("shape", [(3, 501), (3, 161, 81), (2, 7, 3, 5), (1, 3, 4),
                                   (4, 9, 3), (2, 5, 4, 3), (5, 17, 17, 17), (2, 3)])
def test_difference_is_np_gradient(shape):
    # the one difference routine does np.gradient's arithmetic bit for bit, into
    # a new array and into out= views laid out as the operator lays them out:
    # a derivative axis of _Operator.grad, and a row block of _Operator.scratch;
    # on random fields and on end nodes that hold -0.0, NaN and +-inf; at
    # spacings that differ by axis; at powers of two, 2^-5 on every axis and
    # 2^-7 next to 0.1/3, where a multiply by 1/(2h) replaces the divide; at
    # 2^-1025, whose 1/(2h) overflows, so the divide stays; and at h = 0.5,
    # where the divide is skipped
    random = np.random.default_rng(len(shape)).normal(size=shape)
    for f in (random, with_end_specials(random)):
        k, counts, d = f.shape[0], f.shape[1:], f.ndim - 1
        for spacing in ([0.1 * (axis + 1) / 3.0 for axis in range(d)], [2.0 ** -5] * d,
                        [(2.0 ** -7, 0.1 / 3.0)[axis % 2] for axis in range(d)],
                        [2.0 ** -1025] * d, [0.5] * d):
            grad = np.full((k, d) + counts, np.nan)
            kappa = np.full((d + 3,) + counts, np.nan)[None, 1:d + 1]
            wants = []
            for axis, h in enumerate(spacing):
                with np.errstate(invalid="ignore", over="ignore"):
                    wants.append(np.gradient(f, h, axis=axis + 1, edge_order=2))
                    assert same_bits(vt.solver._difference(f, axis, h), wants[-1])
                    assert same_bits(vt.solver._difference(f, axis, h, grad[:, axis]), wants[-1])
                    assert same_bits(vt.solver._difference(f[-1:], axis, h, kappa[:, axis]),
                                     wants[-1][-1:])
            # no axis wrote outside its own view
            assert same_bits(grad, np.stack(wants, 1))
    assert np.signbit(wants[0][shape[0], -1]).all()  # -0.0 end values were checked


@pytest.mark.parametrize("tau", (0.0, 0.5))
@pytest.mark.parametrize("dissipative", (False, True))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_bound_plans_follow_the_state(dim, dissipative, tau):
    # the operator binds its differences, divergences and matmul views once:
    # after each step, an operator built from the stepped state evaluates
    # the same level and temperature rate bit for bit, and the half-step
    # temperature gradient and rate that the step left equal one-off
    # differences of copies of their inputs (m = 0 and no sources, so that
    # rate is the heat divergence alone); the rate is compared on the nodes
    # the step reads: on a 1D grid whose two faces hold theta by Dirichlet
    # data, all but the two ends, whose values the step overwrites
    rng = np.random.default_rng(80 + dim)
    mat = dataclasses.replace(vt.random_material(dim, rng), tau=tau, m=0.0)
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(9, 7, 6)[:dim])
    counts, h, dt = grid.counts, grid.spacing, 1e-3
    for kinds in itertools.product(("dirichlet", "flux"), repeat=3):
        scen = vt.Scenario(grid=grid, material=mat,
                           boundary=BoundaryPartition(faces=random_faces(dim, grid, kinds, rng)),
                           dt=dt, T=1.0, support_x0=1.0)
        read = slice(1, -1) if dim == 1 and kinds[2] == "dirichlet" else slice(None)
        op = _Operator(scen, dissipative)
        op.load(SimState(t=0.0, u=rng.normal(size=(dim,) + counts),
                         v=rng.normal(size=(dim,) + counts), phi=rng.normal(size=counts),
                         phidot=rng.normal(size=counts), theta=rng.normal(size=counts)))
        op.level(0.0)
        for k in range(3):
            op.advance(k * dt, dt)
            assert np.isfinite(op.Y).all()
            fresh = _Operator(scen, dissipative)
            fresh.load(op.state((k + 1) * dt))
            fresh.level((k + 1) * dt)
            for name in ("grad", "flux", "acc"):
                assert same_bits(getattr(op, name), getattr(fresh, name)), (kinds, k, name)
            theta_half = op.theta_half[None].copy()
            kappa = np.stack([vt.solver._difference(theta_half, j, h[j]) for j in range(dim)], 1)
            op._correct_heat(kappa[0], (k + 0.5) * dt)
            assert same_bits(op.kappa_half, kappa), (kinds, k)
            rate = vt.solver._divergence_plan(op.heat[:, None].copy(), (0.5,) * dim,
                                              np.empty((1,) + counts), np.empty((1,) + counts))()
            assert same_bits(op.rate[..., read], rate[0][..., read]), (kinds, k)
            # and the next step's first temperature rate, which reads the velocities
            for each in (op, fresh):
                each._theta_rate(each._kappa_rows, (k + 1) * dt)
            assert same_bits(op.rate[..., read], fresh.rate[..., read]), (kinds, k)


@pytest.mark.parametrize("tau", (0.0, 0.5))
@pytest.mark.parametrize("dissipative", (False, True))
@pytest.mark.parametrize("thermal", [("dirichlet", "dirichlet"), ("dirichlet", "flux"),
                                     ("flux", "flux")], ids=["dd", "df", "ff"])
def test_skipped_rate_ends_are_never_read(monkeypatch, thermal, dissipative, tau):
    # on a 1D grid whose two faces hold theta by Dirichlet data the step skips
    # the temperature rate's end stencils: with both end nodes of the rate set
    # to NaN before every step, the states, the record and the log keep every
    # bit (m != 0, with sources), and the NaN is still there after the run;
    # with a heat-flux face the step computes both ends over the NaN
    rng = np.random.default_rng(90)
    mat = vt.random_material(1, rng)
    mat = dataclasses.replace(mat, K=1e-3 * mat.K, tau=tau)
    assert mat.m != 0.0
    grid = vt.Grid(extents=(1.0,), counts=(21,))
    faces = random_faces(1, grid, ("dirichlet", "flux", "dirichlet"), rng)
    for face, kind in zip(faces.values(), thermal):
        face["thermal"] = dataclasses.replace(face["thermal"], kind=kind)
    scen = vt.Scenario(grid=grid, material=mat, boundary=BoundaryPartition(faces=faces),
                       dt="auto", T=0.2, support_x0=1.0, sources=random_sources(1, rng))

    def stepped():
        record, states = vt.SampleRecord(scen), []
        traj = vt.run(scen, n_samples=9, dissipative=dissipative,
                      reducers=[record, lambda block: states.extend(block.states())])
        fields = [getattr(st, name) for st in states for name in ("u", "v", "phi", "phidot",
                                                                   "theta")]
        return (fields + [np.array(record.t), *record.profile_blocks, np.array(record.box_P),
                          np.array(record.box_R), np.array(record.box_power),
                          np.array(record.box_work), traj.times, traj.log["energy"],
                          traj.log["theta_max"], np.array([traj.log["dt"],
                                                           traj.log["nsteps"]])])

    clean, ops, advance = stepped(), [], _Operator.advance

    def poisoned(op, t, dt):
        ops.append(op)
        op.rate[[0, -1]] = np.nan
        advance(op, t, dt)
    monkeypatch.setattr(_Operator, "advance", poisoned)
    got = stepped()
    assert len(got) == len(clean) and len(ops) > 20
    assert all(same_bits(a, b) for a, b in zip(got, clean))
    assert np.isnan(ops[-1].rate[[0, -1]]).all() == (thermal == ("dirichlet", "dirichlet"))


@pytest.mark.parametrize("tau", (0.0, 0.5))
@pytest.mark.parametrize("dissipative", (False, True))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_bound_step_survives_rates_and_kinematics(dim, dissipative, tau):
    # the step is bound once, as closures over the operator's arrays: an
    # operator that steps, evaluates rates() and kinematics() at another
    # state, is reloaded with its stepped state and steps on keeps every bit
    # of a twin that made the same reload without those two calls, and of a
    # fresh operator loaded there (traction, equilibrated-stress and heat-flux
    # faces beside Dirichlet ones, sources, m != 0); and each step moves theta
    # off its Dirichlet faces by dt times the half-step rate it left, so the
    # step advances the state that load() wrote
    rng = np.random.default_rng(110 + dim)
    mat = dataclasses.replace(vt.random_material(dim, rng), tau=tau)
    assert mat.m != 0.0
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(9, 7, 6)[:dim])
    counts, dt, d = grid.counts, 1e-3, dim
    for kinds in (("flux",) * 3, ("dirichlet", "flux", "dirichlet"),
                  ("flux", "dirichlet", "flux"), ("dirichlet",) * 3):
        scen = vt.Scenario(grid=grid, material=mat,
                           boundary=BoundaryPartition(faces=random_faces(dim, grid, kinds, rng)),
                           dt=dt, T=1.0, support_x0=1.0, sources=random_sources(dim, rng))
        free = np.ones(counts, dtype=bool)
        for face, groups in scen.boundary.faces.items():
            if groups["thermal"].kind == "dirichlet":
                free[face_slice(*face, dim)] = False
        start, other = random_states(rng, dim, counts, (0.0, 0.4))
        op, twin = _Operator(scen, dissipative), _Operator(scen, dissipative)
        for each in (op, twin):
            each.load(start)
            each.level(0.0)
        for k in range(4):
            if k == 2:
                stepped = op.state(k * dt)
                op.rates(other)
                op.kinematics(other)
                fresh = _Operator(scen, dissipative)
                for each in (op, twin, fresh):
                    each.load(stepped)
                    each.level(k * dt)
            theta = op.Y[d + 1].copy()
            for each in (op, twin) if k < 2 else (op, twin, fresh):
                each.advance(k * dt, dt)
            assert np.isfinite(op.Y).all()
            assert same_bits(op.Y[d + 1][free], (theta + op.rate * dt)[free]), (kinds, k)
            for each in (twin,) if k < 2 else (twin, fresh):
                assert same_bits(op.rows, each.rows) and same_bits(op.acc, each.acc), (kinds, k)


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_stepped_operator_is_freed_by_its_last_reference(dim):
    # the bound step holds no strong reference back to its operator: one
    # kept each operator and its arrays alive until the cyclic collector
    # ran, and raised the peak memory of runs of many steps and samples
    rng = np.random.default_rng(120 + dim)
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(9, 7, 6)[:dim])
    scen = vt.Scenario(grid=grid, material=vt.random_material(dim, rng),
                       boundary=BoundaryPartition(faces=random_faces(dim, grid, ("flux",) * 3,
                                                                     rng)),
                       dt=1e-3, T=1.0, support_x0=1.0, sources=random_sources(dim, rng))
    op = _Operator(scen)
    op.load(random_states(rng, dim, grid.counts, (0.0,))[0])
    op.level(0.0)
    op.advance(0.0, 1e-3)
    op.kinematics(op.state(1e-3))
    alive = weakref.ref(op)
    del op
    assert alive() is None


def test_check_finite_reads_one_sum():
    # a finite state whose self dot overflows (entries near 1e200, whose
    # squares overflow, and near 1e308, whose sum does too) passes, scanned
    # field by field, with no overflow warning; one NaN or one inf at a
    # chosen node raises NonFiniteField naming that field and node
    scen = vt.Scenario(grid=vt.Grid(extents=(1.0, 0.5), counts=(6, 4)),
                       material=vt.random_material(2, np.random.default_rng(5)),
                       boundary=BoundaryPartition.all_dirichlet_zero(2), dt="auto", T=0.1,
                       support_x0=1.0)
    op = _Operator(scen)
    op.load(SimState(0.0, *vt.solver.initial_arrays(scen)))
    d, finite = op.d, op.Y.copy()
    for big in (1e200, -3e200, 1e308):
        op.Y[...] = finite
        op.Y[d + 2][0, 1] = op.Y[d + 1][4, 2] = big
        with np.errstate(over="ignore"):
            assert not np.isfinite(op.Y.ravel() @ op.Y.ravel())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op.check_finite(0.5)
    for name, row, node, value in (("phidot", 2 * d + 2, (3, 1), np.nan),
                                   ("theta", d + 1, (5, 0), -np.inf)):
        op.Y[...] = finite
        op.Y[row][node] = value
        with pytest.raises(vt.NonFiniteField,
                           match=re.escape(f"field '{name}' non-finite at node {node}, t = 0.5")):
            op.check_finite(0.5)


@pytest.mark.parametrize("shape", [(3, 9, 5), (2, 4, 5, 6)])
def test_difference_out_that_is_no_flat_view_raises(shape):
    # on the last axis the kernel writes through a flattened view of out; an out
    # whose rows are padded would flatten to a copy, so it raises and leaves out
    # as it was
    f = np.random.default_rng(0).normal(size=shape)
    out = np.full(shape[:-1] + (shape[-1] + 1,), np.nan)[..., :-1]
    with pytest.raises(ValueError, match="does not flatten as a view"):
        vt.solver._difference(f, len(shape) - 2, 0.1, out)
    assert np.isnan(out).all()


def test_face_data_has_the_face_shape():
    # field data that returns a scalar is broadcast to the face, data that
    # returns the face's own array comes back as that array, and a signal fills
    # the face: every group's data has the shape of its face nodes
    grid = vt.Grid(extents=(1.0, 0.8), counts=(9, 7))
    face_array = np.random.default_rng(2).normal(size=(2, 7))  # the x1 = max face
    arrays = {"displacement": face_array, "void": face_array[0], "thermal": face_array[1]}
    pulse = vt.RaisedCosinePulse(amplitude=2.0, t_end=1.0)
    cases = {
        (0, "min"): lambda g: vt.FieldData(value=lambda X, t: 0.25, rate=lambda X, t: -0.5),
        (0, "max"): lambda g: vt.FieldData(value=lambda X, t: arrays[g],
                                           rate=lambda X, t: 3.0 * arrays[g]),
        (1, "min"): None,  # a signal along x2
    }
    faces = {face: {g: BoundaryCondition("flux", fielddata=make(g)) if make else
                    BoundaryCondition("flux", signal=pulse, axis=1) for g in vt.solver.GROUPS}
             for face, make in cases.items()}
    faces[(1, "max")] = {g: BoundaryCondition("flux") for g in vt.solver.GROUPS}
    scen = vt.Scenario(grid=grid, material=vt.random_material(2, np.random.default_rng(3)),
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=1.0, support_x0=1.0)
    for face, g, rate in itertools.product(cases, vt.solver.GROUPS, (False, True)):
        n = grid.counts[1 - face[0]]
        want = np.zeros((2, n) if g == "displacement" else (n,))
        if face == (0, "min"):
            want[...] = -0.5 if rate else 0.25
        elif face == (0, "max"):
            want[...] = (3.0 if rate else 1.0) * arrays[g]
            assert rate or _face_data(scen, face, g, 0.5) is arrays[g]
        else:
            want[1 if g == "displacement" else ...] = pulse.rate(0.5) if rate else pulse.value(0.5)
        data = _face_data(scen, face, g, 0.5, rate)
        assert data.shape == want.shape and np.array_equal(data, want)


def test_dirichlet_writes_match_face_data():
    # signal faces are written as scalars, field data faces through _face_data:
    # after impose, every Dirichlet face of every group holds _face_data's array,
    # values in (u, phi, theta) and rates in (v, phidot), and where two faces
    # share nodes the later face in the boundary table wins
    grid = vt.Grid(extents=(1.0, 0.8), counts=(9, 7))
    d, t = grid.dim, 0.3
    pulse = vt.RaisedCosinePulse(amplitude=2.0, t_end=1.0)
    gauss = vt.WindowedGaussianPulse(amplitude=-1.5, center=0.4, sigma=0.2, t_end=1.0)
    arrays = {g: np.random.default_rng(6).normal(size=(d, 9) if g == "displacement" else 9)
              for g in vt.solver.GROUPS}
    field = {g: vt.FieldData(value=lambda X, t, g=g: t * arrays[g],
                             rate=lambda X, t, g=g: arrays[g]) for g in vt.solver.GROUPS}
    faces = {  # x1min shares a corner node with x2min and one with x2max
        (0, "min"): {g: BoundaryCondition("dirichlet", signal=pulse, axis=1) for g in field},
        (1, "min"): {g: BoundaryCondition("dirichlet", signal=gauss, axis=0) for g in field},
        (1, "max"): {g: BoundaryCondition("dirichlet", fielddata=field[g]) for g in field},
        (0, "max"): {g: BoundaryCondition("dirichlet") for g in field},
    }
    scen = vt.Scenario(grid=grid, material=vt.random_material(2, np.random.default_rng(3)),
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=1.0, support_x0=1.0)
    nan = np.full((d,) + grid.counts, np.nan)
    op = _Operator(scen)
    op.load(SimState(t=t, u=nan, v=nan, phi=nan[0], phidot=nan[0], theta=nan[0]))
    op.impose(t)
    u, phi, theta, v, phidot = np.split(op.Y, [d, d + 1, d + 2, 2 * d + 2])
    want = np.full(op.Y.shape, np.nan)
    wu, wphi, wtheta, wv, wphidot = np.split(want, [d, d + 1, d + 2, 2 * d + 2])
    for face in faces:
        at = (Ellipsis,) + face_slice(*face, d)
        for arr, g, rate in ((wu, "displacement", False), (wphi[0], "void", False),
                             (wtheta[0], "thermal", False), (wv, "displacement", True),
                             (wphidot[0], "void", True)):
            arr[at] = _face_data(scen, face, g, t, rate)
    assert np.array_equal(op.Y, want, equal_nan=True)
    # a signal sets only the displacement component along its axis
    assert pulse.value(t) != 0.0 and pulse.rate(t) != 0.0
    assert np.all(u[0, 0, 1:-1] == 0.0) and np.all(u[1, 0, 1:-1] == pulse.value(t))
    assert np.all(v[0, 0, 1:-1] == 0.0) and np.all(v[1, 0, 1:-1] == pulse.rate(t))
    # the later face wins at the shared corners
    assert u[:, 0, 0].tolist() == [gauss.value(t), 0.0] and theta[0, 0, 0] == gauss.value(t)
    assert phidot[0, 0, 0] == gauss.rate(t) and phi[0, 0, -1] == t * arrays["void"][0]


def random_states(rng, dim, counts, times):
    return [SimState(t=t, u=rng.normal(size=(dim,) + counts), v=rng.normal(size=(dim,) + counts),
                     phi=rng.normal(size=counts), phidot=rng.normal(size=counts),
                     theta=rng.normal(size=counts)) for t in times]


def read_block(scen, states, read):
    """``read(block)`` on the one sample block that replays ``states``, taken
    during the reducer call, while the block's rows are valid."""
    got = []
    vt.replay(vt.Trajectory(scen, np.array([st.t for st in states]), states),
              [lambda block: got.append(read(block))])
    (result,) = got
    return result


@pytest.mark.parametrize("dim", (2, 3))
def test_normal_power_matches_independent_reference(dim):
    # S n.v + h.n phidot - q.n theta/theta0 from the corrected kinematics and
    # the pointwise law, on a grid whose spacings differ by axis (the fluxes
    # the operator keeps carry 1 / (2 h_axis)), with flux data on every face;
    # a block of three samples, each against the reference of its own state
    rng = np.random.default_rng(70 + dim)
    mat = vt.random_material(dim, rng)
    grid = vt.Grid(extents=(1.0, 0.3, 2.0)[:dim], counts=(9, 7, 6)[:dim])
    counts = grid.counts
    scen = vt.Scenario(grid=grid, material=mat,
                       boundary=BoundaryPartition(faces=random_faces(dim, grid, ("flux",) * 3, rng)),
                       dt="auto", T=1.0, support_x0=1.0)
    states = random_states(rng, dim, counts, (0.4, 0.5, 0.6))

    def sels(axis):
        plane = (slice(None),) * axis
        box = tuple(slice(1, n - 2) for n in counts)
        return [(), plane + (0,), plane + (counts[axis] - 1,), plane + (2,),
                box[:axis] + (counts[axis] - 1,) + box[axis + 1:],
                box[:axis] + (1,) + box[axis + 1:]]
    powers = read_block(scen, states, lambda block: [
        [block.normal_power(axis, sel) for sel in sels(axis)] for axis in range(dim)])
    op = _Operator(scen)
    for k, state in enumerate(states):
        e, gamma, kappa = op.kinematics(state)
        S, h, _, q = field_response(e, gamma, kappa, state.phi, state.theta, mat)
        for axis in range(dim):
            want = (np.einsum("i...,i...->...", S[:, axis], state.v) + h[axis] * state.phidot
                    - q[axis] * state.theta / mat.theta0)
            for sel, got in zip(sels(axis), powers[axis], strict=True):
                assert got.shape == (len(states),) + want[sel].shape
                assert rel_gap(got[k], want[sel]) <= 1e-13, (k, axis, sel)


@pytest.mark.parametrize("kinds, probes", [
    (("dirichlet", "dirichlet", "flux"), 0),  # kinematics alone never needs the law
    (("flux", "flux", "flux"), 1),
])
def test_kernel_probed_at_most_once(kinds, probes):
    rng = np.random.default_rng(5)
    grid = vt.Grid(extents=(1.0, 0.8), counts=(9, 7))
    scen = vt.Scenario(grid=grid, material=vt.random_material(2, rng),
                       boundary=BoundaryPartition(faces=random_faces(2, grid, kinds, rng)),
                       dt="auto", T=1.0, support_x0=1.0)
    zeros = (np.zeros((2,) + grid.counts), np.zeros(grid.counts))
    state = SimState(t=0.0, u=zeros[0], v=zeros[0], phi=zeros[1], phidot=zeros[1],
                     theta=zeros[1])
    before = response_matrix.cache_info().misses  # the material is fresh, not cached yet
    op = _Operator(scen)
    op.kinematics(state)
    assert response_matrix.cache_info().misses - before == probes
    op.rates(state)
    assert response_matrix.cache_info().misses - before == 1


# ---------------------------------------------------------------------------
# the stability budget is conservative for the discrete conduction block


def conduction_growth_exponent(scen, T):
    """max Re eig of the anti-dissipative temperature rate, assembled from unit
    vectors on the nodes off Dirichlet faces (homogeneous data), times T."""
    grid, d = scen.grid, scen.grid.dim
    free = np.ones(grid.counts, dtype=bool)
    for (axis, side), groups in scen.boundary.faces.items():
        if groups["thermal"].kind == "dirichlet":
            free[face_slice(axis, side, d)] = False
    nodes = np.flatnonzero(free)
    op = _Operator(scen)
    cols = []
    zeros = (np.zeros((d,) + grid.counts), np.zeros(grid.counts))
    for k in nodes:
        theta = np.zeros(grid.counts)
        theta.flat[k] = 1.0
        state = SimState(t=0.0, u=zeros[0], v=zeros[0], phi=zeros[1], phidot=zeros[1],
                         theta=theta)
        _, tdot = op.rates(state)
        cols.append(tdot.ravel()[nodes])
    return float(np.linalg.eigvals(np.array(cols).T).real.max()) * T


def conduction_scenario(dim, counts, K, rho, T):
    d = dim
    eye = np.eye(d)
    C = np.einsum("ir,js->ijrs", eye, eye) + np.einsum("is,jr->ijrs", eye, eye)
    mat = vt.Material(dim=d, C=C, A=eye, K=K, rho=rho, chi=1.0, aHeat=1.0,
                      theta0=1.0, xi=1.0)
    faces = BoundaryPartition.all_dirichlet_zero(d).faces
    # heat flux on the far end and on the lateral faces, zero data
    faces[(0, "max")]["thermal"] = BoundaryCondition("flux")
    for axis in range(1, d):
        for side in ("min", "max"):
            faces[(axis, side)]["thermal"] = BoundaryCondition("flux")
    return vt.Scenario(grid=vt.Grid(extents=(1.0,) * d, counts=counts), material=mat,
                       boundary=BoundaryPartition(faces=faces), dt="auto", T=T,
                       support_x0=1.0)


@pytest.mark.parametrize("dim, counts, K, rho", [
    (1, (41,), [[1e-4]], 1.0),
    (2, (11, 9), [[2e-3, 8e-4], [8e-4, 1e-3]], 1.0),
    (3, (7, 6, 5), [[3e-3, 1e-3, -5e-4], [1e-3, 2e-3, 4e-4], [-5e-4, 4e-4, 1.5e-3]], 1.0),
    # the temperature rate carries no rho, so neither may the gate
    (1, (41,), [[1e-4]], 10.0),
    (1, (41,), [[1e-4]], 0.1),
])
def test_stability_budget_is_conservative(dim, counts, K, rho):
    T = 1.0
    scen = conduction_scenario(dim, counts, np.array(K), rho, T)
    _, growth = vt.stability_budget(scen, enforce=False)
    exponent = conduction_growth_exponent(scen, T)
    assert exponent > 0.0
    assert np.exp(exponent) <= growth, (np.exp(exponent), growth)


# ---------------------------------------------------------------------------
# the packed energy against the independent quadratic form


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_packed_energy_matches_quadratic_form(dim):
    # 2W = z^T H z with H read off the response matrix, which lists its rows
    # in (axis, field) and its columns in (field, axis) order: a transposed
    # H is exact in 1D only, so 2D and 3D anisotropic materials are the test
    from voidtherm.constitutive import PointState

    rng = np.random.default_rng(50 + dim)
    mat = vt.random_material(dim, rng)
    grid = vt.Grid(extents=(1.0, 0.8, 1.2)[:dim], counts=(7, 6, 5)[:dim])
    counts = grid.counts
    scen = vt.Scenario(grid=grid, material=mat,
                       boundary=BoundaryPartition(faces=random_faces(dim, grid, ("flux",) * 3, rng)),
                       dt="auto", T=1.0, support_x0=1.0)
    # a block of two samples, each against the form at its own state
    states = random_states(rng, dim, counts, (0.2, 0.3))
    P, R = read_block(scen, states, lambda block: block.energy_parts())
    assert P.shape == R.shape == (len(states),) + counts
    op = _Operator(scen)
    Q = vt.assemble_quadratic_form(mat)
    for s, state in enumerate(states):
        e, gamma, kappa = op.kinematics(state)
        for idx in np.ndindex(*counts):
            z = PointState(e=e[(slice(None), slice(None)) + idx], gamma=gamma[(slice(None),) + idx],
                           kappa=0.0, phi=state.phi[idx], phidot=0.0, theta=0.0).scaled_coords(mat)
            v, k, pdot = (state.v[(slice(None),) + idx], kappa[(slice(None),) + idx],
                          state.phidot[idx])
            want_P = 0.5 * (mat.rho * v @ v + mat.rho * mat.chi * pdot ** 2
                            + mat.aHeat * state.theta[idx] ** 2 + z @ Q @ z)
            assert P[(s,) + idx] == pytest.approx(want_P, rel=1e-12)
            assert R[(s,) + idx] == pytest.approx(mat.tau * pdot ** 2 + k @ mat.K @ k / mat.theta0,
                                                  rel=1e-12)
